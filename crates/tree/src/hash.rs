//! Fast, non-cryptographic hashing for interned ids and packed keys.
//!
//! The similarity-join inner loops probe hash maps keyed by small integers
//! (tree sizes, postorder numbers, packed label twigs). The standard library
//! default hasher (SipHash 1-3) is collision-resistant but slow for such
//! keys, so we provide a local implementation of the well-known `Fx` hash
//! (the multiply-xor hash used by the Rust compiler) rather than pulling in
//! an external crate for ~30 lines of code.
//!
//! Do **not** use these maps with attacker-controlled keys; there is no
//! HashDoS protection.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The golden-ratio-derived multiplier used by the Fx hash.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A fast, low-quality hasher for small integer-like keys.
///
/// Identical in spirit to `rustc_hash::FxHasher`: each written word is
/// rotated into the state and multiplied by a fixed odd constant.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, i: u64) {
        self.hash = (self.hash.rotate_left(5) ^ i).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` using the fast Fx hash. Use for trusted small keys only.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` using the fast Fx hash. Use for trusted small keys only.
pub type FxHashSet<K> = HashSet<K, FxBuildHasher>;

/// Heap bytes of the table of a `HashMap<K, V>` that reports `capacity`:
/// the power-of-two bucket count that capacity implies (7/8 of it is
/// usable, all but one below 8 buckets), one `(K, V)` slot and one
/// control byte a bucket, and a trailing group of 16 control bytes. What
/// the keys and values own on the heap is not counted.
pub fn table_bytes<K, V>(capacity: usize) -> usize {
    let buckets = match capacity {
        0 => return 0,
        1..=7 => capacity + 1,
        _ => capacity / 7 * 8,
    };
    buckets * (std::mem::size_of::<(K, V)>() + 1) + 16
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_small_keys_hash_differently() {
        let mut seen = HashSet::new();
        for key in 0u64..10_000 {
            let mut h = FxHasher::default();
            h.write_u64(key);
            seen.insert(h.finish());
        }
        // Fx is not perfect, but small consecutive integers must not collide.
        assert_eq!(seen.len(), 10_000);
    }

    #[test]
    fn table_bytes_follow_the_bucket_count() {
        for n in [0usize, 1, 3, 5, 9, 100, 1_000, 5_000] {
            let mut map: FxHashMap<u32, u64> = FxHashMap::default();
            map.extend((0..n as u32).map(|k| (k, 0)));
            let bytes = table_bytes::<u32, u64>(map.capacity());
            let buckets = if n == 0 { 0 } else { (bytes - 16) / 17 };
            assert!(buckets.is_power_of_two() || n == 0, "{n}: {buckets}");
            assert!(buckets >= n, "{n} entries in {buckets} buckets");
        }
    }

    #[test]
    fn map_round_trip() {
        let mut map: FxHashMap<u32, &str> = FxHashMap::default();
        map.insert(1, "one");
        map.insert(2, "two");
        assert_eq!(map.get(&1), Some(&"one"));
        assert_eq!(map.get(&2), Some(&"two"));
        assert_eq!(map.get(&3), None);
    }

    #[test]
    fn byte_writes_consistent_with_word_writes_for_equality() {
        // Hashing the same logical bytes twice must agree (determinism).
        let mut a = FxHasher::default();
        a.write(b"hello world, tree joins");
        let mut b = FxHasher::default();
        b.write(b"hello world, tree joins");
        assert_eq!(a.finish(), b.finish());
    }
}
