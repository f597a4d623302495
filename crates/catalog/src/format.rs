//! Byte-level primitives of the snapshot format: little-endian scalar
//! encoding, a bounds-checked reader whose failures are typed
//! [`CatalogError`]s, and [`checksum`], the one integrity check of
//! snapshot sections and `catalogd` wire frames alike.
//!
//! The reader validates *before* allocating: every length prefix is
//! checked against the bytes actually remaining (given a per-element
//! minimum size), so a corrupted count cannot drive an out-of-memory
//! allocation — it surfaces as [`CatalogError::Truncated`].

use crate::error::CatalogError;

/// Appends little-endian scalars to a growing byte buffer.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> ByteWriter {
        ByteWriter::default()
    }

    /// An empty writer with room for exactly `capacity` bytes: what an
    /// encoder that knows its output length uses, so the buffer is
    /// allocated once and never regrows.
    pub fn with_capacity(capacity: usize) -> ByteWriter {
        ByteWriter {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// A writer that appends to `buf`, keeping what it already holds —
    /// how a caller encodes several records into one allocation.
    pub fn appending_to(buf: Vec<u8>) -> ByteWriter {
        ByteWriter { buf }
    }

    /// The bytes written so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// The bytes written so far, without giving them up.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Overwrites already-written bytes from offset `at` on — how a
    /// header written ahead of its contents is completed afterwards.
    pub fn patch(&mut self, at: usize, bytes: &[u8]) {
        self.buf[at..at + bytes.len()].copy_from_slice(bytes);
    }

    /// Current length in bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u16`, little-endian.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes raw bytes verbatim.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }
}

/// A cursor over a byte slice; every read is bounds-checked and reports
/// the failing `context` in its [`CatalogError::Truncated`].
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Reads from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], CatalogError> {
        if self.remaining() < n {
            return Err(CatalogError::Truncated { context });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self, context: &'static str) -> Result<u8, CatalogError> {
        Ok(self.take(1, context)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn get_u16(&mut self, context: &'static str) -> Result<u16, CatalogError> {
        Ok(u16::from_le_bytes(
            self.take(2, context)?.try_into().unwrap(),
        ))
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self, context: &'static str) -> Result<u32, CatalogError> {
        Ok(u32::from_le_bytes(
            self.take(4, context)?.try_into().unwrap(),
        ))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self, context: &'static str) -> Result<u64, CatalogError> {
        Ok(u64::from_le_bytes(
            self.take(8, context)?.try_into().unwrap(),
        ))
    }

    /// Reads `n` raw bytes.
    pub fn get_bytes(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], CatalogError> {
        self.take(n, context)
    }

    /// Reads a `u32` element count and sanity-checks it against the
    /// remaining bytes: with at least `elem_min_bytes` per element, a
    /// count the buffer cannot possibly hold is reported as truncation
    /// instead of driving a giant allocation.
    pub fn get_count(
        &mut self,
        elem_min_bytes: usize,
        context: &'static str,
    ) -> Result<usize, CatalogError> {
        let count = self.get_u32(context)? as usize;
        if count
            .checked_mul(elem_min_bytes.max(1))
            .is_none_or(|need| need > self.remaining())
        {
            return Err(CatalogError::Truncated { context });
        }
        Ok(count)
    }

    /// Reads a `u32` record count and that many `N`-byte records as one
    /// slice, bounds-checked once, so decoding a record is plain array
    /// access — a count the buffer cannot hold is
    /// [`CatalogError::Truncated`], as in [`ByteReader::get_count`].
    pub fn get_records<const N: usize>(
        &mut self,
        context: &'static str,
    ) -> Result<&'a [[u8; N]], CatalogError> {
        let count = self.get_count(N, context)?;
        Ok(self.take(N * count, context)?.as_chunks::<N>().0)
    }
}

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;

/// One lane step: fold the 8-byte `word` into `lane` by multiply-rotate.
/// For a fixed word the step is a bijection of `lane`, so a lane that
/// once differs keeps differing.
#[inline(always)]
fn mix(lane: u64, word: u64) -> u64 {
    lane.wrapping_add(word.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

#[inline(always)]
fn word(chunk: &[u8; 32], lane: usize) -> u64 {
    u64::from_le_bytes(chunk[8 * lane..8 * lane + 8].try_into().expect("8 bytes"))
}

/// The 64-bit checksum of `bytes`: the integrity check of every snapshot
/// section and every wire frame. Four independent `u64` lanes each take
/// one 8-byte word of every 32-byte chunk (a short tail is zero-padded
/// to one more chunk), so the multiply chains run side by side instead
/// of one byte after another; the lanes are then merged, the length is
/// folded in (which tells a zero-padded tail from real zero bytes) and
/// the result is avalanched. Not cryptographic: it detects bit rot,
/// partial writes and frames of another protocol version, not
/// adversaries.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut lanes = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
    let mut chunks = bytes.chunks_exact(32);
    for chunk in &mut chunks {
        let chunk: &[u8; 32] = chunk.try_into().expect("chunks_exact(32)");
        for (i, lane) in lanes.iter_mut().enumerate() {
            *lane = mix(*lane, word(chunk, i));
        }
    }
    let tail = chunks.remainder();
    if !tail.is_empty() {
        let mut chunk = [0u8; 32];
        chunk[..tail.len()].copy_from_slice(tail);
        for (i, lane) in lanes.iter_mut().enumerate() {
            *lane = mix(*lane, word(&chunk, i));
        }
    }
    let mut h = lanes[0]
        .rotate_left(1)
        .wrapping_add(lanes[1].rotate_left(7))
        .wrapping_add(lanes[2].rotate_left(12))
        .wrapping_add(lanes[3].rotate_left(18));
    for lane in lanes {
        h = (h ^ mix(0, lane)).wrapping_mul(P1).wrapping_add(P4);
    }
    h = h.wrapping_add(bytes.len() as u64);
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u16(300);
        w.put_u32(70_000);
        w.put_u64(u64::MAX - 1);
        w.put_bytes(b"abc");
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8("a").unwrap(), 7);
        assert_eq!(r.get_u16("b").unwrap(), 300);
        assert_eq!(r.get_u32("c").unwrap(), 70_000);
        assert_eq!(r.get_u64("d").unwrap(), u64::MAX - 1);
        assert_eq!(r.get_bytes(3, "e").unwrap(), b"abc");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn reads_past_the_end_are_typed_truncations() {
        let mut r = ByteReader::new(&[1, 2]);
        assert!(matches!(
            r.get_u32("tiny"),
            Err(CatalogError::Truncated { context: "tiny" })
        ));
        // The failed read consumed nothing.
        assert_eq!(r.get_u16("ok").unwrap(), 0x0201);
    }

    #[test]
    fn absurd_counts_are_rejected_before_allocation() {
        let mut w = ByteWriter::new();
        w.put_u32(u32::MAX);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(
            r.get_count(4, "postings"),
            Err(CatalogError::Truncated { .. })
        ));
    }

    #[test]
    fn checksum_is_stable() {
        // Pinned values: a change here changes every snapshot and frame,
        // which takes a FORMAT_VERSION and a PROTOCOL_VERSION bump.
        assert_eq!(checksum(b""), 0x3fdf_455f_9dcf_1e62);
        assert_eq!(checksum(b"a"), 0x288e_90ec_5a93_582b);
        assert_eq!(checksum(&[0xA5; 100]), 0xd6e6_a495_ec7c_571d);
    }

    /// A splitmix64 stream: reproducible random bytes without a dependency.
    fn random_bytes(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) as u8
            })
            .collect()
    }

    /// Every length 0..=200 covers each chunk boundary and tail length
    /// several times over: every single-bit flip, every truncation and
    /// every swap of two unequal 8-byte words changes the checksum.
    #[test]
    fn checksum_sees_every_flip_truncation_and_word_swap() {
        for len in 0..=200usize {
            let bytes = random_bytes(len, len as u64 + 1);
            let whole = checksum(&bytes);
            for bit in 0..8 * len {
                let mut flipped = bytes.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(checksum(&flipped), whole, "len {len}: bit {bit}");
            }
            for cut in 0..len {
                assert_ne!(checksum(&bytes[..cut]), whole, "len {len}: cut at {cut}");
            }
            let words = len / 8;
            for a in 0..words {
                for b in a + 1..words {
                    let (wa, wb) = (a * 8..a * 8 + 8, b * 8..b * 8 + 8);
                    if bytes[wa.clone()] == bytes[wb.clone()] {
                        continue;
                    }
                    let mut swapped = bytes.clone();
                    swapped.copy_within(wa.clone(), b * 8);
                    swapped[wa].copy_from_slice(&bytes[wb]);
                    assert_ne!(checksum(&swapped), whole, "len {len}: words {a} <-> {b}");
                }
            }
        }
    }

    /// Trailing zero bytes are real bytes: the length fold tells them
    /// from the zero padding of a short tail.
    #[test]
    fn checksum_counts_trailing_zeros() {
        let mut bytes = vec![7u8; 5];
        let mut seen = vec![checksum(&bytes)];
        for _ in 0..64 {
            bytes.push(0);
            let h = checksum(&bytes);
            assert!(!seen.contains(&h), "{} bytes", bytes.len());
            seen.push(h);
        }
    }
}
