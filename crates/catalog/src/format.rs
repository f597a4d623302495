//! Byte-level primitives of the snapshot format: little-endian scalar
//! encoding, a bounds-checked reader whose failures are typed
//! [`CatalogError`]s, and the FNV-1a section checksum.
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

    /// A writer that appends to `buf`, keeping what it already holds —
    /// how a caller encodes several records into one allocation.
    pub fn appending_to(buf: Vec<u8>) -> ByteWriter {
        ByteWriter { buf }
    }

    /// The bytes written so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
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
}

/// FNV-1a 64-bit checksum of `bytes` — the per-section integrity check.
/// Not cryptographic; it detects bit rot and partial writes, not
/// adversaries.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
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
    fn fnv_is_stable_and_sensitive() {
        // Reference vectors for FNV-1a 64.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a64(b"catalog"), fnv1a64(b"catalpg"));
    }
}
