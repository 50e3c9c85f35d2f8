//! Byte-level plumbing for the `.tds` format: the little-endian
//! writer, bounds-checked cursors over the file's bytes, and the FNV-1a
//! section checksum.
//!
//! Everything on the read side is defensive: every length and offset is
//! validated against the bytes actually present *before* any
//! allocation, so a hostile file can produce a [`StoreError`] but never
//! a panic or an attacker-sized `Vec`.

use crate::error::StoreError;

/// Bytes per alignment unit: every section (and every packed word run
/// inside the truth-page section) starts on an 8-byte file offset,
/// reached by zero padding.
pub const ALIGN: usize = 8;

/// FNV-1a 64-bit over a byte slice — the per-section checksum. Chosen
/// for being dependency-free and fully specified, not for cryptographic
/// strength; the checksum catches corruption, not adversaries (the
/// decoder's validation handles those).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Little-endian append-only byte writer with explicit 8-byte padding.
#[derive(Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes written so far (also the offset of the next write).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Pads with zero bytes up to the next multiple of [`ALIGN`].
    pub fn align8(&mut self) {
        while self.buf.len() % ALIGN != 0 {
            self.buf.push(0);
        }
    }

    /// Appends raw bytes.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a `u8`.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a run of little-endian `u64` words.
    pub fn put_words(&mut self, words: &[u64]) {
        for &w in words {
            self.put_u64(w);
        }
    }

    /// Overwrites the bytes at `offset` with `bytes` (used to back-patch
    /// the section table once payload offsets are known).
    pub fn patch(&mut self, offset: usize, bytes: &[u8]) {
        self.buf[offset..offset + bytes.len()].copy_from_slice(bytes);
    }

    /// Consumes the writer, yielding the finished byte buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Bounds-checked sequential reader over one section of the file's
/// bytes. Each read takes its whole field with one range check and
/// decodes it with `from_le_bytes`, which is exact at any offset and on
/// any target. Every read that would escape the section yields a
/// [`StoreError::Corrupt`] naming the section.
pub struct SectionReader<'a> {
    /// The section's bytes not read yet.
    rest: &'a [u8],
    /// Absolute file offset of `rest[0]`: padding aligns to file
    /// offsets, not section offsets.
    pos: usize,
    /// Section name for error reporting.
    pub section: &'static str,
}

impl<'a> SectionReader<'a> {
    /// A reader over `[offset, offset + len)` of the file `bytes`. The
    /// range must lie within `bytes`; the section table check
    /// guarantees that for every section.
    pub fn new(bytes: &'a [u8], offset: usize, len: usize, section: &'static str) -> Self {
        Self {
            rest: &bytes[offset..offset + len],
            pos: offset,
            section,
        }
    }

    fn corrupt(&self, detail: impl Into<String>) -> StoreError {
        StoreError::Corrupt {
            section: self.section,
            detail: detail.into(),
        }
    }

    /// Bytes left in the section.
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// The next `n` bytes of the section.
    fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        if n > self.rest.len() {
            return Err(self.corrupt("unexpected end of section"));
        }
        let (field, rest) = self.rest.split_at(n);
        self.rest = rest;
        self.pos += n;
        Ok(field)
    }

    fn read_array<const N: usize>(&mut self) -> Result<[u8; N], StoreError> {
        Ok(self
            .take(N)?
            .try_into()
            .expect("take returns exactly N bytes"))
    }

    /// Skips zero padding up to the next multiple of [`ALIGN`].
    pub fn align8(&mut self) -> Result<(), StoreError> {
        let pad = self.pos.next_multiple_of(ALIGN) - self.pos;
        if self.take(pad)?.iter().any(|&b| b != 0) {
            return Err(self.corrupt("non-zero padding byte"));
        }
        Ok(())
    }

    /// Reads one byte.
    pub fn read_u8(&mut self) -> Result<u8, StoreError> {
        self.read_array().map(u8::from_le_bytes)
    }

    /// Reads a little-endian `u32`.
    pub fn read_u32(&mut self) -> Result<u32, StoreError> {
        self.read_array().map(u32::from_le_bytes)
    }

    /// Reads a little-endian `u64`.
    pub fn read_u64(&mut self) -> Result<u64, StoreError> {
        self.read_array().map(u64::from_le_bytes)
    }

    /// Borrows the next `len` raw bytes; `len` is checked against the
    /// section remainder.
    pub fn read_bytes(&mut self, len: usize) -> Result<&'a [u8], StoreError> {
        if len > self.remaining() {
            return Err(self.corrupt(format!(
                "declared byte run of {len} exceeds the {} bytes left in the section",
                self.remaining()
            )));
        }
        self.take(len)
    }

    /// Reads a `u32`-length-prefixed UTF-8 string.
    pub fn read_string(&mut self) -> Result<String, StoreError> {
        let len = self.read_u32()? as usize;
        let bytes = self.read_bytes(len)?;
        std::str::from_utf8(bytes)
            .map(str::to_owned)
            .map_err(|_| self.corrupt("non-UTF-8 string"))
    }

    /// Reads `n_words` little-endian `u64` words in one pass. `n_words`
    /// is validated against the section remainder before any
    /// allocation.
    pub fn read_words(&mut self, n_words: usize) -> Result<Vec<u64>, StoreError> {
        let bytes = n_words
            .checked_mul(ALIGN)
            .ok_or_else(|| self.corrupt("word count overflows"))?;
        if bytes > self.remaining() {
            return Err(self.corrupt(format!(
                "declared word run of {n_words} words exceeds the {} bytes left in the section",
                self.remaining()
            )));
        }
        Ok(self
            .take(bytes)?
            .chunks_exact(ALIGN)
            .map(|w| u64::from_le_bytes(w.try_into().expect("chunks_exact yields ALIGN bytes")))
            .collect())
    }

    /// Checks the section was consumed exactly.
    pub fn expect_exhausted(&self) -> Result<(), StoreError> {
        if self.remaining() != 0 {
            return Err(self.corrupt(format!("{} trailing bytes", self.remaining())));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn writer_reader_roundtrip() {
        let mut w = ByteWriter::new();
        w.put_u32(7);
        w.put_u8(0xAB);
        w.align8();
        w.put_words(&[u64::MAX, 42]);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len() % ALIGN, 0);

        let mut r = SectionReader::new(&bytes, 0, bytes.len(), "test");
        assert_eq!(r.read_u32().unwrap(), 7);
        assert_eq!(r.read_u8().unwrap(), 0xAB);
        r.align8().unwrap();
        assert_eq!(r.read_words(2).unwrap(), vec![u64::MAX, 42]);
        r.expect_exhausted().unwrap();
    }

    #[test]
    fn misaligned_word_runs_decode_exactly() {
        let mut w = ByteWriter::new();
        w.put_u32(0); // 4-byte prefix => words start misaligned
        w.put_words(&[0x0102_0304_0506_0708]);
        let bytes = w.into_bytes();
        let mut r = SectionReader::new(&bytes, 0, bytes.len(), "test");
        r.read_u32().unwrap();
        assert_eq!(r.read_words(1).unwrap(), vec![0x0102_0304_0506_0708]);
    }

    #[test]
    fn padding_aligns_to_file_offsets() {
        // A section starting at file offset 4: one byte read leaves
        // pos = 5, so three padding bytes reach offset 8.
        let bytes = [0u8, 0, 0, 0, 9, 0, 0, 0, 1, 0, 0, 0];
        let mut r = SectionReader::new(&bytes, 4, 8, "test");
        assert_eq!(r.read_u8().unwrap(), 9);
        r.align8().unwrap();
        assert_eq!(r.read_u32().unwrap(), 1);
        let mut dirty = bytes;
        dirty[6] = 1;
        let mut r = SectionReader::new(&dirty, 4, 8, "test");
        r.read_u8().unwrap();
        assert!(matches!(
            r.align8(),
            Err(StoreError::Corrupt {
                section: "test",
                ..
            })
        ));
    }

    #[test]
    fn oversized_declared_lengths_error_before_allocating() {
        let bytes = [0xFF; 16];
        let mut r = SectionReader::new(&bytes, 0, 16, "test");
        // u32::MAX-length byte run: must error, not try to allocate 4 GiB.
        assert!(r.read_bytes(u32::MAX as usize).is_err());
        assert!(r.read_words(usize::MAX / 2).is_err());
        // A field straddling the section end errors; the file bytes
        // past it are never read.
        let mut r = SectionReader::new(&bytes, 0, 6, "test");
        r.read_u32().unwrap();
        assert!(matches!(
            r.read_u32(),
            Err(StoreError::Corrupt {
                section: "test",
                ..
            })
        ));
    }
}
