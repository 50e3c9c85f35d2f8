//! The byte-at-a-time `.tds` decoder the slice reader replaced, kept as
//! the reference the differential mutation test holds the real decoder
//! to. It copies the file into `u64` words and extracts every byte with
//! a bounds-checked shift, so it is slow but its behaviour is the
//! format's: every outcome — a store, or an error variant naming a
//! section — is what the decoder must reproduce.

use td_algorithms::TruthResult;
use td_model::{AttributeId, Claim, Dataset, Interner, ObjectId, SourceId, Value, ValueId};

use crate::format::{fnv1a, ALIGN};
use crate::{
    section_name, DatasetStore, StoreError, TruthPage, MAGIC, MAX_SECTIONS, SECTION_NAMES, VERSION,
};
use clustering::BitMatrix;

/// The whole file as little-endian `u64` words.
struct AlignedBuf {
    words: Vec<u64>,
    len: usize,
}

impl AlignedBuf {
    fn from_bytes(bytes: &[u8]) -> Self {
        let mut words = vec![0u64; bytes.len().div_ceil(ALIGN)];
        for (i, &b) in bytes.iter().enumerate() {
            words[i / ALIGN] |= u64::from(b) << ((i % ALIGN) * 8);
        }
        Self {
            words,
            len: bytes.len(),
        }
    }

    fn byte(&self, i: usize) -> Option<u8> {
        if i >= self.len {
            return None;
        }
        Some((self.words[i / ALIGN] >> ((i % ALIGN) * 8)) as u8)
    }

    fn copy_bytes(&self, offset: usize, len: usize) -> Option<Vec<u8>> {
        let end = offset.checked_add(len)?;
        if end > self.len {
            return None;
        }
        Some((offset..end).map(|i| self.byte(i).unwrap_or(0)).collect())
    }

    fn checksum(&self, offset: usize, len: usize) -> Option<u64> {
        let end = offset.checked_add(len)?;
        if end > self.len {
            return None;
        }
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for i in offset..end {
            h ^= u64::from(self.byte(i).unwrap_or(0));
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Some(h)
    }
}

struct SectionReader<'a> {
    buf: &'a AlignedBuf,
    pos: usize,
    end: usize,
    section: &'static str,
}

impl<'a> SectionReader<'a> {
    fn new(buf: &'a AlignedBuf, offset: usize, len: usize, section: &'static str) -> Self {
        Self {
            buf,
            pos: offset,
            end: offset + len,
            section,
        }
    }

    fn corrupt(&self, detail: impl Into<String>) -> StoreError {
        StoreError::Corrupt {
            section: self.section,
            detail: detail.into(),
        }
    }

    fn remaining(&self) -> usize {
        self.end - self.pos
    }

    fn align8(&mut self) -> Result<(), StoreError> {
        while !self.pos.is_multiple_of(ALIGN) {
            if self.read_u8()? != 0 {
                return Err(self.corrupt("non-zero padding byte"));
            }
        }
        Ok(())
    }

    fn read_u8(&mut self) -> Result<u8, StoreError> {
        if self.pos >= self.end {
            return Err(self.corrupt("unexpected end of section"));
        }
        let b = self
            .buf
            .byte(self.pos)
            .ok_or_else(|| self.corrupt("read past file end"))?;
        self.pos += 1;
        Ok(b)
    }

    fn read_u32(&mut self) -> Result<u32, StoreError> {
        let mut v = 0u32;
        for i in 0..4 {
            v |= u32::from(self.read_u8()?) << (i * 8);
        }
        Ok(v)
    }

    fn read_u64(&mut self) -> Result<u64, StoreError> {
        let mut v = 0u64;
        for i in 0..8 {
            v |= u64::from(self.read_u8()?) << (i * 8);
        }
        Ok(v)
    }

    fn read_bytes(&mut self, len: usize) -> Result<Vec<u8>, StoreError> {
        if len > self.remaining() {
            return Err(self.corrupt("declared byte run exceeds the section"));
        }
        let out = self
            .buf
            .copy_bytes(self.pos, len)
            .ok_or_else(|| self.corrupt("read past file end"))?;
        self.pos += len;
        Ok(out)
    }

    fn read_string(&mut self) -> Result<String, StoreError> {
        let len = self.read_u32()? as usize;
        let bytes = self.read_bytes(len)?;
        String::from_utf8(bytes).map_err(|_| self.corrupt("non-UTF-8 string"))
    }

    fn read_words(&mut self, n_words: usize) -> Result<Vec<u64>, StoreError> {
        let bytes = n_words
            .checked_mul(ALIGN)
            .ok_or_else(|| self.corrupt("word count overflows"))?;
        if bytes > self.remaining() {
            return Err(self.corrupt("declared word run exceeds the section"));
        }
        let mut out = Vec::with_capacity(n_words);
        for _ in 0..n_words {
            out.push(self.read_u64()?);
        }
        Ok(out)
    }

    fn expect_exhausted(&self) -> Result<(), StoreError> {
        if self.remaining() != 0 {
            return Err(self.corrupt(format!("{} trailing bytes", self.remaining())));
        }
        Ok(())
    }
}

struct Section {
    name: &'static str,
    offset: usize,
    len: usize,
}

fn read_section_table(buf: &AlignedBuf) -> Result<Vec<Section>, StoreError> {
    const HEADER: usize = 16;
    const ENTRY: usize = 32;
    if buf.len < HEADER {
        return Err(StoreError::TruncatedHeader { len: buf.len });
    }
    let mut r = SectionReader::new(buf, 0, buf.len, "header");
    let magic = r.read_bytes(4).expect("header length checked");
    if magic != MAGIC {
        return Err(StoreError::BadMagic {
            found: [magic[0], magic[1], magic[2], magic[3]],
        });
    }
    let version = r.read_u32().expect("header length checked");
    if version != VERSION {
        return Err(StoreError::UnsupportedVersion { found: version });
    }
    let n_sections = r.read_u32().expect("header length checked");
    let _reserved = r.read_u32().expect("header length checked");
    if n_sections == 0 || n_sections > MAX_SECTIONS {
        return Err(StoreError::Corrupt {
            section: "header",
            detail: format!("implausible section count {n_sections}"),
        });
    }
    let table_bytes = n_sections as usize * ENTRY;
    if buf.len < HEADER + table_bytes {
        return Err(StoreError::TruncatedHeader { len: buf.len });
    }

    let mut sections = Vec::with_capacity(n_sections as usize);
    for _ in 0..n_sections {
        let kind = r.read_u32().expect("table length checked");
        let _reserved = r.read_u32().expect("table length checked");
        let offset = r.read_u64().expect("table length checked");
        let len = r.read_u64().expect("table length checked");
        let checksum = r.read_u64().expect("table length checked");
        let name = section_name(kind).ok_or_else(|| StoreError::Corrupt {
            section: "header",
            detail: format!("unknown section kind {kind}"),
        })?;
        if sections.iter().any(|s: &Section| s.name == name) {
            return Err(StoreError::Corrupt {
                section: "header",
                detail: format!("duplicate section {name:?}"),
            });
        }
        let (offset, len) = match (usize::try_from(offset), usize::try_from(len)) {
            (Ok(o), Ok(l)) => (o, l),
            _ => return Err(StoreError::SectionOutOfBounds { section: name }),
        };
        let end = offset
            .checked_add(len)
            .ok_or(StoreError::SectionOutOfBounds { section: name })?;
        if offset < HEADER + table_bytes || end > buf.len {
            return Err(StoreError::SectionOutOfBounds { section: name });
        }
        if buf.checksum(offset, len) != Some(checksum) {
            return Err(StoreError::ChecksumMismatch { section: name });
        }
        sections.push(Section { name, offset, len });
    }
    for required in SECTION_NAMES {
        if !sections.iter().any(|s| s.name == required) {
            return Err(StoreError::Corrupt {
                section: "header",
                detail: format!("missing section {required:?}"),
            });
        }
    }
    Ok(sections)
}

/// Decodes `.tds` bytes the way the byte-at-a-time loader did.
pub(crate) fn from_bytes(bytes: &[u8]) -> Result<DatasetStore, StoreError> {
    let buf = AlignedBuf::from_bytes(bytes);
    let sections = read_section_table(&buf)?;
    let reader = |name: &'static str| -> SectionReader<'_> {
        let s = sections
            .iter()
            .find(|s| s.name == name)
            .expect("presence checked");
        SectionReader::new(&buf, s.offset, s.len, name)
    };

    let sources = decode_names(reader("sources"))?;
    let objects = decode_names(reader("objects"))?;
    let attributes = decode_names(reader("attributes"))?;
    let values = decode_values(reader("values"))?;
    let claims = decode_claims(reader("claims"))?;
    let dataset = Dataset::from_interned_parts(sources, objects, attributes, values, claims)?;
    let pages = decode_pages(reader("truth_pages"), &dataset)?;
    Ok(DatasetStore { dataset, pages })
}

fn decode_names(mut r: SectionReader<'_>) -> Result<Interner, StoreError> {
    let count = r.read_u32()? as usize;
    if count * 4 > r.remaining() {
        return Err(r.corrupt("declared names exceed the section length"));
    }
    let mut interner = Interner::default();
    for i in 0..count {
        let name = r.read_string()?;
        interner.intern(&name);
        if interner.len() != i + 1 {
            return Err(r.corrupt(format!("duplicate name {name:?}")));
        }
    }
    r.expect_exhausted()?;
    Ok(interner)
}

fn decode_values(mut r: SectionReader<'_>) -> Result<Vec<Value>, StoreError> {
    let count = r.read_u32()? as usize;
    if count * 2 > r.remaining() {
        return Err(r.corrupt("declared values exceed the section length"));
    }
    let mut values = Vec::with_capacity(count);
    for _ in 0..count {
        let value = match r.read_u8()? {
            0 => {
                let len = r.read_u32()? as usize;
                let bytes = r.read_bytes(len)?;
                Value::text(String::from_utf8(bytes).map_err(|_| r.corrupt("non-UTF-8 text"))?)
            }
            1 => Value::int(r.read_u64()? as i64),
            2 => Value::try_float(f64::from_bits(r.read_u64()?))
                .ok_or_else(|| r.corrupt("NaN float value"))?,
            3 => Value::bool(r.read_u8()? != 0),
            tag => return Err(r.corrupt(format!("unknown value tag {tag}"))),
        };
        values.push(value);
    }
    r.expect_exhausted()?;
    Ok(values)
}

fn decode_claims(mut r: SectionReader<'_>) -> Result<Vec<Claim>, StoreError> {
    let count = r.read_u32()? as usize;
    let _pad = r.read_u32()?;
    if count.checked_mul(16) != Some(r.remaining()) {
        return Err(r.corrupt("declared claims do not fill the section"));
    }
    let mut claims = Vec::with_capacity(count);
    for _ in 0..count {
        let s = SourceId::new(r.read_u32()?);
        let o = ObjectId::new(r.read_u32()?);
        let a = AttributeId::new(r.read_u32()?);
        let v = ValueId::new(r.read_u32()?);
        claims.push(Claim::new(s, o, a, v));
    }
    r.expect_exhausted()?;
    Ok(claims)
}

fn decode_pages(mut r: SectionReader<'_>, dataset: &Dataset) -> Result<Vec<TruthPage>, StoreError> {
    let n_pages = r.read_u32()? as usize;
    if n_pages * 28 > r.remaining() {
        return Err(r.corrupt("declared pages exceed the section length"));
    }
    let mut pages = Vec::with_capacity(n_pages);
    for _ in 0..n_pages {
        let algorithm = r.read_string()?;
        let flags = r.read_u32()?;
        if flags > 1 {
            return Err(r.corrupt(format!("unknown page flags {flags:#x}")));
        }
        let masked = flags == 1;
        let rows = r.read_u32()? as usize;
        let cols = r.read_u32()? as usize;
        let iterations = r.read_u32()?;
        let n_trust = r.read_u32()? as usize;
        let n_predictions = r.read_u32()? as usize;

        if n_trust != dataset.n_sources() {
            return Err(r.corrupt("page trust length != sources"));
        }
        if n_trust * 8 + n_predictions * 20 > r.remaining() {
            return Err(r.corrupt("declared trust/prediction counts exceed the section"));
        }
        let mut reference = TruthResult::with_sources(n_trust, 0.0);
        for t in reference.source_trust.iter_mut() {
            *t = f64::from_bits(r.read_u64()?);
        }
        reference.iterations = iterations;
        for _ in 0..n_predictions {
            let o = ObjectId::new(r.read_u32()?);
            let a = AttributeId::new(r.read_u32()?);
            let v = ValueId::new(r.read_u32()?);
            let c = f64::from_bits(r.read_u64()?);
            if o.index() >= dataset.n_objects()
                || a.index() >= dataset.n_attributes()
                || v.index() >= dataset.n_values()
            {
                return Err(r.corrupt("prediction ids out of range"));
            }
            reference.set_prediction(o, a, v, c);
        }
        if reference.len() != n_predictions {
            return Err(r.corrupt("duplicate prediction cell"));
        }

        r.align8()?;
        let words_per_row = cols.div_ceil(64);
        let n_words = rows
            .checked_mul(words_per_row)
            .ok_or_else(|| r.corrupt("page dimensions overflow"))?;
        let bits = r.read_words(n_words)?;
        let mask = if masked {
            Some(r.read_words(n_words)?)
        } else {
            None
        };
        let matrix = BitMatrix::from_words(rows, cols, bits, mask)
            .ok_or_else(|| r.corrupt("non-canonical packed words (tail bits set)"))?;
        pages.push(TruthPage {
            algorithm,
            masked,
            matrix,
            reference,
        });
    }
    r.expect_exhausted()?;
    Ok(pages)
}

/// The same section-naming outcome: equal stores, or equal errors up to
/// the free-text detail of a `Corrupt`.
fn same_outcome(
    a: &Result<DatasetStore, StoreError>,
    b: &Result<DatasetStore, StoreError>,
) -> bool {
    match (a, b) {
        (Ok(a), Ok(b)) => a.to_bytes() == b.to_bytes(),
        (
            Err(StoreError::Corrupt { section: a, .. }),
            Err(StoreError::Corrupt { section: b, .. }),
        ) => a == b,
        (Err(a), Err(b)) => a == b,
        _ => false,
    }
}

#[test]
fn decoder_matches_the_reference_under_every_rehashed_byte_flip() {
    use td_model::DatasetBuilder;

    let mut b = DatasetBuilder::new();
    b.claim("s1", "o1", "a1", Value::text("x")).unwrap();
    b.claim("s2", "o1", "a1", Value::text("y")).unwrap();
    b.claim("s1", "o2", "a2", Value::int(-3)).unwrap();
    b.claim("s2", "o2", "a2", Value::float(2.5)).unwrap();
    b.claim("s3", "o2", "a1", Value::bool(true)).unwrap();
    b.claim("s3", "o1", "a2", Value::int(7)).unwrap();
    let dataset = b.build();
    let (rows, cols) = (
        dataset.n_attributes(),
        dataset.n_objects() * dataset.n_sources(),
    );
    let mut matrix = BitMatrix::zeros_masked(rows, cols);
    for (r, c) in [(0, 1), (1, 0), (1, cols - 1)] {
        matrix.set_bit(r, c, true);
        matrix.set_observed(r, c);
    }
    let mut reference = TruthResult::with_sources(dataset.n_sources(), 0.8);
    reference.iterations = 3;
    reference.set_prediction(ObjectId::new(0), AttributeId::new(0), ValueId::new(0), 0.75);
    reference.set_prediction(ObjectId::new(1), AttributeId::new(1), ValueId::new(2), 0.5);
    let mut store = DatasetStore::new(dataset);
    store.push_page(TruthPage {
        algorithm: "majority".into(),
        masked: true,
        matrix,
        reference,
    });
    let pristine = store.to_bytes();
    let table = crate::section_table(&pristine).unwrap();

    let mut corrupt_sections = std::collections::BTreeSet::new();
    for pos in 0..pristine.len() {
        for mask in [0x01u8, 0x80, 0xFF] {
            let mut bytes = pristine.clone();
            bytes[pos] ^= mask;
            // Re-hash the damaged section so the flip reaches its decoder.
            if let Some(i) = table
                .iter()
                .position(|s| (s.offset..s.offset + s.len).contains(&(pos as u64)))
            {
                let (off, len) = (table[i].offset as usize, table[i].len as usize);
                let sum = fnv1a(&bytes[off..off + len]);
                let entry = 16 + i * 32;
                bytes[entry + 24..entry + 32].copy_from_slice(&sum.to_le_bytes());
            }
            let (new, old) = (DatasetStore::from_bytes(&bytes), from_bytes(&bytes));
            assert!(
                same_outcome(&new, &old),
                "byte {pos} ^ {mask:#04x}: decoder gave {new:?}, reference {old:?}"
            );
            if let Err(StoreError::Corrupt { section, .. }) = new {
                corrupt_sections.insert(section);
            }
        }
    }
    // The flips reached every section's decoder, not just the checksum.
    for name in SECTION_NAMES {
        assert!(
            corrupt_sections.contains(name),
            "no flip reached {name}'s decoder"
        );
    }
}
