#![warn(missing_docs)]

//! # td-store — the persistent `.tds` binary dataset store
//!
//! An interned, memory-mappable columnar format for truth-discovery
//! datasets, so repeated runs and stream restarts skip the dataset
//! build phase entirely. One `.tds` file holds:
//!
//! * the three **interner tables** (sources, objects, attributes) and
//!   the **value table**, preserving ids exactly;
//! * the **claim vector**, 16 bytes per claim, already in the canonical
//!   `(attribute, object, source)` sort;
//! * optional **truth-vector pages**: the Eq. 1 attribute truth vectors
//!   of a named base algorithm, stored *already bit-packed in
//!   [`BitMatrix`] word layout* together with the reference
//!   [`TruthResult`] that produced them, so `tdac_core` can skip the
//!   whole reference run and rebuild its vectors without a scatter
//!   pass.
//!
//! The file layout is a fixed header (magic `TDS1`, version 2, section
//! table with per-section XXH64 checksums) followed by 8-byte-aligned
//! sections — see `docs/STORAGE.md` for the byte-level diagram. The
//! loader decodes straight from the bytes the file was read into: each
//! field with one range check, and the claim rows and packed word runs
//! in one pass each, exactly on any target endianness.
//!
//! Every failure is a typed [`StoreError`] naming the offending
//! section; hostile bytes can never panic the loader or provoke an
//! allocation sized by unvalidated input (td-verify's corruption
//! matrix gates this).
//!
//! ```
//! use td_model::{DatasetBuilder, Value};
//! use td_store::DatasetStore;
//!
//! let mut b = DatasetBuilder::new();
//! b.claim("s1", "o", "a", Value::int(1)).unwrap();
//! b.claim("s2", "o", "a", Value::int(2)).unwrap();
//! let store = DatasetStore::new(b.build());
//! let bytes = store.to_bytes();
//! let back = DatasetStore::from_bytes(&bytes).unwrap();
//! assert_eq!(back.dataset.n_claims(), 2);
//! assert_eq!(bytes, back.to_bytes(), "byte-stable round trip");
//! ```

use std::path::Path;

use clustering::BitMatrix;
use td_algorithms::{TruthResult, TruthResultRepr};
use td_model::{AttributeId, Claim, Dataset, Interner, ObjectId, SourceId, Value, ValueId};
use td_obs::{Counter, Observer};

mod error;
mod format;
#[cfg(test)]
mod reference;

pub use error::StoreError;
pub use format::{fnv1a, xxh64};

use format::{ByteWriter, SectionReader, ALIGN};

/// The four magic bytes opening every `.tds` file.
pub const MAGIC: [u8; 4] = *b"TDS1";

/// The (only) format version this build writes and reads. Version 2
/// checksums sections with [`xxh64`]; version 1 (FNV-1a) files are
/// refused with [`StoreError::UnsupportedVersion`].
pub const VERSION: u32 = 2;

/// Hard cap on the section count a header may declare. The writer
/// emits exactly [`SECTION_NAMES`]`.len()` sections; the cap bounds
/// the table allocation for hostile headers.
pub const MAX_SECTIONS: u32 = 16;

/// Bytes of the fixed header: magic, version, section count, reserved.
const HEADER: usize = 16;
/// Bytes of one section-table entry: kind, reserved, offset, length,
/// checksum.
const ENTRY: usize = 32;

/// Section kinds in file order: `sources`, `objects`, `attributes`,
/// `values`, `claims`, `truth_pages` (kind = index + 1).
pub const SECTION_NAMES: [&str; 6] =
    ["sources", "objects", "attributes", "values", "claims", "truth_pages"];

const K_SOURCES: u32 = 1;
const K_OBJECTS: u32 = 2;
const K_ATTRIBUTES: u32 = 3;
const K_VALUES: u32 = 4;
const K_CLAIMS: u32 = 5;
const K_TRUTH_PAGES: u32 = 6;

fn section_name(kind: u32) -> Option<&'static str> {
    match kind {
        K_SOURCES => Some("sources"),
        K_OBJECTS => Some("objects"),
        K_ATTRIBUTES => Some("attributes"),
        K_VALUES => Some("values"),
        K_CLAIMS => Some("claims"),
        K_TRUTH_PAGES => Some("truth_pages"),
        _ => None,
    }
}

/// One persisted truth-vector page: the packed Eq. 1 attribute truth
/// vectors a named base algorithm produced over the stored dataset,
/// plus the reference [`TruthResult`] behind them. Loading a page lets
/// `tdac_core` skip the reference run *and* the scatter pass — the
/// expensive front half of every TD-AC invocation.
#[derive(Debug, Clone)]
pub struct TruthPage {
    /// Base-algorithm name ([`td_algorithms::TruthDiscovery::name`])
    /// the page was computed with.
    pub algorithm: String,
    /// Whether the page holds missing-aware (masked) vectors; masked
    /// pages carry validity words alongside the value words.
    pub masked: bool,
    /// The packed truth vectors — one row per attribute, one column
    /// per `(object, source)` pair.
    pub matrix: BitMatrix,
    /// The reference run that produced the vectors.
    pub reference: TruthResult,
}

impl TruthPage {
    /// Whether the page was packed for `dataset`: one matrix row per
    /// attribute, one column per `(object, source)` pair. Only such a
    /// page can seed a run; any other is stale.
    pub fn fits(&self, dataset: &Dataset) -> bool {
        packed_for(dataset, self.matrix.n_rows(), self.matrix.n_cols())
    }
}

/// [`TruthPage::fits`] for a page matrix of `rows` × `cols`.
fn packed_for(dataset: &Dataset, rows: usize, cols: usize) -> bool {
    rows == dataset.n_attributes() && cols == dataset.n_objects() * dataset.n_sources()
}

/// A dataset (plus any truth-vector pages) with `.tds` save/load.
///
/// Saving is deterministic: the same store always produces the same
/// bytes (`save → load → save` is byte-stable), which is what lets
/// td-verify commit a golden `.tds` fixture.
#[derive(Debug, Clone)]
pub struct DatasetStore {
    /// The stored dataset.
    pub dataset: Dataset,
    /// Truth-vector pages, keyed by `(algorithm, masked)`.
    pub pages: Vec<TruthPage>,
}

impl DatasetStore {
    /// Wraps a dataset with no truth-vector pages.
    pub fn new(dataset: Dataset) -> Self {
        Self {
            dataset,
            pages: Vec::new(),
        }
    }

    /// Adds (or replaces) the page for `(page.algorithm, page.masked)`.
    pub fn push_page(&mut self, page: TruthPage) {
        match self
            .pages
            .iter_mut()
            .find(|p| p.algorithm == page.algorithm && p.masked == page.masked)
        {
            Some(slot) => *slot = page,
            None => self.pages.push(page),
        }
    }

    /// Looks up the page for a base algorithm and maskedness.
    pub fn page(&self, algorithm: &str, masked: bool) -> Option<&TruthPage> {
        self.pages
            .iter()
            .find(|p| p.algorithm == algorithm && p.masked == masked)
    }

    /// Packs the subset of claims `keep` accepts into a fresh store —
    /// the shard-slice primitive behind `td-shard`. The slice keeps the
    /// parent's full interner tables (ids stay global, so worker
    /// partials merge without translation), re-canonicalizes the claim
    /// sort to `(attribute, object, source)` via
    /// [`td_model::Dataset::subset_where`], and **drops every truth
    /// page**: pages were computed over the *full* claim set, so their
    /// dimensions would still match the subset's interners while their
    /// content silently described claims the slice no longer holds —
    /// exactly the stale seed a worker must never load.
    pub fn subset_where(
        &self,
        keep: impl FnMut(&td_model::Claim) -> bool,
    ) -> Result<DatasetStore, td_model::ModelError> {
        Ok(DatasetStore::new(self.dataset.subset_where(keep)?))
    }

    /// Serializes to the `.tds` byte format. The output is allocated
    /// once at its exact size and each section is encoded straight into
    /// it.
    pub fn to_bytes(&self) -> Vec<u8> {
        let d = &self.dataset;
        let [sources, objects, attributes] =
            [Table::Sources, Table::Objects, Table::Attributes].map(|t| table_names(d, t));
        // Payload lengths in file order (kind = index + 1).
        let lens = [
            names_len(&sources),
            names_len(&objects),
            names_len(&attributes),
            values_len(d),
            claims_len(d),
            pages_len(&self.pages),
        ];
        let size = lens
            .iter()
            .fold(HEADER + lens.len() * ENTRY, |at, len| {
                at.next_multiple_of(ALIGN) + len
            })
            .next_multiple_of(ALIGN);

        let mut w = ByteWriter::with_capacity(size);
        w.put_bytes(&MAGIC);
        w.put_u32(VERSION);
        w.put_u32(lens.len() as u32);
        w.put_u32(0); // reserved
        let table_at = w.len();
        w.put_bytes(&[0u8; ENTRY * SECTION_NAMES.len()]); // patched below
        for (i, len) in lens.into_iter().enumerate() {
            w.align8();
            let offset = w.len();
            let kind = i as u32 + 1;
            match kind {
                K_SOURCES => encode_names(&mut w, &sources),
                K_OBJECTS => encode_names(&mut w, &objects),
                K_ATTRIBUTES => encode_names(&mut w, &attributes),
                K_VALUES => encode_values(&mut w, d),
                K_CLAIMS => encode_claims(&mut w, d),
                _ => encode_pages(&mut w, &self.pages),
            }
            debug_assert_eq!(w.len() - offset, len, "{} length", SECTION_NAMES[i]);
            let mut entry = ByteWriter::with_capacity(ENTRY);
            entry.put_u32(kind);
            entry.put_u32(0); // reserved
            entry.put_u64(offset as u64);
            entry.put_u64((w.len() - offset) as u64);
            entry.put_u64(xxh64(&w.as_bytes()[offset..]));
            w.patch(table_at + i * ENTRY, &entry.into_bytes());
        }
        w.align8();
        w.into_bytes()
    }

    /// Deserializes from `.tds` bytes without observability (see
    /// [`DatasetStore::from_bytes_observed`]).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, StoreError> {
        Self::from_bytes_observed(bytes, &Observer::disabled())
    }

    /// Deserializes from `.tds` bytes, recording
    /// [`Counter::BytesMapped`] (total bytes brought in) on `observer`.
    pub fn from_bytes_observed(bytes: &[u8], observer: &Observer) -> Result<Self, StoreError> {
        observer.incr(Counter::BytesMapped, bytes.len() as u64);
        decode_store(bytes)
    }

    /// Writes the store to a file.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), StoreError> {
        std::fs::write(path, self.to_bytes())?;
        Ok(())
    }

    /// Reads a store from a file without observability.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        Self::load_observed(path, &Observer::disabled())
    }

    /// Reads a store from a file, recording the load counters on
    /// `observer` (see [`DatasetStore::from_bytes_observed`]).
    pub fn load_observed(path: impl AsRef<Path>, observer: &Observer) -> Result<Self, StoreError> {
        let bytes = std::fs::read(path)?;
        Self::from_bytes_observed(&bytes, observer)
    }
}

/// One row of the decoded section table (exposed for `tdc inspect`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SectionInfo {
    /// Section name (see [`SECTION_NAMES`]).
    pub name: &'static str,
    /// Absolute byte offset of the payload.
    pub offset: u64,
    /// Payload length in bytes.
    pub len: u64,
    /// XXH64 checksum as stored in the header.
    pub checksum: u64,
}

/// Parses and validates just the header + section table of `.tds`
/// bytes — the cheap front half of a load, used by `tdc inspect`.
/// Checksums are verified against the payloads.
pub fn section_table(bytes: &[u8]) -> Result<Vec<SectionInfo>, StoreError> {
    let sections = read_section_table(bytes)?;
    Ok(sections
        .into_iter()
        .map(|s| SectionInfo {
            name: s.name,
            offset: s.offset as u64,
            len: s.len as u64,
            checksum: s.checksum,
        })
        .collect())
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

enum Table {
    Sources,
    Objects,
    Attributes,
}

fn table_names(dataset: &Dataset, table: Table) -> Vec<&str> {
    match table {
        Table::Sources => (0..dataset.n_sources() as u32)
            .map(|i| dataset.source_name(SourceId::new(i)))
            .collect(),
        Table::Objects => (0..dataset.n_objects() as u32)
            .map(|i| dataset.object_name(ObjectId::new(i)))
            .collect(),
        Table::Attributes => (0..dataset.n_attributes() as u32)
            .map(|i| dataset.attribute_name(AttributeId::new(i)))
            .collect(),
    }
}

// Each `*_len` is the exact length its `encode_*` writes, so `to_bytes`
// sizes the file once (debug builds check every section against it).

fn names_len(names: &[&str]) -> usize {
    4 + names.iter().map(|n| 4 + n.len()).sum::<usize>()
}

fn encode_names(w: &mut ByteWriter, names: &[&str]) {
    w.put_u32(names.len() as u32);
    for n in names {
        w.put_u32(n.len() as u32);
        w.put_bytes(n.as_bytes());
    }
}

fn values_len(dataset: &Dataset) -> usize {
    let value_len = |i| match dataset.value(ValueId::new(i)) {
        Value::Text(s) => 1 + 4 + s.len(),
        Value::Int(_) | Value::Float(_) => 1 + 8,
        Value::Bool(_) => 1 + 1,
    };
    4 + (0..dataset.n_values() as u32).map(value_len).sum::<usize>()
}

fn encode_values(w: &mut ByteWriter, dataset: &Dataset) {
    w.put_u32(dataset.n_values() as u32);
    for i in 0..dataset.n_values() as u32 {
        match dataset.value(ValueId::new(i)) {
            Value::Text(s) => {
                w.put_u8(0);
                w.put_u32(s.len() as u32);
                w.put_bytes(s.as_bytes());
            }
            Value::Int(v) => {
                w.put_u8(1);
                w.put_u64(*v as u64);
            }
            Value::Float(v) => {
                w.put_u8(2);
                w.put_u64(v.to_bits());
            }
            Value::Bool(v) => {
                w.put_u8(3);
                w.put_u8(u8::from(*v));
            }
        }
    }
}

fn claims_len(dataset: &Dataset) -> usize {
    8 + 16 * dataset.n_claims()
}

fn encode_claims(w: &mut ByteWriter, dataset: &Dataset) {
    w.put_u32(dataset.n_claims() as u32);
    w.put_u32(0); // pad so each 16-byte claim row starts 8-aligned
    for c in dataset.claims() {
        w.put_u32(c.source.0);
        w.put_u32(c.object.0);
        w.put_u32(c.attribute.0);
        w.put_u32(c.value.0);
    }
}

fn pages_len(pages: &[TruthPage]) -> usize {
    // Sections start 8-aligned, so the word runs' padding depends only
    // on the offset within the section.
    pages.iter().fold(4, |at, p| {
        // The name with its u32 length, then six u32 fields.
        let fixed = 4 + p.algorithm.len() + 6 * 4;
        // Trust as f64 bits, then (o, a, v) u32s and a confidence each.
        let reference = 8 * p.reference.source_trust.len() + 20 * p.reference.len();
        let words = p.matrix.words().len() + p.matrix.mask_words_all().map_or(0, <[u64]>::len);
        (at + fixed + reference).next_multiple_of(ALIGN) + 8 * words
    })
}

fn encode_pages(w: &mut ByteWriter, pages: &[TruthPage]) {
    w.put_u32(pages.len() as u32);
    for p in pages {
        w.put_u32(p.algorithm.len() as u32);
        w.put_bytes(p.algorithm.as_bytes());
        w.put_u32(u32::from(p.masked));
        w.put_u32(p.matrix.n_rows() as u32);
        w.put_u32(p.matrix.n_cols() as u32);
        w.put_u32(p.reference.iterations);
        w.put_u32(p.reference.source_trust.len() as u32);
        w.put_u32(p.reference.len() as u32);
        for &t in &p.reference.source_trust {
            w.put_u64(t.to_bits());
        }
        // `iter` yields ascending (object, attribute): the file's order.
        for (o, a, v, c) in p.reference.iter() {
            w.put_u32(o.0);
            w.put_u32(a.0);
            w.put_u32(v.0);
            w.put_u64(c.to_bits());
        }
        w.align8();
        w.put_words(p.matrix.words());
        if let Some(mask) = p.matrix.mask_words_all() {
            w.put_words(mask);
        }
    }
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

struct Section {
    name: &'static str,
    offset: usize,
    len: usize,
    checksum: u64,
}

/// Reads and fully validates the header + section table: magic,
/// version, section count, per-section bounds and checksums, and that
/// every required section appears exactly once.
fn read_section_table(bytes: &[u8]) -> Result<Vec<Section>, StoreError> {
    if bytes.len() < HEADER {
        return Err(StoreError::TruncatedHeader { len: bytes.len() });
    }
    let mut r = SectionReader::new(bytes, 0, bytes.len(), "header");
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
    if bytes.len() < HEADER + table_bytes {
        return Err(StoreError::TruncatedHeader { len: bytes.len() });
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
        let (offset, len) = (usize::try_from(offset), usize::try_from(len));
        let (offset, len) = match (offset, len) {
            (Ok(o), Ok(l)) => (o, l),
            _ => return Err(StoreError::SectionOutOfBounds { section: name }),
        };
        let end = offset
            .checked_add(len)
            .ok_or(StoreError::SectionOutOfBounds { section: name })?;
        if offset < HEADER + table_bytes || end > bytes.len() {
            return Err(StoreError::SectionOutOfBounds { section: name });
        }
        if xxh64(&bytes[offset..end]) != checksum {
            return Err(StoreError::ChecksumMismatch { section: name });
        }
        sections.push(Section {
            name,
            offset,
            len,
            checksum,
        });
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

fn decode_store(bytes: &[u8]) -> Result<DatasetStore, StoreError> {
    let sections = read_section_table(bytes)?;
    let reader = |name: &'static str| -> SectionReader<'_> {
        let s = sections.iter().find(|s| s.name == name).expect("presence checked");
        SectionReader::new(bytes, s.offset, s.len, name)
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
    // Each entry is at least a 4-byte length prefix, so `count` is
    // bounded by the section's remaining bytes before anything grows.
    if count * 4 > r.remaining() {
        return Err(StoreError::Corrupt {
            section: r.section,
            detail: format!("declared {count} names exceed the section length"),
        });
    }
    let mut interner = Interner::default();
    for i in 0..count {
        let name = r.read_string()?;
        interner.intern(&name);
        if interner.len() != i + 1 {
            return Err(StoreError::Corrupt {
                section: r.section,
                detail: format!("duplicate name {name:?}"),
            });
        }
    }
    r.expect_exhausted()?;
    Ok(interner)
}

fn decode_values(mut r: SectionReader<'_>) -> Result<Vec<Value>, StoreError> {
    let count = r.read_u32()? as usize;
    // Smallest encoding is a bool: tag + payload = 2 bytes.
    if count * 2 > r.remaining() {
        return Err(StoreError::Corrupt {
            section: r.section,
            detail: format!("declared {count} values exceed the section length"),
        });
    }
    let mut values = Vec::with_capacity(count);
    for _ in 0..count {
        let value = match r.read_u8()? {
            0 => {
                let len = r.read_u32()? as usize;
                let bytes = r.read_bytes(len)?;
                let s = std::str::from_utf8(bytes).map_err(|_| StoreError::Corrupt {
                    section: r.section,
                    detail: "non-UTF-8 text value".into(),
                })?;
                Value::text(s)
            }
            1 => Value::int(r.read_u64()? as i64),
            2 => Value::try_float(f64::from_bits(r.read_u64()?)).ok_or_else(|| {
                StoreError::Corrupt {
                    section: r.section,
                    detail: "NaN float value".into(),
                }
            })?,
            3 => Value::bool(r.read_u8()? != 0),
            tag => {
                return Err(StoreError::Corrupt {
                    section: r.section,
                    detail: format!("unknown value tag {tag}"),
                })
            }
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
        return Err(StoreError::Corrupt {
            section: r.section,
            detail: format!(
                "declared {count} claims but {} payload bytes remain",
                r.remaining()
            ),
        });
    }
    let claims = r
        .read_bytes(count * 16)?
        .chunks_exact(16)
        .map(|row| {
            let id = |at: usize| {
                u32::from_le_bytes(row[at..at + 4].try_into().expect("claim rows are 16 bytes"))
            };
            Claim::new(
                SourceId::new(id(0)),
                ObjectId::new(id(4)),
                AttributeId::new(id(8)),
                ValueId::new(id(12)),
            )
        })
        .collect();
    r.expect_exhausted()?;
    Ok(claims)
}

fn decode_pages(mut r: SectionReader<'_>, dataset: &Dataset) -> Result<Vec<TruthPage>, StoreError> {
    let corrupt = |r: &SectionReader<'_>, detail: String| StoreError::Corrupt {
        section: r.section,
        detail,
    };
    let n_pages = r.read_u32()? as usize;
    // Each page needs at least its seven fixed u32 fields.
    if n_pages * 28 > r.remaining() {
        return Err(corrupt(&r, format!("declared {n_pages} pages exceed the section length")));
    }
    let mut pages = Vec::with_capacity(n_pages);
    for _ in 0..n_pages {
        let algorithm = r.read_string()?;
        let flags = r.read_u32()?;
        if flags > 1 {
            return Err(corrupt(&r, format!("unknown page flags {flags:#x}")));
        }
        let masked = flags == 1;
        let rows = r.read_u32()? as usize;
        let cols = r.read_u32()? as usize;
        let iterations = r.read_u32()?;
        let n_trust = r.read_u32()? as usize;
        let n_predictions = r.read_u32()? as usize;

        if n_trust != dataset.n_sources() {
            return Err(corrupt(
                &r,
                format!("page trust length {n_trust} != {} sources", dataset.n_sources()),
            ));
        }
        if n_trust * 8 + n_predictions * 20 > r.remaining() {
            return Err(corrupt(&r, "declared trust/prediction counts exceed the section".into()));
        }
        // Everything the page declares must be in the section before
        // anything is sized by it.
        let page_bytes = rows
            .checked_mul(cols.div_ceil(64) * 8 * (1 + usize::from(masked)))
            .and_then(|m| m.checked_add(n_trust * 8 + n_predictions * 20))
            .filter(|&b| b <= r.remaining())
            .ok_or_else(|| corrupt(&r, "page dimensions exceed the section".into()))?;
        // A reference grid costs 16 bytes per (attribute, object) pair it
        // spans: the whole view for a page runs can seed from, its rows'
        // ids for a stale page, which runs ignore. A packed page's matrix
        // holds `n_sources` ≥ 1 bits per pair it spans, so a page spanning
        // more than eight pairs per byte of it was not packed: refusing it
        // keeps the grid's slots within 128 times the bytes the file
        // holds (256 times once capacity is rounded to a power of two).
        let pays = |r: &SectionReader<'_>, columns: usize, stride: usize| {
            if columns * stride > 8 * page_bytes {
                return Err(corrupt(
                    r,
                    format!("a {page_bytes}-byte page cannot span {columns} x {stride} pairs"),
                ));
            }
            Ok(())
        };
        let mut source_trust = Vec::with_capacity(n_trust);
        for _ in 0..n_trust {
            source_trust.push(f64::from_bits(r.read_u64()?));
        }
        let reference = if packed_for(dataset, rows, cols) {
            // Rows go straight into the view's grid, so no buffer sized
            // by them is allocated and freed during a load.
            pays(&r, dataset.n_attributes(), dataset.n_objects())?;
            let mut reference = TruthResult::for_view(&dataset.view_all(), 0.0);
            for _ in 0..n_predictions {
                let (o, a, v, c) = read_prediction(&mut r, dataset)?;
                reference.set_prediction(o, a, v, c);
            }
            reference.source_trust = source_trust;
            reference.iterations = iterations;
            reference
        } else {
            // A stale page has no view to size a grid from, and nothing
            // orders its rows: the grid is sized from all of them at once.
            let predictions = (0..n_predictions)
                .map(|_| read_prediction(&mut r, dataset))
                .collect::<Result<Vec<_>, _>>()?;
            let mut spanned = vec![false; dataset.n_attributes()];
            let mut stride = 0;
            for &(o, a, _, _) in &predictions {
                spanned[a.index()] = true;
                stride = stride.max(o.index() + 1);
            }
            pays(&r, spanned.iter().filter(|&&s| s).count(), stride)?;
            TruthResult::from(TruthResultRepr {
                predictions,
                source_trust,
                iterations,
            })
        };
        if reference.len() != n_predictions {
            return Err(corrupt(&r, "duplicate prediction cell".into()));
        }

        r.align8()?;
        let words_per_row = cols.div_ceil(64);
        let n_words = rows
            .checked_mul(words_per_row)
            .ok_or_else(|| corrupt(&r, "page dimensions overflow".into()))?;
        let bits = r.read_words(n_words)?;
        let mask = if masked {
            Some(r.read_words(n_words)?)
        } else {
            None
        };
        let matrix = BitMatrix::from_words(rows, cols, bits, mask)
            .ok_or_else(|| corrupt(&r, "non-canonical packed words (tail bits set)".into()))?;
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

/// One range-checked `(object, attribute, value, confidence)` row of a
/// page.
fn read_prediction(
    r: &mut SectionReader<'_>,
    dataset: &Dataset,
) -> Result<(ObjectId, AttributeId, ValueId, f64), StoreError> {
    let o = ObjectId::new(r.read_u32()?);
    let a = AttributeId::new(r.read_u32()?);
    let v = ValueId::new(r.read_u32()?);
    let c = f64::from_bits(r.read_u64()?);
    if o.index() >= dataset.n_objects()
        || a.index() >= dataset.n_attributes()
        || v.index() >= dataset.n_values()
    {
        return Err(StoreError::Corrupt {
            section: r.section,
            detail: format!("prediction ids ({}, {}, {}) out of range", o.0, a.0, v.0),
        });
    }
    Ok((o, a, v, c))
}

#[cfg(test)]
mod tests {
    use super::*;
    use td_model::DatasetBuilder;

    fn sample_dataset() -> Dataset {
        let mut b = DatasetBuilder::new();
        b.claim("s1", "o1", "a1", Value::text("x")).unwrap();
        b.claim("s2", "o1", "a1", Value::text("y")).unwrap();
        b.claim("s1", "o2", "a2", Value::int(-3)).unwrap();
        b.claim("s2", "o2", "a2", Value::float(2.5)).unwrap();
        b.claim("s3", "o2", "a1", Value::bool(true)).unwrap();
        b.build()
    }

    fn sample_page(dataset: &Dataset, masked: bool) -> TruthPage {
        let rows = dataset.n_attributes();
        let cols = dataset.n_objects() * dataset.n_sources();
        let mut matrix = if masked {
            BitMatrix::zeros_masked(rows, cols)
        } else {
            BitMatrix::zeros(rows, cols)
        };
        matrix.set_bit(0, 1, true);
        if masked {
            matrix.set_observed(0, 1);
        }
        let mut reference = TruthResult::with_sources(dataset.n_sources(), 0.8);
        reference.iterations = 3;
        reference.set_prediction(ObjectId::new(0), AttributeId::new(0), ValueId::new(0), 0.75);
        TruthPage {
            algorithm: "majority".into(),
            masked,
            matrix,
            reference,
        }
    }

    #[test]
    fn roundtrip_preserves_dataset_and_pages() {
        let dataset = sample_dataset();
        let mut store = DatasetStore::new(dataset.clone());
        store.push_page(sample_page(&dataset, false));
        store.push_page(sample_page(&dataset, true));
        let bytes = store.to_bytes();
        let back = DatasetStore::from_bytes(&bytes).unwrap();
        assert_eq!(back.dataset.n_claims(), dataset.n_claims());
        assert_eq!(back.dataset.claims(), dataset.claims());
        for (i, v) in (0..dataset.n_values() as u32).map(ValueId::new).enumerate() {
            assert_eq!(back.dataset.value(ValueId::new(i as u32)), dataset.value(v));
        }
        assert_eq!(back.pages.len(), 2);
        let p = back.page("majority", false).unwrap();
        assert_eq!(p.matrix, store.page("majority", false).unwrap().matrix);
        assert_eq!(p.reference.iterations, 3);
        assert_eq!(p.reference.source_trust, vec![0.8; 3]);
        let pm = back.page("majority", true).unwrap();
        assert!(pm.matrix.has_mask());
        // Byte stability: save → load → save is the identity.
        assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn pages_pay_for_the_grid_they_span() {
        // 300 x 300 names from one claim per object: a slice keeps its
        // parent's tables, so few claims can declare many pairs.
        let mut b = DatasetBuilder::new();
        for i in 0..300 {
            b.claim("s", &format!("o{i}"), &format!("a{i}"), Value::int(1))
                .unwrap();
        }
        let dataset = b.build();
        // The number of predictions a page of these dimensions and cells
        // loads with.
        let page = |rows: usize, cols: usize, cells: &[(u32, u32)]| {
            let mut reference = TruthResult::with_sources(1, 0.5);
            for &(o, a) in cells {
                let (o, a) = (ObjectId::new(o), AttributeId::new(a));
                reference.set_prediction(o, a, ValueId::new(0), 1.0);
            }
            let mut store = DatasetStore::new(dataset.clone());
            store.push_page(TruthPage {
                algorithm: "majority".into(),
                masked: false,
                matrix: BitMatrix::zeros(rows, cols),
                reference,
            });
            DatasetStore::from_bytes(&store.to_bytes()).map(|s| s.pages[0].reference.len())
        };
        // A page packed for the dataset, and a stale one packed for a
        // 2 x 2 corner of it, both load.
        assert_eq!(page(300, 300, &[(299, 299)]).unwrap(), 1);
        assert_eq!(page(2, 2, &[(0, 0), (1, 1)]).unwrap(), 2);
        // Rows spanning 300 attributes x 300 objects from a page of
        // ~6 KB: refused before a 1.4 MB grid is allocated for them.
        let cells: Vec<(u32, u32)> = (0..300).map(|a| (299, a)).collect();
        match page(0, 0, &cells) {
            Err(StoreError::Corrupt { section, detail }) => {
                assert_eq!(section, "truth_pages");
                assert!(detail.contains("cannot span 300 x 300"), "{detail}");
            }
            other => panic!("expected a corrupt page, got {other:?}"),
        }
    }

    #[test]
    fn stale_page_rows_in_any_order_load_in_one_grid() {
        // 8,192 attributes over 128 objects; a stale page (no matrix)
        // holds one row per attribute at object 127, which it pays for:
        // 8,192 x 128 pairs from 164 KB of rows.
        let mut b = DatasetBuilder::new();
        for a in 0..8192 {
            let object = format!("o{}", a % 128);
            b.claim("s", &object, &format!("a{a}"), Value::int(1))
                .unwrap();
        }
        let dataset = b.build();
        let object = dataset.object_id("o127").unwrap().0;
        // The section is written by hand: the encoder always writes rows
        // in ascending (object, attribute) order.
        let load = |attributes: &[u32]| {
            let mut w = ByteWriter::with_capacity(0);
            w.put_u32(1);
            w.put_u32(8);
            w.put_bytes(b"majority");
            for field in [0, 0, 0, 1, 1, attributes.len() as u32] {
                w.put_u32(field);
            }
            w.put_u64(0.5f64.to_bits());
            for &a in attributes {
                w.put_u32(object);
                w.put_u32(a);
                w.put_u32(0);
                w.put_u64(1.0f64.to_bits());
            }
            w.align8();
            let bytes = w.into_bytes();
            let started = std::time::Instant::now();
            let section = SectionReader::new(&bytes, 0, bytes.len(), "truth_pages");
            let mut pages = decode_pages(section, &dataset).expect("the page pays for its grid");
            (pages.remove(0).reference, started.elapsed())
        };
        let ascending: Vec<u32> = (0..8192).collect();
        let descending: Vec<u32> = (0..8192).rev().collect();
        let (up, up_time) = load(&ascending);
        let (down, down_time) = load(&descending);
        assert_eq!(down.len(), 8192);
        assert_eq!(
            down.iter().collect::<Vec<_>>(),
            up.iter().collect::<Vec<_>>()
        );
        // Growing the grid one column at a time would insert every
        // descending attribute at column 0 and move the whole grid each
        // time: ~4 x 10^9 slot moves against the ascending page's none.
        assert!(
            down_time <= 10 * up_time + std::time::Duration::from_millis(250),
            "descending rows took {down_time:?}, ascending {up_time:?}"
        );
    }

    #[test]
    fn load_counters_record_bytes_mapped() {
        let dataset = sample_dataset();
        let mut store = DatasetStore::new(dataset.clone());
        store.push_page(sample_page(&dataset, false));
        let bytes = store.to_bytes();
        let obs = Observer::enabled();
        DatasetStore::from_bytes_observed(&bytes, &obs).unwrap();
        let profile = obs.profile().unwrap();
        assert_eq!(profile.counter("bytes_mapped"), Some(bytes.len() as u64));
    }

    #[test]
    fn empty_dataset_roundtrips() {
        let store = DatasetStore::new(DatasetBuilder::new().build());
        let bytes = store.to_bytes();
        let back = DatasetStore::from_bytes(&bytes).unwrap();
        assert_eq!(back.dataset.n_claims(), 0);
        assert!(back.pages.is_empty());
        assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn subset_where_recanonicalizes_order_and_drops_pages() {
        let dataset = sample_dataset();
        let mut store = DatasetStore::new(dataset.clone());
        store.push_page(sample_page(&dataset, false));
        let a1 = dataset.attribute_id("a1").unwrap();

        let slice = store.subset_where(|c| c.attribute == a1).unwrap();
        // The ordering invariant: slice claims are (attribute, object,
        // source)-sorted no matter what order the filter visited them in.
        let keys: Vec<_> = slice
            .dataset
            .claims()
            .iter()
            .map(|c| (c.attribute, c.object, c.source))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        assert!(slice.dataset.claims().iter().all(|c| c.attribute == a1));
        // Ids stay global: the full interner tables ride along.
        assert_eq!(slice.dataset.n_sources(), dataset.n_sources());
        assert_eq!(slice.dataset.n_values(), dataset.n_values());
        // Truth pages are dropped — they described the *full* claim set,
        // and their dimensions would still pass a shape check against
        // the subset's (unchanged) interners.
        assert!(slice.pages.is_empty());

        // Byte stability per shard: two differently-expressed filters
        // selecting the same claims pack to identical bytes.
        let objs: Vec<_> = dataset
            .claims()
            .iter()
            .filter(|c| c.attribute == a1)
            .map(|c| c.object)
            .collect();
        let slice2 = store
            .subset_where(|c| c.attribute == a1 && objs.contains(&c.object))
            .unwrap();
        assert_eq!(slice.to_bytes(), slice2.to_bytes());
        // And the slice round-trips like any store.
        let back = DatasetStore::from_bytes(&slice.to_bytes()).unwrap();
        assert_eq!(back.to_bytes(), slice.to_bytes());
    }

    #[test]
    fn header_corruptions_yield_typed_errors() {
        let bytes = DatasetStore::new(sample_dataset()).to_bytes();
        assert!(matches!(
            DatasetStore::from_bytes(&bytes[..8]),
            Err(StoreError::TruncatedHeader { len: 8 })
        ));
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(matches!(DatasetStore::from_bytes(&bad), Err(StoreError::BadMagic { .. })));
        let mut v1 = bytes.clone();
        v1[4] = 1;
        assert!(matches!(
            DatasetStore::from_bytes(&v1),
            Err(StoreError::UnsupportedVersion { found: 1 })
        ));
    }

    #[test]
    fn flipped_payload_byte_is_a_checksum_mismatch() {
        let bytes = DatasetStore::new(sample_dataset()).to_bytes();
        let table = section_table(&bytes).unwrap();
        let claims = table.iter().find(|s| s.name == "claims").unwrap();
        let mut bad = bytes.clone();
        bad[claims.offset as usize] ^= 0xFF;
        assert!(matches!(
            DatasetStore::from_bytes(&bad),
            Err(StoreError::ChecksumMismatch { section: "claims" })
        ));
    }

    #[test]
    fn section_table_reports_all_sections() {
        let bytes = DatasetStore::new(sample_dataset()).to_bytes();
        let table = section_table(&bytes).unwrap();
        let names: Vec<_> = table.iter().map(|s| s.name).collect();
        assert_eq!(names, SECTION_NAMES);
        for s in &table {
            assert_eq!(
                s.offset % ALIGN as u64,
                0,
                "section {} misaligned",
                s.name
            );
        }
    }
}
