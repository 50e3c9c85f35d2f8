//! The immutable, index-accelerated claim collection and its builder.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::claim::Claim;
use crate::delta::{ClaimBatch, DeltaSummary};
use crate::error::ModelError;
use crate::ids::{AttributeId, Interner, ObjectId, SourceId, ValueId};
use crate::truth::GroundTruth;
use crate::value::Value;
use crate::view::DatasetView;

/// One `(object, attribute)` cell together with the contiguous range of
/// its claims inside the dataset's claim vector.
///
/// Cells are the unit the truth-discovery problem is defined over: each
/// cell has exactly one true value among the (conflicting) claimed ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cell {
    /// The object of this cell.
    pub object: ObjectId,
    /// The attribute of this cell.
    pub attribute: AttributeId,
    claims_start: u32,
    claims_end: u32,
}

impl Cell {
    /// Range of this cell's claims inside [`Dataset::claims`].
    #[inline]
    pub fn claim_range(&self) -> Range<usize> {
        self.claims_start as usize..self.claims_end as usize
    }

    /// Number of claims (sources) covering this cell.
    #[inline]
    pub fn n_claims(&self) -> usize {
        (self.claims_end - self.claims_start) as usize
    }
}

/// An immutable truth-discovery dataset: interned sources, objects,
/// attributes and values, plus claims sorted by `(attribute, object,
/// source)` with a per-attribute cell index.
///
/// Construct with [`DatasetBuilder`]. The sort order is what makes
/// [`DatasetView`] (restriction to an attribute subset) a zero-copy
/// operation: all the cells of one attribute are contiguous.
///
/// Every part sits behind one shared pointer, so `clone` is O(1) and the
/// clone shares its claims and interner tables with the original.
///
/// The serde form carries only the interners, the values and the
/// claims. Deserializing rebuilds the indexes through
/// [`Dataset::from_interned_parts`], so a hostile file yields an error,
/// never a malformed dataset.
#[derive(Debug, Clone)]
pub struct Dataset {
    parts: Arc<Parts>,
}

#[derive(Debug)]
struct Parts {
    sources: Interner,
    objects: Interner,
    attributes: Interner,
    values: Vec<Value>,
    claims: Vec<Claim>,
    cells: Vec<Cell>,
    /// `attribute.index() -> range` of that attribute's cells in `cells`.
    cells_by_attr: Vec<(u32, u32)>,
}

/// The canonical claim order: `(attribute, object, source)`. Keys are
/// unique within a dataset, so this is a total order on its claims.
fn claim_key(c: &Claim) -> (AttributeId, ObjectId, SourceId) {
    (c.attribute, c.object, c.source)
}

impl Dataset {
    /// Indexes claims already sorted by [`claim_key`] with unique keys
    /// and ids in range of the tables: the shared back half of every
    /// constructor.
    fn index(
        sources: Interner,
        objects: Interner,
        attributes: Interner,
        values: Vec<Value>,
        claims: Vec<Claim>,
    ) -> Dataset {
        let (cells, cells_by_attr) = index_claims(&claims, attributes.len());
        Dataset {
            parts: Arc::new(Parts {
                sources,
                objects,
                attributes,
                values,
                claims,
                cells,
                cells_by_attr,
            }),
        }
    }

    /// Number of registered sources (including any without claims).
    pub fn n_sources(&self) -> usize {
        self.parts.sources.len()
    }

    /// Number of registered objects.
    pub fn n_objects(&self) -> usize {
        self.parts.objects.len()
    }

    /// Number of registered attributes.
    pub fn n_attributes(&self) -> usize {
        self.parts.attributes.len()
    }

    /// Number of distinct interned values.
    pub fn n_values(&self) -> usize {
        self.parts.values.len()
    }

    /// Total number of claims (observations).
    pub fn n_claims(&self) -> usize {
        self.parts.claims.len()
    }

    /// Number of non-empty `(object, attribute)` cells.
    pub fn n_cells(&self) -> usize {
        self.parts.cells.len()
    }

    /// All claims, sorted by `(attribute, object, source)`.
    pub fn claims(&self) -> &[Claim] {
        &self.parts.claims
    }

    /// All non-empty cells, sorted by `(attribute, object)`.
    pub fn cells(&self) -> &[Cell] {
        &self.parts.cells
    }

    /// The claims of one cell (each from a distinct source).
    pub fn cell_claims(&self, cell: &Cell) -> &[Claim] {
        &self.parts.claims[cell.claim_range()]
    }

    /// The cells of a single attribute, contiguous by construction.
    pub fn cells_of_attribute(&self, attribute: AttributeId) -> &[Cell] {
        match self.parts.cells_by_attr.get(attribute.index()) {
            Some(&(s, e)) => &self.parts.cells[s as usize..e as usize],
            None => &[],
        }
    }

    /// Iterates over one source's claims, in claim order. This scans
    /// every claim: the dataset keeps no per-source index.
    pub fn claims_of_source(&self, source: SourceId) -> impl Iterator<Item = &Claim> {
        self.parts.claims.iter().filter(move |c| c.source == source)
    }

    /// Resolves a value id to its payload.
    ///
    /// # Panics
    /// Panics if `id` does not belong to this dataset.
    pub fn value(&self, id: ValueId) -> &Value {
        &self.parts.values[id.index()]
    }

    /// Looks up the id of an already-interned value.
    pub fn value_id(&self, value: &Value) -> Option<ValueId> {
        // The value table is small relative to claims and this lookup is
        // off the hot path (evaluation only), so a linear scan spares the
        // dataset a value index.
        self.parts
            .values
            .iter()
            .position(|v| v == value)
            .map(|i| ValueId::new(i as u32))
    }

    /// Name of a source.
    pub fn source_name(&self, id: SourceId) -> &str {
        self.parts
            .sources
            .name(id.0)
            .expect("source id out of range")
    }

    /// Name of an object.
    pub fn object_name(&self, id: ObjectId) -> &str {
        self.parts
            .objects
            .name(id.0)
            .expect("object id out of range")
    }

    /// Name of an attribute.
    pub fn attribute_name(&self, id: AttributeId) -> &str {
        self.parts
            .attributes
            .name(id.0)
            .expect("attribute id out of range")
    }

    /// Id of a named source.
    pub fn source_id(&self, name: &str) -> Option<SourceId> {
        self.parts.sources.get(name).map(SourceId::new)
    }

    /// Id of a named object.
    pub fn object_id(&self, name: &str) -> Option<ObjectId> {
        self.parts.objects.get(name).map(ObjectId::new)
    }

    /// Id of a named attribute.
    pub fn attribute_id(&self, name: &str) -> Option<AttributeId> {
        self.parts.attributes.get(name).map(AttributeId::new)
    }

    /// All source ids.
    pub fn source_ids(&self) -> impl Iterator<Item = SourceId> {
        (0..self.n_sources() as u32).map(SourceId::new)
    }

    /// All object ids.
    pub fn object_ids(&self) -> impl Iterator<Item = ObjectId> {
        (0..self.n_objects() as u32).map(ObjectId::new)
    }

    /// All attribute ids.
    pub fn attribute_ids(&self) -> impl Iterator<Item = AttributeId> {
        (0..self.n_attributes() as u32).map(AttributeId::new)
    }

    /// A view spanning every attribute (the un-partitioned dataset).
    pub fn view_all(&self) -> DatasetView<'_> {
        DatasetView::all(self)
    }

    /// A view restricted to `attributes`.
    pub fn view_of(&self, attributes: &[AttributeId]) -> DatasetView<'_> {
        DatasetView::of(self, attributes)
    }

    /// Rejects datasets truth discovery cannot meaningfully run on:
    /// no claims, no objects, or fewer than two sources (a lone source
    /// is trivially its own truth — there is no disagreement to
    /// resolve). Loaders and service entry points should call this
    /// before handing the dataset to a pipeline; the library algorithms
    /// themselves stay permissive (a single-source *view* of a larger
    /// dataset is legitimate).
    pub fn validate_for_discovery(&self) -> Result<(), ModelError> {
        if self.n_claims() == 0 || self.n_objects() == 0 || self.n_sources() < 2 {
            return Err(ModelError::DegenerateDataset {
                n_sources: self.n_sources(),
                n_objects: self.n_objects(),
                n_claims: self.n_claims(),
                // Name the offender when there is exactly one: serving
                // entry points forward it on the wire.
                lone_source: (self.n_sources() == 1)
                    .then(|| self.source_name(SourceId::new(0)).to_string()),
            });
        }
        Ok(())
    }

    /// Looks up the claim a source asserted for a cell, if any
    /// (binary search over the `(attribute, object, source)` sort).
    pub fn claim_of(
        &self,
        source: SourceId,
        object: ObjectId,
        attribute: AttributeId,
    ) -> Option<&Claim> {
        let claims = &self.parts.claims;
        claims
            .binary_search_by_key(&(attribute, object, source), claim_key)
            .ok()
            .map(|i| &claims[i])
    }

    /// Applies an append-only [`ClaimBatch`], producing the grown
    /// dataset plus a [`DeltaSummary`] of what changed. `self` is
    /// untouched (datasets are immutable); entity ids are **stable** —
    /// existing sources/objects/attributes/values keep their ids, new
    /// ones are appended to the interners in first-appearance order.
    ///
    /// Re-asserting an existing claim with the same value (in the
    /// dataset or within the batch) is a no-op; asserting a *different*
    /// value for an already-claimed `(source, object, attribute)` is
    /// [`ModelError::ConflictingClaim`] — claims are append-only, never
    /// updated in place.
    ///
    /// Only the batch is sorted: its claims are then merged into the
    /// already-sorted claim vector in one pass, which yields the same
    /// vector as sorting everything because keys are unique.
    pub fn apply_batch(&self, batch: &ClaimBatch) -> Result<(Dataset, DeltaSummary), ModelError> {
        let p = &*self.parts;
        let mut sources = p.sources.clone();
        let mut objects = p.objects.clone();
        let mut attributes = p.attributes.clone();
        let mut values = p.values.clone();
        let mut value_index: HashMap<Value, ValueId> = values
            .iter()
            .enumerate()
            .map(|(i, v)| (v.clone(), ValueId::new(i as u32)))
            .collect();
        let (old_sources, old_objects, old_attributes) =
            (sources.len(), objects.len(), attributes.len());

        let mut appended: Vec<Claim> = Vec::with_capacity(batch.len());
        let mut seen: HashMap<(u32, u32, u32), ValueId> = HashMap::new();
        for (source, object, attribute, value) in batch.rows() {
            let s = SourceId::new(sources.intern(source));
            let o = ObjectId::new(objects.intern(object));
            let a = AttributeId::new(attributes.intern(attribute));
            let v = match value_index.get(value) {
                Some(&id) => id,
                None => {
                    let id = ValueId::new(values.len() as u32);
                    values.push(value.clone());
                    value_index.insert(value.clone(), id);
                    id
                }
            };

            let conflict = || ModelError::ConflictingClaim {
                source: source.clone(),
                object: object.clone(),
                attribute: attribute.clone(),
            };
            if let Some(existing) = self.claim_of(s, o, a) {
                if existing.value == v {
                    continue; // duplicate of an existing claim
                }
                return Err(conflict());
            }
            match seen.insert((s.0, o.0, a.0), v) {
                None => appended.push(Claim::new(s, o, a, v)),
                Some(prev) if prev == v => {} // duplicate within the batch
                Some(_) => return Err(conflict()),
            }
        }

        appended.sort_unstable_by_key(claim_key);
        let mut dirty: Vec<AttributeId> = appended.iter().map(|c| c.attribute).collect();
        dirty.dedup();
        let summary = DeltaSummary {
            dirty_attributes: dirty,
            new_sources: sources.len() - old_sources,
            new_objects: objects.len() - old_objects,
            new_attributes: attributes.len() - old_attributes,
            appended_claims: appended.len(),
        };

        let claims = merge_sorted(&p.claims, &appended);
        let dataset = Dataset::index(sources, objects, attributes, values, claims);
        Ok((dataset, summary))
    }

    /// Reassembles a dataset from already-interned parts — the loader
    /// fast path used by the `td-store` binary format, which persists
    /// the interner tables and claim vector directly. Claims not already
    /// in strict canonical `(attribute, object, source)` order are
    /// sorted into it, and all are fully validated: every id must be in
    /// range for its table and no `(source, object, attribute)` triple
    /// may appear twice, so a hostile or corrupt input can produce an
    /// error but never a malformed dataset.
    pub fn from_interned_parts(
        sources: Interner,
        objects: Interner,
        attributes: Interner,
        values: Vec<Value>,
        mut claims: Vec<Claim>,
    ) -> Result<Dataset, ModelError> {
        let (ns, no, na, nv) = (sources.len(), objects.len(), attributes.len(), values.len());
        for c in &claims {
            let oob = if c.source.index() >= ns {
                Some(("source", c.source.index()))
            } else if c.object.index() >= no {
                Some(("object", c.object.index()))
            } else if c.attribute.index() >= na {
                Some(("attribute", c.attribute.index()))
            } else if c.value.index() >= nv {
                Some(("value", c.value.index()))
            } else {
                None
            };
            if let Some((kind, index)) = oob {
                return Err(ModelError::UnknownEntity {
                    kind,
                    name: format!("#{index}"),
                });
            }
        }
        // Strictly ascending keys are sorted and duplicate-free; stored
        // files and `subset_where` slices arrive that way.
        if claims
            .windows(2)
            .any(|w| claim_key(&w[0]) >= claim_key(&w[1]))
        {
            claims.sort_unstable_by_key(claim_key);
            if let Some(w) = claims
                .windows(2)
                .find(|w| claim_key(&w[0]) == claim_key(&w[1]))
            {
                return Err(ModelError::ConflictingClaim {
                    source: sources.name(w[0].source.0).unwrap_or("?").to_owned(),
                    object: objects.name(w[0].object.0).unwrap_or("?").to_owned(),
                    attribute: attributes.name(w[0].attribute.0).unwrap_or("?").to_owned(),
                });
            }
        }
        Ok(Dataset::index(sources, objects, attributes, values, claims))
    }

    /// A new dataset holding only the claims `keep` accepts, with every
    /// interner table cloned **in full** — ids are global, so a
    /// `SourceId`/`ObjectId`/`AttributeId`/`ValueId` means the same
    /// entity in the subset as in `self`. This is the shard-extraction
    /// primitive behind `td-shard`: a worker's slice keeps the parent
    /// id space, so its partial `TruthResult`s merge into the
    /// coordinator's global result without any id translation.
    ///
    /// The kept claims are re-sorted into the canonical
    /// `(attribute, object, source)` order and re-indexed from scratch
    /// (via [`Dataset::from_interned_parts`]), so a subset serializes
    /// byte-identically no matter how `self`'s claims were ordered.
    pub fn subset_where(&self, mut keep: impl FnMut(&Claim) -> bool) -> Result<Dataset, ModelError> {
        let p = &*self.parts;
        let claims: Vec<Claim> = p.claims.iter().filter(|c| keep(c)).copied().collect();
        Dataset::from_interned_parts(
            p.sources.clone(),
            p.objects.clone(),
            p.attributes.clone(),
            p.values.clone(),
            claims,
        )
    }
}

impl Serialize for Dataset {
    fn to_value(&self) -> serde::Value {
        let p = &*self.parts;
        let mut m = serde::Map::new();
        m.insert("sources".to_string(), p.sources.to_value());
        m.insert("objects".to_string(), p.objects.to_value());
        m.insert("attributes".to_string(), p.attributes.to_value());
        m.insert("values".to_string(), p.values.to_value());
        m.insert("claims".to_string(), p.claims.to_value());
        serde::Value::Object(m)
    }
}

impl Deserialize for Dataset {
    /// Reads the parts [`Serialize`] writes and ignores any other key,
    /// such as the index fields older files carry.
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let obj = v
            .as_object()
            .ok_or_else(|| serde::Error::custom("expected object for Dataset"))?;
        fn part<T: Deserialize>(obj: &serde::Map, key: &str) -> Result<T, serde::Error> {
            T::from_value(obj.get(key).unwrap_or(&serde::Value::Null))
                .map_err(|e| e.context(&format!("Dataset.{key}")))
        }
        Dataset::from_interned_parts(
            part(obj, "sources")?,
            part(obj, "objects")?,
            part(obj, "attributes")?,
            part(obj, "values")?,
            part(obj, "claims")?,
        )
        .map_err(|e| serde::Error::custom(e).context("Dataset"))
    }
}

/// Merges `batch` into `claims`, both sorted by [`claim_key`] and with no
/// key in common, in one pass: each batch claim finds its place by
/// binary search in what is left of `claims`, and the run before it is
/// copied whole. The result equals sorting the concatenation.
fn merge_sorted(claims: &[Claim], batch: &[Claim]) -> Vec<Claim> {
    let mut merged = Vec::with_capacity(claims.len() + batch.len());
    let mut rest = claims;
    for c in batch {
        let at = rest.partition_point(|x| claim_key(x) < claim_key(c));
        merged.extend_from_slice(&rest[..at]);
        merged.push(*c);
        rest = &rest[at..];
    }
    merged.extend_from_slice(rest);
    merged
}

/// Indexes an `(attribute, object, source)`-sorted claim vector into
/// cells and per-attribute cell ranges.
fn index_claims(claims: &[Claim], n_attributes: usize) -> (Vec<Cell>, Vec<(u32, u32)>) {
    // Group contiguous runs of equal (attribute, object) into cells.
    let mut cells: Vec<Cell> = Vec::new();
    let mut i = 0usize;
    while i < claims.len() {
        let (a, o) = (claims[i].attribute, claims[i].object);
        let start = i;
        while i < claims.len() && claims[i].attribute == a && claims[i].object == o {
            i += 1;
        }
        cells.push(Cell {
            object: o,
            attribute: a,
            claims_start: start as u32,
            claims_end: i as u32,
        });
    }

    // Per-attribute ranges over the cell vector.
    let mut cells_by_attr = vec![(0u32, 0u32); n_attributes];
    let mut j = 0usize;
    for a in 0..n_attributes {
        let start = j;
        while j < cells.len() && cells[j].attribute.index() == a {
            j += 1;
        }
        cells_by_attr[a] = (start as u32, j as u32);
    }
    (cells, cells_by_attr)
}

/// Incremental [`Dataset`] constructor.
///
/// Accepts claims by entity *name* (convenient, self-interning) or by
/// pre-interned ids (fast path for generators). Duplicate identical
/// claims are ignored; conflicting re-assertions are an error.
#[derive(Debug, Default)]
pub struct DatasetBuilder {
    sources: Interner,
    objects: Interner,
    attributes: Interner,
    values: Vec<Value>,
    value_index: HashMap<Value, ValueId>,
    /// `(source, object, attribute) -> value`; detects conflicts.
    claims: HashMap<(u32, u32, u32), ValueId>,
    truth: HashMap<(ObjectId, AttributeId), ValueId>,
}

impl DatasetBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or looks up) a source by name.
    pub fn source(&mut self, name: &str) -> SourceId {
        SourceId::new(self.sources.intern(name))
    }

    /// Registers (or looks up) an object by name.
    pub fn object(&mut self, name: &str) -> ObjectId {
        ObjectId::new(self.objects.intern(name))
    }

    /// Registers (or looks up) an attribute by name.
    pub fn attribute(&mut self, name: &str) -> AttributeId {
        AttributeId::new(self.attributes.intern(name))
    }

    /// Interns a value.
    pub fn value(&mut self, value: Value) -> ValueId {
        if let Some(&id) = self.value_index.get(&value) {
            return id;
        }
        let id = ValueId::new(self.values.len() as u32);
        self.values.push(value.clone());
        self.value_index.insert(value, id);
        id
    }

    /// Adds a claim by entity names.
    ///
    /// Returns [`ModelError::ConflictingClaim`] if `source` already
    /// asserted a *different* value for this cell; re-asserting the same
    /// value is a no-op.
    pub fn claim(
        &mut self,
        source: &str,
        object: &str,
        attribute: &str,
        value: Value,
    ) -> Result<(), ModelError> {
        let s = self.source(source);
        let o = self.object(object);
        let a = self.attribute(attribute);
        let v = self.value(value);
        self.claim_ids(s, o, a, v).map_err(|_| ModelError::ConflictingClaim {
            source: source.to_owned(),
            object: object.to_owned(),
            attribute: attribute.to_owned(),
        })
    }

    /// Adds a claim by pre-interned ids (generator fast path).
    ///
    /// The error carries resolved names when available.
    pub fn claim_ids(
        &mut self,
        source: SourceId,
        object: ObjectId,
        attribute: AttributeId,
        value: ValueId,
    ) -> Result<(), ModelError> {
        match self.claims.insert((source.0, object.0, attribute.0), value) {
            None => Ok(()),
            Some(prev) if prev == value => Ok(()),
            Some(prev) => {
                // Restore the original claim before reporting the conflict.
                self.claims.insert((source.0, object.0, attribute.0), prev);
                Err(ModelError::ConflictingClaim {
                    source: self.sources.name(source.0).unwrap_or("?").to_owned(),
                    object: self.objects.name(object.0).unwrap_or("?").to_owned(),
                    attribute: self.attributes.name(attribute.0).unwrap_or("?").to_owned(),
                })
            }
        }
    }

    /// Records the ground-truth value of a cell (by names).
    pub fn truth(&mut self, object: &str, attribute: &str, value: Value) {
        let o = self.object(object);
        let a = self.attribute(attribute);
        let v = self.value(value);
        self.truth.insert((o, a), v);
    }

    /// Records the ground-truth value of a cell (by ids).
    pub fn truth_ids(&mut self, object: ObjectId, attribute: AttributeId, value: ValueId) {
        self.truth.insert((object, attribute), value);
    }

    /// Number of claims accumulated so far.
    pub fn n_claims(&self) -> usize {
        self.claims.len()
    }

    /// Finalizes into a [`Dataset`], discarding any recorded ground truth.
    pub fn build(self) -> Dataset {
        self.build_with_truth().0
    }

    /// Finalizes into a [`Dataset`] plus the recorded [`GroundTruth`].
    pub fn build_with_truth(self) -> (Dataset, GroundTruth) {
        let mut claims: Vec<Claim> = self
            .claims
            .into_iter()
            .map(|((s, o, a), v)| {
                Claim::new(SourceId::new(s), ObjectId::new(o), AttributeId::new(a), v)
            })
            .collect();
        claims.sort_unstable_by_key(claim_key);
        let dataset = Dataset::index(
            self.sources,
            self.objects,
            self.attributes,
            self.values,
            claims,
        );
        (dataset, GroundTruth::from_map(self.truth))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn running_example() -> (Dataset, GroundTruth) {
        // Table 1 of the paper: two topics x three questions, three sources.
        let mut b = DatasetBuilder::new();
        let rows: &[(&str, &str, &str, Value)] = &[
            ("s1", "FB", "Q1", Value::text("Algeria")),
            ("s1", "FB", "Q2", Value::int(2000)),
            ("s1", "FB", "Q3", Value::int(12)),
            ("s2", "FB", "Q1", Value::text("Senegal")),
            ("s2", "FB", "Q2", Value::int(2019)),
            ("s2", "FB", "Q3", Value::int(11)),
            ("s3", "FB", "Q1", Value::text("Algeria")),
            ("s3", "FB", "Q2", Value::int(1994)),
            ("s3", "FB", "Q3", Value::int(12)),
            ("s1", "CS", "Q1", Value::text("Linus Torvalds")),
            ("s1", "CS", "Q2", Value::int(1830)),
            ("s1", "CS", "Q3", Value::int(7)),
            ("s2", "CS", "Q1", Value::text("Bill Gates")),
            ("s2", "CS", "Q2", Value::int(1991)),
            ("s2", "CS", "Q3", Value::int(8)),
            ("s3", "CS", "Q1", Value::text("Steve Jobs")),
            ("s3", "CS", "Q2", Value::int(1991)),
            ("s3", "CS", "Q3", Value::int(10)),
        ];
        for (s, o, a, v) in rows {
            b.claim(s, o, a, v.clone()).unwrap();
        }
        b.truth("FB", "Q1", Value::text("Algeria"));
        b.truth("FB", "Q2", Value::int(2019));
        b.truth("FB", "Q3", Value::int(11));
        b.truth("CS", "Q1", Value::text("Linus Torvalds"));
        b.truth("CS", "Q2", Value::int(1991));
        b.truth("CS", "Q3", Value::int(10));
        b.build_with_truth()
    }

    #[test]
    fn validation_accepts_the_running_example() {
        let (d, _) = running_example();
        assert!(d.validate_for_discovery().is_ok());
    }

    #[test]
    fn validation_rejects_degenerate_datasets() {
        // Empty: no claims, no sources, no objects.
        let empty = DatasetBuilder::new().build();
        let err = empty.validate_for_discovery().unwrap_err();
        assert_eq!(
            err,
            ModelError::DegenerateDataset {
                n_sources: 0,
                n_objects: 0,
                n_claims: 0,
                lone_source: None,
            }
        );
        assert!(err.to_string().contains("degenerate"), "{err}");

        // A single source has nothing to disagree with — and the error
        // names it, so a service can report which feed claims alone.
        let mut b = DatasetBuilder::new();
        b.claim("lone", "o", "a", Value::int(1)).unwrap();
        let single = b.build();
        let err = single.validate_for_discovery().unwrap_err();
        assert!(matches!(
            &err,
            ModelError::DegenerateDataset { n_sources: 1, lone_source: Some(name), .. }
                if name == "lone"
        ));
        assert!(err.to_string().contains("\"lone\""), "{err}");
    }

    #[test]
    fn builder_counts_entities() {
        let (d, t) = running_example();
        assert_eq!(d.n_sources(), 3);
        assert_eq!(d.n_objects(), 2);
        assert_eq!(d.n_attributes(), 3);
        assert_eq!(d.n_claims(), 18);
        assert_eq!(d.n_cells(), 6);
        assert_eq!(t.len(), 6);
    }

    #[test]
    fn claims_are_sorted_by_attribute_object_source() {
        let (d, _) = running_example();
        let keys: Vec<_> = d
            .claims()
            .iter()
            .map(|c| (c.attribute, c.object, c.source))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn cells_partition_the_claims() {
        let (d, _) = running_example();
        let mut covered = 0usize;
        let mut prev_end = 0usize;
        for cell in d.cells() {
            let r = cell.claim_range();
            assert_eq!(r.start, prev_end, "cells must tile the claim vector");
            prev_end = r.end;
            covered += r.len();
            for c in d.cell_claims(cell) {
                assert_eq!(c.cell(), (cell.object, cell.attribute));
            }
        }
        assert_eq!(covered, d.n_claims());
    }

    #[test]
    fn cells_of_attribute_are_complete() {
        let (d, _) = running_example();
        for a in d.attribute_ids() {
            let cells = d.cells_of_attribute(a);
            assert_eq!(cells.len(), 2, "each question asked about both topics");
            for c in cells {
                assert_eq!(c.attribute, a);
            }
        }
    }

    #[test]
    fn claims_of_source_keeps_claim_order() {
        let (d, _) = running_example();
        for s in d.source_ids() {
            let claims: Vec<_> = d.claims_of_source(s).copied().collect();
            let expected: Vec<_> = d
                .claims()
                .iter()
                .filter(|c| c.source == s)
                .copied()
                .collect();
            assert_eq!(claims.len(), 6);
            assert_eq!(claims, expected);
        }
    }

    #[test]
    fn clone_shares_storage() {
        let (d, _) = running_example();
        let copy = d.clone();
        assert_eq!(copy.claims().as_ptr(), d.claims().as_ptr());
        assert_eq!(copy.cells().as_ptr(), d.cells().as_ptr());
        assert!(std::ptr::eq(
            copy.source_name(SourceId::new(0)),
            d.source_name(SourceId::new(0))
        ));
    }

    #[test]
    fn merge_sorted_equals_sorting_the_concatenation() {
        let claim = |a: u32, o: u32, s: u32| {
            Claim::new(
                SourceId::new(s),
                ObjectId::new(o),
                AttributeId::new(a),
                ValueId::new(0),
            )
        };
        let old = vec![
            claim(0, 0, 0),
            claim(0, 0, 2),
            claim(0, 3, 1),
            claim(2, 1, 0),
        ];
        let batch = vec![
            claim(0, 0, 1),
            claim(0, 4, 0),
            claim(1, 0, 0),
            claim(2, 1, 1),
            claim(3, 0, 0),
        ];
        let mut expected = old.clone();
        expected.extend(&batch);
        expected.sort_unstable_by_key(claim_key);
        assert_eq!(merge_sorted(&old, &batch), expected);
        assert_eq!(merge_sorted(&old, &[]), old);
        assert_eq!(merge_sorted(&[], &batch), batch);
    }

    #[test]
    fn duplicate_identical_claim_is_noop() {
        let mut b = DatasetBuilder::new();
        b.claim("s", "o", "a", Value::int(1)).unwrap();
        b.claim("s", "o", "a", Value::int(1)).unwrap();
        assert_eq!(b.n_claims(), 1);
    }

    #[test]
    fn conflicting_claim_is_error_and_preserves_original() {
        let mut b = DatasetBuilder::new();
        b.claim("s", "o", "a", Value::int(1)).unwrap();
        let err = b.claim("s", "o", "a", Value::int(2)).unwrap_err();
        assert!(matches!(err, ModelError::ConflictingClaim { .. }));
        let d = b.build();
        assert_eq!(d.n_claims(), 1);
        let cell = &d.cells()[0];
        let v = d.cell_claims(cell)[0].value;
        assert_eq!(d.value(v), &Value::int(1));
    }

    #[test]
    fn name_id_roundtrip() {
        let (d, _) = running_example();
        let s = d.source_id("s2").unwrap();
        assert_eq!(d.source_name(s), "s2");
        let o = d.object_id("CS").unwrap();
        assert_eq!(d.object_name(o), "CS");
        let a = d.attribute_id("Q3").unwrap();
        assert_eq!(d.attribute_name(a), "Q3");
        assert!(d.source_id("nope").is_none());
    }

    #[test]
    fn value_id_lookup() {
        let (d, _) = running_example();
        let id = d.value_id(&Value::text("Algeria")).unwrap();
        assert_eq!(d.value(id), &Value::text("Algeria"));
        assert!(d.value_id(&Value::text("Morocco")).is_none());
    }

    #[test]
    fn truth_values_are_interned_even_if_unclaimed() {
        let mut b = DatasetBuilder::new();
        b.claim("s", "o", "a", Value::int(1)).unwrap();
        b.truth("o", "a", Value::int(42)); // nobody claimed 42
        let (d, t) = b.build_with_truth();
        let o = d.object_id("o").unwrap();
        let a = d.attribute_id("a").unwrap();
        let v = t.get(o, a).unwrap();
        assert_eq!(d.value(v), &Value::int(42));
    }

    #[test]
    fn empty_dataset_builds() {
        let d = DatasetBuilder::new().build();
        assert_eq!(d.n_claims(), 0);
        assert_eq!(d.n_cells(), 0);
        assert!(d.cells().is_empty());
    }

    #[test]
    fn subset_where_keeps_global_ids_and_canonical_order() {
        let (d, _) = running_example();
        let fb = d.object_id("FB").unwrap();
        let sub = d.subset_where(|c| c.object == fb).unwrap();
        // Interners are cloned in full: same entity tables, same ids.
        assert_eq!(sub.n_sources(), d.n_sources());
        assert_eq!(sub.n_objects(), d.n_objects());
        assert_eq!(sub.n_attributes(), d.n_attributes());
        assert_eq!(sub.n_values(), d.n_values());
        assert_eq!(sub.object_id("FB"), Some(fb));
        // Only FB claims survive, still canonically sorted.
        assert_eq!(sub.n_claims(), 9);
        assert!(sub.claims().iter().all(|c| c.object == fb));
        let keys: Vec<_> = sub
            .claims()
            .iter()
            .map(|c| (c.attribute, c.object, c.source))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        // Claims reference the parent's value table verbatim.
        for (c, pc) in sub.claims().iter().zip(
            d.claims().iter().filter(|c| c.object == fb),
        ) {
            assert_eq!(c, pc);
        }
        // An empty filter still builds (an empty shard is legal).
        let none = d.subset_where(|_| false).unwrap();
        assert_eq!(none.n_claims(), 0);
        assert_eq!(none.n_sources(), d.n_sources());
    }

    #[test]
    fn from_interned_parts_sorts_out_of_order_claims_and_rejects_repeats() {
        let (d, _) = running_example();
        let p = &*d.parts;
        let parts = |claims: Vec<Claim>| {
            Dataset::from_interned_parts(
                p.sources.clone(),
                p.objects.clone(),
                p.attributes.clone(),
                p.values.clone(),
                claims,
            )
        };
        let mut reversed = p.claims.clone();
        reversed.reverse();
        assert_eq!(parts(p.claims.clone()).unwrap().claims(), d.claims());
        assert_eq!(parts(reversed).unwrap().claims(), d.claims());
        // A repeated key conflicts whether it sits next to its twin in
        // otherwise canonical order or apart from it.
        let mut adjacent = p.claims.clone();
        adjacent.insert(1, p.claims[0]);
        let mut apart = p.claims.clone();
        apart.push(p.claims[0]);
        for claims in [adjacent, apart] {
            assert!(matches!(
                parts(claims),
                Err(ModelError::ConflictingClaim { .. })
            ));
        }
    }

    #[test]
    fn sources_without_claims_are_retained() {
        let mut b = DatasetBuilder::new();
        b.source("idle");
        b.claim("busy", "o", "a", Value::int(1)).unwrap();
        let d = b.build();
        assert_eq!(d.n_sources(), 2);
        let idle = d.source_id("idle").unwrap();
        assert_eq!(d.claims_of_source(idle).count(), 0);
    }
}
