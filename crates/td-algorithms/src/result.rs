//! The output of a truth-discovery run.

use std::fmt;

use serde::{Deserialize, Serialize, Value};

use td_model::{AttributeId, DatasetView, ObjectId, ValueId};

/// One cell's prediction: the selected value and its confidence, or
/// nothing. The flag sits in the value id's padding, so a slot is 16
/// bytes either way.
#[derive(Debug, Clone, Copy)]
struct Slot {
    value: ValueId,
    filled: bool,
    confidence: f64,
}

const _: () = assert!(std::mem::size_of::<Slot>() == 16);

const EMPTY: Slot = Slot {
    value: ValueId::new(0),
    filled: false,
    confidence: 0.0,
};

/// `column_of` entry of an attribute without a column.
const NO_COLUMN: u32 = u32::MAX;

/// The complete outcome of one truth-discovery run over a dataset view.
///
/// Besides the headline prediction per cell, the result carries the
/// selected value's confidence, the final per-source trust vector (in the
/// *global* source id space — TD-AC relies on this to merge per-partition
/// results), and the number of outer iterations performed (the paper's
/// `#Iteration` column).
///
/// # Layout
///
/// The predictions live in one flat array of slots, column-major: one
/// column per attribute (ascending attribute id), one slot per object id
/// in every column, so cell `(o, a)` sits at `column(a) · stride + o`
/// and a lookup is two index operations. [`TruthResult::for_view`] sizes
/// the grid for a view once: 16 bytes per (attribute, object) of the
/// view, filled or not. A [`TruthResult::set_prediction`] outside that
/// shape grows the grid (a new column, or a wider stride), so results
/// built without a view still work, at the cost of a re-layout: a new
/// column moves every later column, so rows arriving in descending
/// attribute order move the grid once per column. Rows that come with
/// no view (a stale `.tds` page, a peer's partial) are built through
/// `From<TruthResultRepr>`, which sizes the grid from all of them once.
///
/// The grid is sized by ids, so a result built from a peer's rows must
/// range-check them first: the `.tds` page decoder and the shard
/// coordinator do.
#[derive(Default)]
pub struct TruthResult {
    /// `attribute.index() → column`, [`NO_COLUMN`] where there is none.
    column_of: Vec<u32>,
    /// `column → attribute`, ascending.
    attributes: Vec<AttributeId>,
    /// Slots per column: one past the largest object id the grid holds.
    stride: usize,
    /// `column · stride + object`. Capacity is a power of two (see
    /// [`empty_slots`]).
    slots: Vec<Slot>,
    /// Filled slots.
    len: usize,
    /// Final trust / accuracy score per source, indexed by `SourceId`.
    pub source_trust: Vec<f64>,
    /// Outer iterations until convergence (1 for single-pass algorithms).
    pub iterations: u32,
}

/// JSON-friendly shadow of [`TruthResult`] (tuple map keys are not
/// representable in JSON), and its serde form.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TruthResultRepr {
    /// `(object, attribute, value, confidence)` rows, sorted by cell.
    pub predictions: Vec<(ObjectId, AttributeId, ValueId, f64)>,
    /// See [`TruthResult::source_trust`].
    pub source_trust: Vec<f64>,
    /// See [`TruthResult::iterations`].
    pub iterations: u32,
}

/// Converts rows as they are, in any order, into a grid sized once for
/// them: their attributes by their largest object id. The grid is sized
/// by ids, so rows from a peer are range-checked before they get here.
impl From<TruthResultRepr> for TruthResult {
    fn from(r: TruthResultRepr) -> Self {
        let mut attributes: Vec<AttributeId> = r.predictions.iter().map(|p| p.1).collect();
        attributes.sort_unstable();
        attributes.dedup();
        let stride = r
            .predictions
            .iter()
            .map(|p| p.0.index() + 1)
            .max()
            .unwrap_or(0);
        let mut result = TruthResult::with_shape(attributes, stride, r.source_trust);
        result.iterations = r.iterations;
        for (o, a, v, c) in r.predictions {
            result.set_prediction(o, a, v, c);
        }
        result
    }
}

impl From<&TruthResult> for TruthResultRepr {
    fn from(r: &TruthResult) -> Self {
        TruthResultRepr {
            predictions: r.iter().collect(),
            source_trust: r.source_trust.clone(),
            iterations: r.iterations,
        }
    }
}

impl From<TruthResult> for TruthResultRepr {
    fn from(r: TruthResult) -> Self {
        TruthResultRepr {
            predictions: r.iter().collect(),
            source_trust: r.source_trust,
            iterations: r.iterations,
        }
    }
}

impl Serialize for TruthResult {
    fn to_value(&self) -> Value {
        TruthResultRepr::from(self).to_value()
    }
}

impl Deserialize for TruthResult {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        TruthResultRepr::from_value(v).map(TruthResult::from)
    }
}

/// Capacity of a slot buffer holding `len` slots: the next power of
/// two. Buffers that grow by a few objects per ingest then keep asking
/// the allocator for the same few sizes, so freed blocks get reused
/// instead of each size class growing its own.
fn slot_capacity(len: usize) -> usize {
    match len {
        0 => 0,
        n => n.checked_next_power_of_two().unwrap_or(n),
    }
}

/// `len` empty slots, with [`slot_capacity`].
fn empty_slots(len: usize) -> Vec<Slot> {
    let mut slots = Vec::with_capacity(slot_capacity(len));
    slots.resize(len, EMPTY);
    slots
}

/// `attribute.index() → column` for ascending, distinct `attributes`.
fn column_index(attributes: &[AttributeId]) -> Vec<u32> {
    let mut column_of = vec![NO_COLUMN; attributes.last().map_or(0, |a| a.index() + 1)];
    for (c, a) in attributes.iter().enumerate() {
        column_of[a.index()] = c as u32;
    }
    column_of
}

impl Clone for TruthResult {
    fn clone(&self) -> Self {
        let mut slots = Vec::with_capacity(slot_capacity(self.slots.len()));
        slots.extend_from_slice(&self.slots);
        TruthResult {
            column_of: self.column_of.clone(),
            attributes: self.attributes.clone(),
            stride: self.stride,
            slots,
            len: self.len,
            source_trust: self.source_trust.clone(),
            iterations: self.iterations,
        }
    }
}

/// Prints the filled cells, not the grid, so equal results print alike
/// whatever their shape.
impl fmt::Debug for TruthResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TruthResult")
            .field("predictions", &self.iter().collect::<Vec<_>>())
            .field("source_trust", &self.source_trust)
            .field("iterations", &self.iterations)
            .finish()
    }
}

impl TruthResult {
    /// An empty result shaped for `view`: one column per attribute of
    /// the view, one slot per object of its dataset, and the view's
    /// sources at `default_trust`. Every algorithm builds its result
    /// here, so predictions land without a re-layout.
    pub fn for_view(view: &DatasetView<'_>, default_trust: f64) -> Self {
        Self::with_shape(
            view.attributes().to_vec(),
            view.dataset().n_objects(),
            vec![default_trust; view.n_sources()],
        )
    }

    /// Creates an empty result with `n_sources` default-trust slots and
    /// no grid; predictions grow it as they arrive.
    pub fn with_sources(n_sources: usize, default_trust: f64) -> Self {
        Self {
            source_trust: vec![default_trust; n_sources],
            ..Self::default()
        }
    }

    /// An empty grid of `attributes` (ascending, distinct) × `stride`.
    fn with_shape(attributes: Vec<AttributeId>, stride: usize, source_trust: Vec<f64>) -> Self {
        Self {
            column_of: column_index(&attributes),
            slots: empty_slots(attributes.len() * stride),
            attributes,
            stride,
            len: 0,
            source_trust,
            iterations: 0,
        }
    }

    #[inline]
    fn column(&self, attribute: AttributeId) -> Option<usize> {
        match self.column_of.get(attribute.index()) {
            Some(&c) if c != NO_COLUMN => Some(c as usize),
            _ => None,
        }
    }

    /// The slots of column `c`, object ids `0..stride`.
    fn column_slots(&self, c: usize) -> &[Slot] {
        &self.slots[c * self.stride..(c + 1) * self.stride]
    }

    #[inline]
    fn slot(&self, object: ObjectId, attribute: AttributeId) -> Option<&Slot> {
        let c = self.column(attribute)?;
        if object.index() >= self.stride {
            return None;
        }
        let slot = &self.slots[c * self.stride + object.index()];
        slot.filled.then_some(slot)
    }

    /// Adds an empty column for `attribute` at its ascending position,
    /// shifting the later columns one stride right.
    #[cold]
    fn insert_column(&mut self, attribute: AttributeId) -> usize {
        let c = self.attributes.partition_point(|&a| a < attribute);
        self.attributes.insert(c, attribute);
        let wanted = slot_capacity(self.slots.len() + self.stride);
        self.slots.reserve_exact(wanted - self.slots.len());
        let at = c * self.stride;
        self.slots
            .splice(at..at, std::iter::repeat_n(EMPTY, self.stride));
        if self.column_of.len() <= attribute.index() {
            self.column_of.resize(attribute.index() + 1, NO_COLUMN);
        }
        for (col, a) in self.attributes.iter().enumerate().skip(c) {
            self.column_of[a.index()] = col as u32;
        }
        c
    }

    /// Re-lays the grid out with at least `min_stride` slots per column
    /// (doubling, so a run of growing objects re-lays out O(log n) times).
    #[cold]
    fn widen(&mut self, min_stride: usize) {
        let stride = min_stride.max(2 * self.stride);
        let mut slots = empty_slots(self.attributes.len() * stride);
        for c in 0..self.attributes.len() {
            slots[c * stride..c * stride + self.stride].copy_from_slice(self.column_slots(c));
        }
        self.slots = slots;
        self.stride = stride;
    }

    /// Records the selected value and its confidence for a cell.
    pub fn set_prediction(
        &mut self,
        object: ObjectId,
        attribute: AttributeId,
        value: ValueId,
        confidence: f64,
    ) {
        let c = match self.column(attribute) {
            Some(c) => c,
            None => self.insert_column(attribute),
        };
        if object.index() >= self.stride {
            self.widen(object.index() + 1);
        }
        let slot = &mut self.slots[c * self.stride + object.index()];
        self.len += usize::from(!slot.filled);
        *slot = Slot {
            value,
            filled: true,
            confidence,
        };
    }

    /// The selected value for a cell, if any.
    pub fn prediction(&self, object: ObjectId, attribute: AttributeId) -> Option<ValueId> {
        self.slot(object, attribute).map(|s| s.value)
    }

    /// The confidence of the selected value for a cell, if any.
    pub fn confidence(&self, object: ObjectId, attribute: AttributeId) -> Option<f64> {
        self.slot(object, attribute).map(|s| s.confidence)
    }

    /// Number of cells with a prediction.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no prediction was made.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates `(object, attribute, value, confidence)` over the cells
    /// with a prediction, in ascending `(object, attribute)` order.
    pub fn iter(&self) -> impl Iterator<Item = (ObjectId, AttributeId, ValueId, f64)> + '_ {
        let stride = self.stride;
        (0..stride).flat_map(move |o| {
            self.attributes
                .iter()
                .enumerate()
                .filter_map(move |(c, &a)| {
                    let s = &self.slots[c * stride + o];
                    s.filled
                        .then(|| (ObjectId::new(o as u32), a, s.value, s.confidence))
                })
        })
    }

    /// Merges another result into this one — the aggregation step of
    /// TD-AC (Algorithm 1, lines 20-24). Predictions are unioned (the
    /// partitions are disjoint so no cell can collide; on a collision the
    /// later result wins). Source trust is averaged element-wise and the
    /// iteration counter takes the max, mirroring "one logical pass".
    pub fn absorb(&mut self, other: &TruthResult) {
        for (o, a, v, c) in other.iter() {
            self.set_prediction(o, a, v, c);
        }
        if self.source_trust.len() == other.source_trust.len() {
            for (t, &u) in self.source_trust.iter_mut().zip(&other.source_trust) {
                *t = (*t + u) / 2.0;
            }
        } else if self.source_trust.is_empty() {
            self.source_trust = other.source_trust.clone();
        }
        self.iterations = self.iterations.max(other.iterations);
    }

    /// Merges a batch of per-partition results symmetrically — the
    /// aggregation step of TD-AC (Algorithm 1, lines 20-24) for a whole
    /// partition at once. Predictions are unioned (partitions are
    /// disjoint so no cell can collide; on a collision the later partial
    /// wins), source trust is the element-wise **arithmetic mean over
    /// all partials** (unlike chaining [`TruthResult::absorb`], which
    /// exponentially down-weights earlier partials), and the iteration
    /// counter takes the max. Partials with a mismatched (non-empty)
    /// trust length contribute predictions but not trust.
    ///
    /// The merged grid holds every partial's columns and is allocated
    /// once; a column only one partial has is one slice copy.
    pub fn merge_all(partials: &[TruthResult]) -> TruthResult {
        let mut attributes: Vec<AttributeId> = partials
            .iter()
            .flat_map(|p| p.attributes.iter().copied())
            .collect();
        attributes.sort_unstable();
        attributes.dedup();
        let stride = partials.iter().map(|p| p.stride).max().unwrap_or(0);
        let mut slots = Vec::with_capacity(slot_capacity(attributes.len() * stride));
        // Every filled slot of every partial, less the ones a later
        // partial overwrote.
        let mut len: usize = partials.iter().map(|p| p.len).sum();
        for &a in &attributes {
            let start = slots.len();
            let mut owners = partials
                .iter()
                .filter_map(|p| p.column(a).map(|c| p.column_slots(c)));
            let first = owners.next().expect("every merged column has an owner");
            slots.extend_from_slice(first);
            slots.resize(start + stride, EMPTY);
            for later in owners {
                for (dst, src) in slots[start..].iter_mut().zip(later) {
                    if src.filled {
                        len -= usize::from(dst.filled);
                        *dst = *src;
                    }
                }
            }
        }

        let trust_len = partials
            .iter()
            .map(|p| p.source_trust.len())
            .find(|&l| l > 0)
            .unwrap_or(0);
        let mut trust_sum = vec![0.0; trust_len];
        let mut trust_n = 0usize;
        let mut iterations = 0;
        for p in partials {
            if p.source_trust.len() == trust_len && trust_len > 0 {
                for (s, &t) in trust_sum.iter_mut().zip(&p.source_trust) {
                    *s += t;
                }
                trust_n += 1;
            }
            iterations = iterations.max(p.iterations);
        }
        let source_trust = if trust_n > 0 {
            trust_sum.into_iter().map(|s| s / trust_n as f64).collect()
        } else {
            Vec::new()
        };
        TruthResult {
            column_of: column_index(&attributes),
            attributes,
            stride,
            slots,
            len,
            source_trust,
            iterations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oa(o: u32, a: u32) -> (ObjectId, AttributeId) {
        (ObjectId::new(o), AttributeId::new(a))
    }

    #[test]
    fn set_and_get_predictions() {
        let mut r = TruthResult::with_sources(2, 0.8);
        let (o, a) = oa(0, 0);
        assert!(r.is_empty());
        r.set_prediction(o, a, ValueId::new(7), 0.9);
        assert_eq!(r.prediction(o, a), Some(ValueId::new(7)));
        assert_eq!(r.confidence(o, a), Some(0.9));
        assert_eq!(r.len(), 1);
        assert_eq!(r.source_trust, vec![0.8, 0.8]);
    }

    #[test]
    fn for_view_sizes_the_grid_once() {
        let mut b = td_model::DatasetBuilder::new();
        for (o, a) in [("o1", "a1"), ("o2", "a2"), ("o3", "a3")] {
            b.claim("s1", o, a, td_model::Value::int(1)).unwrap();
        }
        let d = b.build();
        let a2 = d.attribute_id("a2").unwrap();
        let a3 = d.attribute_id("a3").unwrap();
        let mut r = TruthResult::for_view(&d.view_of(&[a3, a2]), 0.5);
        assert_eq!(r.source_trust, vec![0.5]);
        assert_eq!((r.attributes.clone(), r.stride), (vec![a2, a3], 3));
        let slots = r.slots.as_ptr();
        r.set_prediction(ObjectId::new(2), a3, ValueId::new(0), 1.0);
        r.set_prediction(ObjectId::new(0), a2, ValueId::new(0), 1.0);
        assert_eq!(r.slots.as_ptr(), slots, "in-shape writes do not re-lay out");
        assert_eq!(r.len(), 2);
        assert_eq!(r.slots.capacity(), 8, "capacity rounds 6 slots up");
        assert_eq!(r.clone().slots.capacity(), 8, "and so does a clone's");
    }

    #[test]
    fn rows_size_the_grid_once_in_any_order() {
        // Descending attributes at rising objects: growing the grid row
        // by row would insert each column at the front and double the
        // stride past 100.
        let repr = TruthResultRepr {
            predictions: (0..100)
                .map(|i| {
                    let (o, a) = oa(i, 99 - i);
                    (o, a, ValueId::new(i), 0.5)
                })
                .collect(),
            source_trust: vec![0.5],
            iterations: 2,
        };
        let r = TruthResult::from(repr.clone());
        assert_eq!((r.attributes.len(), r.stride), (100, 100));
        assert_eq!(r.slots.len(), 100 * 100);
        assert_eq!(r.slots.capacity(), slot_capacity(100 * 100));
        assert_eq!(r.len(), 100);
        assert_eq!(r.iter().collect::<Vec<_>>(), repr.predictions);
    }

    #[test]
    fn out_of_shape_writes_grow_the_grid() {
        let mut r = TruthResult::with_sources(0, 0.0);
        r.set_prediction(ObjectId::new(5), AttributeId::new(3), ValueId::new(1), 0.1);
        r.set_prediction(ObjectId::new(1), AttributeId::new(1), ValueId::new(2), 0.2);
        r.set_prediction(ObjectId::new(9), AttributeId::new(2), ValueId::new(3), 0.3);
        assert_eq!(
            r.attributes,
            vec![
                AttributeId::new(1),
                AttributeId::new(2),
                AttributeId::new(3)
            ]
        );
        assert!(r.stride >= 10);
        assert_eq!(r.len(), 3);
        assert_eq!(
            r.prediction(ObjectId::new(5), AttributeId::new(3)),
            Some(ValueId::new(1))
        );
        assert_eq!(
            r.prediction(ObjectId::new(1), AttributeId::new(1)),
            Some(ValueId::new(2))
        );
        assert_eq!(
            r.confidence(ObjectId::new(9), AttributeId::new(2)),
            Some(0.3)
        );
        assert_eq!(r.prediction(ObjectId::new(5), AttributeId::new(1)), None);
        assert_eq!(r.prediction(ObjectId::new(99), AttributeId::new(1)), None);
        assert_eq!(r.prediction(ObjectId::new(1), AttributeId::new(99)), None);
    }

    #[test]
    fn absorb_unions_disjoint_predictions() {
        let mut a = TruthResult::with_sources(2, 0.5);
        a.set_prediction(ObjectId::new(0), AttributeId::new(0), ValueId::new(1), 1.0);
        a.iterations = 3;
        let mut b = TruthResult::with_sources(2, 1.0);
        b.set_prediction(ObjectId::new(0), AttributeId::new(1), ValueId::new(2), 0.5);
        b.iterations = 5;
        a.absorb(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.iterations, 5);
        assert_eq!(a.source_trust, vec![0.75, 0.75]);
    }

    #[test]
    fn merge_all_averages_trust_symmetrically() {
        let mut parts = Vec::new();
        for (i, trust) in [0.2, 0.4, 0.9].iter().enumerate() {
            let mut p = TruthResult::with_sources(2, *trust);
            p.set_prediction(
                ObjectId::new(i as u32),
                AttributeId::new(0),
                ValueId::new(i as u32),
                1.0,
            );
            p.iterations = i as u32 + 1;
            parts.push(p);
        }
        let merged = TruthResult::merge_all(&parts);
        assert_eq!(merged.len(), 3);
        assert_eq!(merged.iterations, 3);
        // Plain mean of [0.2, 0.4, 0.9] — chained absorb would give the
        // last partial half the weight ((0.2/2 + 0.4/2)/2 + 0.9/2 = 0.6).
        for t in &merged.source_trust {
            assert!((t - 0.5).abs() < 1e-12, "expected 0.5, got {t}");
        }
    }

    #[test]
    fn merge_all_of_empty_slice_is_empty() {
        let merged = TruthResult::merge_all(&[]);
        assert!(merged.is_empty());
        assert!(merged.source_trust.is_empty());
        assert_eq!(merged.iterations, 0);
    }

    #[test]
    fn merge_all_skips_mismatched_trust_lengths() {
        let mut a = TruthResult::with_sources(2, 0.5);
        a.set_prediction(ObjectId::new(0), AttributeId::new(0), ValueId::new(1), 1.0);
        let mut b = TruthResult::with_sources(3, 1.0);
        b.set_prediction(ObjectId::new(0), AttributeId::new(1), ValueId::new(2), 0.5);
        let merged = TruthResult::merge_all(&[a, b]);
        assert_eq!(merged.len(), 2);
        assert_eq!(merged.source_trust, vec![0.5, 0.5]);
    }

    #[test]
    fn merge_all_of_single_partial_is_identity() {
        let mut p = TruthResult::with_sources(3, 0.7);
        p.set_prediction(ObjectId::new(0), AttributeId::new(0), ValueId::new(1), 0.9);
        p.set_prediction(ObjectId::new(1), AttributeId::new(2), ValueId::new(3), 0.4);
        p.iterations = 6;
        let merged = TruthResult::merge_all(std::slice::from_ref(&p));
        assert_eq!(merged.len(), p.len());
        for (o, a, v, c) in p.iter() {
            assert_eq!(merged.prediction(o, a), Some(v));
            assert_eq!(merged.confidence(o, a).map(f64::to_bits), Some(c.to_bits()));
        }
        assert_eq!(merged.source_trust, p.source_trust);
        assert_eq!(merged.iterations, 6);
    }

    #[test]
    fn merge_all_later_partial_wins_on_overlap() {
        // Partitions are disjoint in TD-AC, but the documented collision
        // semantics (later partial wins) must hold for robustness.
        let (o, a) = oa(0, 0);
        let mut first = TruthResult::with_sources(2, 0.5);
        first.set_prediction(o, a, ValueId::new(1), 0.9);
        first.set_prediction(ObjectId::new(1), AttributeId::new(0), ValueId::new(7), 0.3);
        let mut second = TruthResult::with_sources(2, 0.5);
        second.set_prediction(o, a, ValueId::new(2), 0.6);
        let merged = TruthResult::merge_all(&[first.clone(), second.clone()]);
        assert_eq!(merged.prediction(o, a), Some(ValueId::new(2)));
        assert_eq!(merged.confidence(o, a), Some(0.6));
        // The non-colliding cell survives from the earlier partial.
        assert_eq!(
            merged.prediction(ObjectId::new(1), AttributeId::new(0)),
            Some(ValueId::new(7))
        );
        assert_eq!(merged.len(), 2);
        // Swapping the order flips the winner.
        let flipped = TruthResult::merge_all(&[second, first]);
        assert_eq!(flipped.prediction(o, a), Some(ValueId::new(1)));
        assert_eq!(flipped.len(), 2);
    }

    #[test]
    fn merge_all_of_two_agrees_with_pairwise_absorb() {
        // With exactly two partials the symmetric mean and the chained
        // pairwise mean coincide — bitwise, since both compute (a+b)/2.
        let mut a = TruthResult::with_sources(3, 0.0);
        a.source_trust = vec![0.1, 0.625, 0.9375];
        a.set_prediction(ObjectId::new(0), AttributeId::new(0), ValueId::new(1), 0.75);
        a.iterations = 2;
        let mut b = TruthResult::with_sources(3, 0.0);
        b.source_trust = vec![0.3, 0.5, 0.0625];
        b.set_prediction(ObjectId::new(1), AttributeId::new(1), ValueId::new(2), 0.5);
        b.iterations = 7;
        let merged = TruthResult::merge_all(&[a.clone(), b.clone()]);
        let mut absorbed = a.clone();
        absorbed.absorb(&b);
        assert_eq!(merged.len(), absorbed.len());
        for (o, at, v, c) in merged.iter() {
            assert_eq!(absorbed.prediction(o, at), Some(v));
            assert_eq!(
                absorbed.confidence(o, at).map(f64::to_bits),
                Some(c.to_bits())
            );
        }
        let bits =
            |r: &TruthResult| -> Vec<u64> { r.source_trust.iter().map(|t| t.to_bits()).collect() };
        assert_eq!(bits(&merged), bits(&absorbed));
        assert_eq!(merged.iterations, absorbed.iterations);
    }

    #[test]
    fn merge_all_ignores_empty_partials_for_trust() {
        // A default (trustless) partial contributes predictions but must
        // not drag the trust mean toward zero.
        let mut with_trust = TruthResult::with_sources(2, 0.8);
        with_trust.set_prediction(ObjectId::new(0), AttributeId::new(0), ValueId::new(1), 1.0);
        let mut trustless = TruthResult::default();
        trustless.set_prediction(ObjectId::new(0), AttributeId::new(1), ValueId::new(2), 0.5);
        let merged = TruthResult::merge_all(&[with_trust, trustless]);
        assert_eq!(merged.len(), 2);
        assert_eq!(merged.source_trust, vec![0.8, 0.8]);
    }

    #[test]
    fn iter_yields_ascending_cells() {
        let mut r = TruthResult::with_sources(0, 0.0);
        for (o, a) in [(1, 2), (0, 3), (1, 0), (0, 2)] {
            r.set_prediction(
                ObjectId::new(o),
                AttributeId::new(a),
                ValueId::new(o + a),
                0.4,
            );
        }
        let cells: Vec<_> = r.iter().map(|(o, a, _, _)| (o.0, a.0)).collect();
        assert_eq!(cells, vec![(0, 2), (0, 3), (1, 0), (1, 2)]);
        assert_eq!(
            r.iter().next(),
            Some((ObjectId::new(0), AttributeId::new(2), ValueId::new(2), 0.4))
        );
    }
}
