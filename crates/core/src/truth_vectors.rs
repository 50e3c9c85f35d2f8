//! Attribute truth vectors — the paper's abstract representation of the
//! truth in the data (§3.1, Eq. 1).
//!
//! For a reference truth `v_F(a, o)` produced by a base algorithm, the
//! truth vector of attribute `a` has one coordinate per `(object,
//! source)` pair:
//!
//! ```text
//! x(a, o, s) = 1  if v(a, o, s) exists and equals v_F(a, o)
//!              0  otherwise
//! ```
//!
//! Two attributes end up with nearby truth vectors exactly when sources
//! perform equally well on them — i.e. when they are structurally
//! correlated — which is what lets plain k-means recover the hidden
//! attribute grouping.

use clustering::{BitMatrix, Matrix, Rows};
use td_algorithms::{TruthDiscovery, TruthResult};
use td_model::DatasetView;

/// The attribute truth vectors of Eq. 1 for callers outside the
/// pipeline that read dense rows: the packed matrix the pipeline keeps,
/// plus a dense copy unpacked from it.
///
/// Every coordinate is exactly 0 or 1, so the dense copy is the matrix
/// a dense scatter would have built, bit for bit. The pipeline itself
/// carries only the packed rows.
#[derive(Debug, Clone)]
pub struct TruthVectors {
    /// Dense Eq. 1 matrix (attributes × object-source pairs), unpacked
    /// from `packed`.
    pub dense: Matrix,
    /// The 0/1 rows packed into `u64` words.
    pub packed: BitMatrix,
}

impl TruthVectors {
    /// The packed rows, for representation-aware distance kernels.
    pub fn rows(&self) -> Rows<'_> {
        Rows::Packed(&self.packed)
    }
}

/// Sets bit `(row, object · n_sources + source)` for every claim that
/// matches `reference`, on the rows (attributes in `view.attributes()`
/// order) that `keep` selects (Eq. 1). When `bits` carries a validity
/// mask, every claimed coordinate is also marked observed — the
/// missing-aware variant's scatter.
pub(crate) fn scatter(
    bits: &mut BitMatrix,
    view: &DatasetView<'_>,
    reference: &TruthResult,
    keep: impl Fn(usize) -> bool,
) {
    let dataset = view.dataset();
    let n_sources = dataset.n_sources();
    let observe = bits.has_mask();
    for (row, &attribute) in view.attributes().iter().enumerate() {
        if !keep(row) {
            continue;
        }
        for cell in dataset.cells_of_attribute(attribute) {
            let truth = reference.prediction(cell.object, attribute);
            for claim in dataset.cell_claims(cell) {
                let col = cell.object.index() * n_sources + claim.source.index();
                if observe {
                    bits.set_observed(row, col);
                }
                if Some(claim.value) == truth {
                    bits.set_bit(row, col, true);
                }
            }
        }
    }
}

/// Rescatters the truth-vector rows of the `dirty` attributes against
/// `reference`, leaving every other row untouched bit-for-bit.
///
/// A dirty row is first cleared to all-zero, then rebuilt by the same
/// claim scatter as [`truth_vector_set_from_result`] — so a rescattered
/// row is *identical* to the row a from-scratch build would produce,
/// which is what lets the incremental session maintain the matrix
/// instead of rebuilding it. Dirty attributes outside the view are
/// ignored.
pub fn rescatter_rows(
    bits: &mut BitMatrix,
    view: &DatasetView<'_>,
    reference: &TruthResult,
    dirty: &[td_model::AttributeId],
) {
    let mut is_dirty = vec![false; view.dataset().n_attributes()];
    for a in dirty {
        is_dirty[a.index()] = true;
    }
    let dirty_row = |row: usize| is_dirty[view.attributes()[row].index()];
    for row in (0..view.attributes().len()).filter(|&row| dirty_row(row)) {
        bits.clear_row(row);
    }
    scatter(bits, view, reference, dirty_row);
}

/// Runs `base` on `view` and builds the packed truth-vector matrix: one
/// row per attribute of the view (in `view.attributes()` order), one
/// column per `(object, source)` pair (objects × sources of the parent
/// dataset, lexicographic). The reference base run is recorded against
/// `observer`; observation never changes the matrix or the reference.
pub(crate) fn truth_bits(
    base: &dyn TruthDiscovery,
    view: &DatasetView<'_>,
    observer: &td_obs::Observer,
) -> (BitMatrix, TruthResult) {
    let reference = base.discover_observed(view, observer);
    let bits = truth_bits_from_result(view, &reference);
    (bits, reference)
}

/// The packed truth-vector matrix against an already-computed reference
/// truth (Eq. 1 verbatim), in one scatter pass over the view's claims.
pub(crate) fn truth_bits_from_result(view: &DatasetView<'_>, reference: &TruthResult) -> BitMatrix {
    let dataset = view.dataset();
    let n_cols = dataset.n_objects() * dataset.n_sources();
    let mut bits = BitMatrix::zeros(view.attributes().len(), n_cols);
    scatter(&mut bits, view, reference, |_| true);
    bits
}

/// Runs `base` on `view` and returns the [`TruthVectors`] of its
/// reference truth together with that reference (so callers can reuse
/// it instead of re-running `F`). The reference base run is recorded
/// against `observer`.
pub fn truth_vector_set(
    base: &dyn TruthDiscovery,
    view: &DatasetView<'_>,
    observer: &td_obs::Observer,
) -> (TruthVectors, TruthResult) {
    let reference = base.discover_observed(view, observer);
    let vectors = truth_vector_set_from_result(view, &reference);
    (vectors, reference)
}

/// The [`TruthVectors`] against an already-computed reference truth
/// (useful for testing and for oracle variants where the reference is
/// the ground truth): one packed scatter, then the dense copy unpacked
/// from it.
pub fn truth_vector_set_from_result(
    view: &DatasetView<'_>,
    reference: &TruthResult,
) -> TruthVectors {
    let packed = truth_bits_from_result(view, reference);
    TruthVectors {
        dense: packed.to_dense(),
        packed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use td_algorithms::MajorityVote;
    use td_model::{Dataset, DatasetBuilder, Value};

    /// The paper's running example (Table 1): objects FB and CS, three
    /// questions, three sources.
    fn running_example() -> Dataset {
        let mut b = DatasetBuilder::new();
        let rows: &[(&str, &str, &str, Value)] = &[
            ("s1", "FB", "Q1", Value::text("Algeria")),
            ("s2", "FB", "Q1", Value::text("Senegal")),
            ("s3", "FB", "Q1", Value::text("Algeria")),
            ("s1", "FB", "Q2", Value::int(2000)),
            ("s2", "FB", "Q2", Value::int(2019)),
            ("s3", "FB", "Q2", Value::int(1994)),
            ("s1", "FB", "Q3", Value::int(12)),
            ("s2", "FB", "Q3", Value::int(11)),
            ("s3", "FB", "Q3", Value::int(12)),
            ("s1", "CS", "Q1", Value::text("Linus Torvalds")),
            ("s2", "CS", "Q1", Value::text("Bill Gates")),
            ("s3", "CS", "Q1", Value::text("Steve Jobs")),
            ("s1", "CS", "Q2", Value::int(1830)),
            ("s2", "CS", "Q2", Value::int(1991)),
            ("s3", "CS", "Q2", Value::int(1991)),
            ("s1", "CS", "Q3", Value::int(7)),
            ("s2", "CS", "Q3", Value::int(8)),
            ("s3", "CS", "Q3", Value::int(10)),
        ];
        for (s, o, a, v) in rows {
            b.claim(s, o, a, v.clone()).unwrap();
        }
        b.build()
    }

    fn vectors(view: &DatasetView<'_>) -> (TruthVectors, TruthResult) {
        truth_vector_set(&MajorityVote, view, &td_obs::Observer::disabled())
    }

    #[test]
    fn matrix_shape_is_attrs_by_object_source_pairs() {
        let d = running_example();
        let (tv, _) = vectors(&d.view_all());
        assert_eq!(tv.packed.n_rows(), 3); // Q1..Q3
        assert_eq!(tv.packed.n_cols(), 2 * 3); // 2 objects × 3 sources
    }

    #[test]
    fn entries_match_equation_one_with_majority_reference() {
        let d = running_example();
        let (tv, reference) = vectors(&d.view_all());
        // Majority on FB-Q1: Algeria (2 votes). s1 and s3 match.
        let fb = d.object_id("FB").unwrap();
        let q1 = d.attribute_id("Q1").unwrap();
        assert_eq!(
            reference.prediction(fb, q1),
            Some(d.value_id(&Value::text("Algeria")).unwrap())
        );
        let n_sources = d.n_sources();
        let s = |name: &str| d.source_id(name).unwrap().index();
        let bit = |src: usize| tv.packed.get_bit(q1.index(), fb.index() * n_sources + src);
        assert!(bit(s("s1")));
        assert!(!bit(s("s2")));
        assert!(bit(s("s3")));
    }

    #[test]
    fn missing_claims_are_zero() {
        let mut b = DatasetBuilder::new();
        b.claim("s1", "o", "a", Value::int(1)).unwrap();
        b.claim("s2", "o", "a", Value::int(1)).unwrap();
        b.source("absent");
        let d = b.build();
        let (tv, _) = vectors(&d.view_all());
        let absent = d.source_id("absent").unwrap();
        assert!(!tv.packed.get_bit(0, absent.index()), "no claim ⇒ 0 (Eq. 1)");
    }

    #[test]
    fn correlated_attributes_have_identical_rows() {
        // Two attributes answered identically by every source must yield
        // identical truth vectors.
        let mut b = DatasetBuilder::new();
        for o in ["o1", "o2"] {
            for (s, v) in [("s1", 1), ("s2", 1), ("s3", 9)] {
                b.claim(s, o, "a1", Value::int(v)).unwrap();
                b.claim(s, o, "a2", Value::int(v)).unwrap();
            }
        }
        let d = b.build();
        let (tv, _) = vectors(&d.view_all());
        assert_eq!(tv.packed.row_words(0), tv.packed.row_words(1));
    }

    #[test]
    fn view_restriction_shrinks_rows_not_columns() {
        let d = running_example();
        let q2 = d.attribute_id("Q2").unwrap();
        let (tv, _) = vectors(&d.view_of(&[q2]));
        assert_eq!(tv.packed.n_rows(), 1);
        assert_eq!(tv.packed.n_cols(), 6);
    }

    #[test]
    fn dense_copy_is_the_unpacked_bits() {
        let d = running_example();
        let (tv, reference) = vectors(&d.view_all());
        assert_eq!(tv.packed.to_dense(), tv.dense);
        assert_eq!(tv.packed, truth_bits_from_result(&d.view_all(), &reference));
        assert!(matches!(tv.rows(), Rows::Packed(_)));
        for v in tv.dense.as_slice() {
            assert!(*v == 0.0 || *v == 1.0);
        }
    }

    #[test]
    fn rescatter_matches_from_scratch_build() {
        let d = running_example();
        let view = d.view_all();
        let (tv, reference) = vectors(&view);
        let before = tv.packed;
        let mut bits = before.clone();

        // Rescattering every attribute against the same reference is a
        // no-op bit-for-bit.
        let all: Vec<_> = d.attribute_ids().collect();
        rescatter_rows(&mut bits, &view, &reference, &all);
        assert_eq!(bits, before);

        // Corrupt one row, then rescatter only that attribute: the row
        // comes back, the others were never touched.
        let q2 = d.attribute_id("Q2").unwrap();
        bits.set_bit(q2.index(), 0, !bits.get_bit(q2.index(), 0));
        rescatter_rows(&mut bits, &view, &reference, &[q2]);
        assert_eq!(bits, before);
    }
}
