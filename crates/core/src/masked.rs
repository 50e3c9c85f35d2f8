//! Missing-data-aware truth vectors — the paper's research perspective
//! (i): *"improve our approach to better account for data with lot of
//! missing values"*.
//!
//! Equation 1 maps *both* "source was wrong" and "source did not answer"
//! to `0`. On sparse data (Exam 124: DCR 36 %) that floods the truth
//! vectors with zeros that carry no reliability signal, which is exactly
//! the degradation the paper observes in Figure 5. The masked variant
//! keeps a parallel **observation mask** and compares attributes only on
//! coordinates both attributes were *observed* on:
//!
//! ```text
//! d_masked(a1, a2) = Σ_{i ∈ obs(a1) ∩ obs(a2)} |x1_i - x2_i| · L / |obs(a1) ∩ obs(a2)|
//! ```
//!
//! i.e. the Hamming disagreement rate over co-observed coordinates,
//! rescaled to the full vector length `L` so magnitudes stay comparable
//! with the unmasked distance. Attribute pairs with no co-observed
//! coordinate fall back to the neutral half-distance `L/2`.

use clustering::{BitMatrix, DistanceOptions, KernelPolicy};
use rayon::prelude::*;
use td_algorithms::{TruthDiscovery, TruthResult};
use td_model::DatasetView;

use crate::truth_vectors::scatter;

/// A truth-vector matrix plus its observation mask, packed into `u64`
/// words: one value strip and one validity strip per row, the form the
/// masked popcount kernel reads.
#[derive(Debug, Clone)]
pub struct MaskedTruthVectors {
    /// The Eq. 1 values (1 = matched reference truth, 0 otherwise), with
    /// a validity mask attached: 1 where the source actually answered
    /// the `(object, attribute)` cell, 0 where the coordinate is missing.
    pub packed: BitMatrix,
}

impl MaskedTruthVectors {
    /// Builds masked truth vectors from a base algorithm's reference
    /// truth (like [`crate::truth_vector_set`] but tracking
    /// observedness). The reference base run is recorded against
    /// `observer`; observation never changes the vectors or the
    /// reference.
    pub fn build(
        base: &dyn TruthDiscovery,
        view: &DatasetView<'_>,
        observer: &td_obs::Observer,
    ) -> (Self, TruthResult) {
        let reference = base.discover_observed(view, observer);
        let this = Self::from_result(view, &reference);
        (this, reference)
    }

    /// Builds against an existing reference truth.
    pub fn from_result(view: &DatasetView<'_>, reference: &TruthResult) -> Self {
        let dataset = view.dataset();
        let n_cols = dataset.n_objects() * dataset.n_sources();
        let mut packed = BitMatrix::zeros_masked(view.attributes().len(), n_cols);
        scatter(&mut packed, view, reference, |_| true);
        Self { packed }
    }

    /// Number of attributes (rows).
    pub fn n_attributes(&self) -> usize {
        self.packed.n_rows()
    }

    /// Fraction of observed coordinates in row `i`.
    pub fn observed_fraction(&self, i: usize) -> f64 {
        let cols = self.packed.n_cols();
        if cols == 0 {
            return 0.0;
        }
        let observed = (0..cols).filter(|&c| self.packed.is_observed(i, c)).count();
        observed as f64 / cols as f64
    }

    /// Masked Hamming distance between attribute rows `i` and `j` (see
    /// the module docs), read one coordinate at a time — the reference
    /// the packed kernel is checked against.
    pub fn masked_distance(&self, i: usize, j: usize) -> f64 {
        reference_distance(&self.packed, i, j)
    }

    /// Masked Hamming distance between rows `i` and `j` on the packed
    /// words: popcounts over `(values_i ^ values_j) & mask_i & mask_j`
    /// feed the exact formula of [`Self::masked_distance`], so the two
    /// paths are bit-identical (every intermediate is an exact small
    /// integer).
    pub fn masked_distance_packed(&self, i: usize, j: usize) -> f64 {
        packed_distance(&self.packed, i, j)
    }

    /// The full pairwise masked-distance matrix (row-major `n×n`). The
    /// upper triangle is computed in parallel (one strip per row) and
    /// mirrored — every entry evaluated exactly once, bit-identical at
    /// any thread count. Bumps [`td_obs::Counter::DistanceEvals`] by the
    /// `n·(n−1)/2` masked distances evaluated (plus the packed-kernel
    /// counters when that path ran); observation never changes the
    /// matrix. Dispatches to the packed popcount kernel under the
    /// default [`KernelPolicy::Auto`]; see
    /// [`MaskedTruthVectors::distance_matrix_with`] to pin a kernel.
    pub fn distance_matrix(&self, observer: &td_obs::Observer) -> Vec<f64> {
        distance_matrix(&self.packed, KernelPolicy::Auto, observer)
    }

    /// [`MaskedTruthVectors::distance_matrix`] under explicit
    /// [`DistanceOptions`] (kernel policy + observer).
    pub fn distance_matrix_with(&self, opts: &DistanceOptions) -> Vec<f64> {
        distance_matrix(&self.packed, opts.kernel, &opts.observer)
    }
}

/// The module-doc formula over the co-observed coordinates' counts.
fn rescaled(diff: f64, co: u64, len: usize) -> f64 {
    if co == 0 {
        return len as f64 / 2.0;
    }
    diff / co as f64 * len as f64
}

fn reference_distance(bits: &BitMatrix, i: usize, j: usize) -> f64 {
    let mut diff = 0.0;
    let mut co = 0u64;
    for c in 0..bits.n_cols() {
        if bits.is_observed(i, c) && bits.is_observed(j, c) {
            co += 1;
            diff += f64::from(u8::from(bits.get_bit(i, c) != bits.get_bit(j, c)));
        }
    }
    rescaled(diff, co, bits.n_cols())
}

fn packed_distance(bits: &BitMatrix, i: usize, j: usize) -> f64 {
    let (diff, co) = bits.masked_counts(i, j);
    rescaled(diff as f64, co, bits.n_cols())
}

/// [`MaskedTruthVectors::distance_matrix`] over a borrowed matrix
/// carrying a validity mask (a store page's, in the pipeline). Any
/// policy but [`KernelPolicy::Dense`] takes the packed popcount kernel.
///
/// # Panics
/// Panics if `bits` has no validity mask.
pub(crate) fn distance_matrix(
    bits: &BitMatrix,
    kernel: KernelPolicy,
    observer: &td_obs::Observer,
) -> Vec<f64> {
    let n = bits.n_rows();
    if n < 2 {
        // Nothing to evaluate: no counter traffic, no kernel choice.
        return vec![0.0; n * n];
    }
    let pairs = (n as u64) * (n as u64 - 1) / 2;
    let packed = kernel != KernelPolicy::Dense;
    observer.incr(td_obs::Counter::DistanceEvals, pairs);
    if packed {
        observer.incr(td_obs::Counter::PackedKernelInvocations, 1);
        observer.incr(
            td_obs::Counter::WordsXored,
            pairs * bits.words_per_row() as u64,
        );
    }
    let strips: Vec<Vec<f64>> = (0..n)
        .into_par_iter()
        .map(|i| {
            ((i + 1)..n)
                .map(|j| {
                    if packed {
                        packed_distance(bits, i, j)
                    } else {
                        reference_distance(bits, i, j)
                    }
                })
                .collect()
        })
        .collect();
    let mut d = vec![0.0; n * n];
    for (i, strip) in strips.iter().enumerate() {
        for (off, &v) in strip.iter().enumerate() {
            let j = i + 1 + off;
            d[i * n + j] = v;
            d[j * n + i] = v;
        }
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use td_algorithms::MajorityVote;
    use td_model::{DatasetBuilder, Value};

    /// Two attributes with identical reliability patterns on co-observed
    /// sources, but a2 is missing half its coordinates. Plain Eq. 1 sees
    /// them as distant; the masked distance sees them as identical.
    fn sparse_twins() -> td_model::Dataset {
        let mut b = DatasetBuilder::new();
        for o in 0..6 {
            let obj = format!("o{o}");
            // a1: everyone answers; s1, s2 right, s3 wrong.
            b.claim("s1", &obj, "a1", Value::int(o)).unwrap();
            b.claim("s2", &obj, "a1", Value::int(o)).unwrap();
            b.claim("s3", &obj, "a1", Value::int(99)).unwrap();
            // a2: identical behaviour, but only even objects are covered.
            if o % 2 == 0 {
                b.claim("s1", &obj, "a2", Value::int(o)).unwrap();
                b.claim("s2", &obj, "a2", Value::int(o)).unwrap();
                b.claim("s3", &obj, "a2", Value::int(99)).unwrap();
            }
            // a3: inverted reliabilities, fully covered.
            b.claim("s1", &obj, "a3", Value::int(77)).unwrap();
            b.claim("s2", &obj, "a3", Value::int(88)).unwrap();
            b.claim("s3", &obj, "a3", Value::int(o)).unwrap();
            b.claim("s4", &obj, "a3", Value::int(o)).unwrap();
        }
        b.build()
    }

    #[test]
    fn mask_marks_observed_coordinates() {
        let d = sparse_twins();
        let (mv, _) = MaskedTruthVectors::build(&MajorityVote, &d.view_all(), &td_obs::Observer::disabled());
        let a1 = d.attribute_id("a1").unwrap().index();
        let a2 = d.attribute_id("a2").unwrap().index();
        assert!(mv.observed_fraction(a1) > mv.observed_fraction(a2));
        assert!(mv.observed_fraction(a2) > 0.0);
    }

    #[test]
    fn masked_distance_ignores_unobserved_gap() {
        let d = sparse_twins();
        let (mv, _) = MaskedTruthVectors::build(&MajorityVote, &d.view_all(), &td_obs::Observer::disabled());
        let a1 = d.attribute_id("a1").unwrap().index();
        let a2 = d.attribute_id("a2").unwrap().index();
        let a3 = d.attribute_id("a3").unwrap().index();
        // a1 and a2 behave identically where co-observed.
        assert!(
            mv.masked_distance(a1, a2) < 1e-9,
            "identical co-observed behaviour ⇒ distance 0, got {}",
            mv.masked_distance(a1, a2)
        );
        // a1 and a3 disagree on the shared sources.
        assert!(mv.masked_distance(a1, a3) > 1.0);
    }

    #[test]
    fn distance_matrix_is_symmetric_with_zero_diagonal() {
        let d = sparse_twins();
        let (mv, _) = MaskedTruthVectors::build(&MajorityVote, &d.view_all(), &td_obs::Observer::disabled());
        let n = mv.n_attributes();
        let m = mv.distance_matrix(&td_obs::Observer::disabled());
        for i in 0..n {
            assert_eq!(m[i * n + i], 0.0);
            for j in 0..n {
                assert_eq!(m[i * n + j], m[j * n + i]);
            }
        }
    }

    #[test]
    fn disjoint_coverage_falls_back_to_neutral() {
        let mut b = DatasetBuilder::new();
        // a1 covered only by o0's claims, a2 only by o1's — no co-observed
        // coordinates.
        b.claim("s1", "o0", "a1", Value::int(1)).unwrap();
        b.claim("s1", "o1", "a2", Value::int(1)).unwrap();
        let d = b.build();
        let (mv, _) = MaskedTruthVectors::build(&MajorityVote, &d.view_all(), &td_obs::Observer::disabled());
        let len = d.n_objects() * d.n_sources();
        assert_eq!(mv.masked_distance(0, 1), len as f64 / 2.0);
    }

    #[test]
    fn packed_and_dense_masked_kernels_are_bit_identical() {
        let d = sparse_twins();
        let (mv, _) =
            MaskedTruthVectors::build(&MajorityVote, &d.view_all(), &td_obs::Observer::disabled());
        let n = mv.n_attributes();
        for i in 0..n {
            for j in 0..n {
                assert_eq!(
                    mv.masked_distance(i, j).to_bits(),
                    mv.masked_distance_packed(i, j).to_bits(),
                    "pair ({i}, {j})"
                );
            }
        }
        let dense = mv.distance_matrix_with(
            &DistanceOptions::builder().kernel(KernelPolicy::Dense).build(),
        );
        let packed = mv.distance_matrix_with(
            &DistanceOptions::builder().kernel(KernelPolicy::Packed).build(),
        );
        let auto = mv.distance_matrix(&td_obs::Observer::disabled());
        for (i, (a, b)) in dense.iter().zip(&packed).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "entry {i}");
        }
        assert_eq!(packed, auto, "Auto uses the packed kernel");
    }

    #[test]
    fn packed_kernel_counters_fire_on_the_masked_path() {
        let d = sparse_twins();
        let (mv, _) =
            MaskedTruthVectors::build(&MajorityVote, &d.view_all(), &td_obs::Observer::disabled());
        let observer = td_obs::Observer::enabled();
        mv.distance_matrix(&observer);
        let p = observer.profile().unwrap();
        let n = mv.n_attributes() as u64;
        assert_eq!(p.counter("distance_evals"), Some(n * (n - 1) / 2));
        assert_eq!(p.counter("packed_kernel_invocations"), Some(1));
        assert_eq!(
            p.counter("words_xored"),
            Some(n * (n - 1) / 2 * mv.packed.words_per_row() as u64)
        );
    }

    #[test]
    fn tiny_masked_inputs_skip_counter_traffic() {
        let mut b = DatasetBuilder::new();
        b.claim("s1", "o0", "a1", Value::int(1)).unwrap();
        let d = b.build();
        let (mv, _) =
            MaskedTruthVectors::build(&MajorityVote, &d.view_all(), &td_obs::Observer::disabled());
        assert_eq!(mv.n_attributes(), 1);
        let observer = td_obs::Observer::enabled();
        let dist = mv.distance_matrix(&observer);
        assert_eq!(dist, vec![0.0]);
        let p = observer.profile().unwrap();
        assert_eq!(p.counter("distance_evals"), Some(0));
        assert_eq!(p.counter("packed_kernel_invocations"), Some(0));
    }

    #[test]
    fn values_agree_with_unmasked_equation_one() {
        let d = sparse_twins();
        let (mv, reference) = MaskedTruthVectors::build(&MajorityVote, &d.view_all(), &td_obs::Observer::disabled());
        let plain = crate::truth_vectors::truth_bits_from_result(&d.view_all(), &reference);
        assert_eq!(mv.packed.words(), plain.words());
    }
}
