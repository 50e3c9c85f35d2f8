//! Distance metrics over dense vectors, plus the shared pairwise
//! distance-matrix kernel every distance-based entry point builds on.
//!
//! The kernel is representation-aware: callers hand it [`Rows`] — a
//! dense [`Matrix`] or a packed [`BitMatrix`] — and on binary rows it
//! evaluates each pair through the metric's exact count form
//! ([`Metric::count_form`]) over XOR and row popcounts, falling back to
//! the dense `f64` loop for non-binary rows, for metrics without a count
//! form, and under [`KernelPolicy::Dense`]. The two paths are
//! bit-identical on binary rows (every sum of 0/1 terms is an exact
//! integer in `f64`); `docs/KERNELS.md` has the full dispatch table.

use std::borrow::Cow;

use rayon::prelude::*;

use crate::bitmatrix::{BitMatrix, KernelPolicy};
use crate::matrix::Matrix;

/// A metric restricted to 0/1 rows, as a function of three bit counts:
/// `differ`, the positions where the two rows disagree (the popcount of
/// their XOR), and `ones_a` / `ones_b`, the set bits of each row.
pub type CountForm = fn(differ: u64, ones_a: u64, ones_b: u64) -> f64;

/// A dissimilarity measure between two equal-length vectors.
///
/// Implementations must be symmetric and return `0` for identical
/// vectors; they need not satisfy the triangle inequality (cosine
/// distance does not). `Sync` is required so distance matrices can be
/// filled from worker threads; metrics are stateless in practice.
pub trait Metric: Sync {
    /// Distance between `a` and `b`.
    ///
    /// Callers guarantee `a.len() == b.len()`.
    fn distance(&self, a: &[f64], b: &[f64]) -> f64;

    /// Short name for reports and ablation tables.
    fn name(&self) -> &'static str;

    /// This metric on 0/1 vectors, computed from bit counts. When
    /// `Some`, the form must return exactly the bits [`Metric::distance`]
    /// returns on every pair of 0/1 vectors — the condition under which
    /// the packed kernels may replace the dense loop. Defaults to `None`
    /// (always the dense loop).
    fn count_form(&self) -> Option<CountForm> {
        None
    }
}

/// The count form of every metric that sums per-coordinate disagreement
/// terms: on 0/1 entries `|x − y|` and `(x − y)²` are the disagreement
/// indicator, and a sequential `f64` sum of such terms is the exact
/// integer count.
fn disagreements(differ: u64, _: u64, _: u64) -> f64 {
    differ as f64
}

/// Euclidean (L2) distance — what k-means centroids minimize.
#[derive(Debug, Clone, Copy, Default)]
pub struct Euclidean;

/// Squared Euclidean distance — the inertia term of the paper's Eq. 3.
#[derive(Debug, Clone, Copy, Default)]
pub struct SqEuclidean;

/// Manhattan (L1) distance.
#[derive(Debug, Clone, Copy, Default)]
pub struct Manhattan;

/// Hamming distance, `Σ |a_i - b_i|` — the paper's Eq. 2 similarity
/// between attribute truth vectors. On 0/1 vectors this counts
/// disagreeing positions; on fractional vectors it degrades gracefully to
/// L1 (which is why the paper can use it interchangeably with k-means
/// geometry).
#[derive(Debug, Clone, Copy, Default)]
pub struct Hamming;

/// Cosine distance, `1 - cos(a, b)`; two zero vectors are at distance 0.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cosine;

impl Metric for Euclidean {
    fn distance(&self, a: &[f64], b: &[f64]) -> f64 {
        SqEuclidean.distance(a, b).sqrt()
    }

    fn name(&self) -> &'static str {
        "euclidean"
    }

    fn count_form(&self) -> Option<CountForm> {
        Some(|differ, _, _| (differ as f64).sqrt())
    }
}

impl Metric for SqEuclidean {
    fn distance(&self, a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), b.len());
        // Folded from +0.0: `Iterator::sum` starts at −0.0, which an
        // empty (zero-width) pair would return.
        a.iter().zip(b).fold(0.0, |acc, (&x, &y)| {
            let d = x - y;
            acc + d * d
        })
    }

    fn name(&self) -> &'static str {
        "sq-euclidean"
    }

    fn count_form(&self) -> Option<CountForm> {
        Some(disagreements)
    }
}

impl Metric for Manhattan {
    fn distance(&self, a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), b.len());
        // Folded from +0.0 for the same reason as `SqEuclidean`.
        a.iter()
            .zip(b)
            .fold(0.0, |acc, (&x, &y)| acc + (x - y).abs())
    }

    fn name(&self) -> &'static str {
        "manhattan"
    }

    fn count_form(&self) -> Option<CountForm> {
        Some(disagreements)
    }
}

impl Metric for Hamming {
    fn distance(&self, a: &[f64], b: &[f64]) -> f64 {
        // Identical to L1 on arbitrary reals; exact disagreement count on
        // the 0/1 vectors the paper builds.
        Manhattan.distance(a, b)
    }

    fn name(&self) -> &'static str {
        "hamming"
    }

    fn count_form(&self) -> Option<CountForm> {
        Some(disagreements)
    }
}

impl Metric for Cosine {
    fn distance(&self, a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), b.len());
        let (mut dot, mut na, mut nb) = (0.0, 0.0, 0.0);
        for (&x, &y) in a.iter().zip(b) {
            dot += x * y;
            na += x * x;
            nb += y * y;
        }
        cosine_from_sums(dot, na, nb)
    }

    fn name(&self) -> &'static str {
        "cosine"
    }

    fn count_form(&self) -> Option<CountForm> {
        // On 0/1 rows the three sums are exact integers: `na` and `nb`
        // are the row popcounts and `dot = |a ∧ b| = (|a| + |b| − |a ⊕ b|) / 2`.
        Some(|differ, ones_a, ones_b| {
            let dot = (ones_a + ones_b - differ) / 2;
            cosine_from_sums(dot as f64, ones_a as f64, ones_b as f64)
        })
    }
}

/// `1 − dot / (‖a‖·‖b‖)` from the three sums, clamped at 0; a zero
/// vector is at distance 0 from another zero vector and 1 from anything
/// else.
fn cosine_from_sums(dot: f64, na: f64, nb: f64) -> f64 {
    if na == 0.0 && nb == 0.0 {
        return 0.0;
    }
    if na == 0.0 || nb == 0.0 {
        return 1.0;
    }
    (1.0 - dot / (na.sqrt() * nb.sqrt())).max(0.0)
}

/// The observation rows a distance computation runs over, in whichever
/// representation the caller holds.
///
/// `&Matrix` and `&BitMatrix` both convert via `Into`, so call sites
/// read `pairwise_distances(&matrix, …)` or `pairwise_distances(&bits, …)`.
#[derive(Clone, Copy)]
pub enum Rows<'a> {
    /// Dense `f64` rows; packed on the fly when they are binary and the
    /// pass takes the count form.
    Dense(&'a Matrix),
    /// Packed 0/1 rows; densified (via [`BitMatrix::to_dense`]) only when
    /// the pass needs the dense loop.
    Packed(&'a BitMatrix),
}

impl Rows<'_> {
    /// Number of observation rows.
    pub fn n_rows(&self) -> usize {
        match self {
            Rows::Dense(m) => m.n_rows(),
            Rows::Packed(b) => b.n_rows(),
        }
    }

    /// Number of columns (dimensions).
    pub fn n_cols(&self) -> usize {
        match self {
            Rows::Dense(m) => m.n_cols(),
            Rows::Packed(b) => b.n_cols(),
        }
    }
}

/// How one distance pass evaluates a pair of rows: the metric's count
/// form over packed rows, or the metric itself over dense rows. Both
/// give the same bits on binary rows, so the choice only decides speed.
pub(crate) enum PairKernel<'a> {
    /// Packed rows with their popcounts, scored by the count form.
    Counts {
        bits: Cow<'a, BitMatrix>,
        ones: Vec<u64>,
        form: CountForm,
    },
    /// Dense rows, scored by [`Metric::distance`].
    Dense {
        rows: Cow<'a, Matrix>,
        metric: &'a dyn Metric,
    },
}

impl<'a> PairKernel<'a> {
    /// The dispatch rule every distance pass shares: binary rows take
    /// the metric's count form unless `kernel` pins
    /// [`KernelPolicy::Dense`]; everything else runs the dense loop.
    pub(crate) fn new(rows: Rows<'a>, metric: &'a dyn Metric, kernel: KernelPolicy) -> Self {
        let Some(form) = metric
            .count_form()
            .filter(|_| kernel != KernelPolicy::Dense)
        else {
            return Self::dense(rows, metric);
        };
        let bits = match rows {
            Rows::Packed(b) => Cow::Borrowed(b),
            Rows::Dense(m) => match BitMatrix::pack(m) {
                Some(b) => Cow::Owned(b),
                None => return Self::dense(rows, metric),
            },
        };
        let ones = (0..bits.n_rows())
            .map(|i| {
                bits.row_words(i)
                    .iter()
                    .map(|w| u64::from(w.count_ones()))
                    .sum()
            })
            .collect();
        PairKernel::Counts { bits, ones, form }
    }

    /// The dense loop over `rows`, densifying packed ones.
    pub(crate) fn dense(rows: Rows<'a>, metric: &'a dyn Metric) -> Self {
        let rows = match rows {
            Rows::Dense(m) => Cow::Borrowed(m),
            Rows::Packed(b) => Cow::Owned(b.to_dense()),
        };
        PairKernel::Dense { rows, metric }
    }

    /// Distance between rows `i` and `j`.
    #[inline]
    pub(crate) fn distance(&self, i: usize, j: usize) -> f64 {
        match self {
            PairKernel::Counts { bits, ones, form } => form(bits.hamming(i, j), ones[i], ones[j]),
            PairKernel::Dense { rows, metric } => metric.distance(rows.row(i), rows.row(j)),
        }
    }

    /// Bumps [`td_obs::Counter::DistanceEvals`] by the `evaluated`
    /// pairs, plus the packed-kernel counters when the count form ran —
    /// one aggregate increment per pass, never in the hot loop.
    fn record(&self, observer: &td_obs::Observer, evaluated: u64) {
        observer.incr(td_obs::Counter::DistanceEvals, evaluated);
        if let PairKernel::Counts { bits, .. } = self {
            observer.incr(td_obs::Counter::PackedKernelInvocations, 1);
            observer.incr(
                td_obs::Counter::WordsXored,
                evaluated * bits.words_per_row() as u64,
            );
        }
    }
}

impl<'a> From<&'a Matrix> for Rows<'a> {
    fn from(m: &'a Matrix) -> Self {
        Rows::Dense(m)
    }
}

impl<'a> From<&'a BitMatrix> for Rows<'a> {
    fn from(b: &'a BitMatrix) -> Self {
        Rows::Packed(b)
    }
}

/// Options for a pairwise distance-matrix build, mirroring
/// `TdacConfig::builder()` in shape: a plain struct with public fields,
/// a `Default` that matches the bare [`pairwise_distances`] call, and an
/// infallible builder.
///
/// ```
/// use tdac_clustering::{DistanceOptions, Hamming, KernelPolicy, Matrix};
///
/// let data = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 1.0]]);
/// let opts = DistanceOptions::builder()
///     .kernel(KernelPolicy::Packed)
///     .build();
/// let dist = opts.pairwise(&data, &Hamming);
/// assert_eq!(dist, vec![0.0, 1.0, 1.0, 0.0]);
/// ```
#[derive(Clone, Default)]
pub struct DistanceOptions {
    /// Which kernel the build may use (default [`KernelPolicy::Auto`]).
    pub kernel: KernelPolicy,
    /// Instrumentation sink (default disabled).
    pub observer: td_obs::Observer,
}

impl DistanceOptions {
    /// Starts a builder with the defaults of [`DistanceOptions::default`].
    pub fn builder() -> DistanceOptionsBuilder {
        DistanceOptionsBuilder {
            opts: Self::default(),
        }
    }

    /// Builds the pairwise distance matrix under these options; see
    /// [`pairwise_distances`] for the output contract.
    pub fn pairwise<'a>(&self, data: impl Into<Rows<'a>>, metric: &dyn Metric) -> Vec<f64> {
        pairwise_impl(data.into(), metric, self.kernel, &self.observer)
    }

    /// Incrementally updates a pairwise distance matrix after some rows
    /// changed and/or rows were appended.
    ///
    /// `old` is the previous `old_n × old_n` matrix over the first
    /// `old_n` rows of `data`; `dirty` lists the rows among those whose
    /// content changed (rows `old_n..n` are implicitly dirty). Pairs
    /// with both endpoints clean are **copied bit-for-bit** from `old`;
    /// every pair touching a dirty row is re-evaluated with exactly the
    /// per-pair kernel [`DistanceOptions::pairwise`] would use, so the
    /// result is bit-identical to a full rebuild — *provided* clean
    /// rows are unchanged up to appended all-zero columns (trailing
    /// `(0, 0)` coordinate pairs contribute exact `+0.0` terms to every
    /// metric in this crate, which leaves sequentially accumulated
    /// distances bit-identical on the 0/1 truth-vector data TD-AC
    /// feeds it).
    ///
    /// Instrumentation mirrors a fresh build restricted to the work
    /// actually done: `DistanceEvals` counts only re-evaluated pairs,
    /// and the packed counters fire only when the packed kernel ran.
    pub fn update_pairwise<'a>(
        &self,
        old: &[f64],
        old_n: usize,
        data: impl Into<Rows<'a>>,
        metric: &dyn Metric,
        dirty: &[usize],
    ) -> Vec<f64> {
        update_pairwise_impl(
            old,
            old_n,
            data.into(),
            metric,
            self.kernel,
            &self.observer,
            dirty,
        )
    }
}

/// Builder for [`DistanceOptions`]; every field has a default, so
/// `build()` cannot fail.
#[derive(Clone, Default)]
pub struct DistanceOptionsBuilder {
    opts: DistanceOptions,
}

impl DistanceOptionsBuilder {
    /// Sets the kernel policy.
    #[must_use]
    pub fn kernel(mut self, kernel: KernelPolicy) -> Self {
        self.opts.kernel = kernel;
        self
    }

    /// Sets the observer.
    #[must_use]
    pub fn observer(mut self, observer: td_obs::Observer) -> Self {
        self.opts.observer = observer;
        self
    }

    /// Finishes the build.
    pub fn build(self) -> DistanceOptions {
        self.opts
    }
}

/// The full pairwise distance matrix over `data`'s rows, row-major
/// `n×n` with a zero diagonal.
///
/// The upper triangle is computed in parallel (one strip of
/// `dist(i, i+1..n)` per row) and mirrored, so every entry is evaluated
/// exactly once and the result is bit-identical at any thread count.
/// This is the shared cache the TD-AC k-sweep, PAM and hierarchical
/// clustering all reuse instead of recomputing `O(n²·d)` distances.
///
/// Under the default [`KernelPolicy::Auto`] binary rows (packed, or
/// dense rows that pack) are scored through `metric.count_form()`; the
/// result is bit-identical to the dense path either way.
/// Instrumentation: bumps [`td_obs::Counter::DistanceEvals`] by the
/// `n·(n−1)/2` upper-triangle entries, plus
/// [`td_obs::Counter::PackedKernelInvocations`] /
/// [`td_obs::Counter::WordsXored`] when the count form ran — one
/// aggregate increment per build, never in the hot loop. Use
/// [`DistanceOptions`] to pin the kernel explicitly.
pub fn pairwise_distances<'a>(
    data: impl Into<Rows<'a>>,
    metric: &dyn Metric,
    observer: &td_obs::Observer,
) -> Vec<f64> {
    pairwise_impl(data.into(), metric, KernelPolicy::Auto, observer)
}

/// Mirrors parallel upper-triangle strips into a row-major `n×n`
/// symmetric matrix with a zero diagonal.
fn mirror_strips(strips: Vec<Vec<f64>>, n: usize) -> Vec<f64> {
    let mut dist = vec![0.0f64; n * n];
    for (i, strip) in strips.iter().enumerate() {
        for (off, &d) in strip.iter().enumerate() {
            let j = i + 1 + off;
            dist[i * n + j] = d;
            dist[j * n + i] = d;
        }
    }
    dist
}

fn pairwise_impl(
    rows: Rows<'_>,
    metric: &dyn Metric,
    kernel: KernelPolicy,
    observer: &td_obs::Observer,
) -> Vec<f64> {
    let n = rows.n_rows();
    if n < 2 {
        // Nothing to evaluate: no counter traffic, no kernel choice.
        return vec![0.0; n * n];
    }
    let pairs = (n as u64) * (n as u64 - 1) / 2;
    let kernel = PairKernel::new(rows, metric, kernel);
    let strips: Vec<Vec<f64>> = (0..n)
        .into_par_iter()
        .map(|i| ((i + 1)..n).map(|j| kernel.distance(i, j)).collect())
        .collect();
    kernel.record(observer, pairs);
    mirror_strips(strips, n)
}

fn update_pairwise_impl(
    old: &[f64],
    old_n: usize,
    rows: Rows<'_>,
    metric: &dyn Metric,
    kernel: KernelPolicy,
    observer: &td_obs::Observer,
    dirty: &[usize],
) -> Vec<f64> {
    let n = rows.n_rows();
    assert!(n >= old_n, "rows cannot shrink: {n} < {old_n}");
    assert_eq!(old.len(), old_n * old_n, "old matrix shape mismatch");
    if n < 2 {
        return vec![0.0; n * n];
    }
    let mut is_dirty = vec![false; n];
    for &i in dirty {
        assert!(i < n, "dirty row {i} out of range");
        is_dirty[i] = true;
    }
    for flag in &mut is_dirty[old_n..] {
        *flag = true;
    }

    // Clean-pair entries carry over bit-for-bit; dirty entries in the
    // copied block are overwritten below.
    let mut dist = vec![0.0f64; n * n];
    for i in 0..old_n {
        dist[i * n..i * n + old_n].copy_from_slice(&old[i * old_n..(i + 1) * old_n]);
    }

    // Re-evaluate each dirty pair with the same per-pair kernel a fresh
    // build would pick (see `pairwise_impl`).
    let kernel = PairKernel::new(rows, metric, kernel);
    let strips: Vec<Vec<(usize, f64)>> = (0..n)
        .into_par_iter()
        .map(|i| {
            ((i + 1)..n)
                .filter(|&j| is_dirty[i] || is_dirty[j])
                .map(|j| (j, kernel.distance(i, j)))
                .collect()
        })
        .collect();
    let recomputed: u64 = strips.iter().map(|s| s.len() as u64).sum();
    for (i, strip) in strips.iter().enumerate() {
        for &(j, d) in strip {
            dist[i * n + j] = d;
            dist[j * n + i] = d;
        }
    }
    if recomputed > 0 {
        kernel.record(observer, recomputed);
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use td_obs::Observer;

    const A: [f64; 3] = [1.0, 0.0, 1.0];
    const B: [f64; 3] = [0.0, 0.0, 1.0];

    fn disabled() -> Observer {
        Observer::disabled()
    }

    /// Every metric this module defines; all of them have a count form.
    fn all_metrics() -> [&'static dyn Metric; 5] {
        [&Hamming, &Manhattan, &SqEuclidean, &Euclidean, &Cosine]
    }

    /// A metric with no count form, so every pass over it runs the
    /// dense loop.
    struct Chebyshev;

    impl Metric for Chebyshev {
        fn distance(&self, a: &[f64], b: &[f64]) -> f64 {
            a.iter()
                .zip(b)
                .fold(0.0, |m, (&x, &y)| f64::max(m, (x - y).abs()))
        }

        fn name(&self) -> &'static str {
            "chebyshev"
        }
    }

    #[test]
    fn euclidean_cases() {
        assert_eq!(Euclidean.distance(&A, &A), 0.0);
        assert_eq!(Euclidean.distance(&A, &B), 1.0);
        assert_eq!(Euclidean.distance(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
    }

    #[test]
    fn sq_euclidean_is_square() {
        assert_eq!(SqEuclidean.distance(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
    }

    #[test]
    fn hamming_counts_disagreements_on_binary() {
        assert_eq!(Hamming.distance(&A, &B), 1.0);
        assert_eq!(Hamming.distance(&[1.0, 1.0, 0.0], &[0.0, 0.0, 1.0]), 3.0);
        assert_eq!(Hamming.distance(&A, &A), 0.0);
    }

    #[test]
    fn manhattan_on_reals() {
        assert_eq!(Manhattan.distance(&[1.5, -1.0], &[0.5, 1.0]), 3.0);
    }

    #[test]
    fn cosine_cases() {
        assert!(Cosine.distance(&[1.0, 0.0], &[2.0, 0.0]).abs() < 1e-12);
        assert!((Cosine.distance(&[1.0, 0.0], &[0.0, 1.0]) - 1.0).abs() < 1e-12);
        assert_eq!(Cosine.distance(&[0.0], &[0.0]), 0.0);
        assert_eq!(Cosine.distance(&[0.0], &[1.0]), 1.0);
    }

    #[test]
    fn count_forms_equal_the_dense_distance_on_binary_vectors() {
        assert!(Chebyshev.count_form().is_none(), "count forms are opt-in");
        // Every pair of 0/1 vectors up to width 5, the empty pair included.
        for metric in all_metrics() {
            let form = metric.count_form().expect("built-in metrics count bits");
            for width in 0..=5usize {
                let vectors: Vec<Vec<f64>> = (0..1u32 << width)
                    .map(|bits| (0..width).map(|c| f64::from(bits >> c & 1)).collect())
                    .collect();
                let ones = |v: &[f64]| v.iter().filter(|&&x| x == 1.0).count() as u64;
                for a in &vectors {
                    for b in &vectors {
                        let differ = a.iter().zip(b).filter(|(x, y)| x != y).count() as u64;
                        assert_eq!(
                            form(differ, ones(a), ones(b)).to_bits(),
                            metric.distance(a, b).to_bits(),
                            "{} on {a:?} vs {b:?}",
                            metric.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn pairwise_distances_matches_direct_evaluation() {
        let data = Matrix::from_rows(&[
            vec![0.0, 1.0],
            vec![1.0, 1.0],
            vec![3.0, -2.0],
            vec![0.5, 0.5],
            vec![-1.0, 4.0],
        ]);
        let n = data.n_rows();
        for metric in [&Euclidean as &dyn Metric, &Hamming, &Cosine] {
            let dist = pairwise_distances(&data, metric, &disabled());
            assert_eq!(dist.len(), n * n);
            for i in 0..n {
                // The diagonal is pinned to exactly 0 by construction
                // (cosine's sqrt rounding can make distance(x, x) ≈ 1e-16).
                assert_eq!(dist[i * n + i], 0.0);
                for j in 0..n {
                    if i != j {
                        assert_eq!(
                            dist[i * n + j],
                            metric.distance(data.row(i.min(j)), data.row(i.max(j))),
                            "{} ({i},{j})",
                            metric.name()
                        );
                    }
                    assert_eq!(dist[i * n + j], dist[j * n + i]);
                }
            }
        }
    }

    #[test]
    fn pairwise_distances_of_empty_matrix() {
        assert!(pairwise_distances(&Matrix::from_rows(&[]), &Euclidean, &disabled()).is_empty());
    }

    #[test]
    fn tiny_inputs_skip_counter_traffic() {
        // Regression: the old code bumped DistanceEvals by
        // n·(n−1)/2 even for n ∈ {0, 1}, surviving only thanks to
        // saturating_sub. The early return must leave all counters at 0.
        for rows in [0usize, 1] {
            let observer = Observer::enabled();
            let data = Matrix::zeros(rows, 4);
            let dist = pairwise_distances(&data, &Hamming, &observer);
            assert_eq!(dist.len(), rows * rows);
            let profile = observer.profile().unwrap();
            assert_eq!(profile.counter("distance_evals"), Some(0), "n = {rows}");
            assert_eq!(profile.counter("packed_kernel_invocations"), Some(0));
            assert_eq!(profile.counter("words_xored"), Some(0));
        }
    }

    #[test]
    fn packed_and_dense_kernels_are_bit_identical_on_binary_data() {
        let mut rows: Vec<Vec<f64>> = (0..12)
            .map(|r| (0..130).map(|c| f64::from(u8::from((r * 7 + c * 3) % 5 < 2))).collect())
            .collect();
        // All-zero rows reach cosine's zero-vector branches.
        rows.extend([vec![0.0; 130], vec![0.0; 130]]);
        // Zero-width rows: every distance is an empty sum, which must be +0.0.
        for data in [Matrix::from_rows(&rows), Matrix::zeros(3, 0)] {
            for metric in all_metrics() {
                let under = |kernel| {
                    DistanceOptions::builder()
                        .kernel(kernel)
                        .build()
                        .pairwise(&data, metric)
                };
                let (dense, packed) = (under(KernelPolicy::Dense), under(KernelPolicy::Packed));
                let auto = pairwise_distances(&data, metric, &disabled());
                assert_eq!(dense.len(), packed.len());
                for (i, (d, p)) in dense.iter().zip(&packed).enumerate() {
                    assert_eq!(d.to_bits(), p.to_bits(), "{} entry {i}", metric.name());
                }
                assert_eq!(packed, auto, "Auto picks the packed kernel on this input");
            }
        }
    }

    #[test]
    fn packed_kernel_counters_fire_only_on_the_packed_path() {
        let data = Matrix::from_rows(&[
            vec![0.0, 1.0, 1.0],
            vec![1.0, 0.0, 1.0],
            vec![1.0, 1.0, 0.0],
            vec![0.0, 0.0, 0.0],
        ]);
        for metric in all_metrics() {
            let packed_obs = Observer::enabled();
            pairwise_distances(&data, metric, &packed_obs);
            let p = packed_obs.profile().unwrap();
            assert_eq!(p.counter("distance_evals"), Some(6), "{}", metric.name());
            assert_eq!(
                p.counter("packed_kernel_invocations"),
                Some(1),
                "{}",
                metric.name()
            );
            // 3 columns → 1 word per row, 6 pairs.
            assert_eq!(p.counter("words_xored"), Some(6), "{}", metric.name());
        }

        let dense_obs = Observer::enabled();
        DistanceOptions::builder()
            .kernel(KernelPolicy::Dense)
            .observer(dense_obs.clone())
            .build()
            .pairwise(&data, &Hamming);
        let d = dense_obs.profile().unwrap();
        assert_eq!(d.counter("distance_evals"), Some(6));
        assert_eq!(d.counter("packed_kernel_invocations"), Some(0));
        assert_eq!(d.counter("words_xored"), Some(0));
    }

    #[test]
    fn non_binary_data_falls_back_to_dense_under_any_policy() {
        let data = Matrix::from_rows(&[vec![0.5, 1.0], vec![1.0, 0.0], vec![0.0, 0.25]]);
        let observer = Observer::enabled();
        let dist = DistanceOptions::builder()
            .kernel(KernelPolicy::Packed)
            .observer(observer.clone())
            .build()
            .pairwise(&data, &Hamming);
        let reference = DistanceOptions::builder()
            .kernel(KernelPolicy::Dense)
            .build()
            .pairwise(&data, &Hamming);
        assert_eq!(dist, reference);
        let p = observer.profile().unwrap();
        assert_eq!(p.counter("packed_kernel_invocations"), Some(0), "nothing to pack");
        assert_eq!(p.counter("distance_evals"), Some(3));
    }

    #[test]
    fn packed_rows_densify_for_metrics_without_a_count_form() {
        let data = Matrix::from_rows(&[vec![1.0, 0.0, 1.0], vec![0.0, 1.0, 1.0]]);
        let bits = BitMatrix::pack(&data).unwrap();
        let observer = Observer::enabled();
        let via_packed = pairwise_distances(&bits, &Chebyshev, &observer);
        let via_dense = pairwise_distances(&data, &Chebyshev, &disabled());
        assert_eq!(via_packed, via_dense);
        let p = observer.profile().unwrap();
        assert_eq!(p.counter("packed_kernel_invocations"), Some(0));
    }

    #[test]
    fn update_pairwise_matches_full_rebuild_bitwise() {
        // Start with 5 binary rows, mutate row 1, append two rows and
        // three columns: the updated matrix must equal a fresh build
        // bit-for-bit under both kernels.
        let base: Vec<Vec<f64>> = (0..5)
            .map(|r| (0..66).map(|c| f64::from(u8::from((r * 5 + c) % 3 == 0))).collect())
            .collect();
        let old = Matrix::from_rows(&base);
        for kernel in [KernelPolicy::Dense, KernelPolicy::Packed, KernelPolicy::Auto] {
            let opts = DistanceOptions::builder().kernel(kernel).build();
            let before = opts.pairwise(&old, &Hamming);
            let mut grown: Vec<Vec<f64>> =
                base.iter().map(|r| [r.clone(), vec![0.0; 3]].concat()).collect();
            grown[1][7] = 1.0 - grown[1][7];
            grown[1][65] = 1.0 - grown[1][65];
            grown.push((0..69).map(|c| f64::from(u8::from(c % 4 == 0))).collect());
            grown.push(vec![0.0; 69]);
            let new = Matrix::from_rows(&grown);
            let updated = opts.update_pairwise(&before, 5, &new, &Hamming, &[1]);
            let fresh = opts.pairwise(&new, &Hamming);
            assert_eq!(updated.len(), fresh.len());
            for (i, (u, f)) in updated.iter().zip(&fresh).enumerate() {
                assert_eq!(u.to_bits(), f.to_bits(), "kernel {kernel:?} entry {i}");
            }
        }
    }

    #[test]
    fn update_pairwise_counts_only_dirty_pairs() {
        let rows: Vec<Vec<f64>> = (0..6)
            .map(|r| (0..10).map(|c| f64::from(u8::from((r + c) % 2 == 0))).collect())
            .collect();
        let data = Matrix::from_rows(&rows);
        let full = pairwise_distances(&data, &Hamming, &disabled());
        let observer = Observer::enabled();
        let opts = DistanceOptions::builder().observer(observer.clone()).build();
        // One dirty row among six: 5 pairs touch it.
        let updated = opts.update_pairwise(&full, 6, &data, &Hamming, &[2]);
        assert_eq!(updated, full);
        let p = observer.profile().unwrap();
        assert_eq!(p.counter("distance_evals"), Some(5));
        assert_eq!(p.counter("packed_kernel_invocations"), Some(1));

        // No dirty rows at all: zero counter traffic.
        let quiet = Observer::enabled();
        let opts = DistanceOptions::builder().observer(quiet.clone()).build();
        let updated = opts.update_pairwise(&full, 6, &data, &Hamming, &[]);
        assert_eq!(updated, full);
        assert_eq!(quiet.profile().unwrap().counter("distance_evals"), Some(0));
    }

    #[test]
    fn all_metrics_are_symmetric_and_reflexive() {
        let metrics: Vec<Box<dyn Metric>> = vec![
            Box::new(Euclidean),
            Box::new(SqEuclidean),
            Box::new(Manhattan),
            Box::new(Hamming),
            Box::new(Cosine),
        ];
        let x = [0.3, 1.7, -2.0];
        let y = [1.0, 0.0, 0.5];
        for m in &metrics {
            assert_eq!(m.distance(&x, &x), 0.0, "{}", m.name());
            assert!(
                (m.distance(&x, &y) - m.distance(&y, &x)).abs() < 1e-12,
                "{}",
                m.name()
            );
            assert!(m.distance(&x, &y) >= 0.0, "{}", m.name());
        }
    }
}
