//! Lloyd's k-means with k-means++ initialization, seeded restarts and
//! empty-cluster repair — the optimizer behind TD-AC's Eq. 3.
//!
//! Two paths share the seeding and the restart fold: the dense `f64`
//! Lloyd loop, the reference and the path for non-binary data, and an
//! exact packed path for 0/1 rows that returns the dense loop's bits.
//! A [`KMeansSweep`] fits every k of a sweep over one set of rows and
//! shares the packed path's pair counts and seed draws across k values
//! and restarts; [`KMeans::fit_observed`] is a sweep of one k (see
//! `docs/KERNELS.md`).

use std::borrow::Cow;
use std::ops::Deref;

use rand::distributions::{Distribution, WeightedIndex};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use crate::bitmatrix::{and_count_words, BitMatrix, KernelPolicy, SlicedCounts, WORD_BITS};
use crate::distance::{DistanceOptions, Metric, Rows, SqEuclidean};
use crate::error::ClusterError;
use crate::matrix::Matrix;

/// Centroid initialization strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Init {
    /// D²-weighted seeding (Arthur & Vassilvitskii 2007) — the default.
    KMeansPlusPlus,
    /// Uniformly random distinct observations.
    Random,
}

/// Configuration of a [`KMeans`] run.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct KMeansConfig {
    /// Number of clusters.
    pub k: usize,
    /// Lloyd iteration cap per restart.
    pub max_iterations: u32,
    /// Stop when the inertia improvement falls below this value.
    pub tolerance: f64,
    /// Independent restarts; the lowest-inertia run wins.
    pub n_init: u32,
    /// Initialization strategy.
    pub init: Init,
    /// RNG seed — identical seeds give identical clusterings.
    pub seed: u64,
}

impl KMeansConfig {
    /// Defaults (aside from `k`, which has no sensible default):
    /// 100 iterations, tolerance `1e-9`, 10 restarts, k-means++, seed 42.
    pub fn with_k(k: usize) -> Self {
        Self {
            k,
            max_iterations: 100,
            tolerance: 1e-9,
            n_init: 10,
            init: Init::KMeansPlusPlus,
            seed: 42,
        }
    }
}

/// The outcome of a k-means fit.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KMeansResult {
    /// Cluster index of every observation.
    pub assignments: Vec<usize>,
    /// Final centroids, `k` rows.
    pub centroids: Matrix,
    /// Sum of squared distances of observations to their centroid
    /// (the paper's inertia objective, Eq. 3).
    pub inertia: f64,
    /// Lloyd iterations of the winning restart.
    pub iterations: u32,
}

impl KMeansResult {
    /// Observation indices grouped per cluster, preserving observation
    /// order inside each group.
    pub fn clusters(&self, k: usize) -> Vec<Vec<usize>> {
        let mut groups = vec![Vec::new(); k];
        for (i, &c) in self.assignments.iter().enumerate() {
            groups[c].push(i);
        }
        groups
    }
}

/// Lloyd's algorithm. See module docs.
#[derive(Debug, Clone, Copy)]
pub struct KMeans {
    config: KMeansConfig,
}

impl KMeans {
    /// A k-means instance with the given configuration.
    pub fn new(config: KMeansConfig) -> Self {
        Self { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &KMeansConfig {
        &self.config
    }

    /// Fits `k` clusters to the rows of `data` under the default
    /// [`DistanceOptions`]: binary rows are packed on the fly and take
    /// the exact packed path.
    pub fn fit(&self, data: &Matrix) -> Result<KMeansResult, ClusterError> {
        self.fit_observed(data, &DistanceOptions::default())
    }

    /// [`KMeans::fit`] over any [`Rows`] representation, with the kernel
    /// policy and observer of `opts`: a [`KMeansSweep`] of this one k
    /// (see [`KMeansSweep::new`] for the path it takes and
    /// [`KMeansSweep::fit`] for what it records).
    pub fn fit_observed<'a>(
        &self,
        data: impl Into<Rows<'a>>,
        opts: &DistanceOptions,
    ) -> Result<KMeansResult, ClusterError> {
        KMeansSweep::new(self.config, data, opts).fit(self.config.k)
    }

    /// Runs every restart. Restarts are independent (each derives its
    /// RNG from its restart index alone), so they run in parallel and
    /// come back in restart order.
    fn restarts<T: Send>(&self, run: impl Fn(&mut ChaCha8Rng) -> T + Sync) -> Vec<T> {
        (0..self.config.n_init.max(1) as usize)
            .into_par_iter()
            .map(|restart| run(&mut self.restart_rng(restart)))
            .collect()
    }

    /// The RNG of one restart, seeded from `(seed, restart)` alone.
    fn restart_rng(&self, restart: usize) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(
            self.config
                .seed
                .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(restart as u64 + 1)),
        )
    }

    /// The seed rows of one restart; `dist_from(c)` gives every row's
    /// squared distance to row `c`.
    fn seeds<R: Deref<Target = [f64]>>(
        &self,
        n: usize,
        rng: &mut ChaCha8Rng,
        dist_from: impl Fn(usize) -> R,
    ) -> Vec<usize> {
        match self.config.init {
            Init::KMeansPlusPlus => seeds_plus_plus(n, self.config.k, rng, dist_from),
            Init::Random => seeds_random(n, self.config.k, rng),
        }
    }

    /// One restart of the dense Lloyd loop — the reference every other
    /// path must reproduce bit for bit, and the path for non-binary data.
    fn single_run(&self, data: &Matrix, rng: &mut ChaCha8Rng) -> KMeansResult {
        let (n, d, k) = (data.n_rows(), data.n_cols(), self.config.k);
        let metric = SqEuclidean;
        let mut centroids = Matrix::zeros(k, d);
        let seeds = self.seeds(n, rng, |c| {
            (0..n)
                .map(|i| metric.distance(data.row(i), data.row(c)))
                .collect::<Vec<f64>>()
        });
        for (c, &i) in seeds.iter().enumerate() {
            centroids.row_mut(c).copy_from_slice(data.row(i));
        }
        let mut assignments = vec![0usize; n];
        let mut counts = vec![0usize; k];
        let mut inertia = f64::INFINITY;
        let mut iterations = 0u32;

        loop {
            iterations += 1;
            // Assignment step: rows are independent, so label them in
            // parallel; the inertia is summed over the collected labels in
            // row order, keeping the total bit-identical to a sequential
            // pass at any thread count.
            let centroids_ref = &centroids;
            let labeled: Vec<(usize, f64)> = (0..n)
                .into_par_iter()
                .map(|i| {
                    let row = data.row(i);
                    let mut best_c = 0usize;
                    let mut best_d = f64::INFINITY;
                    for c in 0..k {
                        let dist = metric.distance(row, centroids_ref.row(c));
                        if dist < best_d {
                            best_d = dist;
                            best_c = c;
                        }
                    }
                    (best_c, best_d)
                })
                .collect();
            let mut new_inertia = 0.0;
            for (i, (best_c, best_d)) in labeled.into_iter().enumerate() {
                assignments[i] = best_c;
                new_inertia += best_d;
            }

            // Update step.
            let mut next = Matrix::zeros(k, d);
            counts.iter_mut().for_each(|c| *c = 0);
            for i in 0..n {
                let c = assignments[i];
                counts[c] += 1;
                let row = data.row(i);
                let cr = next.row_mut(c);
                for j in 0..d {
                    cr[j] += row[j];
                }
            }
            // Empty-cluster repair: move the observation farthest from its
            // centroid into each empty cluster (a classic, deterministic
            // fix that keeps exactly k non-empty clusters).
            for c in 0..k {
                if counts[c] == 0 {
                    let (mut far_i, mut far_d) = (0usize, -1.0);
                    for i in 0..n {
                        if counts[assignments[i]] > 1 {
                            let dist = metric.distance(data.row(i), centroids.row(assignments[i]));
                            if dist > far_d {
                                far_d = dist;
                                far_i = i;
                            }
                        }
                    }
                    let old = assignments[far_i];
                    counts[old] -= 1;
                    let row = data.row(far_i);
                    let or = next.row_mut(old);
                    for j in 0..d {
                        or[j] -= row[j];
                    }
                    assignments[far_i] = c;
                    counts[c] = 1;
                    let cr = next.row_mut(c);
                    for j in 0..d {
                        cr[j] += row[j];
                    }
                }
            }
            for c in 0..k {
                let cnt = counts[c].max(1) as f64;
                let cr = next.row_mut(c);
                for j in 0..d {
                    cr[j] /= cnt;
                }
            }
            centroids = next;

            let improved = inertia - new_inertia > self.config.tolerance;
            inertia = new_inertia;
            if !improved || iterations >= self.config.max_iterations {
                break;
            }
        }

        // Recompute the final inertia against the final centroids.
        let mut final_inertia = 0.0;
        for i in 0..n {
            final_inertia += metric.distance(data.row(i), centroids.row(assignments[i]));
        }

        KMeansResult {
            assignments,
            centroids,
            inertia: final_inertia,
            iterations,
        }
    }

    /// One restart on packed 0/1 rows from its `seeds`, bit-identical to
    /// [`KMeans::single_run`] on their dense twins.
    ///
    /// Each centroid is held as exact column counts ([`SlicedCounts`]),
    /// so the squared distance from a row `x` to a centroid of `m`
    /// members has the exact form `E / m²` with
    /// `E = m²·|x| − 2m·Σ_{j∈x} cnt_j + Σ_j cnt_j²`; both sums come from
    /// the sweep's pair counts ([`PairSums`]). The dense loop's value `D`
    /// is an f64 sum that differs from `E / m²` by less than
    /// [`PackedRows::margin`], so only centroids screened within that
    /// margin of the row's best can be its f64 winner or tie it. Those
    /// are re-scored with the dense formula ([`CentroidTerms::distance`])
    /// in centroid order and the first strict minimum wins, as in the
    /// dense loop. A one-member centroid is the member row itself, so its
    /// `D` is the integer `E` and needs no re-score. Scores of a centroid
    /// that kept its members carry over to the next iteration
    /// ([`Scores`]).
    fn packed_run(&self, p: &PackedRows<'_>, seeds: &[usize]) -> PackedFit {
        let (n, k) = (p.bits.n_rows(), self.config.k);
        let words = p.bits.words_per_row();
        let mut sums = PairSums::new(p, seeds);
        let mut counts: Vec<SlicedCounts> = seeds
            .iter()
            .map(|&i| {
                let mut c = SlicedCounts::new(words, n as u64);
                c.add(p.bits.row_words(i));
                c
            })
            .collect();
        let mut stale = vec![true; k];
        let mut scores = Scores::new(n, k, words);
        let mut sizes = vec![0usize; k];
        let mut assignments = vec![0usize; n];
        let mut best = vec![0.0f64; n];
        let mut inertia = f64::INFINITY;
        let mut iterations = 0u32;
        let mut rechecks = 0u64;
        loop {
            iterations += 1;
            scores.forget(&stale);
            scores.rescreen(p, &sums, &counts, &stale);

            // Assignment step. Rows run sequentially: restarts (and the
            // k sweep above them) already fill the threads, and the
            // inertia is summed in row order as in the dense loop.
            let mut new_inertia = 0.0;
            for i in 0..n {
                let x = p.bits.row_words(i);
                let cut = scores
                    .screen(i)
                    .iter()
                    .fold(f64::INFINITY, |a, &b| a.min(b))
                    + p.margin;
                let (mut best_c, mut best_d, mut rescored) = (0usize, f64::INFINITY, false);
                for c in 0..k {
                    let screened = scores.screen(i)[c];
                    if screened > cut {
                        continue;
                    }
                    let dist = if counts[c].members() == 1 {
                        screened
                    } else {
                        rescored = true;
                        scores.dense(i, c, &counts[c], x)
                    };
                    if dist < best_d {
                        best_d = dist;
                        best_c = c;
                    }
                }
                rechecks += u64::from(rescored);
                assignments[i] = best_c;
                best[i] = best_d;
                new_inertia += best_d;
            }

            // Empty-cluster repair, as in the dense loop. The dense loop
            // re-scores each candidate against its old centroid; every
            // candidate still sits in a cluster of more than one member,
            // so it is unmoved and that score is its `best` above.
            sizes.fill(0);
            for &c in &assignments {
                sizes[c] += 1;
            }
            for c in 0..k {
                if sizes[c] == 0 {
                    let (mut far_i, mut far_d) = (0usize, -1.0);
                    for i in 0..n {
                        if sizes[assignments[i]] > 1 && best[i] > far_d {
                            far_d = best[i];
                            far_i = i;
                        }
                    }
                    sizes[assignments[far_i]] -= 1;
                    assignments[far_i] = c;
                    sizes[c] = 1;
                }
            }

            // Update step: move the pair sums of every reassigned row,
            // then rebuild the column counts of the centroids that gained
            // or lost a member with bit-sliced adds.
            sums.follow(p, &assignments, &mut stale);
            for (c, counts) in counts.iter_mut().enumerate() {
                if stale[c] {
                    counts.clear();
                }
            }
            for i in 0..n {
                let c = assignments[i];
                if stale[c] {
                    counts[c].add(p.bits.row_words(i));
                }
            }

            let improved = inertia - new_inertia > self.config.tolerance;
            inertia = new_inertia;
            if !improved || iterations >= self.config.max_iterations {
                break;
            }
        }

        // The final inertia against the final centroids: a singleton is
        // at exactly zero from its own member, every other row at its
        // dense score (carried over when its centroid did not change).
        scores.forget(&stale);
        let mut final_inertia = 0.0;
        for i in 0..n {
            let c = assignments[i];
            final_inertia += if counts[c].members() == 1 {
                0.0
            } else {
                scores.dense(i, c, &counts[c], p.bits.row_words(i))
            };
        }
        PackedFit {
            assignments,
            counts,
            inertia: final_inertia,
            iterations,
            rechecks,
        }
    }
}

/// The k-means fits of one sweep over a fixed set of rows: any k up to
/// the configured one, each bit-identical to the dense Lloyd loop's fit
/// of that k.
///
/// On the packed path the sweep builds, once, what every fit of every k
/// and restart reads: the `n × n` pair counts `|x_i ∧ x_r|` (`4·n²`
/// bytes) and each restart's seed rows. A restart's RNG is seeded from
/// `(seed, restart)` alone and only draws the seeds, so the seeds of
/// any k are the first k of the draw for the largest k; they are drawn
/// once, for that k. Fits share nothing mutable, so a sweep's k values
/// can be fitted in parallel and in any order.
///
/// ```
/// use tdac_clustering::{DistanceOptions, KMeansConfig, KMeansSweep, Matrix};
///
/// let data = Matrix::from_rows(&[
///     vec![1.0, 1.0, 0.0],
///     vec![1.0, 0.0, 0.0],
///     vec![0.0, 1.0, 1.0],
///     vec![0.0, 0.0, 1.0],
/// ]);
/// let sweep = KMeansSweep::new(KMeansConfig::with_k(3), &data, &DistanceOptions::default());
/// let inertias: Vec<f64> = (1..=3).map(|k| sweep.fit(k).unwrap().inertia).collect();
/// assert!(inertias.windows(2).all(|w| w[1] <= w[0]));
/// ```
pub struct KMeansSweep<'a> {
    config: KMeansConfig,
    observer: td_obs::Observer,
    rows: SweepRows<'a>,
}

/// The rows of a sweep, in the form its path reads.
enum SweepRows<'a> {
    Packed(PackedRows<'a>),
    Dense(Cow<'a, Matrix>),
}

impl<'a> KMeansSweep<'a> {
    /// A sweep over the rows of `data` for every k up to `config.k`,
    /// under the kernel policy and observer of `opts`.
    ///
    /// The packed path runs when a packed form exists (`Rows::Packed`,
    /// or dense rows that [`BitMatrix::pack`] accepts) and the policy is
    /// not [`KernelPolicy::Dense`] — the same rule as the distance
    /// matrix. Degenerate inputs are reported by [`KMeansSweep::fit`].
    pub fn new(config: KMeansConfig, data: impl Into<Rows<'a>>, opts: &DistanceOptions) -> Self {
        let data = data.into();
        let bits = match data {
            _ if opts.kernel == KernelPolicy::Dense => None,
            Rows::Packed(b) => Some(Cow::Borrowed(b)),
            Rows::Dense(m) => BitMatrix::pack(m).map(Cow::Owned),
        };
        let rows = match bits.and_then(|b| PackedRows::new(b, &config)) {
            Some(p) => SweepRows::Packed(p),
            None => SweepRows::Dense(match data {
                Rows::Dense(m) => Cow::Borrowed(m),
                Rows::Packed(b) => Cow::Owned(b.to_dense()),
            }),
        };
        Self {
            config,
            observer: opts.observer.clone(),
            rows,
        }
    }

    /// Fits `k` clusters with the sweep's configuration. The result is
    /// bit-identical to the dense Lloyd loop's on the same rows:
    /// assignments, centroids, inertia and iteration count.
    ///
    /// # Errors
    /// [`ClusterError::ZeroK`], [`ClusterError::EmptyInput`],
    /// [`ClusterError::TooFewObservations`] and
    /// [`ClusterError::ZeroIterationCap`] on degenerate input, and
    /// [`ClusterError::BeyondSweep`] when `k` exceeds the sweep's
    /// largest k.
    ///
    /// Instrumentation: bumps [`td_obs::Counter::KMeansIterations`] by
    /// the Lloyd iterations summed over *all* restarts (the real work
    /// done, not just the winner's count); a packed fit also bumps
    /// [`td_obs::Counter::KMeansPackedFits`] once and
    /// [`td_obs::Counter::KMeansRechecks`] by the rows, per iteration,
    /// whose winner was picked by a dense `f64` score. Observation never
    /// alters the fit.
    pub fn fit(&self, k: usize) -> Result<KMeansResult, ClusterError> {
        let n = match &self.rows {
            SweepRows::Packed(p) => p.bits.n_rows(),
            SweepRows::Dense(m) => m.n_rows(),
        };
        if k == 0 {
            return Err(ClusterError::ZeroK);
        }
        if n == 0 {
            return Err(ClusterError::EmptyInput);
        }
        if k > n {
            return Err(ClusterError::TooFewObservations { k, n });
        }
        if self.config.max_iterations == 0 {
            return Err(ClusterError::ZeroIterationCap);
        }
        if k > self.config.k {
            return Err(ClusterError::BeyondSweep {
                k,
                max_k: self.config.k,
            });
        }
        let kmeans = KMeans::new(KMeansConfig { k, ..self.config });
        let observer = &self.observer;
        match &self.rows {
            SweepRows::Packed(p) => {
                let runs: Vec<PackedFit> = p
                    .seeds
                    .par_iter()
                    .map(|seeds| kmeans.packed_run(p, &seeds[..k]))
                    .collect();
                observer.incr(
                    td_obs::Counter::KMeansIterations,
                    runs.iter().map(|r| r.iterations as u64).sum(),
                );
                observer.incr(td_obs::Counter::KMeansPackedFits, 1);
                observer.incr(
                    td_obs::Counter::KMeansRechecks,
                    runs.iter().map(|r| r.rechecks).sum(),
                );
                Ok(first_lowest(runs, |r| r.inertia).into_result(p.bits.n_cols()))
            }
            SweepRows::Dense(data) => {
                let runs = kmeans.restarts(|rng| kmeans.single_run(data, rng));
                observer.incr(
                    td_obs::Counter::KMeansIterations,
                    runs.iter().map(|r| r.iterations as u64).sum(),
                );
                Ok(first_lowest(runs, |r| r.inertia))
            }
        }
    }
}

/// The lowest-inertia run, the earliest on ties: the strict `<` fold of
/// the sequential restart loop.
fn first_lowest<T>(runs: Vec<T>, inertia: impl Fn(&T) -> f64) -> T {
    let mut best: Option<T> = None;
    for run in runs {
        if best.as_ref().is_none_or(|b| inertia(&run) < inertia(b)) {
            best = Some(run);
        }
    }
    best.expect("n_init >= 1")
}

/// One packed restart: its centroids stay as counts until it wins.
struct PackedFit {
    assignments: Vec<usize>,
    counts: Vec<SlicedCounts>,
    inertia: f64,
    iterations: u32,
    rechecks: u64,
}

impl PackedFit {
    /// The fit with its `d`-column f64 centroids `fl(cnt_j / m)`.
    fn into_result(self, d: usize) -> KMeansResult {
        let mut centroids = Matrix::zeros(self.counts.len(), d);
        for (c, counts) in self.counts.iter().enumerate() {
            counts.write_means(centroids.row_mut(c));
        }
        KMeansResult {
            assignments: self.assignments,
            centroids,
            inertia: self.inertia,
            iterations: self.iterations,
        }
    }
}

/// Most rows a packed sweep takes: its pair-count table is `4·n²` bytes,
/// 256 MiB at this bound. Taller inputs run the dense loop.
const MAX_PACKED_ROWS: u64 = 1 << 13;

/// The packed rows of a sweep and what every fit of it reads: the pair
/// counts, the row popcounts, the screening margin and the seeds.
struct PackedRows<'a> {
    bits: Cow<'a, BitMatrix>,
    /// `n × n` pair counts `|x_i ∧ x_r|`: row `r` is what row `r` adds
    /// to a centroid's [`PairSums`].
    pairs: Vec<u32>,
    /// Row popcounts `|x_i|`, the diagonal of `pairs`.
    ones: Vec<u64>,
    /// Bound on how far a screened value can sit above the row's
    /// screened minimum and still be the dense loop's f64 winner.
    ///
    /// With `u = 2⁻⁵³`: each dense term `(x_j − fl(cnt_j/m))²` is within
    /// `5u` of its exact value and at most 1, so the dense sum `D` is
    /// within `δ = 5u·d + γ_{d−1}·d ≤ 1.01·u·d·(d + 4)` of `E / m²`
    /// (`γ_n = n·u / (1 − n·u)`, the recursive-summation bound). The
    /// screen value `fl(fl(E) · fl(1 / fl(m²)))` is within `5u·d` of
    /// `E / m²`, and forming the cut rounds once more. The f64 winner
    /// `w` satisfies `D_w ≤ D_c` for every `c`, so its screen value is
    /// at most `2δ + 12u·d` above the screened minimum; the margin
    /// `4u·d·(d + 16)` covers that with room to spare.
    margin: f64,
    /// Each restart's seed rows for the sweep's largest k, in draw
    /// order; the seeds of a smaller k are a prefix.
    seeds: Vec<Vec<usize>>,
}

impl<'a> PackedRows<'a> {
    /// `None` for zero-width rows (nothing to pack), past
    /// [`MAX_PACKED_ROWS`] rows, and when an exact numerator could
    /// overflow `u64` (every one is at most `2·n²·d`) or a pair count
    /// `u32`; the sweep then runs the dense loop.
    fn new(bits: Cow<'a, BitMatrix>, config: &KMeansConfig) -> Option<Self> {
        let (n, d) = (bits.n_rows() as u64, bits.n_cols() as u64);
        if d == 0 || n > MAX_PACKED_ROWS {
            return None;
        }
        u32::try_from(d).ok()?;
        n.checked_mul(n)?.checked_mul(d)?.checked_mul(2)?;
        let n = bits.n_rows();
        let mut pairs = vec![0u32; n * n];
        for i in 0..n {
            for r in i..n {
                let common = and_count_words(bits.row_words(i), bits.row_words(r)) as u32;
                pairs[i * n + r] = common;
                pairs[r * n + i] = common;
            }
        }
        let ones = (0..n).map(|i| u64::from(pairs[i * n + i])).collect();
        let mut rows = Self {
            bits,
            pairs,
            ones,
            margin: 2.0 * f64::EPSILON * d as f64 * (d as f64 + 16.0),
            seeds: Vec::new(),
        };
        // Drawn on the calling thread: the draws cost O(k·n) per restart,
        // and drawing them in parallel started threads that raised the
        // sharded coordinator's peak RSS by a few MB.
        let draws = KMeans::new(KMeansConfig {
            k: config.k.min(n),
            ..*config
        });
        if draws.config.k > 0 {
            rows.seeds = (0..config.n_init.max(1) as usize)
                .map(|r| draws.seeds(n, &mut draws.restart_rng(r), |c| rows.hamming_from(c)))
                .collect();
        }
        Some(rows)
    }

    /// Row `r`'s pair counts with every row.
    #[inline]
    fn pairs_of(&self, r: usize) -> &[u32] {
        let n = self.ones.len();
        &self.pairs[r * n..(r + 1) * n]
    }

    /// Every row's squared Euclidean distance to row `c`,
    /// `|x_i| + |x_c| − 2·|x_i ∧ x_c|`: between 0/1 rows that is the
    /// Hamming count exactly, so k-means++ makes the same draws as on
    /// the dense rows.
    fn hamming_from(&self, c: usize) -> Vec<f64> {
        self.pairs_of(c)
            .iter()
            .zip(&self.ones)
            .map(|(&common, &ones)| (ones + self.ones[c] - 2 * u64::from(common)) as f64)
            .collect()
    }
}

/// One restart's exact sums over each centroid's members, kept up to
/// date from the sweep's pair counts:
/// `dot[c][i] = Σ_{r∈c} |x_i ∧ x_r| = Σ_{j∈x_i} cnt_j` and
/// `squares[c] = Σ_{r∈c} dot[c][r] = Σ_j cnt_j²`. A row that changes
/// centroid moves its pair counts from the old centroid's sums to the
/// new one's, `O(n)` per moved row (repairs included).
struct PairSums {
    n: usize,
    /// `k × n`, centroid-major.
    dot: Vec<u64>,
    squares: Vec<u64>,
    /// The centroid whose sums hold each row; [`PairSums::NONE`] before
    /// the row first joins one.
    owner: Vec<usize>,
}

impl PairSums {
    const NONE: usize = usize::MAX;

    /// The sums of one-member centroids at the `seeds` rows.
    fn new(p: &PackedRows<'_>, seeds: &[usize]) -> Self {
        let n = p.ones.len();
        let mut sums = Self {
            n,
            dot: vec![0; seeds.len() * n],
            squares: seeds.iter().map(|&s| p.ones[s]).collect(),
            owner: vec![Self::NONE; n],
        };
        for (c, &s) in seeds.iter().enumerate() {
            sums.enter(p, s, c);
        }
        sums
    }

    /// Moves row `r`'s pair counts out of its owner's sums, if any, and
    /// into centroid `c`'s.
    fn enter(&mut self, p: &PackedRows<'_>, r: usize, c: usize) {
        let n = self.n;
        let common = p.pairs_of(r);
        let old = self.owner[r];
        if old != Self::NONE {
            for (dot, &g) in self.dot[old * n..(old + 1) * n].iter_mut().zip(common) {
                *dot -= u64::from(g);
            }
        }
        for (dot, &g) in self.dot[c * n..(c + 1) * n].iter_mut().zip(common) {
            *dot += u64::from(g);
        }
        self.owner[r] = c;
    }

    /// Brings the sums to `assignments` and marks `stale` exactly the
    /// centroids that gained or lost a member.
    fn follow(&mut self, p: &PackedRows<'_>, assignments: &[usize], stale: &mut [bool]) {
        stale.fill(false);
        for (r, &c) in assignments.iter().enumerate() {
            let old = self.owner[r];
            if old != c {
                if old != Self::NONE {
                    stale[old] = true;
                }
                stale[c] = true;
                self.enter(p, r, c);
            }
        }
        for (c, squares) in self.squares.iter_mut().enumerate() {
            if stale[c] {
                *squares = 0;
            }
        }
        for (r, &c) in assignments.iter().enumerate() {
            if stale[c] {
                self.squares[c] += self.dot[c * self.n + r];
            }
        }
    }

    /// `E = m²·|x| + Σ_j cnt_j² − 2m·Σ_{j∈x} cnt_j = Σ_j (m·x_j − cnt_j)²`
    /// for row `i` against centroid `c` of `m` members.
    #[inline]
    fn numerator(&self, p: &PackedRows<'_>, i: usize, c: usize, m: u64) -> u64 {
        m * m * p.ones[i] + self.squares[c] - 2 * m * self.dot[c * self.n + i]
    }
}

/// The scores of every (row, centroid) pair in one restart: the screen
/// value `fl(E) · fl(1 / m²)` and, once computed, the dense value `D`.
/// A centroid's scores are recomputed only after its members change.
struct Scores {
    k: usize,
    /// `n × k` screen values.
    screen: Vec<f64>,
    /// `n × k` dense values; NaN (which no distance is) until computed.
    dense: Vec<f64>,
    terms: CentroidTerms,
}

impl Scores {
    fn new(n: usize, k: usize, words: usize) -> Self {
        Self {
            k,
            screen: vec![0.0; n * k],
            dense: vec![f64::NAN; n * k],
            terms: CentroidTerms::new(k, words),
        }
    }

    /// Drops the dense values of every `stale` centroid.
    fn forget(&mut self, stale: &[bool]) {
        for (c, _) in stale.iter().enumerate().filter(|(_, &s)| s) {
            self.terms.built[c] = false;
            for row in self.dense.chunks_exact_mut(self.k) {
                row[c] = f64::NAN;
            }
        }
    }

    /// Recomputes the screen values of every `stale` centroid.
    fn rescreen(
        &mut self,
        p: &PackedRows<'_>,
        sums: &PairSums,
        counts: &[SlicedCounts],
        stale: &[bool],
    ) {
        for (c, counts) in counts.iter().enumerate().filter(|&(c, _)| stale[c]) {
            let m = counts.members();
            let inv_m2 = 1.0 / (m * m) as f64;
            for (i, row) in self.screen.chunks_exact_mut(self.k).enumerate() {
                row[c] = sums.numerator(p, i, c, m) as f64 * inv_m2;
            }
        }
    }

    /// Row `i`'s screen values, one per centroid.
    fn screen(&self, i: usize) -> &[f64] {
        &self.screen[i * self.k..(i + 1) * self.k]
    }

    /// Row `i`'s dense value against centroid `c`, computed on first use.
    fn dense(&mut self, i: usize, c: usize, counts: &SlicedCounts, x: &[u64]) -> f64 {
        let slot = &mut self.dense[i * self.k + c];
        if slot.is_nan() {
            *slot = self.terms.distance(c, counts, x);
        }
        *slot
    }
}

/// The dense formula `Σ_j (x_j − fl(cnt_j / m))²` against each centroid,
/// from tables built on first use after its counts change.
///
/// A column's term depends only on `x_j` and `cnt_j`, so each centroid
/// gets its column counts and a table of both terms per count. The term
/// is `+0.0` exactly where `cnt_j = 0` and `x_j = 0`, or `cnt_j = m` and
/// `x_j = 1`; adding `+0.0` to a non-negative f64 sum leaves it
/// unchanged, so the sum runs over the other columns only, still in
/// column order, from `+0.0` (what the dense sum of `d ≥ 1` zero terms
/// gives too).
struct CentroidTerms {
    words: usize,
    /// Columns whose count is `m`, per centroid (`k × words`).
    full: Vec<u64>,
    /// Columns whose count is strictly between `0` and `m`.
    mixed: Vec<u64>,
    /// Column counts, `k × 64·words` (tail positions count 0).
    counts: Vec<u32>,
    /// `[(0 − q)², (1 − q)²]` with `q = fl(cnt / m)`, indexed by count.
    tables: Vec<Vec<[f64; 2]>>,
    built: Vec<bool>,
}

impl CentroidTerms {
    fn new(k: usize, words: usize) -> Self {
        Self {
            words,
            full: vec![0; k * words],
            mixed: vec![0; k * words],
            counts: vec![0; k * words * WORD_BITS],
            tables: vec![Vec::new(); k],
            built: vec![false; k],
        }
    }

    /// The dense loop's `SqEuclidean` distance, bit for bit, from packed
    /// row `x` to centroid `c` with column counts `counts`.
    fn distance(&mut self, c: usize, counts: &SlicedCounts, x: &[u64]) -> f64 {
        let span = c * self.words..(c + 1) * self.words;
        let cols = c * self.words * WORD_BITS..(c + 1) * self.words * WORD_BITS;
        if !self.built[c] {
            counts.uniform_columns(&mut self.full[span.clone()], &mut self.mixed[span.clone()]);
            counts.write_counts(&mut self.counts[cols.clone()]);
            let m = counts.members();
            let table = &mut self.tables[c];
            table.clear();
            table.extend((0..=m).map(|cnt| {
                // The dense update's sum-then-divide, then the dense
                // metric's `d = x − y; d * d` for x = 0 and x = 1.
                let q = cnt as f64 / m as f64;
                let (zero, one) = (0.0 - q, 1.0 - q);
                [zero * zero, one * one]
            }));
            self.built[c] = true;
        }
        let (full, mixed) = (&self.full[span.clone()], &self.mixed[span]);
        let (col_counts, table) = (&self.counts[cols], &self.tables[c]);
        let mut sum = 0.0;
        for (w, &xw) in x.iter().enumerate() {
            let word_counts = &col_counts[w * WORD_BITS..(w + 1) * WORD_BITS];
            let mut live = mixed[w] | (xw ^ full[w]);
            while live != 0 {
                let bit = live.trailing_zeros() as usize;
                live &= live - 1;
                sum += table[word_counts[bit] as usize][(xw >> bit & 1) as usize];
            }
        }
        sum
    }
}

/// k-means++ seeding (Arthur & Vassilvitskii 2007): the first seed
/// uniform, each next one drawn with probability proportional to its
/// squared distance `dist` from the nearest seed so far.
fn seeds_plus_plus<R: Deref<Target = [f64]>>(
    n: usize,
    k: usize,
    rng: &mut ChaCha8Rng,
    dist_from: impl Fn(usize) -> R,
) -> Vec<usize> {
    let mut centers: Vec<usize> = Vec::with_capacity(k);
    centers.push(rng.gen_range(0..n));
    let mut d2: Vec<f64> = dist_from(centers[0]).to_vec();
    while centers.len() < k {
        let total: f64 = d2.iter().sum();
        let next = if total <= 0.0 {
            // All remaining points coincide with a center; pick any
            // non-center deterministically, else repeat a center.
            (0..n).find(|i| !centers.contains(i)).unwrap_or(0)
        } else {
            WeightedIndex::new(d2.iter().map(|&w| w.max(0.0)))
                .map(|w| w.sample(rng))
                .unwrap_or(0)
        };
        centers.push(next);
        for (slot, &dist) in d2.iter_mut().zip(dist_from(next).iter()) {
            if dist < *slot {
                *slot = dist;
            }
        }
    }
    centers
}

/// Uniformly random distinct seed rows.
fn seeds_random(n: usize, k: usize, rng: &mut ChaCha8Rng) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    idx.shuffle(rng);
    idx.truncate(k);
    idx
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two well-separated blobs on a line.
    fn blobs() -> Matrix {
        Matrix::from_rows(&[
            vec![0.0, 0.1],
            vec![0.1, 0.0],
            vec![0.05, 0.05],
            vec![10.0, 10.1],
            vec![10.1, 10.0],
            vec![10.05, 9.95],
        ])
    }

    #[test]
    fn separates_obvious_blobs() {
        let r = KMeans::new(KMeansConfig::with_k(2)).fit(&blobs()).unwrap();
        assert_eq!(r.assignments.len(), 6);
        let a = r.assignments[0];
        assert!(r.assignments[..3].iter().all(|&c| c == a));
        let b = r.assignments[3];
        assert!(r.assignments[3..].iter().all(|&c| c == b));
        assert_ne!(a, b);
        assert!(r.inertia < 0.1, "inertia {}", r.inertia);
    }

    #[test]
    fn every_point_is_assigned_and_every_cluster_nonempty() {
        let r = KMeans::new(KMeansConfig::with_k(3)).fit(&blobs()).unwrap();
        assert!(r.assignments.iter().all(|&c| c < 3));
        let groups = r.clusters(3);
        assert!(groups.iter().all(|g| !g.is_empty()), "{groups:?}");
        assert_eq!(groups.iter().map(Vec::len).sum::<usize>(), 6);
    }

    #[test]
    fn k_equals_n_gives_zero_inertia() {
        let data = Matrix::from_rows(&[vec![0.0], vec![5.0], vec![9.0]]);
        let r = KMeans::new(KMeansConfig::with_k(3)).fit(&data).unwrap();
        assert!(r.inertia < 1e-12);
    }

    #[test]
    fn k_one_centroid_is_mean() {
        let data = Matrix::from_rows(&[vec![0.0, 0.0], vec![2.0, 4.0]]);
        let r = KMeans::new(KMeansConfig::with_k(1)).fit(&data).unwrap();
        assert_eq!(r.centroids.row(0), &[1.0, 2.0]);
    }

    #[test]
    fn errors_on_degenerate_input() {
        let data = blobs();
        assert_eq!(
            KMeans::new(KMeansConfig::with_k(0)).fit(&data).unwrap_err(),
            ClusterError::ZeroK
        );
        assert_eq!(
            KMeans::new(KMeansConfig::with_k(7)).fit(&data).unwrap_err(),
            ClusterError::TooFewObservations { k: 7, n: 6 }
        );
        let empty = Matrix::from_rows(&[]);
        assert_eq!(
            KMeans::new(KMeansConfig::with_k(1)).fit(&empty).unwrap_err(),
            ClusterError::EmptyInput
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let data = blobs();
        let cfg = KMeansConfig::with_k(2);
        let r1 = KMeans::new(cfg).fit(&data).unwrap();
        let r2 = KMeans::new(cfg).fit(&data).unwrap();
        assert_eq!(r1.assignments, r2.assignments);
        assert_eq!(r1.inertia, r2.inertia);
    }

    #[test]
    fn random_init_also_works() {
        let mut cfg = KMeansConfig::with_k(2);
        cfg.init = Init::Random;
        let r = KMeans::new(cfg).fit(&blobs()).unwrap();
        assert!(r.inertia < 0.1);
    }

    #[test]
    fn duplicate_points_are_handled() {
        let data = Matrix::from_rows(&vec![vec![1.0]; 5]);
        let r = KMeans::new(KMeansConfig::with_k(2)).fit(&data).unwrap();
        assert_eq!(r.assignments.len(), 5);
        assert!(r.inertia < 1e-12);
    }

    #[test]
    fn thread_count_does_not_change_the_fit() {
        let data = blobs();
        let cfg = KMeansConfig::with_k(2);
        let one = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap()
            .install(|| KMeans::new(cfg).fit(&data).unwrap());
        let four = rayon::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap()
            .install(|| KMeans::new(cfg).fit(&data).unwrap());
        assert_eq!(one.assignments, four.assignments);
        assert_eq!(one.inertia.to_bits(), four.inertia.to_bits());
        assert_eq!(one.iterations, four.iterations);
    }

    #[test]
    fn packed_path_dispatch_follows_the_kernel_policy() {
        let binary = Matrix::from_rows(&[
            vec![1.0, 1.0, 0.0, 0.0, 1.0],
            vec![1.0, 1.0, 0.0, 1.0, 1.0],
            vec![0.0, 0.0, 1.0, 1.0, 0.0],
            vec![0.0, 1.0, 1.0, 1.0, 0.0],
            vec![1.0, 1.0, 0.0, 0.0, 1.0],
        ]);
        let packed = BitMatrix::pack(&binary).expect("binary rows pack");
        let fit = |rows: Rows<'_>, kernel| {
            let observer = td_obs::Observer::enabled();
            let opts = DistanceOptions::builder()
                .kernel(kernel)
                .observer(observer.clone())
                .build();
            let r = KMeans::new(KMeansConfig::with_k(2))
                .fit_observed(rows, &opts)
                .unwrap();
            (r, observer.counter_value(td_obs::Counter::KMeansPackedFits))
        };
        let (reference, fits) = fit(Rows::Dense(&binary), KernelPolicy::Dense);
        assert_eq!(fits, 0, "Dense pins the reference loop");
        for rows in [Rows::Dense(&binary), Rows::Packed(&packed)] {
            for kernel in [KernelPolicy::Auto, KernelPolicy::Packed] {
                let (r, fits) = fit(rows, kernel);
                assert_eq!(fits, 1, "{kernel:?} takes the packed path");
                assert_eq!(r.assignments, reference.assignments);
                assert_eq!(r.inertia.to_bits(), reference.inertia.to_bits());
                assert_eq!(r.iterations, reference.iterations);
                assert_eq!(r.centroids, reference.centroids);
            }
        }
        let (_, fits) = fit(Rows::Dense(&blobs()), KernelPolicy::Packed);
        assert_eq!(fits, 0, "non-binary rows stay dense");
    }

    /// A 0/1 matrix with repeated rows, so seeding meets zero distances.
    fn binary_with_duplicates(rows: usize, cols: usize) -> Matrix {
        let data: Vec<Vec<f64>> = (0..rows)
            .map(|r| {
                let r = if r % 4 == 3 { r / 2 } else { r };
                (0..cols)
                    .map(|c| f64::from(u8::from((r * 7 + c * 13 + r * c) % 5 < 2)))
                    .collect()
            })
            .collect();
        Matrix::from_rows(&data)
    }

    #[test]
    fn seeds_for_k_are_the_first_k_of_the_largest_draw() {
        let data = binary_with_duplicates(14, 70);
        let bits = BitMatrix::pack(&data).expect("binary rows pack");
        let n = data.n_rows();
        for init in [Init::KMeansPlusPlus, Init::Random] {
            let config = KMeansConfig {
                init,
                n_init: 4,
                ..KMeansConfig::with_k(n)
            };
            let sweep = PackedRows::new(Cow::Borrowed(&bits), &config).expect("packed");
            assert_eq!(sweep.seeds.len(), 4);
            for k in 1..=n {
                // What a fit of k alone draws, on the dense distances.
                let alone = KMeans::new(KMeansConfig { k, ..config });
                let draws = alone.restarts(|rng| {
                    alone.seeds(n, rng, |c| {
                        (0..n)
                            .map(|i| SqEuclidean.distance(data.row(i), data.row(c)))
                            .collect::<Vec<f64>>()
                    })
                });
                for (restart, seeds) in draws.iter().enumerate() {
                    assert_eq!(seeds[..], sweep.seeds[restart][..k], "{init:?}, k = {k}");
                }
            }
        }
    }

    #[test]
    fn pair_sums_follow_reassignments() {
        let data = binary_with_duplicates(11, 130);
        let bits = BitMatrix::pack(&data).expect("binary rows pack");
        let (n, k) = (data.n_rows(), 4);
        let rows = PackedRows::new(Cow::Borrowed(&bits), &KMeansConfig::with_k(k)).expect("packed");
        let seeds = &rows.seeds[0][..k];
        let mut sums = PairSums::new(&rows, seeds);
        let mut stale = vec![false; k];
        let mut assignments: Vec<usize> = (0..n).map(|i| i % k).collect();
        for round in 0..6 {
            sums.follow(&rows, &assignments, &mut stale);
            for c in 0..k {
                let members: Vec<usize> = (0..n).filter(|&i| assignments[i] == c).collect();
                let cnt: Vec<u64> = (0..data.n_cols())
                    .map(|j| members.iter().map(|&r| data.row(r)[j] as u64).sum())
                    .collect();
                for i in 0..n {
                    let dot: u64 = (0..data.n_cols())
                        .map(|j| data.row(i)[j] as u64 * cnt[j])
                        .sum();
                    assert_eq!(
                        sums.dot[c * n + i],
                        dot,
                        "round {round}, centroid {c}, row {i}"
                    );
                }
                let squares: u64 = cnt.iter().map(|&x| x * x).sum();
                assert_eq!(sums.squares[c], squares, "round {round}, centroid {c}");
            }
            // Move a few rows, one of them back and forth.
            assignments[round % n] = (assignments[round % n] + 1) % k;
            assignments[(round * 5 + 3) % n] = (round + 2) % k;
        }
    }

    #[test]
    fn sweep_fits_equal_standalone_fits_and_refuse_larger_k() {
        let data = binary_with_duplicates(12, 40);
        let opts = DistanceOptions::default();
        let sweep = KMeansSweep::new(KMeansConfig::with_k(9), &data, &opts);
        for k in (1..=9).rev() {
            let alone = KMeans::new(KMeansConfig::with_k(k)).fit(&data).unwrap();
            let shared = sweep.fit(k).unwrap();
            assert_eq!(shared.assignments, alone.assignments, "k = {k}");
            assert_eq!(shared.inertia.to_bits(), alone.inertia.to_bits(), "k = {k}");
            assert_eq!(shared.iterations, alone.iterations, "k = {k}");
            assert_eq!(shared.centroids, alone.centroids, "k = {k}");
        }
        assert_eq!(
            sweep.fit(10).unwrap_err(),
            ClusterError::BeyondSweep { k: 10, max_k: 9 }
        );
        assert_eq!(sweep.fit(0).unwrap_err(), ClusterError::ZeroK);
        assert_eq!(
            sweep.fit(13).unwrap_err(),
            ClusterError::TooFewObservations { k: 13, n: 12 }
        );
    }

    #[test]
    fn rows_past_the_table_bound_take_the_dense_loop() {
        // One row more than a pair-count table may hold: the fit runs
        // the dense loop instead of allocating a 256 MiB table.
        let n = MAX_PACKED_ROWS as usize + 1;
        let data = Matrix::from_rows(
            &(0..n)
                .map(|i| vec![f64::from(u8::from(i % 3 == 0))])
                .collect::<Vec<_>>(),
        );
        let observer = td_obs::Observer::enabled();
        let opts = DistanceOptions::builder()
            .observer(observer.clone())
            .build();
        let cfg = KMeansConfig {
            n_init: 1,
            ..KMeansConfig::with_k(2)
        };
        let r = KMeans::new(cfg).fit_observed(&data, &opts).unwrap();
        assert_eq!(observer.counter_value(td_obs::Counter::KMeansPackedFits), 0);
        assert_eq!(r.inertia, 0.0);
    }

    #[test]
    fn binary_truth_vectors_cluster_by_pattern() {
        // The paper's use case: 0/1 rows, correlated attribute groups.
        let data = Matrix::from_rows(&[
            vec![1.0, 1.0, 0.0, 0.0, 1.0, 1.0],
            vec![1.0, 1.0, 0.0, 0.0, 1.0, 0.0],
            vec![0.0, 0.0, 1.0, 1.0, 0.0, 0.0],
            vec![0.0, 0.0, 1.0, 1.0, 0.0, 1.0],
        ]);
        let r = KMeans::new(KMeansConfig::with_k(2)).fit(&data).unwrap();
        assert_eq!(r.assignments[0], r.assignments[1]);
        assert_eq!(r.assignments[2], r.assignments[3]);
        assert_ne!(r.assignments[0], r.assignments[2]);
    }
}
