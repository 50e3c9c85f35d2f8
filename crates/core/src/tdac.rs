//! TD-AC — Algorithm 1 of the paper.

use std::error::Error;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

use clustering::{
    silhouette_paper_dist, Agglomerative, BitMatrix, ClusterError, DistanceOptions, KMeansConfig,
    KMeansSweep, Linkage, Pam, PamConfig, Rows,
};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use td_algorithms::{TruthDiscovery, TruthResult};
use td_model::{AttributeId, Dataset, DatasetView};
use td_obs::{
    panic_message, Budget, Counter, Degradation, DegradationReason, ExecutionLimits, Observer,
    RunProfile,
};
use td_store::{DatasetStore, TruthPage};

use crate::config::{ClusterMethod, TdacConfig};
use crate::masked::{self, MaskedTruthVectors};
use crate::partition::AttributePartition;
use crate::truth_vectors::truth_bits;

/// Errors from a TD-AC run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TdacError {
    /// The view has no attributes to partition.
    NoAttributes,
    /// The inner clusterer failed.
    Cluster(ClusterError),
    /// [`crate::config::TdacConfigBuilder::build`] rejected the
    /// configuration; the message says which constraint failed.
    InvalidConfig(String),
    /// A worker (or the pipeline itself) panicked; the panic was caught
    /// at a task boundary and converted into this error instead of
    /// aborting the process. `phase` names where (span-path
    /// vocabulary), `detail` carries the panic message.
    WorkerPanic {
        /// Phase whose worker panicked (`k_sweep/k=3`,
        /// `per_group_run/group=0`, or `pipeline` for sequential code).
        phase: String,
        /// The panic message, when it carried one.
        detail: String,
    },
}

impl fmt::Display for TdacError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TdacError::NoAttributes => write!(f, "dataset view has no attributes"),
            TdacError::Cluster(e) => write!(f, "clustering failed: {e}"),
            TdacError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            TdacError::WorkerPanic { phase, detail } => {
                write!(f, "worker panic in phase `{phase}`: {detail}")
            }
        }
    }
}

impl Error for TdacError {}

impl From<ClusterError> for TdacError {
    fn from(e: ClusterError) -> Self {
        TdacError::Cluster(e)
    }
}

/// Everything a TD-AC run produces.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TdacOutcome {
    /// The merged truth predictions (Algorithm 1's `results`).
    pub result: TruthResult,
    /// The selected attribute partition.
    pub partition: AttributePartition,
    /// Silhouette value of the selected partition.
    pub silhouette: f64,
    /// Every `(k, silhouette)` evaluated during the sweep.
    pub k_scores: Vec<(usize, f64)>,
    /// `true` when TD-AC fell back to the un-partitioned base run
    /// (fewer than 3 attributes, silhouette below the configured floor,
    /// or a budget exhausted before any partition was selected).
    pub fallback: bool,
    /// `Some` when an execution budget was exhausted (or the run was
    /// cancelled) and the outcome is *best-so-far* rather than complete:
    /// the record names the reason, the phase that detected it, and the
    /// work completed. `None` on complete runs — including every run of
    /// an unlimited config, which never arms the budget machinery.
    #[serde(default)]
    pub degradation: Option<Degradation>,
    /// Per-phase timings and work-unit counters recorded during this
    /// run, when the config carries an enabled
    /// [`td_obs::Observer`]; `None` with the default (disabled) handle.
    /// Always the *delta* for this run, even when the handle is reused.
    pub profile: Option<RunProfile>,
}

/// What TD-AC's model-selection phase (steps 1–3 of Algorithm 1)
/// decided, separated from the per-group execution phase (steps 4–5).
///
/// [`Tdac::run`] performs both phases in-process. An external
/// coordinator — the `td-shard` crate — calls
/// [`Tdac::select_model_store`] instead, executes the selected groups
/// in worker processes, and merges with [`PartitionedModel::assemble`]:
/// because selection and merge are *this* code, byte for byte, the
/// distributed outcome is bit-identical to the in-process one by
/// construction.
#[derive(Debug, Clone)]
pub enum ModelSelection {
    /// Model selection already produced the final outcome — a fallback
    /// (too few attributes, silhouette floor) or a budget-degraded run.
    /// No per-group work remains.
    Complete(TdacOutcome),
    /// A partition was selected; step 4's per-group base runs and the
    /// step 5 merge remain.
    Partitioned(PartitionedModel),
}

/// A selected partition awaiting its per-group base runs.
///
/// Produced by [`Tdac::select_model_store`] /
/// [`Tdac::select_model_view`]. Run the base algorithm once per group
/// of `partition` (each on `dataset.view_of(&group)`), collect the
/// partials **in group order**, and hand them to
/// [`PartitionedModel::assemble`].
#[derive(Debug, Clone)]
pub struct PartitionedModel {
    /// The base algorithm's reference truth over the whole view —
    /// the best-so-far answer should the per-group phase have to be
    /// abandoned (see [`PartitionedModel::into_degraded`]).
    pub reference: TruthResult,
    /// The selected attribute partition; its groups are the units of
    /// per-group execution.
    pub partition: AttributePartition,
    /// Silhouette value of the selected partition.
    pub silhouette: f64,
    /// Every `(k, silhouette)` evaluated during the sweep.
    pub k_scores: Vec<(usize, f64)>,
    /// `Some` when the sweep overshot a deadline but still selected a
    /// partition: the assembled outcome stays flagged.
    pub degradation: Option<Degradation>,
}

impl PartitionedModel {
    /// Step 5: merges the per-group partials (collected in group order)
    /// exactly as [`Tdac::run`] does — union of predictions,
    /// element-wise mean trust, one logical iteration.
    pub fn assemble(self, partials: &[TruthResult], obs: &Observer) -> TdacOutcome {
        let result = merge_partials(partials, obs);
        TdacOutcome {
            result,
            partition: self.partition,
            silhouette: self.silhouette,
            k_scores: self.k_scores,
            fallback: false,
            degradation: self.degradation,
            profile: None,
        }
    }

    /// Best-so-far outcome for a per-group phase that could not finish
    /// (a worker blew its budget): the reference result under the
    /// un-partitioned whole, flagged — the same shape [`Tdac::run`]
    /// produces when its own per-group phase is refused. A partial
    /// merge is never an option.
    pub fn into_degraded(self, degradation: Degradation) -> TdacOutcome {
        let attrs = self.partition.groups().concat();
        TdacOutcome::whole(self.reference, &attrs, self.k_scores, Some(degradation))
    }
}

impl TdacOutcome {
    /// The un-partitioned answer: `result` under the single-group
    /// partition of `attrs`, reported as one logical iteration. Every
    /// fallback (too few attributes, silhouette floor) and every
    /// degraded best-so-far outcome (the reference result, flagged)
    /// takes this shape.
    pub(crate) fn whole(
        mut result: TruthResult,
        attrs: &[AttributeId],
        k_scores: Vec<(usize, f64)>,
        degradation: Option<Degradation>,
    ) -> Self {
        result.iterations = 1;
        TdacOutcome {
            result,
            partition: AttributePartition::whole(attrs),
            silhouette: 0.0,
            k_scores,
            fallback: true,
            degradation,
            profile: None,
        }
    }
}

/// One evaluated k of the sweep: `Ok(None)` means skipped under an
/// interrupted budget, `Ok(Some((assignments, silhouette)))` a scored
/// clustering, `Err` a failed one.
pub(crate) type KEval = Result<Option<(Vec<usize>, f64)>, TdacError>;

/// The run spine every in-process entry point shares ([`Tdac::run_view`],
/// [`Tdac::select_model_view`], and the session's start and ingest):
/// meter the run, install the configured thread pool, arm the budget,
/// and run `body`. Per-worker boundaries inside convert parallel panics
/// precisely; this top-level catch covers the sequential spine, so no
/// panic anywhere in the pipeline crosses a public entry point — it
/// becomes [`TdacError::WorkerPanic`] with phase `pipeline`. Returns the
/// body's value with this run's profile.
pub(crate) fn run_spine<T>(
    config: &TdacConfig,
    body: impl FnOnce(&Observer, Option<&Budget>) -> Result<T, TdacError>,
) -> Result<(T, Option<RunProfile>), TdacError> {
    let metering = Metering::start(&config.limits, &config.observer);
    let obs = &metering.obs;
    let caught = catch_unwind(AssertUnwindSafe(|| {
        config.effective_parallelism().install(|| {
            let budget = Budget::arm(&config.limits, obs);
            body(obs, budget.as_ref())
        })
    }));
    match caught {
        Ok(result) => Ok((result?, metering.profile())),
        Err(payload) => {
            obs.incr(Counter::WorkerPanics, 1);
            Err(TdacError::WorkerPanic {
                phase: "pipeline".to_string(),
                detail: panic_message(payload.as_ref()),
            })
        }
    }
}

/// The observer one run records against, plus the user's profile at
/// entry. Counter-based budgets are metered on observer counters, so an
/// active limit with a disabled user observer runs against a private
/// enabled handle — the user's profile (and the observation-neutrality
/// contract) is untouched.
pub(crate) struct Metering {
    user: Observer,
    baseline: Option<RunProfile>,
    /// The handle the run records against.
    pub(crate) obs: Observer,
}

impl Metering {
    pub(crate) fn start(limits: &ExecutionLimits, user: &Observer) -> Self {
        let obs = if limits.is_active() && !user.is_enabled() {
            Observer::enabled()
        } else {
            user.clone()
        };
        Self {
            user: user.clone(),
            baseline: user.profile(),
            obs,
        }
    }

    /// This run's delta on the user's handle (`None` when it is
    /// disabled), even when the handle is reused across runs.
    pub(crate) fn profile(&self) -> Option<RunProfile> {
        self.user.profile().map(|p| match &self.baseline {
            Some(b) => p.delta_since(b),
            None => p,
        })
    }
}

/// How one [`sweep`] clusters each k. k-means fits every k from one
/// [`KMeansSweep`], which shares its pair counts and seed draws across
/// k values; PAM and hierarchical clustering are purely distance-based
/// and read only the shared pairwise distance matrix.
enum SweepClusterer<'a> {
    KMeans(KMeansSweep<'a>),
    Pam,
    Hierarchical(Linkage),
}

impl<'a> SweepClusterer<'a> {
    /// The clusterer of a sweep over `ks`: a k-means sweep is built for
    /// the largest k, on the exact packed path whenever `opts` allows it.
    fn new(
        config: &TdacConfig,
        method: ClusterMethod,
        rows: Rows<'a>,
        ks: &[usize],
        opts: &DistanceOptions,
    ) -> Self {
        match method {
            ClusterMethod::KMeans => {
                let k = ks.iter().copied().max().unwrap_or(0);
                let cfg = KMeansConfig {
                    k,
                    n_init: config.n_init,
                    seed: config.seed,
                    ..KMeansConfig::with_k(k)
                };
                Self::KMeans(KMeansSweep::new(cfg, rows, opts))
            }
            ClusterMethod::Pam => Self::Pam,
            ClusterMethod::Hierarchical(linkage) => Self::Hierarchical(linkage),
        }
    }

    /// One clustering of the `n` rows into `k` groups.
    fn cluster(
        &self,
        config: &TdacConfig,
        dist: &[f64],
        n: usize,
        k: usize,
        observer: &Observer,
    ) -> Result<Vec<usize>, ClusterError> {
        match self {
            Self::KMeans(sweep) => Ok(sweep.fit(k)?.assignments),
            Self::Pam => {
                let cfg = PamConfig {
                    seed: config.seed,
                    ..PamConfig::with_k(k)
                };
                Ok(Pam::new(cfg)
                    .fit_from_distances_observed(dist, n, observer)?
                    .assignments)
            }
            Self::Hierarchical(linkage) => {
                Agglomerative::new(*linkage).fit_from_distances(dist, n, k)
            }
        }
    }
}

/// Algorithm 1's silhouette k sweep, the only one: the batch pipeline
/// (dense and masked) and the incremental session all call it. Every
/// k of `ks` is clustered with `method` and scored from the shared
/// distance matrix `dist` (one row of `rows` per attribute), under the
/// run's kernel policy and observer in `opts`; k-means fits every k
/// from one [`KMeansSweep`] built for the largest.
/// Independent k values run in parallel, each under panic isolation: a
/// panicking worker (clusterer bug, poisoned data) surfaces as
/// [`TdacError::WorkerPanic`] naming the k, never an abort. Under an
/// interrupted budget, k values not yet started are skipped. The caller
/// picks the winner with [`select_partition`].
pub(crate) fn sweep(
    config: &TdacConfig,
    method: ClusterMethod,
    rows: Rows<'_>,
    dist: &[f64],
    ks: &[usize],
    opts: &DistanceOptions,
    budget: Option<&Budget>,
) -> Vec<KEval> {
    let n = rows.n_rows();
    let obs = &opts.observer;
    let _sweep = obs.span("k_sweep");
    let clusterer = SweepClusterer::new(config, method, rows, ks, opts);
    ks.par_iter()
        .map(|&k| {
            if budget.is_some_and(|b| b.interrupted().is_some()) {
                return Ok(None); // skipped, not failed
            }
            catch_unwind(AssertUnwindSafe(|| {
                let _sk = obs.span_with(|| format!("k_sweep/k={k}"));
                obs.incr(Counter::DistCacheHits, 1);
                let assignments = {
                    let _c = obs.span("cluster");
                    clusterer.cluster(config, dist, n, k, obs)?
                };
                let sil = silhouette_paper_dist(dist, n, &assignments);
                Ok(Some((assignments, sil)))
            }))
            .unwrap_or_else(|payload| {
                obs.incr(Counter::WorkerPanics, 1);
                Err(TdacError::WorkerPanic {
                    phase: format!("k_sweep/k={k}"),
                    detail: panic_message(payload.as_ref()),
                })
            })
        })
        .collect()
}

/// What model selection decided once the sweep is in. Every verdict
/// hands the reference result back: the partitioned model keeps it as
/// its best-so-far answer, the others answer un-partitioned with it.
pub(crate) enum Verdict {
    /// Run the per-group phase under the model's partition.
    Partition(PartitionedModel),
    /// The winner's silhouette is at or below the configured floor: no
    /// structure found, answer un-partitioned.
    Floor(TruthResult, Vec<(usize, f64)>),
    /// The budget ran out or the run was cancelled: answer with the
    /// reference, flagged, and start no new work.
    Degraded(TruthResult, Vec<(usize, f64)>, Degradation),
}

/// Every scored `(k, silhouette)` of a sweep, and its best
/// `(silhouette, assignments)`.
pub(crate) type SweepScan = (Vec<(usize, f64)>, Option<(f64, Vec<usize>)>);

/// The winner scan over a [`sweep`], in k order: the first error wins
/// (matching the sequential sweep), skipped entries drop out, and
/// strict `>` keeps the smallest k on silhouette ties like Algorithm
/// 1's comparison.
pub(crate) fn scan_sweep(ks: &[usize], evals: Vec<KEval>) -> Result<SweepScan, TdacError> {
    let mut best: Option<(f64, Vec<usize>)> = None;
    let mut k_scores = Vec::with_capacity(ks.len());
    for (&k, eval) in ks.iter().zip(evals) {
        let Some((assignments, sil)) = eval? else { continue };
        k_scores.push((k, sil));
        if best.as_ref().is_none_or(|(b, _)| sil > *b) {
            best = Some((sil, assignments));
        }
    }
    Ok((k_scores, best))
}

/// The selection policy that every TD-AC driver shares, applied to the
/// [`scan_sweep`] of its sweep.
pub(crate) fn select_partition(
    config: &TdacConfig,
    attrs: &[AttributeId],
    ks: &[usize],
    evals: Vec<KEval>,
    budget: Option<&Budget>,
    reference: TruthResult,
) -> Result<Verdict, TdacError> {
    let (k_scores, best) = scan_sweep(ks, evals)?;
    // Skipped k values mean the budget interrupted the sweep.
    let sweep_degradation = (k_scores.len() < ks.len()).then(|| {
        let b = budget.expect("k values are only skipped under a budget");
        b.degrade(b.interrupted().unwrap_or(DegradationReason::Cancelled), "k_sweep")
    });
    let (silhouette, assignments, degradation) = match (best, sweep_degradation) {
        // Deadline overshoot: the best scored k is worth the (bounded)
        // per-group replay, and the outcome stays flagged.
        (Some((silhouette, assignments)), Some(deg))
            if deg.reason != DegradationReason::Cancelled =>
        {
            (silhouette, assignments, Some(deg))
        }
        // Cancelled ("stop as soon as possible"), or nothing scored: the
        // reference is the best-so-far answer.
        (_, Some(deg)) => return Ok(Verdict::Degraded(reference, k_scores, deg)),
        (best, None) => {
            let (silhouette, assignments) = best.expect("a complete sweep scores every k");
            if config.min_silhouette.is_some_and(|floor| silhouette <= floor) {
                return Ok(Verdict::Floor(reference, k_scores));
            }
            // The per-group phase is atomic: refuse to start it on an
            // exhausted budget (a partial merge would be silently wrong,
            // the one thing a degraded outcome must never be).
            if let Some(deg) = budget.and_then(|b| b.check("per_group_run")) {
                return Ok(Verdict::Degraded(reference, k_scores, deg));
            }
            (silhouette, assignments, None)
        }
    };
    Ok(Verdict::Partition(PartitionedModel {
        reference,
        partition: AttributePartition::from_assignments(attrs, &assignments),
        silhouette,
        k_scores,
        degradation,
    }))
}

/// Unordered pairs among `n` rows.
pub(crate) fn half_pairs(n: usize) -> u64 {
    (n * n.saturating_sub(1) / 2) as u64
}

/// Budget probe between the reference run and the distance-matrix
/// build: full boundary check first, then the distance precharge (the
/// build is all-or-nothing, so a cap it cannot fit under degrades
/// *before* the work starts).
pub(crate) fn exhausted(budget: Option<&Budget>, phase: &str, pairs: u64) -> Option<Degradation> {
    let b = budget?;
    b.check(phase)
        .or_else(|| b.precharge_distance_evals(pairs, "distance_matrix"))
}

/// Step 4's per-group base runs (parallel, panic-isolated), collected in
/// group order with the first error winning deterministically.
///
/// `cached` lets the incremental session substitute an
/// already-computed partial for a group whose claims are untouched:
/// a `Some` entry is returned as-is (counted on
/// [`Counter::PartitionsReused`]) instead of re-running the base
/// algorithm — bit-identical because a group run depends only on the
/// group's claims and the source count, both unchanged for a clean
/// group. Batch-mode callers pass no hits.
pub(crate) fn per_group_partials(
    base: &(dyn TruthDiscovery + Sync),
    dataset: &Dataset,
    groups: &[Vec<AttributeId>],
    mut cached: Vec<Option<TruthResult>>,
    obs: &Observer,
) -> Result<Vec<TruthResult>, TdacError> {
    cached.resize_with(groups.len(), || None);
    let isolated: Vec<Result<TruthResult, TdacError>> = {
        let _s = obs.span("per_group_run");
        cached
            .into_par_iter()
            .enumerate()
            .map(|(gi, hit)| {
                if let Some(hit) = hit {
                    obs.incr(Counter::PartitionsReused, 1);
                    return Ok(hit);
                }
                catch_unwind(AssertUnwindSafe(|| {
                    let _g = obs.span_with(|| format!("per_group_run/group={gi}"));
                    base.discover_observed(&dataset.view_of(&groups[gi]), obs)
                }))
                .map_err(|payload| {
                    obs.incr(Counter::WorkerPanics, 1);
                    TdacError::WorkerPanic {
                        phase: format!("per_group_run/group={gi}"),
                        detail: panic_message(payload.as_ref()),
                    }
                })
            })
            .collect()
    };
    let mut partials = Vec::with_capacity(isolated.len());
    for partial in isolated {
        // First panic in group order wins, deterministically.
        partials.push(partial?);
    }
    Ok(partials)
}

/// Step 5's symmetric merge (union of predictions, element-wise mean
/// trust), reported as the paper's single logical iteration.
pub(crate) fn merge_partials(partials: &[TruthResult], obs: &Observer) -> TruthResult {
    let mut result = {
        let _s = obs.span("merge");
        TruthResult::merge_all(partials)
    };
    result.iterations = 1;
    result
}

/// The store's [`TruthPage`] for `algorithm` in this pipeline mode, when
/// its cached intermediates actually fit the dataset
/// ([`TruthPage::fits`]) and carry a validity mask exactly when the
/// masked pipeline needs one. A page that fails
/// this check is ignored (the run recomputes from scratch) — stale pages
/// must never corrupt an outcome.
pub(crate) fn store_seed<'s>(
    store: &'s DatasetStore,
    algorithm: &str,
    missing_aware: bool,
) -> Option<&'s TruthPage> {
    store.page(algorithm, missing_aware).filter(|page| {
        page.fits(&store.dataset) && page.matrix.mask_words_all().is_some() == missing_aware
    })
}

/// Step 2 for `config`'s pipeline mode: the reference base run and the
/// packed truth vectors of it — Eq. 1 values, plus a validity mask when
/// `missing_aware`.
fn build_truth_bits(
    config: &TdacConfig,
    base: &dyn TruthDiscovery,
    view: &DatasetView<'_>,
    obs: &Observer,
) -> (BitMatrix, TruthResult) {
    if config.missing_aware {
        let (masked, reference) = MaskedTruthVectors::build(base, view, obs);
        (masked.packed, reference)
    } else {
        truth_bits(base, view, obs)
    }
}

/// The TD-AC algorithm. See the crate docs for the pipeline.
#[derive(Debug, Clone)]
pub struct Tdac {
    config: TdacConfig,
}

impl Tdac {
    /// A TD-AC instance with the given configuration.
    pub fn new(config: TdacConfig) -> Self {
        Self { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &TdacConfig {
        &self.config
    }

    /// Runs TD-AC over the whole dataset with base algorithm `base`
    /// (the paper's `F`).
    ///
    /// This is a thin wrapper: exactly [`Tdac::run_view`] on
    /// `dataset.view_all()`. All behaviour (parallelism, observation,
    /// fallback) is defined there — the two entry points can never
    /// drift.
    pub fn run(
        &self,
        base: &(dyn TruthDiscovery + Sync),
        dataset: &Dataset,
    ) -> Result<TdacOutcome, TdacError> {
        self.run_view(base, &dataset.view_all())
    }

    /// Runs TD-AC over an arbitrary view — the canonical entry point.
    ///
    /// Every parallel kernel inside (distance matrices, the k-sweep, the
    /// per-group base runs) executes under the configured
    /// [`crate::config::Parallelism`] (resolved through
    /// [`crate::TdacConfig::effective_parallelism`]); the outcome is
    /// bit-identical at any thread count. When the config carries an
    /// enabled [`td_obs::Observer`], the outcome's `profile` holds this
    /// run's phase timings and counter deltas.
    ///
    /// # Errors
    /// [`TdacError::InvalidConfig`] when the config's backend is
    /// [`crate::ExecutionBackend::Sharded`] — this entry point executes
    /// in-process only; hand a sharded config to `td_shard::ShardRunner`
    /// (or `tdc shard`) instead.
    pub fn run_view(
        &self,
        base: &(dyn TruthDiscovery + Sync),
        view: &DatasetView<'_>,
    ) -> Result<TdacOutcome, TdacError> {
        self.run_view_seeded(base, view, None)
    }

    /// Runs TD-AC against a store-backed dataset.
    ///
    /// When the store carries a [`TruthPage`] for this base algorithm
    /// and pipeline mode (dense vs `missing_aware`) whose dimensions
    /// match the dataset, the pipeline's **build phase is skipped
    /// entirely**: the reference truth and the Eq. 1 truth-vector matrix
    /// come straight from the page instead of re-running the base
    /// algorithm and the scatter pass. Because the page stores the
    /// reference verbatim (trust and confidence at full `f64` bit
    /// precision) and the packed matrix in its canonical word layout,
    /// the outcome is bit-identical to [`Tdac::run`] on the same
    /// dataset. A missing or mismatched page degrades gracefully to the
    /// from-scratch path — never an error.
    ///
    /// Pages are produced by [`Tdac::pack`] (or `tdc pack`).
    pub fn run_store(
        &self,
        base: &(dyn TruthDiscovery + Sync),
        store: &DatasetStore,
    ) -> Result<TdacOutcome, TdacError> {
        let seed = store_seed(store, base.name(), self.config.missing_aware);
        self.run_view_seeded(base, &store.dataset.view_all(), seed)
    }

    /// Packs `dataset` into a [`DatasetStore`] carrying one
    /// [`TruthPage`] for this configuration's pipeline mode: the base
    /// algorithm's reference truth plus the bit-packed Eq. 1 matrix,
    /// exactly the intermediates [`Tdac::run_store`] needs to skip the
    /// build phase. The base run is recorded against the configured
    /// observer like any other run.
    pub fn pack(
        &self,
        base: &(dyn TruthDiscovery + Sync),
        dataset: &Dataset,
    ) -> DatasetStore {
        let (matrix, reference) =
            build_truth_bits(&self.config, base, &dataset.view_all(), &self.config.observer);
        let mut store = DatasetStore::new(dataset.clone());
        store.push_page(TruthPage {
            algorithm: base.name().to_string(),
            masked: self.config.missing_aware,
            matrix,
            reference,
        });
        store
    }

    /// Model selection only (steps 1–3), for an external coordinator
    /// that will execute the per-group runs itself — see
    /// [`ModelSelection`]. Runs under the same parallelism, budget, and
    /// panic-isolation spine as [`Tdac::run_view`]; a `Complete`
    /// selection carries the run's profile, a `Partitioned` one leaves
    /// profiling to the coordinator (the run is not over).
    ///
    /// Unlike [`Tdac::run_view`], this accepts a sharded backend — it
    /// is the coordinator half of executing one.
    pub fn select_model_view(
        &self,
        base: &(dyn TruthDiscovery + Sync),
        view: &DatasetView<'_>,
    ) -> Result<ModelSelection, TdacError> {
        self.select_model_seeded(base, view, None)
    }

    /// [`Tdac::select_model_view`] against a store-backed dataset,
    /// seeding the build phase from a matching [`TruthPage`] exactly
    /// like [`Tdac::run_store`].
    pub fn select_model_store(
        &self,
        base: &(dyn TruthDiscovery + Sync),
        store: &DatasetStore,
    ) -> Result<ModelSelection, TdacError> {
        let seed = store_seed(store, base.name(), self.config.missing_aware);
        self.select_model_seeded(base, &store.dataset.view_all(), seed)
    }

    fn select_model_seeded(
        &self,
        base: &(dyn TruthDiscovery + Sync),
        view: &DatasetView<'_>,
        seed: Option<&TruthPage>,
    ) -> Result<ModelSelection, TdacError> {
        let (mut selection, profile) = run_spine(&self.config, |obs, budget| {
            self.select_inner(base, view, obs, budget, seed)
        })?;
        if let ModelSelection::Complete(outcome) = &mut selection {
            outcome.profile = profile;
        }
        Ok(selection)
    }

    fn run_view_seeded(
        &self,
        base: &(dyn TruthDiscovery + Sync),
        view: &DatasetView<'_>,
        seed: Option<&TruthPage>,
    ) -> Result<TdacOutcome, TdacError> {
        if self.config.backend.is_sharded() {
            return Err(TdacError::InvalidConfig(
                "config.backend is Sharded: Tdac::run executes in-process only — hand this \
                 config to td_shard::ShardRunner (or `tdc shard`) instead"
                    .to_string(),
            ));
        }
        let (mut outcome, profile) = run_spine(&self.config, |obs, budget| {
            match self.select_inner(base, view, obs, budget, seed)? {
                ModelSelection::Complete(outcome) => Ok(outcome),
                ModelSelection::Partitioned(model) => {
                    // Step 4 + 5: per-group base runs (parallel,
                    // panic-isolated, collected in group order) and the
                    // symmetric merge.
                    let groups = model.partition.groups();
                    let partials =
                        per_group_partials(base, view.dataset(), groups, Vec::new(), obs)?;
                    Ok(model.assemble(&partials, obs))
                }
            }
        })?;
        outcome.profile = profile;
        Ok(outcome)
    }

    fn select_inner(
        &self,
        base: &(dyn TruthDiscovery + Sync),
        view: &DatasetView<'_>,
        obs: &Observer,
        budget: Option<&Budget>,
        seed: Option<&TruthPage>,
    ) -> Result<ModelSelection, TdacError> {
        let config = &self.config;
        let attrs = view.attributes();
        if attrs.is_empty() {
            return Err(TdacError::NoAttributes);
        }
        // The un-partitioned answer: one base run over the whole view.
        let fallback = |k_scores| {
            let result = {
                let _s = obs.span("per_group_run");
                base.discover_observed(view, obs)
            };
            ModelSelection::Complete(TdacOutcome::whole(result, attrs, k_scores, None))
        };
        let degraded = |reference, k_scores, deg| {
            ModelSelection::Complete(TdacOutcome::whole(reference, attrs, k_scores, Some(deg)))
        };

        // With |A| ≤ 2 Algorithm 1's range k ∈ [2, |A|-1] is empty and
        // partitioning is meaningless — run the base algorithm
        // unpartitioned.
        let ks = config.k_range(attrs.len());
        if ks.is_empty() {
            return Ok(fallback(Vec::new()));
        }

        // Step 2 + 3: attribute truth vectors from the base algorithm's
        // reference truth, then the silhouette-guided sweep. The pairwise
        // distance matrix is computed exactly **once** and drives every
        // k's clustering and silhouette, turning the per-k O(n²·d)
        // distance work into O(n²) lookups.
        //
        // Budget probes sit at the *sequential* boundaries between
        // phases (deterministic counter values at any thread count);
        // inside the parallel sweep only the cheap cancel/deadline probe
        // runs. Every degraded exit reuses the already-computed reference
        // result as the best-so-far answer instead of starting new work.
        //
        // One options value drives every distance-matrix build of the
        // run: the configured kernel policy plus the run's observer. A
        // matching store page replaces both the reference base run and
        // the scatter pass (see `run_store`).
        let dist_opts = config.distance_options(obs);
        let pairs = half_pairs(attrs.len());
        // A matching page lends its packed matrix; the sweep borrows the
        // rows either way.
        let built;
        let (bits, reference) = {
            let _s = obs.span("truth_vectors");
            match seed {
                Some(p) => (&p.matrix, p.reference.clone()),
                None => {
                    let reference;
                    (built, reference) = build_truth_bits(config, base, view, obs);
                    (&built, reference)
                }
            }
        };
        if let Some(deg) = exhausted(budget, "truth_vectors", pairs) {
            return Ok(degraded(reference, Vec::new(), deg));
        }
        let dist = {
            let _s = obs.span("distance_matrix");
            obs.incr(Counter::DistCacheMisses, 1);
            if config.missing_aware {
                masked::distance_matrix(bits, dist_opts.kernel, &dist_opts.observer)
            } else {
                dist_opts.pairwise(bits, config.metric.as_metric())
            }
        };
        // The missing-aware variant clusters with PAM: k-means has no
        // feature-space form for the masked metric.
        let method = if config.missing_aware {
            ClusterMethod::Pam
        } else {
            config.method
        };
        let evals = sweep(config, method, Rows::Packed(bits), &dist, &ks, &dist_opts, budget);
        Ok(match select_partition(config, attrs, &ks, evals, budget, reference)? {
            Verdict::Partition(model) => ModelSelection::Partitioned(model),
            Verdict::Floor(_, k_scores) => fallback(k_scores),
            Verdict::Degraded(reference, k_scores, deg) => degraded(reference, k_scores, deg),
        })
    }
}


#[cfg(test)]
mod tests {
    use super::*;
    use clustering::{KMeans, Matrix};
    use crate::config::{MetricKind, Parallelism};
    use crate::truth_vectors::truth_vector_set;
    use td_algorithms::{Accu, MajorityVote};
    use td_model::{DatasetBuilder, Value};
    use td_obs::Observer;

    /// Two planted attribute groups with opposite source reliabilities:
    /// sources g1, g2 are right on attributes a0..a2; sources h1, h2 on
    /// a3..a5; a fifth source answers randomly-ish (fixed wrong values).
    fn correlated_dataset() -> (Dataset, AttributePartition) {
        let mut b = DatasetBuilder::new();
        for o in 0..6 {
            let obj = format!("o{o}");
            for ai in 0..3u32 {
                let a = format!("a{ai}");
                b.claim("g1", &obj, &a, Value::int(o)).unwrap();
                b.claim("g2", &obj, &a, Value::int(o)).unwrap();
                b.claim("h1", &obj, &a, Value::int(1000 + o + ai as i64)).unwrap();
                b.claim("h2", &obj, &a, Value::int(2000 + o + ai as i64)).unwrap();
            }
            for ai in 3..6u32 {
                let a = format!("a{ai}");
                b.claim("g1", &obj, &a, Value::int(3000 + o + ai as i64)).unwrap();
                b.claim("g2", &obj, &a, Value::int(4000 + o + ai as i64)).unwrap();
                b.claim("h1", &obj, &a, Value::int(o)).unwrap();
                b.claim("h2", &obj, &a, Value::int(o)).unwrap();
            }
        }
        let d = b.build();
        let group_a: Vec<_> = (0..3).map(|i| d.attribute_id(&format!("a{i}")).unwrap()).collect();
        let group_b: Vec<_> = (3..6).map(|i| d.attribute_id(&format!("a{i}")).unwrap()).collect();
        let planted = AttributePartition::new(vec![group_a, group_b]);
        (d, planted)
    }

    use td_model::Dataset;

    #[test]
    fn recovers_planted_partition() {
        let (d, planted) = correlated_dataset();
        let out = Tdac::new(TdacConfig::default()).run(&MajorityVote, &d).unwrap();
        assert!(!out.fallback);
        assert_eq!(
            out.partition, planted,
            "TD-AC should recover the planted grouping; got {} (sil {:.3}, scores {:?})",
            out.partition, out.silhouette, out.k_scores
        );
        assert!(out.silhouette > 0.5);
    }

    #[test]
    fn predicts_every_cell_exactly_once() {
        let (d, _) = correlated_dataset();
        let out = Tdac::new(TdacConfig::default()).run(&MajorityVote, &d).unwrap();
        assert_eq!(out.result.len(), d.n_cells());
        assert_eq!(out.result.iterations, 1);
    }

    #[test]
    fn k_scores_cover_algorithm_one_range() {
        let (d, _) = correlated_dataset();
        let out = Tdac::new(TdacConfig::default()).run(&MajorityVote, &d).unwrap();
        let ks: Vec<usize> = out.k_scores.iter().map(|&(k, _)| k).collect();
        assert_eq!(ks, vec![2, 3, 4, 5], "k ∈ [2, |A|-1] for |A| = 6");
    }

    #[test]
    fn silhouette_ties_keep_the_smallest_k() {
        // k = 2 and k = 3 tie: the strict `>` of Algorithm 1's
        // comparison keeps the first (smallest) k.
        let attrs: Vec<AttributeId> = (0..4).map(AttributeId::new).collect();
        let evals: Vec<KEval> = vec![
            Ok(Some((vec![0, 0, 1, 1], 0.5))),
            Ok(Some((vec![0, 1, 2, 2], 0.5))),
            Ok(Some((vec![0, 1, 2, 3], 0.25))),
        ];
        let config = TdacConfig::default();
        let reference = TruthResult::with_sources(0, 0.0);
        let Ok(Verdict::Partition(model)) =
            select_partition(&config, &attrs, &[2, 3, 4], evals, None, reference)
        else {
            panic!("a complete sweep selects a partition");
        };
        assert_eq!(model.partition, AttributePartition::from_assignments(&attrs, &[0, 0, 1, 1]));
        assert_eq!(model.silhouette, 0.5);
        assert_eq!(model.k_scores, vec![(2, 0.5), (3, 0.5), (4, 0.25)]);
        assert!(model.degradation.is_none());
    }

    #[test]
    fn sweep_groups_the_paper_running_example() {
        // Table 2 of the paper: rows = attributes Q1..Q3 over 6
        // (object, source) columns; Q1 and Q3 are identical, Q2 differs.
        let data = Matrix::from_rows(&[
            vec![1.0, 0.0, 0.0, 0.0, 1.0, 1.0],
            vec![0.0, 0.0, 1.0, 1.0, 0.0, 1.0],
            vec![1.0, 0.0, 0.0, 0.0, 1.0, 1.0],
        ]);
        let config = TdacConfig::default();
        let opts = DistanceOptions::default();
        let dist = opts.pairwise(&data, config.metric.as_metric());
        let ks = config.k_range(3);
        assert_eq!(ks, vec![2]);
        let evals = sweep(
            &config,
            config.method,
            (&data).into(),
            &dist,
            &ks,
            &opts,
            None,
        );
        let q: Vec<AttributeId> = (0..3).map(AttributeId::new).collect();
        let reference = TruthResult::with_sources(0, 0.0);
        let Ok(Verdict::Partition(model)) =
            select_partition(&config, &q, &ks, evals, None, reference)
        else {
            panic!("k = 2 must be selected");
        };
        let expected = AttributePartition::new(vec![vec![q[0], q[2]], vec![q[1]]]);
        assert_eq!(model.partition, expected, "Q1 and Q3 are correlated, Q2 stands apart");
    }

    /// Serializes the parts of an outcome the store path must preserve
    /// bit-for-bit (the canonical serde repr sorts predictions, and
    /// floats round-trip exactly through serde_json).
    fn outcome_key(out: &TdacOutcome) -> (String, String, Vec<(usize, u64)>, u64, bool) {
        (
            serde_json::to_string(&out.result).unwrap(),
            out.partition.to_string(),
            out.k_scores.iter().map(|&(k, s)| (k, s.to_bits())).collect(),
            out.silhouette.to_bits(),
            out.fallback,
        )
    }

    #[test]
    fn store_backed_run_is_bit_identical_to_in_memory() {
        let (d, _) = correlated_dataset();
        let tdac = Tdac::new(TdacConfig::default());
        let fresh = tdac.run(&MajorityVote, &d).unwrap();
        let store = tdac.pack(&MajorityVote, &d);
        let seeded = tdac.run_store(&MajorityVote, &store).unwrap();
        assert_eq!(outcome_key(&fresh), outcome_key(&seeded));
    }

    #[test]
    fn store_backed_masked_run_is_bit_identical_to_in_memory() {
        let (d, _) = correlated_dataset();
        let config = TdacConfig::builder().missing_aware(true).build().unwrap();
        let tdac = Tdac::new(config);
        let fresh = tdac.run(&MajorityVote, &d).unwrap();
        let store = tdac.pack(&MajorityVote, &d);
        assert!(store.page("MajorityVote", true).is_some());
        let seeded = tdac.run_store(&MajorityVote, &store).unwrap();
        assert_eq!(outcome_key(&fresh), outcome_key(&seeded));
    }

    #[test]
    fn mismatched_page_falls_back_to_fresh_compute() {
        let (d, _) = correlated_dataset();
        let tdac = Tdac::new(TdacConfig::default());
        // A page packed from a *different* dataset (one attribute group
        // only) must be rejected by the dimension check, not trusted.
        let mut b = DatasetBuilder::new();
        for o in 0..6 {
            let obj = format!("o{o}");
            for ai in 0..3u32 {
                let a = format!("a{ai}");
                b.claim("g1", &obj, &a, Value::int(o)).unwrap();
                b.claim("g2", &obj, &a, Value::int(o)).unwrap();
            }
        }
        let small = b.build();
        let stale_page = tdac
            .pack(&MajorityVote, &small)
            .page("MajorityVote", false)
            .cloned()
            .unwrap();
        let mut store = td_store::DatasetStore::new(d.clone());
        store.push_page(stale_page);
        assert!(store.page("MajorityVote", false).is_some());
        assert!(store_seed(&store, "MajorityVote", false).is_none());
        let fresh = tdac.run(&MajorityVote, &d).unwrap();
        let seeded = tdac.run_store(&MajorityVote, &store).unwrap();
        assert_eq!(outcome_key(&fresh), outcome_key(&seeded));
    }

    #[test]
    fn store_run_skips_the_reference_base_run() {
        // With a valid page the base algorithm only runs in the
        // per-group phase; the reference run over the full view is
        // loaded from the page, so the store-backed profile records
        // strictly fewer fixpoint iterations.
        let (d, _) = correlated_dataset();
        let store = Tdac::new(TdacConfig::default()).pack(&MajorityVote, &d);
        let run = |seeded: bool| {
            let config = TdacConfig::builder()
                .observer(Observer::enabled())
                .build()
                .unwrap();
            let tdac = Tdac::new(config);
            let out = if seeded {
                tdac.run_store(&MajorityVote, &store).unwrap()
            } else {
                tdac.run(&MajorityVote, &d).unwrap()
            };
            let iters = out
                .profile
                .as_ref()
                .unwrap()
                .counter("fixpoint_iterations")
                .unwrap_or(0);
            (outcome_key(&out), iters)
        };
        let (fresh_key, fresh_iters) = run(false);
        let (seeded_key, seeded_iters) = run(true);
        assert_eq!(fresh_key, seeded_key);
        assert!(
            seeded_iters < fresh_iters,
            "store path must skip the reference run ({seeded_iters} vs {fresh_iters})"
        );
    }

    #[test]
    fn two_attribute_dataset_falls_back() {
        let mut b = DatasetBuilder::new();
        b.claim("s1", "o", "a1", Value::int(1)).unwrap();
        b.claim("s1", "o", "a2", Value::int(2)).unwrap();
        let d = b.build();
        let out = Tdac::new(TdacConfig::default()).run(&MajorityVote, &d).unwrap();
        assert!(out.fallback);
        assert_eq!(out.partition.len(), 1);
        assert_eq!(out.result.len(), 2);
    }

    #[test]
    fn empty_view_is_an_error() {
        let d = DatasetBuilder::new().build();
        let err = Tdac::new(TdacConfig::default()).run(&MajorityVote, &d).unwrap_err();
        assert_eq!(err, TdacError::NoAttributes);
    }

    #[test]
    fn silhouette_floor_triggers_fallback() {
        let (d, _) = correlated_dataset();
        let out = Tdac::new(TdacConfig {
            min_silhouette: Some(2.0), // unreachable: always falls back
            ..Default::default()
        })
        .run(&MajorityVote, &d)
        .unwrap();
        assert!(out.fallback);
        assert_eq!(out.result.len(), d.n_cells());
    }

    #[test]
    fn ablation_clusterers_also_recover_structure() {
        let (d, planted) = correlated_dataset();
        for method in [
            ClusterMethod::Pam,
            ClusterMethod::Hierarchical(Linkage::Average),
        ] {
            let out = Tdac::new(TdacConfig {
                method,
                ..Default::default()
            })
            .run(&MajorityVote, &d)
            .unwrap();
            assert_eq!(out.partition, planted, "{method:?}");
        }
    }

    #[test]
    fn works_with_iterative_base_algorithm() {
        let (d, _) = correlated_dataset();
        let out = Tdac::new(TdacConfig::default()).run(&Accu::default(), &d).unwrap();
        assert_eq!(out.result.len(), d.n_cells());
        assert_eq!(out.result.iterations, 1, "TD-AC reports one logical pass");
    }

    #[test]
    fn metric_kinds_all_run() {
        let (d, _) = correlated_dataset();
        for metric in [MetricKind::Hamming, MetricKind::Euclidean, MetricKind::Cosine] {
            let out = Tdac::new(TdacConfig {
                metric,
                ..Default::default()
            })
            .run(&MajorityVote, &d)
            .unwrap();
            assert!(!out.result.is_empty(), "{metric:?}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let (d, _) = correlated_dataset();
        let t = Tdac::new(TdacConfig::default());
        let o1 = t.run(&MajorityVote, &d).unwrap();
        let o2 = t.run(&MajorityVote, &d).unwrap();
        assert_eq!(o1.partition, o2.partition);
        assert_eq!(o1.silhouette, o2.silhouette);
        assert_eq!(o1.k_scores, o2.k_scores);
    }

    #[test]
    fn thread_count_does_not_change_the_outcome() {
        // The acceptance bar for the parallel execution layer: one worker
        // vs. the full pool must agree on every observable field of the
        // outcome, bit-for-bit on the floats.
        let (d, _) = correlated_dataset();
        for base in [&Accu::default() as &(dyn TruthDiscovery + Sync), &MajorityVote] {
            let seq = Tdac::new(TdacConfig {
                backend: crate::ExecutionBackend::in_process(Parallelism::Threads(1)),
                ..Default::default()
            })
            .run(base, &d)
            .unwrap();
            let par = Tdac::new(TdacConfig {
                backend: crate::ExecutionBackend::in_process(Parallelism::Auto),
                ..Default::default()
            })
            .run(base, &d)
            .unwrap();
            assert_eq!(seq.partition, par.partition);
            assert_eq!(seq.silhouette.to_bits(), par.silhouette.to_bits());
            assert_eq!(seq.k_scores.len(), par.k_scores.len());
            for (a, b) in seq.k_scores.iter().zip(&par.k_scores) {
                assert_eq!(a.0, b.0);
                assert_eq!(a.1.to_bits(), b.1.to_bits());
            }
            assert_eq!(seq.result.len(), par.result.len());
            for o in d.object_ids() {
                for a in d.attribute_ids() {
                    assert_eq!(seq.result.prediction(o, a), par.result.prediction(o, a));
                    assert_eq!(
                        seq.result.confidence(o, a).map(f64::to_bits),
                        par.result.confidence(o, a).map(f64::to_bits)
                    );
                }
            }
            let seq_trust: Vec<u64> = seq.result.source_trust.iter().map(|t| t.to_bits()).collect();
            let par_trust: Vec<u64> = par.result.source_trust.iter().map(|t| t.to_bits()).collect();
            assert_eq!(seq_trust, par_trust);
        }
    }

    #[test]
    fn cached_distance_sweep_matches_feature_space_scores() {
        // The k-sweep scores every k from the shared distance matrix;
        // those silhouettes must be bit-identical to evaluating the
        // metric directly on the dense rows, for every metric.
        let (d, _) = correlated_dataset();
        let matrix =
            truth_vector_set(&MajorityVote, &d.view_all(), &td_obs::Observer::disabled()).0.dense;
        for metric in [MetricKind::Hamming, MetricKind::Euclidean, MetricKind::Cosine] {
            let config = TdacConfig {
                metric,
                ..TdacConfig::default()
            };
            let out = Tdac::new(config).run(&MajorityVote, &d).unwrap();
            assert!(!out.k_scores.is_empty());
            for &(k, sil) in &out.k_scores {
                let cfg = KMeansConfig {
                    k,
                    n_init: 10,
                    seed: 42,
                    ..KMeansConfig::with_k(k)
                };
                let asg = KMeans::new(cfg).fit(&matrix).unwrap().assignments;
                let expect = clustering::silhouette_paper(&matrix, &asg, metric.as_metric());
                assert_eq!(sil.to_bits(), expect.to_bits(), "{metric:?}, k = {k}");
            }
        }
    }

    #[test]
    fn masked_sweep_is_thread_count_invariant() {
        let (d, _) = correlated_dataset();
        let cfg = |parallelism| TdacConfig {
            missing_aware: true,
            backend: crate::ExecutionBackend::in_process(parallelism),
            ..Default::default()
        };
        let seq = Tdac::new(cfg(Parallelism::Threads(1))).run(&MajorityVote, &d).unwrap();
        let par = Tdac::new(cfg(Parallelism::Auto)).run(&MajorityVote, &d).unwrap();
        assert_eq!(seq.partition, par.partition);
        assert_eq!(seq.silhouette.to_bits(), par.silhouette.to_bits());
        assert_eq!(seq.k_scores, par.k_scores);
    }

    #[test]
    fn missing_aware_mode_recovers_structure() {
        let (d, planted) = correlated_dataset();
        let out = Tdac::new(TdacConfig {
            missing_aware: true,
            ..Default::default()
        })
        .run(&MajorityVote, &d)
        .unwrap();
        assert_eq!(out.partition, planted, "masked PAM should find the same grouping");
        assert_eq!(out.result.len(), d.n_cells());
        assert!(!out.fallback);
    }

    #[test]
    fn missing_aware_handles_sparse_views() {
        // Drop half the claims: masked mode must still run and predict
        // every remaining cell.
        let mut b = DatasetBuilder::new();
        for o in 0..6 {
            let obj = format!("o{o}");
            for a in 0..4 {
                let attr = format!("a{a}");
                if (o + a) % 2 == 0 {
                    b.claim("s1", &obj, &attr, Value::int(o as i64)).unwrap();
                    b.claim("s2", &obj, &attr, Value::int(100)).unwrap();
                }
            }
        }
        let d = b.build();
        let out = Tdac::new(TdacConfig {
            missing_aware: true,
            ..Default::default()
        })
        .run(&MajorityVote, &d)
        .unwrap();
        assert_eq!(out.result.len(), d.n_cells());
    }

    #[test]
    fn observer_counts_match_closed_forms() {
        // The satellite acceptance check: on the 6-attribute fixture the
        // shared distance matrix is built once, so the distance-eval
        // counter must equal the closed form n·(n−1)/2 exactly, and the
        // sweep must hit the cache once per k ∈ [2, 5].
        let (d, _) = correlated_dataset();
        let obs = Observer::enabled();
        let out = Tdac::new(TdacConfig {
            observer: obs.clone(),
            ..Default::default()
        })
        .run(&MajorityVote, &d)
        .unwrap();
        let profile = out.profile.as_ref().expect("enabled observer ⇒ profile");
        let n = 6u64;
        assert_eq!(profile.counter("distance_evals"), Some(n * (n - 1) / 2));
        assert_eq!(profile.counter("dist_cache_misses"), Some(1));
        assert_eq!(profile.counter("dist_cache_hits"), Some(4));
        // Reference run + one run per group of the winning 2-partition,
        // each a single MajorityVote pass.
        assert_eq!(profile.counter("fixpoint_iterations"), Some(3));
        assert_eq!(profile.counter("fixpoint_iterations/MajorityVote"), Some(3));
        // Lloyd ran for every k and restart at least once each.
        assert!(profile.counter("kmeans_iterations").unwrap() >= 4 * 10);
        assert_eq!(profile.counter("pam_iterations"), Some(0));
        // Span taxonomy is present with sane hit counts.
        for phase in ["truth_vectors", "distance_matrix", "k_sweep", "per_group_run", "merge"] {
            assert_eq!(profile.phase(phase).map(|p| p.count), Some(1), "{phase}");
        }
        assert_eq!(profile.phases_under("k_sweep/").count(), 4);
        assert_eq!(profile.phase("cluster").map(|p| p.count), Some(4));
    }

    #[test]
    fn observation_does_not_change_the_outcome() {
        let (d, _) = correlated_dataset();
        let plain = Tdac::new(TdacConfig::default()).run(&MajorityVote, &d).unwrap();
        let observed = Tdac::new(TdacConfig {
            observer: Observer::enabled(),
            ..Default::default()
        })
        .run(&MajorityVote, &d)
        .unwrap();
        assert!(plain.profile.is_none());
        assert!(observed.profile.is_some());
        assert_eq!(plain.partition, observed.partition);
        assert_eq!(plain.silhouette.to_bits(), observed.silhouette.to_bits());
        assert_eq!(plain.k_scores, observed.k_scores);
    }

    #[test]
    fn reused_observer_reports_per_run_deltas() {
        // One handle across two runs: the second outcome's profile must
        // cover only the second run, not the running totals.
        let (d, _) = correlated_dataset();
        let obs = Observer::enabled();
        let t = Tdac::new(TdacConfig {
            observer: obs.clone(),
            ..Default::default()
        });
        let first = t.run(&MajorityVote, &d).unwrap();
        let second = t.run(&MajorityVote, &d).unwrap();
        let (p1, p2) = (first.profile.unwrap(), second.profile.unwrap());
        assert_eq!(
            p1.counter("distance_evals"),
            p2.counter("distance_evals"),
            "identical runs must report identical deltas"
        );
        assert_eq!(p1.counter("fixpoint_iterations"), p2.counter("fixpoint_iterations"));
        // The handle itself holds the running total of both runs.
        assert_eq!(
            obs.profile().unwrap().counter("distance_evals"),
            p1.counter("distance_evals").map(|v| v * 2)
        );
    }

    #[test]
    fn missing_aware_mode_also_profiles() {
        let (d, _) = correlated_dataset();
        let out = Tdac::new(TdacConfig {
            missing_aware: true,
            observer: Observer::enabled(),
            ..Default::default()
        })
        .run(&MajorityVote, &d)
        .unwrap();
        let profile = out.profile.unwrap();
        assert_eq!(profile.counter("distance_evals"), Some(15));
        assert!(profile.counter("pam_iterations").unwrap() >= 4);
        assert_eq!(profile.counter("kmeans_iterations"), Some(0));
    }

    #[test]
    fn fallback_runs_are_profiled_too() {
        let mut b = DatasetBuilder::new();
        b.claim("s1", "o", "a1", Value::int(1)).unwrap();
        b.claim("s1", "o", "a2", Value::int(2)).unwrap();
        let d = b.build();
        let out = Tdac::new(TdacConfig {
            observer: Observer::enabled(),
            ..Default::default()
        })
        .run(&MajorityVote, &d)
        .unwrap();
        assert!(out.fallback);
        let profile = out.profile.unwrap();
        assert_eq!(profile.counter("fixpoint_iterations"), Some(1));
        assert_eq!(profile.phase("per_group_run").map(|p| p.count), Some(1));
        assert_eq!(profile.counter("distance_evals"), Some(0));
    }

    #[test]
    fn run_on_attribute_subset_view() {
        let (d, _) = correlated_dataset();
        let subset: Vec<_> = d.attribute_ids().take(4).collect();
        let view = d.view_of(&subset);
        let out = Tdac::new(TdacConfig::default())
            .run_view(&MajorityVote, &view)
            .unwrap();
        assert_eq!(out.partition.n_attributes(), 4);
        assert_eq!(out.result.len(), view.n_cells());
    }

    #[test]
    fn unlimited_runs_are_never_flagged_degraded() {
        let (d, _) = correlated_dataset();
        let out = Tdac::new(TdacConfig::default()).run(&MajorityVote, &d).unwrap();
        assert!(out.degradation.is_none());
    }

    #[test]
    fn distance_budget_degrades_to_the_reference_result() {
        use td_obs::ExecutionLimits;
        // 6 attributes ⇒ the matrix needs 15 evals; a cap of 1 can never
        // fit, so the run must degrade *before* the build and hand back
        // the reference (un-partitioned) result, flagged.
        let (d, _) = correlated_dataset();
        let out = Tdac::new(TdacConfig {
            limits: ExecutionLimits::none().with_max_distance_evals(1),
            ..Default::default()
        })
        .run(&MajorityVote, &d)
        .unwrap();
        let deg = out.degradation.as_ref().expect("capped run must be flagged");
        assert_eq!(deg.reason, td_obs::DegradationReason::DistanceEvals(1));
        assert_eq!(deg.phase, "distance_matrix");
        assert_eq!(deg.work.distance_evals, 0, "the build never started");
        assert!(out.fallback);
        assert_eq!(out.partition.len(), 1, "whole-set partition");
        // Best-so-far = the base algorithm's reference run, intact.
        let reference = MajorityVote.discover(&d.view_all());
        assert_eq!(out.result.len(), reference.len());
        for o in d.object_ids() {
            for a in d.attribute_ids() {
                assert_eq!(out.result.prediction(o, a), reference.prediction(o, a));
            }
        }
    }

    #[test]
    fn generous_distance_budget_changes_nothing() {
        use td_obs::ExecutionLimits;
        let (d, _) = correlated_dataset();
        let plain = Tdac::new(TdacConfig::default()).run(&MajorityVote, &d).unwrap();
        let capped = Tdac::new(TdacConfig {
            limits: ExecutionLimits::none().with_max_distance_evals(15),
            ..Default::default()
        })
        .run(&MajorityVote, &d)
        .unwrap();
        // Exactly filling the cap is a *complete* run, not a degraded one.
        assert!(capped.degradation.is_none());
        assert_eq!(capped.partition, plain.partition);
        assert_eq!(capped.silhouette.to_bits(), plain.silhouette.to_bits());
        assert_eq!(capped.k_scores, plain.k_scores);
        assert!(capped.profile.is_none(), "user observer stays disabled");
    }

    #[test]
    fn fixpoint_budget_degrades_after_the_reference_run() {
        use td_obs::ExecutionLimits;
        // Accu iterates; a 1-iteration budget is consumed by the
        // reference run itself, so the pipeline stops at the first
        // boundary with the reference as the answer.
        let (d, _) = correlated_dataset();
        let out = Tdac::new(TdacConfig {
            limits: ExecutionLimits::none().with_max_fixpoint_iterations(1),
            ..Default::default()
        })
        .run(&Accu::default(), &d)
        .unwrap();
        let deg = out.degradation.as_ref().expect("budget must fire");
        assert_eq!(deg.reason, td_obs::DegradationReason::FixpointIterations(1));
        assert_eq!(deg.phase, "truth_vectors");
        assert!(deg.work.fixpoint_iterations >= 1);
        assert!(out.fallback);
        assert_eq!(out.result.len(), d.n_cells());
    }

    #[test]
    fn pre_cancelled_run_returns_flagged_reference() {
        use td_obs::{CancelToken, ExecutionLimits};
        let (d, _) = correlated_dataset();
        let token = CancelToken::new();
        token.cancel();
        let out = Tdac::new(TdacConfig {
            limits: ExecutionLimits::none().with_cancel(token),
            ..Default::default()
        })
        .run(&MajorityVote, &d)
        .unwrap();
        let deg = out.degradation.as_ref().expect("cancelled run must be flagged");
        assert_eq!(deg.reason, td_obs::DegradationReason::Cancelled);
        assert!(out.fallback);
        assert_eq!(out.result.len(), d.n_cells());
    }

    #[test]
    fn counter_degraded_outcomes_are_thread_count_invariant() {
        use td_obs::ExecutionLimits;
        // Oracle (c) of the chaos harness, at the unit level: counter
        // budgets are probed at sequential boundaries, so the degraded
        // outcome is identical at any thread count (elapsed_ms aside).
        let (d, _) = correlated_dataset();
        let run = |parallelism| {
            Tdac::new(TdacConfig {
                backend: crate::ExecutionBackend::in_process(parallelism),
                limits: ExecutionLimits::none().with_max_distance_evals(1),
                ..Default::default()
            })
            .run(&MajorityVote, &d)
            .unwrap()
        };
        let seq = run(Parallelism::Threads(1));
        for parallelism in [Parallelism::Threads(2), Parallelism::Threads(8), Parallelism::Auto] {
            let par = run(parallelism);
            let (a, b) = (seq.degradation.as_ref().unwrap(), par.degradation.as_ref().unwrap());
            assert_eq!(a.reason, b.reason);
            assert_eq!(a.phase, b.phase);
            assert_eq!(a.work.distance_evals, b.work.distance_evals);
            assert_eq!(a.work.fixpoint_iterations, b.work.fixpoint_iterations);
            assert_eq!(seq.partition, par.partition);
            let t1: Vec<u64> = seq.result.source_trust.iter().map(|t| t.to_bits()).collect();
            let t2: Vec<u64> = par.result.source_trust.iter().map(|t| t.to_bits()).collect();
            assert_eq!(t1, t2);
        }
    }

    #[test]
    fn budget_checks_are_visible_on_the_profile() {
        use td_obs::ExecutionLimits;
        let (d, _) = correlated_dataset();
        let out = Tdac::new(TdacConfig {
            observer: Observer::enabled(),
            limits: ExecutionLimits::none().with_max_distance_evals(1),
            ..Default::default()
        })
        .run(&MajorityVote, &d)
        .unwrap();
        let profile = out.profile.expect("enabled observer ⇒ profile");
        assert!(profile.counter("budget_checks").unwrap() >= 1);
        assert_eq!(profile.counter("degraded_runs"), Some(1));
        assert_eq!(profile.counter("worker_panics"), Some(0));
    }

    /// A base algorithm that panics on any proper attribute subset —
    /// healthy on the full view (reference run), poisoned inside the
    /// per-group workers.
    struct PanicsOnSubset {
        full: usize,
    }

    impl TruthDiscovery for PanicsOnSubset {
        fn name(&self) -> &'static str {
            "PanicsOnSubset"
        }

        fn discover(&self, view: &DatasetView<'_>) -> TruthResult {
            assert!(
                view.attributes().len() >= self.full,
                "injected per-group failure"
            );
            MajorityVote.discover(view)
        }
    }

    #[test]
    fn per_group_worker_panic_surfaces_as_typed_error() {
        let (d, _) = correlated_dataset();
        let base = PanicsOnSubset { full: 6 };
        let err = Tdac::new(TdacConfig::default()).run(&base, &d).unwrap_err();
        let TdacError::WorkerPanic { phase, detail } = err else {
            panic!("expected WorkerPanic, got {err:?}");
        };
        assert!(
            phase.starts_with("per_group_run/group="),
            "panic must name the group, got `{phase}`"
        );
        assert!(detail.contains("injected per-group failure"), "{detail}");
    }

    #[test]
    fn per_group_panics_pick_the_smallest_group_deterministically() {
        // Both groups panic; the reported phase must be group 0 at any
        // thread count (first-in-group-order wins).
        let (d, _) = correlated_dataset();
        let base = PanicsOnSubset { full: 6 };
        for parallelism in [Parallelism::Threads(1), Parallelism::Threads(8), Parallelism::Auto] {
            let err = Tdac::new(TdacConfig {
                backend: crate::ExecutionBackend::in_process(parallelism),
                ..Default::default()
            })
            .run(&base, &d)
            .unwrap_err();
            let TdacError::WorkerPanic { phase, .. } = err else {
                panic!("expected WorkerPanic");
            };
            assert_eq!(phase, "per_group_run/group=0", "{parallelism:?}");
        }
    }

    #[test]
    fn reference_run_panic_is_caught_at_the_pipeline_boundary() {
        // A panic outside any worker boundary (the sequential reference
        // run) is still converted, with the coarse `pipeline` phase.
        struct AlwaysPanics;
        impl TruthDiscovery for AlwaysPanics {
            fn name(&self) -> &'static str {
                "AlwaysPanics"
            }
            fn discover(&self, _view: &DatasetView<'_>) -> TruthResult {
                panic!("poisoned base algorithm")
            }
        }
        let (d, _) = correlated_dataset();
        let err = Tdac::new(TdacConfig::default()).run(&AlwaysPanics, &d).unwrap_err();
        let TdacError::WorkerPanic { phase, detail } = err else {
            panic!("expected WorkerPanic, got {err:?}");
        };
        assert_eq!(phase, "pipeline");
        assert!(detail.contains("poisoned base algorithm"));
    }

    #[test]
    fn worker_panics_are_counted_on_the_observer() {
        let (d, _) = correlated_dataset();
        let obs = Observer::enabled();
        let base = PanicsOnSubset { full: 6 };
        let _ = Tdac::new(TdacConfig {
            observer: obs.clone(),
            ..Default::default()
        })
        .run(&base, &d)
        .unwrap_err();
        assert!(obs.counter_value(td_obs::Counter::WorkerPanics) >= 1);
    }
}
