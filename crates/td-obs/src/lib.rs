//! Offline observability for the TD-AC pipeline.
//!
//! The pipeline's hot paths (distance matrix, k-sweep, clusterers,
//! per-group fixpoints, AccuGen's partition scan) are instrumented with
//! two primitives:
//!
//! - **Phase spans** ([`Observer::span`]): hierarchical wall-clock
//!   timers keyed by a `/`-separated path (`k_sweep/k=3`). Each span
//!   records its elapsed monotonic time when dropped; repeated spans on
//!   the same path aggregate (total nanoseconds + hit count).
//! - **Counters** ([`Observer::incr`]): atomic tallies of work units —
//!   distance evaluations, k-means/PAM iterations, fixpoint iterations,
//!   partitions scanned, distance-matrix cache hits/misses.
//!
//! Everything hangs off a cheap, cloneable [`Observer`] handle carried
//! inside the pipeline configuration. The default handle is **disabled**
//! and compiles to near-zero overhead: no clock reads, no allocation,
//! no atomics — every call short-circuits on a `None` check. An enabled
//! handle ([`Observer::enabled`]) shares one set of counters and phase
//! aggregates across clones, so rayon workers can record concurrently.
//!
//! Observation is **determinism-neutral by construction**: the observer
//! only reads clocks and bumps counters; it never feeds back into
//! control flow, so results are bit-identical with observation on or
//! off, at any thread count (td-verify asserts this).
//!
//! A [`RunProfile`] snapshot serializes the aggregates for reports such
//! as `BENCH_tdac.json`; [`RunProfile::delta_since`] isolates a single
//! run when a handle is reused. See `docs/OBSERVABILITY.md` for the
//! full span taxonomy and counter semantics.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

pub mod limits;
pub use limits::{
    panic_message, Budget, CancelToken, Degradation, DegradationReason, ExecutionLimits,
    ShardFault, WorkCompleted,
};

/// Fixed work-unit counters tracked by every enabled [`Observer`].
///
/// Fixed counters are plain atomics — safe to bump from rayon workers
/// with no lock. Per-algorithm fixpoint tallies additionally go to a
/// labeled counter (`fixpoint_iterations/<algorithm>`), see
/// [`Observer::record_discovery`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// Pairwise distance evaluations performed while *building* a
    /// distance matrix (upper triangle only: n·(n−1)/2 per build).
    DistanceEvals = 0,
    /// Lloyd iterations summed over every k-means restart.
    KMeansIterations = 1,
    /// PAM SWAP rounds (the BUILD step counts as iteration 0).
    PamIterations = 2,
    /// Base-algorithm fixpoint iterations summed over every observed
    /// `discover` call (majority voting counts as one iteration).
    FixpointIterations = 3,
    /// Attribute partitions evaluated by AccuGen (brute-force scan or
    /// greedy merge candidates).
    PartitionsScanned = 4,
    /// Consumers that *reused* the shared distance matrix instead of
    /// recomputing it (one per k in the sweep).
    DistCacheHits = 5,
    /// Shared distance-matrix builds (each is a cache miss the whole
    /// k-sweep then amortizes).
    DistCacheMisses = 6,
    /// Distance-matrix builds that ran on the bit-packed popcount
    /// kernel instead of the dense `f64` loop (one per build, not per
    /// pair — `DistanceEvals` still counts the pairs).
    PackedKernelInvocations = 7,
    /// Total `u64` words XORed by the packed kernel (pairs ×
    /// words-per-row); the packed analogue of `DistanceEvals × d`.
    WordsXored = 8,
    /// Budget probes performed at sequential phase boundaries by an
    /// armed [`Budget`] (zero when no [`ExecutionLimits`] are set —
    /// limit checks never run on unlimited configs).
    BudgetChecks = 9,
    /// Runs that exhausted a budget (or were cancelled) and returned a
    /// best-so-far outcome flagged with a [`Degradation`] record.
    DegradedRuns = 10,
    /// Worker panics caught at a task boundary and converted into a
    /// typed `WorkerPanic` error instead of aborting the process.
    WorkerPanics = 11,
    /// Attributes whose truth vectors had to be recomputed by an
    /// incremental `ingest()` (touched by delta claims or by a changed
    /// reference prediction).
    DirtyAttributes = 12,
    /// Partition groups whose cached per-group `TruthResult` was reused
    /// by an incremental `ingest()` instead of re-running the base
    /// algorithm.
    PartitionsReused = 13,
    /// Full re-partitions (k-sweeps) scheduled by the drift trigger or
    /// forced by structural growth during incremental ingestion.
    DriftRepartitions = 14,
    /// Bytes handed to the `td-store` decoder: the length of every
    /// `.tds` load's bytes, whether or not they decode.
    BytesMapped = 15,
    /// Worker processes spawned by the `td-shard` coordinator (one per
    /// shard actually launched, including chaos-killed ones).
    ShardsSpawned = 16,
    /// Per-group partial `TruthResult`s received from shard workers and
    /// accepted into the merge.
    ShardPartials = 17,
    /// Shard attempts that faulted (worker death, stall past the
    /// coordinator's patience, or protocol garble). Under the default
    /// fail-fast policy a fault aborts the distributed phase; under a
    /// retry policy it schedules a retry or an in-process fallback
    /// instead — either way the fault itself is tallied here.
    ShardFailures = 18,
    /// Shard faults answered with a scheduled retry (backoff + respawn)
    /// instead of aborting the run.
    ShardRetries = 19,
    /// Worker processes re-spawned from their persisted `.tds` slice
    /// after a backoff window elapsed.
    ShardRespawns = 20,
    /// Shards whose retry budget exhausted and whose jobs the
    /// coordinator therefore ran in-process, flagging the outcome with
    /// a `ShardFallback` degradation (never thinning the merge).
    ShardFallbacks = 21,
    /// k-means fits (one per `fit` call, all restarts included) that ran
    /// on the exact packed path instead of the dense `f64` Lloyd loop.
    KMeansPackedFits = 22,
    /// Rows, summed over every packed Lloyd iteration and restart, whose
    /// winner was picked by the dense `f64` formula: the exact screen
    /// left a candidate of more than one member, whose score only that
    /// formula gives bit for bit.
    KMeansRechecks = 23,
}

impl Counter {
    /// Number of fixed counters (the backing array length).
    pub const COUNT: usize = 24;

    /// All fixed counters, in serialization order.
    pub const ALL: [Counter; Counter::COUNT] = [
        Counter::DistanceEvals,
        Counter::KMeansIterations,
        Counter::PamIterations,
        Counter::FixpointIterations,
        Counter::PartitionsScanned,
        Counter::DistCacheHits,
        Counter::DistCacheMisses,
        Counter::PackedKernelInvocations,
        Counter::WordsXored,
        Counter::BudgetChecks,
        Counter::DegradedRuns,
        Counter::WorkerPanics,
        Counter::DirtyAttributes,
        Counter::PartitionsReused,
        Counter::DriftRepartitions,
        Counter::BytesMapped,
        Counter::ShardsSpawned,
        Counter::ShardPartials,
        Counter::ShardFailures,
        Counter::ShardRetries,
        Counter::ShardRespawns,
        Counter::ShardFallbacks,
        Counter::KMeansPackedFits,
        Counter::KMeansRechecks,
    ];

    /// Stable snake_case name used in [`RunProfile`] and JSON reports.
    pub fn name(self) -> &'static str {
        match self {
            Counter::DistanceEvals => "distance_evals",
            Counter::KMeansIterations => "kmeans_iterations",
            Counter::PamIterations => "pam_iterations",
            Counter::FixpointIterations => "fixpoint_iterations",
            Counter::PartitionsScanned => "partitions_scanned",
            Counter::DistCacheHits => "dist_cache_hits",
            Counter::DistCacheMisses => "dist_cache_misses",
            Counter::PackedKernelInvocations => "packed_kernel_invocations",
            Counter::WordsXored => "words_xored",
            Counter::BudgetChecks => "budget_checks",
            Counter::DegradedRuns => "degraded_runs",
            Counter::WorkerPanics => "worker_panics",
            Counter::DirtyAttributes => "dirty_attributes",
            Counter::PartitionsReused => "partitions_reused",
            Counter::DriftRepartitions => "drift_repartitions",
            Counter::BytesMapped => "bytes_mapped",
            Counter::ShardsSpawned => "shards_spawned",
            Counter::ShardPartials => "shard_partials",
            Counter::ShardFailures => "shard_failures",
            Counter::ShardRetries => "shard_retries",
            Counter::ShardRespawns => "shard_respawns",
            Counter::ShardFallbacks => "shard_fallbacks",
            Counter::KMeansPackedFits => "kmeans_packed_fits",
            Counter::KMeansRechecks => "kmeans_rechecks",
        }
    }
}

/// A hook fired at every phase boundary an enabled observer sees: once
/// when a span opens (`k_sweep/k=3`, `per_group_run/group=0`, …) and
/// once per explicit [`Observer::checkpoint`]. The pipeline never
/// installs one; it exists so test harnesses (td-verify's chaos module)
/// can inject faults — panics, delays, cancellations — at precise
/// points without touching pipeline code. Hooks run on whatever thread
/// hits the boundary, so implementations must be `Send + Sync`.
///
/// A hook that panics is indistinguishable from pipeline code panicking
/// at that boundary — exactly the property chaos testing needs.
pub trait PhaseHook: Send + Sync {
    /// Called with the `/`-separated phase path.
    fn on_phase(&self, path: &str);
}

#[derive(Default)]
struct PhaseAgg {
    total_ns: u64,
    count: u64,
}

/// Shared state behind an enabled observer. Fixed counters are
/// lock-free; phase aggregates and labeled counters sit behind a mutex
/// that is only touched on span drop / labeled increment (cold relative
/// to the work they measure).
struct ObsCore {
    counters: [AtomicU64; Counter::COUNT],
    phases: Mutex<BTreeMap<String, PhaseAgg>>,
    labeled: Mutex<BTreeMap<String, u64>>,
    /// Test-harness fault-injection point; `None` in every production
    /// configuration (see [`PhaseHook`]).
    hook: Option<Arc<dyn PhaseHook>>,
}

impl ObsCore {
    fn new() -> Self {
        Self::with_hook(None)
    }

    fn with_hook(hook: Option<Arc<dyn PhaseHook>>) -> Self {
        Self {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            phases: Mutex::new(BTreeMap::new()),
            labeled: Mutex::new(BTreeMap::new()),
            hook,
        }
    }
}

/// Cheap handle to the instrumentation state (or to nothing at all).
///
/// `Observer::default()` is the **disabled** handle: every method is a
/// no-op behind a single `Option` check, so plain-struct configs pay
/// essentially nothing for the instrumentation hooks. Clone an
/// [`Observer::enabled`] handle into a config to collect a profile;
/// clones share state, so the handle you kept and the one the pipeline
/// carries see the same aggregates.
#[derive(Clone, Default)]
pub struct Observer {
    core: Option<Arc<ObsCore>>,
}

impl fmt::Debug for Observer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.core.is_some() {
            "Observer(enabled)"
        } else {
            "Observer(disabled)"
        })
    }
}

impl Observer {
    /// The no-op handle (same as `Observer::default()`).
    pub const fn disabled() -> Self {
        Self { core: None }
    }

    /// A live handle with fresh counters and phase aggregates.
    pub fn enabled() -> Self {
        Self {
            core: Some(Arc::new(ObsCore::new())),
        }
    }

    /// An enabled handle with a [`PhaseHook`] fired at every phase
    /// boundary — the chaos-injection entry point used by td-verify.
    pub fn with_hook(hook: Arc<dyn PhaseHook>) -> Self {
        Self {
            core: Some(Arc::new(ObsCore::with_hook(Some(hook)))),
        }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.core.is_some()
    }

    /// Current value of a fixed counter (`0` when disabled). Cheap
    /// relaxed load; used by [`Budget`] to compare work done against
    /// configured limits without any extra bookkeeping in hot loops.
    pub fn counter_value(&self, counter: Counter) -> u64 {
        match &self.core {
            Some(core) => core.counters[counter as usize].load(Ordering::Relaxed),
            None => 0,
        }
    }

    /// Fires the phase hook (if any) at an explicit boundary that has no
    /// span of its own — e.g. once per partition inside AccuGen's scan,
    /// where a timed span per Bell(n) item would be pure overhead. No-op
    /// unless this handle was built with [`Observer::with_hook`].
    pub fn checkpoint(&self, path: &str) {
        if let Some(core) = &self.core {
            if let Some(hook) = &core.hook {
                hook.on_phase(path);
            }
        }
    }

    /// Adds `n` to a fixed counter. Lock-free; no-op when disabled.
    pub fn incr(&self, counter: Counter, n: u64) {
        if let Some(core) = &self.core {
            core.counters[counter as usize].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds `n` to a labeled counter (e.g. a per-algorithm tally). The
    /// label closure only runs when the observer is enabled.
    pub fn incr_labeled(&self, label: impl FnOnce() -> String, n: u64) {
        if let Some(core) = &self.core {
            let mut labeled = core.labeled.lock().expect("labeled counters poisoned");
            *labeled.entry(label()).or_insert(0) += n;
        }
    }

    /// Records one base-algorithm `discover` call: bumps the global
    /// [`Counter::FixpointIterations`] and the per-algorithm labeled
    /// counter `fixpoint_iterations/<algorithm>`.
    pub fn record_discovery(&self, algorithm: &str, iterations: u64) {
        if self.core.is_some() {
            self.incr(Counter::FixpointIterations, iterations);
            self.incr_labeled(|| format!("fixpoint_iterations/{algorithm}"), iterations);
        }
    }

    /// Opens a phase span on a static path. The span records its
    /// elapsed wall-clock time into the aggregate for `path` when
    /// dropped. Disabled handles return an inert span and never read
    /// the clock.
    pub fn span(&self, path: &'static str) -> Span {
        self.span_with(|| path.to_string())
    }

    /// Opens a phase span whose path is computed lazily — use for
    /// dynamic paths like `k_sweep/k=<k>` so the format cost is only
    /// paid when observation is on.
    pub fn span_with(&self, path: impl FnOnce() -> String) -> Span {
        Span {
            rec: self.core.as_ref().map(|core| {
                let path = path();
                if let Some(hook) = &core.hook {
                    hook.on_phase(&path);
                }
                SpanRec {
                    core: Arc::clone(core),
                    path,
                    start: Instant::now(),
                }
            }),
        }
    }

    /// Snapshot of everything recorded so far, or `None` when disabled.
    ///
    /// Counters come out in [`Counter::ALL`] order (zeros included, so
    /// reports always show the full set) followed by labeled counters
    /// in lexicographic order.
    pub fn profile(&self) -> Option<RunProfile> {
        let core = self.core.as_ref()?;
        let mut counters: Vec<CounterValue> = Counter::ALL
            .iter()
            .map(|&c| CounterValue {
                name: c.name().to_string(),
                value: core.counters[c as usize].load(Ordering::Relaxed),
            })
            .collect();
        {
            let labeled = core.labeled.lock().expect("labeled counters poisoned");
            counters.extend(labeled.iter().map(|(name, &value)| CounterValue {
                name: name.clone(),
                value,
            }));
        }
        let phases = {
            let phases = core.phases.lock().expect("phase aggregates poisoned");
            phases
                .iter()
                .map(|(path, agg)| PhaseProfile {
                    path: path.clone(),
                    total_ns: agg.total_ns,
                    count: agg.count,
                })
                .collect()
        };
        Some(RunProfile { phases, counters })
    }
}

struct SpanRec {
    core: Arc<ObsCore>,
    path: String,
    start: Instant,
}

/// RAII guard for one timed phase; see [`Observer::span`].
#[must_use = "a span measures the scope it lives in — bind it to a variable"]
pub struct Span {
    rec: Option<SpanRec>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(rec) = self.rec.take() {
            let elapsed = rec.start.elapsed().as_nanos() as u64;
            let mut phases = rec.core.phases.lock().expect("phase aggregates poisoned");
            let agg = phases.entry(rec.path).or_default();
            agg.total_ns += elapsed;
            agg.count += 1;
        }
    }
}

/// Aggregate for one span path: total wall time and how many spans hit it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseProfile {
    /// `/`-separated span path, e.g. `k_sweep/k=3`.
    pub path: String,
    /// Total wall-clock nanoseconds across all spans on this path.
    pub total_ns: u64,
    /// Number of spans recorded on this path.
    pub count: u64,
}

/// One named counter reading.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterValue {
    /// Counter name — a [`Counter::name`] or a labeled counter such as
    /// `fixpoint_iterations/accu`.
    pub name: String,
    /// Accumulated value.
    pub value: u64,
}

/// Serializable snapshot of an observer's aggregates.
///
/// Attached to pipeline outcomes (`TdacOutcome::profile`,
/// `AccuGenOutcome::profile`) as the *delta* recorded during that run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RunProfile {
    /// Phase aggregates sorted by path.
    pub phases: Vec<PhaseProfile>,
    /// Counter readings: fixed counters first, then labeled ones.
    pub counters: Vec<CounterValue>,
}

impl RunProfile {
    /// Looks up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// Looks up a phase aggregate by exact path.
    pub fn phase(&self, path: &str) -> Option<&PhaseProfile> {
        self.phases.iter().find(|p| p.path == path)
    }

    /// Phase aggregates whose path starts with `prefix` (e.g.
    /// `"k_sweep/"` for every per-k sub-span).
    pub fn phases_under<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = &'a PhaseProfile> {
        self.phases.iter().filter(move |p| p.path.starts_with(prefix))
    }

    /// What happened *after* `baseline` was snapshotted from the same
    /// observer: counters are subtracted (saturating), phases keep only
    /// the paths whose hit count advanced. Used to isolate one run when
    /// an observer handle is reused across several.
    pub fn delta_since(&self, baseline: &RunProfile) -> RunProfile {
        let counters = self
            .counters
            .iter()
            .map(|c| CounterValue {
                name: c.name.clone(),
                value: c.value.saturating_sub(baseline.counter(&c.name).unwrap_or(0)),
            })
            .collect();
        let phases = self
            .phases
            .iter()
            .filter_map(|p| {
                let (base_ns, base_count) = baseline
                    .phase(&p.path)
                    .map(|b| (b.total_ns, b.count))
                    .unwrap_or((0, 0));
                let count = p.count.saturating_sub(base_count);
                (count > 0).then(|| PhaseProfile {
                    path: p.path.clone(),
                    total_ns: p.total_ns.saturating_sub(base_ns),
                    count,
                })
            })
            .collect();
        RunProfile { phases, counters }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn disabled_observer_is_inert() {
        let obs = Observer::default();
        assert!(!obs.is_enabled());
        obs.incr(Counter::DistanceEvals, 10);
        obs.record_discovery("mv", 3);
        {
            let _s = obs.span("phase");
        }
        assert!(obs.profile().is_none());
        assert_eq!(format!("{obs:?}"), "Observer(disabled)");
    }

    #[test]
    fn clones_share_state() {
        let obs = Observer::enabled();
        let clone = obs.clone();
        clone.incr(Counter::DistanceEvals, 5);
        obs.incr(Counter::DistanceEvals, 2);
        let profile = obs.profile().unwrap();
        assert_eq!(profile.counter("distance_evals"), Some(7));
        // Zero counters still show up so reports carry the full set.
        assert_eq!(profile.counter("pam_iterations"), Some(0));
    }

    #[test]
    fn spans_aggregate_by_path() {
        let obs = Observer::enabled();
        for k in [2usize, 3, 2] {
            let _outer = obs.span("k_sweep");
            let _inner = obs.span_with(|| format!("k_sweep/k={k}"));
            std::thread::sleep(Duration::from_millis(1));
        }
        let profile = obs.profile().unwrap();
        assert_eq!(profile.phase("k_sweep").unwrap().count, 3);
        assert_eq!(profile.phase("k_sweep/k=2").unwrap().count, 2);
        assert_eq!(profile.phase("k_sweep/k=3").unwrap().count, 1);
        assert!(profile.phase("k_sweep/k=2").unwrap().total_ns > 0);
        assert_eq!(profile.phases_under("k_sweep/").count(), 2);
    }

    #[test]
    fn labeled_counters_record_per_algorithm() {
        let obs = Observer::enabled();
        obs.record_discovery("accu", 12);
        obs.record_discovery("accu", 3);
        obs.record_discovery("sums", 7);
        let profile = obs.profile().unwrap();
        assert_eq!(profile.counter("fixpoint_iterations"), Some(22));
        assert_eq!(profile.counter("fixpoint_iterations/accu"), Some(15));
        assert_eq!(profile.counter("fixpoint_iterations/sums"), Some(7));
    }

    #[test]
    fn delta_since_isolates_a_run() {
        let obs = Observer::enabled();
        obs.incr(Counter::KMeansIterations, 4);
        {
            let _s = obs.span("cluster");
        }
        let baseline = obs.profile().unwrap();
        obs.incr(Counter::KMeansIterations, 6);
        {
            let _s = obs.span("merge");
        }
        let delta = obs.profile().unwrap().delta_since(&baseline);
        assert_eq!(delta.counter("kmeans_iterations"), Some(6));
        // `cluster` did not advance after the baseline, so it drops out.
        assert!(delta.phase("cluster").is_none());
        assert_eq!(delta.phase("merge").unwrap().count, 1);
    }

    #[test]
    fn phase_hook_fires_on_spans_and_checkpoints() {
        struct Recorder(Mutex<Vec<String>>);
        impl PhaseHook for Recorder {
            fn on_phase(&self, path: &str) {
                self.0.lock().unwrap().push(path.to_string());
            }
        }
        let recorder = Arc::new(Recorder(Mutex::new(Vec::new())));
        let obs = Observer::with_hook(recorder.clone());
        {
            let _s = obs.span("distance_matrix");
            obs.checkpoint("partition_scan/partition");
        }
        let _ = obs.span_with(|| "k_sweep/k=2".to_string());
        assert_eq!(
            *recorder.0.lock().unwrap(),
            vec!["distance_matrix", "partition_scan/partition", "k_sweep/k=2"]
        );
        // Hook-bearing observers still record normally.
        assert_eq!(obs.profile().unwrap().phase("distance_matrix").unwrap().count, 1);
        // Disabled and plain-enabled handles never fire (or hold) a hook.
        Observer::disabled().checkpoint("x");
        Observer::enabled().checkpoint("x");
    }

    #[test]
    fn run_profile_serde_roundtrip() {
        let obs = Observer::enabled();
        obs.incr(Counter::PartitionsScanned, 9);
        obs.record_discovery("mv", 1);
        {
            let _s = obs.span("partition_scan");
        }
        let profile = obs.profile().unwrap();
        let json = serde_json::to_string(&profile).unwrap();
        let back: RunProfile = serde_json::from_str(&json).unwrap();
        assert_eq!(back, profile);
    }
}
