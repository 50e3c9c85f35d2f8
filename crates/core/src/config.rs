//! Configuration of the TD-AC pipeline.

use clustering::{Cosine, DistanceOptions, Euclidean, Hamming, KernelPolicy, Linkage, Metric};
use serde::{Deserialize, Serialize};
use td_obs::{ExecutionLimits, Observer};

use crate::backend::ExecutionBackend;
use crate::tdac::TdacError;

/// Which distance the silhouette model selection uses.
///
/// The paper defines attribute similarity with the Hamming distance
/// (Eq. 2) — the default — but the inner k-means always optimizes
/// Euclidean inertia (Eq. 3), exactly as in the paper. On 0/1 truth
/// vectors, Hamming = L1 = squared L2, so the choices coincide there and
/// only diverge on the fractional centroids; the variants exist for the
/// ablation study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MetricKind {
    /// Hamming / L1 (the paper's Eq. 2).
    Hamming,
    /// Euclidean (L2).
    Euclidean,
    /// Cosine distance.
    Cosine,
}

impl MetricKind {
    /// The metric object behind the kind.
    pub fn as_metric(self) -> &'static dyn Metric {
        match self {
            MetricKind::Hamming => &Hamming,
            MetricKind::Euclidean => &Euclidean,
            MetricKind::Cosine => &Cosine,
        }
    }
}

/// How much of the machine the pipeline may use.
///
/// The paper's future-work perspective (ii) proposes parallelizing the
/// per-group truth-discovery runs; this setting governs that and every
/// other data-parallel kernel (distance matrices, the k-sweep, k-means
/// restarts, PAM swaps, AccuGen's partition scan). All parallel
/// reductions are index-deterministic, so the outcome is bit-identical
/// at any thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Parallelism {
    /// Use rayon's default pool (all available cores, or
    /// `RAYON_NUM_THREADS` when set).
    Auto,
    /// Pin to exactly this many worker threads; `Threads(1)` runs
    /// everything sequentially.
    Threads(usize),
}

impl Default for Parallelism {
    fn default() -> Self {
        Parallelism::Auto
    }
}

impl Parallelism {
    /// The pinned thread count, or `None` for [`Parallelism::Auto`].
    pub fn threads(self) -> Option<usize> {
        match self {
            Parallelism::Auto => None,
            Parallelism::Threads(n) => Some(n.max(1)),
        }
    }

    /// Runs `f` under this parallelism setting: `Auto` uses the global
    /// pool; `Threads(n)` installs a pool pinned to `n` workers for the
    /// duration of the call.
    pub fn install<R>(self, f: impl FnOnce() -> R) -> R {
        match self.threads() {
            None => f(),
            Some(n) => rayon::ThreadPoolBuilder::new()
                .num_threads(n)
                .build()
                .expect("build thread pool")
                .install(f),
        }
    }
}

/// Which clusterer groups the attribute truth vectors.
///
/// The paper uses k-means; PAM and agglomerative clustering are provided
/// for the design-choice ablations called out in DESIGN.md.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ClusterMethod {
    /// Lloyd's k-means with k-means++ (the paper's choice).
    KMeans,
    /// k-medoids (PAM) under the silhouette metric.
    Pam,
    /// Agglomerative clustering with the given linkage.
    Hierarchical(Linkage),
}

/// Full TD-AC configuration.
///
/// Construct it as a plain struct (every field is public, and
/// `..Default::default()` fills the rest), or through the validating
/// [`TdacConfig::builder`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TdacConfig {
    /// Smallest k to try (Algorithm 1: 2).
    pub k_min: usize,
    /// Largest k to try; `None` means `|A| - 1` as in Algorithm 1.
    pub k_max: Option<usize>,
    /// Distance used by the silhouette index.
    pub metric: MetricKind,
    /// Clustering algorithm.
    pub method: ClusterMethod,
    /// k-means restarts per k.
    pub n_init: u32,
    /// RNG seed for the clusterer.
    pub seed: u64,
    /// If the silhouette of the best partition falls at or below this
    /// value, TD-AC falls back to the un-partitioned run (no structure
    /// found ⇒ partitioning would only starve the base algorithm of
    /// evidence). `None` disables the fallback — strict Algorithm 1.
    pub min_silhouette: Option<f64>,
    /// Missing-data-aware mode (the paper's future-work perspective (i)):
    /// cluster with the *masked* Hamming distance over co-observed
    /// coordinates (see [`crate::masked`]) using PAM, instead of plain
    /// k-means over Eq. 1 vectors. Helps on sparse data (low DCR).
    pub missing_aware: bool,
    /// Which kernels the shared pairwise matrix and the k-means fits
    /// may use, in-process and in a sharded coordinator's model
    /// selection alike: [`KernelPolicy::Auto`] (default) picks the
    /// bit-packed kernels whenever the truth vectors are binary (for
    /// the matrix, when the metric also counts bit disagreements);
    /// `Dense` pins the `f64` reference paths; `Packed` insists on
    /// packing where representable. All three are bit-identical — this
    /// is a performance/verification knob, never a semantics switch
    /// (see `docs/KERNELS.md`). Absent in serialized configs from
    /// before the knob existed, so it deserializes via `Default`.
    #[serde(default)]
    pub kernel: KernelPolicy,
    /// Where runs of this config execute: in-process under a rayon pool
    /// (the default) or distributed across worker processes by the
    /// `td-shard` coordinator. This is the one parallelism knob. Absent
    /// in serialized configs from before the knob existed, so legacy
    /// configs deserialize to the in-process default.
    /// [`crate::Tdac::run`] rejects a sharded backend with a typed
    /// error; use `td_shard::ShardRunner` (or `tdc shard`) to execute
    /// one.
    #[serde(default)]
    pub backend: ExecutionBackend,
    /// Execution budgets and cooperative cancellation for every run of
    /// this config: wall-clock deadline, distance-evaluation / fixpoint
    /// / partition caps, and an optional [`td_obs::CancelToken`]. The
    /// default is unlimited (no budget machinery is armed at all). On
    /// exhaustion the run returns its best-so-far outcome flagged with a
    /// [`td_obs::Degradation`] record — see `docs/ROBUSTNESS.md`. Absent
    /// in configs serialized before limits existed, so it deserializes
    /// via `Default` (unlimited); the cancel token itself is never
    /// serialized.
    #[serde(default)]
    pub limits: ExecutionLimits,
    /// Instrumentation handle. The default is disabled (near-zero
    /// overhead); clone an [`Observer::enabled`] handle in to collect
    /// per-phase timings and work-unit counters on the outcome's
    /// `profile` field. Observation never changes results — see
    /// `docs/OBSERVABILITY.md`. Not serialized: configs deserialize with
    /// observation off.
    #[serde(skip)]
    pub observer: Observer,
}

impl Default for TdacConfig {
    fn default() -> Self {
        Self {
            k_min: 2,
            k_max: None,
            metric: MetricKind::Hamming,
            method: ClusterMethod::KMeans,
            n_init: 10,
            seed: 42,
            min_silhouette: None,
            missing_aware: false,
            kernel: KernelPolicy::default(),
            backend: ExecutionBackend::default(),
            limits: ExecutionLimits::default(),
            observer: Observer::disabled(),
        }
    }
}

impl TdacConfig {
    /// A [`TdacConfigBuilder`] initialized with the defaults.
    ///
    /// The builder's [`TdacConfigBuilder::build`] validates the
    /// combination (`k_min >= 2`, `k_max >= k_min`, `n_init >= 1`) and
    /// returns [`TdacError::InvalidConfig`] on nonsense, which plain
    /// struct construction cannot catch until run time.
    pub fn builder() -> TdacConfigBuilder {
        TdacConfigBuilder {
            config: TdacConfig::default(),
        }
    }

    /// The thread budget every in-process kernel actually runs under.
    ///
    /// [`ExecutionBackend::InProcess`] resolves to its own parallelism;
    /// a sharded backend resolves to [`Parallelism::default`] — that is
    /// what the coordinator's own sequential phases (model selection,
    /// reassembly) use, while each worker runs under the plan's
    /// `worker_parallelism`. The bare `parallelism` field this method
    /// once shimmed is gone; old serialized configs that still carry the
    /// key load fine (unknown keys are ignored) but the backend is the
    /// sole authority.
    pub fn effective_parallelism(&self) -> Parallelism {
        match &self.backend {
            ExecutionBackend::InProcess { parallelism } => *parallelism,
            ExecutionBackend::Sharded(_) => Parallelism::default(),
        }
    }

    /// Algorithm 1's sweep range `k ∈ [k_min, min(k_max, n-1)]` over `n`
    /// clustered rows (attributes; objects for TD-OC). Empty when
    /// partitioning is meaningless (fewer than 3 rows, or `k_min` above
    /// the cap): the run then answers un-partitioned.
    pub(crate) fn k_range(&self, n: usize) -> Vec<usize> {
        if n < 3 {
            return Vec::new();
        }
        let k_hi = self.k_max.unwrap_or(n - 1).min(n - 1);
        (self.k_min..=k_hi).collect()
    }

    /// The kernel policy the shared pairwise matrix and the k-means
    /// fits use: [`TdacConfig::kernel`].
    pub fn effective_kernel(&self) -> KernelPolicy {
        self.kernel
    }

    /// The options every distance-matrix build and k-means fit of one
    /// run shares: the effective kernel policy plus the run's observer.
    pub(crate) fn distance_options(&self, obs: &Observer) -> DistanceOptions {
        DistanceOptions::builder()
            .kernel(self.effective_kernel())
            .observer(obs.clone())
            .build()
    }
}

/// Validating builder for [`TdacConfig`]; see [`TdacConfig::builder`].
#[derive(Debug, Clone, Default)]
pub struct TdacConfigBuilder {
    config: TdacConfig,
}

impl TdacConfigBuilder {
    /// Smallest k of the sweep (Algorithm 1 starts at 2).
    pub fn k_min(mut self, k_min: usize) -> Self {
        self.config.k_min = k_min;
        self
    }

    /// Largest k of the sweep; unset means `|A| - 1` as in Algorithm 1.
    pub fn k_max(mut self, k_max: usize) -> Self {
        self.config.k_max = Some(k_max);
        self
    }

    /// Distance used by the silhouette index.
    pub fn metric(mut self, metric: MetricKind) -> Self {
        self.config.metric = metric;
        self
    }

    /// Clustering algorithm.
    pub fn method(mut self, method: ClusterMethod) -> Self {
        self.config.method = method;
        self
    }

    /// k-means restarts per k (must be at least 1).
    pub fn n_init(mut self, n_init: u32) -> Self {
        self.config.n_init = n_init;
        self
    }

    /// RNG seed for the clusterer.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Silhouette floor below which TD-AC falls back to the
    /// un-partitioned run.
    pub fn min_silhouette(mut self, floor: f64) -> Self {
        self.config.min_silhouette = Some(floor);
        self
    }

    /// Missing-data-aware mode (masked distances + PAM).
    pub fn missing_aware(mut self, on: bool) -> Self {
        self.config.missing_aware = on;
        self
    }

    /// Thread budget for every parallel kernel — a convenience that
    /// rewrites the backend to [`ExecutionBackend::InProcess`] with the
    /// given parallelism (a previously set sharded backend is replaced;
    /// set parallelism through the [`crate::ShardPlan`] in that case).
    pub fn parallelism(mut self, parallelism: Parallelism) -> Self {
        self.config.backend = ExecutionBackend::in_process(parallelism);
        self
    }

    /// Kernel policy for the shared pairwise matrix and the k-means
    /// fits (bit-identical under every setting).
    pub fn kernel(mut self, kernel: KernelPolicy) -> Self {
        self.config.kernel = kernel;
        self
    }

    /// Execution backend: in-process with its parallelism, or sharded
    /// across worker processes; validated by `build()` (zero shards
    /// are rejected).
    pub fn backend(mut self, backend: ExecutionBackend) -> Self {
        self.config.backend = backend;
        self
    }

    /// Instrumentation handle (clone of an [`Observer::enabled`] to
    /// collect a profile).
    pub fn observer(mut self, observer: Observer) -> Self {
        self.config.observer = observer;
        self
    }

    /// Execution budgets + cancellation (see
    /// [`TdacConfig::limits`]); validated by `build()`.
    pub fn limits(mut self, limits: ExecutionLimits) -> Self {
        self.config.limits = limits;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    /// [`TdacError::InvalidConfig`] when `k_min < 2` (a 1-cluster
    /// "partition" defeats Algorithm 1), `k_max < k_min` (empty sweep),
    /// `n_init == 0` (no k-means restart would run), the backend is
    /// invalid (a sharded plan with zero shards or a zero worker
    /// deadline), or any execution limit is a zero budget.
    pub fn build(self) -> Result<TdacConfig, TdacError> {
        let c = &self.config;
        if c.k_min < 2 {
            return Err(TdacError::InvalidConfig(format!(
                "k_min must be at least 2, got {}",
                c.k_min
            )));
        }
        if let Some(k_max) = c.k_max {
            if k_max < c.k_min {
                return Err(TdacError::InvalidConfig(format!(
                    "k_max ({k_max}) must not be below k_min ({})",
                    c.k_min
                )));
            }
        }
        if c.n_init == 0 {
            return Err(TdacError::InvalidConfig(
                "n_init must be at least 1".to_string(),
            ));
        }
        if let Some(floor) = c.min_silhouette {
            // A NaN floor would make `silhouette <= floor` always false
            // and silently disable the fallback it was meant to arm.
            if !floor.is_finite() {
                return Err(TdacError::InvalidConfig(format!(
                    "min_silhouette must be finite, got {floor}"
                )));
            }
        }
        c.backend.validate().map_err(TdacError::InvalidConfig)?;
        c.limits.validate().map_err(TdacError::InvalidConfig)?;
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_kinds_resolve() {
        assert_eq!(MetricKind::Hamming.as_metric().name(), "hamming");
        assert_eq!(MetricKind::Euclidean.as_metric().name(), "euclidean");
        assert_eq!(MetricKind::Cosine.as_metric().name(), "cosine");
    }

    #[test]
    fn default_matches_algorithm_one() {
        let c = TdacConfig::default();
        assert_eq!(c.k_min, 2);
        assert_eq!(c.k_max, None);
        assert_eq!(c.metric, MetricKind::Hamming);
        assert_eq!(c.method, ClusterMethod::KMeans);
        assert!(c.min_silhouette.is_none());
    }

    #[test]
    fn config_serde_roundtrip() {
        let c = TdacConfig {
            method: ClusterMethod::Hierarchical(Linkage::Average),
            backend: ExecutionBackend::in_process(Parallelism::Threads(3)),
            kernel: KernelPolicy::Packed,
            ..Default::default()
        };
        let json = serde_json::to_string(&c).unwrap();
        let back: TdacConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.method, c.method);
        assert_eq!(back.backend, c.backend);
        assert_eq!(back.effective_parallelism(), Parallelism::Threads(3));
        assert_eq!(back.kernel, c.kernel);
        // Configs serialized before the kernel knob existed still load.
        let legacy: TdacConfig =
            serde_json::from_str(&json.replace(",\"kernel\":\"Packed\"", "")).unwrap();
        assert_eq!(legacy.kernel, KernelPolicy::Auto);
    }

    #[test]
    fn parallelism_resolves_threads() {
        assert_eq!(Parallelism::Auto.threads(), None);
        assert_eq!(Parallelism::Threads(4).threads(), Some(4));
        // Threads(0) is clamped to one worker rather than "auto".
        assert_eq!(Parallelism::Threads(0).threads(), Some(1));
    }

    #[test]
    fn builder_defaults_match_plain_default() {
        let built = TdacConfig::builder().build().unwrap();
        let plain = TdacConfig::default();
        assert_eq!(built.k_min, plain.k_min);
        assert_eq!(built.k_max, plain.k_max);
        assert_eq!(built.metric, plain.metric);
        assert_eq!(built.method, plain.method);
        assert_eq!(built.n_init, plain.n_init);
        assert_eq!(built.seed, plain.seed);
        assert_eq!(built.min_silhouette, plain.min_silhouette);
        assert_eq!(built.missing_aware, plain.missing_aware);
        assert_eq!(built.backend, plain.backend);
        assert_eq!(built.effective_parallelism(), Parallelism::Auto);
        assert_eq!(built.kernel, plain.kernel);
        assert_eq!(built.kernel, KernelPolicy::Auto);
        assert_eq!(built.limits, plain.limits);
        assert!(!built.limits.is_active());
        assert!(!built.observer.is_enabled());
    }

    #[test]
    fn builder_sets_every_field() {
        let obs = Observer::enabled();
        let c = TdacConfig::builder()
            .k_min(3)
            .k_max(5)
            .metric(MetricKind::Euclidean)
            .method(ClusterMethod::Pam)
            .n_init(4)
            .seed(7)
            .min_silhouette(0.25)
            .missing_aware(true)
            .parallelism(Parallelism::Threads(2))
            .kernel(KernelPolicy::Dense)
            .limits(ExecutionLimits::none().with_max_distance_evals(1_000))
            .observer(obs)
            .build()
            .unwrap();
        assert_eq!(c.k_min, 3);
        assert_eq!(c.k_max, Some(5));
        assert_eq!(c.metric, MetricKind::Euclidean);
        assert_eq!(c.method, ClusterMethod::Pam);
        assert_eq!(c.n_init, 4);
        assert_eq!(c.seed, 7);
        assert_eq!(c.min_silhouette, Some(0.25));
        assert!(c.missing_aware);
        // `.parallelism()` rewrites the backend in place.
        assert_eq!(
            c.backend,
            ExecutionBackend::in_process(Parallelism::Threads(2))
        );
        assert_eq!(c.effective_parallelism(), Parallelism::Threads(2));
        assert_eq!(c.kernel, KernelPolicy::Dense);
        assert_eq!(c.limits.max_distance_evals, Some(1_000));
        assert!(c.limits.is_active());
        assert!(c.observer.is_enabled());
    }

    #[test]
    fn builder_rejects_invalid_combinations() {
        for (builder, needle) in [
            (TdacConfig::builder().k_min(1), "k_min"),
            (TdacConfig::builder().k_min(0), "k_min"),
            (TdacConfig::builder().k_min(4).k_max(3), "k_max"),
            (TdacConfig::builder().n_init(0), "n_init"),
            (TdacConfig::builder().min_silhouette(f64::NAN), "min_silhouette"),
            (TdacConfig::builder().min_silhouette(f64::INFINITY), "min_silhouette"),
        ] {
            let err = builder.build().unwrap_err();
            match &err {
                TdacError::InvalidConfig(msg) => {
                    assert!(msg.contains(needle), "{err} should mention {needle}")
                }
                other => panic!("expected InvalidConfig, got {other:?}"),
            }
        }
        // The k_max check only fires against the configured k_min.
        assert!(TdacConfig::builder().k_min(3).k_max(3).build().is_ok());
    }

    #[test]
    fn builder_rejects_zero_budgets() {
        for limits in [
            ExecutionLimits { deadline_ms: Some(0), ..Default::default() },
            ExecutionLimits { max_distance_evals: Some(0), ..Default::default() },
            ExecutionLimits { max_fixpoint_iterations: Some(0), ..Default::default() },
            ExecutionLimits { max_partitions: Some(0), ..Default::default() },
        ] {
            let err = TdacConfig::builder().limits(limits).build().unwrap_err();
            match &err {
                TdacError::InvalidConfig(msg) => {
                    assert!(msg.contains("limits."), "{err} should name the limit field")
                }
                other => panic!("expected InvalidConfig, got {other:?}"),
            }
        }
        // Real budgets pass, and so does an attached cancel token.
        assert!(TdacConfig::builder()
            .limits(
                ExecutionLimits::none()
                    .with_max_partitions(10)
                    .with_cancel(td_obs::CancelToken::new())
            )
            .build()
            .is_ok());
    }

    #[test]
    fn legacy_config_json_deserializes_unlimited() {
        // Configs serialized before the limits field existed still load.
        let json = serde_json::to_string(&TdacConfig::default()).unwrap();
        let value: serde_json::Value = serde_json::from_str(&json).unwrap();
        let serde_json::Value::Object(map) = value else {
            panic!("config serializes as an object")
        };
        assert!(map.contains_key("limits"));
        let stripped: serde_json::Map = map.into_iter().filter(|(k, _)| k != "limits").collect();
        let back: TdacConfig =
            serde_json::from_value(&serde_json::Value::Object(stripped)).unwrap();
        assert!(!back.limits.is_active());
    }

    #[test]
    fn config_deserializes_with_observation_off() {
        // `observer` is #[serde(skip)]: round-tripping an enabled config
        // comes back disabled, so persisted configs never observe.
        let c = TdacConfig {
            observer: Observer::enabled(),
            ..Default::default()
        };
        let json = serde_json::to_string(&c).unwrap();
        assert!(!json.contains("observer"));
        let back: TdacConfig = serde_json::from_str(&json).unwrap();
        assert!(!back.observer.is_enabled());
    }

    #[test]
    fn builder_rejects_zero_shard_backends() {
        use crate::backend::{ShardPlan, ShardStrategy};
        let err = TdacConfig::builder()
            .backend(ExecutionBackend::Sharded(ShardPlan::new(
                ShardStrategy::HashByObject,
                0,
            )))
            .build()
            .unwrap_err();
        match &err {
            TdacError::InvalidConfig(msg) => {
                assert!(msg.contains("backend.shards"), "{err}")
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
        // A real plan passes.
        assert!(TdacConfig::builder()
            .backend(ExecutionBackend::Sharded(ShardPlan::new(
                ShardStrategy::ByAttributeGroup,
                4,
            )))
            .build()
            .is_ok());
    }

    #[test]
    fn legacy_config_json_defaults_to_in_process_backend() {
        // Configs serialized before the backend knob existed still load:
        // no "backend" key → in-process default, and a stale bare
        // "parallelism" key (removed after its one-release deprecation
        // window) is ignored rather than rejected.
        let json = serde_json::to_string(&TdacConfig {
            kernel: KernelPolicy::Packed,
            ..Default::default()
        })
        .unwrap();
        let value: serde_json::Value = serde_json::from_str(&json).unwrap();
        let serde_json::Value::Object(map) = value else {
            panic!("config serializes as an object")
        };
        assert!(map.contains_key("backend"));
        let mut stripped: serde_json::Map =
            map.into_iter().filter(|(k, _)| k != "backend").collect();
        stripped.insert(
            "parallelism".to_string(),
            serde_json::from_str(r#"{"Threads":2}"#).unwrap(),
        );
        let back: TdacConfig =
            serde_json::from_value(&serde_json::Value::Object(stripped)).unwrap();
        assert_eq!(back.backend, ExecutionBackend::default());
        assert!(!back.backend.is_sharded());
        // The removed field no longer steers anything.
        assert_eq!(back.effective_parallelism(), Parallelism::Auto);
        assert_eq!(back.effective_kernel(), KernelPolicy::Packed);
    }

    #[test]
    fn kernel_field_is_the_only_kernel_knob() {
        // Configs written while `InProcess` carried its own `kernels`
        // key still load; the key is ignored and `kernel` decides, for a
        // sharded backend too.
        let json = serde_json::to_string(&TdacConfig {
            kernel: KernelPolicy::Packed,
            ..Default::default()
        })
        .unwrap()
        .replace(
            r#""InProcess":{"parallelism":"Auto"}"#,
            r#""InProcess":{"parallelism":{"Threads":2},"kernels":"Dense"}"#,
        );
        assert!(json.contains("kernels"), "{json}");
        let c: TdacConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(c.effective_parallelism(), Parallelism::Threads(2));
        assert_eq!(c.effective_kernel(), KernelPolicy::Packed);
        let c = TdacConfig {
            kernel: KernelPolicy::Dense,
            backend: ExecutionBackend::Sharded(crate::backend::ShardPlan::new(
                crate::backend::ShardStrategy::ByAttributeGroup,
                2,
            )),
            ..Default::default()
        };
        assert_eq!(c.effective_parallelism(), Parallelism::Auto);
        assert_eq!(c.effective_kernel(), KernelPolicy::Dense);
    }

    #[test]
    fn sharded_backend_round_trips_through_serde() {
        use crate::backend::{ShardPlan, ShardStrategy};
        let c = TdacConfig::builder()
            .backend(ExecutionBackend::Sharded(ShardPlan {
                worker_deadline_ms: Some(30_000),
                ..ShardPlan::new(ShardStrategy::HashByObject, 8)
            }))
            .build()
            .unwrap();
        let json = serde_json::to_string(&c).unwrap();
        let back: TdacConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.backend, c.backend);
        assert_eq!(back.backend.shard_plan().unwrap().shards, 8);
    }

    #[test]
    fn parallelism_install_pins_pool() {
        Parallelism::Threads(2).install(|| {
            assert_eq!(rayon::current_num_threads(), 2);
        });
        let out = Parallelism::Auto.install(|| 7);
        assert_eq!(out, 7);
    }
}
