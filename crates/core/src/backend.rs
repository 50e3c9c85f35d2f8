//! Where a TD-AC run executes: the unified `ExecutionBackend` knob.
//!
//! [`ExecutionBackend`] is one typed choice: run everything inside this
//! process under a rayon pool ([`ExecutionBackend::InProcess`]), or
//! distribute the per-group base runs across worker *processes*
//! according to a [`ShardPlan`] ([`ExecutionBackend::Sharded`]). See
//! [`crate::TdacConfig::effective_parallelism`].
//!
//! The sharded backend is *planned* here (the types live in the core
//! crate so [`crate::TdacConfig`] can carry and validate them) but
//! *executed* by the `td-shard` crate's coordinator, which spawns the
//! workers and merges their partials. [`crate::Tdac::run`] itself
//! rejects a sharded config with a typed error rather than silently
//! running in-process — picking the executor is the caller's decision,
//! not a fallback.

use serde::{Deserialize, Serialize};

use crate::config::Parallelism;

/// How claims are partitioned across worker processes.
///
/// Both strategies are *exact*: the coordinator performs model
/// selection (reference run, truth vectors, silhouette sweep) globally
/// and distributes only step 4's per-group base runs, so the merged
/// outcome is bit-identical to a single-process run. They differ in
/// what each worker's store slice contains and which base algorithms
/// they support — see `docs/SHARDING.md` for the trade-offs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ShardStrategy {
    /// Slice by object: claims whose object name FNV-1a-hashes into a
    /// shard's bucket go to that shard, and every shard runs every
    /// attribute group restricted to its bucket. Balances load even
    /// when one attribute group dominates, but requires a base
    /// algorithm whose per-cell predictions are cell-local and whose
    /// trust is reconstructible from predictions (e.g. `MajorityVote`);
    /// others are rejected with a typed error.
    HashByObject,
    /// Slice by attribute group: group `i` of the selected partition is
    /// assigned to shard `i mod shards`, and each shard's slice holds
    /// its groups' claims in full. Exact for *any* base algorithm (a
    /// group run sees exactly the claims it would see in-process), but
    /// load balance is only as good as the group-size distribution.
    ByAttributeGroup,
}

/// How the coordinator responds when a shard's worker process dies,
/// stalls, or garbles the wire protocol.
///
/// The default (`max_attempts: 1`) is fail-fast: the first fault aborts
/// the run with the same typed `ShardError` earlier releases produced,
/// so existing configs behave identically. Raising `max_attempts` opts
/// into the supervisor's retry ladder: each faulted shard is killed
/// alone, its buffered partials discarded, and a fresh worker re-spawned
/// from the shard's already-persisted `.tds` slice after a capped
/// exponential backoff. When attempts exhaust, the coordinator runs the
/// shard's jobs *in-process* and flags the outcome with
/// [`td_obs::DegradationReason::ShardFallback`] — the merge is complete
/// either way, never thinned.
///
/// Backoff is fully deterministic: the per-attempt jitter is derived
/// from `(shard, attempt)`, not a wall-clock or RNG source, so retry
/// schedules are reproducible in tests. See
/// [`RetryPolicy::backoff_delay_ms`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total worker-process attempts per shard, counting the first
    /// spawn (must be at least 1). `1` = fail-fast, no supervisor.
    pub max_attempts: u32,
    /// Backoff before the second attempt, in milliseconds; doubles per
    /// further attempt until `backoff_cap_ms`.
    pub backoff_base_ms: u64,
    /// Ceiling on any single backoff delay, jitter included (must be at
    /// least `backoff_base_ms`).
    pub backoff_cap_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 1,
            backoff_base_ms: 100,
            backoff_cap_ms: 5_000,
        }
    }
}

impl Serialize for RetryPolicy {
    fn to_value(&self) -> serde::Value {
        let mut m = serde::Map::new();
        m.insert("max_attempts".to_string(), self.max_attempts.to_value());
        m.insert(
            "backoff_base_ms".to_string(),
            self.backoff_base_ms.to_value(),
        );
        m.insert("backoff_cap_ms".to_string(), self.backoff_cap_ms.to_value());
        serde::Value::Object(m)
    }
}

impl Deserialize for RetryPolicy {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let obj = v
            .as_object()
            .ok_or_else(|| serde::Error::custom("expected object for RetryPolicy"))?;
        let d = RetryPolicy::default();
        Ok(RetryPolicy {
            max_attempts: match obj.get("max_attempts") {
                Some(fv) => Deserialize::from_value(fv)
                    .map_err(|e| e.context("RetryPolicy.max_attempts"))?,
                None => d.max_attempts,
            },
            backoff_base_ms: match obj.get("backoff_base_ms") {
                Some(fv) => Deserialize::from_value(fv)
                    .map_err(|e| e.context("RetryPolicy.backoff_base_ms"))?,
                None => d.backoff_base_ms,
            },
            backoff_cap_ms: match obj.get("backoff_cap_ms") {
                Some(fv) => Deserialize::from_value(fv)
                    .map_err(|e| e.context("RetryPolicy.backoff_cap_ms"))?,
                None => d.backoff_cap_ms,
            },
        })
    }
}

impl RetryPolicy {
    /// A policy that retries up to `max_attempts` total spawns with the
    /// default backoff curve.
    pub fn with_attempts(max_attempts: u32) -> Self {
        Self {
            max_attempts,
            ..Self::default()
        }
    }

    /// Whether a fault on a shard aborts the run immediately (today's
    /// pre-supervisor behavior, and the default).
    pub fn is_fail_fast(&self) -> bool {
        self.max_attempts <= 1
    }

    /// Validates the policy; the message names the offending field.
    pub fn validate(&self) -> Result<(), String> {
        if self.max_attempts == 0 {
            return Err(
                "backend.retry.max_attempts must be at least 1 (the first spawn counts)"
                    .to_string(),
            );
        }
        if self.backoff_cap_ms < self.backoff_base_ms {
            return Err(
                "backend.retry.backoff_cap_ms must be at least backoff_base_ms".to_string(),
            );
        }
        Ok(())
    }

    /// Milliseconds to wait before spawning `attempt` (1-based) of
    /// `shard`. The first attempt is immediate; attempt *n* ≥ 2 waits
    /// `base · 2^(n-2)` capped at `backoff_cap_ms`, plus a deterministic
    /// jitter in `[0, base/2]` derived by hashing `(shard, attempt)` —
    /// no wall clock, no RNG, so the schedule is a pure function and
    /// reproducible in tests. The jittered total is clamped to the cap.
    pub fn backoff_delay_ms(&self, shard: usize, attempt: u32) -> u64 {
        if attempt <= 1 {
            return 0;
        }
        let exp = (attempt - 2).min(32);
        let raw = self
            .backoff_base_ms
            .saturating_mul(1u64 << exp)
            .min(self.backoff_cap_ms);
        let spread = self.backoff_base_ms / 2 + 1;
        let jitter = jitter_hash(shard, attempt) % spread;
        raw.saturating_add(jitter).min(self.backoff_cap_ms)
    }
}

/// FNV-1a over the little-endian bytes of `(shard, attempt)` — the
/// deterministic jitter source for [`RetryPolicy::backoff_delay_ms`].
fn jitter_hash(shard: usize, attempt: u32) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in (shard as u64)
        .to_le_bytes()
        .into_iter()
        .chain(attempt.to_le_bytes())
    {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A coordinator's plan for one sharded run: the partitioning strategy,
/// the worker-process count, and per-worker execution settings.
///
/// Carried by [`ExecutionBackend::Sharded`] and validated by
/// [`crate::TdacConfigBuilder::build`] (zero shards are rejected).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardPlan {
    /// How claims are split across workers.
    pub strategy: ShardStrategy,
    /// Number of worker processes (must be at least 1).
    pub shards: usize,
    /// Thread budget *inside each worker process*; defaults to one
    /// thread per worker, the honest setting for measuring process
    /// scaling.
    pub worker_parallelism: Parallelism,
    /// Per-shard wall-clock deadline in milliseconds, mapped onto each
    /// worker's [`td_obs::ExecutionLimits`] exactly like a td-serve
    /// request deadline. A worker that blows it reports a flagged
    /// degradation — the coordinator then returns a *degraded* outcome,
    /// never a partial merge. `None` leaves workers unlimited.
    pub worker_deadline_ms: Option<u64>,
    /// Extra patience the coordinator grants a worker beyond
    /// `worker_deadline_ms` before declaring it stalled. `None` keeps
    /// the legacy formula (4× the deadline, min deadline + 5 s); tests
    /// set a small grace so hang detection fires fast.
    pub worker_grace_ms: Option<u64>,
    /// What the coordinator does when a worker faults — see
    /// [`RetryPolicy`]. Defaults to fail-fast.
    pub retry: RetryPolicy,
}

// The vendored serde derive shim supports neither struct enum variants
// nor `#[serde(default = "fn")]`, so the plan and backend carry
// hand-written value-tree impls. The wire shapes match what upstream
// serde would emit for the same derives (externally tagged enum, named
// fields, defaulted absences), so configs are portable either way.

impl Serialize for ShardPlan {
    fn to_value(&self) -> serde::Value {
        let mut m = serde::Map::new();
        m.insert("strategy".to_string(), self.strategy.to_value());
        m.insert("shards".to_string(), self.shards.to_value());
        m.insert(
            "worker_parallelism".to_string(),
            self.worker_parallelism.to_value(),
        );
        m.insert(
            "worker_deadline_ms".to_string(),
            self.worker_deadline_ms.to_value(),
        );
        m.insert(
            "worker_grace_ms".to_string(),
            self.worker_grace_ms.to_value(),
        );
        m.insert("retry".to_string(), self.retry.to_value());
        serde::Value::Object(m)
    }
}

impl Deserialize for ShardPlan {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let obj = v
            .as_object()
            .ok_or_else(|| serde::Error::custom("expected object for ShardPlan"))?;
        let field = |name: &str| obj.get(name).unwrap_or(&serde::Value::Null);
        Ok(ShardPlan {
            strategy: Deserialize::from_value(field("strategy"))
                .map_err(|e| e.context("ShardPlan.strategy"))?,
            shards: Deserialize::from_value(field("shards"))
                .map_err(|e| e.context("ShardPlan.shards"))?,
            worker_parallelism: match obj.get("worker_parallelism") {
                Some(fv) => Deserialize::from_value(fv)
                    .map_err(|e| e.context("ShardPlan.worker_parallelism"))?,
                None => single_thread(),
            },
            worker_deadline_ms: match obj.get("worker_deadline_ms") {
                Some(fv) => Deserialize::from_value(fv)
                    .map_err(|e| e.context("ShardPlan.worker_deadline_ms"))?,
                None => None,
            },
            worker_grace_ms: match obj.get("worker_grace_ms") {
                Some(fv) => Deserialize::from_value(fv)
                    .map_err(|e| e.context("ShardPlan.worker_grace_ms"))?,
                None => None,
            },
            retry: match obj.get("retry") {
                Some(fv) => {
                    Deserialize::from_value(fv).map_err(|e| e.context("ShardPlan.retry"))?
                }
                None => RetryPolicy::default(),
            },
        })
    }
}

fn single_thread() -> Parallelism {
    Parallelism::Threads(1)
}

impl ShardPlan {
    /// A plan with `shards` workers under the given strategy,
    /// single-threaded workers, and no deadline.
    pub fn new(strategy: ShardStrategy, shards: usize) -> Self {
        Self {
            strategy,
            shards,
            worker_parallelism: single_thread(),
            worker_deadline_ms: None,
            worker_grace_ms: None,
            retry: RetryPolicy::default(),
        }
    }

    /// Validates the plan; the message names the offending field.
    pub fn validate(&self) -> Result<(), String> {
        if self.shards == 0 {
            return Err("backend.shards must be at least 1".to_string());
        }
        if self.worker_deadline_ms == Some(0) {
            return Err(
                "backend.worker_deadline_ms must be positive when set (zero would degrade \
                 every shard instantly); use None for unlimited"
                    .to_string(),
            );
        }
        if self.worker_grace_ms == Some(0) {
            return Err(
                "backend.worker_grace_ms must be positive when set (zero would declare \
                 every worker stalled instantly); use None for the default patience"
                    .to_string(),
            );
        }
        self.retry.validate()
    }
}

/// The unified execution knob on [`crate::TdacConfig`].
///
/// Serialized configs from before this knob existed deserialize to
/// [`ExecutionBackend::default`] (in-process, auto parallelism). See
/// [`crate::TdacConfig::effective_parallelism`] for the resolution
/// rule.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecutionBackend {
    /// Everything runs inside this process under a rayon pool — the
    /// classic path, bit-identical at any thread count.
    InProcess {
        /// Thread budget for every parallel kernel (distance matrices,
        /// the k-sweep, per-group runs).
        parallelism: Parallelism,
    },
    /// The per-group base runs are distributed across worker processes
    /// by the `td-shard` coordinator according to the plan.
    /// [`crate::Tdac::run`] rejects this backend with
    /// [`crate::TdacError::InvalidConfig`]; hand the config to
    /// `td_shard::ShardRunner` (or `tdc shard`) instead.
    Sharded(ShardPlan),
}

impl Serialize for ExecutionBackend {
    fn to_value(&self) -> serde::Value {
        let mut outer = serde::Map::new();
        match self {
            ExecutionBackend::InProcess { parallelism } => {
                let mut m = serde::Map::new();
                m.insert("parallelism".to_string(), parallelism.to_value());
                outer.insert("InProcess".to_string(), serde::Value::Object(m));
            }
            ExecutionBackend::Sharded(plan) => {
                outer.insert("Sharded".to_string(), plan.to_value());
            }
        }
        serde::Value::Object(outer)
    }
}

impl Deserialize for ExecutionBackend {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let obj = v.as_object().ok_or_else(|| {
            serde::Error::custom("expected single-key object for ExecutionBackend")
        })?;
        if let Some(inner) = obj.get("InProcess") {
            let m = inner.as_object().ok_or_else(|| {
                serde::Error::custom("expected object payload for ExecutionBackend::InProcess")
            })?;
            // Configs written while `InProcess` still carried a
            // `kernels` key load too: every kernel policy gives the
            // same bits, so the key is ignored.
            return Ok(ExecutionBackend::InProcess {
                parallelism: match m.get("parallelism") {
                    Some(fv) => Deserialize::from_value(fv)
                        .map_err(|e| e.context("InProcess.parallelism"))?,
                    None => Parallelism::default(),
                },
            });
        }
        if let Some(inner) = obj.get("Sharded") {
            return Ok(ExecutionBackend::Sharded(
                Deserialize::from_value(inner).map_err(|e| e.context("Sharded"))?,
            ));
        }
        Err(serde::Error::custom(
            "unknown ExecutionBackend variant (expected `InProcess` or `Sharded`)",
        ))
    }
}

impl Default for ExecutionBackend {
    fn default() -> Self {
        ExecutionBackend::in_process(Parallelism::default())
    }
}

impl ExecutionBackend {
    /// An in-process backend with the given thread budget.
    pub fn in_process(parallelism: Parallelism) -> Self {
        ExecutionBackend::InProcess { parallelism }
    }

    /// Whether this backend distributes work across processes.
    pub fn is_sharded(&self) -> bool {
        matches!(self, ExecutionBackend::Sharded(_))
    }

    /// The plan of a sharded backend, if any.
    pub fn shard_plan(&self) -> Option<&ShardPlan> {
        match self {
            ExecutionBackend::Sharded(plan) => Some(plan),
            ExecutionBackend::InProcess { .. } => None,
        }
    }

    /// Validates the backend; the message names the offending field.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            ExecutionBackend::InProcess { .. } => Ok(()),
            ExecutionBackend::Sharded(plan) => plan.validate(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_in_process_auto() {
        let b = ExecutionBackend::default();
        assert_eq!(
            b,
            ExecutionBackend::InProcess {
                parallelism: Parallelism::Auto,
            }
        );
        assert!(!b.is_sharded());
        assert!(b.shard_plan().is_none());
        assert!(b.validate().is_ok());
    }

    #[test]
    fn plan_new_defaults_are_single_threaded_and_unlimited() {
        let p = ShardPlan::new(ShardStrategy::HashByObject, 4);
        assert_eq!(p.shards, 4);
        assert_eq!(p.worker_parallelism, Parallelism::Threads(1));
        assert_eq!(p.worker_deadline_ms, None);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn zero_shards_and_zero_deadlines_are_rejected() {
        let p = ShardPlan::new(ShardStrategy::ByAttributeGroup, 0);
        assert!(p.validate().unwrap_err().contains("backend.shards"));
        let p = ShardPlan {
            worker_deadline_ms: Some(0),
            ..ShardPlan::new(ShardStrategy::ByAttributeGroup, 2)
        };
        assert!(p.validate().unwrap_err().contains("worker_deadline_ms"));
        assert!(ExecutionBackend::Sharded(p).validate().is_err());
    }

    #[test]
    fn backend_serde_round_trips() {
        let b = ExecutionBackend::Sharded(ShardPlan {
            worker_deadline_ms: Some(5_000),
            ..ShardPlan::new(ShardStrategy::HashByObject, 8)
        });
        let json = serde_json::to_string(&b).unwrap();
        let back: ExecutionBackend = serde_json::from_str(&json).unwrap();
        assert_eq!(back, b);
        assert!(back.is_sharded());
        assert_eq!(back.shard_plan().unwrap().shards, 8);
    }

    #[test]
    fn plan_deserializes_with_defaulted_worker_fields() {
        // Plans written before worker_parallelism / worker_deadline_ms /
        // worker_grace_ms / retry existed (or hand-written minimal ones)
        // still load, and land on fail-fast.
        let json = r#"{"strategy":"ByAttributeGroup","shards":2}"#;
        let p: ShardPlan = serde_json::from_str(json).unwrap();
        assert_eq!(p.worker_parallelism, Parallelism::Threads(1));
        assert_eq!(p.worker_deadline_ms, None);
        assert_eq!(p.worker_grace_ms, None);
        assert_eq!(p.retry, RetryPolicy::default());
        assert!(p.retry.is_fail_fast());
    }

    #[test]
    fn retry_policy_round_trips_and_validates() {
        let r = RetryPolicy {
            max_attempts: 3,
            backoff_base_ms: 50,
            backoff_cap_ms: 400,
        };
        assert!(r.validate().is_ok());
        assert!(!r.is_fail_fast());
        let plan = ShardPlan {
            retry: r,
            worker_grace_ms: Some(250),
            ..ShardPlan::new(ShardStrategy::HashByObject, 4)
        };
        let json = serde_json::to_string(&ExecutionBackend::Sharded(plan.clone())).unwrap();
        let back: ExecutionBackend = serde_json::from_str(&json).unwrap();
        assert_eq!(back.shard_plan().unwrap(), &plan);
    }

    #[test]
    fn retry_policy_rejects_zero_attempts_and_inverted_caps() {
        let r = RetryPolicy::with_attempts(0);
        assert!(r.validate().unwrap_err().contains("max_attempts"));
        let r = RetryPolicy {
            max_attempts: 2,
            backoff_base_ms: 1_000,
            backoff_cap_ms: 10,
        };
        assert!(r.validate().unwrap_err().contains("backoff_cap_ms"));
        let plan = ShardPlan {
            retry: r,
            ..ShardPlan::new(ShardStrategy::ByAttributeGroup, 2)
        };
        assert!(plan.validate().is_err());
        let plan = ShardPlan {
            worker_grace_ms: Some(0),
            ..ShardPlan::new(ShardStrategy::ByAttributeGroup, 2)
        };
        assert!(plan.validate().unwrap_err().contains("worker_grace_ms"));
    }

    #[test]
    fn backoff_schedule_is_deterministic_capped_and_monotonic() {
        let r = RetryPolicy {
            max_attempts: 6,
            backoff_base_ms: 100,
            backoff_cap_ms: 1_000,
        };
        // First attempt is always immediate.
        assert_eq!(r.backoff_delay_ms(0, 1), 0);
        assert_eq!(r.backoff_delay_ms(7, 1), 0);
        for shard in 0..4 {
            let delays: Vec<u64> = (2..=6).map(|a| r.backoff_delay_ms(shard, a)).collect();
            // Pure function: identical on re-evaluation.
            let again: Vec<u64> = (2..=6).map(|a| r.backoff_delay_ms(shard, a)).collect();
            assert_eq!(delays, again);
            for (i, d) in delays.iter().enumerate() {
                let attempt = i as u32 + 2;
                // Exponential floor, hard cap (jitter included).
                let floor = (100u64 << (attempt - 2)).min(1_000);
                assert!(*d >= floor && *d <= 1_000, "shard {shard} attempt {attempt}: {d}");
            }
        }
        // Jitter actually varies with the shard index.
        let spread: std::collections::HashSet<u64> =
            (0..16).map(|s| r.backoff_delay_ms(s, 2)).collect();
        assert!(spread.len() > 1, "jitter is degenerate: {spread:?}");
        // A zero base collapses the whole schedule to zero delays.
        let z = RetryPolicy {
            max_attempts: 4,
            backoff_base_ms: 0,
            backoff_cap_ms: 0,
        };
        assert_eq!(z.backoff_delay_ms(3, 5), 0);
    }

    #[test]
    fn in_process_kernels_key_is_ignored_on_load() {
        let json = r#"{"InProcess":{"parallelism":{"Threads":2},"kernels":"Dense"}}"#;
        let b: ExecutionBackend = serde_json::from_str(json).unwrap();
        assert_eq!(b, ExecutionBackend::in_process(Parallelism::Threads(2)));
        assert_eq!(
            serde_json::to_string(&b).unwrap(),
            r#"{"InProcess":{"parallelism":{"Threads":2}}}"#
        );
    }
}
