//! The coordinator half: model selection in-process, per-group base
//! runs fanned out to worker processes, exact reassembly.
//!
//! # Why this is bit-identical to `Tdac::run`
//!
//! The coordinator never re-implements any TD-AC phase. It calls
//! [`Tdac::select_model_store`] — the *same* code `Tdac::run` uses for
//! steps 1–3 (reference run, truth-vector matrix, silhouette sweep) —
//! and [`PartitionedModel::assemble`] — the same code as step 5's
//! merge. Only step 4, the embarrassingly parallel per-group base
//! runs, is distributed, and each worker executes the identical
//! `base.discover(&slice.view_of(&group))` call the in-process path
//! would have made:
//!
//! * [`ShardStrategy::ByAttributeGroup`] deals whole groups to shards
//!   (group *i* → shard *i* mod *n*). A shard's slice holds exactly its
//!   groups' claims with the parent's full interner tables, so the
//!   worker's view of a group is claim-for-claim the view the
//!   in-process run would build — exact for **any** base algorithm.
//! * [`ShardStrategy::HashByObject`] splits every group's *objects*
//!   across all shards (FNV-1a of the object's name, the store
//!   checksum hash). Each worker runs every group restricted to its
//!   bucket; per-cell predictions union exactly because the buckets
//!   partition the cells. The global trust vector spans all objects,
//!   so the coordinator re-derives it per group from the unioned
//!   predictions via [`TruthDiscovery::trust_from_predictions`] on the
//!   full dataset — algorithms without that hook (trust not a pure,
//!   cell-local function of the predictions) are rejected up front
//!   with [`ShardError::StrategyUnsupported`] rather than merged
//!   approximately.
//!
//! # Failure semantics: the retry ladder
//!
//! A worker *fault* — death before `Done`, unparseable output, or no
//! progress within the coordinator's patience — climbs a ladder
//! governed by the plan's [`RetryPolicy`](tdac_core::RetryPolicy):
//!
//! 1. **Fail-fast** (`max_attempts == 1`, the default): the first
//!    fault aborts the run with the matching typed error —
//!    [`ShardError::ShardFailed`], [`ShardError::Protocol`], or
//!    [`ShardError::ShardTimeout`] — exactly as before the supervisor
//!    existed.
//! 2. **Retry** (`max_attempts > 1`): only the faulted worker is
//!    killed; its buffered partials are discarded and a fresh worker
//!    re-spawns from the shard's persisted `.tds` slice after a
//!    deterministic capped-exponential backoff. Because partials are
//!    keyed by group and replacement is whole-shard, the eventual
//!    merge is bit-identical to a clean run by construction.
//! 3. **Fallback**: when attempts exhaust, the coordinator runs the
//!    shard's jobs *in-process* through the same worker group loop
//!    (chaos injection explicitly disabled) and flags the outcome with
//!    [`DegradationReason::ShardFallback`]. The merge is complete —
//!    never thinned — the flag records that the execution path was not
//!    the configured one.
//!
//! A worker that *reports* [`ShardMsg::Degraded`] is not a fault: its
//! budget fired deterministically, retrying would burn the same budget
//! again, so the run returns [`PartitionedModel::into_degraded`] — the
//! reference result, `fallback: true`, the degradation attached —
//! exactly the shape the in-process path produces when its per-group
//! phase is refused. A partial merge is never an option on any rung.

use std::collections::{BTreeMap, HashMap};
use std::io::BufReader;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use serde_json::line;
use td_algorithms::registry::algorithm_by_name;
use td_algorithms::{TruthDiscovery, TruthResult, TruthResultRepr};
use td_model::{AttributeId, Dataset};
use td_obs::{Counter, Degradation, DegradationReason, Observer, ShardFault, WorkCompleted};
use td_store::{fnv1a, DatasetStore};
use tdac_core::{
    ModelSelection, PartitionedModel, ShardPlan, ShardStrategy, Tdac, TdacConfig, TdacError,
    TdacOutcome,
};

use crate::error::ShardError;
use crate::protocol::{GroupAssignment, GroupPartial, ShardJob, ShardMsg};
use crate::worker::ChaosAction;

/// Which shard [`ShardStrategy::HashByObject`] routes an object to:
/// FNV-1a of the object's interned name, modulo the shard count. Name
/// based (not id based) so the routing is stable across datasets that
/// intern the same objects in different orders.
pub fn object_shard(name: &str, shards: usize) -> usize {
    debug_assert!(shards > 0);
    (fnv1a(name.as_bytes()) % shards.max(1) as u64) as usize
}

/// How the coordinator launches one worker process.
///
/// The default is fork-of-self: the current executable re-invoked with
/// a single `worker` argument, which both `tdc` and `td-verify` route
/// to [`crate::worker_main`]. Tests inject chaos by adding a
/// [`crate::protocol::CHAOS_EXIT_ENV`] or
/// [`crate::protocol::CHAOS_PLAN_ENV`] entry to `envs` — per command,
/// never via global process environment mutation.
#[derive(Debug, Clone)]
pub struct WorkerCommand {
    /// Executable to spawn.
    pub program: PathBuf,
    /// Arguments (default: `["worker"]`).
    pub args: Vec<String>,
    /// Extra environment entries for the child.
    pub envs: Vec<(String, String)>,
}

impl WorkerCommand {
    /// Fork-of-self: `current_exe() worker`.
    pub fn current_exe() -> Result<Self, ShardError> {
        Ok(WorkerCommand {
            program: std::env::current_exe()?,
            args: vec!["worker".to_string()],
            envs: Vec::new(),
        })
    }

    /// A specific program and argument list.
    pub fn new(program: impl Into<PathBuf>, args: Vec<String>) -> Self {
        WorkerCommand {
            program: program.into(),
            args,
            envs: Vec::new(),
        }
    }

    /// Adds an environment entry for every spawned worker.
    pub fn env(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.envs.push((key.into(), value.into()));
        self
    }
}

/// Multi-process TD-AC: the execution engine behind
/// [`ExecutionBackend::Sharded`](tdac_core::ExecutionBackend).
#[derive(Debug, Clone)]
pub struct ShardRunner {
    config: TdacConfig,
    plan: ShardPlan,
    worker: WorkerCommand,
}

impl ShardRunner {
    /// A runner for `config`, which must carry a sharded backend.
    ///
    /// Workers default to fork-of-self (`current_exe() worker`);
    /// override with [`ShardRunner::with_worker`] when the coordinator
    /// binary has no `worker` subcommand.
    pub fn new(config: TdacConfig) -> Result<Self, ShardError> {
        let plan = match config.backend.shard_plan() {
            Some(plan) => plan.clone(),
            None => {
                return Err(TdacError::InvalidConfig(
                    "ShardRunner needs config.backend = ExecutionBackend::Sharded; \
                     for an in-process backend call Tdac::run directly"
                        .to_string(),
                )
                .into())
            }
        };
        plan.validate().map_err(TdacError::InvalidConfig)?;
        let worker = WorkerCommand::current_exe()?;
        Ok(ShardRunner {
            config,
            plan,
            worker,
        })
    }

    /// Replaces the worker launch command.
    pub fn with_worker(mut self, worker: WorkerCommand) -> Self {
        self.worker = worker;
        self
    }

    /// The plan this runner executes.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// [`ShardRunner::run_store`] over a bare dataset.
    pub fn run(&self, algorithm: &str, dataset: &Dataset) -> Result<TdacOutcome, ShardError> {
        self.run_store(algorithm, &DatasetStore::new(dataset.clone()))
    }

    /// Runs TD-AC over `store` with per-group base runs distributed
    /// across worker processes. The outcome is bit-identical to
    /// `Tdac::run_store` under the equivalent in-process config — the
    /// oracle td-verify enforces.
    pub fn run_store(
        &self,
        algorithm: &str,
        store: &DatasetStore,
    ) -> Result<TdacOutcome, ShardError> {
        let base =
            algorithm_by_name(algorithm).ok_or_else(|| ShardError::UnknownAlgorithm(algorithm.to_string()))?;
        let obs = self.config.observer.clone();

        // Steps 1–3 in-process: the same model selection Tdac::run uses.
        let model = match Tdac::new(self.config.clone()).select_model_store(&base, store)? {
            ModelSelection::Complete(outcome) => return Ok(outcome),
            ModelSelection::Partitioned(model) => model,
        };

        // Fail fast before spawning anything: object sharding needs
        // trust to be re-derivable from predictions.
        if self.plan.strategy == ShardStrategy::HashByObject
            && base
                .trust_from_predictions(&store.dataset.view_all(), &model.reference)
                .is_none()
        {
            return Err(ShardError::StrategyUnsupported {
                algorithm: base.name().to_string(),
                strategy: self.plan.strategy,
            });
        }

        let _span = obs.span("shard/distribute");
        self.distribute(&base, store, model, &obs)
    }

    /// Step 4 across processes, step 5 in-process.
    fn distribute(
        &self,
        base: &(dyn TruthDiscovery + Sync),
        store: &DatasetStore,
        model: PartitionedModel,
        obs: &Observer,
    ) -> Result<TdacOutcome, ShardError> {
        let shards = self.plan.shards;
        let groups: Vec<Vec<AttributeId>> = model.partition.groups().to_vec();

        // Deal groups to shards and carve the claim slices.
        let mut assignments: Vec<Vec<GroupAssignment>> = vec![Vec::new(); shards];
        match self.plan.strategy {
            ShardStrategy::ByAttributeGroup => {
                for (gi, attrs) in groups.iter().enumerate() {
                    assignments[gi % shards].push(GroupAssignment {
                        group: gi,
                        attributes: attrs.clone(),
                    });
                }
            }
            ShardStrategy::HashByObject => {
                for slot in assignments.iter_mut() {
                    *slot = groups
                        .iter()
                        .enumerate()
                        .map(|(gi, attrs)| GroupAssignment {
                            group: gi,
                            attributes: attrs.clone(),
                        })
                        .collect();
                }
            }
        }

        // The RAII guard owns every slice file from the moment its path
        // is allocated: any early return (or panic) below runs its Drop
        // and removes whatever was written. Slices are retained while a
        // shard might still need them (re-spawn, fallback) and released
        // eagerly the moment the shard completes.
        let mut slices = SliceFiles::default();
        let (tx, rx) = mpsc::channel::<Event>();
        let mut slots: BTreeMap<usize, Slot> = BTreeMap::new();
        let mut workers: HashMap<usize, WorkerHandle> = HashMap::new();

        let spawn_result = (|| -> Result<(), ShardError> {
            for (shard, jobs) in assignments.iter().enumerate() {
                if jobs.is_empty() {
                    // More shards than groups under ByAttributeGroup:
                    // nothing for this worker to do, so don't pay for
                    // the process.
                    continue;
                }
                let slice = self.carve(store, shard, jobs)?;
                let path = slices.alloc(shard);
                slice.save(&path)?;
                let job = ShardJob {
                    shard,
                    algorithm: base.name().to_string(),
                    store_path: path.display().to_string(),
                    parallelism: self.plan.worker_parallelism,
                    deadline_ms: self.plan.worker_deadline_ms,
                    attempt: 1,
                    groups: jobs.clone(),
                };
                let line_limit = stdout_line_limit(&store.dataset, &job);
                workers.insert(shard, self.spawn(shard, &job, line_limit, tx.clone())?);
                obs.incr(Counter::ShardsSpawned, 1);
                slots.insert(
                    shard,
                    Slot {
                        job,
                        line_limit,
                        attempt: 1,
                        state: SlotState::Running,
                        partials: Vec::new(),
                        last_event: Instant::now(),
                    },
                );
            }
            Ok(())
        })();
        if let Err(e) = spawn_result {
            kill_all(&mut workers);
            return Err(e);
        }

        let mut sup = Supervisor {
            runner: self,
            groups: &groups,
            store,
            base,
            obs,
            tx,
            rx,
            slots,
            workers,
            slices: &mut slices,
            fallbacks: Vec::new(),
        };
        let driven = sup.drive();
        kill_all(&mut sup.workers); // no-op for cleanly exited workers; reaps zombies
        match driven {
            Err(e) => Err(e),
            Ok(Some(degradation)) => {
                // One shard over budget degrades the whole run —
                // flagged, never a thinner merge.
                obs.incr(Counter::DegradedRuns, 1);
                Ok(model.into_degraded(degradation))
            }
            Ok(None) => sup.fold(model),
        }
    }

    /// The claim subset shard `shard` may see, as a page-free store
    /// slice keeping the parent's interner tables.
    fn carve(
        &self,
        store: &DatasetStore,
        shard: usize,
        jobs: &[GroupAssignment],
    ) -> Result<DatasetStore, ShardError> {
        match self.plan.strategy {
            ShardStrategy::ByAttributeGroup => {
                let mine: HashMap<AttributeId, ()> = jobs
                    .iter()
                    .flat_map(|j| j.attributes.iter().map(|&a| (a, ())))
                    .collect();
                Ok(store.subset_where(|c| mine.contains_key(&c.attribute))?)
            }
            ShardStrategy::HashByObject => {
                let n = self.plan.shards;
                let dataset = &store.dataset;
                Ok(store
                    .subset_where(|c| object_shard(dataset.object_name(c.object), n) == shard)?)
            }
        }
    }

    /// Launches one worker on `job`. Its stdout is read one line at a
    /// time, and a line longer than `line_limit` bytes is a protocol
    /// fault (see [`stdout_line_limit`]).
    fn spawn(
        &self,
        shard: usize,
        job: &ShardJob,
        line_limit: usize,
        tx: mpsc::Sender<Event>,
    ) -> Result<WorkerHandle, ShardError> {
        let mut cmd = Command::new(&self.worker.program);
        cmd.args(&self.worker.args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        for (k, v) in &self.worker.envs {
            cmd.env(k, v);
        }
        let mut child = cmd.spawn()?;
        // The worker reads exactly one line; dropping stdin closes it.
        line::write(&mut child.stdin.take().expect("stdin piped"), job)?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout piped"));
        // Every event is tagged with the attempt it belongs to, so the
        // supervisor can discard messages a killed predecessor left in
        // flight after a re-spawn.
        let attempt = job.attempt;
        let reader = std::thread::spawn(move || {
            let mut buf = Vec::new();
            loop {
                let (event, more) = match line::read(&mut stdout, &mut buf, line_limit) {
                    Ok(true) => match line::decode::<ShardMsg>(&buf) {
                        Ok(msg) => (Event::Msg(shard, attempt, msg), true),
                        Err(e) => (
                            Event::Bad(shard, attempt, format!("unparseable line: {e}")),
                            true,
                        ),
                    },
                    Ok(false) => (Event::Eof(shard, attempt), false),
                    Err(e) => (
                        Event::Bad(shard, attempt, format!("reading stdout: {e}")),
                        false,
                    ),
                };
                buf.clear();
                // A failed send means the coordinator gave up.
                if tx.send(event).is_err() || !more {
                    return;
                }
            }
        });
        Ok(WorkerHandle {
            child,
            reader: Some(reader),
        })
    }
}

/// A worker fault the supervisor must answer: the three retryable
/// event shapes, each mapped to its typed fail-fast error.
enum Fault {
    /// Worker died (EOF before `Done`) or reported an internal error.
    Died(String),
    /// Worker wrote something the protocol cannot parse.
    Garbled(String),
    /// No event from the worker within the coordinator's patience.
    Stalled(u64),
}

impl Fault {
    fn describe(&self) -> String {
        match self {
            Fault::Died(detail) => detail.clone(),
            Fault::Garbled(detail) => format!("protocol violation: {detail}"),
            Fault::Stalled(waited_ms) => format!("no progress within {waited_ms} ms"),
        }
    }

    fn into_error(self, shard: usize) -> ShardError {
        match self {
            Fault::Died(detail) => ShardError::ShardFailed { shard, detail },
            Fault::Garbled(detail) => ShardError::Protocol { shard, detail },
            Fault::Stalled(waited_ms) => ShardError::ShardTimeout { shard, waited_ms },
        }
    }
}

/// Per-shard lifecycle: where one shard currently sits on the retry
/// ladder.
enum SlotState {
    /// A worker process is (believed to be) executing this attempt.
    Running,
    /// Faulted; the next attempt spawns once the backoff deadline
    /// passes.
    Backoff(Instant),
    /// Reported `Done`; its partials are final.
    Done,
    /// Attempts exhausted; its partials came from the in-process
    /// fallback.
    Fallback,
}

/// One shard's supervision record.
struct Slot {
    /// The job template; `attempt` is stamped per spawn.
    job: ShardJob,
    /// The longest stdout line its workers may write.
    line_limit: usize,
    /// Current (or next, while in backoff) attempt number, 1-based.
    attempt: u32,
    state: SlotState,
    /// Partials, their rows checked, buffered until the shard
    /// completes — discarded whole on a fault, which is what keeps
    /// retried merges exact.
    partials: Vec<GroupPartial>,
    /// Last activity, for per-shard stall detection.
    last_event: Instant,
}

/// The event loop state: per-shard slots, live worker handles, and the
/// channel both ends of the reader threads share. Owns the retry
/// ladder; `drive` runs it to completion, `fold` reassembles.
struct Supervisor<'a> {
    runner: &'a ShardRunner,
    groups: &'a [Vec<AttributeId>],
    store: &'a DatasetStore,
    base: &'a (dyn TruthDiscovery + Sync),
    obs: &'a Observer,
    /// Kept alive for re-spawns; reader threads hold clones.
    tx: mpsc::Sender<Event>,
    rx: mpsc::Receiver<Event>,
    slots: BTreeMap<usize, Slot>,
    workers: HashMap<usize, WorkerHandle>,
    slices: &'a mut SliceFiles,
    /// `(shard, last fault detail)` for every shard that fell back.
    fallbacks: Vec<(usize, String)>,
}

impl Supervisor<'_> {
    /// How long a worker may go silent before it is declared stalled:
    /// the deadline plus the plan's explicit grace when set, otherwise
    /// the legacy formula (4× the deadline, min deadline + 5 s). No
    /// deadline means unbounded trust, as before.
    fn patience(&self) -> Option<Duration> {
        let plan = &self.runner.plan;
        plan.worker_deadline_ms.map(|ms| {
            Duration::from_millis(match plan.worker_grace_ms {
                Some(grace) => ms.saturating_add(grace),
                None => ms.saturating_mul(4).max(ms.saturating_add(5_000)),
            })
        })
    }

    fn pending(&self) -> usize {
        self.slots
            .values()
            .filter(|s| matches!(s.state, SlotState::Running | SlotState::Backoff(_)))
            .count()
    }

    /// Whether `(shard, attempt)` identifies the *current* attempt of a
    /// running slot — anything else is a stale echo of a killed worker
    /// (or a completed shard's EOF) and must be ignored.
    fn current(&self, shard: usize, attempt: u32) -> bool {
        self.slots
            .get(&shard)
            .map(|s| matches!(s.state, SlotState::Running) && s.attempt == attempt.max(1))
            .unwrap_or(false)
    }

    /// Runs the event loop until every shard is `Done` or `Fallback`.
    /// `Ok(Some(d))` is the terminal worker-degradation outcome;
    /// `Ok(None)` means all partials are buffered and ready to fold.
    fn drive(&mut self) -> Result<Option<Degradation>, ShardError> {
        let patience = self.patience();
        while self.pending() > 0 {
            let now = Instant::now();

            // Backoff deadlines that came due: re-spawn those shards.
            let due: Vec<usize> = self
                .slots
                .iter()
                .filter_map(|(&s, slot)| match slot.state {
                    SlotState::Backoff(until) if until <= now => Some(s),
                    _ => None,
                })
                .collect();
            for shard in due {
                if let Some(d) = self.respawn(shard)? {
                    return Ok(Some(d));
                }
            }

            // Stall detection, per shard: only running workers are on
            // the clock, and every event from the current attempt
            // resets that shard's clock.
            if let Some(limit) = patience {
                let stalled: Vec<(usize, u64)> = self
                    .slots
                    .iter()
                    .filter_map(|(&s, slot)| {
                        let waited = now.saturating_duration_since(slot.last_event);
                        (matches!(slot.state, SlotState::Running) && waited >= limit)
                            .then(|| (s, waited.as_millis() as u64))
                    })
                    .collect();
                for (shard, waited_ms) in stalled {
                    if let Some(d) = self.fault(shard, Fault::Stalled(waited_ms))? {
                        return Ok(Some(d));
                    }
                }
            }
            if self.pending() == 0 {
                break;
            }

            // Sleep until the earliest deadline (a backoff expiry or a
            // running shard's patience), or indefinitely when nothing
            // is on a clock.
            let wake: Option<Instant> = self
                .slots
                .values()
                .filter_map(|slot| match slot.state {
                    SlotState::Backoff(until) => Some(until),
                    SlotState::Running => patience.map(|p| slot.last_event + p),
                    _ => None,
                })
                .min();
            let event = match wake {
                Some(deadline) => {
                    let timeout = deadline.saturating_duration_since(Instant::now());
                    match self.rx.recv_timeout(timeout) {
                        Ok(event) => Some(event),
                        Err(mpsc::RecvTimeoutError::Timeout) => None, // re-check clocks
                        Err(mpsc::RecvTimeoutError::Disconnected) => {
                            return Err(self.channel_closed())
                        }
                    }
                }
                None => match self.rx.recv() {
                    Ok(event) => Some(event),
                    Err(_) => return Err(self.channel_closed()),
                },
            };
            if let Some(event) = event {
                if let Some(d) = self.handle(event)? {
                    return Ok(Some(d));
                }
            }
        }
        Ok(None)
    }

    fn handle(&mut self, event: Event) -> Result<Option<Degradation>, ShardError> {
        match event {
            Event::Msg(shard, attempt, msg) => {
                if !self.current(shard, attempt) {
                    return Ok(None); // stale echo from a killed worker
                }
                match msg {
                    ShardMsg::Partial(p) => {
                        let slot = &self.slots[&shard];
                        if let Err(detail) =
                            check_partial(&self.store.dataset, &slot.job, &slot.partials, &p)
                        {
                            return self.fault(shard, Fault::Garbled(detail));
                        }
                        self.obs.incr(Counter::ShardPartials, 1);
                        let slot = self.slots.get_mut(&shard).expect("current slot");
                        slot.partials.push(p);
                        slot.last_event = Instant::now();
                        Ok(None)
                    }
                    // Terminal by design: the worker's budget fired
                    // deterministically; a retry would burn the same
                    // budget again.
                    ShardMsg::Degraded(degradation) => Ok(Some(degradation)),
                    ShardMsg::Failed(f) => self.fault(
                        shard,
                        Fault::Died(format!("{}: {}", f.phase, f.detail)),
                    ),
                    ShardMsg::Done => {
                        let slot = self.slots.get_mut(&shard).expect("current slot");
                        slot.state = SlotState::Done;
                        // The slice can go the moment its shard is
                        // final — nothing will re-read it.
                        self.slices.release(shard);
                        Ok(None)
                    }
                }
            }
            Event::Eof(shard, attempt) => {
                if !self.current(shard, attempt) {
                    return Ok(None); // EOF after Done, or a stale reader
                }
                self.fault(
                    shard,
                    Fault::Died("worker exited before reporting completion".to_string()),
                )
            }
            Event::Bad(shard, attempt, detail) => {
                if !self.current(shard, attempt) {
                    return Ok(None);
                }
                self.fault(shard, Fault::Garbled(detail))
            }
        }
    }

    /// One rung up the ladder for `shard`: abort (fail-fast), schedule
    /// a retry, or run the in-process fallback.
    fn fault(&mut self, shard: usize, fault: Fault) -> Result<Option<Degradation>, ShardError> {
        self.obs.incr(Counter::ShardFailures, 1);
        let retry = self.runner.plan.retry;
        if retry.is_fail_fast() {
            return Err(fault.into_error(shard));
        }
        // Kill only this worker; everyone else keeps streaming.
        kill_one(self.workers.remove(&shard));
        let detail = fault.describe();
        let slot = self.slots.get_mut(&shard).expect("faulted slot");
        // Whole-shard discard: partial replacement is what keeps the
        // retried merge bit-identical.
        slot.partials.clear();
        if slot.attempt < retry.max_attempts {
            slot.attempt += 1;
            let delay = retry.backoff_delay_ms(shard, slot.attempt);
            slot.state = SlotState::Backoff(Instant::now() + Duration::from_millis(delay));
            self.obs.incr(Counter::ShardRetries, 1);
            Ok(None)
        } else {
            self.fallback(shard, detail)
        }
    }

    /// Spawns the next attempt of a shard whose backoff expired. A
    /// spawn error is itself a fault and consumes an attempt.
    fn respawn(&mut self, shard: usize) -> Result<Option<Degradation>, ShardError> {
        let slot = self.slots.get_mut(&shard).expect("backoff slot");
        let mut job = slot.job.clone();
        job.attempt = slot.attempt;
        slot.state = SlotState::Running;
        slot.last_event = Instant::now();
        match self
            .runner
            .spawn(shard, &job, slot.line_limit, self.tx.clone())
        {
            Ok(handle) => {
                self.workers.insert(shard, handle);
                self.obs.incr(Counter::ShardsSpawned, 1);
                self.obs.incr(Counter::ShardRespawns, 1);
                Ok(None)
            }
            Err(e) => self.fault(shard, Fault::Died(format!("re-spawn failed: {e}"))),
        }
    }

    /// The last rung: run the shard's jobs in-process through the same
    /// worker group loop, chaos explicitly disabled (the coordinator's
    /// own environment may carry the chaos variables its children
    /// inherit). Degrade, never die — and never thin the merge.
    fn fallback(&mut self, shard: usize, detail: String) -> Result<Option<Degradation>, ShardError> {
        let _span = self.obs.span("shard/fallback");
        let slot = self.slots.get_mut(&shard).expect("fallback slot");
        let mut job = slot.job.clone();
        job.attempt = slot.attempt;
        let mut msgs: Vec<ShardMsg> = Vec::new();
        let code = crate::worker::execute(&job, ChaosAction::None, &mut |msg| {
            msgs.push(msg);
            Ok(())
        });

        let mut partials: Vec<GroupPartial> = Vec::new();
        let mut degraded: Option<Degradation> = None;
        let mut done = false;
        for msg in msgs {
            match msg {
                ShardMsg::Partial(p) => {
                    if let Err(detail) = check_partial(&self.store.dataset, &job, &partials, &p) {
                        return Err(ShardError::ShardFailed {
                            shard,
                            detail: format!("in-process fallback: {detail}"),
                        });
                    }
                    partials.push(p);
                }
                ShardMsg::Degraded(d) => degraded = Some(d),
                ShardMsg::Failed(f) => {
                    return Err(ShardError::ShardFailed {
                        shard,
                        detail: format!(
                            "in-process fallback failed after {} worker attempt(s) — {}: {}",
                            self.runner.plan.retry.max_attempts, f.phase, f.detail
                        ),
                    })
                }
                ShardMsg::Done => done = true,
            }
        }
        if let Some(d) = degraded {
            // The shard's own budget fired during the fallback — the
            // same terminal degradation a worker would have reported.
            return Ok(Some(d));
        }
        if !done || code != 0 {
            return Err(ShardError::ShardFailed {
                shard,
                detail: format!(
                    "in-process fallback exited {code} without completing after {} worker attempt(s)",
                    self.runner.plan.retry.max_attempts
                ),
            });
        }
        self.obs.incr(Counter::ShardPartials, partials.len() as u64);
        self.obs.incr(Counter::ShardFallbacks, 1);
        let slot = self.slots.get_mut(&shard).expect("fallback slot");
        slot.partials = partials;
        slot.state = SlotState::Fallback;
        self.slices.release(shard);
        self.fallbacks.push((shard, detail));
        // The fallback ran on the coordinator's thread and may have
        // taken a while; don't let that time count against the other
        // workers' patience.
        let now = Instant::now();
        for s in self.slots.values_mut() {
            if matches!(s.state, SlotState::Running) {
                s.last_event = now;
            }
        }
        Ok(None)
    }

    fn channel_closed(&self) -> ShardError {
        let shard = self
            .slots
            .iter()
            .find(|(_, s)| matches!(s.state, SlotState::Running | SlotState::Backoff(_)))
            .map(|(&s, _)| s)
            .unwrap_or(0);
        ShardError::Protocol {
            shard,
            detail: "event channel closed before completion".to_string(),
        }
    }

    /// Every shard completed: fold the buffered partials in ascending
    /// shard order and reassemble through the same merge as
    /// `Tdac::run`. Flags the outcome when any shard came through the
    /// fallback path.
    fn fold(mut self, mut model: PartitionedModel) -> Result<TdacOutcome, ShardError> {
        // Each group's rows go into one grid over the group's view:
        // under ByAttributeGroup one shard's, under HashByObject every
        // shard's (object buckets are disjoint, so the union is
        // order-independent; BTreeMap order makes it deterministic
        // anyway), with trust re-derived after the fan-in.
        let mut per_group: Vec<Vec<TruthResultRepr>> =
            self.groups.iter().map(|_| Vec::new()).collect();
        for (_, slot) in std::mem::take(&mut self.slots) {
            for p in slot.partials {
                per_group[p.group].push(p.result);
            }
        }

        let mut ordered: Vec<TruthResult> = Vec::with_capacity(self.groups.len());
        for (gi, parts) in per_group.into_iter().enumerate() {
            if parts.is_empty() {
                return Err(ShardError::Protocol {
                    shard: 0,
                    detail: format!("no partial received for group {gi}"),
                });
            }
            let view = self.store.dataset.view_of(&self.groups[gi]);
            let mut partial = TruthResult::for_view(&view, 0.0);
            for rows in parts {
                for (o, a, v, c) in rows.predictions {
                    partial.set_prediction(o, a, v, c);
                }
                partial.source_trust = rows.source_trust;
                partial.iterations = partial.iterations.max(rows.iterations);
            }
            if self.runner.plan.strategy == ShardStrategy::HashByObject {
                // The global trust vector spans every object, so it is
                // re-derived from the unioned predictions over the FULL
                // dataset's view of the group — bit-exact per the
                // trust_from_predictions contract.
                partial.source_trust = self
                    .base
                    .trust_from_predictions(&view, &partial)
                    .ok_or_else(|| ShardError::StrategyUnsupported {
                        algorithm: self.base.name().to_string(),
                        strategy: self.runner.plan.strategy,
                    })?;
            }
            ordered.push(partial);
        }

        if let Some((shard, detail)) = self.fallbacks.first() {
            if model.degradation.is_none() {
                let detail = if self.fallbacks.len() > 1 {
                    let others: Vec<String> = self.fallbacks[1..]
                        .iter()
                        .map(|(s, _)| s.to_string())
                        .collect();
                    format!("{detail}; shard(s) {} also fell back", others.join(", "))
                } else {
                    detail.clone()
                };
                model.degradation = Some(Degradation {
                    reason: DegradationReason::ShardFallback(ShardFault {
                        shard: *shard,
                        attempts: self.runner.plan.retry.max_attempts,
                        detail,
                    }),
                    phase: "shard/fallback".to_string(),
                    work: WorkCompleted::default(),
                });
            }
        }
        Ok(model.assemble(&ordered, self.obs))
    }
}

/// The longest stdout line an honest worker on `job` can write, with
/// room to spare: 64 bytes per cell of the shard's groups (a
/// `[o,a,v,c]` row is at most 60 with `{:?}` floats), 32 per source
/// (one trust entry), and a 64 KiB envelope for the message around
/// them. Cells are counted on the coordinator's whole dataset, so a
/// shard holding part of each group's objects gets the same bound.
fn stdout_line_limit(dataset: &Dataset, job: &ShardJob) -> usize {
    let cells: usize = job
        .groups
        .iter()
        .map(|g| dataset.view_of(&g.attributes).n_cells())
        .sum();
    64 * cells + 32 * dataset.n_sources() + (64 << 10)
}

/// Checks one of a worker's partials against the coordinator's own
/// dataset before it is buffered. The group must be one of the shard's
/// jobs and not already answered (`earlier` holds the shard's partials
/// so far), every row's object and value must exist, its attribute must
/// be in the group, and the trust vector must span the dataset's
/// sources. A [`TruthResult`]'s grid is sized by these ids, so no
/// result is built from a partial that fails; the error is the protocol
/// fault's detail.
fn check_partial(
    dataset: &Dataset,
    job: &ShardJob,
    earlier: &[GroupPartial],
    partial: &GroupPartial,
) -> Result<(), String> {
    let GroupPartial { group, result } = partial;
    let Some(assignment) = job.groups.iter().find(|g| g.group == *group) else {
        return Err(format!(
            "partial for group {group}, which shard {} was not given",
            job.shard
        ));
    };
    if earlier.iter().any(|p| p.group == *group) {
        return Err(format!("a second partial for group {group}"));
    }
    if result.source_trust.len() != dataset.n_sources() {
        return Err(format!(
            "group {group}: trust for {} sources, the dataset has {}",
            result.source_trust.len(),
            dataset.n_sources()
        ));
    }
    let view = dataset.view_of(&assignment.attributes);
    for &(o, a, v, _) in &result.predictions {
        let fault = if o.index() >= dataset.n_objects() {
            format!("object {} of {}", o.0, dataset.n_objects())
        } else if v.index() >= dataset.n_values() {
            format!("value {} of {}", v.0, dataset.n_values())
        } else if !view.contains_attribute(a) {
            format!("attribute {} outside the group", a.0)
        } else {
            continue;
        };
        return Err(format!("group {group}: row names {fault}"));
    }
    Ok(())
}

enum Event {
    Msg(usize, u32, ShardMsg),
    Bad(usize, u32, String),
    Eof(usize, u32),
}

struct WorkerHandle {
    child: Child,
    reader: Option<std::thread::JoinHandle<()>>,
}

fn kill_one(handle: Option<WorkerHandle>) {
    if let Some(mut w) = handle {
        let _ = w.child.kill();
        let _ = w.child.wait();
        if let Some(reader) = w.reader.take() {
            let _ = reader.join();
        }
    }
}

fn kill_all(workers: &mut HashMap<usize, WorkerHandle>) {
    for (_, handle) in workers.drain() {
        kill_one(Some(handle));
    }
}

/// RAII guard for the per-shard `.tds` slice files: every allocated
/// path is removed on drop — including on an early error return or a
/// coordinator panic — and [`SliceFiles::release`] removes a single
/// shard's slice eagerly once nothing can re-read it. Names are
/// collision-free without a tempfile dependency: process id plus a
/// process-global counter.
#[derive(Default)]
struct SliceFiles {
    paths: HashMap<usize, PathBuf>,
}

static SLICE_SEQ: AtomicU64 = AtomicU64::new(0);

impl SliceFiles {
    fn alloc(&mut self, shard: usize) -> PathBuf {
        let seq = SLICE_SEQ.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!(
            "td-shard-{}-{}-s{}.tds",
            std::process::id(),
            seq,
            shard
        ));
        self.paths.insert(shard, path.clone());
        path
    }

    /// Removes one shard's slice now instead of at drop time. Safe to
    /// call for shards that never allocated (or already released).
    fn release(&mut self, shard: usize) {
        if let Some(p) = self.paths.remove(&shard) {
            let _ = std::fs::remove_file(p);
        }
    }
}

impl Drop for SliceFiles {
    fn drop(&mut self) {
        for p in self.paths.values() {
            let _ = std::fs::remove_file(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_shard_is_stable_and_in_range() {
        for n in 1..9 {
            for name in ["o1", "o2", "object-with-long-name", ""] {
                let s = object_shard(name, n);
                assert!(s < n);
                assert_eq!(s, object_shard(name, n), "stable across calls");
            }
        }
        // Regression pin: the routing is FNV-1a of the name.
        assert_eq!(
            object_shard("o1", 4),
            (fnv1a(b"o1") % 4) as usize
        );
    }

    #[test]
    fn runner_rejects_in_process_backends() {
        let config = TdacConfig::default();
        assert!(!config.backend.is_sharded());
        let err = ShardRunner::new(config).unwrap_err();
        assert!(matches!(err, ShardError::Tdac(TdacError::InvalidConfig(_))));
    }

    #[test]
    fn slice_guard_releases_eagerly_and_cleans_on_drop() {
        let (p0, p1, p2);
        {
            let mut slices = SliceFiles::default();
            p0 = slices.alloc(0);
            p1 = slices.alloc(1);
            p2 = slices.alloc(2);
            for p in [&p0, &p1, &p2] {
                std::fs::write(p, b"slice bytes").unwrap();
            }
            // Eager release removes exactly the named shard's file.
            slices.release(1);
            assert!(p0.exists() && !p1.exists() && p2.exists());
            // Releasing a shard with no slice (never allocated, or
            // already released) is a no-op, not a panic.
            slices.release(1);
            slices.release(99);
        }
        // Drop sweeps whatever was still allocated — the early-return
        // and panic paths ride this.
        assert!(!p0.exists() && !p2.exists());
    }
}
