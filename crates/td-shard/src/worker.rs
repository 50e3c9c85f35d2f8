//! The worker half: runs inside a `tdc worker` / `td-verify worker`
//! child process, executing one shard's groups against its `.tds`
//! slice.
//!
//! A worker is deliberately dumb: it does **no** model selection, no
//! merging, no strategy logic. It loads the slice, resolves the base
//! algorithm, runs `discover` once per assigned group, and streams the
//! partials back. Everything clever — and everything that must be
//! bit-identical to the in-process path — lives in the coordinator.

use std::io::{BufRead, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use serde_json::line;
use td_algorithms::registry::algorithm_by_name;
use td_algorithms::TruthDiscovery;
use td_obs::{Budget, ExecutionLimits, Observer};
use td_store::DatasetStore;

use crate::protocol::{
    GroupPartial, ShardJob, ShardMsg, WorkerFailure, CHAOS_EXIT_ENV, CHAOS_PLAN_ENV,
};

/// What chaos injection asks of this worker run, resolved once from the
/// environment before the group loop starts. Fallback execution inside
/// the coordinator passes [`ChaosAction::None`] explicitly — the
/// coordinator process often *inherits* the chaos variables it set for
/// its children, and the in-process fallback must be immune to them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosAction {
    /// Run normally.
    None,
    /// Exit abruptly (no `Done`) after the first partial.
    Exit,
    /// Sleep forever after the first partial, forcing the
    /// coordinator's stall detection to fire.
    Hang,
}

/// Resolves the chaos action for `(shard, attempt)` from the process
/// environment: [`CHAOS_EXIT_ENV`] (always die) wins over
/// [`CHAOS_PLAN_ENV`] (per-attempt schedule).
fn chaos_from_env(shard: usize, attempt: u32) -> ChaosAction {
    if std::env::var(CHAOS_EXIT_ENV)
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        == Some(shard)
    {
        return ChaosAction::Exit;
    }
    match std::env::var(CHAOS_PLAN_ENV) {
        Ok(plan) => chaos_from_plan(&plan, shard, attempt),
        Err(_) => ChaosAction::None,
    }
}

/// The pure schedule lookup behind [`CHAOS_PLAN_ENV`]:
/// `"<shard>:<letters>"`, letter `attempt` (1-indexed) ∈ {`F`ail,
/// `H`ang, anything else = succeed}; past the end = succeed.
fn chaos_from_plan(plan: &str, shard: usize, attempt: u32) -> ChaosAction {
    let Some((target, letters)) = plan.split_once(':') else {
        return ChaosAction::None;
    };
    if target.trim().parse::<usize>().ok() != Some(shard) {
        return ChaosAction::None;
    }
    let idx = (attempt.max(1) - 1) as usize;
    match letters.chars().nth(idx) {
        Some('F') | Some('f') => ChaosAction::Exit,
        Some('H') | Some('h') => ChaosAction::Hang,
        _ => ChaosAction::None,
    }
}

/// Reads one [`ShardJob`] line from real stdin, streams [`ShardMsg`]
/// lines to real stdout, and returns the process exit code. Binary
/// front ends (`tdc worker`, `td-verify worker`) call this and
/// `std::process::exit` the result.
pub fn worker_main() -> i32 {
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    run_worker(stdin.lock(), stdout.lock())
}

/// [`worker_main`] over caller-supplied streams, for in-process tests.
pub fn run_worker(mut input: impl BufRead, mut out: impl Write) -> i32 {
    let mut emit = |msg: ShardMsg| {
        line::write(&mut out, &msg)?;
        out.flush()
    };
    let mut buf = Vec::new();
    if let Err(e) = line::read(&mut input, &mut buf, usize::MAX) {
        return fail(&mut emit, "load", format!("reading job line: {e}"));
    }
    let job: ShardJob = match line::decode(&buf) {
        Ok(job) => job,
        Err(e) => return fail(&mut emit, "load", format!("parsing job line: {e}")),
    };
    let chaos = chaos_from_env(job.shard, job.attempt);
    execute(&job, chaos, &mut emit)
}

/// Where [`execute`] sends each message: stdout lines in a worker
/// process, a vector in the coordinator's in-process fallback.
pub(crate) type Sink<'a> = dyn FnMut(ShardMsg) -> std::io::Result<()> + 'a;

/// The worker's group loop over an already-parsed job: load the slice,
/// resolve the base algorithm, pass each partial to `emit`, finish with
/// `Done`. Shared verbatim between child processes ([`run_worker`]) and
/// the coordinator's in-process fallback after exhausted retries — the
/// one other difference is that the fallback pins `chaos` to
/// [`ChaosAction::None`].
pub(crate) fn execute(job: &ShardJob, chaos: ChaosAction, emit: &mut Sink<'_>) -> i32 {
    let store = match DatasetStore::load(&job.store_path) {
        Ok(store) => store,
        Err(e) => {
            return fail(
                emit,
                "load",
                format!("loading slice {:?}: {e}", job.store_path),
            )
        }
    };
    let Some(base) = algorithm_by_name(&job.algorithm) else {
        return fail(
            emit,
            "resolve",
            format!("unknown base algorithm {:?}", job.algorithm),
        );
    };
    let limits = match job.deadline_ms {
        Some(ms) => ExecutionLimits::none().with_deadline(Duration::from_millis(ms)),
        None => ExecutionLimits::none(),
    };
    let obs = Observer::disabled();
    let budget = Budget::arm(&limits, &obs);

    job.parallelism.install(|| {
        for assignment in &job.groups {
            // Deadlines are honored at group boundaries: the shard
            // stops early and reports the degradation itself; a shard
            // stuck *inside* a base run is the coordinator's timeout
            // to catch.
            if let Some(budget) = budget.as_ref() {
                if let Some(deg) = budget.check("shard_group_run") {
                    if emit(ShardMsg::Degraded(deg)).is_err() {
                        return 1;
                    }
                    return finish(emit);
                }
            }
            let view = store.dataset.view_of(&assignment.attributes);
            let result = match catch_unwind(AssertUnwindSafe(|| base.discover(&view))) {
                Ok(result) => result,
                Err(_) => {
                    return fail(
                        emit,
                        "group_run",
                        format!("base algorithm panicked on group {}", assignment.group),
                    )
                }
            };
            let partial = GroupPartial {
                group: assignment.group,
                result: result.into(),
            };
            if emit(ShardMsg::Partial(partial)).is_err() {
                return 1;
            }
            match chaos {
                ChaosAction::None => {}
                // Die without Done — the coordinator must notice.
                ChaosAction::Exit => return 101,
                ChaosAction::Hang => loop {
                    std::thread::sleep(Duration::from_secs(3_600));
                },
            }
        }
        match chaos {
            ChaosAction::None => finish(emit),
            ChaosAction::Exit => 101,
            ChaosAction::Hang => loop {
                std::thread::sleep(Duration::from_secs(3_600));
            },
        }
    })
}

fn finish(emit: &mut Sink<'_>) -> i32 {
    match emit(ShardMsg::Done) {
        Ok(()) => 0,
        Err(_) => 1,
    }
}

fn fail(emit: &mut Sink<'_>, phase: &str, detail: String) -> i32 {
    let _ = emit(ShardMsg::Failed(WorkerFailure {
        phase: phase.to_string(),
        detail,
    }));
    2
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::GroupAssignment;
    use td_model::{AttributeId, DatasetBuilder, Value};
    use tdac_core::Parallelism;

    fn slice_on_disk() -> (DatasetStore, std::path::PathBuf, Vec<AttributeId>) {
        let mut b = DatasetBuilder::new();
        b.claim("s1", "o", "a1", Value::int(1)).unwrap();
        b.claim("s2", "o", "a1", Value::int(1)).unwrap();
        b.claim("s1", "o", "a2", Value::int(2)).unwrap();
        let d = b.build();
        let attrs: Vec<AttributeId> = d.attribute_ids().collect();
        let store = DatasetStore::new(d);
        let path = std::env::temp_dir().join(format!(
            "td-shard-worker-test-{}-{:p}.tds",
            std::process::id(),
            &store
        ));
        store.save(&path).unwrap();
        (store, path, attrs)
    }

    fn run_job(job: &ShardJob) -> (i32, Vec<ShardMsg>) {
        let input = format!("{}\n", serde_json::to_string(job).unwrap());
        let mut out = Vec::new();
        let code = run_worker(input.as_bytes(), &mut out);
        let msgs = String::from_utf8(out)
            .unwrap()
            .lines()
            .map(|l| serde_json::from_str::<ShardMsg>(l).unwrap())
            .collect();
        (code, msgs)
    }

    #[test]
    fn runs_groups_and_reports_done() {
        let (store, path, attrs) = slice_on_disk();
        let job = ShardJob {
            shard: 0,
            algorithm: "MajorityVote".into(),
            store_path: path.display().to_string(),
            parallelism: Parallelism::Threads(1),
            deadline_ms: None,
            attempt: 1,
            groups: vec![
                GroupAssignment {
                    group: 0,
                    attributes: vec![attrs[0]],
                },
                GroupAssignment {
                    group: 1,
                    attributes: vec![attrs[1]],
                },
            ],
        };
        let (code, msgs) = run_job(&job);
        std::fs::remove_file(&path).ok();
        assert_eq!(code, 0);
        assert_eq!(msgs.len(), 3);
        let ShardMsg::Partial(p0) = &msgs[0] else {
            panic!("expected first partial")
        };
        assert_eq!(p0.group, 0);
        // Bit-identical to an in-process discover over the same view.
        let direct = td_algorithms::MajorityVote.discover(&store.dataset.view_of(&attrs[..1]));
        assert_eq!(p0.result.predictions, direct.iter().collect::<Vec<_>>());
        for (got, want) in p0.result.source_trust.iter().zip(&direct.source_trust) {
            assert_eq!(got.to_bits(), want.to_bits());
        }
        assert!(matches!(msgs[1], ShardMsg::Partial(_)));
        assert!(matches!(msgs[2], ShardMsg::Done));
    }

    #[test]
    fn unknown_algorithm_is_a_typed_failure() {
        let (_store, path, attrs) = slice_on_disk();
        let job = ShardJob {
            shard: 0,
            algorithm: "NoSuchAlgorithm".into(),
            store_path: path.display().to_string(),
            parallelism: Parallelism::Threads(1),
            deadline_ms: None,
            attempt: 1,
            groups: vec![GroupAssignment {
                group: 0,
                attributes: attrs,
            }],
        };
        let (code, msgs) = run_job(&job);
        std::fs::remove_file(&path).ok();
        assert_ne!(code, 0);
        assert_eq!(msgs.len(), 1);
        let ShardMsg::Failed(f) = &msgs[0] else {
            panic!("expected a failure report")
        };
        assert_eq!(f.phase, "resolve");
    }

    #[test]
    fn garbage_job_line_fails_cleanly() {
        let mut out = Vec::new();
        let code = run_worker("not json at all\n".as_bytes(), &mut out);
        assert_ne!(code, 0);
        let text = String::from_utf8(out).unwrap();
        let msg: ShardMsg = serde_json::from_str(text.lines().next().unwrap()).unwrap();
        assert!(matches!(msg, ShardMsg::Failed(_)));
    }

    #[test]
    fn blown_deadline_degrades_at_a_group_boundary() {
        // A 1 ms deadline against hundreds of repeated base runs over a
        // real dataset: the budget check between groups must fire long
        // before the queue drains, yielding Degraded + Done instead of
        // the full partial stream.
        let synth = datagen::generate_synthetic(&datagen::SyntheticConfig::ds1());
        let attrs: Vec<AttributeId> = synth.dataset.attribute_ids().collect();
        let store = DatasetStore::new(synth.dataset);
        let path = std::env::temp_dir().join(format!(
            "td-shard-worker-deadline-{}.tds",
            std::process::id()
        ));
        store.save(&path).unwrap();
        let repeats = 512;
        let job = ShardJob {
            shard: 0,
            algorithm: "MajorityVote".into(),
            store_path: path.display().to_string(),
            parallelism: Parallelism::Threads(1),
            deadline_ms: Some(1),
            attempt: 1,
            groups: (0..repeats)
                .map(|i| GroupAssignment {
                    group: i,
                    attributes: attrs.clone(),
                })
                .collect(),
        };
        let (code, msgs) = run_job(&job);
        std::fs::remove_file(&path).ok();
        assert_eq!(code, 0);
        let degraded = msgs
            .iter()
            .position(|m| matches!(m, ShardMsg::Degraded(_)))
            .expect("deadline must surface as a Degraded message");
        assert!(degraded < repeats, "degraded before the queue drained");
        assert!(msgs[..degraded]
            .iter()
            .all(|m| matches!(m, ShardMsg::Partial(_))));
        assert!(matches!(msgs[degraded + 1], ShardMsg::Done));
        assert_eq!(msgs.len(), degraded + 2);
    }

    #[test]
    fn chaos_plan_schedules_per_attempt() {
        // "1:FH": shard 1 fails on attempt 1, hangs on attempt 2,
        // succeeds from attempt 3 on; other shards never match.
        assert_eq!(chaos_from_plan("1:FH", 1, 1), ChaosAction::Exit);
        assert_eq!(chaos_from_plan("1:FH", 1, 2), ChaosAction::Hang);
        assert_eq!(chaos_from_plan("1:FH", 1, 3), ChaosAction::None);
        assert_eq!(chaos_from_plan("1:FH", 0, 1), ChaosAction::None);
        assert_eq!(chaos_from_plan("1:FH", 2, 2), ChaosAction::None);
        // Lowercase letters and explicit succeed markers work too.
        assert_eq!(chaos_from_plan("0:sfh", 0, 1), ChaosAction::None);
        assert_eq!(chaos_from_plan("0:sfh", 0, 2), ChaosAction::Exit);
        assert_eq!(chaos_from_plan("0:sfh", 0, 3), ChaosAction::Hang);
        // Pre-retry job lines carry attempt 0; it reads as attempt 1.
        assert_eq!(chaos_from_plan("3:F", 3, 0), ChaosAction::Exit);
        // Malformed plans are inert, never a panic.
        assert_eq!(chaos_from_plan("", 0, 1), ChaosAction::None);
        assert_eq!(chaos_from_plan("nonsense", 0, 1), ChaosAction::None);
        assert_eq!(chaos_from_plan("x:F", 0, 1), ChaosAction::None);
    }
}
