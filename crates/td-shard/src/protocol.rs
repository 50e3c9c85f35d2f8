//! The coordinator ⇄ worker wire protocol.
//!
//! Same framing as td-serve's protocol, `serde_json::line`: one JSON
//! document per line, typed on both ends, unknown garbage rejected
//! loudly. The coordinator writes exactly one [`ShardJob`] line to the
//! worker's stdin and then closes it; the worker answers with a stream
//! of [`ShardMsg`] lines on stdout, terminated by [`ShardMsg::Done`].
//! Anything on stderr is free-form logging and never parsed.
//!
//! A worker that exits before `Done` — crash, kill, chaos — is
//! detected by the EOF on its stdout and surfaces as
//! [`ShardFailed`](crate::ShardError::ShardFailed); the merge never
//! quietly proceeds with fewer partials.

use serde::{Deserialize, Serialize};
use td_algorithms::TruthResult;
use td_model::AttributeId;
use td_obs::Degradation;
use tdac_core::Parallelism;

/// Environment variable for chaos testing: when set to a worker's own
/// shard index, that worker exits abruptly after emitting its first
/// partial — simulating a mid-run crash, on **every** attempt. Under
/// the default fail-fast [`RetryPolicy`](tdac_core::RetryPolicy) the
/// coordinator must turn this into a typed
/// [`ShardFailed`](crate::ShardError::ShardFailed) naming the shard;
/// with retries armed the shard burns every attempt and lands in the
/// in-process fallback. Set it on the coordinator's
/// [`WorkerCommand`](crate::WorkerCommand) envs, never globally.
pub const CHAOS_EXIT_ENV: &str = "TD_SHARD_CHAOS_EXIT";

/// Environment variable for per-attempt chaos schedules:
/// `"<shard>:<letters>"`, where letter *i* (1-indexed by the job's
/// `attempt`) picks the behavior of that attempt — `F` fail (exit
/// without `Done` after the first partial), `H` hang (sleep forever
/// after the first partial, forcing the coordinator's stall detection),
/// anything else or past the end of the string: succeed normally. So
/// `"1:F"` makes shard 1 die once and succeed on retry, `"0:FH"` makes
/// shard 0 die, then hang, then succeed. [`CHAOS_EXIT_ENV`] wins when
/// both are set.
pub const CHAOS_PLAN_ENV: &str = "TD_SHARD_CHAOS_PLAN";

/// One attribute group a worker must run, tagged with its index in the
/// *global* partition so partials reassemble in group order no matter
/// how groups were dealt across shards.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GroupAssignment {
    /// Index of this group in the coordinator's global partition.
    pub group: usize,
    /// The group's attributes (global ids, valid in the slice store —
    /// slices keep the parent's interner tables).
    pub attributes: Vec<AttributeId>,
}

/// The single job line a worker reads from stdin.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardJob {
    /// This worker's shard index (also its chaos-injection key).
    pub shard: usize,
    /// Base algorithm name, resolved via
    /// `td_algorithms::registry::algorithm_by_name`.
    pub algorithm: String,
    /// Path of the `.tds` slice the coordinator extracted for this
    /// shard. Workers seed through `DatasetStore::load`.
    pub store_path: String,
    /// Rayon parallelism for the worker's own group loop
    /// (`ShardPlan::worker_parallelism`).
    pub parallelism: Parallelism,
    /// Per-shard deadline in milliseconds (`ShardPlan::worker_deadline_ms`):
    /// the worker stops at the next group boundary past it and reports
    /// a [`ShardMsg::Degraded`] instead of more partials.
    pub deadline_ms: Option<u64>,
    /// Which spawn attempt this job belongs to, 1-based — the
    /// supervisor's retry counter, echoed here so chaos schedules
    /// ([`CHAOS_PLAN_ENV`]) can vary behavior per attempt. Absent in
    /// job lines from pre-retry coordinators; workers treat 0 as 1.
    #[serde(default)]
    pub attempt: u32,
    /// The groups this shard executes.
    pub groups: Vec<GroupAssignment>,
}

/// One finished per-group base run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GroupPartial {
    /// Index of the group in the coordinator's global partition.
    pub group: usize,
    /// The base algorithm's result over the shard's view of the group.
    pub result: TruthResult,
}

/// A worker-side error report (panic in the base algorithm, unreadable
/// slice, unknown algorithm) — the worker's last line before exiting
/// non-zero.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkerFailure {
    /// Which phase failed (`"load"`, `"resolve"`, `"group_run"`).
    pub phase: String,
    /// Human-readable detail.
    pub detail: String,
}

/// A worker → coordinator message; one per stdout line.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum ShardMsg {
    /// One group's base run finished.
    Partial(GroupPartial),
    /// The worker hit its deadline: no further partials will come, and
    /// the coordinator must degrade the whole run (a partial merge is
    /// never an option).
    Degraded(Degradation),
    /// The worker failed; `ShardMsg::Done` will not follow.
    Failed(WorkerFailure),
    /// Clean end-of-stream marker: every assigned group was reported.
    Done,
}

#[cfg(test)]
mod tests {
    use super::*;
    use td_model::{DatasetBuilder, ObjectId, Value, ValueId};
    use td_obs::{DegradationReason, WorkCompleted};

    #[test]
    fn job_round_trips_through_json_lines() {
        let mut b = DatasetBuilder::new();
        b.claim("s", "o", "a1", Value::int(1)).unwrap();
        b.claim("s", "o", "a2", Value::int(2)).unwrap();
        let d = b.build();
        let attrs: Vec<AttributeId> = d.attribute_ids().collect();
        let job = ShardJob {
            shard: 3,
            algorithm: "MajorityVote".into(),
            store_path: "/tmp/slice.tds".into(),
            parallelism: Parallelism::Threads(2),
            deadline_ms: Some(750),
            attempt: 2,
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
        let line = serde_json::to_string(&job).unwrap();
        assert!(!line.contains('\n'), "wire format is one line per job");
        let back: ShardJob = serde_json::from_str(&line).unwrap();
        assert_eq!(back, job);

        // Job lines from pre-retry coordinators carry no `attempt` key;
        // they deserialize to 0 (which workers treat as attempt 1).
        let value: serde_json::Value = serde_json::from_str(&line).unwrap();
        let serde_json::Value::Object(map) = value else {
            panic!("job serializes as an object")
        };
        let stripped: serde_json::Map = map.into_iter().filter(|(k, _)| k != "attempt").collect();
        let legacy: ShardJob =
            serde_json::from_value(&serde_json::Value::Object(stripped)).unwrap();
        assert_eq!(legacy.attempt, 0);
        assert_eq!(legacy.groups, job.groups);
    }

    /// The lines `docs/SHARDING.md` shows, each the bytes
    /// `serde_json::line::write` puts on the wire for one value.
    const DOCUMENTED: [&str; 5] = [
        r#"{"shard":1,"algorithm":"MajorityVote","store_path":"/tmp/td-shard-4242-0-s1.tds","parallelism":{"Threads":1},"deadline_ms":30000,"attempt":1,"groups":[{"group":0,"attributes":[0,3]},{"group":2,"attributes":[5]}]}"#,
        r#"{"Partial":{"group":2,"result":{"predictions":[[0,5,1,1.0]],"source_trust":[1.0,0.0],"iterations":1}}}"#,
        r#"{"Degraded":{"reason":{"Deadline":30000},"phase":"shard_group_run","work":{"distance_evals":0,"fixpoint_iterations":0,"partitions_scanned":0,"elapsed_ms":30002}}}"#,
        r#"{"Failed":{"phase":"resolve","detail":"unknown base algorithm \"NoSuchAlgorithm\""}}"#,
        r#""Done""#,
    ];

    #[test]
    fn documented_lines_are_the_bytes_on_the_wire() {
        let job = ShardJob {
            shard: 1,
            algorithm: "MajorityVote".into(),
            store_path: "/tmp/td-shard-4242-0-s1.tds".into(),
            parallelism: Parallelism::Threads(1),
            deadline_ms: Some(30_000),
            attempt: 1,
            groups: vec![
                GroupAssignment {
                    group: 0,
                    attributes: vec![AttributeId::new(0), AttributeId::new(3)],
                },
                GroupAssignment {
                    group: 2,
                    attributes: vec![AttributeId::new(5)],
                },
            ],
        };
        let mut result = TruthResult::with_sources(2, 0.0);
        result.source_trust[0] = 1.0;
        result.set_prediction(ObjectId::new(0), AttributeId::new(5), ValueId::new(1), 1.0);
        result.iterations = 1;
        let msgs = [
            ShardMsg::Partial(GroupPartial { group: 2, result }),
            ShardMsg::Degraded(Degradation {
                reason: DegradationReason::Deadline(30_000),
                phase: "shard_group_run".into(),
                work: WorkCompleted {
                    elapsed_ms: 30_002,
                    ..WorkCompleted::default()
                },
            }),
            ShardMsg::Failed(WorkerFailure {
                phase: "resolve".into(),
                detail: "unknown base algorithm \"NoSuchAlgorithm\"".into(),
            }),
            ShardMsg::Done,
        ];
        let mut written = Vec::new();
        serde_json::line::write(&mut written, &job).unwrap();
        for msg in &msgs {
            serde_json::line::write(&mut written, msg).unwrap();
        }
        let written = String::from_utf8(written).unwrap();
        assert_eq!(written, DOCUMENTED.map(|l| format!("{l}\n")).concat());

        let doc = include_str!("../../../docs/SHARDING.md");
        for documented in DOCUMENTED {
            assert!(
                doc.contains(documented),
                "docs/SHARDING.md lacks {documented}"
            );
        }
        let back: ShardJob = serde_json::line::decode(DOCUMENTED[0].as_bytes()).unwrap();
        assert_eq!(back, job);
        for documented in &DOCUMENTED[1..] {
            let msg: ShardMsg = serde_json::line::decode(documented.as_bytes()).unwrap();
            assert_eq!(serde_json::to_string(&msg).unwrap(), *documented);
        }
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        // Worker stdout lines and job lines go through the same parser as
        // the server's requests; a line of `[` must fail to parse on a
        // std-default 2 MiB thread instead of overflowing its stack.
        fn rejected<T: serde::Deserialize>(line: String) -> bool {
            std::thread::Builder::new()
                .stack_size(2 << 20)
                .spawn(move || serde_json::from_str::<T>(&line).is_err())
                .expect("spawn a parsing thread")
                .join()
                .expect("parsing never panics")
        }
        assert!(rejected::<ShardMsg>("[".repeat(20_000)));
        assert!(rejected::<ShardJob>("[".repeat(20_000)));
        let nest = "[".repeat(128) + &"]".repeat(128);
        assert!(!rejected::<serde_json::Value>(nest));
    }

    #[test]
    fn messages_round_trip() {
        let mut result = TruthResult::with_sources(2, 0.0);
        result.iterations = 1;
        let msgs = [
            ShardMsg::Partial(GroupPartial { group: 4, result }),
            ShardMsg::Failed(WorkerFailure {
                phase: "group_run".into(),
                detail: "base algorithm panicked".into(),
            }),
            ShardMsg::Done,
        ];
        for msg in &msgs {
            let line = serde_json::to_string(msg).unwrap();
            let back: ShardMsg = serde_json::from_str(&line).unwrap();
            match (msg, &back) {
                (ShardMsg::Partial(a), ShardMsg::Partial(b)) => {
                    assert_eq!(a.group, b.group);
                    assert_eq!(a.result.iterations, b.result.iterations);
                    assert_eq!(a.result.source_trust, b.result.source_trust);
                }
                (ShardMsg::Failed(a), ShardMsg::Failed(b)) => assert_eq!(a, b),
                (ShardMsg::Done, ShardMsg::Done) => {}
                _ => panic!("variant changed across the wire"),
            }
        }
    }
}
