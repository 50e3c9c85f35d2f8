//! The shard oracle (tentpole of the sharded-execution PR; see
//! `docs/SHARDING.md`).
//!
//! Headline invariant: a sharded run is **bit-identical** to the
//! single-process `Tdac::run` — same predictions, same confidences,
//! same trust vector, same partition — across shard counts {1,2,4,8},
//! both [`ShardStrategy`]s, and both distance kernels. Worker
//! processes are real: the tests spawn this very test binary
//! (`td-verify worker`) via `CARGO_BIN_EXE_td-verify`, so the whole
//! job-line → slice-load → partial-stream → merge path runs for real.
//!
//! Failure semantics ride along: a chaos-killed worker must surface as
//! a typed `ShardFailed` naming the shard, a worker that reports a
//! budget degradation must flag the whole outcome — never thin the
//! merge — and a worker whose partial names an id outside the dataset
//! or its group, or whose stdout line never ends, is a `Protocol`
//! fault.

use proptest::prelude::*;
use td_algorithms::{MajorityVote, TruthDiscovery, TruthResult, TruthResultRepr};
use td_model::{ObjectId, ValueId};
use td_shard::{GroupPartial, ShardError, ShardMsg, ShardRunner, WorkerCommand, CHAOS_EXIT_ENV};
use td_verify::worlds::separable_world;
use td_verify::OutcomeFingerprint;
use tdac_core::{
    DegradationReason, ExecutionBackend, KernelPolicy, RetryPolicy, ShardPlan, ShardStrategy, Tdac,
    TdacConfig,
};

/// The real worker: this test binary re-invoked with `worker`.
fn worker_cmd() -> WorkerCommand {
    WorkerCommand::new(env!("CARGO_BIN_EXE_td-verify"), vec!["worker".to_string()])
}

/// DS1 scaled down: still partitions into several attribute groups
/// (asserted below), small enough for 16 coordinator runs.
fn oracle_dataset() -> td_model::Dataset {
    datagen::generate_synthetic(&datagen::SyntheticConfig::ds1().scaled(200)).dataset
}

fn config(kernel: KernelPolicy, backend: ExecutionBackend) -> TdacConfig {
    TdacConfig {
        kernel,
        backend,
        ..TdacConfig::default()
    }
}

#[test]
fn sharded_outcome_is_bit_identical_across_counts_strategies_and_kernels() {
    let dataset = oracle_dataset();
    for kernel in [KernelPolicy::Dense, KernelPolicy::Packed] {
        let expected = Tdac::new(config(kernel, ExecutionBackend::default()))
            .run(&MajorityVote, &dataset)
            .expect("in-process reference run");
        assert!(
            !expected.fallback && expected.partition.groups().len() >= 2,
            "oracle dataset must actually partition, or the workers have nothing to do"
        );
        let reference = OutcomeFingerprint::of(&expected);
        for strategy in [ShardStrategy::ByAttributeGroup, ShardStrategy::HashByObject] {
            for shards in [1usize, 2, 4, 8] {
                let backend = ExecutionBackend::Sharded(ShardPlan::new(strategy, shards));
                let outcome = ShardRunner::new(config(kernel, backend))
                    .expect("sharded config is valid")
                    .with_worker(worker_cmd())
                    .run("MajorityVote", &dataset)
                    .unwrap_or_else(|e| {
                        panic!("sharded run ({strategy:?}, {shards} shards) failed: {e}")
                    });
                let got = OutcomeFingerprint::of(&outcome);
                if let Some(diff) = reference.diff(&got) {
                    panic!(
                        "sharded outcome diverged ({strategy:?}, {shards} shards, \
                         {kernel:?} kernel):\n{diff}"
                    );
                }
            }
        }
    }
}

#[test]
fn shard_counters_account_for_spawned_workers_and_partials() {
    let dataset = oracle_dataset();
    let obs = tdac_core::Observer::enabled();
    let cfg = TdacConfig {
        observer: obs.clone(),
        ..config(
            KernelPolicy::Auto,
            ExecutionBackend::Sharded(ShardPlan::new(ShardStrategy::ByAttributeGroup, 2)),
        )
    };
    let outcome = ShardRunner::new(cfg)
        .expect("valid config")
        .with_worker(worker_cmd())
        .run("MajorityVote", &dataset)
        .expect("sharded run");
    let groups = outcome.partition.groups().len() as u64;
    let profile = obs.profile().expect("enabled observer yields a profile");
    assert_eq!(profile.counter("shards_spawned"), Some(2));
    assert_eq!(profile.counter("shard_partials"), Some(groups));
    assert_eq!(profile.counter("shard_failures").unwrap_or(0), 0);
}

#[test]
fn chaos_killed_worker_is_a_typed_shard_failure_naming_the_shard() {
    let dataset = oracle_dataset();
    let backend = ExecutionBackend::Sharded(ShardPlan::new(ShardStrategy::ByAttributeGroup, 2));
    // Victim: shard 1 (owns the odd-indexed groups). The env rides on
    // the worker command — every worker sees it, only shard 1 matches
    // its own index and dies after its first partial, without `Done`.
    let err = ShardRunner::new(config(KernelPolicy::Auto, backend))
        .expect("valid config")
        .with_worker(worker_cmd().env(CHAOS_EXIT_ENV, "1"))
        .run("MajorityVote", &dataset)
        .expect_err("a killed worker must fail the run, not thin the merge");
    match err {
        ShardError::ShardFailed { shard, detail } => {
            assert_eq!(shard, 1, "the error names the dead shard");
            assert!(
                detail.contains("exited before"),
                "detail describes the death: {detail}"
            );
        }
        other => panic!("expected ShardFailed for shard 1, got: {other}"),
    }
}

#[test]
fn worker_reported_degradation_flags_the_whole_outcome() {
    // A scripted "worker" that drains its job and answers with a
    // Degraded message: the coordinator must return the flagged
    // reference outcome (fallback, degradation attached) — a partial
    // merge is never an option.
    let degradation = tdac_core::Degradation {
        reason: tdac_core::DegradationReason::Deadline(1),
        phase: "shard_group_run".to_string(),
        work: tdac_core::WorkCompleted::default(),
    };
    let script_msgs = format!(
        "{}\n{}\n",
        serde_json::to_string(&td_shard::ShardMsg::Degraded(degradation)).unwrap(),
        serde_json::to_string(&td_shard::ShardMsg::Done).unwrap(),
    );
    let script_path = std::env::temp_dir().join(format!(
        "td-shard-degrade-script-{}.jsonl",
        std::process::id()
    ));
    std::fs::write(&script_path, script_msgs).unwrap();

    let dataset = oracle_dataset();
    let backend = ExecutionBackend::Sharded(ShardPlan::new(ShardStrategy::ByAttributeGroup, 2));
    let worker = WorkerCommand::new(
        "/bin/sh",
        vec![
            "-c".to_string(),
            // Drain stdin first so the coordinator's job write cannot
            // hit a closed pipe, then replay the canned messages.
            format!("cat >/dev/null; cat {}", script_path.display()),
        ],
    );
    let outcome = ShardRunner::new(config(KernelPolicy::Auto, backend))
        .expect("valid config")
        .with_worker(worker)
        .run("MajorityVote", &dataset)
        .expect("a degraded shard yields a flagged outcome, not an error");
    std::fs::remove_file(&script_path).ok();
    assert!(outcome.fallback, "degraded runs fall back to the reference");
    assert!(
        outcome.degradation.is_some(),
        "the worker's degradation is attached, not dropped"
    );
    // The flagged result is the reference run over the whole view —
    // exactly what the in-process path returns when its per-group
    // phase is refused.
    let reference = MajorityVote.discover(&dataset.view_all());
    td_verify::assert_bit_identical(&outcome.result, &reference, "degraded shard fallback");
}

#[test]
fn strategy_probe_rejects_hook_less_algorithms_before_spawning() {
    // TruthFinder's trust depends on its iteration history, so it has
    // no trust_from_predictions hook: object-hash sharding must refuse
    // it up front with a typed error (attribute-group sharding is fine).
    let dataset = oracle_dataset();
    let backend = ExecutionBackend::Sharded(ShardPlan::new(ShardStrategy::HashByObject, 2));
    let err = ShardRunner::new(config(KernelPolicy::Auto, backend))
        .expect("valid config")
        .with_worker(worker_cmd())
        .run("TruthFinder", &dataset)
        .expect_err("no hook, no object sharding");
    match err {
        ShardError::StrategyUnsupported {
            algorithm,
            strategy,
        } => {
            assert_eq!(algorithm, "TruthFinder");
            assert_eq!(strategy, ShardStrategy::HashByObject);
        }
        other => panic!("expected StrategyUnsupported, got: {other}"),
    }
}

/// A scripted worker: drains its job line (so the coordinator's write
/// cannot hit a closed pipe), then runs `reply` in `sh`.
fn scripted_worker(reply: &str) -> WorkerCommand {
    WorkerCommand::new(
        "/bin/sh",
        vec!["-c".to_string(), format!("cat >/dev/null; {reply}")],
    )
}

/// One shard holding every group, so a canned reply for group 0 always
/// answers a group the shard was given.
fn one_shard_plan(attempts: u32) -> ShardPlan {
    let mut plan = ShardPlan::new(ShardStrategy::ByAttributeGroup, 1);
    plan.retry = RetryPolicy {
        max_attempts: attempts,
        backoff_base_ms: 0,
        backoff_cap_ms: 0,
    };
    plan
}

#[test]
fn hostile_partials_are_protocol_faults_and_never_merged() {
    let dataset = oracle_dataset();
    let expected = Tdac::new(TdacConfig::default())
        .run(&MajorityVote, &dataset)
        .expect("in-process reference run");
    let groups = expected.partition.groups();
    assert!(groups.len() >= 2, "the hostile rows need a second group");
    let (mine, theirs) = (groups[0][0], groups[1][0]);
    let hostile = [
        (
            "object",
            ObjectId::new(4_000_000_000),
            mine,
            ValueId::new(0),
        ),
        (
            "value",
            ObjectId::new(0),
            mine,
            ValueId::new(dataset.n_values() as u32),
        ),
        ("attribute", ObjectId::new(0), theirs, ValueId::new(0)),
    ];
    for (what, o, a, v) in hostile {
        // A well-formed line for group 0 whose one row is out of bounds.
        let partial = ShardMsg::Partial(GroupPartial {
            group: 0,
            result: TruthResultRepr {
                predictions: vec![(o, a, v, 1.0)],
                source_trust: vec![0.5; dataset.n_sources()],
                iterations: 1,
            },
        });
        let script = std::env::temp_dir().join(format!(
            "td-shard-hostile-{what}-{}.jsonl",
            std::process::id()
        ));
        let lines = [&partial, &ShardMsg::Done].map(|m| serde_json::to_string(m).unwrap());
        std::fs::write(&script, lines.join("\n") + "\n").unwrap();
        let worker = scripted_worker(&format!("cat {}", script.display()));
        let run = |attempts: u32| {
            ShardRunner::new(config(
                KernelPolicy::Auto,
                ExecutionBackend::Sharded(one_shard_plan(attempts)),
            ))
            .expect("valid config")
            .with_worker(worker.clone())
            .run("MajorityVote", &dataset)
        };

        match run(1) {
            Err(ShardError::Protocol { shard, detail }) => {
                assert_eq!(shard, 0, "{what}: the error names the shard");
                assert!(detail.contains(what), "{what}: {detail}");
            }
            other => panic!("{what}: expected a Protocol fault, got {other:?}"),
        }

        // With retries armed, every attempt faults the same way and the
        // shard runs in-process: flagged, with the clean bits.
        let outcome = run(2).expect("exhausted retries fall back");
        std::fs::remove_file(&script).ok();
        match outcome.degradation.as_ref().map(|d| &d.reason) {
            Some(DegradationReason::ShardFallback(fault)) => {
                assert_eq!(fault.shard, 0, "{what}");
                assert!(fault.detail.contains(what), "{what}: {}", fault.detail);
            }
            other => panic!("{what}: expected a ShardFallback flag, got {other:?}"),
        }
        if let Some(diff) =
            OutcomeFingerprint::of(&expected).diff(&OutcomeFingerprint::of(&outcome))
        {
            panic!("{what}: the fallback merge took in a hostile row:\n{diff}");
        }
    }
}

#[test]
fn a_second_partial_for_a_group_is_a_protocol_fault() {
    let dataset = oracle_dataset();
    let partial = ShardMsg::Partial(GroupPartial {
        group: 0,
        result: TruthResultRepr {
            predictions: Vec::new(),
            source_trust: vec![0.5; dataset.n_sources()],
            iterations: 1,
        },
    });
    let lines = [&partial, &partial, &ShardMsg::Done].map(|m| serde_json::to_string(m).unwrap());
    let script = std::env::temp_dir().join(format!("td-shard-twice-{}.jsonl", std::process::id()));
    std::fs::write(&script, lines.join("\n") + "\n").unwrap();
    let err = ShardRunner::new(config(
        KernelPolicy::Auto,
        ExecutionBackend::Sharded(one_shard_plan(1)),
    ))
    .expect("valid config")
    .with_worker(scripted_worker(&format!("cat {}", script.display())))
    .run("MajorityVote", &dataset)
    .expect_err("a group answered twice cannot complete a shard");
    std::fs::remove_file(&script).ok();
    match err {
        ShardError::Protocol { shard, detail } => {
            assert_eq!(shard, 0);
            assert!(detail.contains("a second partial for group 0"), "{detail}");
        }
        other => panic!("expected a Protocol fault, got {other:?}"),
    }
}

#[test]
fn an_endless_stdout_line_is_a_protocol_fault() {
    // No `\n`, ever: the coordinator must stop reading at the job's
    // line bound instead of buffering without limit.
    let err = ShardRunner::new(config(
        KernelPolicy::Auto,
        ExecutionBackend::Sharded(one_shard_plan(1)),
    ))
    .expect("valid config")
    .with_worker(scripted_worker("exec cat /dev/zero"))
    .run("MajorityVote", &oracle_dataset())
    .expect_err("an endless line cannot complete a shard");
    match err {
        ShardError::Protocol { shard, detail } => {
            assert_eq!(shard, 0);
            assert!(detail.contains("line longer than"), "{detail}");
        }
        other => panic!("expected a Protocol fault, got {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The object-sharding merge math, divorced from processes: for ANY
    /// assignment of objects to buckets, running the base algorithm per
    /// bucket-restricted claim subset, unioning the predictions, and
    /// re-deriving trust through `trust_from_predictions` reproduces
    /// the whole-view run to the bit. (`HashByObject` is one particular
    /// assignment — the FNV-1a one — so the oracle above is the
    /// end-to-end instance of this property.)
    #[test]
    fn any_object_partition_unions_to_the_canonical_result(
        buckets in proptest::collection::vec(0usize..4, 8),
    ) {
        let world = separable_world(&[2, 2], 8);
        let dataset = &world.dataset;
        let view = dataset.view_all();
        let expected = MajorityVote.discover(&view);

        let mut unioned = TruthResult::default();
        for b in 0..4usize {
            let slice = dataset
                .subset_where(|c| buckets[c.object.index()] == b)
                .expect("bucket subset is a valid dataset");
            let partial = MajorityVote.discover(&slice.view_all());
            for (o, a, v, c) in partial.iter() {
                unioned.set_prediction(o, a, v, c);
            }
            unioned.iterations = unioned.iterations.max(partial.iterations);
        }
        unioned.source_trust = MajorityVote
            .trust_from_predictions(&view, &unioned)
            .expect("MajorityVote implements the hook");

        td_verify::assert_bit_identical(&unioned, &expected, "object-partition union");
        prop_assert_eq!(unioned.iterations, expected.iterations);
    }
}
