//! Chaos oracles: faults injected at phase boundaries through
//! [`td_verify::ChaosHook`] must uphold the robustness contract of the
//! execution-limits layer (`docs/ROBUSTNESS.md`):
//!
//! * **(a) no escape, no lies** — every injected panic surfaces as a
//!   typed `WorkerPanic` naming the phase; every injected stall or
//!   cancellation yields an `Ok` outcome *flagged* with a
//!   [`Degradation`] record whose result is still a sound merged
//!   truth-discovery answer. Never an abort, never a silently wrong
//!   result.
//! * **(b) invisible when off** — with limits disabled (or merely
//!   generous), the pipeline is bit-identical to the committed DS1
//!   golden; the robustness layer may not move a single output bit.
//! * **(c) deterministic degradation** — counter-budget degraded
//!   outcomes are bit-identical at `Threads(1)` / `(2)` / `(8)` /
//!   `Auto`.
//!
//! [`Degradation`]: tdac_core::Degradation

use std::sync::Arc;
use std::time::Duration;

use td_algorithms::{Accu, MajorityVote, TruthDiscovery};
use td_model::{ClaimBatch, Value};
use td_verify::golden::{check_ds1, compute_ds1, compute_ds1_with, diff_ds1};
use td_verify::worlds::separable_world;
use td_verify::{ChaosHook, OutcomeFingerprint, ResultFingerprint};
use tdac_core::{
    AccuGenError, AccuGenPartition, CancelToken, DegradationReason, ExecutionBackend,
    ExecutionLimits, Parallelism, RepartitionPolicy, SessionError, Tdac, TdacConfig, TdacError,
    TdacSession,
};

/// `0` means [`Parallelism::Auto`].
const THREADS: &[usize] = &[1, 2, 8, 0];

fn parallelism(threads: usize) -> Parallelism {
    if threads == 0 {
        Parallelism::Auto
    } else {
        Parallelism::Threads(threads)
    }
}

// ---------------------------------------------------------------- (a) —

#[test]
fn injected_worker_panics_surface_as_typed_errors_naming_the_phase() {
    let world = separable_world(&[2, 2], 4);
    // Faults inside isolated task boundaries are attributed precisely;
    // at any thread count the first error in k / group order wins, so
    // the phase string is deterministic.
    for (target, want_phase) in [
        ("k_sweep/k=2", "k_sweep/k=2"),
        ("per_group_run/group=0", "per_group_run/group=0"),
    ] {
        for &threads in THREADS {
            let hook = ChaosHook::panics_at(target, 1);
            let config = TdacConfig {
                observer: hook.observer(),
                backend: ExecutionBackend::in_process(parallelism(threads)),
                ..TdacConfig::default()
            };
            let err = Tdac::new(config)
                .run(&MajorityVote, &world.dataset)
                .expect_err("the injected panic must become an error");
            assert!(hook.fired(), "{target}: fault never reached");
            match err {
                TdacError::WorkerPanic { phase, detail } => {
                    assert_eq!(phase, want_phase, "threads={threads}");
                    assert!(detail.contains("chaos: injected panic"), "{detail}");
                }
                other => panic!("{target}: wanted WorkerPanic, got {other}"),
            }
        }
    }
}

#[test]
fn sequential_spine_panics_are_caught_at_the_pipeline_boundary() {
    // `truth_vectors` and `merge` run on the sequential spine, outside
    // any per-task boundary — the top-level catch of every entry point
    // must still convert them, attributed to the pipeline as a whole.
    let world = separable_world(&[2, 2], 4);
    let config = |hook: &Arc<ChaosHook>| TdacConfig {
        observer: hook.observer(),
        ..TdacConfig::default()
    };
    let check = |entry: &str, hook: &ChaosHook, err: TdacError| {
        assert!(hook.fired(), "{entry}: fault never reached");
        match err {
            TdacError::WorkerPanic { phase, .. } => assert_eq!(phase, "pipeline", "{entry}"),
            other => panic!("{entry}: wanted WorkerPanic, got {other}"),
        }
    };
    let session_err = |err: SessionError| match err {
        SessionError::Tdac(e) => e,
        other => panic!("wanted a pipeline error, got {other}"),
    };
    let start = |config| {
        TdacSession::start(MajorityVote, config, RepartitionPolicy::Always, world.dataset.clone())
    };
    let mut batch = ClaimBatch::new();
    batch.claim("s0_0", "o-new", "g0a0", Value::int(7));
    let mut next = ClaimBatch::new();
    next.claim("s0_1", "o-new", "g0a0", Value::int(7));

    for target in ["truth_vectors", "merge"] {
        let hook = ChaosHook::panics_at(target, 1);
        let err = Tdac::new(config(&hook)).run(&MajorityVote, &world.dataset);
        check(&format!("run {target}"), &hook, err.expect_err("must fail"));

        let hook = ChaosHook::panics_at(target, 1);
        let err = start(config(&hook)).expect_err("must fail");
        check(&format!("start {target}"), &hook, session_err(err));

        // The start hits the target once; the ingest hits it second.
        let hook = ChaosHook::panics_at(target, 2);
        let mut session = start(config(&hook)).unwrap();
        let err = session.ingest(&batch).expect_err("must fail");
        check(&format!("ingest {target}"), &hook, session_err(err));
        session.ingest(&next).expect("the session recovers on the next batch");
        let oracle = Tdac::new(TdacConfig::default())
            .run(&MajorityVote, session.dataset())
            .unwrap();
        assert_eq!(
            OutcomeFingerprint::of(session.outcome()),
            OutcomeFingerprint::of(&oracle),
            "ingest {target}: recovered session != batch run"
        );
    }

    // Model selection stops before the per-group phase and its merge.
    let hook = ChaosHook::panics_at("truth_vectors", 1);
    let err = Tdac::new(config(&hook)).select_model_view(&MajorityVote, &world.dataset.view_all());
    check("select_model_view truth_vectors", &hook, err.expect_err("must fail"));
}

#[test]
fn clusterer_panics_are_attributed_to_their_k() {
    let world = separable_world(&[2, 2], 4);
    // Sequentially the first `cluster` span belongs to k = 2; in a pool
    // the panicking k is scheduling-dependent but the attribution shape
    // is not.
    let hook = ChaosHook::panics_at("cluster", 1);
    let config = TdacConfig {
        observer: hook.observer(),
        backend: ExecutionBackend::in_process(Parallelism::Threads(1)),
        ..TdacConfig::default()
    };
    match Tdac::new(config).run(&MajorityVote, &world.dataset) {
        Err(TdacError::WorkerPanic { phase, .. }) => assert_eq!(phase, "k_sweep/k=2"),
        other => panic!("wanted WorkerPanic, got {other:?}"),
    }
    let hook = ChaosHook::panics_at("cluster", 1);
    let config = TdacConfig {
        observer: hook.observer(),
        ..TdacConfig::default()
    };
    match Tdac::new(config).run(&MajorityVote, &world.dataset) {
        Err(TdacError::WorkerPanic { phase, .. }) => {
            assert!(phase.starts_with("k_sweep/k="), "got phase {phase:?}");
        }
        other => panic!("wanted WorkerPanic, got {other:?}"),
    }
}

#[test]
fn accugen_scan_panics_are_typed_and_name_the_partition() {
    let world = separable_world(&[2, 2], 4);
    // Sequentially the second `partition_scan/partition` checkpoint is
    // enumeration index 1; under a pool the smallest panicking index
    // wins the reduction, so the attribution stays of the same shape.
    let hook = ChaosHook::panics_at("partition_scan/partition", 2);
    let accugen = AccuGenPartition {
        parallelism: Parallelism::Threads(1),
        observer: hook.observer(),
        ..AccuGenPartition::default()
    };
    match accugen.run_oracle(&MajorityVote, &world.dataset, &world.truth) {
        Err(AccuGenError::WorkerPanic { phase, detail }) => {
            assert_eq!(phase, "partition_scan/partition=1");
            assert!(detail.contains("chaos: injected panic"), "{detail}");
        }
        other => panic!("wanted WorkerPanic, got {other:?}"),
    }
    let hook = ChaosHook::panics_at("partition_scan/partition", 2);
    let accugen = AccuGenPartition {
        observer: hook.observer(),
        ..AccuGenPartition::default()
    };
    match accugen.run_oracle(&MajorityVote, &world.dataset, &world.truth) {
        Err(AccuGenError::WorkerPanic { phase, .. }) => {
            assert!(phase.starts_with("partition_scan/partition="), "got {phase:?}");
        }
        other => panic!("wanted WorkerPanic, got {other:?}"),
    }
}

#[test]
fn chaos_cancellation_yields_a_flagged_sound_outcome() {
    // A cancel fired at the sweep boundary must stop the run *and* hand
    // back the already-computed reference result, flagged — never an
    // error, never an unflagged partial answer.
    let world = separable_world(&[2, 2], 5);
    let reference = ResultFingerprint::of(&MajorityVote.discover(&world.dataset.view_all()));
    for &threads in THREADS {
        let token = CancelToken::new();
        let hook = ChaosHook::cancels_at("k_sweep", 1, token.clone());
        let config = TdacConfig {
            observer: hook.observer(),
            backend: ExecutionBackend::in_process(parallelism(threads)),
            limits: ExecutionLimits::none().with_cancel(token),
            ..TdacConfig::default()
        };
        let outcome = Tdac::new(config)
            .run(&MajorityVote, &world.dataset)
            .expect("cancellation degrades, it does not error");
        assert!(hook.fired());
        let deg = outcome.degradation.as_ref().expect("must be flagged");
        assert_eq!(deg.reason, DegradationReason::Cancelled, "threads={threads}");
        assert!(outcome.fallback, "best-so-far is the un-partitioned run");
        assert_eq!(
            ResultFingerprint::of(&outcome.result),
            reference,
            "the degraded result must be the sound reference bits"
        );
    }
}

#[test]
fn chaos_stall_trips_the_deadline_into_a_flagged_best_so_far() {
    // A stall injected before the distance-matrix build blows a 25 ms
    // deadline long before the sweep starts: every k is skipped and the
    // reference result comes back flagged with the deadline reason.
    let world = separable_world(&[2, 2], 4);
    let reference = ResultFingerprint::of(&MajorityVote.discover(&world.dataset.view_all()));
    let hook = ChaosHook::delays_at("distance_matrix", 1, Duration::from_millis(200));
    let config = TdacConfig {
        observer: hook.observer(),
        limits: ExecutionLimits::none().with_deadline(Duration::from_millis(25)),
        ..TdacConfig::default()
    };
    let outcome = Tdac::new(config)
        .run(&MajorityVote, &world.dataset)
        .expect("a blown deadline degrades, it does not error");
    assert!(hook.fired());
    let deg = outcome.degradation.expect("must be flagged");
    assert_eq!(deg.reason, DegradationReason::Deadline(25));
    assert_eq!(deg.phase, "k_sweep");
    assert_eq!(ResultFingerprint::of(&outcome.result), reference);
}

#[test]
fn delays_without_limits_never_change_the_bits() {
    // With no budget armed, a stall is just latency: the outcome must
    // be bit-identical to the clean run and must not be flagged.
    let world = separable_world(&[2, 2], 4);
    let clean = OutcomeFingerprint::of(
        &Tdac::new(TdacConfig::default())
            .run(&MajorityVote, &world.dataset)
            .expect("clean run"),
    );
    let hook = ChaosHook::delays_at("k_sweep/", 1, Duration::from_millis(20));
    let config = TdacConfig {
        observer: hook.observer(),
        ..TdacConfig::default()
    };
    let outcome = Tdac::new(config)
        .run(&MajorityVote, &world.dataset)
        .expect("stalled run");
    assert!(hook.fired());
    assert!(outcome.degradation.is_none(), "no budget, no flag");
    assert_eq!(OutcomeFingerprint::of(&outcome), clean);
}

// ---------------------------------------------------------------- (b) —

#[test]
fn limits_machinery_is_invisible_on_the_ds1_golden() {
    // Disabled limits: the committed golden still matches bit-for-bit.
    check_ds1().expect("DS1 golden with limits disabled");
    // Generous limits arm the full budget machinery (probes, precharge,
    // private observer) without ever firing — and may not move a bit.
    let generous = ExecutionLimits::none()
        .with_deadline(Duration::from_secs(3_600))
        .with_max_distance_evals(u64::MAX / 2)
        .with_max_fixpoint_iterations(u64::MAX / 2)
        .with_max_partitions(u64::MAX / 2);
    let plain = compute_ds1();
    let limited = compute_ds1_with(&TdacConfig {
        limits: generous,
        ..TdacConfig::default()
    });
    if let Some(diff) = diff_ds1(&plain, &limited) {
        panic!("arming generous limits moved a DS1 golden field: {diff}");
    }
}

// ---------------------------------------------------------------- (c) —

#[test]
fn counter_budget_degraded_outcomes_are_bit_identical_at_any_thread_count() {
    // A fixpoint cap trips on deterministic counter values, so the
    // degraded outcome — result bits, reason, phase — must not depend
    // on the thread count.
    let world = separable_world(&[2, 2], 5);
    let runs: Vec<_> = THREADS
        .iter()
        .map(|&threads| {
            let config = TdacConfig {
                backend: ExecutionBackend::in_process(parallelism(threads)),
                limits: ExecutionLimits::none().with_max_fixpoint_iterations(1),
                ..TdacConfig::default()
            };
            let outcome = Tdac::new(config)
                .run(&Accu::default(), &world.dataset)
                .expect("a tripped counter budget degrades, it does not error");
            let deg = outcome.degradation.clone().expect("must be flagged");
            (OutcomeFingerprint::of(&outcome), deg.reason, deg.phase)
        })
        .collect();
    for run in &runs[1..] {
        assert_eq!(run, &runs[0]);
    }
}

#[test]
fn truncated_accugen_scans_are_bit_identical_at_any_thread_count() {
    // The partition cap truncates the Bell enumeration to an exact
    // prefix; the winner over that prefix is thread-count invariant.
    let world = separable_world(&[2, 2], 5);
    let runs: Vec<_> = THREADS
        .iter()
        .map(|&threads| {
            let accugen = AccuGenPartition {
                parallelism: parallelism(threads),
                limits: ExecutionLimits::none().with_max_partitions(5),
                ..AccuGenPartition::default()
            };
            let outcome = accugen
                .run_oracle(&MajorityVote, &world.dataset, &world.truth)
                .expect("a capped scan degrades, it does not error");
            assert_eq!(outcome.n_partitions, 5, "exact prefix");
            let deg = outcome.degradation.clone().expect("must be flagged");
            (OutcomeFingerprint::of_accugen(&outcome), deg.reason, deg.phase)
        })
        .collect();
    for run in &runs[1..] {
        assert_eq!(run, &runs[0]);
    }
}
