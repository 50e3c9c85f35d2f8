//! Differential oracle for the incremental engine.
//!
//! The headline contract of `tdac_core::TdacSession` is *bit identity*:
//! under [`RepartitionPolicy::Always`], ingesting claim batches must
//! produce exactly the bits a from-scratch [`Tdac::run`] produces on the
//! accumulated claim set — at every thread count, under every kernel
//! policy, after every batch. Under a pinned policy the reduced oracle
//! is [`run_partition`] over the session's pinned grouping. On top of
//! the fixed-split oracles, a metamorphic proptest checks **batch-split
//! invariance**: however the same claim pool is carved into batches,
//! the final answer is the same.

use proptest::prelude::*;
use std::collections::HashSet;
use td_algorithms::{Accu, MajorityVote, TruthDiscovery};
use td_model::{ClaimBatch, Dataset, DatasetBuilder, Value};
use td_verify::worlds::separable_world;
use td_verify::{ChaosHook, OutcomeFingerprint, ResultFingerprint};
use tdac_core::{
    run_partition, ExecutionBackend, KernelPolicy, Observer, Parallelism, RepartitionPolicy,
    SessionError, Tdac, TdacConfig, TdacError, TdacSession,
};

/// A named claim row, re-appendable through a [`ClaimBatch`].
type Row = (String, String, String, Value);

/// Splits a dataset into a base that names every entity (so batch order
/// cannot change id interning) and a pool of deferred claims — every
/// `keep_every`-th eligible claim goes to the pool.
fn split_claims(dataset: &Dataset, keep_every: usize) -> (Dataset, Vec<Row>) {
    let mut base = DatasetBuilder::new();
    let mut pool = Vec::new();
    let mut seen: HashSet<(u8, usize)> = HashSet::new();
    for (i, c) in dataset.claims().iter().enumerate() {
        let row: Row = (
            dataset.source_name(c.source).to_string(),
            dataset.object_name(c.object).to_string(),
            dataset.attribute_name(c.attribute).to_string(),
            dataset.value(c.value).clone(),
        );
        let fresh = !seen.contains(&(0, c.source.index()))
            || !seen.contains(&(1, c.object.index()))
            || !seen.contains(&(2, c.attribute.index()));
        seen.insert((0, c.source.index()));
        seen.insert((1, c.object.index()));
        seen.insert((2, c.attribute.index()));
        if fresh || i % keep_every != 0 {
            base.claim(&row.0, &row.1, &row.2, row.3).unwrap();
        } else {
            pool.push(row);
        }
    }
    (base.build(), pool)
}

fn batch_of(rows: &[Row]) -> ClaimBatch {
    let mut b = ClaimBatch::new();
    for (s, o, a, v) in rows {
        b.claim(s, o, a, v.clone());
    }
    b
}

/// The thread × kernel matrix the parallel-execution contract covers
/// (`0` means [`Parallelism::Auto`]).
const THREADS: &[usize] = &[1, 2, 8, 0];
const KERNELS: &[KernelPolicy] = &[KernelPolicy::Dense, KernelPolicy::Packed];

fn config(threads: usize, kernel: KernelPolicy) -> TdacConfig {
    let parallelism = if threads == 0 {
        Parallelism::Auto
    } else {
        Parallelism::Threads(threads)
    };
    TdacConfig {
        backend: ExecutionBackend::in_process(parallelism),
        kernel,
        ..Default::default()
    }
}

/// Ingests the pool in `n_batches` round-robin batches under `Always`
/// and asserts, after **every** batch, that the session's outcome is
/// bit-identical to a from-scratch run on the accumulated claims.
fn check_always_oracle<B>(make: impl Fn() -> B, dataset: &Dataset, n_batches: usize)
where
    B: TruthDiscovery + Sync,
{
    let (base, pool) = split_claims(dataset, 3);
    assert!(!pool.is_empty(), "split produced no deferred claims");
    for &threads in THREADS {
        for &kernel in KERNELS {
            let cfg = config(threads, kernel);
            let mut session = TdacSession::start(
                make(),
                cfg.clone(),
                RepartitionPolicy::Always,
                base.clone(),
            )
            .unwrap();
            for bi in 0..n_batches {
                let rows: Vec<Row> = pool
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i % n_batches == bi)
                    .map(|(_, r)| r.clone())
                    .collect();
                session.ingest(&batch_of(&rows)).unwrap();
                let oracle = Tdac::new(cfg.clone())
                    .run(&make(), session.dataset())
                    .unwrap();
                assert_eq!(
                    OutcomeFingerprint::of(session.outcome()),
                    OutcomeFingerprint::of(&oracle),
                    "incremental != batch after batch {bi} (threads={threads}, {kernel:?})"
                );
            }
        }
    }
}

#[test]
fn always_policy_is_bit_identical_to_batch_recompute() {
    let world = separable_world(&[3, 3], 6);
    check_always_oracle(|| MajorityVote, &world.dataset, 3);
}

#[test]
fn always_policy_oracle_holds_for_iterative_base_algorithms() {
    let world = separable_world(&[2, 2, 2], 5);
    check_always_oracle(Accu::default, &world.dataset, 2);
}

#[test]
fn always_policy_oracle_survives_new_entities() {
    // Batches that grow the entity dimensions exercise the column
    // append (new objects) and the honest full rebuild (new sources).
    let world = separable_world(&[3, 3], 6);
    let cfg = TdacConfig::default();
    let (base, pool) = split_claims(&world.dataset, 4);
    let mut session = TdacSession::start(
        MajorityVote,
        cfg.clone(),
        RepartitionPolicy::Always,
        base,
    )
    .unwrap();

    let mut growing = batch_of(&pool);
    growing
        .claim("s0_0", "o-new", "g0a0", Value::int(77))
        .claim("s0_1", "o-new", "g0a0", Value::int(77))
        .claim("s-new", "o0", "g0a1", Value::int(0));
    let report = session.ingest(&growing).unwrap();
    assert!(report.rebuilt, "a new source must force the rebuild path");
    let oracle = Tdac::new(cfg.clone())
        .run(&MajorityVote, session.dataset())
        .unwrap();
    assert_eq!(
        OutcomeFingerprint::of(session.outcome()),
        OutcomeFingerprint::of(&oracle)
    );

    // And a follow-up object-growing batch takes the append path.
    let mut follow = ClaimBatch::new();
    follow
        .claim("s1_0", "o-newer", "g1a0", Value::int(88))
        .claim("s1_1", "o-newer", "g1a0", Value::int(88));
    let report = session.ingest(&follow).unwrap();
    assert!(!report.rebuilt, "a new object appends pair columns in place");
    let oracle = Tdac::new(cfg).run(&MajorityVote, session.dataset()).unwrap();
    assert_eq!(
        OutcomeFingerprint::of(session.outcome()),
        OutcomeFingerprint::of(&oracle)
    );
}

#[test]
fn failed_ingest_leaves_no_stale_state_behind() {
    // A new-source ingest whose per-group phase fails with a typed
    // error must not keep the old column layout: the next clean batch
    // (no new source, so it may take the incremental path) has to match
    // a from-scratch run on the accumulated claims.
    let world = separable_world(&[3, 3], 6);
    let (base, pool) = split_claims(&world.dataset, 4);
    // Group 0 runs once at start; its second run is the failing ingest's.
    let hook = ChaosHook::panics_at("per_group_run/group=0", 2);
    let cfg = TdacConfig {
        observer: hook.observer(),
        ..TdacConfig::default()
    };
    let mut session =
        TdacSession::start(MajorityVote, cfg, RepartitionPolicy::Always, base).unwrap();

    let mut failing = ClaimBatch::new();
    failing.claim("s-new", "o0", "g0a1", Value::int(0));
    let err = session.ingest(&failing).expect_err("the per-group panic must fail the ingest");
    assert!(hook.fired());
    assert!(
        matches!(&err, SessionError::Tdac(TdacError::WorkerPanic { phase, .. })
            if phase == "per_group_run/group=0"),
        "{err}"
    );

    // One attribute's deferred claims: the other rows stay clean.
    let clean: Vec<Row> = pool.iter().filter(|r| r.2 == pool[0].2).cloned().collect();
    let report = session.ingest(&batch_of(&clean)).unwrap();
    assert_eq!(report.summary.new_sources, 0);
    let oracle = Tdac::new(TdacConfig::default())
        .run(&MajorityVote, session.dataset())
        .unwrap();
    assert_eq!(
        OutcomeFingerprint::of(session.outcome()),
        OutcomeFingerprint::of(&oracle)
    );
}

#[test]
fn pinned_policy_matches_run_partition_oracle() {
    // Under `Never` the reduced oracle is a per-group replay of the
    // pinned partition over the accumulated claims (`run_partition`,
    // which reports the raw merge — the session normalizes iterations
    // to one logical TD-AC pass, so the oracle is normalized the same
    // way before fingerprinting).
    let world = separable_world(&[3, 3], 6);
    let (base, pool) = split_claims(&world.dataset, 3);
    for &threads in THREADS {
        for &kernel in KERNELS {
            let cfg = config(threads, kernel);
            let mut session = TdacSession::start(
                MajorityVote,
                cfg.clone(),
                RepartitionPolicy::Never,
                base.clone(),
            )
            .unwrap();
            for bi in 0..3 {
                let rows: Vec<Row> = pool
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i % 3 == bi)
                    .map(|(_, r)| r.clone())
                    .collect();
                let report = session.ingest(&batch_of(&rows)).unwrap();
                assert!(!report.repartitioned, "Never must keep the pin");
                let mut oracle = run_partition(
                    &MajorityVote,
                    session.dataset(),
                    session.partition(),
                    &Observer::disabled(),
                );
                oracle.iterations = 1;
                assert_eq!(
                    ResultFingerprint::of(&session.outcome().result),
                    ResultFingerprint::of(&oracle),
                    "pinned ingest != per-group replay after batch {bi} \
                     (threads={threads}, {kernel:?})"
                );
            }
        }
    }
}

#[test]
fn pinned_ingest_reuses_at_least_one_group() {
    // The perf story depends on reuse actually happening: a pool claim
    // touches a few attributes, so at least one planted group must stay
    // clean and be served from the cache.
    let world = separable_world(&[3, 3], 6);
    let (base, pool) = split_claims(&world.dataset, 6);
    let mut session = TdacSession::start(
        MajorityVote,
        TdacConfig::default(),
        RepartitionPolicy::Never,
        base,
    )
    .unwrap();
    let report = session.ingest(&batch_of(&pool[..1])).unwrap();
    assert!(report.groups_reused >= 1, "{report:?}");
    assert_eq!(report.groups_total, 2);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Metamorphic batch-split invariance: however the deferred claim
    /// pool is carved into (up to three, possibly empty) batches, the
    /// session's final outcome is bit-identical to the from-scratch run
    /// on the accumulated claims, and the *resolved* predictions match
    /// the canonical one-shot dataset exactly. The separable world is
    /// tie-free, so resolved truth cannot legitimately vary.
    #[test]
    fn batch_split_invariance(assign in proptest::collection::vec(0..3usize, 64..=64)) {
        let world = separable_world(&[2, 2], 4);
        let (base, pool) = split_claims(&world.dataset, 3);
        let cfg = TdacConfig::default();
        let mut session = TdacSession::start(
            MajorityVote,
            cfg.clone(),
            RepartitionPolicy::Always,
            base,
        ).unwrap();
        for bi in 0..3 {
            let rows: Vec<Row> = pool
                .iter()
                .enumerate()
                .filter(|(i, _)| assign[i % assign.len()] == bi)
                .map(|(_, r)| r.clone())
                .collect();
            session.ingest(&batch_of(&rows)).unwrap();
        }
        prop_assert_eq!(session.claims_appended(), pool.len());

        // Bit identity against the accumulated dataset…
        let oracle = Tdac::new(cfg.clone()).run(&MajorityVote, session.dataset()).unwrap();
        prop_assert_eq!(
            OutcomeFingerprint::of(session.outcome()),
            OutcomeFingerprint::of(&oracle)
        );

        // …and semantic identity against the canonical one-shot world
        // (ids can differ across splits; resolved names cannot).
        let canonical = Tdac::new(cfg).run(&MajorityVote, &world.dataset).unwrap();
        let resolve = |d: &Dataset, r: &td_algorithms::TruthResult| {
            let view = d.view_all();
            let mut rows: Vec<(String, String, Option<Value>)> = view
                .cells()
                .map(|c| {
                    (
                        d.object_name(c.object).to_string(),
                        d.attribute_name(c.attribute).to_string(),
                        r.prediction(c.object, c.attribute).map(|v| d.value(v).clone()),
                    )
                })
                .collect();
            rows.sort_by(|x, y| (&x.0, &x.1).cmp(&(&y.0, &y.1)));
            rows
        };
        prop_assert_eq!(
            resolve(session.dataset(), &session.outcome().result),
            resolve(&world.dataset, &canonical.result)
        );
    }
}
