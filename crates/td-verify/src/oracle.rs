//! Differential checks: TD-AC against its brute-force oracle, against
//! itself at different thread counts, and against direct (uncached)
//! silhouette recomputation.
//!
//! Each check is a plain function that panics with a located diff on
//! violation, so the same helpers serve unit tests, the integration
//! suites, and `scripts/verify.sh`.

use clustering::{pairwise_distances, silhouette_paper_dist, KMeans, KMeansConfig};
use td_algorithms::{MajorityVote, TruthDiscovery};
use td_metrics::evaluate_fn;
use td_model::{Dataset, GroundTruth};
use tdac_core::{
    accugen::run_partition, truth_vector_set, AccuGenPartition, Observer, Parallelism, Tdac,
    TdacConfig,
    TdacOutcome, Weighting,
};

use crate::fingerprint::{OutcomeFingerprint, ResultFingerprint};
use crate::worlds::SmallWorld;

/// MajorityVote is per-cell: a cell's claims are identical in every
/// attribute sub-view containing it, so its predictions (and their
/// confidences) cannot depend on how the attributes are partitioned.
/// This makes plain voting a *universal* exact differential target —
/// TD-AC(MV), the global MV run, and AccuGen(MV) must agree on every
/// prediction of **any** dataset, no structure required.
///
/// Source trust and iteration counters are legitimately view-dependent
/// and are excluded from the comparison.
pub fn check_majority_partition_invariance(dataset: &Dataset) {
    let global = MajorityVote.discover(&dataset.view_all());
    let tdac = Tdac::new(TdacConfig::default())
        .run(&MajorityVote, dataset)
        .expect("non-empty dataset");
    assert_same_predictions(&global, &tdac.result, "TD-AC(MV) vs global MV");
}

/// The AccuGen half of [`check_majority_partition_invariance`]: every
/// partition the exhaustive search evaluates merges to the same MV
/// predictions, so the winner must too. Costs Bell(|A|) MV runs — keep
/// the input small.
pub fn check_accugen_majority_invariance(dataset: &Dataset) {
    let global = MajorityVote.discover(&dataset.view_all());
    let accugen = AccuGenPartition::default()
        .run(&MajorityVote, dataset, Weighting::Avg)
        .expect("non-empty dataset");
    assert_same_predictions(&global, &accugen.result, "AccuGen(MV) vs global MV");
}

/// TD-AC's merged result must be byte-for-byte what re-running the base
/// algorithm over the chosen partition produces: the pipeline's
/// parallel per-group fan-out and `merge_all` may not leak any state
/// between groups. Holds for any base algorithm on any dataset.
///
/// Returns the outcome so callers can chain further checks.
pub fn check_tdac_consistency(
    base: &(dyn TruthDiscovery + Sync),
    dataset: &Dataset,
) -> TdacOutcome {
    let outcome = Tdac::new(TdacConfig::default())
        .run(base, dataset)
        .expect("non-empty dataset");
    let replay = run_partition(base, dataset, &outcome.partition, &Observer::disabled());
    let mut got = ResultFingerprint::of(&outcome.result);
    let expect = ResultFingerprint::of(&replay);
    // TD-AC reports one logical pass; the raw replay keeps the base
    // algorithm's iteration count. Everything else must be identical.
    got.iterations = expect.iterations;
    if let Some(diff) = got.diff(&expect) {
        panic!(
            "TD-AC result diverges from replaying its own partition {}: {diff}",
            outcome.partition
        );
    }
    outcome
}

/// The exhaustive oracle maximizes accuracy over *all* partitions, so
/// its score is an upper bound on the accuracy of TD-AC's single chosen
/// partition. Exact (no tolerance): both sides score a merged
/// `run_partition` result with the same `evaluate_fn`, and TD-AC's
/// partition is in the oracle's search space.
///
/// Returns `(oracle_score, tdac_accuracy)`.
pub fn check_oracle_dominance(
    base: &(dyn TruthDiscovery + Sync),
    dataset: &Dataset,
    truth: &GroundTruth,
) -> (f64, f64) {
    let oracle = AccuGenPartition::default()
        .run_oracle(base, dataset, truth)
        .expect("non-empty dataset");
    let tdac = Tdac::new(TdacConfig::default())
        .run(base, dataset)
        .expect("non-empty dataset");
    let accuracy = evaluate_fn(dataset, truth, |o, a| tdac.result.prediction(o, a)).accuracy;
    assert!(
        oracle.score >= accuracy,
        "oracle over all {} partitions scored {} but TD-AC's single partition {} scored {}",
        oracle.n_partitions,
        oracle.score,
        tdac.partition,
        accuracy
    );
    (oracle.score, accuracy)
}

/// On a separable [`SmallWorld`] the plurality of every cell is the
/// truth, so a perfect partition exists and both searchers must find
/// one: the exhaustive oracle reaches accuracy 1.0 and TD-AC ties it
/// exactly — brute force and clustering agree on every prediction.
pub fn check_small_world_exact(base: &(dyn TruthDiscovery + Sync), world: &SmallWorld) {
    let SmallWorld { dataset, truth, .. } = world;

    let oracle = AccuGenPartition::default()
        .run_oracle(base, dataset, truth)
        .expect("world is non-empty");
    assert_eq!(
        oracle.score, 1.0,
        "the exhaustive oracle must find a perfect partition on a separable world \
         (best: {} at {})",
        oracle.score, oracle.partition
    );

    let tdac = Tdac::new(TdacConfig::default())
        .run(base, dataset)
        .expect("world is non-empty");
    let mut wrong = 0usize;
    for (o, a, v) in truth.iter() {
        if tdac.result.prediction(o, a) != Some(v) {
            wrong += 1;
        }
    }
    assert_eq!(
        wrong, 0,
        "TD-AC (partition {}) must tie the oracle on a separable world; {wrong} of {} cells differ",
        tdac.partition,
        truth.len()
    );

    // With both sides at accuracy 1.0, TD-AC == oracle value-wise.
    // Confidences are *not* compared here: an iterative base's
    // confidence depends on the view it ran in, and the two searchers
    // may legitimately settle on different perfect partitions.
    assert_same_values(
        &oracle.result,
        &tdac.result,
        "TD-AC vs exhaustive oracle on a separable world (values)",
    );
}

/// Runs TD-AC once per entry of `threads` (`0` meaning [`Parallelism::Auto`])
/// and asserts every observable field of the outcome — predictions,
/// confidences, trust, partition, silhouette, the whole k-sweep — is
/// bit-identical across them. Returns the common fingerprint.
pub fn check_thread_invariance(
    base: &(dyn TruthDiscovery + Sync),
    dataset: &Dataset,
    threads: &[usize],
) -> OutcomeFingerprint {
    let run = |parallelism| {
        Tdac::new(TdacConfig {
            backend: tdac_core::ExecutionBackend::in_process(parallelism),
            ..TdacConfig::default()
        })
        .run(base, dataset)
        .expect("non-empty dataset")
    };
    let reference = OutcomeFingerprint::of(&run(Parallelism::Threads(1)));
    for &n in threads {
        let parallelism = if n == 0 {
            Parallelism::Auto
        } else {
            Parallelism::Threads(n)
        };
        let got = OutcomeFingerprint::of(&run(parallelism));
        if got != reference {
            let diff = got
                .result
                .diff(&reference.result)
                .unwrap_or_else(|| {
                    format!(
                        "partition/sweep metadata: ({}, sil {:e}, {} k-scores, fallback {}) vs \
                         ({}, sil {:e}, {} k-scores, fallback {})",
                        got.partition,
                        f64::from_bits(got.silhouette),
                        got.k_scores.len(),
                        got.fallback,
                        reference.partition,
                        f64::from_bits(reference.silhouette),
                        reference.k_scores.len(),
                        reference.fallback,
                    )
                });
            panic!("{parallelism:?} diverges from Threads(1): {diff}");
        }
    }
    reference
}

/// Observation is read-only: attaching an enabled [`tdac_core::Observer`]
/// to the config may never change a single bit of the outcome, at any
/// thread count. Runs TD-AC observer-off and observer-on at `Threads(1)`
/// plus every entry of `threads` (`0` meaning [`Parallelism::Auto`]) and
/// asserts all fingerprints equal the observer-off `Threads(1)`
/// reference. Also asserts the enabled runs actually produced a profile
/// (so neutrality isn't vacuous) and the disabled runs did not.
pub fn check_observer_neutrality(
    base: &(dyn TruthDiscovery + Sync),
    dataset: &Dataset,
    threads: &[usize],
) -> OutcomeFingerprint {
    let run = |parallelism, observer: tdac_core::Observer| {
        Tdac::new(TdacConfig {
            backend: tdac_core::ExecutionBackend::in_process(parallelism),
            observer,
            ..TdacConfig::default()
        })
        .run(base, dataset)
        .expect("non-empty dataset")
    };
    let baseline = run(Parallelism::Threads(1), tdac_core::Observer::disabled());
    assert!(baseline.profile.is_none(), "disabled observer produced a profile");
    let reference = OutcomeFingerprint::of(&baseline);
    let mut cases = vec![Parallelism::Threads(1)];
    cases.extend(threads.iter().map(|&n| {
        if n == 0 {
            Parallelism::Auto
        } else {
            Parallelism::Threads(n)
        }
    }));
    for &parallelism in &cases {
        let observed = run(parallelism, tdac_core::Observer::enabled());
        let profile = observed
            .profile
            .as_ref()
            .unwrap_or_else(|| panic!("enabled observer at {parallelism:?} produced no profile"));
        assert!(
            profile.counter("distance_evals").unwrap_or(0) > 0
                || profile.counter("fixpoint_iterations").unwrap_or(0) > 0,
            "profile at {parallelism:?} recorded no work — observation was a no-op"
        );
        let got = OutcomeFingerprint::of(&observed);
        assert_eq!(
            got, reference,
            "observer-enabled run at {parallelism:?} diverges from the observer-off Threads(1) reference"
        );
        // Off must equal off too (guards against the observer field
        // perturbing unrelated config state).
        let off = OutcomeFingerprint::of(&run(parallelism, tdac_core::Observer::disabled()));
        assert_eq!(
            off, reference,
            "observer-off run at {parallelism:?} diverges from Threads(1)"
        );
    }
    reference
}

/// AccuGen's streamed partition scan must pick the same winner with the
/// same score and result at every thread count (the `(score, index)`
/// total-order reduction).
pub fn check_accugen_thread_invariance(
    base: &(dyn TruthDiscovery + Sync),
    dataset: &Dataset,
    truth: &GroundTruth,
    threads: &[usize],
) {
    let run = |parallelism| {
        AccuGenPartition {
            parallelism,
            ..AccuGenPartition::default()
        }
        .run_oracle(base, dataset, truth)
        .expect("non-empty dataset")
    };
    let reference = OutcomeFingerprint::of_accugen(&run(Parallelism::Threads(1)));
    for &n in threads {
        let parallelism = if n == 0 {
            Parallelism::Auto
        } else {
            Parallelism::Threads(n)
        };
        let got = OutcomeFingerprint::of_accugen(&run(parallelism));
        assert_eq!(
            got, reference,
            "AccuGen oracle at {parallelism:?} diverges from Threads(1)"
        );
    }
}

/// Every silhouette in TD-AC's k-sweep comes from the shared distance
/// matrix; recomputing each k directly — fresh k-means fit, fresh
/// pairwise distances — must reproduce the cached scores bit-for-bit.
pub fn check_cached_sweep(base: &(dyn TruthDiscovery + Sync), dataset: &Dataset) {
    let config = TdacConfig::default();
    let outcome = Tdac::new(config.clone())
        .run(base, dataset)
        .expect("non-empty dataset");
    assert!(
        !outcome.k_scores.is_empty(),
        "dataset too small for a k-sweep; use ≥ 3 attributes"
    );
    let matrix = truth_vector_set(base, &dataset.view_all(), &Observer::disabled()).0.dense;
    let n = dataset.n_attributes();
    for &(k, cached) in &outcome.k_scores {
        let assignments = KMeans::new(KMeansConfig {
            k,
            n_init: config.n_init,
            seed: config.seed,
            ..KMeansConfig::with_k(k)
        })
        .fit(&matrix)
        .expect("sweep k is feasible")
        .assignments;
        let dist =
            pairwise_distances(&matrix, config.metric.as_metric(), &Observer::disabled());
        let direct = silhouette_paper_dist(&dist, n, &assignments);
        assert_eq!(
            cached.to_bits(),
            direct.to_bits(),
            "k = {k}: cached silhouette {cached:e} != direct recomputation {direct:e}"
        );
    }
}

/// Asserts two results select the same value with the same confidence
/// bits for every cell (trust and iterations excluded).
fn assert_same_predictions(a: &td_algorithms::TruthResult, b: &td_algorithms::TruthResult, context: &str) {
    let (mut fa, mut fb) = (ResultFingerprint::of(a), ResultFingerprint::of(b));
    fa.source_trust.clear();
    fb.source_trust.clear();
    fa.iterations = 0;
    fb.iterations = 0;
    if let Some(diff) = fa.diff(&fb) {
        panic!("{context}: predictions differ — {diff}");
    }
}

/// Asserts two results select the same value for every cell, ignoring
/// confidences (which are view-dependent for iterative bases).
fn assert_same_values(a: &td_algorithms::TruthResult, b: &td_algorithms::TruthResult, context: &str) {
    let rows = |r: &td_algorithms::TruthResult| {
        let mut v: Vec<_> = r.iter().map(|(o, at, val, _)| (o, at, val)).collect();
        v.sort_unstable();
        v
    };
    let (ra, rb) = (rows(a), rows(b));
    if ra != rb {
        let first = ra
            .iter()
            .zip(&rb)
            .find(|(x, y)| x != y)
            .map(|(x, y)| format!("{x:?} vs {y:?}"))
            .unwrap_or_else(|| format!("{} vs {} cells", ra.len(), rb.len()));
        panic!("{context}: selected values differ — {first}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worlds::separable_world;
    use td_algorithms::Accu;

    #[test]
    fn all_checks_pass_on_a_tiny_world() {
        let w = separable_world(&[2, 1], 3);
        check_majority_partition_invariance(&w.dataset);
        check_accugen_majority_invariance(&w.dataset);
        check_tdac_consistency(&MajorityVote, &w.dataset);
        check_oracle_dominance(&MajorityVote, &w.dataset, &w.truth);
        check_small_world_exact(&MajorityVote, &w);
        check_cached_sweep(&MajorityVote, &w.dataset);
        check_thread_invariance(&MajorityVote, &w.dataset, &[2]);
    }

    #[test]
    fn consistency_holds_for_an_iterative_base() {
        let w = separable_world(&[2, 2], 3);
        let outcome = check_tdac_consistency(&Accu::default(), &w.dataset);
        assert_eq!(outcome.result.len(), w.dataset.n_cells());
    }
}
