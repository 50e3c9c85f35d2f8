//! AccuGenPartition — the brute-force baseline from Ba, Horincar,
//! Senellart & Wu (*Truth Finding with Attribute Partitioning*,
//! WebDB 2015) that TD-AC improves on.
//!
//! The baseline enumerates **every** set partition of the attribute set
//! (Bell(|A|) of them), runs the base algorithm on every group of every
//! partition, and keeps the partition maximizing a weighting function
//! over the learned source reliabilities:
//!
//! * [`Weighting::Max`] — mean over groups of the *maximum* source
//!   reliability in the group (a partition is good when each group has
//!   at least one source the algorithm can pin its trust on);
//! * [`Weighting::Avg`] — mean over groups of the *average* source
//!   reliability (a partition is good when trust is high across the
//!   board);
//! * the **Oracle** variant scores each partition by its actual accuracy
//!   against ground truth — an upper bound no realizable strategy can
//!   beat, reported in the paper's Tables 4–5.
//!
//! The point of the exercise is the cost: Bell(6) = 203 partitions means
//! hundreds of base-algorithm runs where TD-AC needs |A|-2 k-means fits
//! and one run per group of a single partition. The experiment harness
//! reproduces exactly that blow-up (the paper's ~200× Time column).
//! Partition evaluation is embarrassingly parallel; the search streams
//! set partitions lazily (restricted-growth-string order) through rayon's
//! `par_bridge`, so the Bell(n)-sized space is never materialized, and
//! reduces with an order-insensitive `(score, index)` total order — the
//! winner is identical at any thread count.

use std::error::Error;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use td_algorithms::{TruthDiscovery, TruthResult};
use td_metrics::evaluate_fn;
use td_model::{Dataset, GroundTruth};
use td_obs::{
    panic_message, Budget, Counter, Degradation, DegradationReason, ExecutionLimits, Observer,
    RunProfile,
};

use crate::config::Parallelism;
use crate::partition::{bell_number, partitions_iter, AttributePartition};
use crate::tdac::Metering;

/// Reliability-based partition scoring functions from the WebDB 2015
/// paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Weighting {
    /// Mean over groups of the maximum per-group source reliability.
    Max,
    /// Mean over groups of the average per-group source reliability.
    Avg,
}

impl fmt::Display for Weighting {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Weighting::Max => write!(f, "Max"),
            Weighting::Avg => write!(f, "Avg"),
        }
    }
}

/// Errors from an AccuGenPartition run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AccuGenError {
    /// The dataset has no attributes.
    NoAttributes,
    /// Refusing to enumerate Bell(n) partitions beyond the guard.
    TooManyAttributes {
        /// Attribute count.
        n: usize,
        /// Bell(n), the number of partitions that would be enumerated.
        bell: u64,
        /// The configured guard.
        limit: usize,
    },
    /// A worker panicked while evaluating a partition; the panic was
    /// caught at the task boundary (the process never aborts) and
    /// converted into this typed error naming where it happened.
    WorkerPanic {
        /// The phase (span-path vocabulary) whose worker panicked, e.g.
        /// `partition_scan/partition=7`.
        phase: String,
        /// The panic message, when it carried one.
        detail: String,
    },
}

impl fmt::Display for AccuGenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccuGenError::NoAttributes => write!(f, "dataset has no attributes"),
            AccuGenError::TooManyAttributes { n, bell, limit } => write!(
                f,
                "{n} attributes ⇒ Bell({n}) = {bell} partitions exceeds the \
                 guard of {limit} attributes; brute force is intractable here \
                 (that is the paper's point — use TD-AC)"
            ),
            AccuGenError::WorkerPanic { phase, detail } => {
                write!(f, "worker panic in phase `{phase}`: {detail}")
            }
        }
    }
}

impl Error for AccuGenError {}

/// The outcome of an AccuGenPartition run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AccuGenOutcome {
    /// Merged predictions of the winning partition.
    pub result: TruthResult,
    /// The winning partition.
    pub partition: AttributePartition,
    /// Its score under the weighting function (or its oracle accuracy).
    pub score: f64,
    /// How many partitions were evaluated (Bell(|A|) for the exhaustive
    /// scans, the number of local-search steps for the greedy variant;
    /// less when an execution limit truncated the search — see
    /// `degradation`).
    pub n_partitions: u64,
    /// `Some` when an execution limit cut the search short: the outcome
    /// is the best partition found *so far* — still a sound, merged
    /// truth-discovery result, just not the optimum over the full space.
    /// `None` on a complete scan.
    #[serde(default)]
    pub degradation: Option<Degradation>,
    /// Per-phase timings and work-unit counters for this run when
    /// `observer` is enabled; `None` with the default handle. Always
    /// this run's delta, even when the handle is reused.
    pub profile: Option<RunProfile>,
}

/// The brute-force baseline. See module docs.
#[derive(Debug, Clone)]
pub struct AccuGenPartition {
    /// Thread budget for the partition scan ([`Parallelism::Threads`]
    /// pins a pool; `Threads(1)` forces a sequential scan).
    pub parallelism: Parallelism,
    /// Refuse to run beyond this many attributes (Bell growth guard).
    pub max_attributes: usize,
    /// Instrumentation handle (disabled by default); records partitions
    /// scanned and per-run base-algorithm work, exposed on the outcome's
    /// `profile`.
    pub observer: Observer,
    /// Execution limits (unlimited by default). With a `max_partitions`
    /// cap the exhaustive scan is truncated to a deterministic prefix of
    /// the enumeration order; deadline and cancellation stop the scan at
    /// the next task boundary. Either way the outcome carries the best
    /// partition found so far, flagged via `AccuGenOutcome::degradation`.
    pub limits: ExecutionLimits,
}

impl Default for AccuGenPartition {
    fn default() -> Self {
        Self {
            parallelism: Parallelism::Auto,
            max_attributes: 10,
            observer: Observer::disabled(),
            limits: ExecutionLimits::default(),
        }
    }
}

/// One evaluated partition, before reduction.
struct Scored {
    index: usize,
    score: f64,
    result: TruthResult,
    partition: AttributePartition,
}

impl AccuGenPartition {
    // The three entry points (`run`, `run_oracle`, `run_greedy`) share
    // one signature shape on purpose: `(&self, base, dataset, <scoring
    // input>) -> Result<AccuGenOutcome, AccuGenError>`, where the last
    // parameter is the only thing that differs (a `Weighting`, a
    // `GroundTruth`, a `Weighting` again). Every variant replays the
    // winning partition through the same per-group machinery as
    // [`run_partition`], so their outcomes are directly comparable.

    /// Runs the exhaustive Bell(|A|) scan, scoring each partition with
    /// the reliability `weighting` function.
    ///
    /// Signature shape: `(&self, base, dataset, scoring-input) ->
    /// Result<AccuGenOutcome, AccuGenError>` — shared by
    /// [`AccuGenPartition::run_oracle`] and
    /// [`AccuGenPartition::run_greedy`].
    pub fn run(
        &self,
        base: &(dyn TruthDiscovery + Sync),
        dataset: &Dataset,
        weighting: Weighting,
    ) -> Result<AccuGenOutcome, AccuGenError> {
        self.search(dataset, |partition, obs| {
            self.evaluate_weighted(base, dataset, partition, weighting, obs)
        })
    }

    /// Runs the exhaustive scan with oracle scoring: each partition is
    /// scored by the accuracy of its merged predictions against
    /// `truth`. Same signature shape as [`AccuGenPartition::run`].
    pub fn run_oracle(
        &self,
        base: &(dyn TruthDiscovery + Sync),
        dataset: &Dataset,
        truth: &GroundTruth,
    ) -> Result<AccuGenOutcome, AccuGenError> {
        self.search(dataset, |partition, obs| {
            let result = run_partition(base, dataset, partition, obs);
            let report = evaluate_fn(dataset, truth, |o, a| result.prediction(o, a));
            (report.accuracy, result)
        })
    }

    fn search(
        &self,
        dataset: &Dataset,
        score_fn: impl Fn(&AttributePartition, &Observer) -> (f64, TruthResult) + Sync,
    ) -> Result<AccuGenOutcome, AccuGenError> {
        let attrs: Vec<_> = dataset.attribute_ids().collect();
        let n = attrs.len();
        if n == 0 {
            return Err(AccuGenError::NoAttributes);
        }
        if n > self.max_attributes {
            return Err(AccuGenError::TooManyAttributes {
                n,
                bell: bell_number(n),
                limit: self.max_attributes,
            });
        }

        // Stream partitions lazily: workers pull from the RGS odometer on
        // demand, fold locally with `combine`, and the worker accumulators
        // are combined with the same total order — never materializing
        // the Bell(n)-sized vector the old scan chunked over.
        let metering = Metering::start(&self.limits, &self.observer);
        let obs = &metering.obs;
        let bell = bell_number(n);
        let budget = Budget::arm(&self.limits, obs);
        // A `max_partitions` cap truncates the *sequential* stream before
        // the parallel bridge: the scanned set is an exact prefix of the
        // enumeration order, identical at any thread count (and index 0 —
        // the all-in-one-group partition — is always evaluated).
        let limit = budget
            .as_ref()
            .and_then(|b| b.remaining_partitions())
            .map_or(bell, |r| r.min(bell))
            .max(1);

        // Per-partition carrier: a budget-skipped slot is `Ok(None)`, a
        // caught panic is `Err((index, message))` so the reduction can
        // pick the smallest-index failure deterministically.
        type Carrier = Result<Option<Scored>, (usize, String)>;
        let budget_ref = budget.as_ref();
        let best: Carrier = self.parallelism.install(|| {
            let _scan = obs.span("partition_scan");
            partitions_iter(&attrs)
                .take(limit as usize)
                .enumerate()
                .par_bridge()
                .map(|(index, partition)| -> Carrier {
                    // Cheap probe only (cancel + deadline): skipped slots
                    // drop out of the reduction, never counted as scanned.
                    if budget_ref.is_some_and(|b| b.interrupted().is_some()) {
                        return Ok(None);
                    }
                    match catch_unwind(AssertUnwindSafe(|| {
                        obs.checkpoint("partition_scan/partition");
                        obs.incr(Counter::PartitionsScanned, 1);
                        let (score, result) = score_fn(&partition, obs);
                        Scored {
                            index,
                            score,
                            result,
                            partition,
                        }
                    })) {
                        Ok(scored) => Ok(Some(scored)),
                        Err(payload) => {
                            obs.incr(Counter::WorkerPanics, 1);
                            Err((index, panic_message(payload.as_ref())))
                        }
                    }
                })
                .reduce(|| Ok(None), combine)
        });
        let best = match best {
            Ok(best) => best,
            Err((index, detail)) => {
                return Err(AccuGenError::WorkerPanic {
                    phase: format!("partition_scan/partition={index}"),
                    detail,
                })
            }
        };

        // Degradation accounting: a truncated stream means the partitions
        // cap fired; evaluating fewer than the streamed prefix means the
        // cancel/deadline probe skipped slots mid-flight.
        let mut degradation = None;
        let mut n_partitions = bell;
        if let Some(b) = budget_ref {
            let scanned = b.partitions_scanned();
            n_partitions = scanned;
            if limit < bell {
                let cap = b.limits().max_partitions.expect("truncation implies a cap");
                degradation = Some(b.degrade(DegradationReason::Partitions(cap), "partition_scan"));
            } else if scanned < limit {
                let reason = b.interrupted().unwrap_or(DegradationReason::Cancelled);
                degradation = Some(b.degrade(reason, "partition_scan"));
            }
        }

        let best = match best {
            Some(best) => best,
            None => {
                // Every slot was skipped (e.g. a pre-cancelled token).
                // Best-so-far must still be *something* sound: score the
                // first partition of the enumeration — one bounded base
                // run over the un-split attribute set.
                let first = partitions_iter(&attrs).next().expect("n > 0");
                let (score, result) = score_fn(&first, obs);
                n_partitions = 1;
                Scored {
                    index: 0,
                    score,
                    result,
                    partition: first,
                }
            }
        };
        Ok(AccuGenOutcome {
            result: best.result,
            partition: best.partition,
            score: best.score,
            n_partitions,
            degradation,
            profile: metering.profile(),
        })
    }

    /// Greedy bottom-up exploration — the cheap alternative among the
    /// WebDB'15 paper's strategies. Starts from the all-singletons
    /// partition and repeatedly applies the group merge that most
    /// improves the weighting score, stopping at a local optimum. Costs
    /// `O(|A|³)` base runs instead of Bell(|A|), at the price of local
    /// optima — exactly the trade-off TD-AC's clustering removes.
    ///
    /// Same signature shape as [`AccuGenPartition::run`].
    pub fn run_greedy(
        &self,
        base: &(dyn TruthDiscovery + Sync),
        dataset: &Dataset,
        weighting: Weighting,
    ) -> Result<AccuGenOutcome, AccuGenError> {
        let attrs: Vec<_> = dataset.attribute_ids().collect();
        if attrs.is_empty() {
            return Err(AccuGenError::NoAttributes);
        }
        let metering = Metering::start(&self.limits, &self.observer);
        let obs = &metering.obs;
        let budget = Budget::arm(&self.limits, obs);
        let _scan = obs.span("partition_scan");

        // Panic-isolated evaluation of one candidate: a poisoned
        // candidate fails the search with a typed error, never an abort.
        let eval = |partition: &AttributePartition| -> Result<(f64, TruthResult), AccuGenError> {
            catch_unwind(AssertUnwindSafe(|| {
                obs.checkpoint("partition_scan/partition");
                obs.incr(Counter::PartitionsScanned, 1);
                self.evaluate_weighted(base, dataset, partition, weighting, obs)
            }))
            .map_err(|payload| {
                obs.incr(Counter::WorkerPanics, 1);
                AccuGenError::WorkerPanic {
                    phase: "partition_scan/greedy".to_string(),
                    detail: panic_message(payload.as_ref()),
                }
            })
        };

        let mut current =
            AttributePartition::new(attrs.iter().map(|&a| vec![a]).collect());
        // The all-singletons start is always evaluated (the search needs
        // at least one sound answer); the budget binds from there on.
        let (mut score, mut result) = eval(&current)?;
        let mut evaluated = 1u64;
        let mut degradation = None;

        'search: loop {
            let groups = current.groups();
            let mut best: Option<(AttributePartition, f64, TruthResult)> = None;
            for i in 0..groups.len() {
                for j in (i + 1)..groups.len() {
                    // The greedy walk is sequential, so the full budget
                    // probe (cancel, deadline, counter caps) is exact and
                    // deterministic here; on exhaustion the current local
                    // optimum is the best-so-far answer.
                    if let Some(b) = &budget {
                        if let Some(deg) = b.check("partition_scan") {
                            degradation = Some(deg);
                            break 'search;
                        }
                    }
                    let mut merged: Vec<Vec<_>> = groups.to_vec();
                    let g = merged.remove(j);
                    merged[i].extend(g);
                    let candidate = AttributePartition::new(merged);
                    let (s, r) = eval(&candidate)?;
                    evaluated += 1;
                    if s > score && best.as_ref().is_none_or(|(_, bs, _)| s > *bs) {
                        best = Some((candidate, s, r));
                    }
                }
            }
            match best {
                Some((p, s, r)) => {
                    current = p;
                    score = s;
                    result = r;
                }
                None => break,
            }
        }

        drop(_scan);
        Ok(AccuGenOutcome {
            result,
            partition: current,
            score,
            n_partitions: evaluated,
            degradation,
            profile: metering.profile(),
        })
    }

    fn evaluate_weighted(
        &self,
        base: &(dyn TruthDiscovery + Sync),
        dataset: &Dataset,
        partition: &AttributePartition,
        weighting: Weighting,
        obs: &Observer,
    ) -> (f64, TruthResult) {
        let mut partials = Vec::with_capacity(partition.len());
        let mut group_scores = Vec::with_capacity(partition.len());
        for group in partition.groups() {
            let view = dataset.view_of(group);
            let partial = base.discover_observed(&view, obs);
            // Only sources actually claiming inside the group carry
            // information about the partition's quality. They are listed
            // in id order, the order Max/Avg fold in. The scan stops once
            // every source is seen, within a few cells on dense data.
            let mut claims_here = vec![false; dataset.n_sources()];
            let mut unseen = claims_here.len();
            for c in view.cells().flat_map(|cell| view.cell_claims(cell)) {
                if !claims_here[c.source.index()] {
                    claims_here[c.source.index()] = true;
                    unseen -= 1;
                    if unseen == 0 {
                        break;
                    }
                }
            }
            let active: Vec<f64> = dataset
                .source_ids()
                .filter(|s| claims_here[s.index()])
                .map(|s| partial.source_trust[s.index()])
                .collect();
            if !active.is_empty() {
                let score = match weighting {
                    Weighting::Max => active.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                    Weighting::Avg => active.iter().sum::<f64>() / active.len() as f64,
                };
                group_scores.push(score);
            }
            partials.push(partial);
        }
        let score = if group_scores.is_empty() {
            0.0
        } else {
            group_scores.iter().sum::<f64>() / group_scores.len() as f64
        };
        (score, TruthResult::merge_all(&partials))
    }
}

/// Reduction operator for the streamed scan: higher score wins, ties
/// broken by the smaller enumeration index. This is a total order over
/// `(score, index)`, so worker-local folds combined in any order pick
/// the same winner as a sequential fold — the reason the search is
/// bit-deterministic at every thread count.
fn better(a: Option<Scored>, b: Option<Scored>) -> Option<Scored> {
    match (a, b) {
        (None, x) | (x, None) => x,
        (Some(a), Some(b)) => {
            if b.score > a.score || (b.score == a.score && b.index < a.index) {
                Some(b)
            } else {
                Some(a)
            }
        }
    }
}

/// [`better`] lifted over the panic carrier: any caught panic outranks
/// every success, and among panics the smallest enumeration index wins —
/// both rules are order-insensitive, so the reported failure is the same
/// at any thread count.
#[allow(clippy::type_complexity)]
fn combine(
    a: Result<Option<Scored>, (usize, String)>,
    b: Result<Option<Scored>, (usize, String)>,
) -> Result<Option<Scored>, (usize, String)> {
    match (a, b) {
        (Err(a), Err(b)) => Err(if a.0 <= b.0 { a } else { b }),
        (Err(e), Ok(_)) | (Ok(_), Err(e)) => Err(e),
        (Ok(a), Ok(b)) => Ok(better(a, b)),
    }
}

/// Runs `base` once per group of `partition` and merges the results —
/// the shared replay primitive behind every AccuGen entry point and the
/// differential oracles in td-verify. This is the *low-level* building
/// block: it does no searching and returns a bare [`TruthResult`];
/// prefer [`AccuGenPartition::run`] / [`AccuGenPartition::run_oracle`] /
/// [`AccuGenPartition::run_greedy`] (which return a full
/// [`AccuGenOutcome`]) unless you already know the partition.
/// Each per-group base run is recorded against `observer` (pass
/// [`Observer::disabled`] when instrumentation is not wanted);
/// observation never changes the result.
pub fn run_partition(
    base: &dyn TruthDiscovery,
    dataset: &Dataset,
    partition: &AttributePartition,
    observer: &Observer,
) -> TruthResult {
    let partials: Vec<TruthResult> = partition
        .groups()
        .iter()
        .map(|group| base.discover_observed(&dataset.view_of(group), observer))
        .collect();
    TruthResult::merge_all(&partials)
}

#[cfg(test)]
mod tests {
    use super::*;
    use td_algorithms::MajorityVote;
    use td_model::{DatasetBuilder, Value};

    /// Four attributes in two planted groups (sources specialize), with
    /// ground truth.
    fn dataset() -> (Dataset, GroundTruth, AttributePartition) {
        let mut b = DatasetBuilder::new();
        for o in 0..5 {
            let obj = format!("o{o}");
            for a in ["a0", "a1"] {
                b.claim("g1", &obj, a, Value::int(o)).unwrap();
                b.claim("g2", &obj, a, Value::int(o)).unwrap();
                b.claim("h1", &obj, a, Value::int(500 + o)).unwrap();
                b.claim("h2", &obj, a, Value::int(600 + o)).unwrap();
                b.truth(&obj, a, Value::int(o));
            }
            for a in ["b0", "b1"] {
                b.claim("g1", &obj, a, Value::int(700 + o)).unwrap();
                b.claim("g2", &obj, a, Value::int(800 + o)).unwrap();
                b.claim("h1", &obj, a, Value::int(o)).unwrap();
                b.claim("h2", &obj, a, Value::int(o)).unwrap();
                b.truth(&obj, a, Value::int(o));
            }
        }
        let (d, t) = b.build_with_truth();
        let ga: Vec<_> = ["a0", "a1"].iter().map(|a| d.attribute_id(a).unwrap()).collect();
        let gb: Vec<_> = ["b0", "b1"].iter().map(|a| d.attribute_id(a).unwrap()).collect();
        (d, t, AttributePartition::new(vec![ga, gb]))
    }

    use td_model::Dataset;

    #[test]
    fn oracle_finds_a_perfect_partition() {
        let (d, t, _planted) = dataset();
        let out = AccuGenPartition::default()
            .run_oracle(&MajorityVote, &d, &t)
            .unwrap();
        assert_eq!(out.n_partitions, bell_number(4));
        assert!(
            out.score > 0.99,
            "oracle should reach near-perfect accuracy, got {}",
            out.score
        );
    }

    #[test]
    fn weighted_variants_run_and_score() {
        let (d, _, _) = dataset();
        for w in [Weighting::Max, Weighting::Avg] {
            let out = AccuGenPartition::default().run(&MajorityVote, &d, w).unwrap();
            assert_eq!(out.n_partitions, 15);
            assert!(out.score.is_finite());
            assert_eq!(out.result.len(), d.n_cells(), "{w}");
        }
    }

    #[test]
    fn parallel_and_sequential_agree() {
        let (d, t, _) = dataset();
        let par = AccuGenPartition {
            parallelism: crate::config::Parallelism::Auto,
            ..Default::default()
        };
        let seq = AccuGenPartition {
            parallelism: crate::config::Parallelism::Threads(1),
            ..Default::default()
        };
        let o1 = par.run_oracle(&MajorityVote, &d, &t).unwrap();
        let o2 = seq.run_oracle(&MajorityVote, &d, &t).unwrap();
        assert_eq!(o1.partition, o2.partition);
        assert_eq!(o1.score.to_bits(), o2.score.to_bits());
        let p1: std::collections::BTreeMap<_, _> =
            o1.result.iter().map(|(o, a, v, c)| ((o, a), (v, c.to_bits()))).collect();
        let p2: std::collections::BTreeMap<_, _> =
            o2.result.iter().map(|(o, a, v, c)| ((o, a), (v, c.to_bits()))).collect();
        assert_eq!(p1, p2);
        let w1 = par.run(&MajorityVote, &d, Weighting::Avg).unwrap();
        let w2 = seq.run(&MajorityVote, &d, Weighting::Avg).unwrap();
        assert_eq!(w1.partition, w2.partition);
        assert_eq!(w1.score.to_bits(), w2.score.to_bits());
        let t1: Vec<u64> = w1.result.source_trust.iter().map(|t| t.to_bits()).collect();
        let t2: Vec<u64> = w2.result.source_trust.iter().map(|t| t.to_bits()).collect();
        assert_eq!(t1, t2);
    }

    #[test]
    fn attribute_guard_refuses_blowup() {
        let mut b = DatasetBuilder::new();
        for a in 0..12 {
            b.claim("s", "o", &format!("a{a}"), Value::int(1)).unwrap();
        }
        let d = b.build();
        let err = AccuGenPartition::default()
            .run(&MajorityVote, &d, Weighting::Max)
            .unwrap_err();
        assert!(matches!(err, AccuGenError::TooManyAttributes { n: 12, .. }));
        assert!(err.to_string().contains("TD-AC"));
    }

    #[test]
    fn greedy_is_cheaper_and_sound() {
        let (d, _, _) = dataset();
        let brute = AccuGenPartition::default();
        let greedy = brute.run_greedy(&MajorityVote, &d, Weighting::Avg).unwrap();
        let full = brute.run(&MajorityVote, &d, Weighting::Avg).unwrap();
        // Greedy evaluates far fewer partitions than Bell(n) can require
        // at larger n; at n = 4 it is bounded by singletons + merges.
        assert!(greedy.n_partitions <= 15 + 4);
        // Its local optimum can't beat the exhaustive optimum.
        assert!(greedy.score <= full.score + 1e-9);
        assert_eq!(greedy.result.len(), d.n_cells());
        assert_eq!(greedy.partition.n_attributes(), 4);
    }

    #[test]
    fn greedy_on_empty_dataset_errors() {
        let d = DatasetBuilder::new().build();
        assert!(AccuGenPartition::default()
            .run_greedy(&MajorityVote, &d, Weighting::Max)
            .is_err());
    }

    #[test]
    fn empty_dataset_is_an_error() {
        let d = DatasetBuilder::new().build();
        assert_eq!(
            AccuGenPartition::default()
                .run(&MajorityVote, &d, Weighting::Max)
                .unwrap_err(),
            AccuGenError::NoAttributes
        );
    }

    #[test]
    fn run_partition_covers_all_cells_once() {
        let (d, _, planted) = dataset();
        let r = run_partition(&MajorityVote, &d, &planted, &Observer::disabled());
        assert_eq!(r.len(), d.n_cells());
    }

    #[test]
    fn partition_cap_truncates_deterministically() {
        // Bell(4) = 15; a cap of 5 scans exactly the first 5 partitions
        // of the enumeration order, at any thread count.
        let (d, _, _) = dataset();
        let run = |parallelism| {
            AccuGenPartition {
                parallelism,
                limits: ExecutionLimits::none().with_max_partitions(5),
                ..Default::default()
            }
            .run(&MajorityVote, &d, Weighting::Avg)
            .unwrap()
        };
        let seq = run(crate::config::Parallelism::Threads(1));
        let par = run(crate::config::Parallelism::Auto);
        for out in [&seq, &par] {
            assert_eq!(out.n_partitions, 5);
            let deg = out.degradation.as_ref().expect("truncated scan is flagged");
            assert_eq!(deg.reason, DegradationReason::Partitions(5));
            assert_eq!(deg.phase, "partition_scan");
            assert_eq!(deg.work.partitions_scanned, 5);
        }
        assert_eq!(seq.partition, par.partition);
        assert_eq!(seq.score.to_bits(), par.score.to_bits());
    }

    #[test]
    fn generous_partition_cap_changes_nothing() {
        let (d, _, _) = dataset();
        let plain = AccuGenPartition::default().run(&MajorityVote, &d, Weighting::Avg).unwrap();
        let capped = AccuGenPartition {
            limits: ExecutionLimits::none().with_max_partitions(15),
            ..Default::default()
        }
        .run(&MajorityVote, &d, Weighting::Avg)
        .unwrap();
        assert!(capped.degradation.is_none(), "the full scan fits the cap");
        assert_eq!(capped.n_partitions, 15);
        assert_eq!(capped.partition, plain.partition);
        assert_eq!(capped.score.to_bits(), plain.score.to_bits());
    }

    #[test]
    fn pre_cancelled_scan_still_returns_a_sound_result() {
        let (d, _, _) = dataset();
        let token = td_obs::CancelToken::new();
        token.cancel();
        let out = AccuGenPartition {
            limits: ExecutionLimits::none().with_cancel(token),
            ..Default::default()
        }
        .run(&MajorityVote, &d, Weighting::Avg)
        .unwrap();
        let deg = out.degradation.as_ref().expect("cancelled scan is flagged");
        assert_eq!(deg.reason, DegradationReason::Cancelled);
        assert_eq!(out.n_partitions, 1, "only the fallback evaluation ran");
        assert_eq!(out.result.len(), d.n_cells());
        assert_eq!(out.partition.len(), 1, "first RGS partition: one group");
    }

    #[test]
    fn greedy_respects_the_partition_budget() {
        let (d, _, _) = dataset();
        let out = AccuGenPartition {
            limits: ExecutionLimits::none().with_max_partitions(3),
            ..Default::default()
        }
        .run_greedy(&MajorityVote, &d, Weighting::Avg)
        .unwrap();
        assert!(out.n_partitions <= 3, "scanned {} > cap", out.n_partitions);
        let deg = out.degradation.as_ref().expect("capped greedy walk is flagged");
        assert_eq!(deg.reason, DegradationReason::Partitions(3));
        assert!(deg.work.partitions_scanned <= 3);
        assert_eq!(out.result.len(), d.n_cells());
    }

    /// A base algorithm that panics on two-group partitions' *second*
    /// group-like views — actually simplest: panic on every view with
    /// exactly 3 attributes, which several partitions produce.
    struct PanicsOnTriples;

    impl TruthDiscovery for PanicsOnTriples {
        fn name(&self) -> &'static str {
            "PanicsOnTriples"
        }

        fn discover(&self, view: &td_model::DatasetView<'_>) -> TruthResult {
            assert_ne!(view.attributes().len(), 3, "injected scorer failure");
            MajorityVote.discover(view)
        }
    }

    #[test]
    fn scan_worker_panic_is_typed_and_names_the_smallest_index() {
        let (d, _, _) = dataset();
        for parallelism in [
            crate::config::Parallelism::Threads(1),
            crate::config::Parallelism::Auto,
        ] {
            let err = AccuGenPartition {
                parallelism,
                ..Default::default()
            }
            .run(&PanicsOnTriples, &d, Weighting::Avg)
            .unwrap_err();
            let AccuGenError::WorkerPanic { phase, detail } = err else {
                panic!("expected WorkerPanic, got {err:?}");
            };
            // Partition index 1 ({a0,a1,a2},{b1}) is the first in RGS
            // order with a 3-attribute group; the reduction must report
            // it whatever order workers finish in.
            assert_eq!(phase, "partition_scan/partition=1");
            assert!(detail.contains("injected scorer failure"), "{detail}");
        }
    }

    #[test]
    fn greedy_panic_is_typed_too() {
        struct AlwaysPanics;
        impl TruthDiscovery for AlwaysPanics {
            fn name(&self) -> &'static str {
                "AlwaysPanics"
            }
            fn discover(&self, _view: &td_model::DatasetView<'_>) -> TruthResult {
                panic!("poisoned greedy step")
            }
        }
        let (d, _, _) = dataset();
        let err = AccuGenPartition::default()
            .run_greedy(&AlwaysPanics, &d, Weighting::Avg)
            .unwrap_err();
        assert!(matches!(err, AccuGenError::WorkerPanic { .. }), "{err:?}");
        assert!(err.to_string().contains("poisoned greedy step"));
    }
}
