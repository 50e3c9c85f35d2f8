//! `exam62_sweep`, `ds1_batch` and `ds1_sharded`: whole TD-AC runs on
//! loaded stores, in-process or through the shard coordinator.
//!
//! The traced run alternates an untraced op with a traced one (program
//! observer enabled). After each traced op the harness replays the
//! op's steps through each layer's public calls: the reference run, the
//! truth-vector scatter, the distance matrix, every k's k-means fit and
//! silhouette, the per-group runs and the merge; sharded ops add the
//! coordinator's model selection and the shard slicing.

use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::time::{Duration, Instant};

use clustering::{silhouette_paper_dist, DistanceOptions, KMeans, KMeansConfig};
use td_algorithms::{algorithm_by_name, TruthDiscovery, TruthResult};
use td_model::{AttributeId, Dataset};
use td_obs::{Counter, Observer};
use td_shard::{ShardRunner, WorkerCommand};
use td_store::DatasetStore;
use td_verify::{OutcomeFingerprint, ResultFingerprint};
use tdac_core::{
    truth_vector_set_from_result, AttributePartition, ExecutionBackend, Parallelism, ShardPlan,
    ShardStrategy, Tdac, TdacConfig, TdacOutcome, TruthQuery,
};

use crate::harness::{check_answer, finish_layers, time_setup, Ctx, Rng, SETUP_BUDGET_S};
use crate::inputs::{NamedTruth, Score};
use crate::report::RunResult;
use crate::stats::{median, tail_percentile};
use crate::trace::Tracer;
use crate::workloads::{Kind, Workload};

/// Worker processes of the sharded workload (the `tdc shard` default).
const SHARDS: usize = 2;

/// Lookup samples taken after every timed run.
const LOOKUPS_PER_RUN: usize = 100;

/// Lookup samples a run takes at least: a p90 needs 100.
const MIN_LOOKUPS: usize = 110;

/// Point lookups timed together as one sample.
const LOOKUP_GROUP: usize = 64;

type Base = Box<dyn TruthDiscovery + Send + Sync>;

fn config(kind: Kind, observer: Observer) -> TdacConfig {
    let backend = match kind {
        Kind::Sharded => {
            ExecutionBackend::Sharded(ShardPlan::new(ShardStrategy::ByAttributeGroup, SHARDS))
        }
        Kind::Batch | Kind::Serve => ExecutionBackend::in_process(Parallelism::Threads(1)),
    };
    TdacConfig {
        backend,
        observer,
        ..TdacConfig::default()
    }
}

/// One whole TD-AC run: the timed operation.
fn run_once(
    kind: Kind,
    w: &Workload,
    base: &Base,
    store: &DatasetStore,
    observer: Observer,
    worker: &Path,
) -> Result<TdacOutcome, String> {
    let cfg = config(kind, observer);
    match kind {
        Kind::Sharded => ShardRunner::new(cfg)
            .map_err(|e| e.to_string())?
            .with_worker(WorkerCommand::new(worker, vec!["worker".to_string()]))
            .run_store(w.algorithm, store)
            .map_err(|e| e.to_string()),
        Kind::Batch | Kind::Serve => Tdac::new(cfg)
            .run_store(base.as_ref(), store)
            .map_err(|e| e.to_string()),
    }
}

/// Every op must reproduce the warm-up op bit for bit, undegraded.
fn check_outcome(outcome: &TdacOutcome, reference: &OutcomeFingerprint) -> Result<(), String> {
    if let Some(d) = &outcome.degradation {
        return Err(format!("degraded outcome: {d:?}"));
    }
    match OutcomeFingerprint::of(outcome).diff(reference) {
        Some(d) => Err(format!("outcome differs from the warm-up op: {d}")),
        None => Ok(()),
    }
}

/// Runs a batch or sharded workload. Ops take the run's worlds in turn
/// (in a traced run, each world gets an untraced op and then a traced
/// one); `run_p50_ms` is the mean over worlds of each world's median.
pub fn run(w: &Workload, ctx: &Ctx) -> Result<RunResult, String> {
    let mut out = RunResult::default();
    let mut t = Tracer::new(ctx.trace);
    let base = algorithm_by_name(w.algorithm).ok_or("unknown algorithm")?;
    let inputs: Vec<_> = (0..w.worlds).map(|j| ctx.files.input(j)).collect();

    // Ready = every world's store loaded.
    let (stores, setup) = time_setup(&mut t, 5, SETUP_BUDGET_S, |t| {
        inputs
            .iter()
            .map(|input| {
                t.span("store.load", |_| DatasetStore::load(input))
                    .map_err(|e| format!("loading {}: {e}", input.display()))
            })
            .collect::<Result<Vec<_>, _>>()
    })?;
    out.samples.insert("setup", setup.len());
    out.set("setup_s", median(&setup).expect("set-up ran"));

    // One warm-up op per world (untimed): every timed op on that world
    // must match its fingerprint.
    let mut references = Vec::new();
    let mut last = Vec::new();
    for store in &stores {
        let warm = run_once(w.kind, w, &base, store, Observer::disabled(), &ctx.exe)?;
        let reference = OutcomeFingerprint::of(&warm);
        out.tally.op(check_outcome(&warm, &reference));
        references.push(reference);
        last.push(warm);
    }

    let mut untraced = vec![Vec::new(); w.worlds];
    let mut traced = Vec::new();
    let mut counters: Vec<HashMap<&'static str, f64>> = Vec::new();
    let mut coverage = Vec::new();
    let mut distributed = Vec::new();
    let mut lookups = Lookups::new(ctx.seed);
    let per_world = if ctx.trace { 2 } else { 1 };
    // Closed loop until the window ends, and at least one round over the
    // worlds even in a short window.
    let end = Instant::now() + ctx.measure;
    let mut i = 0usize;
    while i < per_world * w.worlds || Instant::now() < end {
        let j = (i / per_world) % w.worlds;
        let observe = ctx.trace && i % 2 == 1;
        i += 1;
        let store = &stores[j];
        let observer = if observe {
            Observer::enabled()
        } else {
            Observer::disabled()
        };
        let start = Instant::now();
        let result = run_once(w.kind, w, &base, store, observer.clone(), &ctx.exe);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let outcome = match result {
            Ok(o) => o,
            Err(e) => {
                out.tally.op(Err(e));
                continue;
            }
        };
        out.tally.op(check_outcome(&outcome, &references[j]));
        if !observe {
            untraced[j].push(ms);
            // Lookups are spread over the window, after every timed run,
            // so that they sample the same machine state as the runs.
            lookups.run(&mut t, &mut out, &store.dataset, &outcome, LOOKUPS_PER_RUN);
            last[j] = outcome;
            continue;
        }
        traced.push(ms);
        let op = t.begin_op();
        t.record("op", start, start + Duration::from_secs_f64(ms / 1e3));
        let profile = observer.profile().unwrap_or_default();
        let count = |c: Counter| profile.counter(c.name()).unwrap_or(0) as f64;
        if w.kind == Kind::Sharded {
            for c in [
                Counter::ShardFailures,
                Counter::ShardRetries,
                Counter::ShardFallbacks,
            ] {
                if count(c) != 0.0 {
                    out.tally
                        .fail(format!("op {op}: {} = {}", c.name(), count(c)));
                }
            }
        }
        counters.push(HashMap::from([
            (
                "algorithms.fixpoint_iterations",
                count(Counter::FixpointIterations),
            ),
            (
                "clustering.kmeans_iterations",
                count(Counter::KMeansIterations),
            ),
            ("clustering.k_candidates", outcome.k_scores.len() as f64),
            ("shard.spawned", count(Counter::ShardsSpawned)),
            ("shard.partials", count(Counter::ShardPartials)),
            ("shard.failures", count(Counter::ShardFailures)),
            ("shard.retries", count(Counter::ShardRetries)),
            ("shard.fallbacks", count(Counter::ShardFallbacks)),
        ]));
        let replayed = t.span("replay", |t| replay(t, w, &base, store, &outcome));
        coverage.push(replayed.blocking_ms / ms);
        if let Some(select_ms) = replayed.select_ms {
            distributed.push(ms - select_ms);
            out.set("store.slice_bytes", replayed.slice_bytes as f64);
        }
        last[j] = outcome;
    }
    let world_medians: Vec<f64> = untraced.iter().filter_map(|ms| median(ms)).collect();
    if world_medians.len() < w.worlds || (ctx.trace && traced.is_empty()) {
        return Err(format!(
            "an op of every world did not succeed; first failure: {}",
            out.tally.reasons.first().map_or("none", String::as_str)
        ));
    }
    let runs: Vec<f64> = untraced.concat();
    out.samples.insert("runs", runs.len());
    out.set(
        "run_p50_ms",
        world_medians.iter().sum::<f64>() / w.worlds as f64,
    );

    if lookups.samples.len() < MIN_LOOKUPS {
        let more = MIN_LOOKUPS - lookups.samples.len();
        lookups.run(&mut t, &mut out, &stores[0].dataset, &last[0], more);
    }
    let lookups = lookups.samples;
    out.samples.insert("lookups", lookups.len());
    out.set(
        "query_p90_ms",
        tail_percentile(&lookups, 90.0).ok_or("too few lookups for a p90")?,
    );
    out.set("peak_rss_mb", crate::sys::peak_rss_mb()?);

    let mut score = Score::default();
    for (j, store) in stores.iter().enumerate() {
        // The sharded path must be bit-identical to the in-process run.
        if w.kind == Kind::Sharded {
            let local = run_once(
                Kind::Batch,
                w,
                &base,
                store,
                Observer::disabled(),
                &ctx.exe,
            )?;
            if let Some(d) = OutcomeFingerprint::of(&local).diff(&references[j]) {
                out.tally.fail(format!(
                    "world {j}: sharded outcome differs from in-process: {d}"
                ));
            }
        }
        let truth = NamedTruth::load(&ctx.files, j)?;
        score.add(truth.score(&store.dataset, |o, a| last[j].result.prediction(o, a)));
    }
    out.recorded.insert("accuracy", score.accuracy());

    if ctx.trace {
        let mut bytes = 0;
        for input in &inputs {
            bytes += std::fs::metadata(input).map_err(|e| e.to_string())?.len();
        }
        out.set("store.input_bytes", bytes as f64);
        if let Some(first) = counters.first() {
            for name in first.keys() {
                let values: Vec<f64> = counters.iter().map(|c| c[name]).collect();
                out.set(name, median(&values).expect("non-empty"));
            }
        }
        out.set(
            "obs.overhead_pct",
            (median(&traced).expect("traced op") / median(&runs).expect("ran") - 1.0) * 100.0,
        );
        out.set("obs.layer_coverage", median(&coverage).expect("traced op"));
        if let Some(ms) = median(&distributed) {
            out.set("shard.distributed_ms", ms);
        }
        let mut not_applicable = vec![
            "model.snapshot_clone_ms",
            "core.ingest_ms",
            "core.dirty_attributes",
            "core.groups_reused",
            "core.repartitions",
            "serve.decode_ms",
            "serve.encode_ms",
            "serve.request_bytes",
            "serve.response_bytes",
            "serve.wire_ms",
            "serve.overloaded",
            "serve.generator_late_ms",
        ];
        if w.kind == Kind::Batch {
            not_applicable.extend([
                "store.slice_ms",
                "store.slice_bytes",
                "core.select_ms",
                "shard.distributed_ms",
            ]);
        }
        finish_layers(&mut out, &mut t, ctx, &not_applicable)?;
    }
    Ok(out)
}

/// Seeded-random point lookups (`TruthQuery::Attribute`) of cells in a
/// run's outcome: the batch workloads' read path, answered in-process.
/// Point lookups, not `Object` ones: an `Object` answer walks every
/// prediction, so its cost follows the hash layout of the one outcome
/// it reads (6 or 10 µs per outcome on `exam62_sweep`), and a window
/// with ~20 outcomes cannot average that out. A point lookup takes
/// ~0.2 µs, near the clock's resolution, so each sample is the mean of
/// a group of [`LOOKUP_GROUP`] lookups.
struct Lookups {
    rng: Rng,
    samples: Vec<f64>,
}

impl Lookups {
    fn new(seed: u64) -> Self {
        Lookups {
            rng: Rng::new(seed),
            samples: Vec::new(),
        }
    }

    /// `n` samples of [`LOOKUP_GROUP`] lookups each against `outcome`,
    /// a run on `d`.
    fn run(
        &mut self,
        t: &mut Tracer,
        out: &mut RunResult,
        d: &Dataset,
        outcome: &TdacOutcome,
        n: usize,
    ) {
        for _ in 0..n {
            let queries: Vec<TruthQuery> = (0..LOOKUP_GROUP)
                .map(|_| {
                    let cell = &d.cells()[self.rng.below(d.cells().len())];
                    TruthQuery::Attribute(
                        d.object_name(cell.object).to_string(),
                        d.attribute_name(cell.attribute).to_string(),
                    )
                })
                .collect();
            let start = Instant::now();
            let answers: Vec<_> = queries
                .iter()
                .map(|q| {
                    t.begin_op();
                    t.span("core.answer", |_| q.answer(d, outcome))
                })
                .collect();
            self.samples
                .push(start.elapsed().as_secs_f64() * 1e3 / LOOKUP_GROUP as f64);
            for (query, answer) in queries.iter().zip(answers) {
                out.tally.op(check_answer(query, answer));
            }
        }
    }
}

/// What replaying one op found.
struct Replayed {
    /// Time the replayed calls on the op's blocking path took.
    blocking_ms: f64,
    /// The coordinator's model selection, on sharded ops.
    select_ms: Option<f64>,
    /// Bytes of the serialized shard slices.
    slice_bytes: usize,
}

/// Replays one op's steps through the public calls of each layer, each
/// call in its own span, and checks that the replay reproduces the op's
/// partition and merged result.
fn replay(
    t: &mut Tracer,
    w: &Workload,
    base: &Base,
    store: &DatasetStore,
    outcome: &TdacOutcome,
) -> Replayed {
    let cfg = config(w.kind, Observer::disabled());
    let dataset = &store.dataset;
    let view = dataset.view_all();
    let attrs: Vec<AttributeId> = view.attributes().to_vec();
    let n = attrs.len();
    let mark = t.spans().len();

    // Steps 1-3 at the parallelism the op ran them at: Threads(1)
    // in-process, the backend default on the sharded coordinator.
    let partition = cfg.effective_parallelism().install(|| {
        let reference = t.span("algorithms.reference", |_| base.discover(&view));
        let vectors = t.span("core.scatter", |_| {
            truth_vector_set_from_result(&view, &reference)
        });
        let dist = t.span("clustering.distance", |_| {
            DistanceOptions::builder()
                .kernel(cfg.effective_kernel())
                .build()
                .pairwise(vectors.rows(), cfg.metric.as_metric())
        });
        let k_hi = cfg.k_max.unwrap_or(n - 1).min(n - 1);
        let mut best: Option<(f64, Vec<usize>)> = None;
        for k in cfg.k_min..=k_hi {
            let kmeans = KMeans::new(KMeansConfig {
                k,
                n_init: cfg.n_init,
                seed: cfg.seed,
                ..KMeansConfig::with_k(k)
            });
            let Ok(fit) = t.span("clustering.kmeans", |_| kmeans.fit(&vectors.dense)) else {
                continue;
            };
            let sil = t.span("clustering.silhouette", |_| {
                silhouette_paper_dist(&dist, n, &fit.assignments)
            });
            if best.as_ref().is_none_or(|(b, _)| sil > *b) {
                best = Some((sil, fit.assignments));
            }
        }
        match best {
            Some((_, assignments)) => AttributePartition::from_assignments(&attrs, &assignments),
            None => AttributePartition::whole(&attrs),
        }
    });
    let groups = partition.groups();

    let mut select_ms = None;
    let mut slice_bytes = 0;
    let mut shard_ms = [0.0; SHARDS];
    if w.kind == Kind::Sharded {
        let start = Instant::now();
        let selected = t.span("core.select", |_| {
            Tdac::new(cfg.clone()).select_model_store(base.as_ref(), store)
        });
        select_ms = Some(start.elapsed().as_secs_f64() * 1e3);
        if let Err(e) = selected {
            eprintln!("perfbench: replayed model selection failed: {e}");
        }
        // Groups are dealt to shards round-robin (ByAttributeGroup).
        for shard in 0..SHARDS {
            let mine: HashSet<AttributeId> = groups
                .iter()
                .skip(shard)
                .step_by(SHARDS)
                .flatten()
                .copied()
                .collect();
            slice_bytes += t.span("store.slice", |_| {
                store
                    .subset_where(|c| mine.contains(&c.attribute))
                    .map_or(0, |slice| slice.to_bytes().len())
            });
        }
    }

    // Step 4 at Threads(1), like in-process ops and every shard worker.
    let partials: Vec<TruthResult> = Parallelism::Threads(1).install(|| {
        groups
            .iter()
            .enumerate()
            .map(|(gi, g)| {
                let start = Instant::now();
                let partial = t.span("algorithms.group_runs", |_| {
                    base.discover(&dataset.view_of(g))
                });
                shard_ms[gi % SHARDS] += start.elapsed().as_secs_f64() * 1e3;
                partial
            })
            .collect()
    });
    let mut merged = t.span("core.merge", |_| TruthResult::merge_all(&partials));
    merged.iterations = 1;

    if partition.to_string() != outcome.partition.to_string()
        || ResultFingerprint::of(&merged) != ResultFingerprint::of(&outcome.result)
    {
        eprintln!(
            "perfbench: replay diverged from the op (partition {} vs {}); \
             per-layer times no longer describe the op",
            partition, outcome.partition
        );
    }

    let total = |names: &[&str]| -> f64 {
        t.spans()[mark..]
            .iter()
            .filter(|s| names.contains(&s.name))
            .map(|s| s.ms())
            .sum()
    };
    let blocking_ms = match select_ms {
        // Shards run their groups concurrently: the slowest one blocks.
        Some(select) => {
            select
                + total(&["store.slice", "core.merge"])
                + shard_ms.iter().copied().fold(0.0, f64::max)
        }
        None => total(&[
            "algorithms.reference",
            "core.scatter",
            "clustering.distance",
            "clustering.kmeans",
            "clustering.silhouette",
            "algorithms.group_runs",
            "core.merge",
        ]),
    };
    Replayed {
        blocking_ms,
        select_ms,
        slice_bytes,
    }
}
