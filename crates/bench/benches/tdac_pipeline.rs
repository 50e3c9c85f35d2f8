//! Bench: the phases of a TD-AC run (truth vectors → k sweep → per-group
//! discovery) and TD-AC vs its base on the semi-synthetic Exam workload —
//! the Time(s) columns of Tables 6 and 7, whose shape is "TD-AC ≈ one
//! extra base run plus a cheap clustering step".

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use clustering::{silhouette_paper, Hamming, KMeans, KMeansConfig};
use td_algorithms::{TruthDiscovery, TruthFinder};
use tdac_bench::{ds1_bench, exam_bench};
use tdac_core::{truth_vector_set, Tdac, TdacConfig};

fn bench_phases(c: &mut Criterion) {
    let (dataset, _) = exam_bench(62, 120);
    let view = dataset.view_all();
    let tf = TruthFinder::default();

    let mut group = c.benchmark_group("tdac_phases/exam62");
    group.sample_size(10);

    let obs = tdac_core::Observer::disabled();
    group.bench_function("phase1_truth_vectors", |b| {
        b.iter(|| black_box(truth_vector_set(&tf, &view, &obs)));
    });

    let matrix = truth_vector_set(&tf, &view, &obs).0.dense;
    group.bench_function("phase2_single_kmeans_k4", |b| {
        let km = KMeans::new(KMeansConfig::with_k(4));
        b.iter(|| black_box(km.fit(&matrix).expect("fit")));
    });
    group.bench_function("phase2_silhouette_k4", |b| {
        let asg = KMeans::new(KMeansConfig::with_k(4))
            .fit(&matrix)
            .expect("fit")
            .assignments;
        b.iter(|| black_box(silhouette_paper(&matrix, &asg, &Hamming)));
    });

    group.bench_function("full_pipeline", |b| {
        let tdac = Tdac::new(TdacConfig::default());
        b.iter(|| black_box(tdac.run(&tf, &dataset).expect("run")));
    });

    group.bench_function("base_alone", |b| {
        b.iter(|| black_box(tf.discover(&view)));
    });

    group.finish();
}

fn bench_limits_overhead(c: &mut Criterion) {
    // The robustness claim of docs/ROBUSTNESS.md: arming the budget
    // machinery (boundary probes, distance precharge, private observer)
    // with generous caps that never fire must cost < 2% of the
    // unlimited pipeline. `scripts/bench.sh` folds the limits_on /
    // limits_off median ratio into BENCH_tdac.json as
    // "limits_overhead".
    use std::time::Duration;
    use tdac_core::ExecutionLimits;

    let (dataset, _) = exam_bench(62, 120);
    let tf = TruthFinder::default();

    // The two sides differ by well under the run-to-run noise floor, so
    // this pair needs more samples than the other groups for the folded
    // ratio to be trustworthy.
    let mut group = c.benchmark_group("limits_overhead/exam62");
    group.sample_size(40);

    group.bench_function("limits_off", |b| {
        let tdac = Tdac::new(TdacConfig::default());
        b.iter(|| black_box(tdac.run(&tf, &dataset).expect("run")));
    });
    group.bench_function("limits_on", |b| {
        let generous = ExecutionLimits::none()
            .with_deadline(Duration::from_secs(3_600))
            .with_max_distance_evals(u64::MAX / 2)
            .with_max_fixpoint_iterations(u64::MAX / 2);
        let tdac = Tdac::new(TdacConfig {
            limits: generous,
            ..TdacConfig::default()
        });
        b.iter(|| black_box(tdac.run(&tf, &dataset).expect("run")));
    });

    group.finish();
}

fn bench_exam_sizes(c: &mut Criterion) {
    let mut group = c.benchmark_group("table6_7_time/tdac_truthfinder");
    group.sample_size(10);
    for n_attrs in [32usize, 62, 124] {
        let (dataset, _) = exam_bench(n_attrs, 120);
        let tf = TruthFinder::default();
        let tdac = Tdac::new(TdacConfig::default());
        group.bench_with_input(BenchmarkId::from_parameter(n_attrs), &dataset, |b, d| {
            b.iter(|| black_box(tdac.run(&tf, d).expect("run")));
        });
    }
    group.finish();
}

fn bench_streaming(c: &mut Criterion) {
    // The incremental engine's headline: appending a ~5% claim batch to
    // a live session vs recomputing the whole pipeline on the
    // accumulated claims. Both sides produce the same predictions (the
    // td-verify incremental oracle gates the bit-level contract); the
    // pair's median ratio is folded into BENCH_tdac.json as
    // "streaming_speedup" by scripts/bench.sh.
    use td_model::{ClaimBatch, DatasetBuilder, DeltaDataset};
    use tdac_core::{RepartitionPolicy, TdacSession};

    let (dataset, _) = exam_bench(62, 120);
    let tf = TruthFinder::default();

    // Defer every 20th claim whose entities are already interned: the
    // batch adds no new sources/objects/attributes, so the session
    // takes the pure dirty-attribute maintenance path.
    let mut base = DatasetBuilder::new();
    let mut batch = ClaimBatch::new();
    let mut seen = std::collections::HashSet::new();
    for (i, cl) in dataset.claims().iter().enumerate() {
        let row = (
            dataset.source_name(cl.source),
            dataset.object_name(cl.object),
            dataset.attribute_name(cl.attribute),
            dataset.value(cl.value).clone(),
        );
        let fresh = !seen.contains(&(0u8, cl.source.index()))
            || !seen.contains(&(1, cl.object.index()))
            || !seen.contains(&(2, cl.attribute.index()));
        seen.insert((0, cl.source.index()));
        seen.insert((1, cl.object.index()));
        seen.insert((2, cl.attribute.index()));
        if fresh || i % 20 != 0 {
            base.claim(row.0, row.1, row.2, row.3).expect("consistent claims");
        } else {
            batch.claim(row.0, row.1, row.2, row.3);
        }
    }
    let base = base.build();
    let mut accumulated = DeltaDataset::new(base.clone()).expect("valid base");
    accumulated.apply(&batch).expect("consistent batch");

    let mut group = c.benchmark_group("streaming/exam62");
    group.sample_size(10);

    group.bench_function("full_recompute", |b| {
        let tdac = Tdac::new(TdacConfig::default());
        let accumulated = accumulated.current();
        b.iter(|| black_box(tdac.run(&tf, accumulated).expect("run")));
    });
    group.bench_function("incremental_append", |b| {
        let session = TdacSession::start(
            tf,
            TdacConfig::default(),
            RepartitionPolicy::Never,
            base.clone(),
        )
        .expect("session starts");
        // Each iteration forks the pre-batch session and ingests — the
        // clone is part of the measured time, which only makes the
        // speedup claim conservative.
        b.iter(|| {
            let mut s = session.clone();
            black_box(s.ingest(&batch).expect("ingest"));
        });
    });

    group.finish();
}

fn bench_apply_batch(c: &mut Criterion) {
    // The data layer of a served ingest: 20 new objects (~1,200 claims)
    // onto an 8,000-object DS1 world, the shape of perfbench's
    // `serve_stream` batches. Only `Dataset::apply_batch` is timed.
    use td_model::{ClaimBatch, DatasetBuilder};

    const SERVED: u32 = 8_000;
    let world = ds1_bench(SERVED as usize + 20).dataset;
    let mut base = DatasetBuilder::new();
    let mut batch = ClaimBatch::new();
    for cl in world.claims() {
        let (s, o, a) = (
            world.source_name(cl.source),
            world.object_name(cl.object),
            world.attribute_name(cl.attribute),
        );
        let v = world.value(cl.value).clone();
        if cl.object.0 < SERVED {
            base.claim(s, o, a, v).expect("consistent claims");
        } else {
            batch.claim(s, o, a, v);
        }
    }
    let base = base.build();

    let mut group = c.benchmark_group("streaming/ds1_8000");
    group.sample_size(20);
    group.bench_function("apply_batch", |b| {
        b.iter(|| black_box(base.apply_batch(&batch).expect("consistent batch")));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_phases,
    bench_limits_overhead,
    bench_exam_sizes,
    bench_streaming,
    bench_apply_batch
);
criterion_main!(benches);
