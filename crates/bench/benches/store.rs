//! Bench: cold-loading a packed `.tds` store vs rebuilding the same
//! ready-to-run state from a portable serialization.
//!
//! The store's value proposition (docs/STORAGE.md) is cold-start time:
//! a process that persists its dataset can come back up with the base
//! algorithm's reference truth and the Eq. 1 truth-vector matrix
//! already materialized, instead of re-deriving them. Each group
//! benches the two ways of turning *bytes on disk* into a
//! [`DatasetStore`] that [`Tdac::run_store`] can consume:
//!
//! * `rebuild`   — parse the serde_json `Dataset` document, then
//!   [`Tdac::pack`] (reference fixpoint + truth-vector scatter);
//! * `cold_load` — [`DatasetStore::from_bytes`] on the `.tds` encoding
//!   (checksum walk + interner/claim decode + page adoption).
//!
//! `scripts/bench.sh` folds each `rebuild`/`cold_load` median ratio
//! into `BENCH_tdac.json` under `store_speedups`. A third benchmark
//! times the seeded pipeline itself (`run_from_store`) so the
//! steady-state cost of running from a page is visible next to the
//! cold-start numbers.
//!
//! `store/ds1_5000/cold_load` times the decode alone at the size the
//! benchmark's DS1 workloads load: a page-less 5,000-object DS1 world
//! (~4.8 MB), whose rebuild and runs would make the bench long.
//! `store/ds1_5000/to_bytes` times the encode of the same store, the
//! write `tdc pack` and each shard slice `save` pay.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use datagen::{generate_synthetic, SyntheticConfig};
use td_algorithms::TruthFinder;
use td_model::Dataset;
use tdac_bench::exam_bench;
use tdac_core::{DatasetStore, Tdac, TdacConfig};

fn bench_store_group(c: &mut Criterion, name: &str, dataset: &Dataset) {
    let tdac = Tdac::new(TdacConfig::default());
    let base = TruthFinder::default();
    let tds_bytes = tdac.pack(&base, dataset).to_bytes();
    let json = serde_json::to_string(dataset).expect("serialize");

    let mut group = c.benchmark_group(format!("store/{name}"));
    group.sample_size(10);

    group.bench_function("rebuild", |b| {
        b.iter(|| {
            let dataset: Dataset = serde_json::from_str(&json).expect("parse");
            black_box(tdac.pack(&base, &dataset))
        });
    });
    group.bench_function("cold_load", |b| {
        b.iter(|| black_box(DatasetStore::from_bytes(&tds_bytes).expect("decode")));
    });

    let store = DatasetStore::from_bytes(&tds_bytes).expect("decode");
    group.bench_function("run_from_store", |b| {
        b.iter(|| black_box(tdac.run_store(&base, &store).expect("run_store")));
    });

    group.finish();
}

fn bench_store(c: &mut Criterion) {
    let (exam, _) = exam_bench(62, 120);
    bench_store_group(c, "exam62", &exam);

    let world = generate_synthetic(&SyntheticConfig::ds1().scaled(300));
    bench_store_group(c, "ds1_300", &world.dataset);

    let world = generate_synthetic(&SyntheticConfig::ds1().scaled(5_000));
    let store = DatasetStore::new(world.dataset);
    let tds_bytes = store.to_bytes();
    let mut group = c.benchmark_group("store/ds1_5000");
    group.sample_size(10);
    group.bench_function("cold_load", |b| {
        b.iter(|| black_box(DatasetStore::from_bytes(&tds_bytes).expect("decode")));
    });
    group.bench_function("to_bytes", |b| {
        b.iter(|| black_box(store.to_bytes()));
    });
    group.finish();
}

criterion_group!(benches, bench_store);
criterion_main!(benches);
