//! Bench: the clustering substrate on truth-vector-shaped binary
//! matrices — the ablation bench for DESIGN.md's "k-means vs. PAM vs.
//! hierarchical" design choice, plus the dense/packed kernel pairs for
//! the distance matrix and k-means. The production k sweep is timed
//! end to end by `tdac_pipeline`'s `tdac_phases/exam62/full_pipeline`.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use clustering::{
    silhouette_paper, Agglomerative, BitMatrix, DistanceOptions, Hamming, KMeans,
    KMeansConfig, KernelPolicy, Linkage, Matrix, Pam, PamConfig,
};

/// A binary matrix with `rows` truth vectors of `cols` dimensions and a
/// planted 3-group structure.
fn planted(rows: usize, cols: usize) -> Matrix {
    let mut data = Vec::with_capacity(rows);
    for r in 0..rows {
        let group = r % 3;
        let row: Vec<f64> = (0..cols)
            .map(|c| {
                let on = (c / (cols / 3).max(1)).min(2) == group;
                // Mostly-clean group pattern with deterministic noise.
                if (r * 31 + c * 17) % 11 == 0 {
                    f64::from(!on as u8 as u32)
                } else {
                    f64::from(on as u8 as u32)
                }
            })
            .collect();
        data.push(row);
    }
    Matrix::from_rows(&data)
}

fn bench_clusterers(c: &mut Criterion) {
    let data = planted(62, 240);
    let mut group = c.benchmark_group("ablation/clusterers_62x240");
    group.sample_size(10);

    group.bench_function("kmeans_k3_10restarts", |b| {
        let km = KMeans::new(KMeansConfig::with_k(3));
        b.iter(|| black_box(km.fit(&data).expect("fit")));
    });
    group.bench_function("pam_k3", |b| {
        let pam = Pam::new(PamConfig::with_k(3));
        b.iter(|| black_box(pam.fit(&data, &Hamming).expect("fit")));
    });
    group.bench_function("hierarchical_avg_k3", |b| {
        let agg = Agglomerative::new(Linkage::Average);
        b.iter(|| black_box(agg.fit(&data, 3, &Hamming).expect("fit")));
    });
    group.bench_function("silhouette_k3", |b| {
        let asg = KMeans::new(KMeansConfig::with_k(3))
            .fit(&data)
            .expect("fit")
            .assignments;
        b.iter(|| black_box(silhouette_paper(&data, &asg, &Hamming)));
    });
    group.finish();
}

fn bench_hamming_kernels(c: &mut Criterion) {
    // The tentpole comparison: the dense f64 reference loop vs the
    // bit-packed XOR+popcount kernel on the same pairwise Hamming
    // matrix. Wide truth-vector-shaped inputs (≥ 256 object-source
    // columns) are where packing pays; scripts/bench.sh folds the
    // dense/packed pair into BENCH_tdac.json with the speedup.
    for (rows, cols) in [(64usize, 256usize), (64, 1024)] {
        let data = planted(rows, cols);
        let packed = BitMatrix::pack(&data).expect("planted matrices are binary");
        let mut group = c.benchmark_group(format!("kernel/pairwise_hamming_{rows}x{cols}"));
        group.sample_size(20);
        group.bench_function("dense", |b| {
            let opts = DistanceOptions::builder().kernel(KernelPolicy::Dense).build();
            b.iter(|| black_box(opts.pairwise(&data, &Hamming)));
        });
        group.bench_function("packed", |b| {
            let opts = DistanceOptions::builder().kernel(KernelPolicy::Packed).build();
            b.iter(|| black_box(opts.pairwise(&packed, &Hamming)));
        });
        group.finish();
    }
}

fn bench_kmeans_kernels(c: &mut Criterion) {
    // The exact packed k-means against the dense f64 Lloyd loop on one
    // Exam-shaped binary matrix (62 attributes x 248 object-source
    // columns), one k of the sweep, 10 restarts. The fits are
    // bit-identical; scripts/bench.sh folds the pair into
    // BENCH_tdac.json's `kernel_speedups`.
    let data = planted(62, 248);
    let packed = BitMatrix::pack(&data).expect("planted matrices are binary");
    let km = KMeans::new(KMeansConfig::with_k(8));
    let mut group = c.benchmark_group("kernel/kmeans_62x248");
    group.sample_size(20);
    group.bench_function("dense", |b| {
        let opts = DistanceOptions::builder()
            .kernel(KernelPolicy::Dense)
            .build();
        b.iter(|| black_box(km.fit_observed(&data, &opts).expect("fit")));
    });
    group.bench_function("packed", |b| {
        let opts = DistanceOptions::builder()
            .kernel(KernelPolicy::Packed)
            .build();
        b.iter(|| black_box(km.fit_observed(&packed, &opts).expect("fit")));
    });
    group.finish();

    // A tall fit, the shape of TD-OC's object rows (rows far outnumber
    // columns): one fit builds a 1000 x 1000 pair-count table and moves
    // many rows per iteration, the side of the packed path no
    // Exam-shaped sweep exercises.
    let tall = BitMatrix::pack(&planted(1000, 60)).expect("planted matrices are binary");
    let mut group = c.benchmark_group("kernel/kmeans_1000x60");
    group.sample_size(10);
    group.bench_function("packed", |b| {
        let opts = DistanceOptions::builder()
            .kernel(KernelPolicy::Packed)
            .build();
        b.iter(|| black_box(km.fit_observed(&tall, &opts).expect("fit")));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_clusterers,
    bench_hamming_kernels,
    bench_kmeans_kernels
);
criterion_main!(benches);
