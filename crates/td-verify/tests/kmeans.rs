//! k-means parity suite: the exact packed k-means path against the
//! dense `f64` Lloyd loop — assignments, centroids, inertia (`to_bits`)
//! and iterations — on random binary matrices around the word boundary,
//! on narrow tie-heavy matrices, and on the Exam-62 truth vectors at
//! every k of the sweep. The sweep tests fit every k from one shared
//! `KMeansSweep` and hold each fit to a standalone dense fit.
//!
//! `scripts/verify.sh` runs this file under both the dev profile and
//! `--release`: the screen rests on float margins and integer
//! arithmetic, and release builds turn overflow checks off.

use clustering::{
    DistanceOptions, Init, KMeans, KMeansConfig, KMeansResult, KMeansSweep, KernelPolicy, Matrix,
};
use rayon::prelude::*;
use td_verify::kmeans::{
    check_kmeans_parity, diff_fits, exam62_truth_vectors, exam_truth_vectors, random_binary,
};
use tdac_core::{Counter, Observer, Parallelism, TdacConfig};

const WIDTHS: [usize; 6] = [1, 63, 64, 65, 130, 248];
const DENSITIES: [f64; 5] = [0.05, 0.3, 0.5, 0.7, 0.95];
const VARIANTS: usize = 6;
const INITS: [Init; 2] = [Init::KMeansPlusPlus, Init::Random];
const RESTARTS: [u32; 2] = [10, 1];
const THREADS: [usize; 3] = [1, 2, 8];

#[test]
fn packed_kmeans_matches_dense_on_random_binary_matrices() {
    let mut fits = 0usize;
    for (wi, &cols) in WIDTHS.iter().enumerate() {
        for (di, &density) in DENSITIES.iter().enumerate() {
            for variant in 0..VARIANTS {
                // Row counts cycle through 2..=40; every other matrix
                // repeats earlier rows to force exact distance ties.
                let case = (wi * DENSITIES.len() + di) * VARIANTS + variant;
                let rows = 2 + (case * 13) % 39;
                let duplicates = case % 2 == 1;
                let data = random_binary(rows, cols, density, duplicates, 0xC0FFEE + case as u64);
                for k in 1..=rows {
                    // Rotate the (init, n_init, threads) combinations across
                    // k so the grid covers each without the full product.
                    let combo = case + k;
                    let config = KMeansConfig {
                        init: INITS[combo % 2],
                        n_init: RESTARTS[(combo / 2) % 2],
                        seed: 7 + case as u64,
                        ..KMeansConfig::with_k(k)
                    };
                    let parallelism = Parallelism::Threads(THREADS[(combo / 4) % THREADS.len()]);
                    check_kmeans_parity(&data, config, parallelism).unwrap_or_else(|e| {
                        panic!(
                            "{rows}x{cols} density {density} duplicates {duplicates}, k = {k}, \
                             {:?} x {} restarts at {parallelism:?}: {e}",
                            config.init, config.n_init
                        )
                    });
                    fits += 1;
                }
            }
        }
    }
    assert!(fits > 2000, "the grid shrank to {fits} fits");
}

#[test]
fn packed_kmeans_matches_dense_where_ties_cross_cluster_sizes() {
    // Narrow rows make exact distance ties between centroids of
    // different sizes common, and their screen values `fl(E)·fl(1/m²)`
    // can round an ulp apart. These cases need the screening margin
    // itself: with a zero margin, case 54 (21x5, k = 5, Random init)
    // already assigns a row differently.
    let mut fits = 0usize;
    for case in 0..200u64 {
        let rows = 4 + (case % 37) as usize;
        let cols = [3usize, 5, 7, 9, 12, 16, 24, 40][(case / 37 % 8) as usize];
        let density = [0.2, 0.35, 0.5, 0.65][(case / 296 % 4) as usize];
        let duplicates = case % 2 == 0;
        let data = random_binary(rows, cols, density, duplicates, case * 7919 + 13);
        for k in 2..rows.min(12) {
            for init in INITS {
                let config = KMeansConfig {
                    init,
                    n_init: 3,
                    seed: case,
                    ..KMeansConfig::with_k(k)
                };
                check_kmeans_parity(&data, config, Parallelism::Threads(1)).unwrap_or_else(|e| {
                    panic!("case {case}: {rows}x{cols}, k = {k}, {init:?}: {e}")
                });
                fits += 1;
            }
        }
    }
    assert!(fits > 2000, "the grid shrank to {fits} fits");
}

#[test]
fn packed_kmeans_matches_dense_at_every_thread_count() {
    // One tie-heavy matrix, every k, both inits, under each thread count.
    let data = random_binary(24, 65, 0.5, true, 0xBEEF);
    for threads in THREADS {
        for init in INITS {
            for k in 1..=data.n_rows() {
                let config = KMeansConfig {
                    init,
                    ..KMeansConfig::with_k(k)
                };
                check_kmeans_parity(&data, config, Parallelism::Threads(threads))
                    .unwrap_or_else(|e| panic!("k = {k}, {init:?}, Threads({threads}): {e}"));
            }
        }
    }
}

#[test]
fn packed_kmeans_matches_dense_on_the_exam_shape_at_every_k() {
    let vectors = exam62_truth_vectors(1);
    assert_eq!((vectors.dense.n_rows(), vectors.dense.n_cols()), (62, 248));
    // Algorithm 1's range k ∈ [2, |A| − 1] under the default config.
    let config = TdacConfig::default();
    for k in 2..=61 {
        let km = KMeansConfig {
            k,
            n_init: config.n_init,
            seed: config.seed,
            ..KMeansConfig::with_k(k)
        };
        check_kmeans_parity(&vectors.dense, km, Parallelism::Threads(1))
            .unwrap_or_else(|e| panic!("Exam 62x248, k = {k}: {e}"));
    }
}

/// Standalone [`KernelPolicy::Dense`] fits of every k in `ks` with
/// `config` (its `k` is ignored), and the Lloyd iterations they ran over
/// all restarts: the references of [`check_sweep_parity`].
fn dense_fits(
    data: &Matrix,
    config: KMeansConfig,
    ks: &[usize],
) -> Result<(Vec<KMeansResult>, u64), String> {
    let observer = Observer::enabled();
    let opts = DistanceOptions::builder()
        .kernel(KernelPolicy::Dense)
        .observer(observer.clone())
        .build();
    let fits: Vec<_> = ks
        .par_iter()
        .map(|&k| {
            KMeans::new(KMeansConfig { k, ..config })
                .fit_observed(data, &opts)
                .map_err(|e| format!("dense fit of k = {k} failed: {e}"))
        })
        .collect();
    let fits = fits.into_iter().collect::<Result<Vec<_>, _>>()?;
    Ok((fits, observer.counter_value(Counter::KMeansIterations)))
}

/// Builds one [`KMeansSweep`] over binary `data` for the largest k of
/// `ks` under [`KernelPolicy::Packed`], and fits every k of `ks` from it
/// at `parallelism` twice: all k values in parallel, then one by one in
/// descending order. Each fit must be bit-identical to `references`
/// (one [`dense_fits`] result per k of `ks`), every fit must take the
/// packed path, and the sweep must run exactly the dense fits' Lloyd
/// iterations (`dense_iterations`) per pass.
fn check_sweep_parity(
    data: &Matrix,
    config: KMeansConfig,
    ks: &[usize],
    references: &[KMeansResult],
    dense_iterations: u64,
    parallelism: Parallelism,
) -> Result<(), String> {
    let k_max = ks.iter().copied().max().ok_or("empty k range")?;
    let observer = Observer::enabled();
    let opts = DistanceOptions::builder()
        .kernel(KernelPolicy::Packed)
        .observer(observer.clone())
        .build();
    let (parallel, descending) = parallelism.install(|| {
        let sweep = KMeansSweep::new(KMeansConfig { k: k_max, ..config }, data, &opts);
        let parallel: Vec<_> = ks.par_iter().map(|&k| sweep.fit(k)).collect();
        let mut descending: Vec<_> = ks.iter().rev().map(|&k| sweep.fit(k)).collect();
        descending.reverse();
        (parallel, descending)
    });
    for (i, &k) in ks.iter().enumerate() {
        for (order, fit) in [("parallel", &parallel[i]), ("descending", &descending[i])] {
            let fit = fit
                .as_ref()
                .map_err(|e| format!("k = {k}: {order} sweep fit failed: {e}"))?;
            if let Some(diff) = diff_fits(fit, &references[i]) {
                return Err(format!("k = {k}, {order} sweep fit: {diff}"));
            }
        }
    }
    let passes = 2 * ks.len() as u64;
    if observer.counter_value(Counter::KMeansPackedFits) != passes {
        return Err("a sweep fit left the packed path".into());
    }
    if observer.counter_value(Counter::KMeansIterations) != 2 * dense_iterations {
        return Err("the sweep and the dense fits report different Lloyd iteration totals".into());
    }
    Ok(())
}

#[test]
fn sweep_fits_match_standalone_dense_fits_on_random_binary_matrices() {
    // One matrix per (width, density) of the grid above, rows cycling
    // through 2..=40 (so the narrow widths are tall), every k up to the
    // row count; then taller matrices with the k range capped, the shape
    // of an object sweep.
    let mut shapes = Vec::new();
    for (wi, &cols) in WIDTHS.iter().enumerate() {
        for (di, &density) in DENSITIES.iter().enumerate() {
            let rows = 2 + ((wi * DENSITIES.len() + di) * 13) % 39;
            shapes.push((rows, cols, density, rows));
        }
    }
    shapes.extend([(150, 9, 0.5, 12), (120, 24, 0.3, 12), (96, 65, 0.5, 10)]);
    for (case, &(rows, cols, density, k_max)) in shapes.iter().enumerate() {
        let duplicates = case % 2 == 1;
        let data = random_binary(rows, cols, density, duplicates, 0x5EED + case as u64);
        let ks: Vec<usize> = (1..=k_max).collect();
        for (i, init) in INITS.into_iter().enumerate() {
            let config = KMeansConfig {
                init,
                n_init: RESTARTS[(case + i) % 2],
                seed: 11 + case as u64,
                ..KMeansConfig::with_k(k_max)
            };
            let (references, iterations) = dense_fits(&data, config, &ks).unwrap();
            for threads in THREADS {
                let parallelism = Parallelism::Threads(threads);
                check_sweep_parity(&data, config, &ks, &references, iterations, parallelism)
                    .unwrap_or_else(|e| {
                        panic!(
                            "{rows}x{cols} density {density} duplicates {duplicates}, \
                             {init:?} x {} restarts at {parallelism:?}: {e}",
                            config.n_init
                        )
                    });
            }
        }
    }
}

#[test]
fn sweep_fits_match_standalone_dense_fits_on_exam_worlds() {
    // Algorithm 1's range k ∈ [2, |A| − 1] under the default config, on
    // the benchmark's 62-question world and a 124-question one.
    let config = TdacConfig::default();
    for (questions, seed) in [(62, 1), (124, 5)] {
        let vectors = exam_truth_vectors(questions, seed);
        assert_eq!(vectors.dense.n_rows(), questions);
        let ks: Vec<usize> = (2..questions).collect();
        for init in INITS {
            let km = KMeansConfig {
                init,
                n_init: config.n_init,
                seed: config.seed,
                ..KMeansConfig::with_k(questions - 1)
            };
            let (references, iterations) = dense_fits(&vectors.dense, km, &ks).unwrap();
            for threads in THREADS {
                let parallelism = Parallelism::Threads(threads);
                check_sweep_parity(
                    &vectors.dense,
                    km,
                    &ks,
                    &references,
                    iterations,
                    parallelism,
                )
                .unwrap_or_else(|e| panic!("Exam {questions}, {init:?} at {parallelism:?}: {e}"));
            }
        }
    }
}
