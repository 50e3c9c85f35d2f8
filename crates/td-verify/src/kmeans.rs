//! k-means parity oracle: the exact packed k-means path must return
//! the dense `f64` Lloyd loop's bits — the same assignments, centroids,
//! inertia and iteration count — on every binary input.
//!
//! [`check_kmeans_parity`] fits one matrix under
//! [`KernelPolicy::Dense`] (the reference loop) and
//! [`KernelPolicy::Packed`], compares the two results with `to_bits`
//! equality, and checks non-vacuity through the observer: the dense fit
//! must report `kmeans_packed_fits == 0`, the packed fit `> 0`.
//! [`random_binary`] and [`exam_truth_vectors`] supply the inputs the
//! `tests/kmeans.rs` grid sweeps.

use clustering::{DistanceOptions, KMeans, KMeansConfig, KMeansResult, KernelPolicy, Matrix};
use datagen::{generate_exam, ExamConfig};
use td_algorithms::TruthFinder;
use tdac_core::{truth_vector_set, Observer, Parallelism, RunProfile, TruthVectors};

/// One fit under a pinned kernel and thread count, with its profile.
fn fit_under(
    data: &Matrix,
    config: KMeansConfig,
    kernel: KernelPolicy,
    parallelism: Parallelism,
) -> Result<(KMeansResult, RunProfile), String> {
    let observer = Observer::enabled();
    let opts = DistanceOptions::builder()
        .kernel(kernel)
        .observer(observer.clone())
        .build();
    let fit = parallelism
        .install(|| KMeans::new(config).fit_observed(data, &opts))
        .map_err(|e| format!("{kernel:?} fit failed: {e}"))?;
    Ok((
        fit,
        observer
            .profile()
            .expect("enabled observer yields a profile"),
    ))
}

/// The first difference between two fits, or `None` when they are
/// bit-identical.
pub fn diff_fits(packed: &KMeansResult, dense: &KMeansResult) -> Option<String> {
    if packed.assignments != dense.assignments {
        let i = packed
            .assignments
            .iter()
            .zip(&dense.assignments)
            .position(|(a, b)| a != b)
            .unwrap_or(0);
        return Some(format!(
            "assignments differ first at row {i}: {:?} (packed) vs {:?} (dense)",
            packed.assignments.get(i),
            dense.assignments.get(i)
        ));
    }
    if packed.iterations != dense.iterations {
        return Some(format!(
            "iterations {} (packed) vs {} (dense)",
            packed.iterations, dense.iterations
        ));
    }
    if packed.inertia.to_bits() != dense.inertia.to_bits() {
        return Some(format!(
            "inertia {:e} (packed) vs {:e} (dense)",
            packed.inertia, dense.inertia
        ));
    }
    let (pc, dc) = (&packed.centroids, &dense.centroids);
    if (pc.n_rows(), pc.n_cols()) != (dc.n_rows(), dc.n_cols()) {
        return Some(format!(
            "centroid shapes {}x{} (packed) vs {}x{} (dense)",
            pc.n_rows(),
            pc.n_cols(),
            dc.n_rows(),
            dc.n_cols()
        ));
    }
    for c in 0..pc.n_rows() {
        for (j, (p, d)) in pc.row(c).iter().zip(dc.row(c)).enumerate() {
            if p.to_bits() != d.to_bits() {
                return Some(format!(
                    "centroid ({c}, {j}) = {p:e} (packed) vs {d:e} (dense)"
                ));
            }
        }
    }
    None
}

/// Fits binary `data` with `config` under `KernelPolicy::Dense` and
/// `KernelPolicy::Packed`, both at `parallelism`, and returns the first
/// difference (or a vacuity failure) as an error.
pub fn check_kmeans_parity(
    data: &Matrix,
    config: KMeansConfig,
    parallelism: Parallelism,
) -> Result<(), String> {
    let (dense, dense_profile) = fit_under(data, config, KernelPolicy::Dense, parallelism)?;
    let (packed, packed_profile) = fit_under(data, config, KernelPolicy::Packed, parallelism)?;
    if let Some(diff) = diff_fits(&packed, &dense) {
        return Err(diff);
    }
    if dense_profile.counter("kmeans_packed_fits") != Some(0) {
        return Err("KernelPolicy::Dense leaked into the packed k-means path".into());
    }
    if packed_profile.counter("kmeans_packed_fits").unwrap_or(0) == 0 {
        return Err("KernelPolicy::Packed never reached the packed k-means path".into());
    }
    if packed_profile.counter("kmeans_iterations") != dense_profile.counter("kmeans_iterations") {
        return Err("packed and dense fits report different Lloyd iteration totals".into());
    }
    Ok(())
}

/// A `rows × cols` 0/1 matrix whose entries are set with probability
/// `density`, from a SplitMix64 stream seeded by `seed`. With
/// `duplicates`, every third row repeats an earlier row, the shape that
/// produces exact distance ties between centroids.
pub fn random_binary(
    rows: usize,
    cols: usize,
    density: f64,
    duplicates: bool,
    seed: u64,
) -> Matrix {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut data: Vec<Vec<f64>> = Vec::with_capacity(rows);
    for r in 0..rows {
        let row = if duplicates && r >= 1 && r % 3 == 2 {
            data[(next() % r as u64) as usize].clone()
        } else {
            (0..cols)
                .map(|_| {
                    f64::from(u8::from(
                        ((next() >> 11) as f64) < density * (1u64 << 53) as f64,
                    ))
                })
                .collect()
        };
        data.push(row);
    }
    Matrix::from_rows(&data)
}

/// The truth vectors of the Exam simulator at 62 questions × 248
/// students (false range 100) under TruthFinder — the 62×248 matrix the
/// `exam62_sweep` benchmark workload clusters at every k.
pub fn exam62_truth_vectors(seed: u64) -> TruthVectors {
    exam_truth_vectors(62, seed)
}

/// The truth vectors of the Exam simulator at `questions` questions
/// (false range 100) under TruthFinder: one row per question.
pub fn exam_truth_vectors(questions: usize, seed: u64) -> TruthVectors {
    let mut config = ExamConfig::new(questions, 100);
    config.seed = seed;
    let (dataset, _) = generate_exam(&config);
    truth_vector_set(
        &TruthFinder::default(),
        &dataset.view_all(),
        &Observer::disabled(),
    )
    .0
}
