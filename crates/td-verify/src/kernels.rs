//! Kernel-parity oracles: the bit-packed kernels — the popcount Hamming
//! distance matrix and the exact packed k-means — must be pure
//! performance substitutions: every distance and fit they produce, and
//! every downstream outcome built on them, is bit-for-bit what the
//! dense `f64` reference paths compute.
//!
//! Three layers of evidence, mirroring the structure of [`crate::oracle`]:
//!
//! 1. **Raw matrices and fits** — [`check_kernel_parity`] builds the
//!    truth vectors of a real dataset and compares the full pairwise
//!    matrix under a given metric with [`KernelPolicy::Dense`] vs
//!    [`KernelPolicy::Packed`] (and the masked variant) with `to_bits`
//!    equality, no epsilon, plus one k-means fit of those vectors under
//!    each policy.
//! 2. **Non-vacuity** — the packed run must actually have taken the
//!    packed paths (`packed_kernel_invocations` / `words_xored` /
//!    `kmeans_packed_fits` counters fire) and the dense run must not,
//!    so parity is never "both sides ran the same code".
//! 3. **End-to-end fingerprints** — full TD-AC outcomes under `Dense`,
//!    `Packed`, and `Auto` at pinned thread counts all collapse to one
//!    [`OutcomeFingerprint`]; [`check_ds1_kernel_parity`] does the same
//!    for the committed DS1 golden table.

use clustering::{
    pairwise_distances, BitMatrix, DistanceOptions, KMeans, KMeansConfig, KMeansResult,
    KernelPolicy, Metric,
};
use td_algorithms::TruthDiscovery;
use td_model::Dataset;
use tdac_core::{
    truth_vector_set, MaskedTruthVectors, Observer, Parallelism, Tdac, TdacConfig,
};

use crate::fingerprint::OutcomeFingerprint;
use crate::golden::{compute_ds1_with, diff_ds1, golden_path, Ds1Golden};
use crate::kmeans::diff_fits;

/// Asserts `got` and `want` are bit-identical distance matrices,
/// panicking with the first diverging entry.
fn assert_same_matrix(got: &[f64], want: &[f64], n: usize, context: &str) {
    assert_eq!(got.len(), want.len(), "{context}: matrix sizes differ");
    for (idx, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{context}: d({}, {}) = {g:e} (packed) vs {w:e} (dense)",
            idx / n,
            idx % n,
        );
    }
}

/// The packed truth vectors of `base` on `dataset`, plus two all-zero
/// rows: truth vectors of a real dataset never have one, and they reach
/// cosine's zero-vector branches.
fn truth_rows(base: &dyn TruthDiscovery, dataset: &Dataset) -> BitMatrix {
    let (vectors, _) = truth_vector_set(base, &dataset.view_all(), &Observer::disabled());
    let mut bits = vectors.packed;
    bits.append_zero_rows(2);
    bits
}

/// Distance matrix of `rows` under `metric` and a pinned kernel, the
/// sweep's k-means fit of those rows at `k = 2`, and the profile of
/// both.
fn kernels_under(
    rows: &BitMatrix,
    metric: &dyn Metric,
    kernel: KernelPolicy,
) -> (Vec<f64>, KMeansResult, tdac_core::RunProfile) {
    let observer = Observer::enabled();
    let opts = DistanceOptions::builder()
        .kernel(kernel)
        .observer(observer.clone())
        .build();
    let config = TdacConfig::default();
    let dist = opts.pairwise(rows, metric);
    let km = KMeansConfig {
        n_init: config.n_init,
        seed: config.seed,
        ..KMeansConfig::with_k(2)
    };
    let fit = KMeans::new(km)
        .fit_observed(rows, &opts)
        .expect("two or more rows admit k = 2");
    let profile = observer.profile().expect("enabled observer yields a profile");
    (dist, fit, profile)
}

/// Layer 1 + 2: raw matrix (under `metric`) and k-means parity with
/// non-vacuity, for both the plain Eq. 1 truth vectors and the masked
/// (missing-aware) variant (which clusters with PAM, so it has no
/// k-means fit).
///
/// Panics with the first diverging matrix entry or fit field, or a
/// vacuity failure.
pub fn check_kernel_parity(base: &dyn TruthDiscovery, dataset: &Dataset, metric: &dyn Metric) {
    // Plain truth vectors.
    let rows = truth_rows(base, dataset);
    let (dense, dense_fit, dense_profile) = kernels_under(&rows, metric, KernelPolicy::Dense);
    let (packed, packed_fit, packed_profile) = kernels_under(&rows, metric, KernelPolicy::Packed);
    let (auto, auto_fit, _) = kernels_under(&rows, metric, KernelPolicy::Auto);
    let n = rows.n_rows();
    let name = metric.name();
    assert_same_matrix(&packed, &dense, n, &format!("packed vs dense pairwise {name}"));
    assert_same_matrix(&auto, &dense, n, &format!("auto vs dense pairwise {name}"));
    if let Some(diff) = diff_fits(&packed_fit, &dense_fit) {
        panic!("packed vs dense k-means: {diff}");
    }
    if let Some(diff) = diff_fits(&auto_fit, &dense_fit) {
        panic!("auto vs dense k-means: {diff}");
    }

    // Non-vacuity: the two runs must have taken different code paths.
    assert_eq!(
        dense_profile.counter("packed_kernel_invocations"),
        Some(0),
        "KernelPolicy::Dense leaked into the packed kernel ({name})"
    );
    assert_eq!(
        dense_profile.counter("kmeans_packed_fits"),
        Some(0),
        "KernelPolicy::Dense leaked into the packed k-means path"
    );
    assert!(
        packed_profile.counter("kmeans_packed_fits").unwrap_or(0) > 0,
        "KernelPolicy::Packed never reached the packed k-means path — parity is vacuous"
    );
    assert!(
        packed_profile.counter("packed_kernel_invocations").unwrap_or(0) > 0,
        "KernelPolicy::Packed never reached the packed kernel ({name}) — parity is vacuous"
    );
    assert!(
        packed_profile.counter("words_xored").unwrap_or(0) > 0,
        "packed kernel reported no XORed words"
    );
    // Both paths must report identical logical work (Eq. 2 pair count).
    assert_eq!(
        packed_profile.counter("distance_evals"),
        dense_profile.counter("distance_evals"),
        "packed and dense runs disagree on the number of distance evaluations"
    );

    // The one-argument convenience entry point is the Auto path.
    let convenience = pairwise_distances(&rows, metric, &Observer::disabled());
    assert_same_matrix(&convenience, &dense, n, "pairwise_distances() vs dense");

    // Masked (missing-aware) truth vectors.
    let n = dataset.n_attributes();
    let masked_under = |kernel| {
        let observer = Observer::enabled();
        let (masked, _) = MaskedTruthVectors::build(base, &dataset.view_all(), &Observer::disabled());
        let opts = DistanceOptions::builder()
            .kernel(kernel)
            .observer(observer.clone())
            .build();
        let dist = masked.distance_matrix_with(&opts);
        (dist, observer.profile().expect("enabled observer yields a profile"))
    };
    let (m_dense, m_dense_profile) = masked_under(KernelPolicy::Dense);
    let (m_packed, m_packed_profile) = masked_under(KernelPolicy::Packed);
    assert_same_matrix(&m_packed, &m_dense, n, "packed vs dense masked Hamming");
    assert_eq!(
        m_dense_profile.counter("packed_kernel_invocations"),
        Some(0),
        "masked KernelPolicy::Dense leaked into the packed kernel"
    );
    if n >= 2 {
        assert!(
            m_packed_profile.counter("packed_kernel_invocations").unwrap_or(0) > 0,
            "masked KernelPolicy::Packed never reached the packed kernel"
        );
    }
}

/// Layer 3: full TD-AC outcomes under every kernel policy at pinned
/// thread counts (`0` meaning [`Parallelism::Auto`]) must collapse to
/// one fingerprint. Non-vacuity as in layer 2: a `Dense` run must report
/// no packed distance build and no packed k-means fit, a `Packed` run
/// at least one of each whenever it swept k. Returns the common
/// fingerprint.
pub fn check_kernel_outcome_invariance(
    base: &(dyn TruthDiscovery + Sync),
    dataset: &Dataset,
    threads: &[usize],
) -> OutcomeFingerprint {
    let run = |kernel, parallelism| {
        let observer = Observer::enabled();
        let outcome = Tdac::new(TdacConfig {
            kernel,
            backend: tdac_core::ExecutionBackend::in_process(parallelism),
            observer: observer.clone(),
            ..TdacConfig::default()
        })
        .run(base, dataset)
        .expect("non-empty dataset");
        let packed = |name| {
            observer
                .profile()
                .and_then(|p| p.counter(name))
                .unwrap_or(0)
        };
        let (builds, fits) = (
            packed("packed_kernel_invocations"),
            packed("kmeans_packed_fits"),
        );
        match kernel {
            KernelPolicy::Dense => assert_eq!(
                (builds, fits),
                (0, 0),
                "KernelPolicy::Dense at {parallelism:?} leaked into a packed kernel"
            ),
            KernelPolicy::Packed if !outcome.k_scores.is_empty() => assert!(
                builds > 0 && fits > 0,
                "KernelPolicy::Packed at {parallelism:?} missed a packed kernel \
                 ({builds} distance builds, {fits} k-means fits) — parity is vacuous"
            ),
            _ => {}
        }
        outcome
    };
    let reference =
        OutcomeFingerprint::of(&run(KernelPolicy::Dense, Parallelism::Threads(1)));
    for kernel in [KernelPolicy::Dense, KernelPolicy::Packed, KernelPolicy::Auto] {
        let mut cases = vec![Parallelism::Threads(1)];
        cases.extend(threads.iter().map(|&t| {
            if t == 0 {
                Parallelism::Auto
            } else {
                Parallelism::Threads(t)
            }
        }));
        for &parallelism in &cases {
            let got = OutcomeFingerprint::of(&run(kernel, parallelism));
            assert_eq!(
                got, reference,
                "{kernel:?} at {parallelism:?} diverges from the Dense Threads(1) reference"
            );
        }
    }
    reference
}

/// The committed DS1 golden was produced under the default
/// `KernelPolicy::Auto`; recomputing the whole table with the kernel
/// pinned `Dense` and pinned `Packed` — the latter at `Threads(1)`,
/// `Threads(2)`, `Threads(8)`, and `Auto` — must reproduce it
/// bit-exactly. Any divergence means the packed kernel changed results,
/// which is never legitimate (it is a performance knob, not a semantics
/// switch).
pub fn check_ds1_kernel_parity() -> Result<(), String> {
    let path = golden_path();
    let committed = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read golden {}: {e}", path.display()))?;
    let committed: Ds1Golden = serde_json::from_str(&committed)
        .map_err(|e| format!("golden {} is not valid JSON: {e:?}", path.display()))?;

    let with = |kernel, parallelism| {
        compute_ds1_with(&TdacConfig {
            kernel,
            backend: tdac_core::ExecutionBackend::in_process(parallelism),
            ..TdacConfig::default()
        })
    };
    let cases = [
        ("Dense @ Threads(1)", KernelPolicy::Dense, Parallelism::Threads(1)),
        ("Packed @ Threads(1)", KernelPolicy::Packed, Parallelism::Threads(1)),
        ("Packed @ Threads(2)", KernelPolicy::Packed, Parallelism::Threads(2)),
        ("Packed @ Threads(8)", KernelPolicy::Packed, Parallelism::Threads(8)),
        ("Packed @ Auto", KernelPolicy::Packed, Parallelism::Auto),
    ];
    for (label, kernel, parallelism) in cases {
        if let Some(diff) = diff_ds1(&committed, &with(kernel, parallelism)) {
            return Err(format!(
                "DS1 under {label} diverges from the committed golden: {diff}"
            ));
        }
    }
    Ok(())
}
