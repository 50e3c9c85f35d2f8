//! Kernel-parity suite: the bit-packed count forms of every metric
//! against the dense `f64` reference path — raw distance matrices,
//! end-to-end TD-AC fingerprints, and the committed DS1 golden, all
//! bit-exact.
//!
//! `scripts/verify.sh` runs this file as the kernel-parity gate.

use clustering::{Cosine, Euclidean, Hamming, Metric, SqEuclidean};
use datagen::{generate_synthetic, SyntheticConfig};
use td_algorithms::{Accu, MajorityVote, TruthDiscovery, TruthFinder};
use td_model::Dataset;
use td_verify::kernels::{
    check_ds1_kernel_parity, check_kernel_outcome_invariance, check_kernel_parity,
};
use td_verify::worlds::standard_worlds;

/// [`check_kernel_parity`] under every metric with a count form the
/// pipeline can select, plus squared Euclidean.
fn check_every_metric(base: &dyn TruthDiscovery, dataset: &Dataset) {
    let metrics: [&dyn Metric; 4] = [&Hamming, &Euclidean, &SqEuclidean, &Cosine];
    for metric in metrics {
        check_kernel_parity(base, dataset, metric);
    }
}

#[test]
fn packed_and_dense_matrices_agree_on_synthetic_presets() {
    for config in [
        SyntheticConfig::ds1().scaled(40),
        SyntheticConfig::ds2().scaled(40),
        SyntheticConfig::ds3().scaled(40),
    ] {
        let world = generate_synthetic(&config);
        check_every_metric(&MajorityVote, &world.dataset);
    }
}

#[test]
fn packed_and_dense_matrices_agree_on_micro_worlds() {
    for world in standard_worlds() {
        check_every_metric(&MajorityVote, &world.dataset);
    }
}

#[test]
fn packed_and_dense_matrices_agree_with_an_iterative_base() {
    // An iterative base produces a different reference truth (and hence
    // different truth vectors) than voting — the parity must hold for
    // whatever 0/1 matrix falls out.
    let world = generate_synthetic(&SyntheticConfig::ds1().scaled(40));
    check_every_metric(&Accu::default(), &world.dataset);
    check_every_metric(&TruthFinder::default(), &world.dataset);
}

#[test]
fn tdac_outcomes_are_kernel_invariant_at_every_thread_count() {
    let world = generate_synthetic(&SyntheticConfig::ds1().scaled(60));
    // 0 = Parallelism::Auto.
    check_kernel_outcome_invariance(&MajorityVote, &world.dataset, &[2, 8, 0]);
    check_kernel_outcome_invariance(&Accu::default(), &world.dataset, &[2, 8, 0]);
}

#[test]
fn ds1_golden_is_kernel_invariant() {
    // Dense @ T1 plus Packed @ {T1, T2, T8, Auto}, each diffed against
    // the committed golden (produced under the default Auto policy).
    check_ds1_kernel_parity().expect("kernel choice must not move the DS1 table");
}
