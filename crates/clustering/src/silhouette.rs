//! The silhouette index (Rousseeuw 1987), in both the standard global
//! form and the macro-averaged form the TD-AC paper uses (Eqs. 5–7).

use rayon::prelude::*;

use crate::bitmatrix::KernelPolicy;
use crate::distance::{Metric, PairKernel, Rows};

/// Per-sample silhouette coefficients.
///
/// For sample `i` in cluster `g`:
/// `α(i)` is its mean distance to the other members of `g` and `β(i)`
/// the smallest mean distance to any other cluster; the coefficient is
/// `(β - α) / max(α, β)` (paper Eq. 5). Samples in singleton clusters
/// get `0` (Rousseeuw's convention — nothing to cohere with), as do
/// samples where `max(α, β) = 0`.
///
/// Accepts any [`Rows`] representation. Packed rows take the metric's
/// count form ([`Metric::count_form`]), or are densified when it has
/// none; dense rows run the metric itself. Both give the same bits on
/// binary rows.
pub fn silhouette_samples<'a>(
    data: impl Into<Rows<'a>>,
    assignments: &[usize],
    metric: &dyn Metric,
) -> Vec<f64> {
    let rows = data.into();
    let n = rows.n_rows();
    assert_eq!(assignments.len(), n, "one assignment per observation");
    let k = assignments.iter().copied().max().map_or(0, |m| m + 1);
    let sizes = {
        let mut s = vec![0usize; k];
        for &c in assignments {
            s[c] += 1;
        }
        s
    };

    let pairs = match rows {
        Rows::Dense(_) => PairKernel::dense(rows, metric),
        Rows::Packed(_) => PairKernel::new(rows, metric, KernelPolicy::Auto),
    };

    // Samples are independent: each one scans all n others, so the work
    // parallelizes over i with a per-worker `mean_to` buffer. The inner j
    // loop keeps its sequential order, so every coefficient is
    // bit-identical at any thread count.
    let sizes = &sizes;
    (0..n)
        .into_par_iter()
        .map(|i| {
            let ci = assignments[i];
            if sizes[ci] <= 1 {
                return 0.0;
            }
            // Mean distance from i to every cluster, in one pass.
            let mut mean_to = vec![0.0f64; k];
            for j in 0..n {
                if i != j {
                    mean_to[assignments[j]] += pairs.distance(i, j);
                }
            }
            let alpha = mean_to[ci] / (sizes[ci] - 1) as f64;
            let mut beta = f64::INFINITY;
            for (c, &sz) in sizes.iter().enumerate() {
                if c != ci && sz > 0 {
                    beta = beta.min(mean_to[c] / sz as f64);
                }
            }
            if !beta.is_finite() {
                return 0.0; // only one non-empty cluster
            }
            let denom = alpha.max(beta);
            if denom == 0.0 { 0.0 } else { (beta - alpha) / denom }
        })
        .collect()
}

/// Standard silhouette score: the mean of all per-sample coefficients.
pub fn silhouette_score<'a>(
    data: impl Into<Rows<'a>>,
    assignments: &[usize],
    metric: &dyn Metric,
) -> f64 {
    let coeffs = silhouette_samples(data.into(), assignments, metric);
    if coeffs.is_empty() {
        return 0.0;
    }
    coeffs.iter().sum::<f64>() / coeffs.len() as f64
}

/// The paper's partition silhouette (Eqs. 6–7): first average per
/// cluster, then average the cluster coefficients — a macro average that
/// weighs small clusters as much as large ones (this is what makes TD-AC
/// prefer structurally homogeneous partitions over size-dominated ones).
pub fn silhouette_paper<'a>(
    data: impl Into<Rows<'a>>,
    assignments: &[usize],
    metric: &dyn Metric,
) -> f64 {
    let coeffs = silhouette_samples(data.into(), assignments, metric);
    macro_average(&coeffs, assignments)
}

/// Per-sample silhouette coefficients computed from a precomputed
/// row-major `n×n` distance matrix (used by the missing-data-aware TD-AC
/// variant, whose masked distance has no feature-vector form).
pub fn silhouette_samples_dist(dist: &[f64], n: usize, assignments: &[usize]) -> Vec<f64> {
    assert_eq!(dist.len(), n * n, "distance matrix must be n×n");
    assert_eq!(assignments.len(), n, "one assignment per observation");
    let k = assignments.iter().copied().max().map_or(0, |m| m + 1);
    let sizes = {
        let mut s = vec![0usize; k];
        for &c in assignments {
            s[c] += 1;
        }
        s
    };
    // Same parallel-over-samples shape as `silhouette_samples`, reading
    // the precomputed matrix instead of re-evaluating the metric.
    let sizes = &sizes;
    (0..n)
        .into_par_iter()
        .map(|i| {
            let ci = assignments[i];
            if sizes[ci] <= 1 {
                return 0.0;
            }
            let mut mean_to = vec![0.0f64; k];
            for j in 0..n {
                if i != j {
                    mean_to[assignments[j]] += dist[i * n + j];
                }
            }
            let alpha = mean_to[ci] / (sizes[ci] - 1) as f64;
            let mut beta = f64::INFINITY;
            for (c, &sz) in sizes.iter().enumerate() {
                if c != ci && sz > 0 {
                    beta = beta.min(mean_to[c] / sz as f64);
                }
            }
            if !beta.is_finite() {
                return 0.0;
            }
            let denom = alpha.max(beta);
            if denom == 0.0 { 0.0 } else { (beta - alpha) / denom }
        })
        .collect()
}

/// The paper's macro-averaged partition silhouette over a precomputed
/// distance matrix.
pub fn silhouette_paper_dist(dist: &[f64], n: usize, assignments: &[usize]) -> f64 {
    let coeffs = silhouette_samples_dist(dist, n, assignments);
    macro_average(&coeffs, assignments)
}

/// Eqs. 6–7: per-cluster means, then the mean of those.
fn macro_average(coeffs: &[f64], assignments: &[usize]) -> f64 {
    let k = assignments.iter().copied().max().map_or(0, |m| m + 1);
    if k == 0 {
        return 0.0;
    }
    let mut sums = vec![0.0f64; k];
    let mut counts = vec![0usize; k];
    for (i, &c) in assignments.iter().enumerate() {
        sums[c] += coeffs[i];
        counts[c] += 1;
    }
    let mut total = 0.0;
    let mut nonempty = 0usize;
    for c in 0..k {
        if counts[c] > 0 {
            total += sums[c] / counts[c] as f64;
            nonempty += 1;
        }
    }
    if nonempty == 0 {
        0.0
    } else {
        total / nonempty as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::{Euclidean, Hamming};
    use crate::matrix::Matrix;

    fn blobs() -> (Matrix, Vec<usize>) {
        let data = Matrix::from_rows(&[
            vec![0.0],
            vec![0.1],
            vec![0.2],
            vec![10.0],
            vec![10.1],
            vec![10.2],
        ]);
        (data, vec![0, 0, 0, 1, 1, 1])
    }

    #[test]
    fn well_separated_clusters_score_high() {
        let (data, asg) = blobs();
        let s = silhouette_score(&data, &asg, &Euclidean);
        assert!(s > 0.95, "score {s}");
        let p = silhouette_paper(&data, &asg, &Euclidean);
        assert!(p > 0.95, "paper score {p}");
    }

    #[test]
    fn shuffled_labels_score_low() {
        let (data, _) = blobs();
        let bad = vec![0, 1, 0, 1, 0, 1];
        let s = silhouette_score(&data, &bad, &Euclidean);
        assert!(s < 0.0, "mixing blobs must be penalized: {s}");
    }

    #[test]
    fn coefficients_are_bounded() {
        let (data, asg) = blobs();
        for c in silhouette_samples(&data, &asg, &Euclidean) {
            assert!((-1.0..=1.0).contains(&c), "coefficient {c}");
        }
    }

    #[test]
    fn singleton_cluster_coefficient_is_zero() {
        let data = Matrix::from_rows(&[vec![0.0], vec![0.1], vec![99.0]]);
        let asg = vec![0, 0, 1];
        let coeffs = silhouette_samples(&data, &asg, &Euclidean);
        assert_eq!(coeffs[2], 0.0);
        assert!(coeffs[0] > 0.9);
    }

    #[test]
    fn single_cluster_scores_zero() {
        let data = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0]]);
        let asg = vec![0, 0, 0];
        assert_eq!(silhouette_score(&data, &asg, &Euclidean), 0.0);
        assert_eq!(silhouette_paper(&data, &asg, &Euclidean), 0.0);
    }

    #[test]
    fn macro_average_differs_from_micro_on_skewed_sizes() {
        // One tight big cluster, one loose small one: macro weighs them
        // equally, micro weighs by membership.
        let data = Matrix::from_rows(&[
            vec![0.0],
            vec![0.01],
            vec![0.02],
            vec![0.03],
            vec![5.0],
            vec![9.0],
        ]);
        let asg = vec![0, 0, 0, 0, 1, 1];
        let micro = silhouette_score(&data, &asg, &Euclidean);
        let macro_ = silhouette_paper(&data, &asg, &Euclidean);
        assert!((micro - macro_).abs() > 1e-3, "micro {micro} vs macro {macro_}");
    }

    #[test]
    fn hamming_on_binary_vectors() {
        let data = Matrix::from_rows(&[
            vec![1.0, 1.0, 0.0],
            vec![1.0, 1.0, 0.0],
            vec![0.0, 0.0, 1.0],
            vec![0.0, 0.0, 1.0],
        ]);
        let asg = vec![0, 0, 1, 1];
        let s = silhouette_score(&data, &asg, &Hamming);
        assert!((s - 1.0).abs() < 1e-12, "perfect binary split: {s}");
    }

    #[test]
    fn hand_computed_two_point_clusters() {
        // Points 0,1 in cluster 0 at distance 1; point 2 alone far away —
        // wait, singleton gets 0. Use 2+2.
        let data = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![10.0], vec![11.0]]);
        let asg = vec![0, 0, 1, 1];
        let c = silhouette_samples(&data, &asg, &Euclidean);
        // For point 0: α = 1, β = (10 + 11)/2 = 10.5 → (10.5-1)/10.5.
        assert!((c[0] - (10.5 - 1.0) / 10.5).abs() < 1e-12);
        // For point 1: α = 1, β = (9 + 10)/2 = 9.5 → 8.5/9.5.
        assert!((c[1] - 8.5 / 9.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "one assignment per observation")]
    fn mismatched_assignment_length_panics() {
        let data = Matrix::from_rows(&[vec![0.0]]);
        silhouette_samples(&data, &[0, 1], &Euclidean);
    }

    #[test]
    fn distance_matrix_variant_matches_feature_variant() {
        let (data, asg) = blobs();
        let n = data.n_rows();
        let mut dist = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                dist[i * n + j] = Euclidean.distance(data.row(i), data.row(j));
            }
        }
        let from_features = silhouette_samples(&data, &asg, &Euclidean);
        let from_dist = silhouette_samples_dist(&dist, n, &asg);
        for (a, b) in from_features.iter().zip(&from_dist) {
            assert!((a - b).abs() < 1e-12);
        }
        let p1 = silhouette_paper(&data, &asg, &Euclidean);
        let p2 = silhouette_paper_dist(&dist, n, &asg);
        assert!((p1 - p2).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "n×n")]
    fn dist_variant_checks_matrix_size() {
        silhouette_samples_dist(&[0.0; 3], 2, &[0, 1]);
    }

    #[test]
    fn packed_rows_give_bit_identical_coefficients() {
        let data = Matrix::from_rows(&[
            vec![1.0, 1.0, 0.0, 0.0],
            vec![1.0, 0.0, 0.0, 0.0],
            vec![0.0, 0.0, 1.0, 1.0],
            vec![0.0, 1.0, 1.0, 1.0],
        ]);
        let bits = crate::BitMatrix::pack(&data).unwrap();
        let asg = vec![0, 0, 1, 1];
        let dense = silhouette_samples(&data, &asg, &Hamming);
        let packed = silhouette_samples(&bits, &asg, &Hamming);
        for (a, b) in dense.iter().zip(&packed) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // Euclidean's count form is its `sqrt`, and gives the same bits too.
        let dense_e = silhouette_samples(&data, &asg, &Euclidean);
        let packed_e = silhouette_samples(&bits, &asg, &Euclidean);
        for (a, b) in dense_e.iter().zip(&packed_e) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
