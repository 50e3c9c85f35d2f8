//! Elbow-method selection of the number of clusters — the ablation
//! baseline for TD-AC's silhouette-guided sweep. The sweep itself
//! (Algorithm 1, lines 6–18) lives in `tdac-core`, next to the
//! pipeline that runs it.

use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use crate::distance::DistanceOptions;
use crate::error::ClusterError;
use crate::kmeans::{KMeansConfig, KMeansResult, KMeansSweep};
use crate::matrix::Matrix;

/// The outcome of an elbow sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ElbowSelection {
    /// The k at the inertia curve's elbow.
    pub best_k: usize,
    /// The winning clustering.
    pub best_result: KMeansResult,
    /// Every `(k, inertia)` evaluated, in sweep order.
    pub inertias: Vec<(usize, f64)>,
}

/// Alternative model selection for the ablation study: the **elbow
/// method**. Fits k-means for every `k` in the range and picks the point
/// of maximum curvature of the inertia curve (the "kneedle" distance to
/// the chord between the endpoints). Unlike the silhouette it never
/// inspects cluster shape, only the optimization objective — cheaper but
/// blinder, which is exactly what the ablation quantifies.
pub fn select_k_elbow(
    data: &Matrix,
    k_range: std::ops::RangeInclusive<usize>,
    base: KMeansConfig,
) -> Result<ElbowSelection, ClusterError> {
    if data.n_rows() == 0 {
        return Err(ClusterError::EmptyInput);
    }
    let lo = *k_range.start();
    let hi = (*k_range.end()).min(data.n_rows());
    if lo > hi || lo == 0 {
        return Err(ClusterError::EmptyKRange);
    }

    // Per-k fits of one sweep are independent; run them in parallel and
    // re-collect in k order (first error in k order wins, as in the
    // sequential loop).
    let ks: Vec<usize> = (lo..=hi).collect();
    let opts = DistanceOptions::default();
    let sweep = KMeansSweep::new(KMeansConfig { k: hi, ..base }, data, &opts);
    let results: Vec<Result<KMeansResult, ClusterError>> =
        ks.par_iter().map(|&k| sweep.fit(k)).collect();
    let mut fits = Vec::with_capacity(ks.len());
    for (&k, result) in ks.iter().zip(results) {
        fits.push((k, result?));
    }
    let inertias: Vec<(usize, f64)> = fits.iter().map(|(k, r)| (*k, r.inertia)).collect();

    // Kneedle: distance of each point to the chord from first to last,
    // in (k, inertia) space normalized to the unit square.
    let best_idx = if inertias.len() <= 2 {
        0
    } else {
        let (k0, i0) = inertias[0];
        let (k1, i1) = *inertias.last().expect("non-empty");
        let k_span = (k1 - k0) as f64;
        let i_span = (i0 - i1).abs().max(1e-12);
        let mut best = 0usize;
        let mut best_d = f64::NEG_INFINITY;
        for (idx, &(k, inertia)) in inertias.iter().enumerate() {
            let x = (k - k0) as f64 / k_span;
            let y = (i0 - inertia) / i_span; // 0 at start, ~1 at end
            let d = y - x; // distance above the chord y = x
            if d > best_d {
                best_d = d;
                best = idx;
            }
        }
        best
    };

    let (best_k, best_result) = fits.swap_remove(best_idx);
    Ok(ElbowSelection {
        best_k,
        best_result,
        inertias,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kmeans::KMeans;

    fn three_blobs() -> Matrix {
        let mut rows = Vec::new();
        for center in [0.0, 50.0, 100.0] {
            for off in [0.0, 0.4, 0.8, 1.2] {
                rows.push(vec![center + off, center - off]);
            }
        }
        Matrix::from_rows(&rows)
    }

    #[test]
    fn zero_iteration_cap_is_rejected() {
        let cfg = KMeansConfig {
            max_iterations: 0,
            ..KMeansConfig::with_k(2)
        };
        assert!(matches!(
            KMeans::new(cfg).fit(&three_blobs()),
            Err(ClusterError::ZeroIterationCap)
        ));
    }

    #[test]
    fn elbow_finds_three_blobs() {
        let sel = select_k_elbow(&three_blobs(), 1..=8, KMeansConfig::with_k(0)).unwrap();
        assert_eq!(sel.best_k, 3, "inertias: {:?}", sel.inertias);
        assert_eq!(sel.inertias.len(), 8);
        // Inertia is non-increasing in k.
        for w in sel.inertias.windows(2) {
            assert!(w[1].1 <= w[0].1 + 1e-9);
        }
    }

    #[test]
    fn elbow_errors_on_degenerate_ranges() {
        let empty = Matrix::from_rows(&[]);
        assert!(matches!(
            select_k_elbow(&empty, 1..=3, KMeansConfig::with_k(0)),
            Err(ClusterError::EmptyInput)
        ));
        let data = Matrix::from_rows(&[vec![0.0], vec![1.0]]);
        #[allow(clippy::reversed_empty_ranges)]
        let inverted = 3..=2;
        assert!(matches!(
            select_k_elbow(&data, inverted, KMeansConfig::with_k(0)),
            Err(ClusterError::EmptyKRange)
        ));
    }

    #[test]
    fn elbow_with_tiny_range_picks_first() {
        let data = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![9.0]]);
        let sel = select_k_elbow(&data, 2..=3, KMeansConfig::with_k(0)).unwrap();
        assert_eq!(sel.best_k, 2);
    }
}
