//! Design-choice ablations (ours, not the paper's): how much do TD-AC's
//! individual choices — k-means vs. alternatives, Hamming vs. other
//! silhouette metrics, the silhouette sweep vs. a fixed k, restart
//! count — matter on the paper's own DS1 workload?

use clustering::Linkage;
use serde::{Deserialize, Serialize};

use datagen::{generate_synthetic, SyntheticConfig};
use td_algorithms::Accu;
use td_metrics::{evaluate_fn, Stopwatch};
use tdac_core::{ClusterMethod, MetricKind, Tdac, TdacConfig};

use crate::scale::Scale;

/// One ablation row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AblationRow {
    /// Variant label.
    pub variant: String,
    /// Accuracy on DS1.
    pub accuracy: f64,
    /// Selected partition.
    pub partition: String,
    /// Whether it matches the planted partition exactly.
    pub recovered: bool,
    /// Rand index (pairwise agreement) with the planted partition.
    pub rand_index: f64,
    /// Silhouette of the selected partition.
    pub silhouette: f64,
    /// Wall-clock seconds.
    pub time_s: f64,
}

/// The ablation results.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AblationExperiment {
    /// One row per configuration variant.
    pub rows: Vec<AblationRow>,
}

/// Runs every ablation variant on DS1.
pub fn run(scale: Scale) -> AblationExperiment {
    let data = generate_synthetic(&SyntheticConfig::ds1().scaled(scale.synthetic_objects()));
    let planted = tdac_core::AttributePartition::new(data.planted.groups.clone());
    let base = Accu::default();

    let variants: Vec<(String, TdacConfig)> = vec![
        ("paper default (k-means + Hamming silhouette)".into(), TdacConfig::default()),
        (
            "clusterer: PAM".into(),
            TdacConfig {
                method: ClusterMethod::Pam,
                ..Default::default()
            },
        ),
        (
            "clusterer: hierarchical (average)".into(),
            TdacConfig {
                method: ClusterMethod::Hierarchical(Linkage::Average),
                ..Default::default()
            },
        ),
        (
            "clusterer: hierarchical (complete)".into(),
            TdacConfig {
                method: ClusterMethod::Hierarchical(Linkage::Complete),
                ..Default::default()
            },
        ),
        (
            "silhouette metric: Euclidean".into(),
            TdacConfig {
                metric: MetricKind::Euclidean,
                ..Default::default()
            },
        ),
        (
            "silhouette metric: Cosine".into(),
            TdacConfig {
                metric: MetricKind::Cosine,
                ..Default::default()
            },
        ),
        (
            "fixed k = 2 (no sweep)".into(),
            TdacConfig {
                k_min: 2,
                k_max: Some(2),
                ..Default::default()
            },
        ),
        (
            "fixed k = 4 (planted count)".into(),
            TdacConfig {
                k_min: 4,
                k_max: Some(4),
                ..Default::default()
            },
        ),
        (
            "single k-means restart".into(),
            TdacConfig {
                n_init: 1,
                ..Default::default()
            },
        ),
    ];

    // Model-selection ablation: replace the silhouette sweep by the
    // elbow method — pick k from the inertia curve, then run TD-AC with
    // that k fixed.
    let elbow_variant = {
        let matrix = tdac_core::truth_vector_set(
            &base,
            &data.dataset.view_all(),
            &tdac_core::Observer::disabled(),
        )
        .0
        .dense;
        let hi = matrix.n_rows().saturating_sub(1).max(2);
        let elbow =
            clustering::select_k_elbow(&matrix, 2..=hi, clustering::KMeansConfig::with_k(0))
                .expect("elbow sweep");
        (
            format!("k selection: elbow (k={})", elbow.best_k),
            TdacConfig {
                k_min: elbow.best_k,
                k_max: Some(elbow.best_k),
                ..Default::default()
            },
        )
    };
    let mut variants = variants;
    variants.push(elbow_variant);
    // Extension variants: masked distances and parallel per-group runs.
    variants.push((
        "missing-aware (masked PAM)".into(),
        TdacConfig {
            missing_aware: true,
            ..Default::default()
        },
    ));
    variants.push((
        "parallel per-group execution".into(),
        TdacConfig {
            backend: tdac_core::ExecutionBackend::in_process(tdac_core::Parallelism::Auto),
            ..Default::default()
        },
    ));

    let rows = variants
        .into_iter()
        .map(|(variant, cfg)| {
            let sw = Stopwatch::start();
            let out = Tdac::new(cfg).run(&base, &data.dataset).expect("TD-AC run");
            let time_s = sw.elapsed_secs();
            let report = evaluate_fn(&data.dataset, &data.truth, |o, a| {
                out.result.prediction(o, a)
            });
            AblationRow {
                variant,
                accuracy: report.accuracy,
                partition: out.partition.to_string(),
                recovered: out.partition == planted,
                rand_index: out.partition.rand_index(&planted),
                silhouette: out.silhouette,
                time_s,
            }
        })
        .collect();

    AblationExperiment { rows }
}

/// Renders the ablation table as text.
pub fn render(exp: &AblationExperiment) -> String {
    let mut out = String::from("== ablation — TD-AC design choices on DS1 ==\n");
    let w = exp.rows.iter().map(|r| r.variant.len()).max().unwrap_or(10);
    out.push_str(&format!(
        "{:<w$}  {:>8}  {:>9}  {:>5}  {:>10}  {:>8}  Partition\n",
        "Variant", "Accuracy", "Recovered", "RI", "Silhouette", "Time(s)"
    ));
    for r in &exp.rows {
        out.push_str(&format!(
            "{:<w$}  {:>8.3}  {:>9}  {:>5.2}  {:>10.3}  {:>8.3}  {}\n",
            r.variant,
            r.accuracy,
            if r.recovered { "yes" } else { "no" },
            r.rand_index,
            r.silhouette,
            r.time_s,
            r.partition
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn cached() -> &'static AblationExperiment {
        static CACHE: OnceLock<AblationExperiment> = OnceLock::new();
        CACHE.get_or_init(|| run(Scale::Small))
    }

    #[test]
    fn all_variants_run() {
        let exp = cached();
        assert_eq!(exp.rows.len(), 12);
        for r in &exp.rows {
            assert!((0.0..=1.0).contains(&r.accuracy), "{}", r.variant);
            assert!(!r.partition.is_empty());
        }
    }

    #[test]
    fn paper_default_recovers_planted_structure() {
        // Exact recovery of DS1's planted partition is not expected: its
        // singleton groups (3) and (5) can draw indistinguishable
        // reliability patterns, and the paper's own Table 5 shows TD-AC
        // merging them ([(1,2),(4,6),(3,5)]). Require high pairwise
        // agreement instead.
        let exp = cached();
        let default = &exp.rows[0];
        assert!(
            default.rand_index >= 0.8,
            "default TD-AC should be close to DS1's planted partition, got {} (RI {:.2})",
            default.partition,
            default.rand_index
        );
    }

    #[test]
    fn render_contains_every_variant() {
        let exp = cached();
        let s = render(exp);
        for r in &exp.rows {
            assert!(s.contains(&r.variant));
        }
    }
}
