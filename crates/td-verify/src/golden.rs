//! Paper-conformance goldens: committed snapshots of the DS1 preset
//! tables (precision / recall / F1 / accuracy per algorithm, plain,
//! under TD-AC with each distance metric and under missing-aware TD-AC,
//! plus dataset DCR and the selected partitions).
//!
//! The snapshot pins every number bit-exactly — `serde_json` prints
//! shortest round-trip floats, so parse-compare is lossless. Any change
//! to an algorithm, the generator, the clustering stack, or the merge
//! path that moves a result silently now fails tier-1 with a field-level
//! diff instead of slipping through.
//!
//! Regeneration ("blessing") is deliberate and two-step: run
//! `cargo run -p td-verify -- --bless` (or any golden-checking test with
//! `TDAC_BLESS=1`), then review the diff of `goldens/ds1.json` like any
//! other code change.

use std::fs;
use std::path::PathBuf;

use serde::{Deserialize, Serialize};
use td_algorithms::{standard_algorithms, TruthDiscovery};
use td_metrics::{evaluate_fn, EvalReport};
use td_model::stats::data_coverage_rate;
use datagen::{generate_synthetic, SyntheticConfig};
use tdac_core::{MetricKind, Tdac, TdacConfig};

/// Objects in the scaled DS1 world the golden pins. Full DS1 has 1000;
/// 120 keeps the five algorithms × (plain + TD-AC) under a few seconds
/// while preserving the structural story (6 attributes, 10 sources,
/// planted partition `[[0,1],[3,5],[2],[4]]`).
pub const DS1_GOLDEN_OBJECTS: usize = 120;

/// The environment variable that switches golden checks into
/// regeneration mode.
pub const BLESS_ENV: &str = "TDAC_BLESS";

/// The metrics a table row pins (a bit-exact subset of [`EvalReport`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GoldenReport {
    /// Instance-level precision.
    pub precision: f64,
    /// Instance-level recall.
    pub recall: f64,
    /// F1-measure.
    pub f1: f64,
    /// Instance-level accuracy.
    pub accuracy: f64,
    /// Cell-level accuracy.
    pub cell_accuracy: f64,
}

impl From<&EvalReport> for GoldenReport {
    fn from(r: &EvalReport) -> Self {
        Self {
            precision: r.precision,
            recall: r.recall,
            f1: r.f1,
            accuracy: r.accuracy,
            cell_accuracy: r.cell_accuracy,
        }
    }
}

/// One algorithm's row: the plain (un-partitioned) run, the TD-AC run
/// under each distance metric and the missing-aware TD-AC run, with each
/// TD-AC run's model selection pinned alongside.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AlgorithmGolden {
    /// Paper-style algorithm name.
    pub algorithm: String,
    /// Metrics of the global, un-partitioned run.
    pub plain: GoldenReport,
    /// Metrics of the TD-AC run with this base algorithm.
    pub tdac: GoldenReport,
    /// The partition TD-AC selected (canonical rendering).
    pub tdac_partition: String,
    /// Its silhouette score.
    pub tdac_silhouette: f64,
    /// Whether TD-AC fell back to the un-partitioned run.
    pub tdac_fallback: bool,
    /// Metrics of the missing-aware TD-AC run (masked Hamming + PAM).
    pub masked: GoldenReport,
    /// The partition the missing-aware run selected.
    pub masked_partition: String,
    /// Its silhouette score.
    pub masked_silhouette: f64,
    /// Whether the missing-aware run fell back.
    pub masked_fallback: bool,
    /// Metrics of the TD-AC run under the Euclidean metric.
    pub euclidean: GoldenReport,
    /// The partition the Euclidean run selected.
    pub euclidean_partition: String,
    /// Its silhouette score.
    pub euclidean_silhouette: f64,
    /// Whether the Euclidean run fell back.
    pub euclidean_fallback: bool,
    /// Metrics of the TD-AC run under the cosine metric.
    pub cosine: GoldenReport,
    /// The partition the cosine run selected.
    pub cosine_partition: String,
    /// Its silhouette score.
    pub cosine_silhouette: f64,
    /// Whether the cosine run fell back.
    pub cosine_fallback: bool,
}

/// The full DS1 snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Ds1Golden {
    /// Objects in the scaled world ([`DS1_GOLDEN_OBJECTS`]).
    pub n_objects: usize,
    /// Data coverage rate of the generated dataset (paper Table 3).
    pub dcr: f64,
    /// The generator's planted partition (canonical rendering).
    pub planted: String,
    /// One row per standard algorithm, in the paper's order.
    pub algorithms: Vec<AlgorithmGolden>,
}

/// Where the committed snapshot lives (inside this crate, so the path
/// is stable no matter which package's tests run the check).
pub fn golden_path() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/goldens/ds1.json"))
}

/// Recomputes the DS1 table from scratch with the default TD-AC config.
pub fn compute_ds1() -> Ds1Golden {
    compute_ds1_with(&TdacConfig::default())
}

/// Recomputes the DS1 table with a caller-supplied TD-AC config (each
/// row also runs it with `missing_aware` switched on, and with the
/// Euclidean and cosine metrics in place of its own). The committed
/// golden uses [`TdacConfig::default`]; the observer-neutrality harness
/// passes an observer-enabled config and asserts the table is
/// bit-identical either way.
pub fn compute_ds1_with(tdac_config: &TdacConfig) -> Ds1Golden {
    let config = SyntheticConfig::ds1().scaled(DS1_GOLDEN_OBJECTS);
    let world = generate_synthetic(&config);
    let planted = tdac_core::AttributePartition::new(world.planted.groups.clone());

    let masked_config = TdacConfig {
        missing_aware: true,
        ..tdac_config.clone()
    };
    let metric_config = |metric| TdacConfig {
        metric,
        ..tdac_config.clone()
    };
    let (euclidean_config, cosine_config) = (
        metric_config(MetricKind::Euclidean),
        metric_config(MetricKind::Cosine),
    );
    let algorithms = standard_algorithms()
        .iter()
        .map(|base| {
            let plain = base.discover(&world.dataset.view_all());
            let plain_report =
                evaluate_fn(&world.dataset, &world.truth, |o, a| plain.prediction(o, a));
            let run = |config: &TdacConfig| {
                let outcome = Tdac::new(config.clone())
                    .run(base.as_ref(), &world.dataset)
                    .expect("DS1 is non-empty");
                let report = evaluate_fn(&world.dataset, &world.truth, |o, a| {
                    outcome.result.prediction(o, a)
                });
                (GoldenReport::from(&report), outcome)
            };
            let (tdac_report, outcome) = run(tdac_config);
            let (masked_report, masked) = run(&masked_config);
            let (euclidean_report, euclidean) = run(&euclidean_config);
            let (cosine_report, cosine) = run(&cosine_config);
            AlgorithmGolden {
                algorithm: base.name().to_string(),
                plain: GoldenReport::from(&plain_report),
                tdac: tdac_report,
                tdac_partition: outcome.partition.to_string(),
                tdac_silhouette: outcome.silhouette,
                tdac_fallback: outcome.fallback,
                masked: masked_report,
                masked_partition: masked.partition.to_string(),
                masked_silhouette: masked.silhouette,
                masked_fallback: masked.fallback,
                euclidean: euclidean_report,
                euclidean_partition: euclidean.partition.to_string(),
                euclidean_silhouette: euclidean.silhouette,
                euclidean_fallback: euclidean.fallback,
                cosine: cosine_report,
                cosine_partition: cosine.partition.to_string(),
                cosine_silhouette: cosine.silhouette,
                cosine_fallback: cosine.fallback,
            }
        })
        .collect();

    Ds1Golden {
        n_objects: DS1_GOLDEN_OBJECTS,
        dcr: data_coverage_rate(&world.dataset),
        planted: planted.to_string(),
        algorithms,
    }
}

/// Writes the freshly computed snapshot to [`golden_path`], returning
/// the path.
pub fn bless_ds1() -> std::io::Result<PathBuf> {
    let path = golden_path();
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    let json =
        serde_json::to_string_pretty(&compute_ds1()).expect("golden serializes infallibly");
    fs::write(&path, json + "\n")?;
    Ok(path)
}

/// Checks the committed snapshot against a fresh computation. With
/// `TDAC_BLESS=1` in the environment the snapshot is rewritten instead
/// and the check passes.
///
/// Returns a field-level description of the first divergence on
/// failure.
pub fn check_ds1() -> Result<(), String> {
    if std::env::var(BLESS_ENV).is_ok_and(|v| v == "1") {
        let path = bless_ds1().map_err(|e| format!("blessing failed: {e}"))?;
        eprintln!("blessed {}", path.display());
        return Ok(());
    }
    let path = golden_path();
    let committed = fs::read_to_string(&path).map_err(|e| {
        format!(
            "cannot read golden {}: {e}\nrun `cargo run -p td-verify -- --bless` to create it",
            path.display()
        )
    })?;
    let committed: Ds1Golden = serde_json::from_str(&committed)
        .map_err(|e| format!("golden {} is not valid JSON: {e:?}", path.display()))?;
    let fresh = compute_ds1();
    match diff_ds1(&committed, &fresh) {
        None => Ok(()),
        Some(diff) => Err(format!(
            "DS1 results diverged from the committed golden:\n  {diff}\n\
             If the change is intentional, regenerate with \
             `cargo run -p td-verify -- --bless` (or TDAC_BLESS=1) and commit the diff.",
        )),
    }
}

/// First field-level difference between two snapshots, or `None`.
pub fn diff_ds1(committed: &Ds1Golden, fresh: &Ds1Golden) -> Option<String> {
    if committed == fresh {
        return None;
    }
    if committed.n_objects != fresh.n_objects {
        return Some(format!(
            "n_objects: {} vs {}",
            committed.n_objects, fresh.n_objects
        ));
    }
    if committed.dcr.to_bits() != fresh.dcr.to_bits() {
        return Some(format!("dcr: {:e} vs {:e}", committed.dcr, fresh.dcr));
    }
    if committed.planted != fresh.planted {
        return Some(format!(
            "planted partition: {} vs {}",
            committed.planted, fresh.planted
        ));
    }
    if committed.algorithms.len() != fresh.algorithms.len() {
        return Some(format!(
            "algorithm counts: {} vs {}",
            committed.algorithms.len(),
            fresh.algorithms.len()
        ));
    }
    for (c, f) in committed.algorithms.iter().zip(&fresh.algorithms) {
        if c != f {
            let field = |name: &str, a: f64, b: f64| format!("{}.{name}: {a:e} vs {b:e}", c.algorithm);
            if c.algorithm != f.algorithm {
                return Some(format!("algorithm order: {} vs {}", c.algorithm, f.algorithm));
            }
            for (name, a, b) in [
                ("plain.precision", c.plain.precision, f.plain.precision),
                ("plain.recall", c.plain.recall, f.plain.recall),
                ("plain.f1", c.plain.f1, f.plain.f1),
                ("plain.accuracy", c.plain.accuracy, f.plain.accuracy),
                ("plain.cell_accuracy", c.plain.cell_accuracy, f.plain.cell_accuracy),
                ("tdac.precision", c.tdac.precision, f.tdac.precision),
                ("tdac.recall", c.tdac.recall, f.tdac.recall),
                ("tdac.f1", c.tdac.f1, f.tdac.f1),
                ("tdac.accuracy", c.tdac.accuracy, f.tdac.accuracy),
                ("tdac.cell_accuracy", c.tdac.cell_accuracy, f.tdac.cell_accuracy),
                ("tdac_silhouette", c.tdac_silhouette, f.tdac_silhouette),
                ("masked.precision", c.masked.precision, f.masked.precision),
                ("masked.recall", c.masked.recall, f.masked.recall),
                ("masked.f1", c.masked.f1, f.masked.f1),
                ("masked.accuracy", c.masked.accuracy, f.masked.accuracy),
                ("masked.cell_accuracy", c.masked.cell_accuracy, f.masked.cell_accuracy),
                ("masked_silhouette", c.masked_silhouette, f.masked_silhouette),
                ("euclidean.precision", c.euclidean.precision, f.euclidean.precision),
                ("euclidean.recall", c.euclidean.recall, f.euclidean.recall),
                ("euclidean.f1", c.euclidean.f1, f.euclidean.f1),
                ("euclidean.accuracy", c.euclidean.accuracy, f.euclidean.accuracy),
                ("euclidean.cell_accuracy", c.euclidean.cell_accuracy, f.euclidean.cell_accuracy),
                ("euclidean_silhouette", c.euclidean_silhouette, f.euclidean_silhouette),
                ("cosine.precision", c.cosine.precision, f.cosine.precision),
                ("cosine.recall", c.cosine.recall, f.cosine.recall),
                ("cosine.f1", c.cosine.f1, f.cosine.f1),
                ("cosine.accuracy", c.cosine.accuracy, f.cosine.accuracy),
                ("cosine.cell_accuracy", c.cosine.cell_accuracy, f.cosine.cell_accuracy),
                ("cosine_silhouette", c.cosine_silhouette, f.cosine_silhouette),
            ] {
                if a.to_bits() != b.to_bits() {
                    return Some(field(name, a, b));
                }
            }
            for (name, a, b) in [
                ("tdac_partition", &c.tdac_partition, &f.tdac_partition),
                ("masked_partition", &c.masked_partition, &f.masked_partition),
                ("euclidean_partition", &c.euclidean_partition, &f.euclidean_partition),
                ("cosine_partition", &c.cosine_partition, &f.cosine_partition),
            ] {
                if a != b {
                    return Some(format!("{}.{name}: {a} vs {b}", c.algorithm));
                }
            }
            for (name, a, b) in [
                ("tdac_fallback", c.tdac_fallback, f.tdac_fallback),
                ("masked_fallback", c.masked_fallback, f.masked_fallback),
                ("euclidean_fallback", c.euclidean_fallback, f.euclidean_fallback),
                ("cosine_fallback", c.cosine_fallback, f.cosine_fallback),
            ] {
                if a != b {
                    return Some(format!("{}.{name}: {a} vs {b}", c.algorithm));
                }
            }
        }
    }
    Some("snapshots differ (unlocated field)".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compute_is_deterministic() {
        // The golden is only meaningful if recomputation is exact.
        let a = compute_ds1();
        let b = compute_ds1();
        assert_eq!(a, b);
        assert!(diff_ds1(&a, &b).is_none());
    }

    #[test]
    fn snapshot_round_trips_through_json_losslessly() {
        let golden = compute_ds1();
        let json = serde_json::to_string_pretty(&golden).unwrap();
        let back: Ds1Golden = serde_json::from_str(&json).unwrap();
        assert_eq!(golden, back, "shortest-float printing must round-trip");
        assert!(diff_ds1(&golden, &back).is_none());
    }

    #[test]
    fn diff_locates_a_perturbed_field() {
        let golden = compute_ds1();
        let mut tweaked = golden.clone();
        tweaked.algorithms[2].tdac.f1 += 1e-9;
        let diff = diff_ds1(&golden, &tweaked).expect("must detect the tweak");
        assert!(diff.contains("DEPEN.tdac.f1"), "{diff}");
        let mut flipped = golden.clone();
        flipped.algorithms[0].tdac_fallback = !flipped.algorithms[0].tdac_fallback;
        let diff = diff_ds1(&golden, &flipped).expect("must detect the flip");
        assert!(diff.contains("tdac_fallback"), "{diff}");
        let mut moved = golden.clone();
        moved.algorithms[1].masked_silhouette += 1e-9;
        let diff = diff_ds1(&golden, &moved).expect("must detect the masked move");
        assert!(diff.contains("TruthFinder.masked_silhouette"), "{diff}");
        let mut moved = golden.clone();
        moved.algorithms[3].cosine_silhouette += 1e-9;
        let diff = diff_ds1(&golden, &moved).expect("must detect the cosine move");
        assert!(diff.contains("Accu.cosine_silhouette"), "{diff}");
    }

    #[test]
    fn golden_rows_cover_the_standard_five() {
        let golden = compute_ds1();
        let names: Vec<&str> = golden.algorithms.iter().map(|a| a.algorithm.as_str()).collect();
        assert_eq!(
            names,
            vec!["MajorityVote", "TruthFinder", "DEPEN", "Accu", "AccuSim"]
        );
        assert!(golden.dcr > 0.0 && golden.dcr <= 100.0);
    }
}
