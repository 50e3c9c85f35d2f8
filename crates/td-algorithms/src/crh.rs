//! CRH — Conflict Resolution on Heterogeneous data (Li et al., SIGMOD
//! 2014), an optimization-based truth-discovery framework.
//!
//! CRH minimizes `Σ_s w_s · Σ_{claims of s} loss(claim, truth)` by
//! alternating:
//!
//! 1. **truth update** — per cell, the value minimizing the weighted
//!    loss: the weighted *mode* for categorical data, the weighted
//!    *median* for numeric data (ℓ1 loss, robust to outliers);
//! 2. **weight update** — `w_s = -ln(Σ loss_s / Σ_total loss)`, giving
//!    low-error sources exponentially more say.
//!
//! Numeric losses are normalized per cell by the claim spread so
//! attributes on different scales contribute comparably — the
//! "heterogeneous data" part of the name, and the reason CRH is the
//! right extension algorithm for the Stocks workload's mixed
//! price/volume/ratio columns.

use td_model::{DatasetView, Value};

use crate::common::{max_abs_diff, Workspace};
use crate::result::TruthResult;
use crate::traits::TruthDiscovery;

/// Hyper-parameters of [`Crh`].
#[derive(Debug, Clone, Copy)]
pub struct CrhConfig {
    /// Convergence threshold on the max weight change.
    pub tolerance: f64,
    /// Hard iteration cap (the original paper converges in < 10).
    pub max_iterations: u32,
}

impl Default for CrhConfig {
    fn default() -> Self {
        Self {
            tolerance: 1e-6,
            max_iterations: 20,
        }
    }
}

/// The CRH algorithm. See module docs.
#[derive(Debug, Clone, Copy, Default)]
pub struct Crh {
    /// Hyper-parameters.
    pub config: CrhConfig,
}

impl Crh {
    /// CRH with custom hyper-parameters.
    pub fn new(config: CrhConfig) -> Self {
        Self { config }
    }
}

impl TruthDiscovery for Crh {
    fn name(&self) -> &'static str {
        "CRH"
    }

    fn discover(&self, view: &DatasetView<'_>) -> TruthResult {
        let ws = Workspace::build(view, None);
        let n = ws.n_sources;
        let mut result = TruthResult::for_view(view, 1.0);

        // Numeric payload per candidate (None ⇒ treat categorically) and
        // per-cell loss normalizer.
        // `numeric` is parallel to the workspace's candidates.
        let numeric: Vec<Option<f64>> = ws
            .values
            .iter()
            .map(|&v| match view.value(v) {
                Value::Int(x) => Some(*x as f64),
                Value::Float(x) => Some(*x),
                _ => None,
            })
            .collect();
        let spread: Vec<f64> = ws
            .cells()
            .map(|cell| {
                let nums = &numeric[cell.cand_base..cell.cand_base + cell.k()];
                let vals: Vec<f64> = nums.iter().filter_map(|&x| x).collect();
                if vals.len() < 2 {
                    return 1.0;
                }
                let lo = vals.iter().copied().fold(f64::INFINITY, f64::min);
                let hi = vals.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                (hi - lo).max(1e-9)
            })
            .collect();

        let mut weights = vec![1.0f64; n];
        let mut pred: Vec<usize> = vec![0; ws.n_cells()];
        let mut iterations = 0u32;

        loop {
            iterations += 1;

            // ---- truth update ---------------------------------------
            for (ci, cell) in ws.cells().enumerate() {
                let k = cell.k();
                let nums = &numeric[cell.cand_base..cell.cand_base + k];
                let all_numeric = nums.iter().all(Option::is_some) && k > 1;
                if all_numeric {
                    // Weighted median over claims (each claim carries its
                    // source's weight); evaluated at candidate values.
                    let mut pts: Vec<(f64, f64)> = cell
                        .claim_sources
                        .iter()
                        .zip(cell.claim_cand)
                        .map(|(s, &c)| {
                            (
                                nums[c as usize].expect("all numeric"),
                                weights[s.index()].max(1e-12),
                            )
                        })
                        .collect();
                    pts.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("no NaN claims"));
                    let total: f64 = pts.iter().map(|p| p.1).sum();
                    let mut acc = 0.0;
                    let mut median = pts[0].0;
                    for &(x, w) in &pts {
                        acc += w;
                        if acc >= total / 2.0 {
                            median = x;
                            break;
                        }
                    }
                    // Snap to the closest candidate (one-truth setting:
                    // the answer must be a claimed value).
                    pred[ci] = (0..k)
                        .min_by(|&a, &b| {
                            let da = (nums[a].expect("numeric") - median).abs();
                            let db = (nums[b].expect("numeric") - median).abs();
                            da.partial_cmp(&db)
                                .expect("finite")
                                .then(cell.values[a].cmp(&cell.values[b]))
                        })
                        .expect("k > 0");
                } else {
                    // Weighted vote.
                    let mut scores = vec![0.0f64; k];
                    for (s, &c) in cell.claim_sources.iter().zip(cell.claim_cand) {
                        scores[c as usize] += weights[s.index()];
                    }
                    pred[ci] = (0..k)
                        .max_by(|&a, &b| {
                            scores[a]
                                .partial_cmp(&scores[b])
                                .expect("finite")
                                .then(cell.values[b].cmp(&cell.values[a]))
                        })
                        .expect("k > 0");
                }
            }

            // ---- weight update --------------------------------------
            let mut loss = vec![0.0f64; n];
            for (ci, cell) in ws.cells().enumerate() {
                let t = pred[ci];
                for (s, &c) in cell.claim_sources.iter().zip(cell.claim_cand) {
                    let c = c as usize;
                    let l = match (numeric[cell.cand_base + c], numeric[cell.cand_base + t]) {
                        (Some(x), Some(truth)) => ((x - truth).abs() / spread[ci]).min(1.0),
                        _ => f64::from(c != t),
                    };
                    loss[s.index()] += l;
                }
            }
            let total_loss: f64 = loss.iter().sum::<f64>().max(1e-12);
            let mut new_weights = vec![0.0f64; n];
            for s in 0..n {
                if ws.claims_per_source[s] == 0 {
                    new_weights[s] = weights[s];
                    continue;
                }
                let share = (loss[s] / total_loss).clamp(1e-9, 1.0 - 1e-9);
                new_weights[s] = -share.ln();
            }
            // Normalize to unit max for comparability.
            let wmax = new_weights.iter().copied().fold(0.0f64, f64::max);
            if wmax > 0.0 {
                for w in new_weights.iter_mut() {
                    *w /= wmax;
                }
            }

            let delta = max_abs_diff(&weights, &new_weights);
            weights = new_weights;
            if delta < self.config.tolerance || iterations >= self.config.max_iterations {
                break;
            }
        }

        for (ci, cell) in ws.cells().enumerate() {
            let t = pred[ci];
            // Confidence: weighted support share of the chosen value.
            let mut chosen = 0.0;
            let mut total = 0.0;
            for (s, &c) in cell.claim_sources.iter().zip(cell.claim_cand) {
                let w = weights[s.index()];
                total += w;
                if c as usize == t {
                    chosen += w;
                }
            }
            let conf = if total > 0.0 { chosen / total } else { 0.0 };
            result.set_prediction(cell.object, cell.attribute, cell.values[t], conf);
        }
        result.source_trust = weights;
        result.iterations = iterations;
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use td_model::{Dataset, DatasetBuilder};

    fn numeric_world() -> Dataset {
        // Truth 100-ish; good sources report exact, sloppy source is off
        // by a lot; outliers must not drag the weighted median.
        let mut b = DatasetBuilder::new();
        for (o, truth) in [("o0", 100), ("o1", 250), ("o2", 40)] {
            for a in ["price", "volume"] {
                b.claim("exact1", o, a, Value::int(truth)).unwrap();
                b.claim("exact2", o, a, Value::int(truth)).unwrap();
                b.claim("close", o, a, Value::int(truth + 1)).unwrap();
                b.claim("outlier", o, a, Value::int(truth * 10)).unwrap();
            }
        }
        b.build()
    }

    #[test]
    fn weighted_median_resists_outliers() {
        let d = numeric_world();
        let r = Crh::default().discover(&d.view_all());
        for (o, truth) in [("o0", 100i64), ("o1", 250), ("o2", 40)] {
            let obj = d.object_id(o).unwrap();
            for a in ["price", "volume"] {
                let attr = d.attribute_id(a).unwrap();
                assert_eq!(
                    r.prediction(obj, attr),
                    d.value_id(&Value::int(truth)),
                    "({o}, {a})"
                );
            }
        }
    }

    #[test]
    fn outlier_source_gets_low_weight() {
        let d = numeric_world();
        let r = Crh::default().discover(&d.view_all());
        let exact = d.source_id("exact1").unwrap();
        let outlier = d.source_id("outlier").unwrap();
        assert!(
            r.source_trust[exact.index()] > r.source_trust[outlier.index()],
            "{:?}",
            r.source_trust
        );
    }

    #[test]
    fn categorical_cells_fall_back_to_weighted_vote() {
        let mut b = DatasetBuilder::new();
        for o in 0..3 {
            let obj = format!("o{o}");
            b.claim("g1", &obj, "name", Value::text(format!("right{o}"))).unwrap();
            b.claim("g2", &obj, "name", Value::text(format!("right{o}"))).unwrap();
            b.claim("bad", &obj, "name", Value::text(format!("wrong{o}"))).unwrap();
        }
        let d = b.build();
        let r = Crh::default().discover(&d.view_all());
        for o in 0..3 {
            let obj = d.object_id(&format!("o{o}")).unwrap();
            let attr = d.attribute_id("name").unwrap();
            assert_eq!(
                r.prediction(obj, attr),
                d.value_id(&Value::text(format!("right{o}")))
            );
        }
    }

    #[test]
    fn mixed_type_cells_are_categorical() {
        let mut b = DatasetBuilder::new();
        b.claim("s1", "o", "a", Value::int(5)).unwrap();
        b.claim("s2", "o", "a", Value::text("five")).unwrap();
        b.claim("s3", "o", "a", Value::int(5)).unwrap();
        let d = b.build();
        let r = Crh::default().discover(&d.view_all());
        let o = d.object_id("o").unwrap();
        let a = d.attribute_id("a").unwrap();
        assert_eq!(r.prediction(o, a), d.value_id(&Value::int(5)));
    }

    #[test]
    fn deterministic_and_bounded() {
        let d = numeric_world();
        let r1 = Crh::default().discover(&d.view_all());
        let r2 = Crh::default().discover(&d.view_all());
        assert_eq!(r1.source_trust, r2.source_trust);
        assert!(r1.iterations <= CrhConfig::default().max_iterations);
        for &w in &r1.source_trust {
            assert!((0.0..=1.0 + 1e-9).contains(&w) && w.is_finite());
        }
        for (_, _, _, c) in r1.iter() {
            assert!((0.0..=1.0).contains(&c));
        }
    }

    #[test]
    fn empty_view_ok() {
        let d = DatasetBuilder::new().build();
        assert!(Crh::default().discover(&d.view_all()).is_empty());
    }
}
