//! The Galland et al. estimators (*Corroborating Information from
//! Disagreeing Views*, WSDM 2010): **2-Estimates** and **3-Estimates**.
//!
//! Both model each distinct `(cell, value)` pair as a boolean *fact*:
//! a source claiming `v` in a cell casts a **positive** vote on `v`'s fact
//! and an implicit **negative** vote on every other candidate of the same
//! cell (the one-truth assumption made operational).
//!
//! * **2-Estimates** alternates two estimates — fact truth `ρ(f)` and
//!   source trust `θ(s)`:
//!   `ρ(f) = avg_s (vote ? θ(s) : 1-θ(s))`,
//!   `θ(s) = avg_f (vote ? ρ(f) : 1-ρ(f))`,
//!   each followed by Galland's affine renormalization onto `[0, 1]`.
//! * **3-Estimates** adds a per-fact *difficulty* `ε(f)`, modelling the
//!   probability of error on fact `f` as `err(s) · ε(f)`; easy facts
//!   barely move trust while hard ones dominate it.
//!
//! Iteration stops when the trust vector stabilizes or at the cap
//! (paper: 20 rounds).

use td_model::DatasetView;

use crate::common::{max_abs_diff, Workspace};
use crate::result::TruthResult;
use crate::traits::TruthDiscovery;

/// Hyper-parameters for [`TwoEstimates`] and [`ThreeEstimates`].
#[derive(Debug, Clone, Copy)]
pub struct EstimatesConfig {
    /// Initial source trust (2-Estimates) / complement of the initial
    /// error factor (3-Estimates).
    pub initial_trust: f64,
    /// Initial fact difficulty for 3-Estimates.
    pub initial_difficulty: f64,
    /// Convergence threshold on the max trust change.
    pub tolerance: f64,
    /// Hard iteration cap (paper: 20).
    pub max_iterations: u32,
    /// Whether to apply Galland's affine `[0,1]` renormalization after
    /// each estimate (the paper's λ = full normalization).
    pub normalize: bool,
}

impl Default for EstimatesConfig {
    fn default() -> Self {
        Self {
            initial_trust: 0.8,
            initial_difficulty: 0.5,
            tolerance: 1e-6,
            max_iterations: 20,
            normalize: true,
        }
    }
}

/// 2-Estimates. See module docs.
#[derive(Debug, Clone, Copy, Default)]
pub struct TwoEstimates {
    /// Hyper-parameters.
    pub config: EstimatesConfig,
}

/// 3-Estimates. See module docs.
#[derive(Debug, Clone, Copy, Default)]
pub struct ThreeEstimates {
    /// Hyper-parameters.
    pub config: EstimatesConfig,
}

impl TwoEstimates {
    /// Constructor with custom hyper-parameters.
    pub fn new(config: EstimatesConfig) -> Self {
        Self { config }
    }
}

impl ThreeEstimates {
    /// Constructor with custom hyper-parameters.
    pub fn new(config: EstimatesConfig) -> Self {
        Self { config }
    }
}

impl TruthDiscovery for TwoEstimates {
    fn name(&self) -> &'static str {
        "2-Estimates"
    }

    fn discover(&self, view: &DatasetView<'_>) -> TruthResult {
        run(view, &self.config, false)
    }
}

impl TruthDiscovery for ThreeEstimates {
    fn name(&self) -> &'static str {
        "3-Estimates"
    }

    fn discover(&self, view: &DatasetView<'_>) -> TruthResult {
        run(view, &self.config, true)
    }
}

/// Affine renormalization of a vector onto `[0, 1]`; identity when the
/// vector is constant (nothing to spread).
fn renormalize(xs: &mut [f64]) {
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &x in xs.iter() {
        lo = lo.min(x);
        hi = hi.max(x);
    }
    if !(hi - lo).is_normal() {
        return;
    }
    for x in xs.iter_mut() {
        *x = (*x - lo) / (hi - lo);
    }
}

fn run(view: &DatasetView<'_>, cfg: &EstimatesConfig, third: bool) -> TruthResult {
    let ws = Workspace::build(view, None);
    let n = ws.n_sources;
    let mut result = TruthResult::for_view(view, cfg.initial_trust);

    // Fact layout: one fact per candidate, in the workspace's candidate
    // order.
    let n_facts = ws.n_candidates();

    let mut trust = vec![cfg.initial_trust; n];
    let mut rho = vec![0.5f64; n_facts]; // fact truth
    let mut eps = vec![cfg.initial_difficulty; n_facts]; // 3-Est difficulty
    let mut votes_per_source = vec![0u64; n];
    for cell in ws.cells() {
        for src in cell.claim_sources {
            // each claim votes on every candidate of the cell
            votes_per_source[src.index()] += cell.k() as u64;
        }
    }

    let clamp = |x: f64| x.clamp(1e-6, 1.0 - 1e-6);
    let mut iterations = 0u32;
    loop {
        iterations += 1;

        // ---- fact truth ρ(f) ------------------------------------------
        let mut num = vec![0.0f64; n_facts];
        let mut den = vec![0u64; n_facts];
        for cell in ws.cells() {
            let base = cell.cand_base;
            for (ic, &src) in cell.claim_sources.iter().enumerate() {
                let s = src.index();
                let t = clamp(trust[s]);
                let claimed = cell.claim_cand[ic] as usize;
                for f in 0..cell.k() {
                    let positive = f == claimed;
                    let contribution = if third {
                        // P(f true | vote) with error = (1-t)·ε(f)
                        let err = clamp((1.0 - t) * eps[base + f]);
                        if positive {
                            1.0 - err
                        } else {
                            err
                        }
                    } else if positive {
                        t
                    } else {
                        1.0 - t
                    };
                    num[base + f] += contribution;
                    den[base + f] += 1;
                }
            }
        }
        for f in 0..n_facts {
            if den[f] > 0 {
                rho[f] = num[f] / den[f] as f64;
            }
        }
        if cfg.normalize {
            renormalize(&mut rho);
        }

        // ---- fact difficulty ε(f) (3-Estimates only) -------------------
        if third {
            let mut enum_ = vec![0.0f64; n_facts];
            let mut eden = vec![0u64; n_facts];
            for cell in ws.cells() {
                let base = cell.cand_base;
                for (ic, &src) in cell.claim_sources.iter().enumerate() {
                    let s = src.index();
                    let err_s = clamp(1.0 - trust[s]);
                    let claimed = cell.claim_cand[ic] as usize;
                    for f in 0..cell.k() {
                        let positive = f == claimed;
                        // err(s)·ε(f) ≈ P(vote wrong); wrongness of this
                        // vote given current ρ:
                        let wrong = if positive {
                            1.0 - rho[base + f]
                        } else {
                            rho[base + f]
                        };
                        enum_[base + f] += wrong / err_s;
                        eden[base + f] += 1;
                    }
                }
            }
            for f in 0..n_facts {
                if eden[f] > 0 {
                    eps[f] = enum_[f] / eden[f] as f64;
                }
            }
            if cfg.normalize {
                renormalize(&mut eps);
            }
            for e in eps.iter_mut() {
                *e = clamp(*e);
            }
        }

        // ---- source trust θ(s) -----------------------------------------
        let mut tnum = vec![0.0f64; n];
        for cell in ws.cells() {
            let base = cell.cand_base;
            for (ic, &src) in cell.claim_sources.iter().enumerate() {
                let s = src.index();
                let claimed = cell.claim_cand[ic] as usize;
                for f in 0..cell.k() {
                    let positive = f == claimed;
                    let agreement = if positive {
                        rho[base + f]
                    } else {
                        1.0 - rho[base + f]
                    };
                    if third {
                        // Weight agreement by difficulty: being right on a
                        // hard fact is stronger evidence.
                        tnum[s] += 1.0 - (1.0 - agreement) / clamp(eps[base + f]).max(0.5);
                    } else {
                        tnum[s] += agreement;
                    }
                }
            }
        }
        let mut new_trust = trust.clone();
        for s in 0..n {
            if votes_per_source[s] > 0 {
                new_trust[s] = tnum[s] / votes_per_source[s] as f64;
            }
        }
        if cfg.normalize {
            renormalize(&mut new_trust);
        }

        let delta = max_abs_diff(&trust, &new_trust);
        trust = new_trust;
        if delta < cfg.tolerance || iterations >= cfg.max_iterations {
            break;
        }
    }

    // Predictions: per cell argmax ρ.
    for cell in ws.cells() {
        let base = cell.cand_base;
        let k = cell.k();
        if k == 0 {
            continue;
        }
        let mut best = 0usize;
        for i in 1..k {
            let (ri, rb) = (rho[base + i], rho[base + best]);
            if ri > rb || (ri == rb && cell.values[i] < cell.values[best]) {
                best = i;
            }
        }
        result.set_prediction(cell.object, cell.attribute, cell.values[best], rho[base + best]);
    }
    result.source_trust = trust;
    result.iterations = iterations;
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use td_model::{Dataset, DatasetBuilder, Value};

    fn variants() -> Vec<Box<dyn TruthDiscovery>> {
        vec![
            Box::new(TwoEstimates::default()),
            Box::new(ThreeEstimates::default()),
        ]
    }

    fn world() -> Dataset {
        let mut b = DatasetBuilder::new();
        for i in 0..6 {
            let a = format!("a{i}");
            b.claim("good1", "o", &a, Value::int(i)).unwrap();
            b.claim("good2", "o", &a, Value::int(i)).unwrap();
            b.claim("good3", "o", &a, Value::int(i)).unwrap();
            b.claim("liar", "o", &a, Value::int(50 + i)).unwrap();
        }
        b.build()
    }

    #[test]
    fn majority_is_followed() {
        let d = world();
        let o = d.object_id("o").unwrap();
        for algo in variants() {
            let r = algo.discover(&d.view_all());
            for i in 0..6 {
                let a = d.attribute_id(&format!("a{i}")).unwrap();
                assert_eq!(
                    r.prediction(o, a),
                    Some(d.value_id(&Value::int(i)).unwrap()),
                    "{}",
                    algo.name()
                );
            }
        }
    }

    #[test]
    fn liar_gets_low_trust() {
        let d = world();
        let g = d.source_id("good1").unwrap();
        let l = d.source_id("liar").unwrap();
        for algo in variants() {
            let r = algo.discover(&d.view_all());
            assert!(
                r.source_trust[g.index()] > r.source_trust[l.index()],
                "{}: {:?}",
                algo.name(),
                r.source_trust
            );
        }
    }

    #[test]
    fn renormalize_maps_to_unit_interval() {
        let mut xs = vec![2.0, 4.0, 3.0];
        renormalize(&mut xs);
        assert_eq!(xs, vec![0.0, 1.0, 0.5]);
        // Constant vectors are untouched.
        let mut constant = vec![0.7, 0.7];
        renormalize(&mut constant);
        assert_eq!(constant, vec![0.7, 0.7]);
        let mut empty: Vec<f64> = vec![];
        renormalize(&mut empty);
    }

    #[test]
    fn deterministic_and_bounded() {
        let d = world();
        for algo in variants() {
            let r1 = algo.discover(&d.view_all());
            let r2 = algo.discover(&d.view_all());
            assert_eq!(r1.source_trust, r2.source_trust, "{}", algo.name());
            assert!(r1.iterations <= EstimatesConfig::default().max_iterations);
            for &t in &r1.source_trust {
                assert!((0.0..=1.0).contains(&t), "{}: {t}", algo.name());
            }
        }
    }

    #[test]
    fn single_candidate_cells_are_trivially_predicted() {
        let mut b = DatasetBuilder::new();
        b.claim("s1", "o", "a", Value::int(9)).unwrap();
        b.claim("s2", "o", "a", Value::int(9)).unwrap();
        let d = b.build();
        for algo in variants() {
            let r = algo.discover(&d.view_all());
            let o = d.object_id("o").unwrap();
            let a = d.attribute_id("a").unwrap();
            assert_eq!(
                r.prediction(o, a),
                Some(d.value_id(&Value::int(9)).unwrap()),
                "{}",
                algo.name()
            );
        }
    }

    #[test]
    fn empty_view_ok() {
        let d = DatasetBuilder::new().build();
        for algo in variants() {
            assert!(algo.discover(&d.view_all()).is_empty(), "{}", algo.name());
        }
    }
}
