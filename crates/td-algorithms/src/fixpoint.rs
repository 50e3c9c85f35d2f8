//! The Pasternack–Roth fixpoint family (*Knowing What to Believe*,
//! COLING 2010): **Sums**, **AverageLog**, **Investment** and
//! **PooledInvestment**.
//!
//! All four alternate between claim *belief* `B(v)` and source *trust*
//! `T(s)` until a fixed point, differing only in the update rules:
//!
//! * **Sums** — Hubs & Authorities transplanted to claims:
//!   `B(v) = Σ_{s∈S_v} T(s)`, `T(s) = Σ_{v∈V_s} B(v)`.
//! * **AverageLog** — dampens prolific sources:
//!   `T(s) = ln(1 + |V_s|) · avg_{v∈V_s} B(v)`
//!   (we use `ln(1+·)` rather than `ln(·)` so single-claim sources keep
//!   non-zero trust; the original's `ln|V_s|` degenerates there).
//! * **Investment** — sources invest trust evenly across their claims and
//!   collect returns proportional to their share, with super-linear claim
//!   growth `G(x) = x^{1.2}`.
//! * **PooledInvestment** — like Investment but belief growth is
//!   normalized *within each cell* with `G(x) = x^{1.4}`.
//!
//! Trust and belief vectors are max-normalized every round (the paper's
//! own guard against overflow) and iteration stops when the trust vector
//! stabilizes or after `max_iterations` (paper: 20).

use td_model::DatasetView;

use crate::common::{max_abs_diff, Workspace};
use crate::result::TruthResult;
use crate::traits::TruthDiscovery;

/// Which member of the family to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Variant {
    Sums,
    AverageLog,
    Investment,
    PooledInvestment,
}

/// Shared hyper-parameters of the fixpoint family.
#[derive(Debug, Clone, Copy)]
pub struct FixpointConfig {
    /// Initial uniform source trust.
    pub initial_trust: f64,
    /// Growth exponent for Investment (paper: 1.2).
    pub investment_growth: f64,
    /// Growth exponent for PooledInvestment (paper: 1.4).
    pub pooled_growth: f64,
    /// Convergence threshold on the max-normalized trust change.
    pub tolerance: f64,
    /// Hard iteration cap (paper: 20).
    pub max_iterations: u32,
}

impl Default for FixpointConfig {
    fn default() -> Self {
        Self {
            initial_trust: 1.0,
            investment_growth: 1.2,
            pooled_growth: 1.4,
            tolerance: 1e-6,
            max_iterations: 20,
        }
    }
}

macro_rules! family_member {
    ($(#[$doc:meta])* $name:ident, $variant:expr, $label:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, Default)]
        pub struct $name {
            /// Family hyper-parameters.
            pub config: FixpointConfig,
        }

        impl $name {
            /// Constructor with custom hyper-parameters.
            pub fn new(config: FixpointConfig) -> Self {
                Self { config }
            }
        }

        impl TruthDiscovery for $name {
            fn name(&self) -> &'static str {
                $label
            }

            fn discover(&self, view: &DatasetView<'_>) -> TruthResult {
                run(view, &self.config, $variant)
            }
        }
    };
}

family_member!(
    /// Sums (Hubs & Authorities on the claim graph).
    Sums,
    Variant::Sums,
    "Sums"
);
family_member!(
    /// AverageLog — Sums dampened by a log of the claim count.
    AverageLog,
    Variant::AverageLog,
    "AverageLog"
);
family_member!(
    /// Investment — trust invested across claims with super-linear returns.
    Investment,
    Variant::Investment,
    "Investment"
);
family_member!(
    /// PooledInvestment — Investment with per-cell belief pooling.
    PooledInvestment,
    Variant::PooledInvestment,
    "PooledInvestment"
);

fn run(view: &DatasetView<'_>, cfg: &FixpointConfig, variant: Variant) -> TruthResult {
    let ws = Workspace::build(view, None);
    let n = ws.n_sources;
    let mut trust = vec![cfg.initial_trust; n];
    let mut result = TruthResult::for_view(view, cfg.initial_trust);

    // Belief per candidate, in the workspace's candidate order.
    let total_cands = ws.n_candidates();
    let mut belief = vec![0.0f64; total_cands];
    let mut new_trust = vec![0.0f64; n];

    let mut iterations = 0u32;
    loop {
        iterations += 1;

        // ---- belief update -------------------------------------------
        for b in belief.iter_mut() {
            *b = 0.0;
        }
        match variant {
            Variant::Sums | Variant::AverageLog => {
                for cell in ws.cells() {
                    let base = cell.cand_base;
                    for (ic, &src) in cell.claim_sources.iter().enumerate() {
                        belief[base + cell.claim_cand[ic] as usize] += trust[src.index()];
                    }
                }
            }
            Variant::Investment | Variant::PooledInvestment => {
                for cell in ws.cells() {
                    let base = cell.cand_base;
                    for (ic, &src) in cell.claim_sources.iter().enumerate() {
                        let s = src.index();
                        let stake = trust[s] / ws.claims_per_source[s].max(1) as f64;
                        belief[base + cell.claim_cand[ic] as usize] += stake;
                    }
                }
                if variant == Variant::Investment {
                    let g = cfg.investment_growth;
                    for b in belief.iter_mut() {
                        *b = b.powf(g);
                    }
                } else {
                    // Pooled: belief mass within each cell is rescaled by
                    // the grown share.
                    let g = cfg.pooled_growth;
                    for cell in ws.cells() {
                        let base = cell.cand_base;
                        let k = cell.k();
                        let h_sum: f64 = belief[base..base + k].iter().sum();
                        let g_sum: f64 = belief[base..base + k].iter().map(|h| h.powf(g)).sum();
                        if g_sum > 0.0 {
                            for i in 0..k {
                                let h = belief[base + i];
                                belief[base + i] = h_sum * h.powf(g) / g_sum;
                            }
                        }
                    }
                }
            }
        }
        // Max-normalize beliefs (overflow guard shared by the family).
        let bmax = belief.iter().copied().fold(0.0f64, f64::max);
        if bmax > 0.0 {
            for b in belief.iter_mut() {
                *b /= bmax;
            }
        }

        // ---- trust update --------------------------------------------
        for t in new_trust.iter_mut() {
            *t = 0.0;
        }
        match variant {
            Variant::Sums | Variant::AverageLog => {
                for cell in ws.cells() {
                    let base = cell.cand_base;
                    for (ic, &src) in cell.claim_sources.iter().enumerate() {
                        new_trust[src.index()] += belief[base + cell.claim_cand[ic] as usize];
                    }
                }
                if variant == Variant::AverageLog {
                    for s in 0..n {
                        let m = ws.claims_per_source[s] as f64;
                        if m > 0.0 {
                            new_trust[s] = (1.0 + m).ln() * new_trust[s] / m;
                        }
                    }
                }
            }
            Variant::Investment | Variant::PooledInvestment => {
                // Return on each claim proportional to the stake share.
                // First: total stake per candidate (recomputed; cheap).
                let mut stake_tot = vec![0.0f64; total_cands];
                for cell in ws.cells() {
                    let base = cell.cand_base;
                    for (ic, &src) in cell.claim_sources.iter().enumerate() {
                        let s = src.index();
                        stake_tot[base + cell.claim_cand[ic] as usize] +=
                            trust[s] / ws.claims_per_source[s].max(1) as f64;
                    }
                }
                for cell in ws.cells() {
                    let base = cell.cand_base;
                    for (ic, &src) in cell.claim_sources.iter().enumerate() {
                        let s = src.index();
                        let stake = trust[s] / ws.claims_per_source[s].max(1) as f64;
                        let idx = base + cell.claim_cand[ic] as usize;
                        if stake_tot[idx] > 0.0 {
                            new_trust[s] += belief[idx] * stake / stake_tot[idx];
                        }
                    }
                }
            }
        }
        // Sources with no claims keep their old trust.
        for s in 0..n {
            if ws.claims_per_source[s] == 0 {
                new_trust[s] = trust[s];
            }
        }
        // Max-normalize trust.
        let tmax = new_trust.iter().copied().fold(0.0f64, f64::max);
        if tmax > 0.0 {
            for t in new_trust.iter_mut() {
                *t /= tmax;
            }
        }

        let delta = max_abs_diff(&trust, &new_trust);
        trust.copy_from_slice(&new_trust);
        if delta < cfg.tolerance || iterations >= cfg.max_iterations {
            break;
        }
    }

    // Predictions: per-cell argmax belief, confidence = belief share.
    for cell in ws.cells() {
        let base = cell.cand_base;
        let k = cell.k();
        if k == 0 {
            continue;
        }
        let mut best = 0usize;
        for i in 1..k {
            let (bi, bb) = (belief[base + i], belief[base + best]);
            if bi > bb || (bi == bb && cell.values[i] < cell.values[best]) {
                best = i;
            }
        }
        let sum: f64 = belief[base..base + k].iter().sum();
        let conf = if sum > 0.0 {
            belief[base + best] / sum
        } else {
            1.0 / k as f64
        };
        result.set_prediction(cell.object, cell.attribute, cell.values[best], conf);
    }
    result.source_trust = trust;
    result.iterations = iterations;
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use td_model::{Dataset, DatasetBuilder, Value};

    fn all_variants() -> Vec<Box<dyn TruthDiscovery>> {
        vec![
            Box::new(Sums::default()),
            Box::new(AverageLog::default()),
            Box::new(Investment::default()),
            Box::new(PooledInvestment::default()),
        ]
    }

    fn majority_world() -> Dataset {
        let mut b = DatasetBuilder::new();
        for i in 0..5 {
            let a = format!("a{i}");
            b.claim("s1", "o", &a, Value::int(i)).unwrap();
            b.claim("s2", "o", &a, Value::int(i)).unwrap();
            b.claim("s3", "o", &a, Value::int(i)).unwrap();
            b.claim("bad", "o", &a, Value::int(100 + i)).unwrap();
        }
        b.build()
    }

    #[test]
    fn all_variants_follow_clear_majority() {
        let d = majority_world();
        let o = d.object_id("o").unwrap();
        for algo in all_variants() {
            let r = algo.discover(&d.view_all());
            for i in 0..5 {
                let a = d.attribute_id(&format!("a{i}")).unwrap();
                assert_eq!(
                    r.prediction(o, a),
                    Some(d.value_id(&Value::int(i)).unwrap()),
                    "{} failed on a{i}",
                    algo.name()
                );
            }
        }
    }

    #[test]
    fn trust_separates_good_from_bad() {
        let d = majority_world();
        let s1 = d.source_id("s1").unwrap();
        let bad = d.source_id("bad").unwrap();
        for algo in all_variants() {
            let r = algo.discover(&d.view_all());
            assert!(
                r.source_trust[s1.index()] > r.source_trust[bad.index()],
                "{}: {:?}",
                algo.name(),
                r.source_trust
            );
        }
    }

    #[test]
    fn trust_is_normalized_to_unit_max() {
        let d = majority_world();
        for algo in all_variants() {
            let r = algo.discover(&d.view_all());
            let max = r.source_trust.iter().copied().fold(0.0f64, f64::max);
            assert!((max - 1.0).abs() < 1e-9, "{}", algo.name());
            assert!(r.source_trust.iter().all(|&t| (0.0..=1.0 + 1e-9).contains(&t)));
        }
    }

    #[test]
    fn iterations_within_cap() {
        let d = majority_world();
        for algo in all_variants() {
            let r = algo.discover(&d.view_all());
            assert!(
                (1..=FixpointConfig::default().max_iterations).contains(&r.iterations),
                "{}",
                algo.name()
            );
        }
    }

    #[test]
    fn deterministic() {
        let d = majority_world();
        for algo in all_variants() {
            let r1 = algo.discover(&d.view_all());
            let r2 = algo.discover(&d.view_all());
            assert_eq!(r1.source_trust, r2.source_trust, "{}", algo.name());
        }
    }

    #[test]
    fn confidences_are_cell_shares() {
        let d = majority_world();
        for algo in all_variants() {
            let r = algo.discover(&d.view_all());
            for (_, _, _, c) in r.iter() {
                assert!((0.0..=1.0).contains(&c), "{}: {c}", algo.name());
            }
        }
    }

    #[test]
    fn investment_growth_rewards_concentration() {
        // Two equally-voted values; the Investment family's growth should
        // still produce a deterministic winner via tie-break, and never
        // panic on the pow of zero.
        let mut b = DatasetBuilder::new();
        b.claim("s1", "o", "a", Value::int(1)).unwrap();
        b.claim("s2", "o", "a", Value::int(2)).unwrap();
        let d = b.build();
        for algo in all_variants() {
            let r = algo.discover(&d.view_all());
            assert_eq!(r.len(), 1, "{}", algo.name());
        }
    }

    #[test]
    fn empty_view_ok() {
        let d = DatasetBuilder::new().build();
        for algo in all_variants() {
            assert!(algo.discover(&d.view_all()).is_empty(), "{}", algo.name());
        }
    }
}
