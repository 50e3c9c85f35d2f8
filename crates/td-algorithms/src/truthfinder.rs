//! TruthFinder (Yin, Han & Yu, *Truth Discovery with Multiple Conflicting
//! Information Providers on the Web*, TKDE 2008).
//!
//! A Bayesian fixed point between source *trustworthiness* and value
//! *confidence*:
//!
//! 1. each source `s` gets a trust score `τ(s) = -ln(1 - t(s))`;
//! 2. each candidate value's raw confidence score is the sum of its
//!    supporters' `τ`;
//! 3. *implication* lets similar values support each other:
//!    `σ*(v) = σ(v) + ρ · Σ_{v'≠v} σ(v') · (sim(v, v') - base_sim)`;
//! 4. scores become probabilities through a dampened logistic,
//!    `c(v) = 1 / (1 + e^{-γ σ*(v)})`;
//! 5. a source's new trust is the mean confidence of the values it claims.
//!
//! Iterate until the trust vector stabilizes (cosine similarity), exactly
//! as the original paper prescribes.

use td_model::{DatasetView, SimilarityConfig, ValueSimilarity};

use crate::common::{clamp_unit, cosine_similarity, Workspace};
use crate::result::TruthResult;
use crate::traits::TruthDiscovery;

/// Hyper-parameters of [`TruthFinder`], defaulting to the values of the
/// original paper (and of the survey implementations the TD-AC paper
/// fixes its hyper-parameters from).
#[derive(Debug, Clone, Copy)]
pub struct TruthFinderConfig {
    /// Initial trustworthiness `t₀` of every source (paper: 0.9).
    pub initial_trust: f64,
    /// Dampening factor `γ` of the logistic (paper: 0.3).
    pub dampening: f64,
    /// Implication weight `ρ` — how strongly similar values support each
    /// other (paper: 0.5).
    pub implication_weight: f64,
    /// Base similarity subtracted before implication, letting dissimilar
    /// values *oppose* each other (paper: 0.5).
    pub base_similarity: f64,
    /// Convergence threshold on `1 - cos(t, t')` (paper: 0.001 %).
    pub tolerance: f64,
    /// Hard iteration cap.
    pub max_iterations: u32,
    /// Value-similarity tuning for the implication term.
    pub similarity: SimilarityConfig,
}

impl Default for TruthFinderConfig {
    fn default() -> Self {
        Self {
            initial_trust: 0.9,
            dampening: 0.3,
            implication_weight: 0.5,
            base_similarity: 0.5,
            tolerance: 1e-5,
            max_iterations: 20,
            similarity: SimilarityConfig::default(),
        }
    }
}

/// The TruthFinder algorithm. See the module docs.
#[derive(Debug, Clone, Copy, Default)]
pub struct TruthFinder {
    config: TruthFinderConfig,
}

impl TruthFinder {
    /// TruthFinder with custom hyper-parameters.
    pub fn new(config: TruthFinderConfig) -> Self {
        Self { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &TruthFinderConfig {
        &self.config
    }

    /// One scoring pass: computes per-candidate confidences from `trust`,
    /// accumulating per-source confidence sums, and (if `record` is set)
    /// writes predictions.
    fn pass(
        &self,
        ws: &Workspace,
        trust: &[f64],
        sums: &mut [f64],
        record: Option<&mut TruthResult>,
    ) {
        let cfg = &self.config;
        const EPS: f64 = 1e-9;
        let mut sigma: Vec<f64> = Vec::new();
        let mut adjusted: Vec<f64> = Vec::new();
        let mut result = record;

        for s in sums.iter_mut() {
            *s = 0.0;
        }
        // τ(s) depends on the source only: once per source, not per claim.
        let tau: Vec<f64> = trust
            .iter()
            .map(|&t| -(1.0 - clamp_unit(t, EPS)).ln())
            .collect();

        for cell in ws.cells() {
            let k = cell.k();
            sigma.clear();
            sigma.resize(k, 0.0);
            for (ci, &src) in cell.claim_cand.iter().zip(cell.claim_sources) {
                sigma[*ci as usize] += tau[src.index()];
            }
            adjusted.clear();
            adjusted.extend_from_slice(&sigma);
            if cfg.implication_weight != 0.0 {
                for i in 0..k {
                    let mut infl = 0.0;
                    for j in 0..k {
                        if i != j {
                            infl += sigma[j] * (cell.sim(j, i) - cfg.base_similarity);
                        }
                    }
                    adjusted[i] += cfg.implication_weight * infl;
                }
            }
            // Dampened logistic confidence.
            let mut best = 0usize;
            let mut best_conf = f64::NEG_INFINITY;
            for i in 0..k {
                let c = 1.0 / (1.0 + (-cfg.dampening * adjusted[i]).exp());
                adjusted[i] = c;
                // Deterministic tie-break toward the smaller value id.
                if c > best_conf || (c == best_conf && cell.values[i] < cell.values[best]) {
                    best = i;
                    best_conf = c;
                }
            }
            for (ci, &src) in cell.claim_cand.iter().zip(cell.claim_sources) {
                sums[src.index()] += adjusted[*ci as usize];
            }
            if let Some(r) = result.as_deref_mut() {
                r.set_prediction(cell.object, cell.attribute, cell.values[best], best_conf);
            }
        }
    }
}

impl TruthDiscovery for TruthFinder {
    fn name(&self) -> &'static str {
        "TruthFinder"
    }

    fn discover(&self, view: &DatasetView<'_>) -> TruthResult {
        let cfg = &self.config;
        let sim = ValueSimilarity::new(cfg.similarity);
        let need_sim = cfg.implication_weight != 0.0;
        let ws = Workspace::build(view, need_sim.then_some(&sim));

        let n = ws.n_sources;
        let mut trust = vec![cfg.initial_trust; n];
        let mut sums = vec![0.0; n];
        let mut result = TruthResult::for_view(view, cfg.initial_trust);

        let mut iterations = 0u32;
        loop {
            iterations += 1;
            self.pass(&ws, &trust, &mut sums, None);
            let mut new_trust = trust.clone();
            for s in 0..n {
                if ws.claims_per_source[s] > 0 {
                    new_trust[s] = sums[s] / ws.claims_per_source[s] as f64;
                }
            }
            let converged = 1.0 - cosine_similarity(&trust, &new_trust) < cfg.tolerance;
            trust = new_trust;
            if converged || iterations >= cfg.max_iterations {
                break;
            }
        }

        // Final prediction pass with the converged trust.
        self.pass(&ws, &trust, &mut sums, Some(&mut result));
        result.source_trust = trust;
        result.iterations = iterations;
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use td_model::{Dataset, DatasetBuilder, Value};

    /// Three sources; s1 and s2 are consistently right on three cells,
    /// s3 consistently wrong — trust must reflect that and predictions
    /// must follow the trustworthy pair.
    fn reliability_dataset() -> Dataset {
        let mut b = DatasetBuilder::new();
        for (a, good, bad) in [("a1", "g1", "b1"), ("a2", "g2", "b2"), ("a3", "g3", "b3")] {
            b.claim("s1", "o", a, Value::text(good)).unwrap();
            b.claim("s2", "o", a, Value::text(good)).unwrap();
            b.claim("s3", "o", a, Value::text(bad)).unwrap();
        }
        b.build()
    }

    #[test]
    fn trustworthy_sources_win() {
        let d = reliability_dataset();
        let r = TruthFinder::default().discover(&d.view_all());
        let o = d.object_id("o").unwrap();
        for (a, good) in [("a1", "g1"), ("a2", "g2"), ("a3", "g3")] {
            let aid = d.attribute_id(a).unwrap();
            assert_eq!(r.prediction(o, aid), Some(d.value_id(&Value::text(good)).unwrap()));
        }
        let s1 = d.source_id("s1").unwrap();
        let s3 = d.source_id("s3").unwrap();
        assert!(r.source_trust[s1.index()] > r.source_trust[s3.index()]);
    }

    #[test]
    fn converges_within_cap_and_reports_iterations() {
        let d = reliability_dataset();
        let r = TruthFinder::default().discover(&d.view_all());
        assert!(r.iterations >= 1);
        assert!(r.iterations <= TruthFinderConfig::default().max_iterations);
    }

    #[test]
    fn confidences_are_probabilities() {
        let d = reliability_dataset();
        let r = TruthFinder::default().discover(&d.view_all());
        for (_, _, _, c) in r.iter() {
            assert!((0.0..=1.0).contains(&c), "confidence {c} out of range");
        }
    }

    #[test]
    fn implication_boosts_similar_values() {
        // Numeric cell: {100 (s1), 101 (s2), 999 (s3, s4)}. Without
        // implication the pair claiming 999 wins on votes; with strong
        // implication 100 and 101 support each other enough to flip the
        // outcome in the adjusted scores' favor at equal trust.
        let mut b = DatasetBuilder::new();
        b.claim("s1", "o", "a", Value::int(100)).unwrap();
        b.claim("s2", "o", "a", Value::int(101)).unwrap();
        b.claim("s3", "o", "a", Value::int(999)).unwrap();
        b.claim("s4", "o", "a", Value::int(999)).unwrap();
        let d = b.build();
        let o = d.object_id("o").unwrap();
        let a = d.attribute_id("a").unwrap();

        let no_imp = TruthFinder::new(TruthFinderConfig {
            implication_weight: 0.0,
            max_iterations: 1,
            ..Default::default()
        })
        .discover(&d.view_all());
        assert_eq!(
            no_imp.prediction(o, a),
            Some(d.value_id(&Value::int(999)).unwrap()),
            "vote count decides without implication"
        );

        let imp = TruthFinder::new(TruthFinderConfig {
            implication_weight: 4.0,
            base_similarity: 0.2,
            max_iterations: 1,
            ..Default::default()
        })
        .discover(&d.view_all());
        let picked = imp.prediction(o, a).unwrap();
        let v100 = d.value_id(&Value::int(100)).unwrap();
        let v101 = d.value_id(&Value::int(101)).unwrap();
        assert!(
            picked == v100 || picked == v101,
            "mutually-supporting close values should win"
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let d = reliability_dataset();
        let r1 = TruthFinder::default().discover(&d.view_all());
        let r2 = TruthFinder::default().discover(&d.view_all());
        assert_eq!(r1.iterations, r2.iterations);
        assert_eq!(r1.source_trust, r2.source_trust);
        let p1: Vec<_> = {
            let mut v: Vec<_> = r1.iter().collect();
            v.sort_by_key(|a| (a.0, a.1));
            v
        };
        let p2: Vec<_> = {
            let mut v: Vec<_> = r2.iter().collect();
            v.sort_by_key(|a| (a.0, a.1));
            v
        };
        assert_eq!(p1, p2);
    }

    #[test]
    fn works_on_attribute_restricted_view() {
        let d = reliability_dataset();
        let a1 = d.attribute_id("a1").unwrap();
        let r = TruthFinder::default().discover(&d.view_of(&[a1]));
        assert_eq!(r.len(), 1);
        assert_eq!(r.source_trust.len(), d.n_sources());
    }

    #[test]
    fn empty_view_is_fine() {
        let d = DatasetBuilder::new().build();
        let r = TruthFinder::default().discover(&d.view_all());
        assert!(r.is_empty());
    }
}
