//! DART-style domain-aware truth discovery (after Lin & Chen, *Domain-
//! aware Multi-truth Discovery from Conflicting Sources*, VLDB 2018 —
//! reference \[10\] of the TD-AC paper), adapted to the one-truth setting.
//!
//! DART's premise is the same structural observation TD-AC automates:
//! source reliability varies per *domain*. The difference is that DART
//! is **told** the domain of every attribute up front, and estimates one
//! expertise score per `(source, domain)` pair instead of one global
//! trust. That makes it the natural *informed baseline* for TD-AC: if
//! TD-AC's discovered clusters are as good as hand-labeled domains,
//! their accuracies should match — which is exactly what the extended
//! experiment checks.
//!
//! The iterative core mirrors Accu's Bayesian voting with domain-local
//! accuracy: a claim's vote weight is `ln(n · A_d(s) / (1 - A_d(s)))`
//! where `A_d(s)` is the source's accuracy *in the claim's domain*, and
//! domain accuracies are re-estimated from the posterior per domain.

use std::collections::HashMap;

use td_model::{AttributeId, DatasetView};

use crate::common::{clamp_unit, effective_n_false, max_abs_diff, softmax, Workspace};
use crate::result::TruthResult;
use crate::traits::TruthDiscovery;

/// Hyper-parameters of [`Dart`].
#[derive(Debug, Clone, Copy)]
pub struct DartConfig {
    /// Initial per-(source, domain) expertise.
    pub initial_expertise: f64,
    /// Assumed number of false values per cell (as in Accu). The engine
    /// clamps it into `[1, 10¹²]` and counts NaN as 1, so the vote weight
    /// stays finite.
    pub n_false: f64,
    /// Convergence threshold on the max expertise change.
    pub tolerance: f64,
    /// Hard iteration cap.
    pub max_iterations: u32,
}

impl Default for DartConfig {
    fn default() -> Self {
        Self {
            initial_expertise: 0.8,
            n_false: 100.0,
            tolerance: 1e-4,
            max_iterations: 30,
        }
    }
}

/// Domain-aware truth discovery with a known attribute→domain map.
///
/// Attributes absent from the map share one implicit "general" domain.
#[derive(Debug, Clone, Default)]
pub struct Dart {
    /// Hyper-parameters.
    pub config: DartConfig,
    /// Attribute → domain index. Build with [`Dart::with_domains`].
    domain_of: HashMap<AttributeId, usize>,
    n_domains: usize,
}

impl Dart {
    /// DART with the given domain assignment: `groups[d]` lists the
    /// attributes of domain `d`.
    pub fn with_domains(groups: &[Vec<AttributeId>]) -> Self {
        let mut domain_of = HashMap::new();
        for (d, group) in groups.iter().enumerate() {
            for &a in group {
                domain_of.insert(a, d + 1); // 0 is the implicit general domain
            }
        }
        Self {
            config: DartConfig::default(),
            domain_of,
            n_domains: groups.len() + 1,
        }
    }

    /// Overrides the hyper-parameters.
    pub fn with_config(mut self, config: DartConfig) -> Self {
        self.config = config;
        self
    }

    #[inline]
    fn domain(&self, a: AttributeId) -> usize {
        self.domain_of.get(&a).copied().unwrap_or(0)
    }
}

impl TruthDiscovery for Dart {
    fn name(&self) -> &'static str {
        "DART"
    }

    fn discover(&self, view: &DatasetView<'_>) -> TruthResult {
        let ws = Workspace::build(view, None);
        let n = ws.n_sources;
        let n_domains = self.n_domains.max(1);
        let cfg = &self.config;
        let n_false = effective_n_false(cfg.n_false);
        const EPS: f64 = 1e-6;

        let mut result = TruthResult::for_view(view, cfg.initial_expertise);
        // expertise[s * n_domains + d]
        let mut expertise = vec![cfg.initial_expertise; n * n_domains];
        let mut tau = vec![0.0f64; n * n_domains];
        let mut scores: Vec<f64> = Vec::new();
        let mut pred = vec![0usize; ws.n_cells()];
        let mut confidence = vec![0.0f64; ws.n_cells()];

        let mut iterations = 0u32;
        loop {
            iterations += 1;

            // Per-(source, domain) posterior accumulators.
            let mut sums = vec![0.0f64; n * n_domains];
            let mut counts = vec![0u32; n * n_domains];
            // The vote weight depends on (source, domain) only.
            for (t, &e) in tau.iter_mut().zip(&expertise) {
                let a = clamp_unit(e, EPS);
                *t = (n_false * a / (1.0 - a)).ln();
            }

            for (ci, cell) in ws.cells().enumerate() {
                let d = self.domain(cell.attribute);
                let k = cell.k();
                scores.clear();
                scores.resize(k, 0.0);
                for (ic, &src) in cell.claim_sources.iter().enumerate() {
                    scores[cell.claim_cand[ic] as usize] += tau[src.index() * n_domains + d];
                }
                // Softmax to a posterior.
                softmax(&mut scores);
                let mut best = 0usize;
                for i in 0..k {
                    if scores[i] > scores[best]
                        || (scores[i] == scores[best] && cell.values[i] < cell.values[best])
                    {
                        best = i;
                    }
                }
                pred[ci] = best;
                confidence[ci] = scores[best];
                for (ic, &src) in cell.claim_sources.iter().enumerate() {
                    let slot = src.index() * n_domains + d;
                    sums[slot] += scores[cell.claim_cand[ic] as usize];
                    counts[slot] += 1;
                }
            }

            let mut new_expertise = expertise.clone();
            for slot in 0..n * n_domains {
                if counts[slot] > 0 {
                    new_expertise[slot] = clamp_unit(sums[slot] / counts[slot] as f64, EPS);
                }
            }
            let delta = max_abs_diff(&expertise, &new_expertise);
            expertise = new_expertise;
            if delta < cfg.tolerance || iterations >= cfg.max_iterations {
                break;
            }
        }

        for (ci, cell) in ws.cells().enumerate() {
            result.set_prediction(
                cell.object,
                cell.attribute,
                cell.values[pred[ci]],
                confidence[ci],
            );
        }
        // Report each source's mean expertise across domains it acted in.
        for s in 0..n {
            let row = &expertise[s * n_domains..(s + 1) * n_domains];
            result.source_trust[s] = row.iter().sum::<f64>() / n_domains as f64;
        }
        result.iterations = iterations;
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use td_model::{Dataset, DatasetBuilder, Value};

    /// Sources with opposite reliability across two domains. In domain B
    /// the wrong camp outnumbers the right one (3 vs 2) but *splits*
    /// between two lies, so domain-local evidence identifies the truth —
    /// while global trust estimation is contaminated by the sources'
    /// mixed cross-domain records.
    fn two_domain_dataset() -> (Dataset, Vec<Vec<AttributeId>>) {
        let mut b = DatasetBuilder::new();
        for o in 0..8 {
            let obj = format!("o{o}");
            // Domain A (a0, a1): g* right, h* wrong-unified.
            for a in ["a0", "a1"] {
                for s in ["g1", "g2", "g3"] {
                    b.claim(s, &obj, a, Value::int(o)).unwrap();
                }
                for s in ["h1", "h2"] {
                    b.claim(s, &obj, a, Value::int(900 + o)).unwrap();
                }
            }
            // Domain B (b0, b1): h* right, g-camp wrong but split.
            for a in ["b0", "b1"] {
                for s in ["g1", "g2"] {
                    b.claim(s, &obj, a, Value::int(800 + o)).unwrap();
                }
                b.claim("g3", &obj, a, Value::int(850 + o)).unwrap();
                for s in ["h1", "h2"] {
                    b.claim(s, &obj, a, Value::int(o)).unwrap();
                }
            }
        }
        let d = b.build();
        let dom_a = vec![d.attribute_id("a0").unwrap(), d.attribute_id("a1").unwrap()];
        let dom_b = vec![d.attribute_id("b0").unwrap(), d.attribute_id("b1").unwrap()];
        (d, vec![dom_a, dom_b])
    }

    #[test]
    fn domain_expertise_separates_specialists() {
        let (d, domains) = two_domain_dataset();
        let dart = Dart::with_domains(&domains);
        let r = dart.discover(&d.view_all());
        // Domain A cells go to the g-camp's values, domain B to h-camp's.
        for o in 0..8 {
            let obj = d.object_id(&format!("o{o}")).unwrap();
            for a in ["a0", "a1"] {
                let attr = d.attribute_id(a).unwrap();
                assert_eq!(
                    r.prediction(obj, attr),
                    d.value_id(&Value::int(o)),
                    "domain A cell ({o}, {a})"
                );
            }
            for a in ["b0", "b1"] {
                let attr = d.attribute_id(a).unwrap();
                assert_eq!(
                    r.prediction(obj, attr),
                    d.value_id(&Value::int(o)),
                    "domain B cell ({o}, {a})"
                );
            }
        }
    }

    #[test]
    fn unmapped_attributes_share_the_general_domain() {
        let mut b = DatasetBuilder::new();
        b.claim("s1", "o", "x", Value::int(1)).unwrap();
        b.claim("s2", "o", "x", Value::int(1)).unwrap();
        b.claim("s3", "o", "x", Value::int(2)).unwrap();
        let d = b.build();
        // No domain map at all.
        let r = Dart::default().discover(&d.view_all());
        let o = d.object_id("o").unwrap();
        let x = d.attribute_id("x").unwrap();
        assert_eq!(r.prediction(o, x), d.value_id(&Value::int(1)));
    }

    #[test]
    fn deterministic_and_bounded() {
        let (d, domains) = two_domain_dataset();
        let dart = Dart::with_domains(&domains);
        let r1 = dart.discover(&d.view_all());
        let r2 = dart.discover(&d.view_all());
        assert_eq!(r1.source_trust, r2.source_trust);
        assert!(r1.iterations <= DartConfig::default().max_iterations);
        for &t in &r1.source_trust {
            assert!((0.0..=1.0).contains(&t));
        }
    }

    #[test]
    fn degenerate_n_false_behaves_as_its_clamped_value() {
        // Non-finite or sub-1 `n_false` used to make every confidence NaN.
        let (d, domains) = two_domain_dataset();
        let run = |n_false| {
            let r = Dart::with_domains(&domains)
                .with_config(DartConfig {
                    n_false,
                    ..DartConfig::default()
                })
                .discover(&d.view_all());
            let mut cells: Vec<_> = r
                .iter()
                .map(|(o, a, v, c)| (o, a, v, c.to_bits()))
                .collect();
            cells.sort_unstable_by_key(|&(o, a, _, _)| (o, a));
            let trust: Vec<u64> = r.source_trust.iter().map(|t| t.to_bits()).collect();
            (cells, trust, r.iterations)
        };
        let at_one = run(1.0);
        let at_cap = run(crate::common::N_FALSE_CAP);
        for (n_false, want) in [
            (0.0, &at_one),
            (-1.0, &at_one),
            (f64::NAN, &at_one),
            (f64::INFINITY, &at_cap),
        ] {
            let got = run(n_false);
            assert!(got
                .0
                .iter()
                .all(|c| (0.0..=1.0).contains(&f64::from_bits(c.3))));
            assert_eq!(&got, want, "n_false {n_false}");
        }
    }

    #[test]
    fn empty_view_ok() {
        let d = DatasetBuilder::new().build();
        assert!(Dart::default().discover(&d.view_all()).is_empty());
    }
}
