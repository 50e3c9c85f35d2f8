//! Majority voting — the simplest baseline and TD-AC's default reference
//! algorithm for building attribute truth vectors.

use td_model::DatasetView;

use crate::common::{argmax_candidate, group_candidates, Candidate};
use crate::result::TruthResult;
use crate::traits::TruthDiscovery;

/// Per-cell plurality vote.
///
/// Each cell's winner is the value claimed by the most sources (ties
/// toward the smallest value id, making the algorithm deterministic); its
/// confidence is the winner's vote share. A source's reported trust is
/// the fraction of its claims that agree with the local majority — not
/// used by the vote itself, but handy as an initializer and for
/// diagnostics.
#[derive(Debug, Clone, Copy, Default)]
pub struct MajorityVote;

impl TruthDiscovery for MajorityVote {
    fn name(&self) -> &'static str {
        "MajorityVote"
    }

    fn discover(&self, view: &DatasetView<'_>) -> TruthResult {
        let n_sources = view.n_sources();
        let mut result = TruthResult::for_view(view, 0.0);
        result.iterations = 1;

        let mut agree = vec![0u64; n_sources];
        let mut total = vec![0u64; n_sources];
        let mut cands: Vec<Candidate> = Vec::new();
        let mut claim_cand: Vec<u32> = Vec::new();

        for cell in view.cells() {
            let claims = view.cell_claims(cell);
            group_candidates(claims, &mut cands, &mut claim_cand);
            for c in cands.iter_mut() {
                c.score = c.count as f64;
            }
            let Some(win) = argmax_candidate(&cands) else {
                continue;
            };
            let winner = cands[win];
            let share = winner.count as f64 / claims.len() as f64;
            result.set_prediction(cell.object, cell.attribute, winner.value, share);
            for claim in claims {
                let s = claim.source.index();
                total[s] += 1;
                if claim.value == winner.value {
                    agree[s] += 1;
                }
            }
        }

        for s in 0..n_sources {
            result.source_trust[s] = if total[s] == 0 {
                0.5
            } else {
                agree[s] as f64 / total[s] as f64
            };
        }
        result
    }

    // Majority trust is a pure function of the predictions: a source's
    // trust is the fraction of its claims agreeing with the per-cell
    // winner. Replaying that count against an externally supplied
    // prediction set reproduces `discover`'s trust bit-for-bit — the
    // tallies are integers, so the result is independent of cell
    // iteration order and of how the predictions were computed (one
    // process or unioned from object shards).
    fn trust_from_predictions(
        &self,
        view: &DatasetView<'_>,
        result: &TruthResult,
    ) -> Option<Vec<f64>> {
        let n_sources = view.n_sources();
        let mut agree = vec![0u64; n_sources];
        let mut total = vec![0u64; n_sources];
        for cell in view.cells() {
            let Some(winner) = result.prediction(cell.object, cell.attribute) else {
                continue;
            };
            for claim in view.cell_claims(cell) {
                let s = claim.source.index();
                total[s] += 1;
                if claim.value == winner {
                    agree[s] += 1;
                }
            }
        }
        Some(
            (0..n_sources)
                .map(|s| {
                    if total[s] == 0 {
                        0.5
                    } else {
                        agree[s] as f64 / total[s] as f64
                    }
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use td_model::{DatasetBuilder, Value};

    #[test]
    fn plurality_wins() {
        let mut b = DatasetBuilder::new();
        b.claim("s1", "o", "a", Value::text("x")).unwrap();
        b.claim("s2", "o", "a", Value::text("x")).unwrap();
        b.claim("s3", "o", "a", Value::text("y")).unwrap();
        let d = b.build();
        let r = MajorityVote.discover(&d.view_all());
        let o = d.object_id("o").unwrap();
        let a = d.attribute_id("a").unwrap();
        assert_eq!(r.prediction(o, a), Some(d.value_id(&Value::text("x")).unwrap()));
        assert!((r.confidence(o, a).unwrap() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(r.iterations, 1);
    }

    #[test]
    fn tie_breaks_to_first_interned_value() {
        let mut b = DatasetBuilder::new();
        b.claim("s1", "o", "a", Value::text("x")).unwrap(); // interned first
        b.claim("s2", "o", "a", Value::text("y")).unwrap();
        let d = b.build();
        let r = MajorityVote.discover(&d.view_all());
        let o = d.object_id("o").unwrap();
        let a = d.attribute_id("a").unwrap();
        assert_eq!(r.prediction(o, a), Some(d.value_id(&Value::text("x")).unwrap()));
    }

    #[test]
    fn source_trust_is_majority_agreement_rate() {
        let mut b = DatasetBuilder::new();
        // Two cells; s3 agrees with the majority once out of twice.
        b.claim("s1", "o", "a1", Value::int(1)).unwrap();
        b.claim("s2", "o", "a1", Value::int(1)).unwrap();
        b.claim("s3", "o", "a1", Value::int(2)).unwrap();
        b.claim("s1", "o", "a2", Value::int(5)).unwrap();
        b.claim("s2", "o", "a2", Value::int(5)).unwrap();
        b.claim("s3", "o", "a2", Value::int(5)).unwrap();
        let d = b.build();
        let r = MajorityVote.discover(&d.view_all());
        let s3 = d.source_id("s3").unwrap();
        assert!((r.source_trust[s3.index()] - 0.5).abs() < 1e-12);
        let s1 = d.source_id("s1").unwrap();
        assert!((r.source_trust[s1.index()] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn idle_sources_get_neutral_trust() {
        let mut b = DatasetBuilder::new();
        b.source("idle");
        b.claim("busy", "o", "a", Value::int(1)).unwrap();
        let d = b.build();
        let r = MajorityVote.discover(&d.view_all());
        let idle = d.source_id("idle").unwrap();
        assert_eq!(r.source_trust[idle.index()], 0.5);
    }

    #[test]
    fn respects_view_restriction() {
        let mut b = DatasetBuilder::new();
        b.claim("s1", "o", "a1", Value::int(1)).unwrap();
        b.claim("s1", "o", "a2", Value::int(2)).unwrap();
        let d = b.build();
        let a1 = d.attribute_id("a1").unwrap();
        let a2 = d.attribute_id("a2").unwrap();
        let r = MajorityVote.discover(&d.view_of(&[a1]));
        let o = d.object_id("o").unwrap();
        assert!(r.prediction(o, a1).is_some());
        assert!(r.prediction(o, a2).is_none());
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn trust_from_predictions_is_bit_identical_to_discover() {
        let mut b = DatasetBuilder::new();
        b.claim("s1", "o1", "a1", Value::int(1)).unwrap();
        b.claim("s2", "o1", "a1", Value::int(1)).unwrap();
        b.claim("s3", "o1", "a1", Value::int(2)).unwrap();
        b.claim("s1", "o2", "a1", Value::int(7)).unwrap();
        b.claim("s3", "o2", "a1", Value::int(7)).unwrap();
        b.claim("s2", "o1", "a2", Value::text("x")).unwrap();
        b.source("idle");
        let d = b.build();
        let view = d.view_all();
        let r = MajorityVote.discover(&view);
        let trust = MajorityVote.trust_from_predictions(&view, &r).unwrap();
        assert_eq!(trust.len(), r.source_trust.len());
        for (got, want) in trust.iter().zip(r.source_trust.iter()) {
            assert_eq!(got.to_bits(), want.to_bits());
        }
        // Through trait objects too — the blanket impls must forward the
        // override, not fall back to the default `None`.
        let boxed: Box<dyn TruthDiscovery + Send + Sync> = Box::new(MajorityVote);
        assert!(boxed.trust_from_predictions(&view, &r).is_some());
        let dyn_ref: &(dyn TruthDiscovery + Sync) = &MajorityVote;
        assert!((&dyn_ref).trust_from_predictions(&view, &r).is_some());
    }

    #[test]
    fn trust_from_predictions_unions_exactly_across_object_shards() {
        // Split the objects in two, discover each half separately, union
        // the predictions, and re-derive trust: bit-identical to the
        // whole-view run — the contract object-hash sharding leans on.
        let mut b = DatasetBuilder::new();
        for (i, o) in ["o1", "o2", "o3", "o4"].iter().enumerate() {
            b.claim("s1", o, "a", Value::int(i as i64)).unwrap();
            b.claim("s2", o, "a", Value::int(i as i64)).unwrap();
            b.claim("s3", o, "a", Value::int(99)).unwrap();
        }
        let d = b.build();
        let view = d.view_all();
        let whole = MajorityVote.discover(&view);

        let mut unioned = TruthResult::with_sources(d.n_sources(), 0.0);
        unioned.iterations = 1;
        for cell in view.cells() {
            let half = MajorityVote.discover(&view); // same view; predictions are cell-local
            let v = half.prediction(cell.object, cell.attribute).unwrap();
            let c = half.confidence(cell.object, cell.attribute).unwrap();
            unioned.set_prediction(cell.object, cell.attribute, v, c);
        }
        let trust = MajorityVote.trust_from_predictions(&view, &unioned).unwrap();
        for (got, want) in trust.iter().zip(whole.source_trust.iter()) {
            assert_eq!(got.to_bits(), want.to_bits());
        }
    }

    #[test]
    fn empty_view_yields_empty_result() {
        let d = DatasetBuilder::new().build();
        let r = MajorityVote.discover(&d.view_all());
        assert!(r.is_empty());
        assert_eq!(r.iterations, 1);
    }
}
