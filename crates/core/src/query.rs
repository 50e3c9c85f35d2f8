//! The first-class query surface over truth-discovery outcomes.
//!
//! Everything that *consumes* a run — the `tdc` CLI, the td-serve
//! network front end, examples — used to hand-roll lookups over
//! [`TruthResult`]/[`TdacOutcome`] and re-resolve ids to names ad hoc.
//! [`TruthQuery`] and [`QueryResponse`] replace that with one typed,
//! serializable vocabulary: a query names entities by their *string*
//! names, and the response carries name-resolved predictions, source
//! trust scores, the run's degradation flag and its profile deltas.
//!
//! The response is deliberately byte-stable: predictions are sorted by
//! `(ObjectId, AttributeId)` and trust scores by `SourceId`, so two
//! answers computed from bit-identical results serialize identically —
//! the property the serving layer's bit-identity oracle leans on.
//!
//! ```
//! use td_model::{DatasetBuilder, Value};
//! use td_algorithms::{MajorityVote, TruthDiscovery};
//! use tdac_core::TruthQuery;
//!
//! let mut b = DatasetBuilder::new();
//! b.claim("s1", "o", "a", Value::text("x")).unwrap();
//! b.claim("s2", "o", "a", Value::text("x")).unwrap();
//! b.claim("s3", "o", "a", Value::text("y")).unwrap();
//! let dataset = b.build();
//! let result = MajorityVote.discover(&dataset.view_all());
//!
//! let resp = TruthQuery::Attribute("o".into(), "a".into())
//!     .answer_result(&dataset, &result)
//!     .unwrap();
//! assert_eq!(resp.predictions.len(), 1);
//! assert_eq!(resp.predictions[0].value, Value::text("x"));
//! ```

use serde::{Deserialize, Serialize};

use td_algorithms::TruthResult;
use td_model::{AttributeId, Dataset, ModelError, ObjectId, Value, ValueId};
use td_obs::{Degradation, RunProfile};

use crate::tdac::TdacOutcome;

/// A truth query, naming entities by their dataset names.
///
/// Variants are tuple-shaped (not struct-shaped) so the vendored serde
/// derive can handle them; on the wire they serialize externally
/// tagged, e.g. `"All"`, `{"Object":"o1"}`, `{"Attribute":["o1","a"]}`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum TruthQuery {
    /// Every prediction and every source trust score.
    All,
    /// All predicted attributes of one object (by object name).
    Object(String),
    /// One cell: `(object name, attribute name)`.
    Attribute(String, String),
    /// One source's trust score (by source name).
    Source(String),
}

/// One name-resolved prediction: the selected value for a cell and the
/// confidence the base algorithm assigned it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Prediction {
    /// Object name.
    pub object: String,
    /// Attribute name.
    pub attribute: String,
    /// The selected value.
    pub value: Value,
    /// Confidence of the selected value.
    pub confidence: f64,
}

/// One source's final trust score, name-resolved.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SourceTrust {
    /// Source name.
    pub source: String,
    /// Final trust / accuracy score.
    pub trust: f64,
}

/// The answer to a [`TruthQuery`].
///
/// `predictions` is sorted by `(ObjectId, AttributeId)` and `sources`
/// by `SourceId` — dataset interning order, which is deterministic —
/// so equal results produce byte-equal serializations.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct QueryResponse {
    /// Name-resolved predictions matching the query.
    pub predictions: Vec<Prediction>,
    /// Name-resolved source trust scores matching the query.
    pub sources: Vec<SourceTrust>,
    /// `Some` when the run that produced the underlying result was
    /// degraded (budget exhausted / cancelled) — the answer is
    /// best-so-far, not complete. Consumers must surface this flag.
    #[serde(default)]
    pub degradation: Option<Degradation>,
    /// Per-run (or, in td-serve, per-request) profile counter deltas,
    /// when observation was enabled.
    #[serde(default)]
    pub profile: Option<RunProfile>,
}

impl TruthQuery {
    /// Answers the query against a TD-AC outcome, forwarding the
    /// outcome's degradation flag and profile deltas into the
    /// response.
    pub fn answer(
        &self,
        dataset: &Dataset,
        outcome: &TdacOutcome,
    ) -> Result<QueryResponse, ModelError> {
        let mut resp = self.answer_result(dataset, &outcome.result)?;
        resp.degradation = outcome.degradation.clone();
        resp.profile = outcome.profile.clone();
        Ok(resp)
    }

    /// Answers the query against a bare [`TruthResult`] (a plain base
    /// run with no degradation/profile channel).
    ///
    /// Unknown names yield [`ModelError::UnknownEntity`] carrying the
    /// entity kind and the offending name; a resolvable cell with no
    /// prediction yields an empty `predictions` list, not an error.
    pub fn answer_result(
        &self,
        dataset: &Dataset,
        result: &TruthResult,
    ) -> Result<QueryResponse, ModelError> {
        let mut resp = QueryResponse::default();
        match self {
            TruthQuery::All => {
                resp.predictions = sorted_predictions(dataset, result);
                resp.sources = all_sources(dataset, result);
            }
            TruthQuery::Object(object) => {
                let oid = dataset.object_id(object).ok_or_else(|| {
                    ModelError::UnknownEntity {
                        kind: "object",
                        name: object.clone(),
                    }
                })?;
                // One lookup per attribute, in ascending id: the same
                // rows and order as `All` filtered to this object.
                resp.predictions = dataset
                    .attribute_ids()
                    .filter_map(|aid| cell_prediction(dataset, result, oid, aid))
                    .collect();
            }
            TruthQuery::Attribute(object, attribute) => {
                let oid = dataset.object_id(object).ok_or_else(|| {
                    ModelError::UnknownEntity {
                        kind: "object",
                        name: object.clone(),
                    }
                })?;
                let aid = dataset.attribute_id(attribute).ok_or_else(|| {
                    ModelError::UnknownEntity {
                        kind: "attribute",
                        name: attribute.clone(),
                    }
                })?;
                resp.predictions
                    .extend(cell_prediction(dataset, result, oid, aid));
            }
            TruthQuery::Source(source) => {
                let sid = dataset.source_id(source).ok_or_else(|| {
                    ModelError::UnknownEntity {
                        kind: "source",
                        name: source.clone(),
                    }
                })?;
                let trust =
                    result.source_trust.get(sid.index()).copied().unwrap_or(0.0);
                resp.sources.push(SourceTrust {
                    source: source.clone(),
                    trust,
                });
            }
        }
        Ok(resp)
    }
}

/// All predictions, in `(ObjectId, AttributeId)` order (the order
/// [`TruthResult::iter`] yields) for byte-stable output.
fn sorted_predictions(dataset: &Dataset, result: &TruthResult) -> Vec<Prediction> {
    result
        .iter()
        .map(|(o, a, v, c)| prediction(dataset, o, a, v, c))
        .collect()
}

/// The name-resolved prediction of one cell, if the result has one.
fn cell_prediction(
    dataset: &Dataset,
    result: &TruthResult,
    o: ObjectId,
    a: AttributeId,
) -> Option<Prediction> {
    let (v, c) = (result.prediction(o, a)?, result.confidence(o, a)?);
    Some(prediction(dataset, o, a, v, c))
}

fn prediction(dataset: &Dataset, o: ObjectId, a: AttributeId, v: ValueId, c: f64) -> Prediction {
    Prediction {
        object: dataset.object_name(o).to_string(),
        attribute: dataset.attribute_name(a).to_string(),
        value: dataset.value(v).clone(),
        confidence: c,
    }
}

/// Every source's trust score, in `SourceId` order.
fn all_sources(dataset: &Dataset, result: &TruthResult) -> Vec<SourceTrust> {
    dataset
        .source_ids()
        .map(|sid| SourceTrust {
            source: dataset.source_name(sid).to_string(),
            trust: result.source_trust.get(sid.index()).copied().unwrap_or(0.0),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use td_algorithms::{MajorityVote, TruthDiscovery};
    use td_model::DatasetBuilder;

    fn fixture() -> (Dataset, TruthResult) {
        let mut b = DatasetBuilder::new();
        for o in ["o1", "o2"] {
            for a in ["a1", "a2"] {
                b.claim("s1", o, a, Value::text("x")).unwrap();
                b.claim("s2", o, a, Value::text("x")).unwrap();
                b.claim("s3", o, a, Value::text("y")).unwrap();
            }
        }
        let dataset = b.build();
        let result = MajorityVote.discover(&dataset.view_all());
        (dataset, result)
    }

    #[test]
    fn all_returns_every_cell_sorted() {
        let (dataset, result) = fixture();
        let resp = TruthQuery::All.answer_result(&dataset, &result).unwrap();
        assert_eq!(resp.predictions.len(), 4);
        let cells: Vec<_> = resp
            .predictions
            .iter()
            .map(|p| (p.object.as_str(), p.attribute.as_str()))
            .collect();
        assert_eq!(
            cells,
            vec![("o1", "a1"), ("o1", "a2"), ("o2", "a1"), ("o2", "a2")]
        );
        assert_eq!(resp.sources.len(), 3);
        assert_eq!(resp.sources[0].source, "s1");
        assert!(resp.degradation.is_none());
        assert!(resp.profile.is_none());
    }

    #[test]
    fn object_query_restricts_and_attribute_query_pinpoints() {
        let (dataset, result) = fixture();
        let resp = TruthQuery::Object("o2".into())
            .answer_result(&dataset, &result)
            .unwrap();
        assert_eq!(resp.predictions.len(), 2);
        assert!(resp.predictions.iter().all(|p| p.object == "o2"));
        assert!(resp.sources.is_empty());

        let resp = TruthQuery::Attribute("o1".into(), "a2".into())
            .answer_result(&dataset, &result)
            .unwrap();
        assert_eq!(resp.predictions.len(), 1);
        assert_eq!(resp.predictions[0].value, Value::text("x"));
        assert!(resp.predictions[0].confidence > 0.5);
    }

    #[test]
    fn object_answer_equals_the_all_answer_filtered() {
        // A DS1 world with some claims dropped, so objects miss some
        // attributes, predicted by a whole TD-AC run.
        let world = datagen::generate_synthetic(&datagen::SyntheticConfig::ds1().scaled(40));
        let dataset = world
            .dataset
            .subset_where(|c| (c.object.0 * 7 + c.attribute.0 * 3) % 5 != 0)
            .unwrap();
        let outcome = crate::Tdac::new(crate::TdacConfig::default())
            .run(&MajorityVote, &dataset)
            .unwrap();
        let all = TruthQuery::All.answer(&dataset, &outcome).unwrap();
        for o in dataset.object_ids() {
            let name = dataset.object_name(o);
            let resp = TruthQuery::Object(name.into())
                .answer(&dataset, &outcome)
                .unwrap();
            let expected: Vec<_> = all
                .predictions
                .iter()
                .filter(|p| p.object == name)
                .cloned()
                .collect();
            assert!(!expected.is_empty());
            assert_eq!(
                serde_json::to_string(&resp.predictions).unwrap(),
                serde_json::to_string(&expected).unwrap(),
                "object {name}"
            );
        }
        let err = TruthQuery::Object("ghost".into())
            .answer(&dataset, &outcome)
            .unwrap_err();
        assert_eq!(
            err,
            ModelError::UnknownEntity {
                kind: "object",
                name: "ghost".into()
            }
        );
    }

    #[test]
    fn source_query_resolves_trust() {
        let (dataset, result) = fixture();
        let resp = TruthQuery::Source("s3".into())
            .answer_result(&dataset, &result)
            .unwrap();
        assert_eq!(resp.sources.len(), 1);
        assert_eq!(resp.sources[0].source, "s3");
        let all = TruthQuery::All.answer_result(&dataset, &result).unwrap();
        assert_eq!(
            resp.sources[0].trust.to_bits(),
            all.sources[2].trust.to_bits()
        );
    }

    #[test]
    fn unknown_names_are_typed_errors() {
        let (dataset, result) = fixture();
        for (q, kind, name) in [
            (TruthQuery::Object("ghost".into()), "object", "ghost"),
            (
                TruthQuery::Attribute("o1".into(), "zz".into()),
                "attribute",
                "zz",
            ),
            (TruthQuery::Source("nobody".into()), "source", "nobody"),
        ] {
            let err = q.answer_result(&dataset, &result).unwrap_err();
            assert_eq!(
                err,
                ModelError::UnknownEntity {
                    kind,
                    name: name.into()
                }
            );
        }
    }

    #[test]
    fn answer_forwards_degradation_and_profile() {
        use crate::{Tdac, TdacConfig};
        let (dataset, _) = fixture();
        let cfg = TdacConfig::builder()
            .observer(td_obs::Observer::enabled())
            .build()
            .unwrap();
        let outcome = Tdac::new(cfg).run(&MajorityVote, &dataset).unwrap();
        let resp = TruthQuery::All.answer(&dataset, &outcome).unwrap();
        assert!(resp.profile.is_some(), "enabled observer must surface deltas");
        assert_eq!(resp.degradation.is_some(), outcome.degradation.is_some());
    }

    #[test]
    fn query_round_trips_through_json() {
        for q in [
            TruthQuery::All,
            TruthQuery::Object("o1".into()),
            TruthQuery::Attribute("o1".into(), "a2".into()),
            TruthQuery::Source("s3".into()),
        ] {
            let json = serde_json::to_string(&q).unwrap();
            let back: TruthQuery = serde_json::from_str(&json).unwrap();
            assert_eq!(back, q);
        }
    }

    #[test]
    fn response_serialization_is_byte_stable() {
        let (dataset, result) = fixture();
        let a = TruthQuery::All.answer_result(&dataset, &result).unwrap();
        let b = TruthQuery::All.answer_result(&dataset, &result).unwrap();
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
        let back: QueryResponse =
            serde_json::from_str(&serde_json::to_string(&a).unwrap()).unwrap();
        assert_eq!(back.predictions, a.predictions);
        assert_eq!(back.sources, a.sources);
    }
}
