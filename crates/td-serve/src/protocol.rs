//! The line-delimited JSON wire protocol.
//!
//! One request per line, one response per line, over a plain TCP
//! stream. Requests are externally tagged by operation:
//!
//! ```text
//! {"id":1,"deadline_ms":250,"op":{"Query":{"Attribute":["o1","a1"]}}}
//! {"id":2,"op":{"Ingest":[{"source":"s9","object":"o1","attribute":"a1",
//!                          "value":{"t":"Text","v":"x"}}]}}
//! {"id":3,"op":"Stats"}
//! ```
//!
//! Responses echo the request `id`, carry the snapshot `generation`
//! they were answered against, and are tagged by body kind — `Query`,
//! `Ingest`, `Stats` or `Error`. Every failure is a typed
//! [`WireError`]; the server never answers a parseable request with
//! silence or a closed connection. See `docs/SERVING.md` for the full
//! contract (deadline semantics, admission control, degradation).

use serde::{Deserialize, Serialize};

use td_model::{ClaimBatch, ModelError, Value};
use td_obs::{Degradation, RunProfile};
use tdac_core::{QueryResponse, SessionError, TruthQuery};

/// One client request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// Client-chosen correlation id, echoed verbatim in the response.
    #[serde(default)]
    pub id: u64,
    /// Per-request deadline in milliseconds, measured from the moment
    /// the server reads the line. `None` uses the server's default (if
    /// any); `Some(0)` is rejected as a bad request.
    #[serde(default)]
    pub deadline_ms: Option<u64>,
    /// The operation to perform.
    pub op: RequestOp,
}

/// The operation carried by a [`Request`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RequestOp {
    /// Answer a truth query against the current generation snapshot.
    Query(TruthQuery),
    /// Ingest a claim batch through the shared session, producing the
    /// next generation.
    Ingest(Vec<WireClaim>),
    /// Report server and dataset statistics.
    Stats,
}

/// One claim row of an ingest batch, name-addressed like
/// [`td_model::ClaimBatch::claim`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireClaim {
    /// Source name.
    pub source: String,
    /// Object name.
    pub object: String,
    /// Attribute name.
    pub attribute: String,
    /// The asserted value.
    pub value: Value,
}

/// Converts wire claim rows into a model-layer batch.
pub fn claims_to_batch(claims: &[WireClaim]) -> ClaimBatch {
    let mut batch = ClaimBatch::new();
    for c in claims {
        batch.claim(&c.source, &c.object, &c.attribute, c.value.clone());
    }
    batch
}

/// One server response.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Response {
    /// The request's correlation id (0 when the request line could not
    /// be parsed far enough to recover one).
    pub id: u64,
    /// The dataset generation this response was computed against:
    /// the number of successfully ingested batches since the server
    /// started. Queries report the generation of the snapshot they
    /// read; ingests report the generation they *produced*.
    pub generation: u64,
    /// The payload.
    pub body: ResponseBody,
}

/// The payload of a [`Response`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum ResponseBody {
    /// Answer to [`RequestOp::Query`].
    Query(QueryResponse),
    /// Acknowledgement of [`RequestOp::Ingest`].
    Ingest(IngestAck),
    /// Answer to [`RequestOp::Stats`].
    Stats(ServerStats),
    /// Any failure, typed.
    Error(WireError),
}

/// What an accepted ingest did. Mirrors the interesting parts of
/// [`tdac_core::IngestReport`], minus the full outcome (query for it).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IngestAck {
    /// Claims actually appended (batch rows minus duplicates).
    pub appended_claims: usize,
    /// Attributes recomputed by this ingest.
    pub dirty_attributes: usize,
    /// Whether the k-sweep re-ran.
    pub repartitioned: bool,
    /// Whether vectors/distances were rebuilt from scratch.
    pub rebuilt: bool,
    /// Groups whose cached partial was reused verbatim.
    pub groups_reused: usize,
    /// Total groups in the new partition.
    pub groups_total: usize,
    /// `Some` when the ingest ran out of budget (deadline) and the new
    /// generation is best-so-far rather than complete. Never silent:
    /// a degraded generation is flagged here *and* on every query
    /// response answered from it.
    #[serde(default)]
    pub degradation: Option<Degradation>,
    /// Profile counter deltas for this ingest, when the session's
    /// observer is enabled.
    #[serde(default)]
    pub profile: Option<RunProfile>,
}

/// Server and dataset statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerStats {
    /// Current dataset generation (successful ingests since start).
    pub generation: u64,
    /// Requests currently admitted and executing.
    pub inflight: usize,
    /// The admission bound (`--max-inflight`).
    pub max_inflight: usize,
    /// Sources in the current snapshot.
    pub n_sources: usize,
    /// Objects in the current snapshot.
    pub n_objects: usize,
    /// Attributes in the current snapshot.
    pub n_attributes: usize,
    /// Claims in the current snapshot.
    pub n_claims: usize,
}

/// The kind of a [`WireError`] — stable, matchable, documented in
/// `docs/SERVING.md`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WireErrorKind {
    /// Admission control rejected the request: `max_inflight` requests
    /// were already executing. Back off and retry.
    Overloaded,
    /// The request's deadline expired before the server could start
    /// (or finish admitting) the work. Nothing was changed.
    DeadlineExceeded,
    /// The request line was not valid protocol JSON, or carried an
    /// invalid field (e.g. `deadline_ms: 0`).
    BadRequest,
    /// A query named a source/object/attribute the dataset does not
    /// have; the offending name is in the matching field.
    UnknownEntity,
    /// An ingest batch was rejected by the model layer (e.g. a source
    /// contradicting its own earlier claim); the dataset is unchanged
    /// and the offending entity names are in the matching fields.
    RejectedBatch,
    /// The dataset (or the batch's effect on it) is degenerate for
    /// truth discovery.
    Degenerate,
    /// The pipeline failed internally (isolated worker panic, invalid
    /// config). The server stays up; the dataset may have kept the
    /// batch — check `Stats`.
    Internal,
}

/// A typed wire error. `source` / `object` / `attribute` name the
/// offending entities when the underlying error identifies them —
/// the serve-path contract for `Dataset::validate_for_discovery` and
/// friends (a client must never have to parse `message` to learn
/// *which* entity was at fault).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireError {
    /// The stable error kind.
    pub kind: WireErrorKind,
    /// Human-readable description.
    pub message: String,
    /// Offending source name, when identified.
    #[serde(default)]
    pub source: Option<String>,
    /// Offending object name, when identified.
    #[serde(default)]
    pub object: Option<String>,
    /// Offending attribute name, when identified.
    #[serde(default)]
    pub attribute: Option<String>,
}

impl WireError {
    /// A bare error with no entity attribution.
    pub fn new(kind: WireErrorKind, message: impl Into<String>) -> Self {
        WireError {
            kind,
            message: message.into(),
            source: None,
            object: None,
            attribute: None,
        }
    }

    /// Maps a model-layer error onto the wire, hoisting every entity
    /// name the typed variant carries into the structured fields.
    pub fn from_model(e: &ModelError) -> Self {
        let mut w = WireError::new(WireErrorKind::Internal, e.to_string());
        match e {
            ModelError::ConflictingClaim {
                source,
                object,
                attribute,
            } => {
                w.kind = WireErrorKind::RejectedBatch;
                w.source = Some(source.clone());
                w.object = Some(object.clone());
                w.attribute = Some(attribute.clone());
            }
            ModelError::UnknownEntity { kind, name } => {
                w.kind = WireErrorKind::UnknownEntity;
                match *kind {
                    "source" => w.source = Some(name.clone()),
                    "object" => w.object = Some(name.clone()),
                    "attribute" => w.attribute = Some(name.clone()),
                    _ => {}
                }
            }
            ModelError::TruthForUnknownCell { object, attribute } => {
                w.kind = WireErrorKind::RejectedBatch;
                w.object = Some(object.clone());
                w.attribute = Some(attribute.clone());
            }
            ModelError::DegenerateDataset { lone_source, .. } => {
                w.kind = WireErrorKind::Degenerate;
                w.source = lone_source.clone();
            }
            ModelError::Parse(_) => {
                w.kind = WireErrorKind::BadRequest;
            }
        }
        w
    }

    /// Maps a session-layer error onto the wire: model rejections keep
    /// their entity attribution, pipeline failures become `Internal`.
    pub fn from_session(e: &SessionError) -> Self {
        match e {
            SessionError::Model(m) => WireError::from_model(m),
            SessionError::Tdac(t) => {
                WireError::new(WireErrorKind::Internal, t.to_string())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips() {
        let req = Request {
            id: 7,
            deadline_ms: Some(250),
            op: RequestOp::Query(TruthQuery::Attribute("o1".into(), "a1".into())),
        };
        let line = serde_json::to_string(&req).unwrap();
        assert!(!line.contains('\n'));
        let back: Request = serde_json::from_str(&line).unwrap();
        assert_eq!(back, req);
    }

    /// Whether `line` fails to parse as a `T` on a thread with the 2 MiB
    /// stack the server's workers get, where a parser without a nesting
    /// cap overflows the stack instead.
    fn rejected_on_a_worker_stack<T: serde::Deserialize>(line: String) -> bool {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || serde_json::from_str::<T>(&line).is_err())
            .expect("spawn a parsing thread")
            .join()
            .expect("parsing never panics")
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        assert!(rejected_on_a_worker_stack::<Request>("[".repeat(20_000)));
        assert!(rejected_on_a_worker_stack::<Request>(
            r#"{"op":"#.repeat(20_000)
        ));
        // A legal nest at the cap still parses as JSON.
        let nest = "[".repeat(128) + &"]".repeat(128);
        assert!(!rejected_on_a_worker_stack::<serde_json::Value>(nest));
    }

    #[test]
    fn request_id_and_deadline_default() {
        let req: Request =
            serde_json::from_str(r#"{"op":"Stats"}"#).unwrap();
        assert_eq!(req.id, 0);
        assert_eq!(req.deadline_ms, None);
        assert_eq!(req.op, RequestOp::Stats);
    }

    #[test]
    fn ingest_request_parses_claims() {
        let req: Request = serde_json::from_str(
            r#"{"id":2,"op":{"Ingest":[
                {"source":"s9","object":"o1","attribute":"a1",
                 "value":{"t":"Text","v":"x"}}]}}"#,
        )
        .unwrap();
        let RequestOp::Ingest(claims) = &req.op else {
            panic!("expected ingest, got {:?}", req.op);
        };
        assert_eq!(claims.len(), 1);
        assert_eq!(claims[0].value, Value::text("x"));
        let batch = claims_to_batch(claims);
        assert_eq!(batch.len(), 1);
    }

    #[test]
    fn conflicting_claim_names_all_three_entities() {
        let w = WireError::from_model(&ModelError::ConflictingClaim {
            source: "s1".into(),
            object: "o1".into(),
            attribute: "a1".into(),
        });
        assert_eq!(w.kind, WireErrorKind::RejectedBatch);
        assert_eq!(w.source.as_deref(), Some("s1"));
        assert_eq!(w.object.as_deref(), Some("o1"));
        assert_eq!(w.attribute.as_deref(), Some("a1"));
    }

    #[test]
    fn unknown_entity_fills_the_matching_field() {
        for (kind, field) in [("source", 0), ("object", 1), ("attribute", 2)] {
            let w = WireError::from_model(&ModelError::UnknownEntity {
                kind,
                name: "ghost".into(),
            });
            assert_eq!(w.kind, WireErrorKind::UnknownEntity);
            let fields = [&w.source, &w.object, &w.attribute];
            for (i, f) in fields.iter().enumerate() {
                assert_eq!(f.as_deref(), (i == field).then_some("ghost"));
            }
        }
    }

    #[test]
    fn degenerate_error_carries_the_lone_source() {
        let w = WireError::from_model(&ModelError::DegenerateDataset {
            n_sources: 1,
            n_objects: 3,
            n_claims: 5,
            lone_source: Some("only-feed".into()),
        });
        assert_eq!(w.kind, WireErrorKind::Degenerate);
        assert_eq!(w.source.as_deref(), Some("only-feed"));
        assert!(w.message.contains("only-feed"));
    }

    #[test]
    fn error_response_round_trips() {
        let resp = Response {
            id: 3,
            generation: 4,
            body: ResponseBody::Error(WireError::new(
                WireErrorKind::Overloaded,
                "admission queue full",
            )),
        };
        let line = serde_json::to_string(&resp).unwrap();
        let back: Response = serde_json::from_str(&line).unwrap();
        assert_eq!(back.id, 3);
        assert_eq!(back.generation, 4);
        let ResponseBody::Error(w) = back.body else {
            panic!("expected error body");
        };
        assert_eq!(w.kind, WireErrorKind::Overloaded);
    }
}
