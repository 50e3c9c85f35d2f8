#![warn(missing_docs)]

//! # td-serve — a batched, deadline-aware serving front end for TD-AC
//!
//! A long-lived TCP service answering truth queries against a shared
//! incremental [`TdacSession`](tdac_core::TdacSession), typically
//! seeded from a `.tds` store via
//! [`TdacSession::start_store`](tdac_core::TdacSession::start_store).
//! The protocol is line-delimited JSON (one request per line, one
//! response per line) built from the workspace's typed query surface —
//! [`tdac_core::TruthQuery`] in, [`tdac_core::QueryResponse`] out. A
//! request line may be at most [`MAX_REQUEST_LINE_BYTES`] long.
//!
//! The serving contract, in one paragraph: reads coalesce against the
//! current *generation snapshot* (an immutable `Arc` swapped in after
//! each successful ingest) while ingests serialize through the session;
//! every request may carry a deadline that maps onto
//! [`td_obs::ExecutionLimits`], so an over-budget ingest produces a
//! *flagged* best-so-far generation ([`td_obs::Degradation`]) instead
//! of stalling the queue; admission is bounded — at most `max_inflight`
//! requests execute at once and the rest are rejected with a typed
//! overload error, never queued without bound; and every response
//! carries per-request [`td_obs::RunProfile`] counter deltas when
//! observation is on. See `docs/SERVING.md` for the full protocol.
//!
//! ```no_run
//! use td_algorithms::algorithm_by_name;
//! use td_model::{DatasetBuilder, Value};
//! use tdac_core::{RepartitionPolicy, TdacConfig, TdacSession, TruthQuery};
//! use td_serve::{Client, ServeConfig, Server};
//!
//! let mut b = DatasetBuilder::new();
//! b.claim("s1", "o", "a", Value::text("x")).unwrap();
//! b.claim("s2", "o", "a", Value::text("y")).unwrap();
//! let session = TdacSession::start(
//!     algorithm_by_name("majorityvote").unwrap(),
//!     TdacConfig::default(),
//!     RepartitionPolicy::Always,
//!     b.build(),
//! ).unwrap();
//!
//! let server = Server::bind("127.0.0.1:0", session, ServeConfig::default()).unwrap();
//! let mut client = Client::connect(server.local_addr()).unwrap();
//! let response = client.query(TruthQuery::All, Some(1000)).unwrap();
//! println!("{:?}", response.body);
//! ```

pub mod client;
pub mod protocol;
pub mod server;

pub use client::{Client, ClientError};
pub use protocol::{
    claims_to_batch, IngestAck, Request, RequestOp, Response, ResponseBody,
    ServerStats, WireClaim, WireError, WireErrorKind,
};
pub use server::{BoxedBase, ServeConfig, Server, MAX_REQUEST_LINE_BYTES};

#[cfg(test)]
mod tests {
    use super::*;
    use td_algorithms::algorithm_by_name;
    use td_model::{DatasetBuilder, Value};
    use tdac_core::{RepartitionPolicy, TdacConfig, TdacSession, TruthQuery};

    fn session() -> TdacSession<BoxedBase> {
        let mut b = DatasetBuilder::new();
        for o in ["o1", "o2", "o3"] {
            for a in ["a1", "a2"] {
                b.claim("s1", o, a, Value::text("x")).unwrap();
                b.claim("s2", o, a, Value::text("x")).unwrap();
                b.claim("s3", o, a, Value::text("y")).unwrap();
            }
        }
        TdacSession::start(
            algorithm_by_name("majorityvote").unwrap(),
            TdacConfig::default(),
            RepartitionPolicy::Always,
            b.build(),
        )
        .unwrap()
    }

    fn serve() -> (Server, Client) {
        let server = Server::bind(
            "127.0.0.1:0",
            session(),
            ServeConfig {
                workers: 2,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let client = Client::connect(server.local_addr()).unwrap();
        (server, client)
    }

    #[test]
    fn query_ingest_stats_round_trip() {
        let (mut server, mut client) = serve();

        let resp = client.query(TruthQuery::All, Some(5_000)).unwrap();
        assert_eq!(resp.generation, 0);
        let ResponseBody::Query(q) = resp.body else {
            panic!("expected query body, got {:?}", resp.body);
        };
        assert_eq!(q.predictions.len(), 6);
        assert_eq!(q.sources.len(), 3);
        assert!(q.degradation.is_none());
        assert!(q.profile.is_some(), "per-request metrics must be attached");

        let resp = client
            .ingest(
                vec![WireClaim {
                    source: "s4".into(),
                    object: "o1".into(),
                    attribute: "a1".into(),
                    value: Value::text("x"),
                }],
                Some(60_000),
            )
            .unwrap();
        assert_eq!(resp.generation, 1);
        let ResponseBody::Ingest(ack) = resp.body else {
            panic!("expected ingest ack, got {:?}", resp.body);
        };
        assert_eq!(ack.appended_claims, 1);
        assert!(ack.degradation.is_none());

        let resp = client.stats().unwrap();
        let ResponseBody::Stats(stats) = resp.body else {
            panic!("expected stats body, got {:?}", resp.body);
        };
        assert_eq!(stats.generation, 1);
        assert_eq!(stats.n_sources, 4);
        assert_eq!(stats.n_claims, 19);

        server.shutdown();
    }

    #[test]
    fn unknown_entity_and_malformed_lines_are_typed_errors() {
        let (mut server, mut client) = serve();

        let resp = client
            .query(TruthQuery::Source("nobody".into()), None)
            .unwrap();
        let ResponseBody::Error(err) = resp.body else {
            panic!("expected error body, got {:?}", resp.body);
        };
        assert_eq!(err.kind, WireErrorKind::UnknownEntity);
        assert_eq!(err.source.as_deref(), Some("nobody"));

        let resp = client.send_raw(b"this is not json\n").unwrap();
        let ResponseBody::Error(err) = resp.body else {
            panic!("expected error body, got {:?}", resp.body);
        };
        assert_eq!(err.kind, WireErrorKind::BadRequest);

        // The connection survives bad lines: the next request works.
        let resp = client.query(TruthQuery::Object("o2".into()), None).unwrap();
        assert!(matches!(resp.body, ResponseBody::Query(_)));

        server.shutdown();
    }

    #[test]
    fn deeply_nested_line_is_a_bad_request() {
        // One 20 KB line of `[` used to overflow a worker thread's stack
        // and abort the whole server.
        let (mut server, mut client) = serve();
        let mut line = "[".repeat(20_000).into_bytes();
        line.push(b'\n');
        let resp = client.send_raw(&line).unwrap();
        let ResponseBody::Error(err) = resp.body else {
            panic!("expected error body, got {:?}", resp.body);
        };
        assert_eq!(err.kind, WireErrorKind::BadRequest);
        assert!(err.message.contains("nesting"), "{}", err.message);
        let resp = client.query(TruthQuery::Object("o2".into()), None).unwrap();
        assert!(matches!(resp.body, ResponseBody::Query(_)));
        server.shutdown();
    }

    #[test]
    fn over_cap_line_is_a_bad_request_then_a_close() {
        use std::io::{Read, Write};
        // A line that never ends used to grow a worker's buffer without
        // bound while the reply never came.
        let (mut server, client) = serve();
        drop(client);
        let mut raw = std::net::TcpStream::connect(server.local_addr()).unwrap();
        raw.set_read_timeout(Some(std::time::Duration::from_secs(30)))
            .unwrap();
        // Exactly cap + 1 bytes: bytes left unread at the close would
        // make it a reset, which can swallow the reply.
        raw.write_all(&vec![b'x'; MAX_REQUEST_LINE_BYTES + 1])
            .unwrap();
        let mut reply = String::new();
        raw.read_to_string(&mut reply)
            .expect("one reply, then a close");
        assert_eq!(reply.lines().count(), 1, "{reply}");
        let resp: Response = serde_json::from_str(reply.trim()).unwrap();
        assert_eq!(resp.id, 0);
        let ResponseBody::Error(err) = resp.body else {
            panic!("expected error body, got {:?}", resp.body);
        };
        assert_eq!(err.kind, WireErrorKind::BadRequest);
        assert!(
            err.message.contains(&MAX_REQUEST_LINE_BYTES.to_string()),
            "{}",
            err.message
        );
        let mut client = Client::connect(server.local_addr()).unwrap();
        let resp = client.query(TruthQuery::Object("o2".into()), None).unwrap();
        assert!(matches!(resp.body, ResponseBody::Query(_)));
        server.shutdown();
    }

    #[test]
    fn conflicting_batch_is_rejected_with_entity_names() {
        let (mut server, mut client) = serve();
        let resp = client
            .ingest(
                vec![WireClaim {
                    source: "s1".into(),
                    object: "o1".into(),
                    attribute: "a1".into(),
                    value: Value::text("contradiction"),
                }],
                None,
            )
            .unwrap();
        let ResponseBody::Error(err) = resp.body else {
            panic!("expected error body, got {:?}", resp.body);
        };
        assert_eq!(err.kind, WireErrorKind::RejectedBatch);
        assert_eq!(err.source.as_deref(), Some("s1"));
        assert_eq!(err.object.as_deref(), Some("o1"));
        assert_eq!(err.attribute.as_deref(), Some("a1"));
        // The dataset is unchanged and the server still answers.
        let resp = client.stats().unwrap();
        let ResponseBody::Stats(stats) = resp.body else {
            panic!("expected stats body");
        };
        assert_eq!(stats.generation, 0);
        assert_eq!(stats.n_claims, 18);
        server.shutdown();
    }

    #[test]
    fn zero_deadline_is_a_bad_request() {
        let (mut server, mut client) = serve();
        let resp = client.query(TruthQuery::All, Some(0)).unwrap();
        let ResponseBody::Error(err) = resp.body else {
            panic!("expected error body, got {:?}", resp.body);
        };
        assert_eq!(err.kind, WireErrorKind::BadRequest);
        server.shutdown();
    }

    #[test]
    fn shutdown_is_idempotent_and_drop_is_clean() {
        let (mut server, _client) = serve();
        server.shutdown();
        server.shutdown();
        drop(server);
    }
}
