//! `serve_stream`: a served session taking open-loop ingests on one
//! connection and closed-loop `Object` lookups on another.
//!
//! Connection A sends one batch of new objects every 1/5 s and times
//! each from its due time, so a stall is charged to every batch queued
//! behind it. Connection B looks up seeded-random served objects with
//! no think time. Afterwards a local session replays the same batches;
//! its final `All` answer must match the server's byte for byte.
//!
//! The traced run serves with the session observer enabled and then
//! replays the stream on two local sessions, one observed and one not,
//! timing each layer's public calls after every ingest and every
//! sampled lookup.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use td_algorithms::{algorithm_by_name, TruthResult};
use td_obs::{Counter, Observer};
use td_serve::{
    claims_to_batch, Client, Request, RequestOp, Response, ResponseBody, ServeConfig, Server,
    WireErrorKind,
};
use td_store::DatasetStore;
use tdac_core::{
    truth_vector_set_from_result, ExecutionBackend, Parallelism, QueryResponse, RepartitionPolicy,
    TdacConfig, TdacSession, TruthQuery,
};

use crate::harness::{check_answer, finish_layers, open_loop, time_setup, Ctx, Rng};
use crate::inputs::{HeldOut, NamedTruth};
use crate::report::RunResult;
use crate::stats::{median, tail_percentile};
use crate::trace::Tracer;
use crate::workloads::{Workload, BATCHES_PER_S, DRIFT_THRESHOLD};

/// Server accept-loop workers.
const SERVER_WORKERS: usize = 2;

/// Set-up repetitions (each is ~0.3 s, well above timer noise).
const SETUP_REPS: usize = 3;

/// Untimed lookups before the measurement window.
const WARMUP_LOOKUPS: usize = 200;

/// The traced run keeps every n-th lookup for the replay.
const LOOKUP_SAMPLE_EVERY: usize = 16;

type Session = TdacSession<td_serve::BoxedBase>;

fn start_session(
    w: &Workload,
    store: &DatasetStore,
    observer: Observer,
) -> Result<Session, String> {
    let base = algorithm_by_name(w.algorithm).ok_or("unknown algorithm")?;
    let config = TdacConfig {
        backend: ExecutionBackend::in_process(Parallelism::Threads(1)),
        observer,
        ..TdacConfig::default()
    };
    TdacSession::start_store(
        base,
        config,
        RepartitionPolicy::OnDrift(DRIFT_THRESHOLD),
        store,
    )
    .map_err(|e| format!("starting the session: {e}"))
}

/// Sets a flag when dropped, so the lookup loop stops even if the
/// ingest thread fails early.
struct Done<'a>(&'a AtomicBool);

impl Drop for Done<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

/// An ingest ack must be an undegraded `Ingest` body for generation
/// `generation` that appended the whole batch.
fn check_ack(resp: Response, generation: u64, claims: usize) -> Result<(), String> {
    match resp.body {
        ResponseBody::Ingest(ack) => {
            if let Some(d) = ack.degradation {
                Err(format!("ingest {generation}: degraded: {d:?}"))
            } else if resp.generation != generation {
                Err(format!(
                    "ingest {generation}: acked generation {}",
                    resp.generation
                ))
            } else if ack.appended_claims != claims {
                Err(format!(
                    "ingest {generation}: appended {} of {claims} claims",
                    ack.appended_claims
                ))
            } else {
                Ok(())
            }
        }
        ResponseBody::Error(e) => Err(format!("ingest {generation}: {:?}: {}", e.kind, e.message)),
        other => Err(format!("ingest {generation}: unexpected body {other:?}")),
    }
}

fn lookup_answer(query: &TruthQuery, resp: &Response) -> Result<QueryResponse, String> {
    match &resp.body {
        ResponseBody::Query(q) => Ok(q.clone()),
        ResponseBody::Error(e) => Err(format!("{query:?}: {:?}: {}", e.kind, e.message)),
        other => Err(format!("{query:?}: unexpected body {other:?}")),
    }
}

fn is_overloaded(resp: &Response) -> bool {
    matches!(&resp.body, ResponseBody::Error(e) if e.kind == WireErrorKind::Overloaded)
}

/// The bytes that decide the byte-identity check: predictions and trust
/// scores of an `All` answer (profiles carry timings, so they differ).
fn answer_bytes(q: &QueryResponse) -> String {
    format!(
        "{}\n{}",
        serde_json::to_string(&q.predictions).expect("predictions serialize"),
        serde_json::to_string(&q.sources).expect("trust scores serialize")
    )
}

/// Runs `serve_stream`.
pub fn run(w: &Workload, ctx: &Ctx) -> Result<RunResult, String> {
    let mut out = RunResult::default();
    let mut t = Tracer::new(ctx.trace);
    let input = ctx.files.input(0);
    let held = HeldOut::load(&ctx.files)?;
    let batches = held.batches();
    let load = |t: &mut Tracer| {
        t.span("store.load", |_| DatasetStore::load(&input))
            .map_err(|e| format!("loading {}: {e}", input.display()))
    };
    let served: Vec<String> = {
        let store = load(&mut Tracer::new(false))?;
        let d = &store.dataset;
        d.object_ids()
            .map(|o| d.object_name(o).to_string())
            .collect()
    };
    let mut rng = Rng::new(ctx.seed);
    let server_observer = if ctx.trace {
        Observer::enabled()
    } else {
        Observer::disabled()
    };

    // Ready = loaded, session started, bound, and a first answer back.
    let ((server, mut client), setup) = time_setup(&mut t, SETUP_REPS, 0.0, |t| {
        let store = load(t)?;
        let session = start_session(w, &store, server_observer.clone())?;
        drop(store);
        let server = Server::bind(
            "127.0.0.1:0",
            session,
            ServeConfig {
                workers: SERVER_WORKERS,
                ..ServeConfig::default()
            },
        )
        .map_err(|e| format!("binding the server: {e}"))?;
        let mut client = Client::connect(server.local_addr()).map_err(|e| e.to_string())?;
        let query = TruthQuery::Object(served[0].clone());
        let resp = client
            .query(query.clone(), None)
            .map_err(|e| e.to_string())?;
        check_answer(&query, lookup_answer(&query, &resp))?;
        Ok((server, client))
    })?;
    out.samples.insert("setup", setup.len());
    out.set("setup_s", median(&setup).expect("set-up ran"));

    for _ in 0..WARMUP_LOOKUPS {
        let name = &served[rng.below(served.len())];
        client
            .query(TruthQuery::Object(name.clone()), None)
            .map_err(|e| format!("warm-up lookup: {e}"))?;
    }

    // The measurement window: open-loop ingests beside closed-loop
    // lookups.
    let addr = server.local_addr();
    let done = AtomicBool::new(false);
    let t0 = Instant::now() + Duration::from_millis(50);
    let mut rtts = Vec::new();
    let mut sampled: Vec<(String, Response)> = Vec::new();
    let mut overloaded = 0usize;
    let ingest_log = std::thread::scope(|s| {
        let ingests = s.spawn(|| {
            let _done = Done(&done);
            let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
            let batches = (0..batches).map(|i| held.batch(i));
            Ok::<_, String>(open_loop(t0, BATCHES_PER_S, batches, |claims| {
                let n = claims.len();
                (n, client.ingest(claims, None))
            }))
        });
        let mut n = 0usize;
        while !done.load(Ordering::Acquire) {
            let name = &served[rng.below(served.len())];
            let query = TruthQuery::Object(name.clone());
            let start = Instant::now();
            let resp = client.query(query.clone(), None);
            rtts.push(start.elapsed().as_secs_f64() * 1e3);
            let checked = match resp {
                Ok(r) => {
                    overloaded += is_overloaded(&r) as usize;
                    let result = check_answer(&query, lookup_answer(&query, &r));
                    if ctx.trace && n.is_multiple_of(LOOKUP_SAMPLE_EVERY) {
                        sampled.push((name.clone(), r));
                    }
                    result
                }
                Err(e) => Err(format!("lookup {name}: {e}")),
            };
            out.tally.op(checked);
            n += 1;
        }
        ingests.join().expect("the ingest thread does not panic")
    })?;

    let mut ingest_ms = Vec::new();
    let mut rtt_ingest = Vec::new();
    let mut late: f64 = 0.0;
    for (i, timed) in ingest_log.into_iter().enumerate() {
        ingest_ms.push(timed.latency_ms());
        rtt_ingest.push(timed.service_ms());
        late = late.max(timed.late_ms());
        let (claims, resp) = timed.value;
        let generation = i as u64 + 1;
        out.tally.op(match resp {
            Ok(r) => {
                overloaded += is_overloaded(&r) as usize;
                check_ack(r, generation, claims)
            }
            Err(e) => Err(format!("ingest {generation}: {e}")),
        });
    }
    out.samples.insert("ingests", ingest_ms.len());
    out.samples.insert("lookups", rtts.len());
    out.set("run_p50_ms", median(&ingest_ms).ok_or("no ingest ran")?);
    // The ingest tail is recorded, not bounded: every run prints every
    // end-to-end metric, and the batch workloads have no ingest stream
    // to take a tail from.
    if let Some(p90) = tail_percentile(&ingest_ms, 90.0) {
        out.recorded.insert("ingest_p90_ms", p90);
    }
    out.set(
        "query_p90_ms",
        tail_percentile(&rtts, 90.0).ok_or("too few lookups for a p90")?,
    );

    // Read before the final `All` check, whose full answer is not part
    // of the workload.
    out.set("peak_rss_mb", crate::sys::peak_rss_mb()?);
    let final_all = client
        .query(TruthQuery::All, None)
        .map_err(|e| format!("final All query: {e}"))?;
    drop(client);
    drop(server);
    if final_all.generation != batches as u64 {
        out.tally.fail(format!(
            "final generation {} after {batches} batches",
            final_all.generation
        ));
    }
    let served_all = lookup_answer(&TruthQuery::All, &final_all)?;

    // Local replay of the same batches: the reference for the served
    // answer, and in the traced run the per-layer measurements.
    let store = load(&mut Tracer::new(false))?;
    let mut plain = start_session(w, &store, Observer::disabled())?;
    let mut observed = if ctx.trace {
        Some(start_session(w, &store, Observer::enabled())?)
    } else {
        None
    };
    drop(store);
    let mut plain_ms = Vec::new();
    let mut counters = Counters::default();
    let mut pending = sampled.iter().peekable();
    for i in 0..=batches {
        if let Some(session) = observed.as_mut() {
            while let Some((name, resp)) = pending.next_if(|(_, r)| r.generation as usize == i) {
                replay_lookup(&mut t, session, name, resp);
            }
        }
        if i == batches {
            break;
        }
        let batch = claims_to_batch(&held.batch(i));
        let start = Instant::now();
        plain
            .ingest(&batch)
            .map_err(|e| format!("local replay of batch {}: {e}", i + 1))?;
        plain_ms.push(start.elapsed().as_secs_f64() * 1e3);
        if let Some(session) = observed.as_mut() {
            replay_ingest(&mut t, w, session, &batch, &mut counters)?;
        }
    }
    let local_all = TruthQuery::All
        .answer(plain.dataset(), plain.outcome())
        .map_err(|e| e.to_string())?;
    if answer_bytes(&local_all) != answer_bytes(&served_all) {
        out.tally
            .fail("served All answer differs from the local replay".to_string());
    }
    let truth = NamedTruth::load(&ctx.files, 0)?;
    let score = truth.score(plain.dataset(), |o, a| {
        plain.outcome().result.prediction(o, a)
    });
    out.recorded.insert("accuracy", score.accuracy());

    if ctx.trace {
        let bytes = std::fs::metadata(&input).map_err(|e| e.to_string())?.len();
        out.set("store.input_bytes", bytes as f64);
        counters.report(&mut out);
        out.set("serve.overloaded", overloaded as f64);
        out.set("serve.generator_late_ms", late);
        let m = |name: &str| median(&t.per_op_ms(name)).unwrap_or(0.0);
        out.set(
            "serve.wire_ms",
            median(&rtts).expect("lookups ran")
                - m("core.answer")
                - m("serve.encode")
                - m("serve.decode"),
        );
        let bytes = |f: &dyn Fn(&(String, Response)) -> usize| -> f64 {
            let v: Vec<f64> = sampled.iter().map(|s| f(s) as f64).collect();
            median(&v).unwrap_or(0.0)
        };
        out.set(
            "serve.request_bytes",
            bytes(&|(name, _)| lookup_request(name).len() + 1),
        );
        out.set(
            "serve.response_bytes",
            bytes(&|(_, r)| serde_json::to_string(r).expect("responses serialize").len() + 1),
        );
        let ingest = m("core.ingest");
        out.set(
            "obs.overhead_pct",
            (ingest / median(&plain_ms).expect("replayed") - 1.0) * 100.0,
        );
        out.set(
            "obs.layer_coverage",
            (ingest + m("model.snapshot_clone")) / median(&rtt_ingest).expect("ingests ran"),
        );
        // The k sweep is skipped and nothing is sharded.
        let not_applicable = [
            "store.slice_ms",
            "store.slice_bytes",
            "clustering.distance_ms",
            "clustering.kmeans_ms",
            "clustering.silhouette_ms",
            "core.select_ms",
            "shard.distributed_ms",
            "shard.spawned",
            "shard.partials",
            "shard.failures",
            "shard.retries",
            "shard.fallbacks",
        ];
        finish_layers(&mut out, &mut t, ctx, &not_applicable)?;
    }
    Ok(out)
}

/// Exact counts from the observed local session.
#[derive(Default)]
struct Counters {
    dirty: f64,
    reused: f64,
    repartitions: f64,
    fixpoint: Vec<f64>,
    kmeans: Vec<f64>,
    k_candidates: Vec<f64>,
}

impl Counters {
    fn report(&self, out: &mut RunResult) {
        out.set("core.dirty_attributes", self.dirty);
        out.set("core.groups_reused", self.reused);
        out.set("core.repartitions", self.repartitions);
        let per_ingest = |v: &[f64]| median(v).unwrap_or(0.0);
        out.set("algorithms.fixpoint_iterations", per_ingest(&self.fixpoint));
        out.set("clustering.kmeans_iterations", per_ingest(&self.kmeans));
        out.set("clustering.k_candidates", per_ingest(&self.k_candidates));
    }
}

fn lookup_request(name: &str) -> String {
    serde_json::to_string(&Request {
        id: 1,
        deadline_ms: None,
        op: RequestOp::Query(TruthQuery::Object(name.to_string())),
    })
    .expect("requests serialize")
}

/// One ingest of the traced replay: the session call, the snapshot
/// clone the server makes after it, and the base runs and merge the
/// ingest performs, each through its public call.
fn replay_ingest(
    t: &mut Tracer,
    w: &Workload,
    session: &mut Session,
    batch: &td_model::ClaimBatch,
    counters: &mut Counters,
) -> Result<(), String> {
    t.begin_op();
    let report = t
        .span("core.ingest", |_| session.ingest(batch))
        .map_err(|e| format!("observed replay: {e}"))?;
    counters.dirty += report.dirty_attributes.len() as f64;
    counters.reused += report.groups_reused as f64;
    counters.repartitions += report.repartitioned as u8 as f64;
    let profile = report.outcome.profile.clone().unwrap_or_default();
    let count = |c: Counter| profile.counter(c.name()).unwrap_or(0) as f64;
    counters.fixpoint.push(count(Counter::FixpointIterations));
    counters.kmeans.push(count(Counter::KMeansIterations));
    counters
        .k_candidates
        .push(report.outcome.k_scores.len() as f64);

    let dataset = session.dataset();
    std::hint::black_box(t.span("model.snapshot_clone", |_| dataset.clone()));
    let base = algorithm_by_name(w.algorithm).ok_or("unknown algorithm")?;
    let view = dataset.view_all();
    Parallelism::Threads(1).install(|| {
        let reference = t.span("algorithms.reference", |_| base.discover(&view));
        std::hint::black_box(t.span("core.scatter", |_| {
            truth_vector_set_from_result(&view, &reference)
        }));
        let partials: Vec<TruthResult> = report
            .outcome
            .partition
            .groups()
            .iter()
            .map(|g| {
                t.span("algorithms.group_runs", |_| {
                    base.discover(&dataset.view_of(g))
                })
            })
            .collect();
        std::hint::black_box(t.span("core.merge", |_| TruthResult::merge_all(&partials)));
    });
    Ok(())
}

/// One sampled lookup of the traced replay: the answer against the same
/// generation, and the JSON encode and decode of its request and
/// response lines.
fn replay_lookup(t: &mut Tracer, session: &Session, name: &str, served: &Response) {
    t.begin_op();
    let query = TruthQuery::Object(name.to_string());
    let answer = t.span("core.answer", |_| {
        query.answer(session.dataset(), session.outcome())
    });
    std::hint::black_box(answer.is_ok());
    let line = t.span("serve.encode", |_| {
        let request = lookup_request(name);
        let response = serde_json::to_string(served).expect("responses serialize");
        (request, response)
    });
    t.span("serve.decode", |_| {
        let request = serde_json::from_str::<Request>(&line.0);
        let response = serde_json::from_str::<Response>(&line.1);
        std::hint::black_box((request.is_ok(), response.is_ok()))
    });
}
