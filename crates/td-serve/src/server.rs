//! The thread-per-core TCP server.
//!
//! N worker threads (default: one per core) each own a clone of the
//! listening socket and run a blocking accept loop — no async runtime,
//! no cross-thread connection handoff. A connection is served by the
//! worker that accepted it, one line-delimited request at a time.
//!
//! Three pieces of shared state implement the serving contract:
//!
//! * an **admission gate** — an atomic in-flight counter bounded by
//!   [`ServeConfig::max_inflight`]; a request that would exceed it is
//!   rejected immediately with [`WireErrorKind::Overloaded`] instead of
//!   queuing without bound;
//! * a **generation snapshot** — an `RwLock<Arc<Snapshot>>` holding the
//!   dataset + outcome of the latest successful ingest. Queries clone
//!   the `Arc` (the lock is held only for the clone) and answer lock-free
//!   against it, so any number of concurrent readers coalesce on one
//!   immutable snapshot;
//! * the **session mutex** — ingests serialize through the shared
//!   [`TdacSession`]; each ingest maps its request's remaining deadline
//!   onto [`ExecutionLimits::with_deadline`] before running, so a slow
//!   batch degrades (flagged, best-so-far) rather than stalling the
//!   queue indefinitely.

use std::io::{BufReader, ErrorKind};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use serde_json::line;
use td_algorithms::TruthDiscovery;
use td_model::Dataset;
use td_obs::{ExecutionLimits, Observer};
use tdac_core::{TdacOutcome, TdacSession};

use crate::protocol::{
    claims_to_batch, IngestAck, Request, RequestOp, Response, ResponseBody,
    ServerStats, WireError, WireErrorKind,
};

/// The base-algorithm type the server hosts: any registered algorithm,
/// boxed ([`td_algorithms::algorithm_by_name`] produces exactly this).
pub type BoxedBase = Box<dyn TruthDiscovery + Send + Sync>;

/// How long a blocked connection read waits before re-checking the
/// shutdown flag. Bounds shutdown latency for idle connections.
const READ_POLL: Duration = Duration::from_millis(100);

/// The longest request line the server reads, in bytes, not counting
/// its `\n`. A longer line gets one `BadRequest` with `id: 0` and then
/// the connection closes, since the server cannot find where the next
/// line starts. A 2,000-object DS1 ingest is a 9.19 MB line.
pub const MAX_REQUEST_LINE_BYTES: usize = 16 << 20;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Maximum requests admitted concurrently; the `--max-inflight`
    /// bound of the admission gate. Must be at least 1.
    pub max_inflight: usize,
    /// Accept-loop worker threads (thread-per-core by default).
    pub workers: usize,
    /// Deadline applied to requests that carry none. `None` means such
    /// requests run unbounded (minus whatever limits the session's own
    /// config imposes).
    pub default_deadline_ms: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_inflight: 64,
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
                .min(8),
            default_deadline_ms: None,
        }
    }
}

/// The immutable state one generation's queries answer against. Its
/// dataset shares storage with the session's (a `Dataset` clone is
/// O(1)) and its outcome is the session's own, so publishing a
/// generation copies no claims and no predictions.
struct Snapshot {
    generation: u64,
    dataset: Dataset,
    outcome: Arc<TdacOutcome>,
}

/// State shared by every worker.
struct Shared {
    session: Mutex<TdacSession<BoxedBase>>,
    snapshot: RwLock<Arc<Snapshot>>,
    inflight: AtomicUsize,
    max_inflight: usize,
    default_deadline_ms: Option<u64>,
    /// The session config's own limits, the base every per-request
    /// deadline is layered onto.
    base_limits: ExecutionLimits,
    shutdown: AtomicBool,
    generation: AtomicU64,
}

/// RAII admission slot: releases the in-flight count on drop, even if
/// request handling panics.
struct AdmissionGuard<'a>(&'a AtomicUsize);

impl Drop for AdmissionGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

impl Shared {
    /// Tries to claim an admission slot.
    fn admit(&self) -> Option<AdmissionGuard<'_>> {
        let mut current = self.inflight.load(Ordering::Acquire);
        loop {
            if current >= self.max_inflight {
                return None;
            }
            match self.inflight.compare_exchange_weak(
                current,
                current + 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some(AdmissionGuard(&self.inflight)),
                Err(actual) => current = actual,
            }
        }
    }

    fn current_snapshot(&self) -> Arc<Snapshot> {
        self.snapshot
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Swaps in the next generation. The replaced one is dropped after
    /// the write lock is released: when no reader still holds it, that
    /// drop frees its dataset and outcome, and readers should not wait
    /// for it.
    fn publish(&self, snapshot: Snapshot) {
        let snapshot = Arc::new(snapshot);
        let previous = std::mem::replace(
            &mut *self.snapshot.write().unwrap_or_else(|e| e.into_inner()),
            snapshot,
        );
        drop(previous);
    }
}

/// A running server: workers accepting on a shared listener. Dropping
/// the handle shuts the server down (see [`Server::shutdown`]).
pub struct Server {
    shared: Arc<Shared>,
    local_addr: std::net::SocketAddr,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr`, seeds the generation-0 snapshot from the session's
    /// current outcome, and spawns the worker threads.
    ///
    /// # Errors
    /// Propagates socket errors; rejects `max_inflight == 0` and
    /// `workers == 0` as [`ErrorKind::InvalidInput`].
    pub fn bind(
        addr: impl ToSocketAddrs,
        session: TdacSession<BoxedBase>,
        config: ServeConfig,
    ) -> std::io::Result<Server> {
        if config.max_inflight == 0 {
            return Err(std::io::Error::new(
                ErrorKind::InvalidInput,
                "max_inflight must be at least 1",
            ));
        }
        if config.workers == 0 {
            return Err(std::io::Error::new(
                ErrorKind::InvalidInput,
                "workers must be at least 1",
            ));
        }
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let snapshot = Snapshot {
            generation: 0,
            dataset: session.dataset().clone(),
            outcome: session.shared_outcome(),
        };
        let base_limits = session.config().limits.clone();
        let shared = Arc::new(Shared {
            session: Mutex::new(session),
            snapshot: RwLock::new(Arc::new(snapshot)),
            inflight: AtomicUsize::new(0),
            max_inflight: config.max_inflight,
            default_deadline_ms: config.default_deadline_ms,
            base_limits,
            shutdown: AtomicBool::new(false),
            generation: AtomicU64::new(0),
        });
        let workers = (0..config.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let listener = listener.try_clone()?;
                Ok(std::thread::Builder::new()
                    .name(format!("td-serve-{i}"))
                    .spawn(move || accept_loop(listener, shared))
                    .expect("spawning a serve worker thread"))
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        Ok(Server {
            shared,
            local_addr,
            workers,
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.local_addr
    }

    /// The current dataset generation.
    pub fn generation(&self) -> u64 {
        self.shared.generation.load(Ordering::Acquire)
    }

    /// Signals every worker to stop, unblocks their accept calls, and
    /// joins them. Idempotent. In-flight requests finish first (their
    /// connections observe the flag at the next read poll).
    pub fn shutdown(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        // One wake-up connection per worker: accept() has no timeout,
        // so each blocked worker needs a nudge to re-check the flag.
        for _ in 0..self.workers.len() {
            let _ = TcpStream::connect(self.local_addr);
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }

    /// Blocks until shutdown is requested from another thread (or
    /// forever). Used by `tdc serve` to park the main thread.
    pub fn join(mut self) {
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    loop {
        let stream = listener.accept();
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        match stream {
            Ok((stream, _)) => serve_connection(stream, &shared),
            Err(_) => {
                // Transient accept failure (e.g. EMFILE): brief pause
                // instead of a hot error loop.
                std::thread::sleep(READ_POLL);
            }
        }
    }
}

/// Serves one connection: reads request lines, writes response lines,
/// until the client closes, a write fails, a line passes
/// [`MAX_REQUEST_LINE_BYTES`], or the server shuts down.
fn serve_connection(stream: TcpStream, shared: &Shared) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let (response, close) = match line::read(&mut reader, &mut buf, MAX_REQUEST_LINE_BYTES) {
            Ok(true) => (handle_line(shared, &buf), false),
            Ok(false) => return,
            // Read timeout: poll the shutdown flag; `buf` keeps the
            // partial line for the next read.
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                continue;
            }
            // The line passed the cap.
            Err(e) if e.kind() == ErrorKind::InvalidData => {
                let error = WireError::new(
                    WireErrorKind::BadRequest,
                    format!("request line longer than {MAX_REQUEST_LINE_BYTES} bytes; closing the connection"),
                );
                (error_response(shared, 0, error), true)
            }
            Err(_) => return,
        };
        buf.clear();
        if line::write(&mut writer, &response).is_err() || close {
            return;
        }
    }
}

/// Parses and executes one request line. Every outcome — including a
/// line that is not valid JSON — is a [`Response`].
fn handle_line(shared: &Shared, bytes: &[u8]) -> Response {
    let received = Instant::now();
    let request: Request = match line::decode(bytes) {
        Ok(r) => r,
        Err(e) => {
            return error_response(
                shared,
                0,
                WireError::new(
                    WireErrorKind::BadRequest,
                    format!("malformed request: {e}"),
                ),
            )
        }
    };
    let id = request.id;

    // Admission control: claim a slot or reject immediately — the
    // "never unbounded queuing" half of the contract.
    let Some(_guard) = shared.admit() else {
        return error_response(
            shared,
            id,
            WireError::new(
                WireErrorKind::Overloaded,
                format!(
                    "admission gate full: {} requests in flight",
                    shared.max_inflight
                ),
            ),
        );
    };

    let deadline_ms = request.deadline_ms.or(shared.default_deadline_ms);
    if deadline_ms == Some(0) {
        return error_response(
            shared,
            id,
            WireError::new(
                WireErrorKind::BadRequest,
                "deadline_ms must be at least 1 (omit it for no deadline)",
            ),
        );
    }
    let deadline = deadline_ms.map(Duration::from_millis);

    match request.op {
        RequestOp::Query(query) => {
            handle_query(shared, id, &query, received, deadline)
        }
        RequestOp::Ingest(claims) => {
            handle_ingest(shared, id, &claims, received, deadline)
        }
        RequestOp::Stats => handle_stats(shared, id),
    }
}

fn handle_query(
    shared: &Shared,
    id: u64,
    query: &tdac_core::TruthQuery,
    received: Instant,
    deadline: Option<Duration>,
) -> Response {
    if let Some(d) = deadline {
        if received.elapsed() >= d {
            return error_response(
                shared,
                id,
                WireError::new(
                    WireErrorKind::DeadlineExceeded,
                    "deadline expired before the query started",
                ),
            );
        }
    }
    // Clone the Arc under the read lock, answer outside it: concurrent
    // queries coalesce on the same immutable generation snapshot.
    let snapshot = shared.current_snapshot();
    let obs = Observer::enabled();
    let answered = {
        let _span = obs.span("serve/query");
        query.answer(&snapshot.dataset, &snapshot.outcome)
    };
    match answered {
        Ok(mut resp) => {
            // The outcome-level profile describes the ingest that built
            // this generation; per-request metrics are this query's own
            // deltas (the `serve/query` span and its counters).
            resp.profile = obs.profile();
            Response {
                id,
                generation: snapshot.generation,
                body: ResponseBody::Query(resp),
            }
        }
        Err(e) => Response {
            id,
            generation: snapshot.generation,
            body: ResponseBody::Error(WireError::from_model(&e)),
        },
    }
}

fn handle_ingest(
    shared: &Shared,
    id: u64,
    claims: &[crate::protocol::WireClaim],
    received: Instant,
    deadline: Option<Duration>,
) -> Response {
    if claims.is_empty() {
        return error_response(
            shared,
            id,
            WireError::new(WireErrorKind::BadRequest, "empty ingest batch"),
        );
    }
    let batch = claims_to_batch(claims);
    let mut session = shared.session.lock().unwrap_or_else(|e| e.into_inner());
    // Re-check the deadline *after* acquiring the session: time queued
    // behind earlier ingests counts against this request.
    let limits = match deadline {
        Some(d) => {
            let Some(remaining) = d.checked_sub(received.elapsed()) else {
                return error_response(
                    shared,
                    id,
                    WireError::new(
                        WireErrorKind::DeadlineExceeded,
                        "deadline expired while queued for the session",
                    ),
                );
            };
            // `with_deadline` rounds sub-millisecond remainders up to
            // 1ms, so a nearly-expired request still runs (and then
            // degrades) instead of tripping limit validation.
            shared.base_limits.clone().with_deadline(remaining)
        }
        None => shared.base_limits.clone(),
    };
    if let Err(e) = session.set_limits(limits) {
        return error_response(
            shared,
            id,
            WireError::new(WireErrorKind::Internal, e.to_string()),
        );
    }
    match session.ingest(&batch) {
        Ok(report) => {
            let generation =
                shared.generation.fetch_add(1, Ordering::AcqRel) + 1;
            shared.publish(Snapshot {
                generation,
                dataset: session.dataset().clone(),
                outcome: Arc::clone(&report.outcome),
            });
            drop(session);
            Response {
                id,
                generation,
                body: ResponseBody::Ingest(IngestAck {
                    appended_claims: report.summary.appended_claims,
                    dirty_attributes: report.dirty_attributes.len(),
                    repartitioned: report.repartitioned,
                    rebuilt: report.rebuilt,
                    groups_reused: report.groups_reused,
                    groups_total: report.groups_total,
                    degradation: report.outcome.degradation.clone(),
                    profile: report.outcome.profile.clone(),
                }),
            }
        }
        Err(e) => {
            drop(session);
            error_response(shared, id, WireError::from_session(&e))
        }
    }
}

fn handle_stats(shared: &Shared, id: u64) -> Response {
    let snapshot = shared.current_snapshot();
    Response {
        id,
        generation: snapshot.generation,
        body: ResponseBody::Stats(ServerStats {
            generation: snapshot.generation,
            inflight: shared.inflight.load(Ordering::Acquire),
            max_inflight: shared.max_inflight,
            n_sources: snapshot.dataset.n_sources(),
            n_objects: snapshot.dataset.n_objects(),
            n_attributes: snapshot.dataset.n_attributes(),
            n_claims: snapshot.dataset.n_claims(),
        }),
    }
}

fn error_response(shared: &Shared, id: u64, error: WireError) -> Response {
    Response {
        id,
        generation: shared.generation.load(Ordering::Acquire),
        body: ResponseBody::Error(error),
    }
}
