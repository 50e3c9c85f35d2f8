//! Pieces shared by every workload: the run context, set-up timing,
//! output checks and the per-layer summary of a traced run.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use tdac_core::{QueryResponse, TruthQuery};

use crate::inputs::InputFiles;
use crate::report::{RunResult, LAYER_SPANS, PER_LAYER};
use crate::stats::median;
use crate::trace::Tracer;

/// Set-up is repeated at least this long (and at least the caller's
/// minimum count) so that sub-millisecond loads get a steady median.
pub const SETUP_BUDGET_S: f64 = 1.0;

/// Hard cap on set-up repetitions.
const SETUP_MAX_REPS: usize = 1000;

/// What a workload run needs to know.
pub struct Ctx {
    /// The generated inputs.
    pub files: InputFiles,
    /// Workload seed (also seeds the lookup picks).
    pub seed: u64,
    /// Length of the measurement window.
    pub measure: Duration,
    /// Whether this is the traced run.
    pub trace: bool,
    /// The benchmark executable, which shard workers re-invoke.
    pub exe: PathBuf,
    /// Where the traced run writes its spans.
    pub trace_file: PathBuf,
    /// Header line of the trace file.
    pub trace_header: String,
}

/// splitmix64: the harness's own seeded picks (lookup targets).
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5EED_5EED_5EED_5EED)
    }

    /// Uniform-ish index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % n as u64) as usize
    }
}

/// Runs `setup` at least `min_reps` times and until `budget_s` seconds
/// have passed, each repetition as its own traced operation. Returns
/// the last value and every repetition's duration in seconds.
pub fn time_setup<T>(
    t: &mut Tracer,
    min_reps: usize,
    budget_s: f64,
    mut setup: impl FnMut(&mut Tracer) -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let begun = Instant::now();
    let mut secs = Vec::new();
    loop {
        t.begin_op();
        let start = Instant::now();
        let value = setup(t)?;
        secs.push(start.elapsed().as_secs_f64());
        let spent = begun.elapsed().as_secs_f64();
        if secs.len() >= SETUP_MAX_REPS || (secs.len() >= min_reps && spent >= budget_s) {
            return Ok((value, secs));
        }
    }
}

/// Timestamps of one open-loop request.
pub struct Timed<T> {
    /// When the schedule said to send it.
    pub due: Instant,
    /// When it was sent (later than `due` while an earlier one ran long).
    pub sent: Instant,
    /// When its reply arrived.
    pub done: Instant,
    /// What sending returned.
    pub value: T,
}

impl<T> Timed<T> {
    /// Latency from the due time, so a stall is charged to every
    /// request queued behind it.
    pub fn latency_ms(&self) -> f64 {
        (self.done - self.due).as_secs_f64() * 1e3
    }

    /// Reply time from the actual send.
    pub fn service_ms(&self) -> f64 {
        (self.done - self.sent).as_secs_f64() * 1e3
    }

    /// How late the generator sent it.
    pub fn late_ms(&self) -> f64 {
        (self.sent - self.due).as_secs_f64() * 1e3
    }
}

/// Open loop: request `i` is due at `start + i / per_s` and goes out at
/// its due time, or as soon as request `i - 1` returns if that is
/// later. Each request is prepared (the iterator advanced) before its
/// wait, so preparation is not charged to it.
pub fn open_loop<R, T>(
    start: Instant,
    per_s: f64,
    requests: impl IntoIterator<Item = R>,
    mut send: impl FnMut(R) -> T,
) -> Vec<Timed<T>> {
    requests
        .into_iter()
        .enumerate()
        .map(|(i, request)| {
            let due = start + Duration::from_secs_f64(i as f64 / per_s);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let sent = Instant::now();
            let value = send(request);
            Timed {
                due,
                sent,
                done: Instant::now(),
                value,
            }
        })
        .collect()
}

/// A lookup must answer undegraded with exactly what it asked for: an
/// `Object` query that object's predictions (at least one), an
/// `Attribute` query that one cell.
pub fn check_answer<E: std::fmt::Display>(
    query: &TruthQuery,
    answer: Result<QueryResponse, E>,
) -> Result<(), String> {
    let resp = answer.map_err(|e| format!("{query:?}: {e}"))?;
    let matches = match query {
        TruthQuery::Object(o) => {
            !resp.predictions.is_empty() && resp.predictions.iter().all(|p| &p.object == o)
        }
        TruthQuery::Attribute(o, a) => {
            resp.predictions.len() == 1
                && resp.predictions[0].object == *o
                && resp.predictions[0].attribute == *a
        }
        TruthQuery::All | TruthQuery::Source(_) => true,
    };
    if !matches {
        return Err(format!(
            "{query:?}: {} predictions, not the ones asked for",
            resp.predictions.len()
        ));
    }
    match resp.degradation {
        Some(d) => Err(format!("{query:?}: degraded answer {d:?}")),
        None => Ok(()),
    }
}

/// Closes a traced run. Every metric in `not_applicable` (a layer the
/// workload never reaches) is filled the one way such metrics are: a
/// count or size reads 0, and a time is measured over an empty interval,
/// so it reads as the nanoseconds of nothing rather than a constant. Every
/// other layer time not set yet is the median of its span's
/// per-operation totals. The spans are then written out, and every
/// per-layer metric must be present.
pub fn finish_layers(
    out: &mut RunResult,
    t: &mut Tracer,
    ctx: &Ctx,
    not_applicable: &[&str],
) -> Result<(), String> {
    for (name, unit) in PER_LAYER {
        if !not_applicable.contains(&name) {
            continue;
        }
        if unit == "ms" {
            let start = Instant::now();
            out.set(name, start.elapsed().as_secs_f64() * 1e3);
        } else {
            out.set(name, 0.0);
        }
    }
    for name in LAYER_SPANS {
        let metric = format!("{name}_ms");
        if out.metrics.contains_key(&metric) {
            continue;
        }
        let per_op = t.per_op_ms(name);
        let ms = median(&per_op).ok_or(format!("the traced run recorded no {name} span"))?;
        out.set(&metric, ms);
    }
    t.write_jsonl(&ctx.trace_file, &ctx.trace_header)
        .map_err(|e| format!("writing {}: {e}", ctx.trace_file.display()))?;
    for (name, _) in PER_LAYER {
        if !out.metrics.contains_key(name) {
            return Err(format!("traced run did not produce {name}"));
        }
    }
    Ok(())
}
