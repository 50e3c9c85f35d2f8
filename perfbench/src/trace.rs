//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the harness around the public calls it makes
//! into each layer; nothing inside the program is instrumented. Every
//! span carries a name, start, end, parent and the id of the operation
//! it belongs to. Spans stay in memory until the run ends, when
//! [`Tracer::write_jsonl`] writes them out with their self time (the
//! span's duration minus the time its direct children cover).

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// The operation this span belongs to.
    pub op: u64,
    /// Layer-qualified name, e.g. `clustering.kmeans`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl SpanRec {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Records nested spans for a sequence of operations. A disabled
/// tracer runs the wrapped calls and records nothing.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<SpanRec>,
    open: Vec<usize>,
    op: u64,
}

impl Tracer {
    /// A tracer that records spans only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Starts a new operation id; spans recorded from now on carry it.
    pub fn begin_op(&mut self) -> u64 {
        self.op += 1;
        self.op
    }

    /// Runs `f` inside a span named `name`, nested in the innermost open
    /// span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(SpanRec {
            op: self.op,
            name,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Records an already-measured interval as a span of the current
    /// operation (for calls timed on another thread or process).
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(SpanRec {
            op: self.op,
            name,
            parent: self.open.last().copied(),
            start_ns: at(start),
            end_ns: at(end),
        });
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    /// Per-operation totals of the spans named `name`, in milliseconds:
    /// one entry per operation that recorded at least one such span.
    pub fn per_op_ms(&self, name: &str) -> Vec<f64> {
        let mut totals: Vec<(u64, f64)> = Vec::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            match totals.last_mut() {
                Some((op, t)) if *op == s.op => *t += s.ms(),
                _ => totals.push((s.op, s.ms())),
            }
        }
        totals.into_iter().map(|(_, t)| t).collect()
    }

    /// Self time of every span: its duration minus the union of its
    /// direct children's intervals (children never overlap here, since
    /// the recorder is single-threaded).
    pub fn self_ms(&self) -> Vec<f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c) as f64 / 1e6)
            .collect()
    }

    /// Writes one JSON object per span to `path`, after a header line
    /// describing the run.
    pub fn write_jsonl(&self, path: &Path, header: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        for (i, (s, self_ms)) in self.spans.iter().zip(self.self_ms()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"op\":{},\"name\":\"{}\",\"parent\":{parent},\"start_ms\":{},\"end_ms\":{},\"self_ms\":{}}}",
                s.op,
                s.name,
                s.start_ns as f64 / 1e6,
                s.end_ns as f64 / 1e6,
                self_ms
            )?;
        }
        out.flush()
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_have_parents_and_self_time() {
        let mut t = Tracer::new(true);
        t.begin_op();
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].op, 1);
        let self_ms = t.self_ms();
        assert!(self_ms[0] < spans[0].ms());
        assert!((self_ms[1] - spans[1].ms()).abs() < 1e-9);
        assert_eq!(t.per_op_ms("inner").len(), 1);
    }
}
