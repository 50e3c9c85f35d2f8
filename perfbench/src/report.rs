//! Metric names, failure accounting and the result line.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by every untraced run (`--trace 0`).
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("run_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run (`--trace 1`). A
/// `_ms` metric is the median over operations of the per-operation
/// total of the harness span of the same name without the suffix.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("store.load_ms", "ms"),
    ("store.input_bytes", "bytes"),
    ("store.slice_ms", "ms"),
    ("store.slice_bytes", "bytes"),
    ("model.snapshot_clone_ms", "ms"),
    ("algorithms.reference_ms", "ms"),
    ("algorithms.group_runs_ms", "ms"),
    ("algorithms.fixpoint_iterations", "count"),
    ("clustering.distance_ms", "ms"),
    ("clustering.kmeans_ms", "ms"),
    ("clustering.silhouette_ms", "ms"),
    ("clustering.kmeans_iterations", "count"),
    ("clustering.k_candidates", "count"),
    ("core.scatter_ms", "ms"),
    ("core.merge_ms", "ms"),
    ("core.select_ms", "ms"),
    ("core.ingest_ms", "ms"),
    ("core.dirty_attributes", "count"),
    ("core.groups_reused", "count"),
    ("core.repartitions", "count"),
    ("core.answer_ms", "ms"),
    ("shard.distributed_ms", "ms"),
    ("shard.spawned", "count"),
    ("shard.partials", "count"),
    ("shard.failures", "count"),
    ("shard.retries", "count"),
    ("shard.fallbacks", "count"),
    ("serve.decode_ms", "ms"),
    ("serve.encode_ms", "ms"),
    ("serve.request_bytes", "bytes"),
    ("serve.response_bytes", "bytes"),
    ("serve.wire_ms", "ms"),
    ("serve.overloaded", "count"),
    ("serve.generator_late_ms", "ms"),
    ("obs.layer_coverage", "fraction"),
    ("obs.overhead_pct", "%"),
];

/// Harness spans behind the `_ms` per-layer metrics that are medians of
/// per-operation span totals (see `harness::finish_layers` for layers a
/// workload never calls).
pub const LAYER_SPANS: [&str; 15] = [
    "store.load",
    "store.slice",
    "model.snapshot_clone",
    "algorithms.reference",
    "algorithms.group_runs",
    "clustering.distance",
    "clustering.kmeans",
    "clustering.silhouette",
    "core.scatter",
    "core.merge",
    "core.select",
    "core.ingest",
    "core.answer",
    "serve.decode",
    "serve.encode",
];

/// Operations attempted and failed, with the first few failure reasons.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or failed a check.
    pub failed: u64,
    /// Reasons, for stderr.
    pub reasons: Vec<String>,
}

impl Tally {
    /// Counts one operation; an `Err` counts it as failed.
    pub fn op(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.fail(e);
        }
    }

    /// Counts a failed check on operations already attempted.
    pub fn fail(&mut self, reason: String) {
        self.failed += 1;
        if self.reasons.len() < 20 {
            self.reasons.push(reason);
        }
    }
}

/// What one run measured.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Operation accounting.
    pub tally: Tally,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
    /// Sample counts behind the timings, by sample set.
    pub samples: BTreeMap<&'static str, usize>,
    /// Figures printed on the environment line, not bounded: `accuracy`
    /// (share of ground-truth cells the final outcome predicts right, a
    /// property of the generated world that moves with the seed) on
    /// every workload, and `serve_stream`'s ingest tail.
    pub recorded: BTreeMap<&'static str, f64>,
}

impl RunResult {
    /// Sets a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, with the metrics of `table` in order. A metric the run
    /// did not produce, or a non-finite value, is a harness error.
    pub fn json_line(&self, table: &[(&str, &str)]) -> Result<String, String> {
        let mut metrics = Vec::new();
        for (name, unit) in table {
            let value = *self
                .metrics
                .get(*name)
                .ok_or_else(|| format!("metric {name} was not produced"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is {value}"));
            }
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.tally.failed == 0 && self.tally.attempted > 0,
            self.tally.attempted.max(1),
            self.tally.failed,
            metrics.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(*name), "{name} listed twice");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
        for span in LAYER_SPANS {
            let metric = format!("{span}_ms");
            assert!(PER_LAYER.iter().any(|(n, _)| *n == metric), "{metric}");
        }
    }

    #[test]
    fn result_line_has_every_metric_and_fails_on_missing() {
        let mut r = RunResult::default();
        r.tally.op(Ok(()));
        for (name, _) in END_TO_END {
            r.set(name, 1.5);
        }
        let line = r.json_line(&END_TO_END).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0,"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(r.json_line(&PER_LAYER).is_err());
    }
}
