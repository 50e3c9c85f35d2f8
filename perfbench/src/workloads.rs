//! The four workloads and why each exists.
//!
//! Each workload isolates a different layer of the stack; the names are
//! stable so later changes can cite them. The layer → metric → workload
//! map that predicts which numbers a change to one layer should move
//! lives in `perfbench/README.md`, beside this file.
//!
//! Concurrency is pinned on every workload: in-process runs use
//! `Threads(1)` (never `Auto`), the sharded run uses the `tdc shard`
//! defaults (2 worker processes × `Threads(1)`, fail-fast retry, the
//! coordinator's own model selection at the backend default), and the
//! served run uses 2 server workers, a `Threads(1)` session and at most
//! 2 client connections from this one process.

/// What a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `Tdac::run_store` in-process.
    Batch,
    /// `ShardRunner::run_store` with worker processes.
    Sharded,
    /// `td_serve::Server` with an open-loop ingest connection and a
    /// closed-loop lookup connection.
    Serve,
}

/// Which generator a workload's inputs come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum World {
    /// The Exam simulator at the paper's Exam-62 slice.
    Exam62,
    /// The DS1 synthetic generator, scaled up.
    Ds1,
}

/// One workload definition. Why each exists and which layer it
/// isolates is recorded beside its entry below and in the README.
#[derive(Debug)]
pub struct Workload {
    /// Stable name, as passed to `--workload`.
    pub name: &'static str,
    /// What runs.
    pub kind: Kind,
    /// Input generator.
    pub world: World,
    /// Base truth-discovery algorithm.
    pub algorithm: &'static str,
    /// Independent worlds a run generates; ops take them in turn. DS1's
    /// op cost follows its world (the Accu fixpoint takes 11 to 25
    /// iterations across seeds), so the DS1 batch workloads average four.
    pub worlds: usize,
}

/// Worlds of the DS1 batch and sharded workloads.
pub const DS1_WORLDS: usize = 4;

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 4] = [
    // 62 attributes make the k = 2..61 sweep's k-means fits ~99% of a
    // run: the clustering workload, and the one that bypasses
    // td-algorithms.
    Workload {
        name: "exam62_sweep",
        kind: Kind::Batch,
        world: World::Exam62,
        algorithm: "truthfinder",
        worlds: 1,
    },
    // Four worlds of 300 000 claims over 6 attributes: Accu runs (~40%)
    // and k-means over 6 wide rows (~55%), so it isolates the base
    // algorithms and the store load.
    Workload {
        name: "ds1_batch",
        kind: Kind::Batch,
        world: World::Ds1,
        algorithm: "accu",
        worlds: DS1_WORLDS,
    },
    // ds1_batch's work plus slicing, spawning, worker decode and partial
    // streaming: td-shard is the difference between the two.
    Workload {
        name: "ds1_sharded",
        kind: Kind::Sharded,
        world: World::Ds1,
        algorithm: "accu",
        worlds: DS1_WORLDS,
    },
    // Reads beside writes: incremental ingest, snapshot publishing,
    // query answering and the wire, with the k sweep skipped.
    Workload {
        name: "serve_stream",
        kind: Kind::Serve,
        world: World::Ds1,
        algorithm: "majorityvote",
        worlds: 1,
    },
];

/// Looks a workload up by its `--workload` name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Input sizes. `Full` is what the benchmark measures; `Smoke` runs the
/// same code paths and checks on inputs small enough for self-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured sizes.
    Full,
    /// Tiny inputs for the self-tests.
    Smoke,
}

impl Scale {
    /// Parses `full` or `smoke`.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "full" => Some(Scale::Full),
            "smoke" => Some(Scale::Smoke),
            _ => None,
        }
    }

    /// Exam questions (attributes) and students (sources).
    pub fn exam_shape(self) -> (usize, usize) {
        match self {
            Scale::Full => (62, 248),
            Scale::Smoke => (12, 40),
        }
    }

    /// Objects of each DS1 world of the batch and sharded workloads.
    pub fn ds1_objects(self) -> usize {
        match self {
            Scale::Full => 5_000,
            Scale::Smoke => 300,
        }
    }

    /// Objects of `serve_stream`'s world: the served store plus every
    /// object the run will ingest.
    pub fn serve_world(self) -> usize {
        match self {
            Scale::Full => 10_000,
            Scale::Smoke => 500,
        }
    }
}

/// New objects per ingest batch on `serve_stream`.
pub const BATCH_OBJECTS: usize = 20;

/// Open-loop ingest rate on `serve_stream`, batches per second. An
/// ingest takes ~80 ms alone and ~110 ms beside the lookups on two
/// cores, so 5/s keeps the stream clear of saturation; at 8/s a backlog
/// formed late in some windows (ingest p90 133 or 402 ms on one seed).
pub const BATCHES_PER_S: f64 = 5.0;

/// Drift threshold of the served session (as in docs/STREAMING.md).
pub const DRIFT_THRESHOLD: f64 = 0.05;

/// Ingest batches one `serve_stream` run sends: the open loop runs for
/// the whole measurement window.
pub fn serve_batches(seconds: f64) -> usize {
    ((BATCHES_PER_S * seconds).round() as usize).max(1)
}

/// Objects packed and served at start; the rest of the world arrives as
/// ingest batches. `None` when the window would ingest more than half
/// the world.
pub fn served_objects(scale: Scale, seconds: f64) -> Option<usize> {
    let world = scale.serve_world();
    let held_out = BATCH_OBJECTS * serve_batches(seconds);
    (held_out <= world / 2).then(|| world - held_out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_found() {
        for w in &WORKLOADS {
            assert_eq!(by_name(w.name).map(|x| x.name), Some(w.name));
        }
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn a_full_serve_run_sends_at_least_100_batches() {
        assert!(serve_batches(20.0) >= 100);
        assert_eq!(served_objects(Scale::Full, 20.0), Some(8_000));
        assert_eq!(served_objects(Scale::Full, 1000.0), None);
    }
}
