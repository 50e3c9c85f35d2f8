//! `tdc` — run truth discovery on a JSON dataset from the command line.
//!
//! ```text
//! tdc run     --input data.json|claims.csv|store.tds [--truth truth.csv] --algo accu
//!             [--tdac] [--parallel] [--masked] [--backend inprocess|sharded]
//!             [--shards n] [--strategy attr-group|hash-object] [--output predictions.json]
//! tdc shard   --input data.json|claims.csv|store.tds --algo accu [--shards n]
//!             [--strategy attr-group|hash-object] [--worker-deadline-ms n]
//!             [--retry-attempts n] [--retry-backoff-ms b]
//!             [--masked] [--parallel] [--output predictions.json]
//! tdc worker  (internal: one shard-job line on stdin, partial stream on stdout)
//! tdc stream  --input base.json|base.csv|base.tds --algo accu --batch b1.csv [--batch b2.csv ...]
//!             [--policy always|never|drift:<threshold>] [--parallel]
//!             [--deadline-ms <n>] [--truth truth.csv] [--output predictions.json]
//! tdc pack    --input data.json|claims.csv --algo accu [--masked] --output store.tds
//! tdc inspect --input store.tds
//! tdc stats   --input data.json|claims.csv|store.tds [--truth truth.csv]
//! tdc serve   --input base.json|base.csv|base.tds --algo accu [--addr 127.0.0.1:7431]
//!             [--max-inflight n] [--workers n] [--deadline-ms n]
//!             [--policy always|never|drift:<threshold>] [--parallel]
//! tdc query   --addr 127.0.0.1:7431 [--object o [--attribute a] | --source s]
//!             [--ingest claims.csv]... [--deadline-ms n] [--output predictions.json]
//! tdc algos
//! ```
//!
//! Inputs ending in `.csv` are parsed as claims tables
//! (`source,object,attribute,value` with header; see `td_model::csv`),
//! optionally with a `--truth` CSV (`object,attribute,value`). Inputs
//! ending in `.tds` are loaded as `td-store` binary stores; when the
//! store carries a truth page for the selected algorithm and mode,
//! `run --tdac` and `stream` skip the build phase entirely (see
//! `docs/STORAGE.md`). Anything else is read as the `td-model` JSON
//! bundle. When ground truth is available an evaluation report is
//! printed after the predictions.
//!
//! `stream` runs the incremental engine: the base input starts a
//! `TdacSession`, each `--batch` file (same claim formats) is ingested
//! in order with a per-batch report on stderr, and the final accumulated
//! predictions are emitted like `run`. See `docs/STREAMING.md`.
//!
//! `serve` turns the same session into a long-lived TCP service
//! speaking the td-serve line-delimited JSON protocol; `query` is its
//! client (the default query is "everything", so `tdc query --addr …
//! --output p.json` against a freshly served store emits exactly what
//! `tdc run --tdac` would). See `docs/SERVING.md`.
//!
//! `shard` is `run --tdac` with a sharded execution backend forced on:
//! the per-group base runs execute in `tdc worker` child processes
//! (fork-of-self) and the merged outcome — and therefore the emitted
//! predictions — is bit-identical to the in-process run. `run` accepts
//! the same `--backend/--shards/--strategy` flags; `stream` and
//! `serve` reject a sharded backend (the incremental session is
//! in-process only). See `docs/SHARDING.md`.

use std::env;
use std::fs;
use std::process::ExitCode;

use td_algorithms::{algorithm_by_name, registry::all_algorithms, TruthDiscovery};
use td_metrics::{evaluate_fn, Stopwatch};
use td_model::{csv, json, ClaimBatch, Dataset, DatasetStats, GroundTruth};
use td_store::{section_table, DatasetStore, VERSION};
use td_serve::{Client, ResponseBody, ServeConfig, Server, WireClaim};
use td_shard::ShardRunner;
use tdac_core::{
    ExecutionBackend, ExecutionLimits, Parallelism, QueryResponse,
    RepartitionPolicy, ShardPlan, ShardStrategy, Tdac, TdacConfig, TdacOutcome, TdacSession,
    TruthQuery,
};

const USAGE: &str = "usage:\n  tdc run --input <data.json|claims.csv|store.tds> [--truth <truth.csv>] \
--algo <name> [--tdac] [--masked] [--parallel] [--deadline-ms <n>] \
[--backend inprocess|sharded] [--shards <n>] [--strategy attr-group|hash-object] \
[--output <predictions.json>]\n  \
tdc shard --input <data.json|claims.csv|store.tds> --algo <name> [--shards <n>] \
[--strategy attr-group|hash-object] [--worker-deadline-ms <n>] [--retry-attempts <n>] \
[--retry-backoff-ms <b>] [--masked] [--parallel] \
[--deadline-ms <n>] [--output <predictions.json>]\n  \
tdc stream --input <base.json|base.csv|base.tds> --algo <name> --batch <claims.csv|data.json> \
[--batch ...] [--policy always|never|drift:<threshold>] [--parallel] [--deadline-ms <n>] \
[--truth <truth.csv>] [--output <predictions.json>]\n  \
tdc pack --input <data.json|claims.csv> --algo <name> [--masked] --output <store.tds>\n  \
tdc inspect --input <store.tds>\n  \
tdc stats --input <data.json|claims.csv|store.tds> [--truth <truth.csv>]\n  \
tdc serve --input <base.json|base.csv|base.tds> --algo <name> [--addr <host:port>] \
[--max-inflight <n>] [--workers <n>] [--deadline-ms <n>] \
[--policy always|never|drift:<threshold>] [--parallel]\n  \
tdc query --addr <host:port> [--object <o> [--attribute <a>] | --source <s>] \
[--ingest <claims.csv|data.json>]... [--deadline-ms <n>] [--output <predictions.json>]\n  \
tdc algos";

/// `println!` through [`write_stdout`].
macro_rules! outln {
    ($($arg:tt)*) => {
        write_stdout(format_args!($($arg)*))
    };
}

/// Writes and flushes one line of standard output.
fn write_line(line: std::fmt::Arguments<'_>) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut stdout = std::io::stdout().lock();
    writeln!(stdout, "{line}").and_then(|()| stdout.flush())
}

/// Writes one line of standard output; every `tdc` command but `serve`
/// prints through here. A reader that closes the pipe early (`tdc
/// inspect … | head -1`) ends the process quietly with success, and
/// any other write error ends it with a message and status 1, where
/// `println!` would panic on either.
fn write_stdout(line: std::fmt::Arguments<'_>) {
    if let Err(e) = write_line(line) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("tdc: writing standard output: {e}");
        std::process::exit(1);
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..], false),
        Some("shard") => cmd_run(&args[1..], true),
        // The worker half of `tdc shard` — fork-of-self, so the shard
        // coordinator needs no separate worker binary on PATH.
        Some("worker") => ExitCode::from(td_shard::worker_main().clamp(0, 255) as u8),
        Some("stream") => cmd_stream(&args[1..]),
        Some("pack") => cmd_pack(&args[1..]),
        Some("inspect") => cmd_inspect(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("query") => cmd_query(&args[1..]),
        Some("algos") => {
            for algo in all_algorithms() {
                outln!("{}", algo.name());
            }
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

/// Loads a `.tds` input when the path says so; `None` for other formats.
/// Surfaced separately from [`load`] because the store carries more than
/// a dataset (truth pages let `run`/`stream` skip the build phase).
fn load_store(path: &str, truth_path: Option<&str>) -> Option<Result<DatasetStore, String>> {
    if !path.ends_with(".tds") {
        return None;
    }
    if truth_path.is_some() {
        return Some(Err(
            "--truth is not supported with a .tds input (pack the claims and keep the \
             truth CSV alongside a claims table instead)"
                .to_string(),
        ));
    }
    Some(DatasetStore::load(path).map_err(|e| format!("cannot load {path}: {e}")))
}

fn load(path: &str, truth_path: Option<&str>) -> Result<(Dataset, Option<GroundTruth>), String> {
    if let Some(store) = load_store(path, truth_path) {
        return store.map(|s| (s.dataset, None));
    }
    let body = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    if path.ends_with(".csv") {
        match truth_path {
            Some(tp) => {
                let truth_body =
                    fs::read_to_string(tp).map_err(|e| format!("cannot read {tp}: {e}"))?;
                let (d, t) = csv::dataset_from_csv_with_truth(&body, &truth_body)
                    .map_err(|e| e.to_string())?;
                Ok((d, Some(t)))
            }
            None => csv::dataset_from_csv(&body)
                .map(|d| (d, None))
                .map_err(|e| e.to_string()),
        }
    } else {
        json::from_json(&body).map_err(|e| e.to_string())
    }
}

fn cmd_stats(args: &[String]) -> ExitCode {
    let Some(input) = flag_value(args, "--input") else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let truth_path = flag_value(args, "--truth");
    match load(&input, truth_path.as_deref()) {
        Ok((dataset, truth)) => {
            let st = DatasetStats::of(&dataset);
            outln!("sources      : {}", st.n_sources);
            outln!("objects      : {}", st.n_objects);
            outln!("attributes   : {}", st.n_attributes);
            outln!("observations : {}", st.n_observations);
            outln!("DCR          : {:.1} %", st.dcr);
            outln!(
                "ground truth : {}",
                truth.map_or("absent".to_string(), |t| format!("{} cells", t.len()))
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// `tdc run` and `tdc shard` — one code path; `shard` just forces the
/// sharded backend on (and implies `--tdac`: sharding distributes
/// TD-AC's per-group runs, so there is nothing to shard without the
/// wrapper).
fn cmd_run(args: &[String], force_sharded: bool) -> ExitCode {
    let Some(input) = flag_value(args, "--input") else {
        eprintln!("--input is required\n{USAGE}");
        return ExitCode::FAILURE;
    };
    let Some(algo_name) = flag_value(args, "--algo") else {
        eprintln!("--algo is required (see `tdc algos`)\n{USAGE}");
        return ExitCode::FAILURE;
    };
    let Some(algo) = algorithm_by_name(&algo_name) else {
        eprintln!("unknown algorithm {algo_name:?}; see `tdc algos`");
        return ExitCode::FAILURE;
    };
    let backend = match parse_backend(args, force_sharded) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    // A sharded backend implies the TD-AC wrapper: sharding distributes
    // the per-group runs, so a bare base-algorithm pass has nothing to
    // distribute.
    let wrap_tdac =
        has_flag(args, "--tdac") || has_flag(args, "--masked") || backend.is_sharded();
    let output = flag_value(args, "--output");

    let truth_path = flag_value(args, "--truth");
    let store = match load_store(&input, truth_path.as_deref()) {
        Some(Ok(s)) => Some(s),
        Some(Err(e)) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
        None => None,
    };
    let (dataset, truth) = match &store {
        Some(s) => (s.dataset.clone(), None),
        None => match load(&input, truth_path.as_deref()) {
            Ok(x) => x,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        },
    };
    // Reject degenerate inputs (empty, single-source, objectless) at the
    // door, with the typed model error's message — not a confusing
    // downstream failure.
    if let Err(e) = dataset.validate_for_discovery() {
        eprintln!("{input}: {e}");
        return ExitCode::FAILURE;
    }
    let limits = match parse_limits(args) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };

    let sw = Stopwatch::start();
    let sharded = backend.is_sharded();
    let (result, partition, degradation) = if wrap_tdac {
        let config = TdacConfig {
            missing_aware: has_flag(args, "--masked"),
            backend,
            limits,
            ..Default::default()
        };
        // A store-backed input reuses its truth page (when one matches
        // the algorithm and mode) to skip the reference run — the
        // outcome is bit-identical either way. So is the backend: the
        // sharded path's predictions byte-match the in-process ones
        // (td-verify's shard oracle holds it to that).
        let run: Result<TdacOutcome, String> = if sharded {
            ShardRunner::new(config)
                .and_then(|runner| match &store {
                    Some(s) => runner.run_store(algo.name(), s),
                    None => runner.run(algo.name(), &dataset),
                })
                .map_err(|e| e.to_string())
        } else {
            let tdac = Tdac::new(config);
            match &store {
                Some(s) => tdac.run_store(algo.as_ref(), s),
                None => tdac.run(algo.as_ref(), &dataset),
            }
            .map_err(|e| e.to_string())
        };
        match run {
            Ok(out) => (out.result, Some(out.partition.to_string()), out.degradation),
            Err(e) => {
                eprintln!("TD-AC failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        (algo.discover(&dataset.view_all()), None, None)
    };
    let elapsed = sw.elapsed_secs();

    eprintln!(
        "# {}{} on {}: {} predictions in {elapsed:.3}s",
        algo.name(),
        if wrap_tdac {
            if sharded {
                " (TD-AC, sharded)"
            } else {
                " (TD-AC)"
            }
        } else {
            ""
        },
        input,
        result.len()
    );
    if let Some(p) = &partition {
        eprintln!("# partition: {p}");
    }
    if let Some(deg) = &degradation {
        eprintln!("# DEGRADED: {deg} (best-so-far result below)");
    }

    if let Err(e) = emit_predictions(&dataset, &result, output) {
        eprintln!("{e}");
        return ExitCode::FAILURE;
    }

    if let Some(truth) = truth {
        let report = evaluate_fn(&dataset, &truth, |o, a| result.prediction(o, a));
        eprintln!("# evaluation: {report}");
    }
    ExitCode::SUCCESS
}

fn cmd_stream(args: &[String]) -> ExitCode {
    let Some(input) = flag_value(args, "--input") else {
        eprintln!("--input is required\n{USAGE}");
        return ExitCode::FAILURE;
    };
    let Some(algo_name) = flag_value(args, "--algo") else {
        eprintln!("--algo is required (see `tdc algos`)\n{USAGE}");
        return ExitCode::FAILURE;
    };
    let Some(algo) = algorithm_by_name(&algo_name) else {
        eprintln!("unknown algorithm {algo_name:?}; see `tdc algos`");
        return ExitCode::FAILURE;
    };
    let batch_paths = flag_values(args, "--batch");
    if batch_paths.is_empty() {
        eprintln!("stream wants at least one --batch\n{USAGE}");
        return ExitCode::FAILURE;
    }
    let policy = match parse_policy(args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let output = flag_value(args, "--output");

    let truth_path = flag_value(args, "--truth");
    let store = match load_store(&input, truth_path.as_deref()) {
        Some(Ok(s)) => Some(s),
        Some(Err(e)) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
        None => None,
    };
    let (dataset, truth) = match &store {
        Some(s) => (s.dataset.clone(), None),
        None => match load(&input, truth_path.as_deref()) {
            Ok(x) => x,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        },
    };
    let limits = match parse_limits(args) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let backend = match parse_backend(args, false) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    if backend.is_sharded() {
        eprintln!(
            "stream executes in-process only (the incremental session cannot shard); \
             use `tdc shard` for batch runs"
        );
        return ExitCode::FAILURE;
    }
    let config = TdacConfig {
        backend,
        limits,
        ..Default::default()
    };

    let sw = Stopwatch::start();
    // Store-backed restarts reuse the packed truth page so the initial
    // full pass skips the reference base run (bit-identical outcome).
    let started = match &store {
        Some(s) => TdacSession::start_store(algo, config, policy, s),
        None => TdacSession::start(algo, config, policy, dataset),
    };
    let mut session = match started {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{input}: session start failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "# session on {input}: partition {} over {} claims",
        session.partition(),
        session.dataset().n_claims()
    );
    for path in &batch_paths {
        let batch = match batch_from_file(path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        };
        match session.ingest(&batch) {
            Ok(report) => eprintln!(
                "# {path}: +{} claims, {} dirty attrs, reused {}/{} groups{}{}{}",
                report.summary.appended_claims,
                report.dirty_attributes.len(),
                report.groups_reused,
                report.groups_total,
                if report.rebuilt { ", rebuilt" } else { "" },
                if report.repartitioned { ", re-partitioned" } else { "" },
                if report.outcome.degradation.is_some() { ", DEGRADED" } else { "" },
            ),
            Err(e) => {
                eprintln!("{path}: ingest failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let elapsed = sw.elapsed_secs();

    let outcome = session.outcome();
    eprintln!(
        "# {algo_name} (streaming) on {} batches: {} predictions in {elapsed:.3}s",
        session.batches_applied(),
        outcome.result.len()
    );
    eprintln!("# partition: {}", outcome.partition);
    if let Some(deg) = &outcome.degradation {
        eprintln!("# DEGRADED: {deg} (best-so-far result below)");
    }
    if let Err(e) = emit_predictions(session.dataset(), &outcome.result, output) {
        eprintln!("{e}");
        return ExitCode::FAILURE;
    }
    if let Some(truth) = truth {
        let report = evaluate_fn(session.dataset(), &truth, |o, a| {
            outcome.result.prediction(o, a)
        });
        eprintln!("# evaluation: {report}");
    }
    ExitCode::SUCCESS
}

/// `tdc pack`: parse a claims input, run the base algorithm once, and
/// save dataset + truth page as a `.tds` store. A later
/// `tdc run --tdac --input store.tds` (or `tdc stream`) with the same
/// algorithm and mode skips the build phase entirely.
fn cmd_pack(args: &[String]) -> ExitCode {
    let Some(input) = flag_value(args, "--input") else {
        eprintln!("--input is required\n{USAGE}");
        return ExitCode::FAILURE;
    };
    let Some(output) = flag_value(args, "--output") else {
        eprintln!("pack wants --output <store.tds>\n{USAGE}");
        return ExitCode::FAILURE;
    };
    let Some(algo_name) = flag_value(args, "--algo") else {
        eprintln!("--algo is required (see `tdc algos`)\n{USAGE}");
        return ExitCode::FAILURE;
    };
    let Some(algo) = algorithm_by_name(&algo_name) else {
        eprintln!("unknown algorithm {algo_name:?}; see `tdc algos`");
        return ExitCode::FAILURE;
    };
    if input.ends_with(".tds") {
        eprintln!("pack reads claims inputs (.json/.csv), not an existing .tds store");
        return ExitCode::FAILURE;
    }
    let (dataset, _) = match load(&input, None) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = dataset.validate_for_discovery() {
        eprintln!("{input}: {e}");
        return ExitCode::FAILURE;
    }
    let config = TdacConfig {
        missing_aware: has_flag(args, "--masked"),
        ..Default::default()
    };
    let sw = Stopwatch::start();
    let store = Tdac::new(config).pack(algo.as_ref(), &dataset);
    if let Err(e) = store.save(&output) {
        eprintln!("cannot write {output}: {e}");
        return ExitCode::FAILURE;
    }
    let bytes = store.to_bytes().len();
    eprintln!(
        "# packed {input} with {} ({}) in {:.3}s: {bytes} bytes -> {output}",
        algo.name(),
        if has_flag(args, "--masked") { "masked" } else { "dense" },
        sw.elapsed_secs(),
    );
    ExitCode::SUCCESS
}

/// `tdc inspect`: print a `.tds` store's format version, its section
/// table (offsets, lengths, checksums — validated) and the decoded
/// dataset + truth-page summary.
fn cmd_inspect(args: &[String]) -> ExitCode {
    let Some(input) = flag_value(args, "--input") else {
        eprintln!("--input is required\n{USAGE}");
        return ExitCode::FAILURE;
    };
    let bytes = match fs::read(&input) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("cannot read {input}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let sections = match section_table(&bytes) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{input}: {e}");
            return ExitCode::FAILURE;
        }
    };
    outln!("file         : {input} ({} bytes)", bytes.len());
    // `section_table` refuses every version but the one this build reads.
    outln!("version      : {VERSION}");
    outln!("sections     :");
    for s in &sections {
        outln!(
            "  {:<12} offset {:>8}  len {:>8}  xxh64 {:016x}",
            s.name, s.offset, s.len, s.checksum
        );
    }
    let store = match DatasetStore::from_bytes(&bytes) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{input}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let st = DatasetStats::of(&store.dataset);
    outln!("sources      : {}", st.n_sources);
    outln!("objects      : {}", st.n_objects);
    outln!("attributes   : {}", st.n_attributes);
    outln!("observations : {}", st.n_observations);
    outln!("truth pages  : {}", store.pages.len());
    for p in &store.pages {
        outln!(
            "  {:<14} {}  {}x{} bits, {} predictions, {} iterations",
            p.algorithm,
            if p.masked { "masked" } else { "dense " },
            p.matrix.n_rows(),
            p.matrix.n_cols(),
            p.reference.len(),
            p.reference.iterations,
        );
    }
    ExitCode::SUCCESS
}

/// Reads a batch file (same formats as `--input`) into a [`ClaimBatch`]
/// by entity name — the session re-interns against its own dataset.
fn batch_from_file(path: &str) -> Result<ClaimBatch, String> {
    let (d, _) = load(path, None)?;
    let mut batch = ClaimBatch::new();
    for c in d.claims() {
        batch.claim(
            d.source_name(c.source),
            d.object_name(c.object),
            d.attribute_name(c.attribute),
            d.value(c.value).clone(),
        );
    }
    Ok(batch)
}

/// The one grammar for `--backend`, `--shards`, `--strategy`,
/// `--worker-deadline-ms` and `--parallel`, shared by `run`, `shard`,
/// `stream` and `serve` — the execution backend is parsed in exactly
/// one place.
///
/// `--backend sharded` (or any of `--shards`/`--strategy`, or the
/// `tdc shard` subcommand via `force_sharded`) selects a sharded
/// backend; `--parallel` then governs each *worker's* thread pool.
/// Otherwise the flags build the in-process backend the old
/// `--parallel`-only grammar built.
fn parse_backend(args: &[String], force_sharded: bool) -> Result<ExecutionBackend, String> {
    let parallelism = if has_flag(args, "--parallel") {
        Parallelism::Auto
    } else {
        Parallelism::Threads(1)
    };
    let kind = flag_value(args, "--backend");
    match kind.as_deref() {
        None | Some("inprocess") | Some("in-process") | Some("sharded") => {}
        Some(k) => return Err(format!("--backend wants inprocess or sharded, got {k:?}")),
    }
    let shard_flags = flag_value(args, "--shards").is_some()
        || flag_value(args, "--strategy").is_some()
        || flag_value(args, "--retry-attempts").is_some()
        || flag_value(args, "--retry-backoff-ms").is_some();
    let sharded = force_sharded
        || matches!(kind.as_deref(), Some("sharded"))
        || (kind.is_none() && shard_flags);
    if !sharded {
        if shard_flags {
            return Err(
                "--shards/--strategy/--retry-attempts/--retry-backoff-ms make no sense with \
                 --backend inprocess"
                    .to_string(),
            );
        }
        return Ok(ExecutionBackend::in_process(parallelism));
    }
    let shards = match flag_value(args, "--shards") {
        Some(n) => match n.parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => return Err(format!("--shards wants a positive integer, got {n:?}")),
        },
        None => 2,
    };
    let strategy = match flag_value(args, "--strategy").as_deref() {
        // Attribute-group dealing is exact for any base algorithm, so
        // it is the default; object hashing needs the algorithm's
        // trust_from_predictions hook.
        None | Some("attr-group") => ShardStrategy::ByAttributeGroup,
        Some("hash-object") => ShardStrategy::HashByObject,
        Some(s) => return Err(format!("--strategy wants attr-group or hash-object, got {s:?}")),
    };
    let mut plan = ShardPlan::new(strategy, shards);
    plan.worker_parallelism = parallelism;
    if let Some(ms) = flag_value(args, "--worker-deadline-ms") {
        match ms.parse::<u64>() {
            Ok(ms) if ms > 0 => plan.worker_deadline_ms = Some(ms),
            _ => {
                return Err(format!(
                    "--worker-deadline-ms wants a positive integer, got {ms:?}"
                ))
            }
        }
    }
    // --retry-attempts <n> arms the fault supervisor: n-1 re-spawns of
    // a faulted shard, then the flagged in-process fallback. The
    // default (1) keeps today's fail-fast semantics.
    if let Some(n) = flag_value(args, "--retry-attempts") {
        match n.parse::<u32>() {
            Ok(n) if n > 0 => plan.retry.max_attempts = n,
            _ => {
                return Err(format!(
                    "--retry-attempts wants a positive integer, got {n:?}"
                ))
            }
        }
    }
    if let Some(ms) = flag_value(args, "--retry-backoff-ms") {
        match ms.parse::<u64>() {
            Ok(ms) => {
                plan.retry.backoff_base_ms = ms;
                plan.retry.backoff_cap_ms = ms.saturating_mul(10).max(ms);
            }
            _ => {
                return Err(format!(
                    "--retry-backoff-ms wants a non-negative integer, got {ms:?}"
                ))
            }
        }
    }
    Ok(ExecutionBackend::Sharded(plan))
}

/// `--policy` for `stream` and `serve`: `always` (the default, whose
/// outcome is bit-identical to a from-scratch `tdc run --tdac` on the
/// accumulated claims), `never`, or `drift:<threshold>`.
fn parse_policy(args: &[String]) -> Result<RepartitionPolicy, String> {
    match flag_value(args, "--policy").as_deref() {
        None | Some("always") => Ok(RepartitionPolicy::Always),
        Some("never") => Ok(RepartitionPolicy::Never),
        Some(p) => p
            .strip_prefix("drift:")
            .and_then(|t| t.parse::<f64>().ok())
            .map(RepartitionPolicy::OnDrift)
            .ok_or_else(|| {
                format!("--policy wants always, never, or drift:<threshold>, got {p:?}")
            }),
    }
}

fn parse_limits(args: &[String]) -> Result<ExecutionLimits, String> {
    match flag_value(args, "--deadline-ms") {
        Some(ms) => match ms.parse::<u64>() {
            Ok(ms) if ms > 0 => {
                Ok(ExecutionLimits::none().with_deadline(std::time::Duration::from_millis(ms)))
            }
            _ => Err(format!("--deadline-ms wants a positive integer, got {ms:?}")),
        },
        None => Ok(ExecutionLimits::none()),
    }
}

/// Emits predictions (stdout or `--output`) as a JSON array of
/// `{object, attribute, value, confidence}` rows sorted by cell, going
/// through the shared [`TruthQuery`] surface — the same path `tdc
/// query` takes over the wire, so local and served output are
/// byte-identical on identical results.
fn emit_predictions(
    dataset: &Dataset,
    result: &td_algorithms::TruthResult,
    output: Option<String>,
) -> Result<(), String> {
    let response = TruthQuery::All
        .answer_result(dataset, result)
        .map_err(|e| e.to_string())?;
    emit_response(&response, output)
}

/// Emits a [`QueryResponse`]'s predictions (or, for source queries, its
/// trust scores) as pretty JSON to stdout or `--output`.
fn emit_response(response: &QueryResponse, output: Option<String>) -> Result<(), String> {
    let rows: Vec<serde_json::Value> =
        if response.predictions.is_empty() && !response.sources.is_empty() {
            response
                .sources
                .iter()
                .map(|s| {
                    serde_json::json!({
                        "source": s.source,
                        "trust": s.trust,
                    })
                })
                .collect()
        } else {
            response
                .predictions
                .iter()
                .map(|p| {
                    serde_json::json!({
                        "object": p.object,
                        "attribute": p.attribute,
                        "value": p.value.to_string(),
                        "confidence": p.confidence,
                    })
                })
                .collect()
        };
    let body = serde_json::to_string_pretty(&rows).expect("serialize predictions");
    match output {
        Some(path) => {
            fs::write(&path, body).map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("# wrote {path}");
        }
        None => outln!("{body}"),
    }
    Ok(())
}

/// `tdc serve`: start a session (like `stream`, store-backed inputs
/// skip the build phase) and serve it over TCP until killed. The bound
/// address is printed as the first stdout line so scripts can pick it
/// up even with `--addr 127.0.0.1:0`.
fn cmd_serve(args: &[String]) -> ExitCode {
    let Some(input) = flag_value(args, "--input") else {
        eprintln!("--input is required\n{USAGE}");
        return ExitCode::FAILURE;
    };
    let Some(algo_name) = flag_value(args, "--algo") else {
        eprintln!("--algo is required (see `tdc algos`)\n{USAGE}");
        return ExitCode::FAILURE;
    };
    let Some(algo) = algorithm_by_name(&algo_name) else {
        eprintln!("unknown algorithm {algo_name:?}; see `tdc algos`");
        return ExitCode::FAILURE;
    };
    let addr = flag_value(args, "--addr").unwrap_or_else(|| "127.0.0.1:7431".to_string());
    let mut serve_config = ServeConfig::default();
    if let Some(n) = flag_value(args, "--max-inflight") {
        match n.parse::<usize>() {
            Ok(n) if n > 0 => serve_config.max_inflight = n,
            _ => {
                eprintln!("--max-inflight wants a positive integer, got {n:?}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(n) = flag_value(args, "--workers") {
        match n.parse::<usize>() {
            Ok(n) if n > 0 => serve_config.workers = n,
            _ => {
                eprintln!("--workers wants a positive integer, got {n:?}");
                return ExitCode::FAILURE;
            }
        }
    }
    // For `serve`, --deadline-ms is the *default per-request* deadline
    // (requests may override); the session's own limits stay unbounded.
    if let Some(ms) = flag_value(args, "--deadline-ms") {
        match ms.parse::<u64>() {
            Ok(ms) if ms > 0 => serve_config.default_deadline_ms = Some(ms),
            _ => {
                eprintln!("--deadline-ms wants a positive integer, got {ms:?}");
                return ExitCode::FAILURE;
            }
        }
    }
    let policy = match parse_policy(args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let store = match load_store(&input, None) {
        Some(Ok(s)) => Some(s),
        Some(Err(e)) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
        None => None,
    };
    let backend = match parse_backend(args, false) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    if backend.is_sharded() {
        eprintln!(
            "serve executes in-process only (the serving session cannot shard); \
             use `tdc shard` for batch runs"
        );
        return ExitCode::FAILURE;
    }
    let config = TdacConfig {
        backend,
        ..Default::default()
    };
    let started = match &store {
        Some(s) => TdacSession::start_store(algo, config, policy, s),
        None => match load(&input, None) {
            Ok((dataset, _)) => TdacSession::start(algo, config, policy, dataset),
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        },
    };
    let session = match started {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{input}: session start failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let n_claims = session.dataset().n_claims();
    let server = match Server::bind(addr.as_str(), session, serve_config.clone()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    // First stdout line: the resolved address, for scripts. The server
    // keeps serving when nobody reads it: clients reach it by address,
    // and the address is on stderr too.
    let _ = write_line(format_args!("{}", server.local_addr()));
    eprintln!(
        "# serving {algo_name} on {} ({n_claims} claims, max_inflight={}, workers={}, \
         default deadline {})",
        server.local_addr(),
        serve_config.max_inflight,
        serve_config.workers,
        serve_config
            .default_deadline_ms
            .map_or("none".to_string(), |ms| format!("{ms}ms")),
    );
    server.join();
    ExitCode::SUCCESS
}

/// `tdc query`: drive a running `tdc serve` instance. `--ingest` files
/// are sent first (in order), then the query — default "everything" —
/// is answered and emitted like `tdc run`.
fn cmd_query(args: &[String]) -> ExitCode {
    let Some(addr) = flag_value(args, "--addr") else {
        eprintln!("--addr is required\n{USAGE}");
        return ExitCode::FAILURE;
    };
    let deadline_ms = match flag_value(args, "--deadline-ms") {
        Some(ms) => match ms.parse::<u64>() {
            Ok(ms) if ms > 0 => Some(ms),
            _ => {
                eprintln!("--deadline-ms wants a positive integer, got {ms:?}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    let query = match (
        flag_value(args, "--object"),
        flag_value(args, "--attribute"),
        flag_value(args, "--source"),
    ) {
        (Some(o), Some(a), None) => TruthQuery::Attribute(o, a),
        (Some(o), None, None) => TruthQuery::Object(o),
        (None, None, Some(s)) => TruthQuery::Source(s),
        (None, None, None) => TruthQuery::All,
        _ => {
            eprintln!(
                "--attribute wants --object, and --source excludes both\n{USAGE}"
            );
            return ExitCode::FAILURE;
        }
    };
    let output = flag_value(args, "--output");
    let mut client = match Client::connect(addr.as_str()) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot connect to {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    for path in flag_values(args, "--ingest") {
        let batch = match batch_from_file(&path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        };
        let claims: Vec<WireClaim> = batch
            .rows()
            .map(|(s, o, a, v)| WireClaim {
                source: s.clone(),
                object: o.clone(),
                attribute: a.clone(),
                value: v.clone(),
            })
            .collect();
        match client.ingest(claims, deadline_ms) {
            Ok(resp) => match resp.body {
                ResponseBody::Ingest(ack) => eprintln!(
                    "# {path}: +{} claims -> generation {}{}",
                    ack.appended_claims,
                    resp.generation,
                    if ack.degradation.is_some() { ", DEGRADED" } else { "" },
                ),
                ResponseBody::Error(err) => {
                    eprintln!("{path}: ingest rejected ({:?}): {}", err.kind, err.message);
                    return ExitCode::FAILURE;
                }
                other => {
                    eprintln!("{path}: unexpected response {other:?}");
                    return ExitCode::FAILURE;
                }
            },
            Err(e) => {
                eprintln!("{path}: ingest failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    match client.query(query, deadline_ms) {
        Ok(resp) => match resp.body {
            ResponseBody::Query(q) => {
                eprintln!(
                    "# generation {}: {} predictions, {} trust scores",
                    resp.generation,
                    q.predictions.len(),
                    q.sources.len()
                );
                if let Some(deg) = &q.degradation {
                    eprintln!("# DEGRADED: {deg} (best-so-far answer below)");
                }
                if let Err(e) = emit_response(&q, output) {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
                ExitCode::SUCCESS
            }
            ResponseBody::Error(err) => {
                eprintln!("query rejected ({:?}): {}", err.kind, err.message);
                ExitCode::FAILURE
            }
            other => {
                eprintln!("unexpected response {other:?}");
                ExitCode::FAILURE
            }
        },
        Err(e) => {
            eprintln!("query failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn flag_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn flag_values(args: &[String], name: &str) -> Vec<String> {
    args.iter()
        .enumerate()
        .filter(|(_, a)| *a == name)
        .filter_map(|(i, _)| args.get(i + 1))
        .cloned()
        .collect()
}

fn has_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}
