//! The TD-AC benchmark: four workloads generated from a seed, driven
//! through the program's public APIs, with every output checked.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--scale full|smoke]
//! ```
//!
//! The last line of standard output is the result object (`correct`,
//! `attempted`, `failed`, `metrics`): the end-to-end metrics of
//! `BENCHMARK.json` with `--trace 0`, its per-layer metrics with
//! `--trace 1`. The line before it records the run's environment (core
//! count, revision, seed, sample counts) and its unbounded figures
//! (accuracy; `serve_stream`'s ingest tail). Everything the run writes
//! stays under `.perfbench/` in the current directory; the traced run
//! leaves its spans in `.perfbench/traces/`.

pub mod batch;
pub mod harness;
pub mod inputs;
pub mod report;
pub mod serve;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod workloads;

use std::path::Path;
use std::process::Command;
use std::time::Duration;

use harness::Ctx;
use inputs::InputFiles;
use report::{END_TO_END, PER_LAYER};
use workloads::{Kind, Scale, Workload};

/// Parsed command line of a measuring run.
struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse(args: &[String]) -> Result<Args, String> {
    let need = |name: &str| flag(args, name).ok_or(format!("{name} is required"));
    let workload = need("--workload")?;
    let workload = workloads::by_name(workload).ok_or(format!("unknown workload {workload:?}"))?;
    let seed = need("--seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = need("--seconds")?
        .parse::<f64>()
        .ok()
        .filter(|s| s.is_finite() && *s > 0.0)
        .ok_or("--seconds wants a positive number")?;
    let trace = match flag(args, "--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace wants 0 or 1, got {other:?}")),
    };
    let scale = Scale::parse(flag(args, "--scale").unwrap_or("full"))
        .ok_or("--scale wants full or smoke")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        scale,
    })
}

/// `perfbench gen …`: writes one workload's inputs into `--dir`.
pub fn gen_main(args: &[String]) -> Result<(), String> {
    let a = parse(args)?;
    let dir = flag(args, "--dir").ok_or("--dir is required")?;
    inputs::generate(
        a.workload,
        a.seed,
        a.scale,
        a.seconds,
        &InputFiles::new(dir),
    )
}

/// A measuring run: generate inputs in a child process, measure, check,
/// print. Returns the two output lines.
pub fn bench_main(args: &[String]) -> Result<(String, String), String> {
    let a = parse(args)?;
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    let state = root.join(".perfbench");
    let work = state.join(format!("run-{}", std::process::id()));
    let traces = state.join("traces");
    let tmp = work.join("tmp");
    for dir in [&tmp, &traces] {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    // Shard slices go through `std::env::temp_dir` in this process and
    // its workers: keep them in the run's directory. No thread or child
    // process exists yet.
    std::env::set_var("TMPDIR", &tmp);
    let result = measure(&a, &root, &work, &traces);
    // Inputs and shard slices are per run; only traces are kept.
    let _ = std::fs::remove_dir_all(&work);
    result
}

fn measure(a: &Args, root: &Path, work: &Path, traces: &Path) -> Result<(String, String), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut gen = Command::new(&exe);
    gen.arg("gen")
        .args(["--workload", a.workload.name])
        .args(["--seed", &a.seed.to_string()])
        .args(["--seconds", &a.seconds.to_string()])
        .args([
            "--scale",
            if a.scale == Scale::Full {
                "full"
            } else {
                "smoke"
            },
        ])
        .arg("--dir")
        .arg(work);
    let status = gen
        .status()
        .map_err(|e| format!("spawning the generator: {e}"))?;
    if !status.success() {
        return Err(format!("input generation failed: {status}"));
    }

    let rev = sys::revision(root);
    let env = format!(
        "\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \"rev\": \"{rev}\"",
        a.workload.name,
        a.seed,
        a.seconds,
        a.trace as u8,
        sys::nproc(),
    );
    let ctx = Ctx {
        files: InputFiles::new(work),
        seed: a.seed,
        measure: Duration::from_secs_f64(a.seconds),
        trace: a.trace,
        exe,
        trace_file: traces.join(format!("{}-seed{}.jsonl", a.workload.name, a.seed)),
        trace_header: format!("{{{env}}}"),
    };
    let result = match a.workload.kind {
        Kind::Batch | Kind::Sharded => batch::run(a.workload, &ctx)?,
        Kind::Serve => serve::run(a.workload, &ctx)?,
    };
    for reason in &result.tally.reasons {
        eprintln!("perfbench: failed: {reason}");
    }
    let samples: Vec<String> = result
        .samples
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    if !result.recorded.contains_key("accuracy") {
        return Err("the run computed no accuracy".to_string());
    }
    let recorded: Vec<String> = result
        .recorded
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v:?}"))
        .collect();
    let env_line = format!(
        "{{\"env\": {{{env}, {}, \"samples\": {{{}}}}}}}",
        recorded.join(", "),
        samples.join(", ")
    );
    let table: &[(&str, &str)] = if a.trace { &PER_LAYER } else { &END_TO_END };
    Ok((env_line, result.json_line(table)?))
}
