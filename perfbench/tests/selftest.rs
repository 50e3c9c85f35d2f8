//! Self-tests of the benchmark: every workload at smoke size through the
//! real binary (same code paths and checks as a measured run), the
//! tail-percentile rule, the open-loop timing rule, and how a run finds
//! the revision it measured.

use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

use perfbench::harness::open_loop;
use perfbench::report::{END_TO_END, PER_LAYER};
use perfbench::stats::{tail_percentile, MIN_BEYOND};
use perfbench::sys::revision;
use perfbench::workloads::WORKLOADS;

/// Runs the binary at smoke size from the repository root and returns
/// its result object.
fn smoke(workload: &str, seed: u64, trace: u8) -> serde_json::Value {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("repo root");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(root)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            "1",
            "--trace",
            &trace.to_string(),
            "--scale",
            "smoke",
        ])
        .output()
        .expect("perfbench runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload}: {}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last).expect("the result line is JSON")
}

fn check(workload: &str, seed: u64, trace: u8) {
    let result = smoke(workload, seed, trace);
    let field = |name: &str| result.get(name).unwrap_or_else(|| panic!("no {name}"));
    assert_eq!(
        field("correct").as_bool(),
        Some(true),
        "{workload}: {result:?}"
    );
    assert_eq!(field("failed").as_u64(), Some(0), "{workload}");
    assert!(field("attempted").as_u64().unwrap_or(0) >= 1, "{workload}");
    let table: &[(&str, &str)] = if trace == 1 { &PER_LAYER } else { &END_TO_END };
    let metrics = field("metrics").as_object().expect("metrics object");
    assert_eq!(metrics.len(), table.len(), "{workload}: {metrics:?}");
    for (name, unit) in table {
        let m = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{workload}: no {name}"));
        assert_eq!(
            m.get("unit").and_then(|u| u.as_str()),
            Some(*unit),
            "{workload}: {name}"
        );
        let value = m.get("value").and_then(|v| v.as_f64()).unwrap_or(f64::NAN);
        assert!(value.is_finite(), "{workload}: {name} = {value}");
        if trace == 0 {
            assert!(value > 0.0, "{workload}: {name} must never be 0");
        }
    }
}

#[test]
fn every_workload_runs_clean_at_smoke_size() {
    for (i, w) in WORKLOADS.iter().enumerate() {
        check(w.name, 100 + i as u64, 0);
    }
}

#[test]
fn every_workload_traces_every_layer_at_smoke_size() {
    for (i, w) in WORKLOADS.iter().enumerate() {
        check(w.name, 200 + i as u64, 1);
    }
}

#[test]
fn tail_percentiles_need_ten_samples_beyond() {
    let samples: Vec<f64> = (1..=100).map(f64::from).collect();
    // 100 samples: p90 is the 90th, with exactly 10 beyond it.
    assert_eq!(tail_percentile(&samples, 90.0), Some(90.0));
    assert_eq!(tail_percentile(&samples[..99], 90.0), None);
    // p99 needs 1000 samples.
    assert_eq!(tail_percentile(&samples, 99.0), None);
    let many: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
    assert_eq!(tail_percentile(&many, 99.0), Some(990.0));
    // Every reported tail leaves at least MIN_BEYOND samples above it.
    for n in 1..300 {
        let s: Vec<f64> = (0..n).map(f64::from).collect();
        if let Some(p) = tail_percentile(&s, 90.0) {
            assert!(
                s.iter().filter(|&&x| x > p).count() >= MIN_BEYOND,
                "n = {n}"
            );
        }
    }
}

#[test]
fn open_loop_latency_counts_from_the_due_time() {
    // 10 per second, and the first request stalls for 250 ms: the
    // second and third are sent late, and their latency includes the
    // wait behind the stall.
    let start = Instant::now();
    let log = open_loop(start, 10.0, 0..4, |i| {
        if i == 0 {
            std::thread::sleep(Duration::from_millis(250));
        }
        i
    });
    assert_eq!(log.len(), 4);
    assert!(log[0].latency_ms() >= 250.0);
    // Due at 100 ms, sent at ~250 ms: ~150 ms late, ~0 ms of service.
    assert!(log[1].late_ms() >= 140.0, "{}", log[1].late_ms());
    assert!(log[1].latency_ms() >= 140.0);
    assert!(log[1].service_ms() < 50.0);
    assert!(log[2].latency_ms() >= 40.0);
    // Due at 300 ms, after the stall cleared: on time.
    assert!(log[3].late_ms() < 40.0, "{}", log[3].late_ms());
    for (i, t) in log.iter().enumerate() {
        assert_eq!(t.value, i);
        assert!(t.due >= start + Duration::from_millis(100 * i as u64));
        assert!(t.latency_ms() >= t.service_ms());
    }
}

#[test]
fn revision_follows_head_through_loose_and_packed_refs() {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("revision");
    let git = root.join(".git");
    let _ = std::fs::remove_dir_all(&root);
    assert_eq!(revision(&root), "unknown");
    std::fs::create_dir_all(git.join("refs/heads")).expect("a scratch .git");
    let write = |file: &str, text: &str| std::fs::write(git.join(file), text).expect("writable");
    write("HEAD", "ref: refs/heads/main\n");
    assert_eq!(revision(&root), "unknown");
    write(
        "packed-refs",
        "# pack-refs with: peeled fully-peeled sorted\nabc123 refs/heads/main\n",
    );
    assert_eq!(revision(&root), "abc123");
    write("refs/heads/main", "def456\n");
    assert_eq!(revision(&root), "def456");
    write("HEAD", "0123abcd\n");
    assert_eq!(revision(&root), "0123abcd");
}
