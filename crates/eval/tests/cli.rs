//! End-to-end tests of the `repro` and `tdc` binaries.

use std::process::Command;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

fn tdc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_tdc"))
}

#[test]
fn repro_help_prints_usage() {
    let out = repro().arg("--help").output().expect("spawn repro");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("usage: repro"));
    assert!(text.contains("table4"));
}

#[test]
fn repro_rejects_unknown_experiment() {
    let out = repro().arg("tableX").output().expect("spawn repro");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown experiment"));
}

#[test]
fn repro_rejects_bad_scale() {
    let out = repro()
        .args(["table4", "--scale", "enormous"])
        .output()
        .expect("spawn repro");
    assert!(!out.status.success());
}

#[test]
fn repro_ablation_small_produces_table_and_json() {
    let dir = std::env::temp_dir().join(format!("tdac-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let json_path = dir.join("ablation.json");
    let out = repro()
        .args([
            "ablation",
            "--scale",
            "small",
            "--json",
            json_path.to_str().expect("utf-8 path"),
        ])
        .output()
        .expect("spawn repro");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("ablation"));
    assert!(text.contains("paper default"));
    let body = std::fs::read_to_string(&json_path).expect("json written");
    let parsed: serde_json::Value = serde_json::from_str(&body).expect("valid json");
    assert!(parsed.get("ablation").is_some());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn tdc_lists_algorithms() {
    let out = tdc().arg("algos").output().expect("spawn tdc");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for name in ["MajorityVote", "TruthFinder", "Accu", "3-Estimates"] {
        assert!(text.contains(name), "missing {name}");
    }
}

#[test]
fn tdc_runs_on_a_json_dataset_and_evaluates() {
    use td_model::{json, DatasetBuilder, Value};
    let mut b = DatasetBuilder::new();
    for o in 0..3 {
        let obj = format!("o{o}");
        for a in ["a1", "a2", "a3"] {
            b.claim("good1", &obj, a, Value::int(o)).unwrap();
            b.claim("good2", &obj, a, Value::int(o)).unwrap();
            b.claim("bad", &obj, a, Value::int(100 + o)).unwrap();
            b.truth(&obj, a, Value::int(o));
        }
    }
    let (d, t) = b.build_with_truth();
    let dir = std::env::temp_dir().join(format!("tdac-tdc-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let data_path = dir.join("data.json");
    std::fs::write(&data_path, json::to_json(&d, Some(&t))).expect("write dataset");

    // stats subcommand
    let out = tdc()
        .args(["stats", "--input", data_path.to_str().expect("utf-8")])
        .output()
        .expect("spawn tdc");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("sources      : 3"));
    assert!(text.contains("9 cells"));

    // run subcommand, plain algorithm
    let out = tdc()
        .args([
            "run",
            "--input",
            data_path.to_str().expect("utf-8"),
            "--algo",
            "vote",
        ])
        .output()
        .expect("spawn tdc");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let preds: serde_json::Value =
        serde_json::from_str(&String::from_utf8_lossy(&out.stdout)).expect("predictions json");
    assert_eq!(preds.as_array().expect("array").len(), 9);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("evaluation"), "truth present ⇒ report: {stderr}");

    // run subcommand with TD-AC wrapping and output file
    let preds_path = dir.join("preds.json");
    let out = tdc()
        .args([
            "run",
            "--input",
            data_path.to_str().expect("utf-8"),
            "--algo",
            "accu",
            "--tdac",
            "--output",
            preds_path.to_str().expect("utf-8"),
        ])
        .output()
        .expect("spawn tdc");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("partition"));
    let body = std::fs::read_to_string(&preds_path).expect("predictions written");
    let preds: serde_json::Value = serde_json::from_str(&body).expect("valid json");
    assert_eq!(preds.as_array().expect("array").len(), 9);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn tdc_accepts_csv_claims_and_truth() {
    let dir = std::env::temp_dir().join(format!("tdac-csv-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let claims = dir.join("claims.csv");
    let truth = dir.join("truth.csv");
    std::fs::write(
        &claims,
        "source,object,attribute,value\n\
         s1,o,a,1\ns2,o,a,1\ns3,o,a,2\n\
         s1,o,b,5\ns2,o,b,6\ns3,o,b,6\n",
    )
    .expect("write claims");
    std::fs::write(&truth, "object,attribute,value\no,a,1\no,b,6\n").expect("write truth");

    let out = tdc()
        .args([
            "run",
            "--input",
            claims.to_str().expect("utf-8"),
            "--truth",
            truth.to_str().expect("utf-8"),
            "--algo",
            "vote",
        ])
        .output()
        .expect("spawn tdc");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("2 / 2 cells exact"), "{stderr}");

    // stats on CSV works too.
    let out = tdc()
        .args(["stats", "--input", claims.to_str().expect("utf-8")])
        .output()
        .expect("spawn tdc");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("sources      : 3"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn tdc_fails_cleanly_on_missing_input() {
    let out = tdc()
        .args(["run", "--input", "/nonexistent.json", "--algo", "vote"])
        .output()
        .expect("spawn tdc");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

#[test]
fn tdc_rejects_unknown_algorithm() {
    let out = tdc()
        .args(["run", "--input", "x.json", "--algo", "nonsense"])
        .output()
        .expect("spawn tdc");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown algorithm"));
}

#[test]
fn tdc_exits_quietly_when_its_reader_closes_the_pipe() {
    use std::io::Read;
    use std::process::Stdio;

    // 6,000 cells of predictions, ~0.6 MB of JSON: far more than a pipe
    // holds, so `run` is still writing when the reader goes. `inspect`
    // is the reported case; its later lines follow the store decode, so
    // it usually meets the closed pipe too.
    let dir = std::env::temp_dir().join(format!("tdac-pipe-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let claims = dir.join("claims.csv");
    let mut csv = String::from("source,object,attribute,value\n");
    for o in 0..2_000 {
        for a in ["a", "b", "c"] {
            for s in ["s1", "s2"] {
                csv.push_str(&format!("{s},o{o},{a},{o}\n"));
            }
        }
    }
    std::fs::write(&claims, csv).expect("write claims");
    let golden = concat!(env!("CARGO_MANIFEST_DIR"), "/../td-verify/goldens/ds1.tds");
    let claims = claims.to_str().expect("utf-8");
    for args in [
        vec!["inspect", "--input", golden],
        vec!["run", "--input", claims, "--algo", "vote"],
    ] {
        let mut child = tdc()
            .args(&args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn tdc");
        // One byte at a time up to the first newline, so everything
        // after it stays in the pipe, then close it.
        let mut stdout = child.stdout.take().expect("stdout piped");
        let mut byte = [0u8];
        let mut first = Vec::new();
        while stdout.read(&mut byte).expect("read stdout") == 1 && byte[0] != b'\n' {
            first.push(byte[0]);
        }
        assert!(!first.is_empty(), "{args:?}: no first line");
        drop(stdout);
        let mut stderr = String::new();
        child
            .stderr
            .take()
            .expect("stderr piped")
            .read_to_string(&mut stderr)
            .expect("read stderr");
        let status = child.wait().expect("tdc exits");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert_ne!(status.code(), Some(101), "{args:?}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn tdc_serve_keeps_serving_when_nobody_reads_its_stdout() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;

    let golden = concat!(env!("CARGO_MANIFEST_DIR"), "/../td-verify/goldens/ds1.tds");
    let mut child = tdc()
        .args(["serve", "--input", golden, "--algo", "vote"])
        .args(["--addr", "127.0.0.1:0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn tdc serve");
    // Close the read end before the address line is written (the store
    // loads and a session starts first), so that write meets a closed
    // pipe.
    drop(child.stdout.take());
    let mut stderr = BufReader::new(child.stderr.take().expect("stderr piped"));
    let mut banner = String::new();
    stderr.read_line(&mut banner).expect("read stderr");
    let addr = banner
        .split(" on ")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .map(str::to_string);
    let answered = addr.as_deref().map(|addr| {
        tdc()
            .args(["query", "--addr", addr])
            .output()
            .expect("run tdc query")
    });
    let running = child.try_wait().expect("poll tdc serve").is_none();
    child.kill().ok();
    child.wait().ok();
    assert!(running, "tdc serve exited: {banner}");
    let answered = answered.unwrap_or_else(|| panic!("no address in {banner:?}"));
    assert!(
        answered.status.success(),
        "{}",
        String::from_utf8_lossy(&answered.stderr)
    );
    assert!(String::from_utf8_lossy(&answered.stdout).contains("\"object\": \"o0\""));
}
