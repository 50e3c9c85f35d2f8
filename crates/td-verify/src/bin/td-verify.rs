//! Golden snapshot driver.
//!
//! * `td-verify` — recompute the DS1 table, the DS1 binary store and
//!   the base-run fingerprints and check them against the committed
//!   snapshots (exit 1 on divergence).
//! * `td-verify --bless` — regenerate all three snapshots in place;
//!   review and commit the diff.
//! * `td-verify worker` — run as a td-shard worker process (reads one
//!   shard-job line on stdin). Exists so the shard oracle tests can
//!   spawn real worker processes out of the test binary's own
//!   workspace without depending on `tdc` being built.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.iter().map(String::as_str).collect::<Vec<_>>().as_slice() {
        ["worker"] => ExitCode::from(td_shard::worker_main().clamp(0, 255) as u8),
        [] => {
            let mut ok = true;
            match td_verify::check_ds1() {
                Ok(()) => println!(
                    "golden check passed: {}",
                    td_verify::golden::golden_path().display()
                ),
                Err(diff) => {
                    eprintln!("{diff}");
                    ok = false;
                }
            }
            match td_verify::check_ds1_store() {
                Ok(()) => println!(
                    "store golden check passed: {}",
                    td_verify::store::store_golden_path().display()
                ),
                Err(diff) => {
                    eprintln!("{diff}");
                    ok = false;
                }
            }
            match td_verify::check_base_runs() {
                Ok(()) => println!(
                    "base-run golden check passed: {}",
                    td_verify::base_runs::base_runs_path().display()
                ),
                Err(diff) => {
                    eprintln!("{diff}");
                    ok = false;
                }
            }
            if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        ["--bless"] => match td_verify::bless_ds1()
            .and_then(|p| {
                println!("blessed {}", p.display());
                td_verify::bless_ds1_store()
            })
            .and_then(|p| {
                println!("blessed {}", p.display());
                td_verify::bless_base_runs()
            }) {
            Ok(path) => {
                println!("blessed {}", path.display());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("blessing failed: {e}");
                ExitCode::FAILURE
            }
        },
        other => {
            eprintln!("usage: td-verify [--bless]   (got {other:?})");
            ExitCode::FAILURE
        }
    }
}
