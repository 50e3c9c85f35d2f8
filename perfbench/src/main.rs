//! `perfbench` entry point; see the library docs for the command line.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        // Shard workers re-invoke this executable (`ShardRunner`'s
        // fork-of-self convention).
        Some("worker") => return ExitCode::from(td_shard::worker_main().clamp(0, 255) as u8),
        Some("gen") => perfbench::gen_main(&args[1..]),
        _ => perfbench::bench_main(&args).map(|(env, result)| {
            println!("{env}");
            println!("{result}");
        }),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
