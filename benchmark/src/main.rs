//! One end-to-end benchmark of the AMOS-rs stack.
//!
//! ```text
//! amos-benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--out FILE]
//! amos-benchmark compare A.jsonl B.jsonl
//! amos-benchmark manifest
//! ```
//!
//! See `README.md` beside this crate for the metric glossary.

mod compare;
mod gen;
mod metrics;
mod openloop;
mod probes;
mod run;
mod stats;
mod sys;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: amos-benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--out FILE]
       amos-benchmark compare A.jsonl B.jsonl
       amos-benchmark manifest";

fn parse_run(args: &[String]) -> Result<run::Options, String> {
    let mut opts = run::Options::default();
    let mut args = args.iter().peekable();
    while let Some(flag) = args.next() {
        if flag == "--trace" {
            // A bare switch, or followed by 0 or 1.
            opts.trace = match args.peek().map(|s| s.as_str()) {
                Some("0") => {
                    args.next();
                    false
                }
                Some("1") => {
                    args.next();
                    true
                }
                _ => true,
            };
            continue;
        }
        let value = args
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        let bad = || format!("bad value `{value}` for `{flag}`");
        match flag.as_str() {
            "--workload" => opts.workload = Some(value.clone()),
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad())?;
                if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--out" => opts.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => match parse_run(&args[1..]) {
            Ok(opts) => run::run(&opts),
            Err(e) => {
                eprintln!("{e}\n{USAGE}");
                ExitCode::from(2)
            }
        },
        Some("compare") if args.len() == 3 => {
            compare::compare(Path::new(&args[1]), Path::new(&args[2]))
        }
        Some("manifest") if args.len() == 1 => {
            print!("{}", metrics::manifest());
            ExitCode::SUCCESS
        }
        // The sequential child of `core.pool.net_speedup`; it runs under
        // AMOS_JOBS=1, which `run` refuses.
        Some("net-sequential") if args.len() == 1 => {
            let work = sys::bench_dir()
                .join("out")
                .join(format!("work-net-sequential-{}", std::process::id()));
            std::fs::create_dir_all(&work).expect("create the scratch directory");
            workload::net::run_sequential_child(&work);
            let _ = std::fs::remove_dir_all(&work);
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
