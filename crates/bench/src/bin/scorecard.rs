//! Recomputes every experiment of the paper scorecard and rewrites the
//! generated blocks of EXPERIMENTS.md in place:
//!
//! ```sh
//! cargo run --release -p amos-bench --bin scorecard
//! ```
//!
//! It takes no arguments. It prints each row that moved against the file as
//! it was, then how many rows and blocks it wrote.

use amos_bench::{blocks, experiments, moved_rows, splice, EXPERIMENTS_MD};
use std::process::ExitCode;

fn main() -> ExitCode {
    if std::env::args().len() > 1 {
        eprintln!("usage: scorecard (it takes no arguments)");
        return ExitCode::from(2);
    }
    match rerecord() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {EXPERIMENTS_MD}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn rerecord() -> Result<(), String> {
    let committed = std::fs::read_to_string(EXPERIMENTS_MD).map_err(|e| e.to_string())?;
    let experiments = experiments();
    let blocks = blocks(&experiments);
    let fresh = splice(&committed, &blocks)?;
    let keys: Vec<String> = blocks.iter().map(|(key, _)| key.clone()).collect();
    for moved in moved_rows(&committed, &fresh, &keys) {
        println!("{moved}");
    }
    std::fs::write(EXPERIMENTS_MD, &fresh).map_err(|e| e.to_string())?;
    let rows: usize = experiments.iter().map(|e| e.rows.len()).sum();
    println!("EXPERIMENTS.md: {rows} rows in {} blocks", blocks.len());
    Ok(())
}
