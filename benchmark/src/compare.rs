//! The `compare` subcommand: reads two results files and applies the
//! benchmark's own bounds to every (end-to-end metric, workload) pair.
//!
//! Each file holds the records of one or more runs. Per pair the verdict is
//! one of:
//!
//! * `better` — every run of B reads better than every run of A;
//! * `worse` — B's median is worse than A's by more than the bound;
//! * `unresolved` — neither, and the run-to-run spread of either side is
//!   wider than the bound, so "no change" cannot be told from noise;
//! * `unchanged` — none of the above.
//!
//! `best_cycles_geomean`, `failed_share` and the exact per-layer counts
//! have no tolerance: runs of one seed must agree to the last bit.

use crate::metrics::{end_to_end, Better, EXACT_END_TO_END, PER_LAYER};
use crate::stats::{median, quartile_spread};
use crate::workload::EXACT_LAYERS;
use amos_serve::json::parse_object;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Unchanged,
    Worse,
    Unresolved,
}

/// Values of one (workload, metric) pair, one per run, with the run's seed.
type Runs = Vec<(u64, f64)>;
type Table = BTreeMap<(String, String), Runs>;

fn load(path: &Path) -> Result<Table, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut table = Table::new();
    for (n, line) in text.lines().enumerate() {
        let record =
            parse_object(line).map_err(|e| format!("{}:{}: {e}", path.display(), n + 1))?;
        let field = |key: &str| record.get(key).and_then(|v| v.as_str()).map(String::from);
        if field("record").as_deref() != Some("metric") {
            continue;
        }
        let parsed = (|| {
            Some((
                field("workload")?,
                field("name")?,
                record.get("seed")?.as_u64()?,
                record.get("value")?.as_f64()?,
            ))
        })();
        let (workload, name, seed, value) = parsed
            .ok_or_else(|| format!("{}:{}: incomplete metric record", path.display(), n + 1))?;
        table
            .entry((workload, name))
            .or_default()
            .push((seed, value));
    }
    Ok(table)
}

/// The verdict on a metric with a tolerance.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    // Signed so that larger is worse.
    let worse_by = |x: f64, y: f64| match better {
        Better::Lower => y - x,
        Better::Higher => x - y,
    };
    if a.iter().all(|&x| b.iter().all(|&y| worse_by(x, y) < 0.0)) {
        return Verdict::Better;
    }
    let base = median(a);
    if worse_by(base, median(b)) > bound * base.abs() {
        return Verdict::Worse;
    }
    if quartile_spread(a) > bound || quartile_spread(b) > bound {
        return Verdict::Unresolved;
    }
    Verdict::Unchanged
}

/// The verdict on a metric that must repeat exactly: runs are matched by
/// seed, and any seed present on both sides must agree.
pub fn judge_exact(a: &Runs, b: &Runs, better: Better) -> Verdict {
    let mut verdict = Verdict::Unchanged;
    for (seed, x) in a {
        for (_, y) in b.iter().filter(|(s, _)| s == seed) {
            if x.to_bits() == y.to_bits() {
                continue;
            }
            let improved = match better {
                Better::Lower => y < x,
                Better::Higher => y > x,
            };
            if !improved {
                return Verdict::Worse;
            }
            verdict = Verdict::Better;
        }
    }
    verdict
}

pub fn compare(a_path: &Path, b_path: &Path) -> ExitCode {
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let mut regressions = 0;
    println!(
        "{:<12} {:<36} {:>14} {:>14} {:>8}  verdict",
        "workload", "metric", "A median", "B median", "bound"
    );
    for ((workload, name), runs_a) in &a {
        let Some(runs_b) = b.get(&(workload.clone(), name.clone())) else {
            continue;
        };
        let values = |runs: &Runs| runs.iter().map(|(_, v)| *v).collect::<Vec<f64>>();
        let exact =
            EXACT_END_TO_END.contains(&name.as_str()) || EXACT_LAYERS.contains(&name.as_str());
        let (verdict, bound) = if exact {
            let better = PER_LAYER
                .iter()
                .find(|m| m.name == name)
                .map_or(Better::Lower, |m| m.better);
            (judge_exact(runs_a, runs_b, better), 0.0)
        } else if let Some(m) = end_to_end(name) {
            (
                judge(&values(runs_a), &values(runs_b), m.better, m.bound),
                m.bound,
            )
        } else {
            // Per-layer timings carry no bound; they explain, not gate.
            continue;
        };
        if matches!(verdict, Verdict::Worse | Verdict::Unresolved) {
            regressions += 1;
        }
        println!(
            "{workload:<12} {name:<36} {:>14.6} {:>14.6} {:>7.1}%  {}",
            median(&values(runs_a)),
            median(&values(runs_b)),
            bound * 100.0,
            format!("{verdict:?}").to_lowercase()
        );
    }
    if regressions == 0 {
        ExitCode::SUCCESS
    } else {
        println!("{regressions} pairs are worse or unresolved");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disjoint_runs_are_better_whatever_the_spread() {
        let a = [10.0, 14.0, 12.0];
        let b = [9.0, 8.0, 9.5];
        assert_eq!(judge(&a, &b, Better::Lower, 0.05), Verdict::Better);
        assert_eq!(judge(&b, &a, Better::Higher, 0.05), Verdict::Better);
    }

    #[test]
    fn a_median_past_the_bound_is_worse() {
        let a = [100.0, 101.0, 99.0];
        let b = [111.0, 112.0, 110.0];
        assert_eq!(judge(&a, &b, Better::Lower, 0.10), Verdict::Worse);
        assert_eq!(judge(&a, &b, Better::Lower, 0.15), Verdict::Unchanged);
        assert_eq!(judge(&b, &a, Better::Higher, 0.05), Verdict::Worse);
    }

    #[test]
    fn overlapping_noisy_runs_are_unresolved_not_unchanged() {
        let a = [100.0, 80.0, 120.0, 95.0, 105.0];
        let b = [101.0, 85.0, 118.0, 96.0, 104.0];
        assert_eq!(judge(&a, &b, Better::Lower, 0.05), Verdict::Unresolved);
        assert_eq!(judge(&a, &b, Better::Lower, 0.50), Verdict::Unchanged);
    }

    #[test]
    fn exact_metrics_are_matched_by_seed() {
        let a = vec![(1, 500.0), (2, 700.0)];
        assert_eq!(
            judge_exact(&a, &vec![(2, 700.0), (1, 500.0)], Better::Lower),
            Verdict::Unchanged
        );
        assert_eq!(
            judge_exact(&a, &vec![(1, 500.0), (2, 700.5)], Better::Lower),
            Verdict::Worse
        );
        assert_eq!(
            judge_exact(&a, &vec![(1, 499.0)], Better::Lower),
            Verdict::Better
        );
        // Other seeds draw other inputs: nothing to hold them to.
        assert_eq!(
            judge_exact(&a, &vec![(3, 900.0)], Better::Lower),
            Verdict::Unchanged
        );
    }
}
