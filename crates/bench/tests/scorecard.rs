//! EXPERIMENTS.md's generated tables are the one committed record of the
//! paper scorecard: they must equal a fresh computation, and the notes
//! around them must not quote a factor or percentage the tables hold.

use amos_bench::{blocks, experiments, moved_rows, splice, Experiment, EXPERIMENTS_MD, RERECORD};
use std::collections::BTreeSet;
use std::sync::OnceLock;

fn fresh() -> &'static [Experiment] {
    static FRESH: OnceLock<Vec<Experiment>> = OnceLock::new();
    FRESH.get_or_init(experiments)
}

fn committed() -> String {
    std::fs::read_to_string(EXPERIMENTS_MD).expect("EXPERIMENTS.md is readable")
}

#[test]
fn the_committed_scorecard_equals_a_fresh_computation() {
    let committed = committed();
    let blocks = blocks(fresh());
    let fresh = splice(&committed, &blocks).unwrap_or_else(|e| panic!("EXPERIMENTS.md: {e}"));
    let keys: Vec<String> = blocks.into_iter().map(|(key, _)| key).collect();
    let moved = moved_rows(&committed, &fresh, &keys);
    assert!(
        committed == fresh,
        "EXPERIMENTS.md differs from a fresh computation in {} rows:\n{}\n\
         re-record with `{RERECORD}` if the change is intended",
        moved.len(),
        moved.join("\n")
    );
}

#[test]
fn each_value_is_defined_once_beside_its_row() {
    for e in fresh() {
        let ids: BTreeSet<&str> = e.rows.iter().map(|r| r.id.as_str()).collect();
        assert_eq!(ids.len(), e.rows.len(), "{}: a row id repeats", e.key);
        for id in e.headline {
            assert!(
                ids.contains(id),
                "{}: the summary names no row `{id}`",
                e.key
            );
        }
    }
}

#[test]
fn the_notes_quote_no_factor_or_percentage_a_table_holds() {
    let committed = committed();
    let mut notes = String::new();
    let mut rest = committed.as_str();
    while let Some(start) = rest.find("<!-- BEGIN scorecard:") {
        notes += &rest[..start];
        let end = rest[start..]
            .find("<!-- END scorecard:")
            .expect("every block ends");
        rest = &rest[start + end..];
    }
    notes += rest;
    for e in fresh() {
        for row in &e.rows {
            let value = row.ours.split_whitespace().next().unwrap_or_default();
            if value.ends_with(['x', '%']) && value.starts_with(|c: char| c.is_ascii_digit()) {
                assert!(
                    !notes.contains(value),
                    "the notes quote {} {}: {value}",
                    e.key,
                    row.id
                );
            }
        }
    }
}
