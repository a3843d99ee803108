//! The specs in `docs/specs/` cannot rot silently: every scenario names at
//! least one test on a `- **TEST** `name`` line, and every name must be a
//! function (`fn name(`) somewhere under `tests/` or `crates/`.

use std::fs;
use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The text of every file under `dir` with extension `ext`, recursively.
fn sources(dir: &Path, ext: &str, out: &mut Vec<(PathBuf, String)>) {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|entry| entry.expect("readable directory entry").path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            sources(&path, ext, out);
        } else if path.extension().is_some_and(|x| x == ext) {
            let text = fs::read_to_string(&path).expect("readable file");
            out.push((path, text));
        }
    }
}

/// The test names of one `- **TEST**` line: its backticked identifiers.
fn test_names(line: &str) -> Vec<&str> {
    let Some(rest) = line.trim_start().strip_prefix("- **TEST**") else {
        return Vec::new();
    };
    let is_ident = |s: &str| {
        s.starts_with(|c: char| c.is_ascii_lowercase() || c == '_')
            && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
    };
    rest.split('`')
        .skip(1)
        .step_by(2)
        .filter(|s| is_ident(s))
        .collect()
}

#[test]
fn every_spec_scenario_names_tests_that_exist() {
    let root = root();
    let mut specs = Vec::new();
    sources(&root.join("docs/specs"), "md", &mut specs);
    assert!(!specs.is_empty(), "no spec under docs/specs/");
    let mut code = Vec::new();
    sources(&root.join("tests"), "rs", &mut code);
    sources(&root.join("crates"), "rs", &mut code);
    let defined = |name: &str| {
        let needle = format!("fn {name}(");
        code.iter().any(|(_, text)| text.contains(&needle))
    };

    let mut named = 0usize;
    for (path, text) in &specs {
        let spec = path.strip_prefix(&root).unwrap_or(path).display();
        // The scenario being read and how many tests it has named so far.
        let mut scenario: Option<(&str, usize)> = None;
        let close = |scenario: Option<(&str, usize)>| {
            if let Some((title, 0)) = scenario {
                panic!("{spec}: scenario `{title}` names no test");
            }
        };
        for (at, line) in text.lines().enumerate() {
            if line.starts_with('#') {
                close(scenario.take());
                if let Some(title) = line.strip_prefix("#### Scenario:") {
                    scenario = Some((title.trim(), 0));
                }
                continue;
            }
            for name in test_names(line) {
                assert!(
                    defined(name),
                    "{spec}:{}: no `fn {name}(` under tests/ or crates/",
                    at + 1
                );
                let Some((_, tests)) = scenario.as_mut() else {
                    panic!("{spec}:{}: `{name}` outside a scenario", at + 1);
                };
                *tests += 1;
                named += 1;
            }
        }
        close(scenario);
    }
    assert!(named > 0, "the specs name no test");
}

#[test]
fn test_lines_yield_their_backticked_identifiers() {
    assert_eq!(
        test_names("- **TEST** `a_test` (`tests/x.rs`) and `another_one`"),
        ["a_test", "another_one"]
    );
    assert!(test_names("- **THEN** `not_a_test` SHALL hold").is_empty());
    assert!(test_names("- **TEST** `Engine::explore_fixed`").is_empty());
}
