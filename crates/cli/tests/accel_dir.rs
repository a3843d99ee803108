//! The ISSUE acceptance scenario: a brand-new accelerator defined *only* as
//! an on-disk data file — no Rust — shows up in `--list-accels` and explores
//! successfully once `--accel-dir` points at its directory.

use amos_cli::{run, RunStatus};
use std::path::PathBuf;

/// A hand-written data file for a machine that exists nowhere in the
/// built-in catalog: a 4x4x4 outer-product unit with two memory levels.
const ZETA_MACHINE: &str = r#"
# A file-only machine: never mentioned in any Rust source.
format = 1
kind = "accelerator"
name = "zeta-npu"
clock_ghz = 1.2
scalar_ops_per_core_cycle = 2

[[level]]
name = "tile"
inner_units = 4
capacity_bytes = 512
bytes_per_cycle = 16

[[level]]
name = "chip"
inner_units = 2
capacity_bytes = 262144
bytes_per_cycle = 32

[[intrinsic]]
name = "zeta_mma"
op = "mul-acc"
iters = ["i1 spatial 4", "i2 spatial 4", "r1 reduction 4"]
srcs = ["A[i1, r1]", "B[r1, i2]"]
dst = "C[i1, i2]"
memory = "fragment"
load = "zeta_load"
store = "zeta_store"
latency = 4
initiation_interval = 1
src_dtype = "f16"
acc_dtype = "f32"
"#;

/// The same machine written as a primitive ISA description instead — the
/// derivation pass must infer iteration kinds and memory style on load.
const ZETA_ISA: &str = r#"
format = 1
kind = "isa"
name = "zeta-isa"
clock_ghz = 1.2
scalar_ops_per_core_cycle = 2

[[level]]
name = "tile"
inner_units = 4
capacity_bytes = 512
bytes_per_cycle = 16

[[intrinsic]]
name = "zeta_mma"
op = "mul-acc"
loops = ["i1 4", "i2 4", "r1 4"]
srcs = ["A[i1, r1]", "B[r1, i2]"]
dst = "C[i1, i2]"
latency = 4
initiation_interval = 1
src_dtype = "f16"
acc_dtype = "f32"

[[intrinsic.load]]
instruction = "zeta_load"
operand = "A"

[[intrinsic.load]]
instruction = "zeta_load"
operand = "B"

[[intrinsic.store]]
instruction = "zeta_store"
operand = "C"
"#;

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("amos-accel-dir-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run_cli(args: &[&str]) -> (RunStatus, String) {
    let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    let mut buf = Vec::new();
    let status = run(&args, &mut buf).unwrap_or_else(|e| panic!("{args:?}: {e}"));
    (status, String::from_utf8(buf).unwrap())
}

#[test]
fn file_only_machine_lists_and_explores() {
    let dir = scratch_dir("explore");
    std::fs::write(dir.join("zeta-npu.toml"), ZETA_MACHINE).unwrap();
    let dir_arg = dir.to_str().unwrap();

    // It appears in --list-accels, after the 12 built-ins.
    let (_, listed) = run_cli(&["--accel-dir", dir_arg, "--list-accels"]);
    let names: Vec<&str> = listed.lines().collect();
    assert_eq!(names.len(), 13, "{listed}");
    assert_eq!(*names.last().unwrap(), "zeta-npu");
    assert!(names.contains(&"v100"));

    // `accels` builds it alongside the catalog.
    let (_, table) = run_cli(&["--accel-dir", dir_arg, "accels"]);
    assert!(table.contains("zeta-npu"), "{table}");
    assert!(table.contains("zeta_mma"), "{table}");

    // It enumerates mappings and explores end to end.
    let (_, mappings) = run_cli(&[
        "mappings",
        "gmm:16x16x16",
        "--accel",
        "zeta-npu",
        "--accel-dir",
        dir_arg,
    ]);
    assert!(mappings.contains("valid mappings"), "{mappings}");
    let (status, explored) = run_cli(&[
        "explore",
        "gmm:32x32x32",
        "--accel",
        "zeta-npu",
        "--accel-dir",
        dir_arg,
        "--jobs",
        "1",
    ]);
    assert_eq!(status, RunStatus::Complete);
    assert!(explored.contains("accelerator: zeta-npu"), "{explored}");
    assert!(explored.contains("cycles"), "{explored}");

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn isa_only_machine_derives_and_explores() {
    let dir = scratch_dir("isa");
    std::fs::write(dir.join("zeta-isa.toml"), ZETA_ISA).unwrap();
    let dir_arg = dir.to_str().unwrap();

    let (_, listed) = run_cli(&["--accel-dir", dir_arg, "--list-accels"]);
    assert!(listed.lines().any(|l| l == "zeta-isa"), "{listed}");

    // The derived machine is dst-determined: i1/i2 spatial, r1 reduction.
    let (_, shown) = run_cli(&["--accel-dir", dir_arg, "accel", "show", "zeta-isa"]);
    assert!(shown.contains("i1 spatial 4"), "{shown}");
    assert!(shown.contains("r1 reduction 4"), "{shown}");
    assert!(
        shown.contains("fragment (load zeta_load, store zeta_store)"),
        "{shown}"
    );

    let (status, explored) = run_cli(&[
        "explore",
        "gmm:16x16x16",
        "--accel",
        "zeta-isa",
        "--accel-dir",
        dir_arg,
        "--jobs",
        "1",
    ]);
    assert_eq!(status, RunStatus::Complete);
    assert!(explored.contains("accelerator: zeta-isa"), "{explored}");

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn accel_dir_override_changes_the_built_machine() {
    // A file named after a built-in replaces it in place for every verb.
    let dir = scratch_dir("override");
    let faster = ZETA_MACHINE
        .replace("name = \"zeta-npu\"", "name = \"mini\"")
        .replace("clock_ghz = 1.2", "clock_ghz = 7.5");
    std::fs::write(dir.join("mini.toml"), faster).unwrap();
    let dir_arg = dir.to_str().unwrap();

    let (_, listed) = run_cli(&["--accel-dir", dir_arg, "--list-accels"]);
    assert_eq!(listed.lines().filter(|l| *l == "mini").count(), 1);
    assert_eq!(listed.lines().count(), 12, "override must not append");

    let (_, shown) = run_cli(&["--accel-dir", dir_arg, "accel", "show", "mini"]);
    assert!(shown.contains("7.5 GHz"), "{shown}");
    assert!(shown.contains("zeta_mma"), "{shown}");

    std::fs::remove_dir_all(&dir).unwrap();
}
