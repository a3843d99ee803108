//! Shared fixtures for the top-level golden suites: the exploration budget
//! the golden values were captured under, the per-machine candidate
//! operators, and the golden result table itself (one row per built-in
//! accelerator). `registry_roundtrip.rs` checks the catalog embedded in the
//! build (`Registry::builtin()`) against it; `accel_files.rs` checks that the
//! same `data/accels/` files, read from disk, reproduce the same rows
//! bit-identically.

#![allow(dead_code)]

use amos::core::{Engine, ExplorerConfig};
use amos::hw::Registry;
use amos::ir::ComputeDef;
use amos::workloads::ops::{self, ConvShape};

/// The exploration budget the golden values were captured under.
pub fn golden_config() -> ExplorerConfig {
    ExplorerConfig {
        population: 8,
        generations: 2,
        survivors: 3,
        measure_top: 2,
        seed: 2022,
        jobs: 2,
        ..Default::default()
    }
}

/// Candidate operators tried in order until one maps onto the accelerator
/// (the BLAS-level virtual units reject GEMM's shape family, so each machine
/// records which operator it was measured on).
pub fn candidate(label: &str) -> ComputeDef {
    match label {
        "gmm" => ops::gmm(64, 64, 64),
        "gmv" => ops::gmv(256, 256),
        "c2d" => ops::c2d(ConvShape {
            n: 2,
            c: 8,
            k: 8,
            p: 7,
            q: 7,
            r: 3,
            s: 3,
            stride: 1,
        }),
        other => panic!("unknown candidate label {other}"),
    }
}

/// One golden row: `(name, op, cycles_bits, num_mappings, sim_failures,
/// screened, survivor_memo_hits, measured_memo_hits)`.
pub type GoldenRow = (
    &'static str,
    &'static str,
    u64,
    usize,
    usize,
    usize,
    usize,
    usize,
);

/// Golden values captured on the pre-refactor pipeline, one row per built-in
/// accelerator.
pub const GOLDEN: &[GoldenRow] = &[
    ("v100", "gmm", 0x40a1c00000000000, 1, 0, 19, 3, 2),
    ("a100", "gmm", 0x40a1000000000000, 1, 0, 19, 3, 2),
    ("t4", "gmm", 0x40a1c90be1c159a7, 1, 0, 19, 3, 1),
    ("xeon-avx512", "gmm", 0x40bdd00000000000, 2, 0, 58, 9, 6),
    ("mali-g76", "gmm", 0x40e0226bca1af287, 1, 0, 19, 3, 2),
    ("mini", "gmm", 0x40d3360000000000, 1, 0, 19, 3, 2),
    ("ascend-npu", "gmm", 0x40a1600000000000, 3, 0, 77, 12, 8),
    ("tpu-like", "gmm", 0x40a3a00000000000, 1, 0, 19, 3, 3),
    ("gemmini-like", "gmm", 0x40a9a00000000000, 1, 0, 19, 3, 2),
    ("virtual-axpy", "gmm", 0x40b3180000000000, 2, 0, 58, 9, 6),
    ("virtual-gemv", "gmm", 0x40b0100000000000, 2, 0, 58, 9, 6),
    ("virtual-conv", "c2d", 0x40a06c0000000000, 4, 0, 79, 12, 6),
];

/// Explores every [`GOLDEN`] row on the machine `registry` builds under that
/// name and requires bit-identical cycles (via `f64::to_bits`) and identical
/// search counters. `origin` says where the registry's machines came from.
pub fn assert_golden_rows(registry: &Registry, origin: &str) {
    for &(name, label, cycles_bits, num_mappings, sim_failures, screened, survivor, measured) in
        GOLDEN
    {
        let accel = registry
            .build(name)
            .unwrap_or_else(|| panic!("{origin}: registry must know `{name}`"));
        assert_eq!(accel.name, name, "registry key must match the spec name");
        let engine = Engine::with_config(golden_config());
        let r = engine
            .explore_op(&candidate(label), &accel)
            .unwrap_or_else(|e| panic!("{origin}: `{label}` must map onto `{name}`: {e}"));
        assert_eq!(
            r.cycles().to_bits(),
            cycles_bits,
            "{origin}: `{name}` cycles drifted ({} vs golden {})",
            r.cycles(),
            f64::from_bits(cycles_bits),
        );
        let counters = (
            r.num_mappings,
            r.sim_failures,
            r.screening.screened,
            r.screening.survivor_memo_hits,
            r.screening.measured_memo_hits,
        );
        assert_eq!(
            counters,
            (num_mappings, sim_failures, screened, survivor, measured),
            "{origin}: `{name}` (mappings, sim failures, screened, survivor memo hits, \
             measured memo hits)"
        );
    }
}
