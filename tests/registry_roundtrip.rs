//! Registry round-trip: every built-in accelerator, built by name from
//! `Registry::builtin()` (the `data/accels/*.toml` files embedded in the
//! build) and explored through the staged [`Engine`], must reproduce the
//! golden exploration results — bit-identical cycles (compared via
//! `f64::to_bits`) and identical search counters. The rows were captured
//! before the registry, the description layer and the Engine existed, from
//! directly constructed specs and a bare `Explorer`.
//!
//! This pins down three things at once: the parsed descriptions lower to
//! the specs the rows were recorded on, the registry resolves every machine
//! by name, and the Engine's cache-backed `explore_op` is observationally
//! equivalent to an uncached `explore_multi`.
//!
//! (`accel_files.rs` runs the same [`common::GOLDEN`] table through the
//! file-read path.)

mod common;

use amos::core::Engine;
use amos::hw::{
    AcceleratorDesc, IntrinsicDesc, IterDesc, LevelDesc, MemoryDesc, OperandDesc, Registry,
};
use amos::ir::{DType, OpKind};
use amos::workloads::ops;
use common::{assert_golden_rows, golden_config, GOLDEN};

#[test]
fn registry_reproduces_pre_refactor_results_bit_identically() {
    assert_golden_rows(&Registry::builtin(), "embedded catalog");
}

#[test]
fn golden_table_covers_the_whole_registry() {
    let names: Vec<&str> = GOLDEN.iter().map(|row| row.0).collect();
    assert_eq!(
        Registry::builtin().names(),
        names,
        "a new built-in accelerator needs a golden row (and a removed one \
         must drop its row)"
    );
}

/// The §7.5 promise as a test: a brand-new accelerator is a few lines of
/// declarative data, and once registered it is addressable by name and
/// compilable through the Engine like any built-in machine.
#[test]
fn a_new_accelerator_is_a_few_lines_of_data() {
    let desc = AcceleratorDesc {
        name: "toy-dot4".into(),
        levels: vec![
            LevelDesc::new("pe-array", 1, 8 * 1024, 32.0),
            LevelDesc::new("core", 2, 64 * 1024, 32.0),
            LevelDesc::new("device", 4, 1 << 30, 64.0),
        ],
        intrinsics: vec![IntrinsicDesc {
            name: "dot4".into(),
            iters: vec![IterDesc::spatial("i1", 4), IterDesc::reduce("r1", 4)],
            srcs: vec![
                OperandDesc::simple("Src1", &[0, 1]),
                OperandDesc::simple("Src2", &[1]),
            ],
            dst: OperandDesc::simple("Dst", &[0]),
            op: OpKind::MulAcc,
            memory: MemoryDesc::Implicit,
            latency: 4,
            initiation_interval: 2,
            src_dtype: DType::F16,
            acc_dtype: DType::F32,
        }],
        clock_ghz: 1.0,
        scalar_ops_per_core_cycle: 2.0,
    };

    let mut registry = Registry::builtin();
    registry.register(desc);
    let toy = registry.build("toy-dot4").expect("registered by name");

    let engine = Engine::with_config(golden_config());
    let r = engine
        .explore_op(&ops::gmv(64, 64), &toy)
        .expect("GEMV maps onto a dot-product unit");
    assert!(r.cycles() > 0.0);
    assert_eq!(r.best_program.intrinsic().name, "dot4");
}
