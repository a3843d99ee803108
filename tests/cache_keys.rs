//! What the exploration cache calls a request.
//!
//! The shape fingerprint is written by hand (`amos_core::shape_fingerprint`)
//! and must stay, byte for byte, the derived-`Debug` text it was first
//! formatted as: network evaluation seeds every search from its hash, so a
//! changed byte changes winners. Machines are told apart by value: changing
//! any one field of an `AcceleratorSpec` makes a machine neither cache tier
//! answers for. A fixed-mapping request over the same shape is a request
//! of its own: it never answers the joint search.

use amos::core::{
    shape_fingerprint, CacheConfig, CacheStats, Engine, ExplorerConfig, MappingGenerator,
};
use amos::hw::{catalog, AcceleratorSpec};
use amos::ir::{ComputeBuilder, ComputeDef, DType, Expr};
use amos::sim::simulate;
use amos::workloads::{configs, networks, ops};
use std::fmt::Write as _;

/// The fingerprint as `format!` and the derived `Debug` impls of the IR
/// types render it: the definition the hand-written writer is held to.
fn derived_debug_fingerprint(def: &ComputeDef) -> String {
    let mut s = String::new();
    for it in def.iters() {
        let _ = write!(s, "i:{}:{}:{:?};", it.name, it.extent, it.kind);
    }
    for t in def.tensors() {
        let _ = write!(s, "t:{:?}:{:?}:{:?};", t.shape, t.dtype, t.role);
    }
    let _ = write!(s, "out:{:?};", def.output());
    for a in def.inputs() {
        let _ = write!(s, "in:{:?};", a);
    }
    let _ = write!(s, "op:{:?};preds:{:?}", def.op(), def.predicates());
    s
}

/// Definitions no workload builds: every `Expr` node, every `DType`, every
/// `TensorRole` and every `OpKind`, negative and extreme constants, a
/// multi-digit iteration id, more than one predicate.
fn hand_built_defs() -> Vec<ComputeDef> {
    let mut defs = Vec::new();

    let mut b = ComputeBuilder::new("every-node");
    let i = b.spatial("i", 6);
    let j = b.spatial("j", 1);
    let k = b.reduce("k", 1_000_000_007);
    let a = b.input("a", &[64, 9], DType::I8);
    let w = b.constant("w", &[7], DType::I32);
    let o = b.output("o", &[6, 1], DType::F32);
    b.mul_acc(
        o.at([i.ex(), j.ex()]),
        a.at([
            (i.ex() * 2 + k.ex() - 3).floor_div(4),
            (k.ex() + Expr::int(-1)).rem(9),
        ]),
        w.at([Expr::int(i64::MIN) + Expr::int(i64::MAX) * k.ex() - 0]),
    );
    b.require_zero((i.ex() - k.ex() + 1).rem(2));
    b.require_zero(Expr::int(-7) * j.ex());
    defs.push(b.finish().expect("well-formed"));

    let mut b = ComputeBuilder::new("add-acc");
    let i = b.spatial("row", 4);
    let k = b.reduce("col", 12);
    let a = b.input("a", &[4, 12], DType::F16);
    let o = b.output("o", &[4], DType::F16);
    b.add_acc(o.at([i]), a.at([i, k]));
    defs.push(b.finish().expect("well-formed"));

    let mut b = ComputeBuilder::new("max-acc");
    let handles: Vec<_> = (0..12).map(|n| b.spatial(format!("s{n}"), n + 1)).collect();
    let k = b.reduce("window", 3);
    let shape: Vec<i64> = (1..=12).collect();
    let a = b.input("a", &[3], DType::I32);
    let o = b.output("o", &shape, DType::I32);
    b.max_acc(o.at(handles.iter().copied()), a.at([k]));
    defs.push(b.finish().expect("well-formed"));

    defs
}

#[test]
fn the_writer_is_the_derived_debug_rendering() {
    let mut defs: Vec<ComputeDef> = configs::operator_configs()
        .into_iter()
        .map(|c| c.def)
        .collect();
    assert_eq!(defs.len(), 113);
    for net in networks::all_networks() {
        for batch in [1, 16] {
            defs.extend(net.groups.iter().filter_map(|g| g.op.compute_def(batch)));
        }
    }
    let hand_built = hand_built_defs();
    let rendered: String = hand_built.iter().map(derived_debug_fingerprint).collect();
    for needle in [
        "Var(IterId(11))",
        "Const(-1)",
        "Const(-9223372036854775808)",
        "Const(9223372036854775807)",
        "Add(",
        "Sub(",
        "Mul(",
        "FloorDiv(",
        "Mod(",
        "F16",
        "F32",
        "I8",
        "I32",
        "Input",
        "Output",
        "Constant",
        "MulAcc",
        "AddAcc",
        "MaxAcc",
        "preds:[Mod(",
        "preds:[]",
    ] {
        assert!(rendered.contains(needle), "no hand-built def has {needle}");
    }
    defs.extend(hand_built);
    for def in &defs {
        assert_eq!(
            shape_fingerprint(def),
            derived_debug_fingerprint(def),
            "{}",
            def.name()
        );
    }
}

fn small(seed: u64) -> ExplorerConfig {
    ExplorerConfig {
        population: 8,
        generations: 2,
        survivors: 3,
        measure_top: 2,
        seed,
        jobs: 1,
        ..Default::default()
    }
}

fn tmp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("amos-keys-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn disk_engine(dir: &std::path::Path) -> Engine {
    Engine::with_cache(
        small(11),
        CacheConfig {
            cache_dir: Some(dir.to_path_buf()),
        },
    )
}

/// `base` with one field changed, once per field of the spec and of
/// everything it is made of.
fn one_field_apart(base: &AcceleratorSpec) -> Vec<(&'static str, AcceleratorSpec)> {
    let donor = catalog::xeon_avx512().intrinsic;
    let edit = |name, change: &dyn Fn(&mut AcceleratorSpec)| {
        let mut spec = base.clone();
        change(&mut spec);
        (name, spec)
    };
    vec![
        edit("name", &|s| s.name.push('x')),
        edit("level name", &|s| s.levels[1].name.push('x')),
        edit("inner units", &|s| s.levels[3].inner_units += 1),
        edit("capacity", &|s| s.levels[2].memory.capacity_bytes += 1),
        edit("load bandwidth", &|s| {
            s.levels[3].memory.load_bytes_per_cycle += 0.5
        }),
        edit("store bandwidth", &|s| {
            s.levels[3].memory.store_bytes_per_cycle += 0.5
        }),
        edit("level count", &|s| s.levels.insert(1, s.levels[1].clone())),
        edit("intrinsic name", &|s| s.intrinsic.name.push('x')),
        edit("compute abstraction", &|s| {
            s.intrinsic.compute = donor.compute.clone()
        }),
        edit("memory abstraction", &|s| {
            s.intrinsic.memory = donor.memory.clone()
        }),
        edit("latency", &|s| s.intrinsic.latency += 1),
        edit("initiation interval", &|s| {
            s.intrinsic.initiation_interval += 1
        }),
        edit("source dtype", &|s| s.intrinsic.src_dtype = DType::I8),
        edit("accumulator dtype", &|s| s.intrinsic.acc_dtype = DType::F16),
        edit("extra intrinsics", &|s| {
            s.extra_intrinsics.push(s.intrinsic.clone())
        }),
        edit("clock", &|s| s.clock_ghz += 0.25),
        edit("scalar throughput", &|s| s.scalar_ops_per_core_cycle += 1.0),
    ]
}

#[test]
fn a_machine_one_field_apart_is_answered_by_neither_tier() {
    let dir = tmp_dir("one-field-apart");
    let def = ops::gmm(64, 64, 64);
    let base = catalog::v100();
    // `held` has the base machine's answer in memory and on disk.
    let held = disk_engine(&dir);
    held.explore_op(&def, &base).expect("base explores");
    let mut seen = vec![base.clone()];
    for (field, spec) in one_field_apart(&base) {
        assert!(
            !seen.contains(&spec),
            "changing the {field} must give a machine not seen before"
        );
        seen.push(spec.clone());
        // A second process over the directory: nothing on disk is this
        // machine's, whatever the earlier rounds wrote. Whether the changed
        // machine still maps the operator does not matter here.
        let fresh = disk_engine(&dir);
        let _ = fresh.explore_op(&def, &spec);
        assert_eq!(
            fresh.cache_stats(),
            CacheStats {
                hits: 0,
                l2_hits: 0,
                misses: 1
            },
            "{field}: the disk tier answered for another machine"
        );
        let _ = held.explore_op(&def, &spec);
        assert_eq!(
            held.cache_stats().hits,
            0,
            "{field}: the in-memory tier answered for another machine"
        );
    }
    // Every machine kept an identity of its own: asked again, each is
    // answered from memory, the base included.
    let before = held.cache_stats();
    for spec in &seen {
        let _ = held.explore_op(&def, spec);
    }
    assert_eq!(held.cache_stats().hits, seen.len());
    assert_eq!(held.cache_stats().misses, before.misses);
    assert_eq!(held.cache_stats().l2_hits, before.l2_hits);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_fixed_mapping_request_never_answers_the_joint_search() {
    // A fixed-mapping request over the enumerated list, rotated, refines the
    // same list positions as the joint search of the shape, but position `i`
    // is another mapping in each list: the joint search on the same engine
    // must tune and report its own.
    let accel = catalog::v100();
    let generator = MappingGenerator::new();
    let config = ExplorerConfig {
        jobs: 1,
        ..Default::default()
    };
    for def in [
        ops::c1d(1, 64, 64, 256, 3, 1),
        ops::t2d(1, 64, 32, 14, 14, 3, 3),
    ] {
        let mappings = generator.enumerate(&def, &accel.intrinsic);
        assert!(mappings.len() > 5, "{}", def.name());
        let fresh = Engine::with_config(config.clone())
            .explore_op(&def, &accel)
            .expect("explores");
        for shift in 1..=5 {
            let mut rotated = mappings.clone();
            rotated.rotate_left(shift);
            let engine = Engine::with_config(config.clone());
            engine
                .explore_fixed("rotated", config.clone(), &def, &accel, rotated)
                .expect("explores");
            let got = engine.explore_op(&def, &accel).expect("explores");
            let at = format!("{} rotated by {shift}", def.name());
            assert_eq!(got.cycles().to_bits(), fresh.cycles().to_bits(), "{at}");
            assert_eq!(got.best_mapping, fresh.best_mapping, "{at}");
            assert_eq!(got.best_schedule, fresh.best_schedule, "{at}");
            let replayed = simulate(&got.best_program, &got.best_schedule, &accel);
            assert_eq!(replayed.as_ref(), Ok(&got.best_report), "{at}");
        }
    }
}
