//! Two licences the explorer relies on, each held to the model, the
//! feasibility rule and the timing engine.
//!
//! The breeding loop's: a child that differs from its parent in a toggle
//! gene alone inherits the parent's prediction and skips repair. That is
//! sound only while the analytic model reads no toggle and the feasibility
//! rule reads `double_buffer` alone, as `amos::core::perf_model::reads` and
//! `ScreeningContext::stays_feasible` state.
//!
//! The mapping representation's: a search reads a mapping as one iteration
//! mask per intrinsic axis, so a caller's fused group comes back in
//! declaration order. That is sound only while the order of the iterations
//! inside a fused group reaches no modelled or simulated number.
//!
//! Both run over the same inputs: every `operator_configs()` entry, every
//! machine in `data/accels/` (each intrinsic of a heterogeneous one), the
//! first, middle and last enumerated mapping and 16 seeded
//! `random_schedule_into` schedules (plus a footprint-scaled copy of each
//! that often does not fit):
//!
//! * `predict_with` and `predict_batch_with` return bit-identical
//!   breakdowns under all eight toggle settings;
//! * `schedule_feasible` ignores `unroll` and `vectorize`, and accepts
//!   `double_buffer = false` wherever it accepts `true`; from a feasible
//!   schedule, `stays_feasible` answers every toggle flip as the rule does;
//! * `ScreeningContext::simulate` tells each toggle apart somewhere on every
//!   machine, so the genes are live and none of the above holds vacuously;
//! * with the iterations of one fused group reordered (every order of a
//!   group of at most three, six seeded orders of a larger one), the
//!   program's screening context equals the original's field by field, and
//!   `predict_with`, `simulate` and `schedule_feasible` answer every schedule
//!   bit-identically.

use amos::core::perf_model::{predict_batch_with, predict_with, reads, PerfBreakdown};
use amos::core::{fnv1a, random_schedule_into, MappingGenerator};
use amos::hw::{AcceleratorSpec, Registry};
use amos::ir::IterId;
use amos::sim::{
    AxisKind, BatchTables, FusedGroup, GeneChange, MappedProgram, Schedule, ScreeningContext,
    TimingReport, BATCH_LANES,
};
use amos::workloads::configs::operator_configs;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::path::PathBuf;

/// The three toggle genes, as the mutation reports them and as bits of the
/// lane index below.
const TOGGLES: [(GeneChange, usize); 3] = [
    (GeneChange::DoubleBuffer, 1),
    (GeneChange::Unroll, 2),
    (GeneChange::Vectorize, 4),
];

fn with_toggles(s: &Schedule, bits: usize) -> Schedule {
    let mut t = s.clone();
    t.double_buffer = bits & 1 != 0;
    t.unroll = bits & 2 != 0;
    t.vectorize = bits & 4 != 0;
    t
}

/// A copy of `s` with its staging and register genes scaled up: sometimes
/// still legal, often over a capacity.
fn oversized(s: &Schedule, ctx: &ScreeningContext, k: usize) -> Schedule {
    let mut big = s.clone();
    for (i, a) in ctx.axes.iter().enumerate() {
        match a.kind {
            AxisKind::TileSpatial(_) => big.warp[i] <<= k % 4,
            AxisKind::TileReduction(_) => {
                big.stage[i] = (big.stage[i] << (k % 5)).min(a.extent.max(1));
            }
            _ => {}
        }
    }
    big
}

fn bits(b: &PerfBreakdown) -> [u64; 7] {
    [
        b.cycles,
        b.l0_compute,
        b.r_register,
        b.r_shared,
        b.r_device,
        b.w_device,
        b.s_device,
    ]
    .map(f64::to_bits)
}

fn report_bits(r: &TimingReport) -> [u64; 10] {
    [
        r.cycles.to_bits(),
        r.blocks as u64,
        r.waves as u64,
        r.occupancy.to_bits(),
        r.utilization.to_bits(),
        r.dram_read_bytes,
        r.dram_write_bytes,
        r.register_traffic_bytes,
        r.block_compute_cycles.to_bits(),
        r.block_transfer_cycles.to_bits(),
    ]
}

fn catalog() -> Registry {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("data/accels");
    Registry::load_dir(dir).expect("committed catalog must load")
}

/// Calls `f(machine, unit, label, pick, program)` for the first, middle and
/// last enumerated mapping of every operator on every unit of every machine.
fn for_each_pick(
    registry: &Registry,
    mut f: impl FnMut(&str, &AcceleratorSpec, &str, usize, &MappedProgram),
) {
    let generator = MappingGenerator::new();
    let configs = operator_configs();
    for name in registry.names() {
        let accel = registry.build(name).expect("listed machine builds");
        for intrinsic in accel.all_intrinsics() {
            let mut unit = accel.clone();
            unit.intrinsic = intrinsic.clone();
            unit.extra_intrinsics.clear();
            for c in &configs {
                let mappings = generator.enumerate(&c.def, intrinsic);
                if mappings.is_empty() {
                    continue;
                }
                let mut picks = vec![0, mappings.len() / 2, mappings.len() - 1];
                picks.dedup();
                for pick in picks {
                    let prog = mappings[pick]
                        .lower(&c.def, intrinsic)
                        .expect("enumerated mappings lower");
                    f(name, &unit, &c.label, pick, &prog);
                }
            }
        }
    }
}

/// The 32 schedules a pick is checked on: 16 seeded samples, each followed
/// by its oversized copy.
fn schedules(ctx: &ScreeningContext, label: &str, pick: usize) -> Vec<Schedule> {
    let mut rng = StdRng::seed_from_u64(fnv1a(label) ^ pick as u64);
    let mut sampled = Schedule::empty();
    let mut out = Vec::with_capacity(32);
    for k in 0..16 {
        random_schedule_into(ctx, &mut sampled, &mut rng, true);
        out.push(sampled.clone());
        out.push(oversized(&sampled, ctx, k));
    }
    out
}

/// Every order of `items`.
fn permutations(items: &[IterId]) -> Vec<Vec<IterId>> {
    if items.len() <= 1 {
        return vec![items.to_vec()];
    }
    (0..items.len())
        .flat_map(|i| {
            let mut rest = items.to_vec();
            let head = rest.remove(i);
            permutations(&rest).into_iter().map(move |mut p| {
                p.insert(0, head);
                p
            })
        })
        .collect()
}

/// `groups` with the iterations of one group reordered, for every group:
/// each other order of a group of at most three, six seeded shuffles of a
/// larger one.
fn fused_orders(groups: &[FusedGroup], seed: u64) -> Vec<Vec<FusedGroup>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    for (t, g) in groups.iter().enumerate() {
        let orders = if g.iters.len() <= 3 {
            permutations(&g.iters)
        } else {
            let shuffled = |_| {
                let mut order = g.iters.clone();
                order.shuffle(&mut rng);
                order
            };
            (0..6).map(shuffled).collect()
        };
        for order in orders.into_iter().filter(|o| *o != g.iters) {
            let mut reordered = groups.to_vec();
            reordered[t].iters = order;
            out.push(reordered);
        }
    }
    out
}

#[test]
fn the_model_reads_no_toggle_and_feasibility_reads_only_double_buffer() {
    for (change, _) in TOGGLES {
        assert!(!reads(change), "perf_model::reads({change:?})");
    }
    assert!(reads(GeneChange::Numeric));

    let registry = catalog();
    let mut tables = BatchTables::default();
    let mut batch = Vec::new();
    let mut cases = 0usize;
    // Per machine, the cases on which the timing engine told the two values
    // of a toggle apart, per toggle.
    let mut told_apart: Vec<(String, [usize; 3])> = registry
        .names()
        .iter()
        .map(|name| (name.to_string(), [0; 3]))
        .collect();
    for_each_pick(&registry, |name, unit, label, pick, prog| {
        let ctx = prog.screening_context(unit);
        let told = &mut told_apart
            .iter_mut()
            .find(|(n, _)| n == name)
            .expect("a listed machine")
            .1;
        for base in schedules(&ctx, label, pick) {
            cases += 1;
            // Rendered only when an assertion fails.
            let at = || format!("{name}/{label} mapping {pick}: {base:?}");
            let lanes: [Schedule; BATCH_LANES] = std::array::from_fn(|b| with_toggles(&base, b));

            // (a) one prediction for all eight settings, from the scalar and
            // the batched kernel alike.
            batch.clear();
            predict_batch_with(&ctx, &lanes.each_ref(), &mut tables, &mut batch);
            let scalar = |s| bits(&predict_with(&ctx, s).expect("axes match"));
            let expected = scalar(&lanes[0]);
            for (lane, batched) in lanes.iter().zip(&batch) {
                assert_eq!(scalar(lane), expected, "{}", at());
                let batched = batched.as_ref().expect("axes match");
                assert_eq!(bits(batched), expected, "{}", at());
            }

            // (b) the rule, and the shortcut stated beside it.
            let feasible = lanes.each_ref().map(|s| ctx.schedule_feasible(s));
            for b in 0..BATCH_LANES {
                assert_eq!(feasible[b], feasible[b & 1], "{}", at());
            }
            assert!(feasible[0] || !feasible[1], "{}", at());
            for b in (0..BATCH_LANES).filter(|&b| feasible[b]) {
                for (change, bit) in TOGGLES {
                    assert_eq!(
                        ctx.stays_feasible(&lanes[b ^ bit], change),
                        feasible[b ^ bit],
                        "{change:?} on {}",
                        at()
                    );
                }
            }

            // (c) the timing engine reads all three.
            let reports = lanes.each_ref().map(|s| ctx.simulate(s));
            for (t, (_, bit)) in TOGGLES.iter().enumerate() {
                let differs = (0..BATCH_LANES).any(|b| {
                    matches!((&reports[b], &reports[b ^ bit]),
                        (Some(x), Some(y)) if x != y)
                });
                told[t] += differs as usize;
            }
        }
    });
    for (name, told) in &told_apart {
        for ((change, _), n) in TOGGLES.iter().zip(told) {
            assert!(*n > 0, "`simulate` never read {change:?} on {name}");
        }
    }
    assert!(cases > 50_000, "only {cases} cases");
}

#[test]
fn fused_group_order_is_invisible_to_the_model_and_the_timing_engine() {
    let registry = catalog();
    let mut reordered = 0usize;
    for_each_pick(&registry, |name, unit, label, pick, prog| {
        let ctx = prog.screening_context(unit);
        let schedules = schedules(&ctx, label, pick);
        for groups in fused_orders(prog.groups(), fnv1a(label) ^ pick as u64) {
            let at = || format!("{name}/{label} mapping {pick} as {groups:?}");
            let sibling = prog
                .sibling(groups.clone(), prog.correspondence().to_vec())
                .unwrap_or_else(|e| panic!("{}: {e}", at()));
            let other = sibling.screening_context(unit);
            assert_eq!(*other, *ctx, "{}", at());
            for s in &schedules {
                let predict = |c| predict_with(c, s).map(|b| bits(&b));
                assert_eq!(predict(&other), predict(&ctx), "{} {s:?}", at());
                let simulate = |c: &ScreeningContext| c.simulate(s).as_ref().map(report_bits);
                assert_eq!(simulate(&other), simulate(&ctx), "{} {s:?}", at());
                let feasible = other.schedule_feasible(s);
                assert_eq!(feasible, ctx.schedule_feasible(s), "{} {s:?}", at());
            }
            reordered += 1;
        }
    });
    assert!(reordered > 6_000, "only {reordered} reordered mappings");
}
