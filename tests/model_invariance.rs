//! The licence the breeding loop uses: a child that differs from its parent
//! in a toggle gene alone inherits the parent's prediction and skips repair.
//! That is sound only while the analytic model reads no toggle and the
//! feasibility rule reads `double_buffer` alone, as
//! `amos::core::perf_model::reads` and `ScreeningContext::stays_feasible`
//! state. This test holds the model and the rule to those two functions.
//!
//! For every `operator_configs()` entry, every machine in `data/accels/`
//! (each intrinsic of a heterogeneous one), the first, middle and last
//! enumerated mapping and 16 seeded `random_schedule_into` schedules (plus a
//! footprint-scaled copy of each that often does not fit):
//!
//! * `predict_with` and `predict_batch_with` return bit-identical
//!   breakdowns under all eight toggle settings;
//! * `schedule_feasible` ignores `unroll` and `vectorize`, and accepts
//!   `double_buffer = false` wherever it accepts `true`; from a feasible
//!   schedule, `stays_feasible` answers every toggle flip as the rule does;
//! * `ScreeningContext::simulate` tells each toggle apart somewhere on every
//!   machine, so the genes are live and none of the above holds vacuously.

use amos::core::perf_model::{predict_batch_with, predict_with, reads, PerfBreakdown};
use amos::core::{fnv1a, random_schedule_into, MappingGenerator};
use amos::hw::Registry;
use amos::sim::{AxisKind, BatchTables, GeneChange, Schedule, ScreeningContext, BATCH_LANES};
use amos::workloads::configs::operator_configs;
use rand::rngs::StdRng;
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

#[test]
fn the_model_reads_no_toggle_and_feasibility_reads_only_double_buffer() {
    for (change, _) in TOGGLES {
        assert!(!reads(change), "perf_model::reads({change:?})");
    }
    assert!(reads(GeneChange::Numeric));

    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("data/accels");
    let registry = Registry::load_dir(dir).expect("committed catalog must load");
    let generator = MappingGenerator::new();
    let configs = operator_configs();
    let mut tables = BatchTables::default();
    let mut batch = Vec::new();
    let mut cases = 0usize;
    for name in registry.names() {
        let accel = registry.build(name).expect("listed machine builds");
        // Cases on which the timing engine told the two values of a toggle
        // apart, per toggle.
        let mut told_apart = [0usize; 3];
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
                    let ctx = prog.screening_context(&unit);
                    let mut rng = StdRng::seed_from_u64(fnv1a(&c.label) ^ pick as u64);
                    let mut sampled = Schedule::empty();
                    for k in 0..16 {
                        random_schedule_into(&ctx, &mut sampled, &mut rng, true);
                        for base in [sampled.clone(), oversized(&sampled, &ctx, k)] {
                            cases += 1;
                            // Rendered only when an assertion fails.
                            let at = || format!("{name}/{} mapping {pick}: {base:?}", c.label);
                            let lanes: [Schedule; BATCH_LANES] =
                                std::array::from_fn(|b| with_toggles(&base, b));

                            // (a) one prediction for all eight settings, from
                            // the scalar and the batched kernel alike.
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
                                told_apart[t] += differs as usize;
                            }
                        }
                    }
                }
            }
        }
        for ((change, _), n) in TOGGLES.iter().zip(told_apart) {
            assert!(n > 0, "`simulate` never read {change:?} on {name}");
        }
    }
    assert!(cases > 50_000, "only {cases} cases");
}
