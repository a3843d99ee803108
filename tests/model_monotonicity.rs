//! Two metamorphic properties of the analytic model and the timing engine:
//! a machine with more bandwidth is never slower, and a machine with more
//! memory runs every schedule that already fit exactly as before (capacity
//! decides what fits, never how long it takes).
//!
//! For every `operator_configs()` entry, every machine in `data/accels/`
//! (each intrinsic of a heterogeneous one), the first, middle and last
//! enumerated mapping, the balanced schedule and eight seeded random ones
//! (the inputs of `timing_digest.rs`):
//!
//! * with every level's load and store bandwidth doubled, the schedule is
//!   as feasible as before, and neither `ScreeningContext::simulate` nor
//!   `predict_with` reports more cycles;
//! * with every level's capacity doubled, a feasible schedule stays
//!   feasible, and both report bit-identical cycles.

use amos::core::perf_model::predict_with;
use amos::core::{fnv1a, random_schedule, MappingGenerator};
use amos::hw::{AcceleratorSpec, Registry};
use amos::sim::{Schedule, ScreeningContext};
use amos::workloads::configs::operator_configs;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;

/// `unit` with `edit` applied to the memory of every level.
fn scaled(unit: &AcceleratorSpec, edit: impl Fn(&mut amos::hw::MemorySpec)) -> AcceleratorSpec {
    let mut spec = unit.clone();
    for level in &mut spec.levels {
        edit(&mut level.memory);
    }
    spec
}

/// What the timing engine and the model say of `s` under `ctx`: `None` when
/// the schedule does not fit.
fn cycles(ctx: &ScreeningContext, s: &Schedule) -> Option<(f64, f64)> {
    let simulated = ctx.simulate(s)?.cycles;
    let predicted = predict_with(ctx, s).expect("axes match").cycles;
    Some((simulated, predicted))
}

#[test]
fn more_bandwidth_is_never_slower_and_more_capacity_changes_no_fitting_schedule() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("data/accels");
    let registry = Registry::load_dir(dir).expect("committed catalog must load");
    let generator = MappingGenerator::new();
    let configs = operator_configs();
    let (mut feasible, mut faster) = (0usize, 0usize);
    for name in registry.names() {
        let accel = registry.build(name).expect("listed machine builds");
        for intrinsic in accel.all_intrinsics() {
            let mut unit = accel.clone();
            unit.intrinsic = intrinsic.clone();
            unit.extra_intrinsics.clear();
            let wide = scaled(&unit, |m| {
                m.load_bytes_per_cycle *= 2.0;
                m.store_bytes_per_cycle *= 2.0;
            });
            let big = scaled(&unit, |m| m.capacity_bytes *= 2);
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
                    let [base_ctx, wide_ctx, big_ctx] =
                        [&unit, &wide, &big].map(|spec| ScreeningContext::build(&prog, spec));
                    let mut rng = StdRng::seed_from_u64(fnv1a(&c.label) ^ pick as u64);
                    let mut schedules = vec![Schedule::balanced(&prog, &unit)];
                    schedules.extend((0..8).map(|_| random_schedule(&prog, &unit, &mut rng)));
                    for s in &schedules {
                        let at = || format!("{name}/{} mapping {pick}: {s:?}", c.label);
                        let base = cycles(&base_ctx, s);
                        let with_bandwidth = cycles(&wide_ctx, s);
                        assert_eq!(base.is_some(), with_bandwidth.is_some(), "{}", at());
                        let Some((simulated, predicted)) = base else {
                            continue;
                        };
                        feasible += 1;
                        let (wide_sim, wide_pred) = with_bandwidth.expect("fits as before");
                        assert!(wide_sim <= simulated, "simulate: {}", at());
                        assert!(wide_pred <= predicted, "predict_with: {}", at());
                        faster += (wide_sim < simulated) as usize;
                        let (big_sim, big_pred) = cycles(&big_ctx, s)
                            .unwrap_or_else(|| panic!("more memory, no fit: {}", at()));
                        assert_eq!(big_sim.to_bits(), simulated.to_bits(), "{}", at());
                        assert_eq!(big_pred.to_bits(), predicted.to_bits(), "{}", at());
                    }
                }
            }
        }
    }
    assert!(feasible > 25_000, "only {feasible} feasible cases");
    // The property does not hold vacuously: bandwidth is often the bound.
    assert!(faster > feasible / 10, "{faster} of {feasible} got faster");
}
