//! Ablation: explorer design choices (paper §5.3).
//!
//! AMOS combines an analytic performance model (screening) with genetic
//! tuning and ground-truth measurement. This ablation compares, under equal
//! measurement budgets:
//!
//! * **random** — measure uniformly random (mapping, schedule) candidates,
//! * **model-screened** — the full explorer: model ranks candidates, only
//!   the most promising are measured, survivors are mutated.
//!
//! The gap is the value of the performance model, the paper's core argument
//! for Figure 5.

use amos_core::{random_schedule, Explorer, ExplorerConfig, MappingGenerator};
use amos_hw::catalog;
use amos_sim::simulate;
use amos_workloads::{configs, ops};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Pure random search with a fixed number of ground-truth measurements.
fn random_search(
    def: &amos_ir::ComputeDef,
    accel: &amos_hw::AcceleratorSpec,
    measurements: usize,
    seed: u64,
) -> f64 {
    let generator = MappingGenerator::new();
    let mappings = generator.enumerate(def, &accel.intrinsic);
    let programs: Vec<_> = mappings
        .iter()
        .map(|m| m.lower(def, &accel.intrinsic).expect("lowers"))
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut best = f64::INFINITY;
    for _ in 0..measurements {
        let prog = &programs[rng.gen_range(0..programs.len())];
        let s = random_schedule(prog, accel, &mut rng);
        if let Ok(r) = simulate(prog, &s, accel) {
            best = best.min(r.cycles);
        }
    }
    best
}

fn print_ablation() {
    amos_bench::banner("Ablation: model-screened genetic search vs random search (A100)");
    let accel = catalog::a100();
    println!(
        "{:<6} {:>14} {:>16} {:>8}  (equal ground-truth measurement budgets)",
        "layer", "random", "model+genetic", "gain"
    );
    for (label, sh) in configs::resnet18_conv_layers(16).into_iter().step_by(3) {
        let def = ops::c2d(sh);
        let seed = amos_bench::stable_seed(&label);
        let explorer = Explorer::with_config(ExplorerConfig {
            population: 24,
            generations: 5,
            survivors: 6,
            measure_top: 4,
            seed,
            jobs: 0,
            ..Default::default()
        });
        let guided = explorer.explore(&def, &accel).expect("explores");
        // Equalise the measurement budget to what the explorer spent.
        let budget = guided.evaluations.len();
        let random = random_search(&def, &accel, budget, seed);
        println!(
            "{:<6} {:>14.0} {:>16.0} {:>7.2}x",
            label,
            random,
            guided.cycles(),
            random / guided.cycles()
        );
    }
}

/// Wall-clock scaling of the parallel engine: the same search at jobs=1 and
/// jobs=N returns bit-identical winners (asserted here), only faster.
fn print_jobs_scaling() {
    // At least 2 so the parallel leg differs from the serial one even on a
    // single-core host (where the speedup honestly reports ~1x or below).
    let n = amos_core::default_jobs().max(2);
    amos_bench::banner(&format!(
        "Parallel engine: exploration wall clock, jobs=1 vs jobs={n} (A100)"
    ));
    let accel = catalog::a100();
    let def = ops::c2d(configs::resnet18_conv_layers(16)[6].1);
    let config = |jobs| ExplorerConfig {
        population: 24,
        generations: 5,
        survivors: 6,
        measure_top: 4,
        seed: 6,
        jobs,
        ..Default::default()
    };
    let time_one = |jobs: usize| {
        let explorer = Explorer::with_config(config(jobs));
        let start = std::time::Instant::now();
        let result = explorer.explore(&def, &accel).expect("explores");
        (start.elapsed(), result)
    };
    let (t1, r1) = time_one(1);
    let (tn, rn) = time_one(n);
    assert_eq!(
        r1.best_schedule, rn.best_schedule,
        "jobs must not change the winner"
    );
    assert_eq!(
        r1.cycles(),
        rn.cycles(),
        "jobs must not change measured cycles"
    );
    println!(
        "jobs=1: {t1:>10.2?}   jobs={n}: {tn:>10.2?}   speedup: {:.2}x (same winner)",
        t1.as_secs_f64() / tn.as_secs_f64()
    );
}

fn bench(c: &mut Criterion) {
    print_ablation();
    print_jobs_scaling();
    let accel = catalog::a100();
    let def = ops::c2d(configs::resnet18_conv_layers(16)[6].1);
    let mut group = c.benchmark_group("ablation_explorer");
    group.sample_size(10);
    group.bench_function("random_search_50_measurements", |b| {
        b.iter(|| random_search(&def, &accel, 50, 6))
    });
    group.bench_function("explore_jobs_1", |b| {
        let explorer = Explorer::with_config(ExplorerConfig {
            population: 16,
            generations: 3,
            survivors: 4,
            measure_top: 3,
            seed: 6,
            jobs: 1,
            ..Default::default()
        });
        b.iter(|| explorer.explore(&def, &accel).expect("explores"))
    });
    group.bench_function("explore_jobs_all_cores", |b| {
        let explorer = Explorer::with_config(ExplorerConfig {
            population: 16,
            generations: 3,
            survivors: 4,
            measure_top: 3,
            seed: 6,
            jobs: 0,
            ..Default::default()
        });
        b.iter(|| explorer.explore(&def, &accel).expect("explores"))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
