//! Figure 5: validation of the analytic performance model against the
//! ground truth (the timing simulator here, a V100 in the paper) on
//! ResNet-18 2D-convolution workloads.
//!
//! Reports, like the paper: the predicted-vs-measured trend over exploration
//! steps, the overall pairwise (rank) accuracy (paper: 85.69%), the top-40%
//! recall (paper: 91.4%), and recall across top rates (paper Fig 5 inset:
//! 0.25/0.706/0.808/0.914/0.864/0.846 at 0.1..0.6).

use amos_core::{pairwise_accuracy, top_rate_recall, Explorer, ExplorerConfig};
use amos_hw::catalog;
use amos_workloads::{configs, ops};
use criterion::{criterion_group, criterion_main, Criterion};

fn collect_pairs() -> Vec<(f64, f64)> {
    let accel = catalog::v100();
    let mut pairs = Vec::new();
    for (label, mut sh) in configs::resnet18_conv_layers(16) {
        sh.n = 16;
        let def = ops::c2d(sh);
        let explorer = Explorer::with_config(ExplorerConfig {
            population: 24,
            generations: 6,
            survivors: 6,
            measure_top: 4,
            seed: amos_bench::stable_seed(&label),
            jobs: 0,
            ..Default::default()
        });
        if let Ok(result) = explorer.explore(&def, &accel) {
            pairs.extend(result.evaluations);
        }
    }
    pairs
}

fn print_figure() {
    amos_bench::banner("Figure 5: performance-model validation on ResNet-18 C2D (V100)");
    let pairs = collect_pairs();
    println!("ground-truth measurements collected: {}", pairs.len());

    // Trend over exploration steps (sampled every few steps).
    println!("\n{:>5} {:>14} {:>14}", "step", "predicted", "measured");
    let stride = (pairs.len() / 12).max(1);
    for (i, (p, m)) in pairs.iter().enumerate().step_by(stride) {
        println!("{:>5} {:>14.0} {:>14.0}", i, p, m);
    }

    let acc = pairwise_accuracy(&pairs);
    println!(
        "\npairwise rank accuracy: {:.1}% (paper: 85.69%)",
        acc * 100.0
    );
    println!("\n{:>8} {:>8}  paper", "top rate", "recall");
    let paper = [0.25, 0.706, 0.808, 0.914, 0.864, 0.846];
    for (i, rate) in [0.1, 0.2, 0.3, 0.4, 0.5, 0.6].iter().enumerate() {
        println!(
            "{:>8.1} {:>8.3}  {:.3}",
            rate,
            top_rate_recall(&pairs, *rate),
            paper[i]
        );
    }
}

fn bench(c: &mut Criterion) {
    print_figure();
    let accel = catalog::v100();
    let (_, sh) = configs::resnet18_conv_layers(16).remove(5);
    let def = ops::c2d(sh);
    let generator = amos_core::MappingGenerator::new();
    let mapping = generator.enumerate(&def, &accel.intrinsic).remove(0);
    let prog = mapping.lower(&def, &accel.intrinsic).unwrap();
    let schedule = amos_sim::Schedule::balanced(&prog, &accel);
    let mut group = c.benchmark_group("fig5");
    group.sample_size(30);
    group.bench_function("perf_model_predict", |b| {
        b.iter(|| {
            amos_core::perf_model::predict(&prog, &schedule, &accel)
                .unwrap()
                .cycles
        })
    });
    group.bench_function("timing_simulate", |b| {
        b.iter(|| amos_sim::simulate(&prog, &schedule, &accel).unwrap().cycles)
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
