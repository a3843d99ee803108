//! Kernel rates of single layers, measured by calling their public entry
//! points in a loop. They do not depend on the workload: every traced run
//! takes them, so a layer's counts in that run can be divided by its rate
//! to attribute the stage time above it.

use crate::gen::all_specs;
use crate::stats::median;
use crate::workload::Layers;
use amos_core::perf_model::predict_batch;
use amos_core::validate::validate_mapping;
use amos_core::{random_schedule, Engine, ExplorerConfig, MappingGenerator};
use amos_hw::Registry;
use amos_serve::proto::{ExploreReply, Response};
use amos_sim::{Schedule, ScreeningContext};
use amos_workloads::{configs, ops};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// Each probe is the median of this many slices of `SLICE_S` seconds.
const SLICES: usize = 5;
const SLICE_S: f64 = 0.02;

/// Items per second of `batch`, which returns how many items it processed.
fn per_second(mut batch: impl FnMut() -> usize) -> f64 {
    batch();
    let rates: Vec<f64> = (0..SLICES)
        .map(|_| {
            let started = Instant::now();
            let mut items = 0;
            while started.elapsed().as_secs_f64() < SLICE_S {
                items += batch();
            }
            items as f64 / started.elapsed().as_secs_f64()
        })
        .collect();
    median(&rates)
}

/// Median seconds of one call of `call`.
fn seconds_per_call(mut call: impl FnMut()) -> f64 {
    1.0 / per_second(|| {
        call();
        1
    })
}

/// Runs every probe into `layers`.
pub fn run(layers: &mut Layers) {
    let registry = Registry::builtin();
    let accel = registry.build("v100").expect("catalog v100");
    let intrinsic = &accel.intrinsic;
    let generator = MappingGenerator::new();

    // Enumeration and Algorithm 1 on the operators whose mapping spaces are
    // widest: a Table-5 convolution, a 3D convolution and a capsule layer.
    let conv = ops::c2d(configs::resnet18_conv_layers(16)[5].1);
    let wide: Vec<_> = configs::operator_configs()
        .into_iter()
        .filter(|c| c.label == "c16k32d8p28" || c.label == "c8k16p6")
        .map(|c| c.def)
        .chain([conv.clone()])
        .collect();
    layers.insert(
        "core.generate.enumerate_maps_per_s",
        per_second(|| {
            wide.iter()
                .map(|def| black_box(generator.enumerate(def, intrinsic)).len())
                .sum()
        }),
    );
    let mappings = generator.enumerate(&conv, intrinsic);
    layers.insert(
        "core.validate.validate_per_s",
        per_second(|| {
            mappings
                .iter()
                .filter(|m| black_box(validate_mapping(&conv, intrinsic, m)))
                .count()
        }),
    );

    // The explorer's three kernels on that convolution's first mapping.
    let program = mappings[0].lower(&conv, intrinsic).expect("lowering");
    let ctx = program.screening_context(&accel);
    let mut rng = StdRng::seed_from_u64(amos_core::fnv1a("probes"));
    let schedules: Vec<Schedule> = (0..512)
        .map(|_| random_schedule(&program, &accel, &mut rng))
        .collect();
    let refs: Vec<&Schedule> = schedules.iter().collect();
    let mut predictions = Vec::with_capacity(refs.len());
    layers.insert(
        "core.perf_model.predict_batch_cps",
        per_second(|| {
            predictions.clear();
            predict_batch(&ctx, black_box(&refs), &mut predictions);
            black_box(&predictions).len()
        }),
    );
    layers.insert(
        "sim.screening.context_build_per_s",
        per_second(|| {
            black_box(ScreeningContext::build(&program, &accel));
            1
        }),
    );
    layers.insert(
        "sim.timing.simulate_per_s",
        per_second(|| {
            for s in &schedules {
                let _ = black_box(amos_sim::simulate(&program, s, &accel));
            }
            schedules.len()
        }),
    );

    // An empty wave: what the pool charges before any task does work.
    let jobs = crate::sys::nproc();
    layers.insert(
        "core.pool.wave_us",
        seconds_per_call(|| {
            black_box(amos_core::parallel_map(jobs, 64, |i| i));
        }) * 1e6,
    );

    let engine = Engine::with_config(ExplorerConfig {
        jobs: 1,
        ..ExplorerConfig::default()
    });
    let gemm = ops::gmm(256, 256, 256);
    engine.explore_op(&gemm, &accel).expect("gemm explores");
    layers.insert(
        "core.cache.l1_hit_us",
        seconds_per_call(|| {
            black_box(engine.explore_op(&gemm, &accel).expect("cached"));
        }) * 1e6,
    );

    // Front ends: the registry, the accelerator files, the spec grammar
    // and the CLI.
    layers.insert(
        "hw.registry.builtin_ms",
        seconds_per_call(|| {
            black_box(Registry::builtin().build_all());
        }) * 1e3,
    );
    let accel_dir = crate::sys::bench_dir().join("../data/accels");
    layers.insert(
        "hw.registry.load_dir_ms",
        seconds_per_call(|| {
            black_box(Registry::load_dir(&accel_dir).expect("committed accelerator files load"));
        }) * 1e3,
    );
    let files: Vec<String> = std::fs::read_dir(&accel_dir)
        .expect("data/accels is readable")
        .flatten()
        .filter_map(|entry| std::fs::read_to_string(entry.path()).ok())
        .collect();
    layers.insert(
        "hw.text.parse_files_per_s",
        per_second(|| {
            files
                .iter()
                .filter(|text| black_box(amos_hw::text::parse_any(text)).is_ok())
                .count()
        }),
    );
    let specs = all_specs(false);
    layers.insert(
        "workloads.spec.parse_per_s",
        per_second(|| {
            specs[..256]
                .iter()
                .filter(|spec| black_box(amos_workloads::spec::parse_spec(spec)).is_ok())
                .count()
        }),
    );
    let cli_args: Vec<String> = [
        "explore",
        "gmm:256x256x256",
        "--accel",
        "v100",
        "--jobs",
        "1",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    layers.insert(
        "cli.run_explore_ms",
        seconds_per_call(|| {
            let mut out = Vec::new();
            amos_cli::run(&cli_args, &mut out).expect("amos explore runs");
            black_box(out);
        }) * 1e3,
    );

    // The wire codecs on a typical reply.
    let reply = Response::Ok(ExploreReply {
        spec: "c2d:n4,c64,k128,p14,r3,st1".into(),
        accel: "xeon-avx512".into(),
        seed: 0x1234_5678_9abc,
        cycles: 123_456.789,
        cycles_bits: 123_456.789f64.to_bits(),
        completion: "finished".into(),
        generations: 8,
        evaluations: 52,
        mappings: 35,
    });
    let line = reply.encode();
    layers.insert(
        "serve.proto.encode_per_s",
        per_second(|| {
            black_box(black_box(&reply).encode());
            1
        }),
    );
    layers.insert(
        "serve.proto.decode_per_s",
        per_second(|| {
            black_box(Response::decode(black_box(&line))).expect("own line decodes");
            1
        }),
    );
    layers.insert(
        "serve.json.parse_per_s",
        per_second(|| {
            black_box(amos_serve::json::parse_object(black_box(&line))).expect("own line parses");
            1
        }),
    );
}
