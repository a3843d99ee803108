//! Golden digests of the timing engine, the balanced heuristic and the
//! feasibility verdicts, recorded from the `MappedProgram`-walking
//! implementations before the engine moved onto `ScreeningContext`.
//!
//! For every `operator_configs()` entry, every machine in `data/accels/`
//! (each intrinsic of a heterogeneous one) and the first, middle and last
//! enumerated mapping, the test simulates the balanced schedule, eight
//! seeded random schedules (split-K included) and an oversized variant of
//! each random schedule that may or may not fit the machine. One FNV digest
//! per machine covers the `to_bits` of all ten `TimingReport` fields (or the
//! error text of a rejected schedule); a second covers the balanced
//! schedules' `Debug`. Any drift in a single bit of a single report fails.

use amos::core::{fnv1a, random_schedule, MappingGenerator};
use amos::hw::Registry;
use amos::sim::{simulate, AxisKind, MappedProgram, Schedule, SimError, TimingReport};
use amos::workloads::configs::operator_configs;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write;
use std::path::PathBuf;

/// `(machine, simulations, rejected, report digest, balanced digest)`.
type Row = (&'static str, usize, usize, u64, u64);

const GOLDEN: &[Row] = &[
    ("v100", 4165, 710, 0xf671d3d1a2c8bc24, 0xd62515e4957b1e96),
    ("a100", 4165, 667, 0x9be68ffaf2531592, 0x97fbba1c78992530),
    ("t4", 4165, 774, 0xdef36e680719db0a, 0x8f925e941162be90),
    (
        "xeon-avx512",
        4964,
        806,
        0xc9f90b5d5b4a7e1e,
        0xe1ab045adfb6cea9,
    ),
    (
        "mali-g76",
        3519,
        578,
        0x78260f08755c417e,
        0xedc1b63fe57d0ee6,
    ),
    ("mini", 4165, 1100, 0x6c6a2662407fbec5, 0xb6f72df58d89e44c),
    (
        "ascend-npu",
        9129,
        1433,
        0x8f988cbf23613909,
        0xce58b6255b0afbc4,
    ),
    (
        "tpu-like",
        4165,
        777,
        0x59c16d12462a846a,
        0xaa867ef895da173a,
    ),
    (
        "gemmini-like",
        4165,
        649,
        0x785238fbced5405e,
        0x8da30047905333a9,
    ),
    (
        "virtual-axpy",
        4556,
        669,
        0x2a263cce058fc001,
        0x7bb3c0a56dcf533c,
    ),
    (
        "virtual-gemv",
        4964,
        852,
        0x147b1fa6dfe123dc,
        0x90aa61ed0f211db3,
    ),
    (
        "virtual-conv",
        1717,
        319,
        0x006a9f2a5b582325,
        0x875b8e50b55f7a80,
    ),
];

fn data_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("data/accels")
}

fn write_outcome(text: &mut String, outcome: &Result<TimingReport, SimError>) -> bool {
    match outcome {
        Ok(r) => {
            write!(
                text,
                "{:x},{},{},{:x},{:x},{},{},{},{:x},{:x};",
                r.cycles.to_bits(),
                r.blocks,
                r.waves,
                r.occupancy.to_bits(),
                r.utilization.to_bits(),
                r.dram_read_bytes,
                r.dram_write_bytes,
                r.register_traffic_bytes,
                r.block_compute_cycles.to_bits(),
                r.block_transfer_cycles.to_bits(),
            )
            .unwrap();
            true
        }
        Err(e) => {
            write!(text, "!{e};").unwrap();
            false
        }
    }
}

/// A copy of `s` with its footprint genes scaled up: sometimes still legal,
/// often over a capacity, occasionally over an extent, the sub-core count or
/// the axis count.
fn oversized(s: &Schedule, prog: &MappedProgram, k: usize) -> Schedule {
    let mut big = s.clone();
    let axes = prog.axes();
    for (i, a) in axes.iter().enumerate() {
        match a.kind {
            AxisKind::TileSpatial(_) => big.warp[i] *= 1 << (k % 4),
            AxisKind::TileReduction(_) => {
                big.stage[i] = (big.stage[i] * (1 << (k % 5))).min(a.extent.max(1));
            }
            _ => {}
        }
    }
    if k.is_multiple_of(3) {
        big.double_buffer = true;
    }
    match k {
        5 => big.subcore[0] *= 64,
        6 => {
            big.split_k.pop();
        }
        7 => big.grid[0] *= 3,
        _ => {}
    }
    big
}

#[test]
fn timing_reports_and_balanced_schedules_match_the_golden_digests() {
    let registry = Registry::load_dir(data_dir()).expect("committed catalog must load");
    let generator = MappingGenerator::new();
    let configs = operator_configs();
    let mut actual = String::new();
    let mut rows = Vec::new();
    for name in registry.names() {
        let accel = registry.build(name).expect("listed machine builds");
        let (mut reports, mut balanced) = (String::new(), String::new());
        let (mut simulations, mut rejected) = (0usize, 0usize);
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
                    let heuristic = Schedule::balanced(&prog, &unit);
                    write!(balanced, "{heuristic:?};").unwrap();
                    let mut rng = StdRng::seed_from_u64(fnv1a(&c.label) ^ pick as u64);
                    let mut schedules = vec![heuristic];
                    for k in 0..8 {
                        let s = random_schedule(&prog, &unit, &mut rng);
                        let big = oversized(&s, &prog, k);
                        schedules.push(s);
                        schedules.push(big);
                    }
                    for s in &schedules {
                        simulations += 1;
                        if !write_outcome(&mut reports, &simulate(&prog, s, &unit)) {
                            rejected += 1;
                        }
                    }
                }
            }
        }
        let row = (
            name.to_string(),
            simulations,
            rejected,
            fnv1a(&reports),
            fnv1a(&balanced),
        );
        writeln!(
            actual,
            "    (\"{name}\", {simulations}, {rejected}, {:#018x}, {:#018x}),",
            row.3, row.4
        )
        .unwrap();
        rows.push(row);
    }
    let golden: Vec<_> = GOLDEN
        .iter()
        .map(|&(m, n, r, d, b)| (m.to_string(), n, r, d, b))
        .collect();
    assert_eq!(
        rows, golden,
        "the timing engine or `Schedule::balanced` drifted from the golden digests; \
         this run produced:\n{actual}"
    );
}
