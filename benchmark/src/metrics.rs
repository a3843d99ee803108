//! The benchmark's metric tables: the one place names, units, directions
//! and bounds are written down. `BENCHMARK.json` is rendered from them and
//! `compare` applies them.

use crate::workload::NAMES;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the system would see. `bound` is
/// the share of the baseline's median by which it may worsen before a
/// change counts as a regression.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

use Better::{Higher, Lower};

/// Every workload reports all of these under the same names.
///
/// The bounds are what the 2-core reference box supports, not what one
/// would wish for: it has slow spells of half a minute that cost a tenth,
/// and `serve_mixed`, whose every request is two thread spawns and a chain
/// of wake-ups, spread its latencies by 5-11% and its peak memory by 6-15%
/// over ten runs of the same code. A bound is shared by all workloads, so
/// the noisiest one sets it. Tighter claims need paired, alternating runs
/// of parent and change; `compare` reports `unresolved` rather than
/// `unchanged` when the runs it is given cannot support a verdict.
///
/// `failed_share` is the eighth end-to-end figure. It is printed and
/// recorded with the others, and any non-zero value fails the run, but it
/// is not in this table: the driver's contract wants metrics that are never
/// zero and carries failures in `attempted`/`failed` instead.
///
/// `best_cycles_geomean` is the search-quality guard. For one seed it must
/// repeat exactly, and `compare` holds it to that; its bound here covers
/// only the spread between seeds, which draw different exploration seeds.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "op/s",
        better: Higher,
        bound: 0.20,
    },
    EndToEnd {
        name: "lat_p50_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "lat_tail_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_ms_per_op",
        unit: "ms",
        better: Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "best_cycles_geomean",
        unit: "cycles",
        better: Lower,
        bound: 0.03,
    },
];

/// Metrics `compare` holds to exact equality between runs of one seed.
pub const EXACT_END_TO_END: [&str; 2] = ["best_cycles_geomean", "failed_share"];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// A per-layer metric of the traced run. A layer a workload never enters
/// reads 0 there.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Whether `BENCHMARK.json` lists the metric. The driver rejects a time
    /// that reads the same on every run, and a timing of a layer that some
    /// workload never enters reads 0 on every run of that workload. Such a
    /// metric is printed and recorded like the others, but not listed;
    /// counts, which repeat by nature, and the probes, which every traced
    /// run takes, are.
    pub listed: bool,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        listed: true,
    }
}

/// A timing or ratio only the workloads that enter the layer can measure.
const fn native(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        listed: false,
    }
}

pub const PER_LAYER: [PerLayer; 63] = [
    // Engine stages, from spans around the staged API.
    native("core.engine.analyze_s", "s", Lower),
    native("core.engine.generate_s", "s", Lower),
    native("core.engine.lower_s", "s", Lower),
    native("core.engine.explore_s", "s", Lower),
    native("core.engine.emit_s", "s", Lower),
    native("core.engine.staged_vs_oneshot", "ratio", Lower),
    // Enumeration and validation.
    layer("core.generate.mappings", "count", Lower),
    layer("core.generate.enumerate_maps_per_s", "1/s", Higher),
    layer("core.validate.algorithm1_calls", "count", Lower),
    layer("core.validate.validate_per_s", "1/s", Higher),
    // Explorer.
    layer("core.perf_model.predict_batch_cps", "1/s", Higher),
    layer("sim.screening.context_build_per_s", "1/s", Higher),
    layer("sim.timing.simulate_per_s", "1/s", Higher),
    layer("core.explore.screened", "count", Lower),
    layer("core.explore.survivor_memo_hits", "count", Higher),
    layer("core.explore.measured_memo_hits", "count", Higher),
    layer("core.explore.measurements", "count", Lower),
    layer("core.explore.sim_failures", "count", Lower),
    layer("core.explore.generations", "count", Lower),
    native("core.explore.screen_s", "s", Lower),
    native("core.explore.measured_per_screened", "ratio", Lower),
    // Pool.
    layer("core.pool.threads", "count", Lower),
    layer("core.pool.waves", "count", Lower),
    layer("core.pool.tasks", "count", Lower),
    layer("core.pool.chunks", "count", Lower),
    layer("core.pool.wave_us", "us", Lower),
    native("core.pool.net_speedup", "ratio", Higher),
    native("core.pool.inner_speedup", "ratio", Higher),
    // Cache tiers.
    layer("core.cache.l1_hit_us", "us", Lower),
    layer("core.cache.l1_hits", "count", Higher),
    layer("core.cache.l2_hits", "count", Higher),
    layer("core.cache.cold_misses", "count", Lower),
    native("core.disk.l2_hit_us", "us", Lower),
    native("core.disk.write_us", "us", Lower),
    layer("core.disk.entries", "count", Lower),
    layer("core.disk.bytes", "count", Lower),
    // Network evaluation and front ends.
    layer("baselines.network.distinct_shapes", "count", Lower),
    native("baselines.network.evaluate_ms", "ms", Lower),
    layer("hw.registry.builtin_ms", "ms", Lower),
    layer("hw.registry.load_dir_ms", "ms", Lower),
    layer("hw.text.parse_files_per_s", "1/s", Higher),
    layer("workloads.spec.parse_per_s", "1/s", Higher),
    layer("cli.run_explore_ms", "ms", Lower),
    // Serve.
    layer("serve.json.parse_per_s", "1/s", Higher),
    layer("serve.proto.encode_per_s", "1/s", Higher),
    layer("serve.proto.decode_per_s", "1/s", Higher),
    native("serve.client.stats_roundtrip_us", "us", Lower),
    native("serve.lat_cold_ms", "ms", Lower),
    native("serve.lat_dup_ms", "ms", Lower),
    native("serve.lat_l1_ms", "ms", Lower),
    native("serve.lat_l2_ms", "ms", Lower),
    layer("serve.received", "count", Higher),
    layer("serve.explored", "count", Lower),
    layer("serve.dedup_joined", "count", Higher),
    native("serve.dedup_join_ratio", "ratio", Higher),
    layer("serve.shed", "count", Lower),
    layer("serve.timeouts", "count", Lower),
    layer("serve.errors", "count", Lower),
    layer("serve.l1_hits", "count", Higher),
    layer("serve.l2_hits", "count", Higher),
    layer("serve.cold_misses", "count", Lower),
    native("serve.gen_late_p99_ms", "ms", Lower),
    // Tracing itself.
    layer("trace.overhead_share", "ratio", Lower),
];

/// Why each workload was chosen, in `NAMES` order.
pub const WHY: [&str; 5] = [
    "Fig. 6 traffic at default depth: 113 operators x 8 machines, a fresh Engine::compile each; enumeration, Algorithm 1, lowering, screening and simulation all weigh in; cache, pool and daemon bypassed",
    "one long search parallel inside (384 generations, all cores): screening, measurement and per-generation pool waves dominate, enumeration is negligible; the opposite pool use from net_cold",
    "whole-network compile time: 17 (network, batch) evaluations on v100 at depth 48; one flat pool wave per network, L1 dedup of repeated layer shapes, and the L2 write path",
    "the second-process path: 904 operations answered from the on-disk tier (entry parse, re-simulation, L1 promote) with the explorer bypassed; the read side against net_cold's write side",
    "the only path through the daemon: cold, duplicate, L1 and L2 requests over the Unix socket, one generator per core; a closed phase for throughput, an open phase at a fixed rate for latency",
];

/// How long one measured run lasts, in seconds.
pub const RUN_SECONDS: u64 = 15;

fn quoted_list(items: &[&str]) -> String {
    let quoted: Vec<String> = items.iter().map(|s| format!("\"{s}\"")).collect();
    quoted.join(", ")
}

/// The text of `BENCHMARK.json`, rendered from the tables above.
pub fn manifest() -> String {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
        "run",
    ];
    let workloads: Vec<String> = NAMES
        .iter()
        .zip(WHY)
        .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .filter(|m| m.listed)
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        quoted_list(&command),
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = HashSet::new();
        let names = NAMES
            .iter()
            .copied()
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(seen.insert(name), "{name} is used twice");
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(unit.len() <= 16, "{unit}");
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(WHY.iter().all(|why| why.len() <= 200 && !why.contains('"')));
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert!(end_to_end("setup_s").is_some_and(|m| m.unit == "s" && m.better == Lower));
    }

    #[test]
    fn the_committed_manifest_is_the_rendered_one() {
        let path = crate::sys::bench_dir().join("../BENCHMARK.json");
        let committed = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            manifest(),
            "run `manifest > BENCHMARK.json` again"
        );
    }
}
