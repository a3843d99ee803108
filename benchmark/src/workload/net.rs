//! `net_cold`: whole-network compile time, the ROADMAP's headline.
//!
//! The `record_network` set — six networks, seventeen (network, batch)
//! combinations — on v100 at depth 48, through a fresh `NetworkEvaluator`
//! per pass with all cores and a fresh, empty cache directory to write
//! through to. It gives one flat pool wave of long tasks per network, L1
//! dedup of repeated layer shapes and the L2 write path: the workload where
//! parallel speed-up must show and `op_cold` must not move.

use super::{Gate, Layers, Pass, Timed, Workload};
use crate::trace::Trace;
use amos_baselines::{NetworkEvaluator, System};
use amos_core::{CacheConfig, Engine, ExplorerConfig};
use amos_hw::{AcceleratorSpec, Registry};
use amos_workloads::networks::{self, Network};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

const DEPTH: usize = 48;

pub struct NetCold {
    accel: AcceleratorSpec,
    combos: Vec<(Network, i64)>,
    cache_dir: PathBuf,
    /// The evaluator's thread budget: every core, except in the sequential
    /// child of `core.pool.net_speedup`.
    jobs: usize,
    /// Whether passes write through to `cache_dir`; off only for the
    /// comparison pass of `core.disk.write_us`.
    write_through: bool,
}

fn combos() -> Vec<(Network, i64)> {
    let mut combos = Vec::new();
    for batch in [1, 2, 4, 8, 16] {
        combos.push((networks::resnet18(), batch));
        combos.push((networks::mobilenet_v1(), batch));
    }
    for batch in [1, 16] {
        combos.push((networks::resnet50(), batch));
        combos.push((networks::bert_base(), batch));
        combos.push((networks::shufflenet(), batch));
    }
    combos.push((networks::mi_lstm(), 1));
    combos
}

impl NetCold {
    /// Nothing here is drawn from the seed. The evaluator derives every
    /// exploration seed from the layer shape, and the order is part of the
    /// workload: the first network to need a layer shape pays for it, which
    /// moves single evaluations by a quarter and the median with them.
    pub fn new(work: &Path) -> NetCold {
        NetCold {
            accel: Registry::builtin().build("v100").expect("catalog v100"),
            combos: combos(),
            cache_dir: work.join("net-l2"),
            jobs: crate::sys::nproc(),
            write_through: true,
        }
    }

    fn evaluator(&self) -> NetworkEvaluator {
        let cache_dir = self.write_through.then(|| self.cache_dir.clone());
        let engine = Engine::with_cache(ExplorerConfig::default(), CacheConfig { cache_dir });
        NetworkEvaluator::with_engine(engine)
            .with_depth(DEPTH)
            .with_jobs(self.jobs)
    }

    /// Median wall seconds of `passes` untraced passes.
    pub fn median_wall_s(&mut self, passes: usize) -> f64 {
        let walls: Vec<f64> = (0..passes)
            .map(|_| self.pass(&mut Trace::new(false, Instant::now())).wall_s)
            .collect();
        crate::stats::median(&walls)
    }
}

impl Workload for NetCold {
    fn tail(&self) -> f64 {
        0.90
    }

    fn pass(&mut self, trace: &mut Trace) -> Pass {
        let _ = std::fs::remove_dir_all(&self.cache_dir);
        let mut pass = Pass {
            attempted: self.combos.len(),
            ..Pass::default()
        };
        let clock = Timed::start();
        let mut evaluator = self.evaluator();
        for (id, (net, batch)) in self.combos.iter().enumerate() {
            let started = Instant::now();
            let cost = trace.span("baselines.network.evaluate", id as u64, |_| {
                evaluator.evaluate(System::Amos, net, *batch, &self.accel)
            });
            pass.lat_ms.push(started.elapsed().as_secs_f64() * 1e3);
            pass.cycles.push(cost.total_cycles);
            pass.add("core.explore.sim_failures", cost.sim_failures as f64);
        }
        let stats = evaluator.cache_stats();
        clock.stop(&mut pass);
        pass.ops = pass.cycles.len();
        pass.answered = pass.ops;
        pass.add_cache(stats);
        // Every cold miss of a network evaluation is one distinct shape.
        pass.add("baselines.network.distinct_shapes", stats.misses as f64);
        pass
    }

    fn gate(&mut self, gate: &mut Gate) -> Pass {
        let pass = self.pass(&mut Trace::new(false, Instant::now()));
        // The write-through tier must hold exactly what the pass explored
        // cleanly, and a second process image must read the same costs.
        let mut reader = self.evaluator();
        for (i, (net, batch)) in self.combos.iter().enumerate() {
            let cost = reader.evaluate(System::Amos, net, *batch, &self.accel);
            gate.check(
                cost.total_cycles.to_bits() == pass.cycles[i].to_bits(),
                || {
                    format!(
                        "{} @ batch {batch}: the disk tier answered {} cycles, the search {}",
                        net.name, cost.total_cycles, pass.cycles[i]
                    )
                },
            );
        }
        gate.check(reader.cache_stats().misses == 0, || {
            format!(
                "re-reading the written tier missed {} shapes",
                reader.cache_stats().misses
            )
        });
        pass
    }

    fn layer_runs(&mut self, parallel_wall_s: f64, layers: &mut Layers) {
        let entries = amos_core::cache_dir_stats(&self.cache_dir)
            .map(|s| s.entries)
            .unwrap_or(0);
        self.write_through = false;
        let memory_only_s = self.median_wall_s(3);
        self.write_through = true;
        layers.insert(
            "core.disk.write_us",
            (parallel_wall_s - memory_only_s) * 1e6 / entries.max(1) as f64,
        );
        if let Some(sequential_s) = sequential_child() {
            layers.insert("core.pool.net_speedup", sequential_s / parallel_wall_s);
        }
    }

    fn cache_dir(&self) -> Option<&Path> {
        Some(&self.cache_dir)
    }
}

/// Median pass seconds of this workload in a child process pinned to one
/// thread by `AMOS_JOBS=1` — the only way to get a truly sequential run,
/// since `with_jobs(1)` still lets the inner searches fan out.
fn sequential_child() -> Option<f64> {
    let exe = std::env::current_exe().ok()?;
    let out = Command::new(exe)
        .arg("net-sequential")
        .env("AMOS_JOBS", "1")
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    String::from_utf8(out.stdout).ok()?.trim().parse().ok()
}

/// Body of the `net-sequential` child: prints the median pass seconds.
pub fn run_sequential_child(work: &Path) {
    let mut w = NetCold::new(work);
    w.jobs = 1;
    println!("{}", w.median_wall_s(3));
}
