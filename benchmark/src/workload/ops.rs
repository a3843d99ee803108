//! The three single-operator workloads. They share their inputs' shape (an
//! operator, an accelerator and an exploration seed per operation) and
//! differ in which layers carry the time:
//!
//! * `op_cold` — a fresh `Engine::compile` per operation at the CLI's
//!   default depth: enumeration, Algorithm 1, lowering, screening and the
//!   timing simulator all weigh in; cache, pool and daemon are bypassed.
//! * `op_deep` — one long search per operation, parallel inside: screening,
//!   measurement and per-generation pool waves dominate.
//! * `l2_read` — every operation answered by the on-disk tier: entry parse,
//!   re-simulation and L1 promotion, with the explorer bypassed.

use super::{check_resimulation, Gate, Layers, Pass, Timed, Workload};
use crate::gen::{Gen, ACCELS};
use crate::trace::Trace;
use amos_core::{AmosError, CacheConfig, Engine, ExplorationResult, ExplorerConfig};
use amos_hw::{AcceleratorSpec, Registry};
use amos_ir::ComputeDef;
use amos_workloads::{configs, ops};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// `op_deep` runs every search 48 times deeper than the default eight
/// generations — the depth `record_network` settled on.
const DEEP_GENERATIONS: usize = 384;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Cold,
    Deep,
    L2Read,
}

/// One operation: indices into the workload's operators and accelerators,
/// and the exploration seed.
#[derive(Debug, Clone, Copy)]
struct Op {
    def: usize,
    accel: usize,
    seed: u64,
}

pub struct OpWorkload {
    kind: Kind,
    defs: Vec<ComputeDef>,
    accels: Vec<AcceleratorSpec>,
    ops: Vec<Op>,
    /// `l2_read` only: the populated cache directory and the cycles the
    /// populating explorations found, input order.
    cache_dir: Option<PathBuf>,
    populated_bits: Vec<u64>,
    /// `op_deep`'s inner thread budget: 0 (all cores) when measured, 1 for
    /// the sequential comparison of `core.pool.inner_speedup`.
    jobs: usize,
}

fn build_accels(names: &[&str]) -> Vec<AcceleratorSpec> {
    let registry = Registry::builtin();
    names
        .iter()
        .map(|name| registry.build(name).expect("catalog accelerator"))
        .collect()
}

/// Every (operator, accelerator) pair with a seeded exploration seed, in a
/// seeded order.
fn cross(gen: &mut Gen, defs: usize, accels: usize) -> Vec<Op> {
    let mut ops = Vec::with_capacity(defs * accels);
    for def in 0..defs {
        for accel in 0..accels {
            ops.push(Op {
                def,
                accel,
                seed: gen.seed48(),
            });
        }
    }
    gen.shuffle(&mut ops);
    ops
}

impl OpWorkload {
    /// The paper's Fig. 6 traffic: the 113 operator configurations of §7.3
    /// on the eight real-machine accelerators, 904 compiles a pass.
    pub fn op_cold(seed: u64) -> OpWorkload {
        let mut gen = Gen::new(seed, "op_cold");
        let defs: Vec<ComputeDef> = configs::operator_configs()
            .into_iter()
            .map(|c| c.def)
            .collect();
        let accels = build_accels(&ACCELS);
        let ops = cross(&mut gen, defs.len(), accels.len());
        OpWorkload {
            kind: Kind::Cold,
            defs,
            accels,
            ops,
            cache_dir: None,
            populated_bits: Vec::new(),
            jobs: 1,
        }
    }

    /// The Table-5 ResNet-18 convolutions at batch 16 plus the GMM and C3D
    /// shapes of §7.3, on a GPU-like and a CPU-like machine.
    pub fn op_deep(seed: u64) -> OpWorkload {
        let mut gen = Gen::new(seed, "op_deep");
        let mut defs: Vec<ComputeDef> = configs::resnet18_conv_layers(16)
            .into_iter()
            .map(|(_, shape)| ops::c2d(shape))
            .collect();
        defs.extend(
            configs::operator_configs()
                .into_iter()
                .filter(|c| c.family == "GMM" || c.family == "C3D")
                .map(|c| c.def),
        );
        let accels = build_accels(&["v100", "xeon-avx512"]);
        let mut ops = cross(&mut gen, defs.len(), accels.len());
        // 54 deep searches are too few for their winners' geomean to hold
        // still when every search draws another seed (it moves by 4% from
        // seed to seed). As the network evaluator does for `net_cold`, the
        // exploration seed comes from the operation; `--seed` orders them.
        for op in &mut ops {
            let identity = format!(
                "{}|{}",
                amos_core::shape_fingerprint(&defs[op.def]),
                accels[op.accel].name
            );
            op.seed = amos_core::fnv1a(&identity) >> 16;
        }
        OpWorkload {
            kind: Kind::Deep,
            defs,
            accels,
            ops,
            cache_dir: None,
            populated_bits: Vec::new(),
            jobs: 0,
        }
    }

    /// `op_cold`'s inputs, explored once into a cache directory during
    /// set-up; every timed pass is a fresh engine reading them back.
    pub fn l2_read(seed: u64, work: &Path) -> OpWorkload {
        let mut w = OpWorkload::op_cold(seed);
        w.kind = Kind::L2Read;
        let dir = work.join("l2");
        let _ = std::fs::remove_dir_all(&dir);
        let engine = w.disk_engine(&dir);
        w.populated_bits = w
            .ops
            .iter()
            .map(|op| {
                w.one_shot(&engine, op)
                    .map(|r| r.cycles().to_bits())
                    .unwrap_or(0)
            })
            .collect();
        w.cache_dir = Some(dir);
        w
    }

    fn config(&self, seed: u64) -> ExplorerConfig {
        ExplorerConfig {
            seed,
            jobs: self.jobs,
            generations: match self.kind {
                Kind::Deep => DEEP_GENERATIONS,
                Kind::Cold | Kind::L2Read => ExplorerConfig::default().generations,
            },
            ..ExplorerConfig::default()
        }
    }

    fn disk_engine(&self, dir: &Path) -> Engine {
        Engine::with_cache(
            self.config(0),
            CacheConfig {
                cache_dir: Some(dir.to_path_buf()),
            },
        )
    }

    fn one_shot(&self, engine: &Engine, op: &Op) -> Result<ExplorationResult, AmosError> {
        let (def, accel) = (&self.defs[op.def], &self.accels[op.accel]);
        match self.kind {
            Kind::Cold => engine.compile(def, accel).map(|e| e.into_result()),
            Kind::Deep => engine.explore_op(def, accel),
            Kind::L2Read => engine.explore_op_with(self.config(op.seed), def, accel),
        }
    }

    /// The same operation through the staged pipeline, a span per stage.
    fn staged(
        &self,
        engine: &Engine,
        op: &Op,
        id: u64,
        trace: &mut Trace,
    ) -> Result<ExplorationResult, AmosError> {
        let (def, accel) = (&self.defs[op.def], &self.accels[op.accel]);
        let analyzed = trace.span("core.engine.analyze", id, |_| engine.analyze(def, accel));
        let set = trace.span("core.engine.generate", id, |_| engine.generate(analyzed))?;
        let lowered = trace.span("core.engine.lower", id, |_| engine.lower(set))?;
        let explored = trace.span("core.engine.explore", id, |_| engine.explore(lowered))?;
        trace.span("core.engine.emit", id, |_| {
            black_box(engine.emit(&explored));
        });
        Ok(explored.into_result())
    }

    /// One pass; `visit` sees every answered operation's full result.
    fn run(&self, trace: &mut Trace, mut visit: impl FnMut(&Op, &ExplorationResult)) -> Pass {
        let mut pass = Pass {
            attempted: self.ops.len(),
            ..Pass::default()
        };
        let mark = trace.mark();
        let clock = Timed::start();
        let shared = self.cache_dir.as_deref().map(|dir| self.disk_engine(dir));
        for (id, op) in self.ops.iter().enumerate() {
            let id = id as u64;
            let started = Instant::now();
            let (result, stats) = match &shared {
                Some(engine) => (
                    trace.span("core.disk.l2_hit", id, |_| self.one_shot(engine, op)),
                    None,
                ),
                None => trace.span("op", id, |trace| {
                    let engine = Engine::with_config(self.config(op.seed));
                    let result = if trace.enabled() {
                        self.staged(&engine, op, id, trace)
                    } else {
                        self.one_shot(&engine, op)
                    };
                    (result, Some(engine.cache_stats()))
                }),
            };
            let lat_ms = started.elapsed().as_secs_f64() * 1e3;
            if let Some(stats) = stats {
                pass.add_cache(stats);
            }
            match result {
                Ok(result) => {
                    pass.lat_ms.push(lat_ms);
                    pass.cycles.push(result.cycles());
                    if self.kind != Kind::L2Read {
                        pass.add_exploration(&result);
                    }
                    visit(op, &result);
                }
                Err(_) => pass.failed += 1,
            }
        }
        if let Some(engine) = &shared {
            let stats = engine.cache_stats();
            pass.add_cache(stats);
            // A miss here means the disk tier rejected or lost an entry.
            pass.failed += stats.misses;
        }
        clock.stop(&mut pass);
        pass.ops = pass.cycles.len();
        pass.answered = pass.ops;
        if trace.enabled() {
            for (layer, span) in [
                ("core.engine.analyze_s", "core.engine.analyze"),
                ("core.engine.generate_s", "core.engine.generate"),
                ("core.engine.lower_s", "core.engine.lower"),
                ("core.engine.explore_s", "core.engine.explore"),
                ("core.engine.emit_s", "core.engine.emit"),
            ] {
                pass.add(layer, trace.seconds_since(mark, span));
            }
        }
        pass
    }
}

impl Workload for OpWorkload {
    fn tail(&self) -> f64 {
        match self.kind {
            Kind::Cold => 0.99,
            // 54 operations a pass: only p90 keeps ten samples beyond it.
            Kind::Deep => 0.90,
            // A disk hit takes 45 us; at p99 the operating system's jitter
            // moves the figure by 9% from run to run.
            Kind::L2Read => 0.90,
        }
    }

    fn pass(&mut self, trace: &mut Trace) -> Pass {
        self.run(trace, |_, _| ())
    }

    fn gate(&mut self, gate: &mut Gate) -> Pass {
        let mut seen = 0;
        let pass = self.run(&mut Trace::new(false, Instant::now()), |op, result| {
            check_resimulation(
                gate,
                &format!("operation {seen}"),
                result,
                &self.accels[op.accel],
            );
            if let Some(&bits) = self.populated_bits.get(seen) {
                gate.check(result.cycles().to_bits() == bits, || {
                    format!(
                        "operation {seen}: the disk tier answered other cycles than were stored"
                    )
                });
            }
            seen += 1;
        });
        pass
    }

    fn layer_runs(&mut self, parallel_wall_s: f64, layers: &mut Layers) {
        if self.kind == Kind::Deep {
            // The same searches with a sequential inner budget: below 1
            // means the per-generation waves cost more than they save.
            self.jobs = 1;
            let walls: Vec<f64> = (0..3)
                .map(|_| self.pass(&mut Trace::new(false, Instant::now())).wall_s)
                .collect();
            self.jobs = 0;
            layers.insert(
                "core.pool.inner_speedup",
                crate::stats::median(&walls) / parallel_wall_s,
            );
        }
    }

    fn cache_dir(&self) -> Option<&Path> {
        self.cache_dir.as_deref()
    }
}
