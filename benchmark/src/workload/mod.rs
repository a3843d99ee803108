//! The five workloads and what they share: the result of one pass, the
//! correctness gate's ledger, and the trait the runner drives.

pub mod net;
pub mod ops;
pub mod serve;

use crate::trace::Trace;
use amos_core::ExplorationResult;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Per-layer figures by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// Workload names, in the order `run` executes them.
pub const NAMES: [&str; 5] = ["op_cold", "op_deep", "net_cold", "l2_read", "serve_mixed"];

/// Layer counts that depend only on the inputs: the gate requires them to
/// repeat exactly from pass to pass.
pub const EXACT_LAYERS: [&str; 7] = [
    "core.generate.mappings",
    "core.explore.screened",
    "core.explore.survivor_memo_hits",
    "core.explore.measured_memo_hits",
    "core.explore.measurements",
    "core.explore.sim_failures",
    "core.explore.generations",
];

/// What one pass over a workload's inputs measured.
#[derive(Debug, Default)]
pub struct Pass {
    /// Wall seconds of the section `ops` were answered in.
    pub wall_s: f64,
    /// CPU milliseconds (user + system, all threads) of the timed sections.
    pub cpu_ms: f64,
    /// Operations answered in `wall_s`.
    pub ops: usize,
    /// One latency sample per answered operation of the latency section.
    pub lat_ms: Vec<f64>,
    /// Simulated cycles of the winner of every distinct operation answered,
    /// in input order; a repeated operation counts once.
    pub cycles: Vec<f64>,
    pub attempted: usize,
    /// Operations answered in all timed sections, repeats included.
    pub answered: usize,
    /// Errors, sheds, timeouts and count mismatches.
    pub failed: usize,
    /// `VmHWM` of the process when the pass ended; the runner fills it in.
    pub peak_rss_mb: f64,
    pub layers: Layers,
}

impl Pass {
    pub fn add(&mut self, layer: &'static str, amount: f64) {
        *self.layers.entry(layer).or_insert(0.0) += amount;
    }

    /// Folds one exploration's own counters into the explorer layers.
    pub fn add_exploration(&mut self, r: &ExplorationResult) {
        self.add("core.generate.mappings", r.num_mappings as f64);
        self.add("core.explore.screened", r.screening.screened as f64);
        self.add(
            "core.explore.survivor_memo_hits",
            r.screening.survivor_memo_hits as f64,
        );
        self.add(
            "core.explore.measured_memo_hits",
            r.screening.measured_memo_hits as f64,
        );
        self.add("core.explore.measurements", r.evaluations.len() as f64);
        self.add("core.explore.sim_failures", r.sim_failures as f64);
        self.add("core.explore.generations", r.generations_completed as f64);
        self.add("core.explore.screen_s", r.screening.screen_seconds);
    }

    pub fn add_cache(&mut self, stats: amos_core::CacheStats) {
        self.add("core.cache.l1_hits", stats.hits as f64);
        self.add("core.cache.l2_hits", stats.l2_hits as f64);
        self.add("core.cache.cold_misses", stats.misses as f64);
    }
}

/// Wall and CPU clocks over one timed section.
pub struct Timed {
    wall: Instant,
    cpu_ms: f64,
    validations: u64,
    pool: amos_core::PoolStats,
}

impl Timed {
    pub fn start() -> Timed {
        Timed {
            cpu_ms: crate::sys::cpu_ms(),
            validations: amos_core::validate::validation_calls(),
            pool: amos_core::pool_stats(),
            wall: Instant::now(),
        }
    }

    /// Stops the clocks into `pass`, with the process-wide counters the
    /// program exposes (Algorithm 1 calls, pool waves) over the section.
    pub fn stop(self, pass: &mut Pass) {
        pass.wall_s = self.wall.elapsed().as_secs_f64();
        pass.cpu_ms += crate::sys::cpu_ms() - self.cpu_ms;
        let pool = amos_core::pool_stats();
        pass.add(
            "core.validate.algorithm1_calls",
            (amos_core::validate::validation_calls() - self.validations) as f64,
        );
        pass.add("core.pool.waves", (pool.waves - self.pool.waves) as f64);
        pass.add("core.pool.tasks", (pool.tasks - self.pool.tasks) as f64);
        pass.add("core.pool.chunks", (pool.chunks - self.pool.chunks) as f64);
        pass.layers.insert("core.pool.threads", pool.threads as f64);
    }
}

/// The correctness gate's ledger: how many checks ran and which failed.
#[derive(Debug, Default)]
pub struct Gate {
    pub checks: usize,
    pub mismatches: Vec<String>,
}

impl Gate {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.mismatches.push(what());
        }
    }
}

/// One workload, set up and ready to be measured.
pub trait Workload {
    /// The tail percentile this workload reports, fixed so that runs of
    /// different length compare.
    fn tail(&self) -> f64;

    /// Runs every input once and measures it. With an enabled `trace` the
    /// pass goes through the staged API with a span around every call into
    /// a layer.
    fn pass(&mut self, trace: &mut Trace) -> Pass;

    /// An untimed pass whose outputs are checked against references the
    /// program under test did not produce (the timing simulator re-run on
    /// the winner, a direct `Engine`, byte equality of duplicate replies).
    /// Returns the pass, which later passes must repeat exactly.
    fn gate(&mut self, gate: &mut Gate) -> Pass;

    /// Layer figures that need runs of their own (a sequential child
    /// process, a pass without the disk tier). Only the traced run pays
    /// for them, after its timed section.
    fn layer_runs(&mut self, _parallel_wall_s: f64, _layers: &mut Layers) {}

    /// The on-disk cache tier this workload writes or reads, if any.
    fn cache_dir(&self) -> Option<&Path> {
        None
    }
}

/// Sets up workload `name` for `seed` inside the scratch directory `work`.
pub fn setup(name: &str, seed: u64, work: &Path) -> Option<Box<dyn Workload>> {
    Some(match name {
        "op_cold" => Box::new(ops::OpWorkload::op_cold(seed)),
        "op_deep" => Box::new(ops::OpWorkload::op_deep(seed)),
        "l2_read" => Box::new(ops::OpWorkload::l2_read(seed, work)),
        "net_cold" => Box::new(net::NetCold::new(work)),
        "serve_mixed" => Box::new(serve::ServeMixed::new(seed, work)),
        _ => return None,
    })
}

/// Re-runs the timing simulator on an exploration's winner, the way the
/// explorer measured it (the accelerator re-targeted at the winner's
/// intrinsic), and requires the stored report back.
pub fn check_resimulation(
    gate: &mut Gate,
    what: &str,
    result: &ExplorationResult,
    accel: &amos_hw::AcceleratorSpec,
) {
    let mut unit = accel.clone();
    unit.intrinsic = result.best_program.intrinsic().clone();
    unit.extra_intrinsics.clear();
    let again = amos_sim::simulate(&result.best_program, &result.best_schedule, &unit);
    gate.check(again.as_ref() == Ok(&result.best_report), || {
        format!("{what}: re-simulating the winner gave {again:?}, not the stored report")
    });
}

/// Shapes of the functional check, small enough for the interpreter.
const FUNCTIONAL_SHAPES: usize = 16;

/// Compiles small shapes across the operator families and requires the
/// winner's functional execution through register fragments to equal the
/// scalar `amos_ir` interpreter bit for bit. The interpreter is the
/// reference: it shares no code with mapping, lowering or the simulator.
pub fn check_functional(gate: &mut Gate, seed: u64) {
    use amos_ir::interp;
    let registry = amos_hw::Registry::builtin();
    let specs = crate::gen::small_specs(seed, FUNCTIONAL_SHAPES);
    for (i, spec) in specs.iter().enumerate() {
        let accel = registry
            .build(crate::gen::ACCELS[i % crate::gen::ACCELS.len()])
            .expect("catalog accelerator");
        let def = amos_workloads::spec::parse_spec(spec).expect("generated spec parses");
        let engine = amos_core::Engine::with_config(amos_core::ExplorerConfig {
            seed,
            jobs: 1,
            ..amos_core::ExplorerConfig::default()
        });
        let tensors = interp::make_inputs(&def, seed);
        let reference =
            interp::execute(&def, &tensors).expect("the interpreter runs its own inputs");
        let mapped = engine
            .compile(&def, &accel)
            .map_err(|e| e.to_string())
            .and_then(|explored| {
                amos_sim::execute_mapped(&explored.result().best_program, &tensors)
                    .map_err(|e| e.to_string())
            });
        let equal = mapped.as_ref().is_ok_and(|out| {
            out.shape == reference.shape
                && out
                    .data
                    .iter()
                    .zip(&reference.data)
                    .all(|(a, b)| a.to_bits() == b.to_bits())
        });
        gate.check(equal, || match &mapped {
            Ok(out) => format!(
                "{spec} on {}: the mapped program differs from the interpreter by up to {}",
                accel.name,
                out.max_abs_diff(&reference)
            ),
            Err(e) => format!("{spec} on {}: {e}", accel.name),
        });
    }
}
