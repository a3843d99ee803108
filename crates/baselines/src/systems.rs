//! Modeled baseline systems: the libraries and compilers AMOS is compared
//! against in §7 (PyTorch/cuDNN, XLA, AutoTVM, Ansor, UNIT, TVM templates,
//! AKG), each reduced to its mapping strategy per DESIGN.md §2:
//!
//! * libraries and template compilers use **one fixed mapping** when their
//!   pattern applies and fall back to the **scalar units** otherwise;
//! * schedule quality differs: tuning compilers search schedules (with the
//!   same tuner AMOS uses, mapping frozen — the §7.6 ablation protocol),
//!   libraries ship a single well-chosen heuristic schedule.

use crate::fixed::{fixed_mapping, FixedKind};
use crate::matcher::TemplateMatcher;
use amos_core::{Engine, ExplorerConfig};
use amos_hw::AcceleratorSpec;
use amos_ir::{ComputeDef, OpKind, TensorRole};
use amos_sim::{scalar_fallback_cycles, simulate, Schedule};

/// Fixed cost charged to every scalar/elementwise network op (ReLU, pooling,
/// softmax, ...) for all systems alike.
pub const SCALAR_OP_CYCLES: f64 = 5_000.0;

/// Extra per-operator cost of the eager library path (kernel launch,
/// dispatcher and framework overheads) paid when PyTorch/cuDNN fall back to
/// their generic scalar kernels. Compiled baselines do not pay it. This is
/// the dominant batch-1 effect behind the paper's large speedups on
/// operators libraries do not cover.
pub const EAGER_OVERHEAD_CYCLES: f64 = 20_000.0;

/// The evaluated systems.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum System {
    /// AMOS: full joint mapping + schedule exploration.
    Amos,
    /// PyTorch dispatching to cuDNN/cuBLAS kernels.
    PyTorch,
    /// cuDNN called directly (Figure 6c reference).
    CuDnn,
    /// AutoTVM with its stock (NHWC-only) tensor-core templates.
    AutoTvm,
    /// AutoTVM with a hand-added NCHW expert template (§7.3).
    AutoTvmExpert,
    /// Ansor: no tensor-core generation rules, excellent scalar tuning.
    Ansor,
    /// UNIT: fixed fuse-height-width template.
    Unit,
    /// TVM with hand-written expert templates (CPU VNNI / Figure 7e).
    Tvm,
    /// AKG: polyhedral; recognises only window-free patterns.
    Akg,
}

impl System {
    /// Display name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            System::Amos => "AMOS",
            System::PyTorch => "PyTorch",
            System::CuDnn => "CuDNN",
            System::AutoTvm => "AutoTVM",
            System::AutoTvmExpert => "AutoTVM-Expert",
            System::Ansor => "Ansor",
            System::Unit => "UNIT",
            System::Tvm => "TVM",
            System::Akg => "AKG",
        }
    }
}

/// Cost of running one operator under one system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemCost {
    /// Simulated cycles.
    pub cycles: f64,
    /// Whether the operator ran on the spatial (tensor) unit.
    pub mapped: bool,
    /// Ground-truth simulations that failed during the exploration that
    /// produced this cost (0 for library kernels and scalar fallbacks).
    pub sim_failures: usize,
}

/// True when a hand-tuned library ships a tensor-unit kernel for this
/// operator: standard dense GEMM/batched-GEMM and plain (possibly strided,
/// dilated or transposed) convolutions. Grouped/depthwise/per-sample-weight
/// variants (an iteration touching all three tensors), constant-operand
/// reductions (mean/variance/scan) and exotic ranks fall back to scalar
/// units — the behaviour Table 2 and Figure 6 document.
pub fn library_tensor_supported(def: &ComputeDef) -> bool {
    if def.op() != OpKind::MulAcc || def.inputs().len() != 2 {
        return false;
    }
    if def.tensors().iter().any(|t| t.role == TensorRole::Constant) {
        return false;
    }
    let n = def.iters().len();
    if !(3..=9).contains(&n) {
        return false;
    }
    let x = def.access_matrix();
    for s in 0..n {
        if (0..x.rows()).all(|r| x[(r, s)]) {
            return false; // grouped/depthwise/batched-weight family
        }
    }
    def.iters().iter().any(|v| v.is_reduction())
}

/// Scalar-path efficiency factor per system (achieved fraction of the
/// fallback model's throughput).
fn scalar_factor(system: System) -> f64 {
    match system {
        System::Ansor => 1.0, // best-tuned CUDA-core code
        System::Tvm => 1.05,
        System::AutoTvm | System::AutoTvmExpert | System::Unit | System::Akg => 1.1,
        System::PyTorch | System::CuDnn => 1.2, // eager kernel overheads
        System::Amos => 1.0,
    }
}

fn scalar_cost(system: System, def: &ComputeDef, accel: &AcceleratorSpec) -> SystemCost {
    SystemCost {
        cycles: scalar_fallback_cycles(def, accel) * scalar_factor(system),
        mapped: false,
        sim_failures: 0,
    }
}

/// Exploration budget used for tuning systems; small but sufficient for the
/// simulator-based ground truth.
pub fn tuning_budget(seed: u64) -> ExplorerConfig {
    ExplorerConfig {
        population: 16,
        generations: 4,
        survivors: 4,
        measure_top: 3,
        seed,
        jobs: 0,
        ..Default::default()
    }
}

fn explore_fixed(
    engine: &Engine,
    def: &ComputeDef,
    accel: &AcceleratorSpec,
    kind: FixedKind,
    seed: u64,
    opts: EvalOpts<'_>,
) -> Option<SystemCost> {
    let mapping = fixed_mapping(def, &accel.intrinsic, kind)?;
    let mut config = tuning_budget(seed);
    if let Some(jobs) = opts.jobs {
        config.jobs = jobs;
    }
    config.generations *= opts.depth.max(1);
    // The fixed kind keys the cache entry: Im2col and FuseHw freeze
    // different mappings over the same shape.
    engine
        .explore_fixed_shaped(
            &format!("fixed:{kind:?}"),
            config,
            def,
            accel,
            vec![mapping],
            opts.shape_fp,
        )
        .ok()
        .map(|r| SystemCost {
            cycles: r.cycles(),
            mapped: true,
            sim_failures: r.sim_failures,
        })
}

fn library_kernel(def: &ComputeDef, accel: &AcceleratorSpec) -> Option<SystemCost> {
    if !library_tensor_supported(def) {
        return None;
    }
    let mapping = fixed_mapping(def, &accel.intrinsic, FixedKind::Im2col)?;
    let prog = mapping.lower(def, &accel.intrinsic).ok()?;
    let schedule = Schedule::balanced(&prog, accel);
    simulate(&prog, &schedule, accel).ok().map(|r| SystemCost {
        cycles: r.cycles,
        mapped: true,
        sim_failures: 0,
    })
}

/// True when AKG's polyhedral pattern recognition maps the operator: it
/// handles window-free tensor contractions only (GEMM, 1x1 convolutions —
/// every compound index expression must slide over at most one non-unit
/// iteration).
pub fn akg_supported(def: &ComputeDef) -> bool {
    if !library_tensor_supported(def) {
        return false;
    }
    def.all_accesses().iter().all(|acc| {
        acc.indices.iter().all(|e| {
            let live = e
                .vars()
                .into_iter()
                .filter(|v| def.iter_var(*v).extent > 1)
                .count();
            live <= 1
        })
    })
}

/// Evaluates an operator under a system on an accelerator, through a
/// throwaway [`Engine`]. Results are deterministic, so this equals
/// [`evaluate_with`] on a cold engine.
pub fn evaluate(
    system: System,
    def: &ComputeDef,
    accel: &AcceleratorSpec,
    seed: u64,
) -> SystemCost {
    evaluate_with(&Engine::new(), system, def, accel, seed)
}

/// [`evaluate`] through a shared [`Engine`]: every exploration run (AMOS's
/// full search and the baselines' frozen-mapping tuning alike) is memoised
/// in the engine's cache by workload shape, so network sweeps with repeated
/// layer shapes pay for each distinct shape once.
pub fn evaluate_with(
    engine: &Engine,
    system: System,
    def: &ComputeDef,
    accel: &AcceleratorSpec,
    seed: u64,
) -> SystemCost {
    evaluate_opts(engine, system, def, accel, seed, EvalOpts::default())
}

/// Per-call knobs of [`evaluate_opts`], all defaulting to the
/// [`evaluate_with`] behaviour.
#[derive(Debug, Clone, Copy, Default)]
pub struct EvalOpts<'a> {
    /// Precomputed `amos_core::shape_fingerprint(def)`, reused for the
    /// cache keys instead of being recomputed per lookup. **Must** match
    /// `def` when given.
    pub shape_fp: Option<&'a str>,
    /// Worker-thread count for the explorations this evaluation runs
    /// (`Some(1)` forces serial). `None` uses each config's default (all
    /// cores). Exploration results are bit-identical at any thread count,
    /// so this only affects wall-clock — network evaluation uses it to
    /// explore distinct layer shapes concurrently with serial inner
    /// searches.
    pub jobs: Option<usize>,
    /// Exploration-budget multiplier: the generation count of every search
    /// this evaluation runs (AMOS's full search and the baselines'
    /// frozen-mapping tuning alike) is scaled by `depth.max(1)`. `0` and
    /// `1` are the standard budget; benchmarks raise it to make cold
    /// exploration long enough to measure (the `net_cold` workload of
    /// `benchmark/`). Results stay
    /// deterministic per depth, and depth changes the cache fingerprint
    /// (the generation count is part of it), so different depths never
    /// answer each other's lookups.
    pub depth: usize,
}

/// [`evaluate_with`] with every per-call knob explicit: a precomputed shape
/// fingerprint, a worker-thread override and a search depth.
pub fn evaluate_opts(
    engine: &Engine,
    system: System,
    def: &ComputeDef,
    accel: &AcceleratorSpec,
    seed: u64,
    opts: EvalOpts<'_>,
) -> SystemCost {
    match system {
        System::Amos => {
            // AMOS searches the full mapping space (every unit of a
            // heterogeneous device), so it gets a deeper budget than the
            // frozen-mapping baselines — mirroring the paper's setup where
            // AMOS tunes thousands of trials.
            let config = ExplorerConfig {
                population: 32,
                generations: 8 * opts.depth.max(1),
                survivors: 8,
                measure_top: 6,
                seed,
                jobs: opts.jobs.unwrap_or(0),
                ..Default::default()
            };
            // AMOS measures candidates on the ground truth, so it also knows
            // when the scalar units beat the best tensor mapping (e.g. tiny
            // depthwise layers whose padded lanes waste the tensor unit) and
            // keeps the faster backend.
            let scalar = scalar_cost(system, def, accel);
            let result = engine.explore_op_shaped(config, def, accel, opts.shape_fp);
            match result {
                Ok(r) if r.cycles() <= scalar.cycles => SystemCost {
                    cycles: r.cycles(),
                    mapped: true,
                    sim_failures: r.sim_failures,
                },
                // The exploration still ran (and may have hit infeasible
                // candidates) even when the scalar backend wins.
                Ok(r) => SystemCost {
                    sim_failures: r.sim_failures,
                    ..scalar
                },
                Err(_) => scalar,
            }
        }
        System::PyTorch | System::CuDnn => library_kernel(def, accel).unwrap_or_else(|| {
            let mut c = scalar_cost(system, def, accel);
            c.cycles += EAGER_OVERHEAD_CYCLES;
            c
        }),
        System::AutoTvm => {
            // Stock templates: NHWC convolutions and GEMM only.
            let matcher = TemplateMatcher::new();
            if matcher.matches(def) {
                explore_fixed(engine, def, accel, FixedKind::Im2col, seed, opts)
                    .unwrap_or_else(|| scalar_cost(system, def, accel))
            } else {
                scalar_cost(system, def, accel)
            }
        }
        System::AutoTvmExpert | System::Tvm => {
            // Expert template: the library pattern set, fixed im2col mapping,
            // full schedule tuning.
            if library_tensor_supported(def) {
                explore_fixed(engine, def, accel, FixedKind::Im2col, seed, opts)
                    .unwrap_or_else(|| scalar_cost(system, def, accel))
            } else {
                scalar_cost(system, def, accel)
            }
        }
        System::Ansor => scalar_cost(system, def, accel),
        System::Unit => {
            if library_tensor_supported(def) {
                explore_fixed(engine, def, accel, FixedKind::FuseHw, seed, opts)
                    .unwrap_or_else(|| scalar_cost(system, def, accel))
            } else {
                scalar_cost(system, def, accel)
            }
        }
        System::Akg => {
            if akg_supported(def) {
                explore_fixed(engine, def, accel, FixedKind::Im2col, seed, opts)
                    .unwrap_or_else(|| scalar_cost(system, def, accel))
            } else {
                scalar_cost(system, def, accel)
            }
        }
    }
}

/// Geometric mean of a slice of positive ratios.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use amos_hw::catalog;
    use amos_workloads::ops::{self, ConvShape};

    fn c2d_small() -> ComputeDef {
        ops::c2d(ConvShape {
            n: 1,
            c: 64,
            k: 64,
            p: 28,
            q: 28,
            r: 3,
            s: 3,
            stride: 1,
        })
    }

    #[test]
    fn library_support_classification() {
        assert!(library_tensor_supported(&ops::gmm(64, 64, 64)));
        assert!(library_tensor_supported(&c2d_small()));
        assert!(library_tensor_supported(&ops::c3d(
            1, 8, 8, 4, 6, 6, 3, 3, 3
        )));
        // Grouped/depthwise/batched-weight/constant-operand families do not
        // get tensor-unit library kernels.
        assert!(!library_tensor_supported(&ops::dep(1, 32, 14, 14, 3, 3)));
        assert!(!library_tensor_supported(&ops::grp(1, 4, 8, 8, 7, 7, 3, 3)));
        assert!(!library_tensor_supported(&ops::bcv(4, 8, 8, 7, 7, 3, 3)));
        assert!(!library_tensor_supported(&ops::gfc(8, 4, 16, 16)));
        assert!(!library_tensor_supported(&ops::men(64, 64)));
        assert!(!library_tensor_supported(&ops::scn(32, 32)));
        assert!(!library_tensor_supported(&ops::gmv(64, 64)));
    }

    #[test]
    fn akg_maps_only_window_free_patterns() {
        assert!(akg_supported(&ops::gmm(64, 64, 64)));
        let onebyone = ops::c2d(ConvShape {
            n: 1,
            c: 64,
            k: 64,
            p: 28,
            q: 28,
            r: 1,
            s: 1,
            stride: 1,
        });
        assert!(akg_supported(&onebyone));
        assert!(!akg_supported(&c2d_small()));
    }

    #[test]
    fn amos_beats_the_scalar_fallback_on_depthwise() {
        // The ShuffleNet/MobileNet story: libraries fall back to scalar
        // units on depthwise convolution, AMOS maps it.
        let def = ops::dep(1, 128, 28, 28, 3, 3);
        let accel = catalog::v100();
        let amos = evaluate(System::Amos, &def, &accel, 1);
        let pytorch = evaluate(System::PyTorch, &def, &accel, 1);
        assert!(!pytorch.mapped);
        // AMOS picks the faster backend (tensor mapping or compiled scalar);
        // either way it avoids the eager library overhead and wins.
        assert!(
            amos.cycles < pytorch.cycles,
            "AMOS {} vs PyTorch {}",
            amos.cycles,
            pytorch.cycles
        );
    }

    #[test]
    fn amos_is_at_least_competitive_on_gemm() {
        let def = ops::gmm(1024, 1024, 1024);
        let accel = catalog::a100();
        let amos = evaluate(System::Amos, &def, &accel, 2);
        let lib = evaluate(System::PyTorch, &def, &accel, 2);
        assert!(amos.mapped && lib.mapped);
        // Libraries are excellent at GEMM; AMOS should be within ~2x either
        // direction (the paper reports 0.91x-1.1x).
        let ratio = lib.cycles / amos.cycles;
        assert!(ratio > 0.5 && ratio < 4.0, "ratio {ratio}");
    }

    #[test]
    fn unit_is_slower_than_amos_on_batched_conv2d() {
        // UNIT ignores the batch dimension -> low parallelism (Figure 6c).
        let def = ops::c2d(ConvShape {
            n: 16,
            c: 64,
            k: 64,
            p: 14,
            q: 14,
            r: 3,
            s: 3,
            stride: 1,
        });
        let accel = catalog::a100();
        let amos = evaluate(System::Amos, &def, &accel, 3);
        let unit = evaluate(System::Unit, &def, &accel, 3);
        assert!(amos.cycles <= unit.cycles);
    }

    #[test]
    fn geomean_behaviour() {
        assert_eq!(geomean(&[]), 1.0);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[3.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn system_names() {
        assert_eq!(System::Amos.name(), "AMOS");
        assert_eq!(System::AutoTvmExpert.name(), "AutoTVM-Expert");
    }
}
