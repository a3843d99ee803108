//! Full-network evaluation (paper §7.4): composing per-operator costs into
//! end-to-end network latency under each system's mapping strategy.
//!
//! Tensor operators are mapped/tuned by the system under evaluation; scalar
//! glue operators (ReLU, pooling, softmax, ...) cost the same flat amount
//! for every system.

use crate::systems::{evaluate_opts, EvalOpts, System, SystemCost, SCALAR_OP_CYCLES};
use amos_core::{fnv1a, parallel_map, shape_fingerprint, CacheStats, Engine};
use amos_hw::AcceleratorSpec;
use amos_ir::ComputeDef;
use amos_workloads::networks::Network;
use std::collections::HashMap;

/// Network evaluator sharing one [`Engine`] (and thus one structural
/// exploration cache) across every exploration the underlying systems run.
/// Entries are keyed by workload *shape* (not layer name — ResNet repeats a
/// handful of conv shapes across its blocks, and those are explored once and
/// replayed everywhere else).
///
/// Exploration is deterministic per key, so caching is purely a speedup:
/// a warm evaluation returns bit-identical costs to a cold one. The same
/// holds for [`with_jobs`](Self::with_jobs): distinct layer shapes are
/// independent searches, so exploring them concurrently changes wall-clock
/// only — costs and cache statistics match the sequential path bit for bit.
#[derive(Debug, Default)]
pub struct NetworkEvaluator {
    engine: Engine,
    jobs: usize,
    depth: usize,
}

/// Cost breakdown of one network under one system.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkCost {
    /// Total cycles across all operator instances.
    pub total_cycles: f64,
    /// Cycles spent in operators mapped to the tensor unit.
    pub tensor_cycles: f64,
    /// Cycles spent on scalar fallback and glue operators.
    pub scalar_cycles: f64,
    /// Operator instances mapped to the tensor unit.
    pub mapped_ops: usize,
    /// Total operator instances.
    pub total_ops: usize,
    /// Ground-truth simulations that failed across every exploration run for
    /// this network (counted once per distinct layer shape, not per
    /// instance). Deterministic and cache-stable.
    pub sim_failures: usize,
}

impl NetworkEvaluator {
    /// New evaluator with a cold engine.
    pub fn new() -> Self {
        Self::default()
    }

    /// New evaluator over a caller-built engine — the hook for a
    /// disk-backed exploration cache
    /// ([`Engine::with_cache`](amos_core::Engine::with_cache)).
    pub fn with_engine(engine: Engine) -> Self {
        Self {
            engine,
            ..Self::default()
        }
    }

    /// Worker-thread budget for one [`evaluate`](Self::evaluate) call: `0`
    /// means all cores, `1` forces the sequential path. When the budget
    /// exceeds one, distinct layer shapes are explored concurrently as one
    /// flat wave on the shared worker pool; results are bit-identical at
    /// any setting.
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Exploration-budget multiplier forwarded to every per-shape search
    /// (see [`EvalOpts::depth`]): `0`/`1` is the standard budget,
    /// larger values scale every search's generation count. Benchmarks use
    /// this to make cold exploration long enough to time.
    pub fn with_depth(mut self, depth: usize) -> Self {
        self.depth = depth;
        self
    }

    /// Evaluates a network end-to-end at the given batch size.
    ///
    /// Runs in three passes: collect the distinct layer shapes (ResNet
    /// repeats a handful of conv shapes across its blocks), explore each
    /// distinct shape exactly once — concurrently when the thread budget
    /// allows — then replay the per-group accounting sequentially from the
    /// per-shape costs. The replay order is the group order, so the
    /// resulting [`NetworkCost`] is independent of which lane finished
    /// first.
    pub fn evaluate(
        &mut self,
        system: System,
        net: &Network,
        batch: i64,
        accel: &AcceleratorSpec,
    ) -> NetworkCost {
        // Pass 1: distinct shapes in first-appearance order, plus each
        // group's index into them (None for scalar glue operators).
        let mut distinct: Vec<(String, ComputeDef)> = Vec::new();
        let mut fp_index: HashMap<String, usize> = HashMap::new();
        let mut group_shape: Vec<Option<usize>> = Vec::with_capacity(net.groups.len());
        for grp in &net.groups {
            group_shape.push(grp.op.compute_def(batch).map(|def| {
                let fp = shape_fingerprint(&def);
                *fp_index.entry(fp.clone()).or_insert_with(|| {
                    distinct.push((fp, def));
                    distinct.len() - 1
                })
            }));
        }

        // Pass 2: one exploration per distinct shape. The seed derives from
        // the shape fingerprint, so two groups with the same layer shape run
        // the same search and the shared cache answers the second one.
        // Distinct shapes are independent searches with disjoint cache keys,
        // so exploring them concurrently cannot race on an entry.
        let jobs = self.effective_jobs();
        let engine = &self.engine;
        let shapes = &distinct;
        let depth = self.depth;
        let lane = |inner: Option<usize>| {
            move |i: usize| {
                let (fp, def) = &shapes[i];
                evaluate_opts(
                    engine,
                    system,
                    def,
                    accel,
                    fnv1a(fp),
                    EvalOpts {
                        shape_fp: Some(fp),
                        jobs: inner,
                        depth,
                    },
                )
            }
        };
        let shape_costs: Vec<SystemCost> = if jobs > 1 && distinct.len() > 1 {
            // One flat wave over the distinct shapes: every shape is a slot
            // on the shared worker pool and each per-shape search runs with
            // a serial inner budget. (An earlier revision split the budget
            // lanes x inner, carving the pool into starved sub-pools; the
            // flat wave keeps all threads busy as long as shapes remain,
            // which is what turns network-level parallelism into an actual
            // speedup.) Per-shape searches are jobs-invariant, so forcing
            // inner = 1 cannot change any cost.
            parallel_map(jobs, distinct.len(), lane(Some(1)))
        } else {
            (0..distinct.len()).map(lane(None)).collect()
        };

        // Pass 3: sequential replay of the per-group accounting.
        let mut cost = NetworkCost {
            total_cycles: 0.0,
            tensor_cycles: 0.0,
            scalar_cycles: 0.0,
            mapped_ops: 0,
            total_ops: net.total_ops(),
            sim_failures: 0,
        };
        for (grp, shape) in net.groups.iter().zip(&group_shape) {
            match shape {
                Some(i) => {
                    let sc = shape_costs[*i];
                    let cycles = sc.cycles * grp.count as f64;
                    cost.total_cycles += cycles;
                    cost.sim_failures += sc.sim_failures;
                    if sc.mapped {
                        cost.tensor_cycles += cycles;
                        cost.mapped_ops += grp.count;
                    } else {
                        cost.scalar_cycles += cycles;
                    }
                }
                None => {
                    let cycles = SCALAR_OP_CYCLES * grp.count as f64;
                    cost.total_cycles += cycles;
                    cost.scalar_cycles += cycles;
                }
            }
        }
        cost
    }

    /// The thread budget with `0` resolved to [`amos_core::default_jobs`].
    fn effective_jobs(&self) -> usize {
        if self.jobs == 0 {
            amos_core::default_jobs()
        } else {
            self.jobs
        }
    }

    /// Hit/miss counters of the shared engine's exploration cache. Hits
    /// appear as soon as a network repeats a layer shape (or two systems
    /// tune the same frozen mapping over the same shape).
    pub fn cache_stats(&self) -> CacheStats {
        self.engine.cache_stats()
    }

    /// Speedup of `a` over `b` on a network.
    pub fn speedup(
        &mut self,
        a: System,
        b: System,
        net: &Network,
        batch: i64,
        accel: &AcceleratorSpec,
    ) -> f64 {
        let ca = self.evaluate(a, net, batch, accel);
        let cb = self.evaluate(b, net, batch, accel);
        cb.total_cycles / ca.total_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amos_hw::catalog;
    use amos_workloads::networks;

    #[test]
    fn mi_lstm_matvec_layers_map_under_amos_but_not_libraries() {
        let mut ev = NetworkEvaluator::new();
        let accel = catalog::v100();
        let net = networks::mi_lstm();
        let amos = ev.evaluate(System::Amos, &net, 1, &accel);
        let torch = ev.evaluate(System::PyTorch, &net, 1, &accel);
        assert_eq!(torch.mapped_ops, 0, "libraries fall back on matvec");
        // AMOS compiles the linear layers (on the tensor unit or scalar,
        // whichever measures faster) and avoids the eager overhead.
        assert!(amos.total_cycles < torch.total_cycles);
    }

    #[test]
    fn cost_components_add_up() {
        let mut ev = NetworkEvaluator::new();
        let accel = catalog::v100();
        let net = networks::mobilenet_v1();
        let c = ev.evaluate(System::Amos, &net, 1, &accel);
        assert!((c.tensor_cycles + c.scalar_cycles - c.total_cycles).abs() < 1e-6);
        assert_eq!(c.total_ops, 30);
        assert!(c.mapped_ops <= c.total_ops);
    }

    #[test]
    fn cache_makes_repeat_evaluation_identical() {
        let mut ev = NetworkEvaluator::new();
        let accel = catalog::v100();
        let net = networks::mi_lstm();
        let a = ev.evaluate(System::Amos, &net, 1, &accel);
        let b = ev.evaluate(System::Amos, &net, 1, &accel);
        assert_eq!(a, b);
    }

    #[test]
    fn speedup_is_reciprocal() {
        let mut ev = NetworkEvaluator::new();
        let accel = catalog::v100();
        let net = networks::mi_lstm();
        let ab = ev.speedup(System::Amos, System::PyTorch, &net, 1, &accel);
        let ba = ev.speedup(System::PyTorch, System::Amos, &net, 1, &accel);
        assert!((ab * ba - 1.0).abs() < 1e-9);
        assert!(ab > 1.0);
    }
}
