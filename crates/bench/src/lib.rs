//! # amos-bench — shared harness utilities for the table/figure benchmarks
//!
//! Every bench target regenerates one table or figure of the AMOS paper:
//! it prints the rows (paper values quoted alongside) and then lets
//! criterion time a representative kernel of the experiment. Run all of
//! them with `cargo bench --workspace`.

#![warn(missing_docs)]

use amos_baselines::{evaluate_with, System, SystemCost};
use amos_core::{CacheStats, Engine};
use amos_hw::AcceleratorSpec;
use amos_ir::ComputeDef;
use std::collections::HashMap;

/// Evaluation cache: a label-keyed memo of final costs, backed by one shared
/// [`Engine`] (and its structural exploration cache) so that the same
/// operator shape appearing under several labels (or several tables) is
/// explored once; this keeps the whole suite fast and deterministic.
#[derive(Debug, Default)]
pub struct EvalCache {
    entries: HashMap<(System, String, String), SystemCost>,
    engine: Engine,
}

impl EvalCache {
    /// Empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Evaluates through the cache.
    pub fn eval(
        &mut self,
        system: System,
        key: &str,
        def: &ComputeDef,
        accel: &AcceleratorSpec,
    ) -> SystemCost {
        let k = (system, key.to_string(), accel.name.clone());
        if let Some(c) = self.entries.get(&k) {
            return *c;
        }
        let cost = evaluate_with(&self.engine, system, def, accel, stable_seed(key));
        self.entries.insert(k, cost);
        cost
    }

    /// Hit/miss counters of the underlying engine's exploration cache.
    pub fn explore_stats(&self) -> CacheStats {
        self.engine.cache_stats()
    }
}

/// Deterministic seed per workload label so reruns are reproducible
/// (the workspace's shared FNV-1a hash).
pub fn stable_seed(key: &str) -> u64 {
    amos_core::fnv1a(key)
}

/// Prints a header line for a reproduced table/figure.
pub fn banner(title: &str) {
    println!();
    println!("================================================================");
    println!("{title}");
    println!("================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;
    use amos_hw::catalog;
    use amos_workloads::networks;

    #[test]
    fn stable_seed_is_deterministic_and_distinct() {
        assert_eq!(stable_seed("a"), stable_seed("a"));
        assert_ne!(stable_seed("a"), stable_seed("b"));
    }

    #[test]
    fn cache_hits_return_identical_costs() {
        let mut cache = EvalCache::new();
        let def = amos_workloads::ops::gmm(64, 64, 64);
        let accel = catalog::v100();
        let a = cache.eval(System::PyTorch, "gemm64", &def, &accel);
        let b = cache.eval(System::PyTorch, "gemm64", &def, &accel);
        assert_eq!(a, b);
    }

    #[test]
    fn network_evaluator_reports_positive_cost() {
        let mut ev = amos_baselines::NetworkEvaluator::new();
        let accel = catalog::v100();
        let net = networks::mi_lstm();
        let c = ev.evaluate(System::PyTorch, &net, 1, &accel);
        assert!(c.total_cycles > 0.0);
    }
}
