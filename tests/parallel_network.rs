//! Whole-network evaluation must be a pure function of the network and the
//! accelerator: the worker-thread budget (which decides how many distinct
//! layer shapes are explored concurrently, and with how many inner threads
//! each) may only change wall-clock, never a cost or a cache counter.

use amos::baselines::{NetworkCost, NetworkEvaluator, System};
use amos::core::CacheStats;
use amos::hw::catalog;
use amos::workloads::networks;

fn evaluate_at(jobs: usize) -> (NetworkCost, NetworkCost, CacheStats) {
    let accel = catalog::v100();
    let net = networks::mobilenet_v1();
    let mut ev = NetworkEvaluator::new().with_jobs(jobs);
    let amos = ev.evaluate(System::Amos, &net, 1, &accel);
    let torch = ev.evaluate(System::PyTorch, &net, 1, &accel);
    (amos, torch, ev.cache_stats())
}

#[test]
fn network_costs_are_jobs_invariant() {
    let (amos1, torch1, stats1) = evaluate_at(1);
    for jobs in [2, 8] {
        let (amos, torch, stats) = evaluate_at(jobs);
        assert_eq!(amos, amos1, "AMOS cost must not depend on jobs={jobs}");
        assert_eq!(torch, torch1, "PyTorch cost must not depend on jobs={jobs}");
        assert_eq!(stats, stats1, "cache stats must not depend on jobs={jobs}");
    }
}

#[test]
fn parallel_wave_and_sequential_replay_agree_with_the_cold_cache_stats() {
    // Cold evaluation explores each distinct shape exactly once, whatever
    // the lane count: every counter except `hits` is therefore fixed by the
    // network alone, and repeat evaluation converts all lookups into hits.
    let accel = catalog::v100();
    let net = networks::mobilenet_v1();
    let mut ev = NetworkEvaluator::new().with_jobs(4);
    let a = ev.evaluate(System::Amos, &net, 1, &accel);
    let misses_after_cold = ev.cache_stats().misses;
    assert!(misses_after_cold > 0, "cold evaluation must explore");
    let b = ev.evaluate(System::Amos, &net, 1, &accel);
    assert_eq!(a, b, "repeat evaluation must be answered by the cache");
    let stats = ev.cache_stats();
    assert_eq!(
        stats.misses, misses_after_cold,
        "repeat evaluation must not re-explore: {stats:?}"
    );
    assert!(stats.hits >= misses_after_cold, "{stats:?}");
}
