//! The generation loop allocates for candidates it newly simulates and for
//! nothing else: a measured-memo probe, a ranking, a bred child and a
//! screened chunk all run in buffers the search already owns.
//!
//! A counting `#[global_allocator]` compares two searches of one shape that
//! differ only in depth. The deeper one ranks and probes seven times as
//! often, and nearly all of its probes are memo hits; the allocations it adds
//! must be explained by the candidates it newly simulates (each stores its
//! schedule in the memo and in the evaluation trace, and may become the
//! best). The operator has a single mapping on the machine, so no screening
//! context is built after generation 0 and no refinement round runs: what is
//! counted is the loop itself. This file holds one test, because the counter
//! is process-wide.

use amos::core::{Explorer, ExplorerConfig};
use amos::hw::Registry;
use amos::workloads::ops;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a relaxed statistic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's contract is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as `dealloc`; the caller's contract is `System.realloc`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations a newly simulated candidate may cost: its schedule cloned into
/// the memo (five vectors), the same again when it becomes the best, and the
/// amortised growth of the memo and the evaluation trace.
const PER_SIMULATED: usize = 12;
/// Allowance for buffers that grow a last time in the deeper run.
const SLACK: usize = 16;

#[test]
fn deeper_searches_allocate_only_for_newly_simulated_candidates() {
    let accel = Registry::builtin().build("v100").expect("catalog v100");
    let def = ops::gmm(512, 2048, 333);
    let run = |generations: usize| {
        let explorer = Explorer::with_config(ExplorerConfig {
            generations,
            seed: 7,
            jobs: 1,
            ..ExplorerConfig::default()
        });
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let result = explorer.explore(&def, &accel).expect("gemm explores");
        let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
        assert_eq!(result.num_mappings, 1, "one mapping: no refinement round");
        let simulated = result.evaluations.len() + result.sim_failures;
        (allocations, simulated, result.screening.measured_memo_hits)
    };
    // Lazy one-time set-up (panic hook, SIMD detection) happens here.
    run(1);
    let (shallow_allocs, shallow_simulated, shallow_hits) = run(8);
    let (deep_allocs, deep_simulated, deep_hits) = run(64);

    let newly_simulated = deep_simulated - shallow_simulated;
    let extra_hits = deep_hits - shallow_hits;
    assert!(
        extra_hits >= 100 && extra_hits > 2 * newly_simulated,
        "the deeper run must be dominated by memo hits: {extra_hits} hits, \
         {newly_simulated} simulations"
    );
    let extra = deep_allocs.saturating_sub(shallow_allocs);
    assert!(
        extra <= PER_SIMULATED * newly_simulated + SLACK,
        "56 more generations ({extra_hits} more memo hits, {newly_simulated} more simulations) \
         cost {extra} allocations ({shallow_allocs} -> {deep_allocs})"
    );
}
