//! A thread that searches again reuses the buffers of its last search: the
//! population arena, the screening scratch and the measured memo live as
//! long as the thread, so a repeated search allocates for the candidates it
//! simulates and for its answer, never for its working set.
//!
//! A counting `#[global_allocator]` measures the second of two identical
//! searches on one thread, at the default depth and at the smallest depth
//! (one slot, no generation). Enumeration, lowering, the screening context
//! and the answer cost both the same, so the difference is what the
//! generation loop allocates. The operator has a single mapping on the
//! machine, so no refinement round runs. This file holds one test, because
//! the counter is process-wide.

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

/// Allocations a simulated candidate may cost: its schedule cloned when it
/// becomes the best (five vectors) and the amortised growth of the
/// evaluation trace. Storing it in the measured memo reuses a buffer.
const PER_SIMULATED: usize = 6;
/// Allowance for buffers that grow a last time in the deeper search.
const SLACK: usize = 16;

#[test]
fn a_repeated_search_allocates_only_for_what_it_simulates() {
    let accel = Registry::builtin().build("v100").expect("catalog v100");
    let def = ops::gmm(512, 2048, 333);
    // The second of two identical searches on this thread: its allocations
    // and how many candidates it simulated.
    let repeat = |config: ExplorerConfig| {
        let explorer = Explorer::with_config(ExplorerConfig {
            seed: 7,
            jobs: 1,
            ..config
        });
        let run = || {
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            let result = explorer.explore(&def, &accel).expect("gemm explores");
            let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
            assert_eq!(result.num_mappings, 1, "one mapping: no refinement round");
            (allocations, result.evaluations.len() + result.sim_failures)
        };
        run();
        run()
    };
    let default = ExplorerConfig::default();
    let (floor, floor_simulated) = repeat(ExplorerConfig {
        population: 1,
        generations: 0,
        ..default.clone()
    });
    let (full, simulated) = repeat(default.clone());
    let bound = PER_SIMULATED * (simulated - floor_simulated) + SLACK;
    // A population arena built per search costs five vectors a slot.
    assert!(
        bound < 5 * default.population,
        "the gate must catch a per-search arena"
    );
    let extra = full.saturating_sub(floor);
    assert!(
        extra <= bound,
        "a repeated default search ({simulated} simulated) cost {extra} allocations \
         beyond a one-slot search ({floor_simulated} simulated): {floor} -> {full}"
    );
}
