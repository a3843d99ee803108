//! Regression tests for the parallel exploration engine: thread count must
//! never change the search outcome, and the engine's structural exploration
//! cache must answer repeated layer shapes with bit-identical results.
//!
//! Everything runs through the staged [`Engine`] front door — no caller
//! constructs or threads an exploration cache by hand.

use amos::core::{Engine, ExplorerConfig};
use amos::hw::catalog;
use amos::workloads::ops::{self, ConvShape};

fn budget(seed: u64, jobs: usize) -> ExplorerConfig {
    ExplorerConfig {
        population: 12,
        generations: 3,
        survivors: 4,
        measure_top: 3,
        seed,
        jobs,
        ..Default::default()
    }
}

/// Same seed, different thread counts: best mapping, best schedule, measured
/// cycles and even the raw (predicted, measured) trace must be identical at
/// every pooled width, not just one. `rounds` is the number of refinement
/// rounds the operator must go through — the part of a search that runs as
/// a pool wave and is merged back in round order.
fn assert_jobs_invariant(def: &amos::ir::ComputeDef, seed: u64, rounds: usize) {
    let serial = Engine::with_config(budget(seed, 1))
        .explore_op(def, &catalog::v100())
        .expect("serial exploration succeeds");
    assert!(serial.screening.screened > 0, "screening must have run");
    assert_eq!(
        serial.generations_completed,
        (1 + rounds) * budget(seed, 1).generations,
        "the joint search and every round run to full depth"
    );
    for jobs in [2, 4, 8] {
        let parallel = Engine::with_config(budget(seed, jobs))
            .explore_op(def, &catalog::v100())
            .expect("parallel exploration succeeds");
        assert_eq!(
            serial.best_mapping, parallel.best_mapping,
            "winning mapping differs between jobs=1 and jobs={jobs}"
        );
        assert_eq!(
            serial.best_schedule, parallel.best_schedule,
            "winning schedule differs between jobs=1 and jobs={jobs}"
        );
        assert_eq!(
            serial.cycles(),
            parallel.cycles(),
            "measured cycles differ between jobs=1 and jobs={jobs}"
        );
        assert_eq!(
            serial.evaluations, parallel.evaluations,
            "ground-truth evaluation trace differs between jobs=1 and jobs={jobs}"
        );
        assert_eq!(serial.num_mappings, parallel.num_mappings);
        assert_eq!(
            serial.sim_failures, parallel.sim_failures,
            "infeasible-simulation count differs between jobs=1 and jobs={jobs}"
        );
        // The screening counters are part of the determinism contract too —
        // every field except the wall-clock `screen_seconds`.
        assert_eq!(
            serial.screening.screened, parallel.screening.screened,
            "screened-candidate count differs between jobs=1 and jobs={jobs}"
        );
        assert_eq!(
            serial.screening.survivor_memo_hits, parallel.screening.survivor_memo_hits,
            "survivor memo hits differ between jobs=1 and jobs={jobs}"
        );
        assert_eq!(
            serial.screening.measured_memo_hits, parallel.screening.measured_memo_hits,
            "measured memo hits differ between jobs=1 and jobs={jobs}"
        );
        assert_eq!(
            serial.generations_completed, parallel.generations_completed,
            "generation count differs between jobs=1 and jobs={jobs}"
        );
        assert_eq!(serial.completion, parallel.completion);
        assert_eq!(serial.quarantine, parallel.quarantine);
    }
}

#[test]
fn gemm_search_is_identical_across_thread_counts() {
    // One valid mapping onto Tensor Core (paper Table 6): no refinement.
    assert_jobs_invariant(&ops::gmm(256, 256, 256), 42, 0);
}

#[test]
fn conv_search_is_identical_across_thread_counts() {
    let def = ops::c2d(ConvShape {
        n: 8,
        c: 64,
        k: 64,
        p: 14,
        q: 14,
        r: 3,
        s: 3,
        stride: 1,
    });
    // Many mappings: the three-round refinement wave runs.
    assert_jobs_invariant(&def, 1234, 3);
}

/// Everything a search reports that is deterministic, with cycles as bits.
fn answer(result: &amos::core::ExplorationResult) -> impl PartialEq + std::fmt::Debug {
    let trace: Vec<(u64, u64)> = result
        .evaluations
        .iter()
        .map(|(p, m)| (p.to_bits(), m.to_bits()))
        .collect();
    let s = &result.screening;
    (
        result.cycles().to_bits(),
        result.best_schedule.clone(),
        result.best_mapping.clone(),
        trace,
        result.num_mappings,
        result.sim_failures,
        (s.screened, s.survivor_memo_hits, s.measured_memo_hits),
        result.generations_completed,
        result.completion,
    )
}

/// The explorer keeps its working buffers per thread. A deeper search with
/// a larger population and measured set, run on the thread in between, must
/// leave nothing that a later search reads: the second answer for A equals
/// the answer for A on a thread that never searched.
#[test]
fn a_search_answers_as_on_a_fresh_thread_whatever_its_thread_searched_before() {
    let a = ops::c2d(ConvShape {
        n: 8,
        c: 64,
        k: 64,
        p: 14,
        q: 14,
        r: 3,
        s: 3,
        stride: 1,
    });
    let b = ops::c2d(ConvShape {
        n: 16,
        c: 128,
        k: 128,
        p: 28,
        q: 28,
        r: 3,
        s: 3,
        stride: 1,
    });
    let deeper = ExplorerConfig {
        population: 40,
        generations: 10,
        survivors: 8,
        measure_top: 6,
        ..budget(99, 1)
    };
    // A fresh engine per search: no cache tier answers a repeat.
    let explore = |config: ExplorerConfig, def: &amos::ir::ComputeDef| {
        Engine::with_config(config)
            .explore_op(def, &catalog::v100())
            .expect("explores")
    };
    let fresh = {
        let a = a.clone();
        std::thread::spawn(move || answer(&explore(budget(77, 1), &a)))
            .join()
            .expect("fresh thread")
    };
    let first = explore(budget(77, 1), &a);
    let between = explore(deeper, &b);
    assert!(
        between.evaluations.len() > first.evaluations.len()
            && between.generations_completed > first.generations_completed,
        "the search in between must be the larger one"
    );
    let again = explore(budget(77, 1), &a);
    assert_eq!(answer(&first), fresh);
    assert_eq!(answer(&again), fresh);
}

#[test]
fn repeated_resnet_shapes_hit_the_cache_with_identical_cycles() {
    // A ResNet-style layer list: the same residual-block shapes recur many
    // times through the network (here 8 layers over 3 distinct shapes).
    let block = |c, k, p, r, stride| ConvShape {
        n: 8,
        c,
        k,
        p,
        q: p,
        r,
        s: r,
        stride,
    };
    let layers = [
        block(64, 64, 28, 3, 1),
        block(64, 128, 14, 3, 2),
        block(64, 64, 28, 3, 1),
        block(128, 128, 14, 3, 1),
        block(64, 64, 28, 3, 1),
        block(128, 128, 14, 3, 1),
        block(64, 128, 14, 3, 2),
        block(64, 64, 28, 3, 1),
    ];

    let accel = catalog::a100();

    // Cold pass: a fresh engine per layer, so nothing is shared.
    let cold: Vec<f64> = layers
        .iter()
        .map(|&sh| {
            let def = ops::c2d(sh);
            Engine::with_config(budget(7, 0))
                .explore_op(&def, &accel)
                .expect("cold explore")
                .cycles()
        })
        .collect();

    // Warm pass over the same list through one shared engine: only the 3
    // distinct shapes miss its cache.
    let engine = Engine::with_config(budget(7, 0));
    let cached: Vec<f64> = layers
        .iter()
        .map(|&sh| {
            let def = ops::c2d(sh);
            engine
                .explore_op(&def, &accel)
                .expect("cached explore")
                .cycles()
        })
        .collect();

    let stats = engine.cache_stats();
    assert_eq!(stats.misses, 3, "one miss per distinct shape");
    assert_eq!(stats.hits, layers.len() - 3, "every repeat must hit");
    assert!(stats.hits > 0);
    // The memo holds one entry per distinct request and nothing else.
    assert_eq!(engine.cache_len(), 3, "one entry per distinct shape");
    assert_eq!(
        cold, cached,
        "cached per-layer cycles must equal the cold run"
    );
}
