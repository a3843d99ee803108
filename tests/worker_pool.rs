//! The persistent worker pool behind `parallel_map`: worker threads must be
//! spawned once and reused by every subsequent exploration, an exploration
//! must submit a wave for its refinement rounds only (never per
//! generation), a cold network evaluation must submit one flat wave over its
//! distinct layer shapes, a panicking wave must leave the pool healthy, and
//! the pooled path must preserve the bit-identical jobs-invariance contract.
//!
//! The pool is process-wide, its counters are cumulative, and a submitter
//! that finds it busy runs inline without counting a wave — so every test
//! here holds one lock for its whole body (no other test's waves can
//! interleave) and first warms the pool to the widest wave this binary ever
//! submits (jobs = 8): afterwards `PoolStats::threads` can only stay
//! constant.

use amos::baselines::{NetworkEvaluator, System};
use amos::core::{parallel_map, pool_stats, Engine, ExplorerConfig};
use amos::hw::catalog;
use amos::workloads::networks;
use amos::workloads::ops::{self, ConvShape};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, MutexGuard};

/// Widest thread budget any test in this binary uses.
const MAX_JOBS: usize = 8;

/// Takes this binary's pool lock (held until the returned guard drops) and
/// warms the process pool to its maximal width, so the thread and wave
/// counts a test observes afterwards are its own.
fn warm_pool() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    let guard = SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let out = parallel_map(MAX_JOBS, 64, |i| i);
    assert_eq!(out, (0..64).collect::<Vec<_>>());
    assert!(pool_stats().threads >= MAX_JOBS - 1);
    guard
}

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

fn conv() -> amos::ir::ComputeDef {
    ops::c2d(ConvShape {
        n: 4,
        c: 32,
        k: 32,
        p: 14,
        q: 14,
        r: 3,
        s: 3,
        stride: 1,
    })
}

#[test]
fn consecutive_explorations_reuse_the_same_worker_threads() {
    let _serial = warm_pool();
    let before = pool_stats();
    for seed in [3, 5, 9] {
        for jobs in [2, MAX_JOBS] {
            let engine = Engine::with_config(budget(seed, jobs));
            let result = engine.explore_op(&conv(), &catalog::v100());
            assert!(result.is_ok(), "exploration must succeed");
        }
    }
    let after = pool_stats();
    assert_eq!(
        after.threads, before.threads,
        "six explorations must reuse the warm pool, not spawn: {after:?}"
    );
}

#[test]
fn pool_waves_per_exploration_do_not_grow_with_generations() {
    let _serial = warm_pool();
    // v100 is one exploration unit, and the convolution has several
    // mappings: the refinement rounds are the one wave a search submits.
    let waves_at = |generations: usize| {
        let before = pool_stats().waves;
        let config = ExplorerConfig {
            generations,
            ..budget(13, 4)
        };
        Engine::with_config(config)
            .explore_op(&conv(), &catalog::v100())
            .expect("exploration succeeds");
        pool_stats().waves - before
    };
    let shallow = waves_at(3);
    let deep = waves_at(30);
    assert_eq!(
        shallow, deep,
        "waves must not scale with generations: {shallow} at 3, {deep} at 30"
    );
    assert_eq!(deep, 1, "one wave per unit: the refinement rounds");
}

#[test]
fn a_cold_network_evaluation_is_one_pool_wave_over_its_distinct_shapes() {
    let _serial = warm_pool();
    // Every distinct layer shape is one slot of a single wave, and each
    // per-shape search runs serially inside it (nested waves run inline), so
    // the counts hold on any core count.
    let mut ev = NetworkEvaluator::new().with_jobs(4);
    let before = pool_stats();
    ev.evaluate(System::Amos, &networks::mobilenet_v1(), 1, &catalog::v100());
    let after = pool_stats();
    let distinct_shapes = ev.cache_stats().misses as u64;
    assert!(distinct_shapes > 1, "MobileNet-V1 has several layer shapes");
    assert_eq!(after.waves - before.waves, 1, "one wave per network");
    assert_eq!(
        after.tasks - before.tasks,
        distinct_shapes,
        "one pool task per distinct layer shape"
    );
}

#[test]
fn engine_surfaces_the_process_pool_counters() {
    let _serial = warm_pool();
    let engine = Engine::with_config(budget(11, 4));
    engine
        .explore_op(&conv(), &catalog::v100())
        .expect("exploration succeeds");
    let via_engine = engine.pool_stats();
    assert!(via_engine.threads >= MAX_JOBS - 1);
    assert!(via_engine.waves > 0);
    // Engine::pool_stats is a snapshot of the same process-wide counters.
    let direct = pool_stats();
    assert!(direct.waves >= via_engine.waves);
}

#[test]
fn panicking_wave_leaves_the_pool_usable_for_the_next_exploration() {
    let _serial = warm_pool();
    let caught = amos::sim::isolate::quiet_panics(|| {
        catch_unwind(AssertUnwindSafe(|| {
            parallel_map(4, 64, |i| {
                if i == 9 {
                    panic!("injected wave failure {i}");
                }
                i
            })
        }))
    });
    let payload = caught.expect_err("the wave panic must propagate");
    assert_eq!(
        amos::sim::isolate::payload_text(payload.as_ref()),
        "injected wave failure 9"
    );

    // The same pool (same threads) must serve a full exploration next.
    let threads = pool_stats().threads;
    let serial = Engine::with_config(budget(21, 1))
        .explore_op(&conv(), &catalog::v100())
        .expect("serial exploration succeeds");
    let pooled = Engine::with_config(budget(21, 4))
        .explore_op(&conv(), &catalog::v100())
        .expect("pooled exploration succeeds after the panic");
    assert_eq!(serial.cycles(), pooled.cycles());
    assert_eq!(serial.evaluations, pooled.evaluations);
    assert_eq!(
        pool_stats().threads,
        threads,
        "recovery must not respawn workers"
    );
}

#[test]
fn pooled_explorations_are_bit_identical_at_every_width() {
    let _serial = warm_pool();
    let accel = catalog::v100();
    let def = conv();
    let mut reference = None;
    for jobs in [1, 2, 4, MAX_JOBS] {
        let engine = Engine::with_config(budget(77, jobs));
        let result = engine
            .explore_op(&def, &accel)
            .expect("exploration succeeds");
        let stats = engine.cache_stats();
        let snapshot = (
            result.best_mapping.clone(),
            result.best_schedule.clone(),
            result.cycles().to_bits(),
            result.evaluations.clone(),
            result.sim_failures,
            result.screening.screened,
            result.screening.survivor_memo_hits,
            result.screening.measured_memo_hits,
            result.quarantine.clone(),
            result.completion,
            result.generations_completed,
            stats,
        );
        match &reference {
            None => reference = Some(snapshot),
            Some(first) => assert_eq!(
                first, &snapshot,
                "results and counters must be bit-identical at jobs={jobs}"
            ),
        }
    }
}
