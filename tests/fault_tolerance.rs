//! Fault-tolerance contract of the explorer: budget truncation is a
//! deterministic prefix of the unlimited run that a repeated request
//! reproduces, every [`Completion`] variant is reachable and carries a
//! usable best-so-far, and (with the `fault-injection` feature) panicking
//! candidates are quarantined without poisoning the surviving search.

use amos::core::{Budget, Completion, Engine, ExploreError, Explorer, ExplorerConfig};
use amos::hw::catalog;
use amos::workloads::ops;
use proptest::prelude::*;
use std::sync::OnceLock;

/// A single-mapping GEMM (paper Table 6: one valid mapping onto Tensor
/// Core), so the whole run is one exploration round with no fallback sweep.
fn gemm() -> amos::ir::ComputeDef {
    ops::gmm(64, 64, 64)
}

fn config(budget: Budget) -> ExplorerConfig {
    ExplorerConfig {
        population: 8,
        generations: 4,
        survivors: 3,
        measure_top: 2,
        seed: 7,
        jobs: 1,
        budget,
        ..Default::default()
    }
}

fn explore(budget: Budget) -> amos::core::ExplorationResult {
    Explorer::with_config(config(budget))
        .explore(&gemm(), &catalog::v100())
        .expect("exploration succeeds")
}

/// The unlimited run's ground-truth trace, computed once.
fn full_trace() -> &'static Vec<(f64, f64)> {
    static FULL: OnceLock<Vec<(f64, f64)>> = OnceLock::new();
    FULL.get_or_init(|| {
        let result = explore(Budget::default());
        assert_eq!(result.completion, Completion::Finished);
        result.evaluations
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Counter-based truncation is bit-deterministic: for every evaluation
    // limit, the truncated run's ground-truth trace is an exact prefix of
    // the unlimited run's, and a truncated completion is reported iff the
    // trace was actually cut short.
    #[test]
    fn truncated_runs_are_prefixes_of_the_full_run(limit in 1usize..200) {
        let full = full_trace();
        let truncated = explore(Budget {
            max_evaluations: Some(limit),
            ..Budget::default()
        });
        prop_assert!(
            truncated.evaluations.len() <= full.len(),
            "truncated trace longer than the full one"
        );
        prop_assert_eq!(
            &truncated.evaluations,
            &full[..truncated.evaluations.len()],
            "truncated trace is not a bit-identical prefix"
        );
        if truncated.completion == Completion::BudgetExhausted {
            prop_assert!(truncated.evaluations.len() <= full.len());
        } else {
            prop_assert_eq!(truncated.completion, Completion::Finished);
            prop_assert_eq!(&truncated.evaluations, full);
        }
        // Whatever the stop generation, the answer is usable.
        prop_assert!(truncated.cycles().is_finite());
        prop_assert!(truncated.cycles() > 0.0);
    }
}

#[test]
fn unlimited_runs_finish() {
    let result = explore(Budget::default());
    assert_eq!(result.completion, Completion::Finished);
    assert!(result.quarantine.is_empty());
    assert!(result.generations_completed >= 1);
    assert!(result.cycles().is_finite());
}

#[test]
fn expired_deadline_still_returns_a_valid_best() {
    // A deadline of 0 ms is already violated at search entry: every phase
    // is skipped except the sequential fallback sweep, which guarantees a
    // usable mapping instead of an error.
    let result = explore(Budget {
        deadline_ms: Some(0),
        ..Budget::default()
    });
    assert_eq!(result.completion, Completion::DeadlineExceeded);
    assert!(result.cycles().is_finite());
    assert!(result.cycles() > 0.0);
    assert_eq!(result.generations_completed, 0);
}

#[test]
fn measurement_budget_exhausts_after_the_first_batch() {
    let result = explore(Budget {
        max_measurements: Some(1),
        ..Budget::default()
    });
    assert_eq!(result.completion, Completion::BudgetExhausted);
    assert!(result.cycles().is_finite());
    // Same budget, same seed: bit-identical truncated results.
    let again = explore(Budget {
        max_measurements: Some(1),
        ..Budget::default()
    });
    assert_eq!(result.evaluations, again.evaluations);
    assert_eq!(result.best_mapping, again.best_mapping);
    assert_eq!(result.best_schedule, again.best_schedule);
}

/// A many-mapping convolution: after the joint search, three refinement
/// rounds run (as one pool wave at `jobs > 1` when no counter limit is set).
fn conv() -> amos::ir::ComputeDef {
    ops::c2d(ops::ConvShape {
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

fn explore_conv(jobs: usize, budget: Budget) -> amos::core::ExplorationResult {
    let config = ExplorerConfig {
        jobs,
        ..config(budget)
    };
    Explorer::with_config(config)
        .explore(&conv(), &catalog::v100())
        .expect("exploration succeeds")
}

#[test]
fn counter_truncation_inside_refinement_is_jobs_invariant_and_a_prefix() {
    let full = explore_conv(4, Budget::default());
    assert_eq!(full.completion, Completion::Finished);
    let joint_generations = config(Budget::default()).generations;
    assert_eq!(full.generations_completed, 4 * joint_generations);

    let mut stopped_inside_refinement = 0;
    for limit in [40, 75, 100, 130, 10_000] {
        let budget = Budget {
            max_evaluations: Some(limit),
            ..Budget::default()
        };
        let serial = explore_conv(1, budget);
        let pooled = explore_conv(4, budget);
        assert_eq!(serial.evaluations, pooled.evaluations, "limit {limit}");
        assert_eq!(serial.completion, pooled.completion, "limit {limit}");
        assert_eq!(
            serial.generations_completed, pooled.generations_completed,
            "limit {limit}"
        );
        assert_eq!(serial.best_mapping, pooled.best_mapping, "limit {limit}");
        assert_eq!(serial.best_schedule, pooled.best_schedule, "limit {limit}");
        assert_eq!(
            pooled.evaluations,
            full.evaluations[..pooled.evaluations.len()],
            "limit {limit}: not a prefix of the unlimited run"
        );
        if pooled.completion == Completion::BudgetExhausted
            && pooled.generations_completed > joint_generations
        {
            stopped_inside_refinement += 1;
        }
    }
    assert!(
        stopped_inside_refinement >= 2,
        "the limits must cut at least two runs short inside refinement"
    );
}

#[test]
fn a_repeated_counter_truncated_request_answers_as_it_did_cold() {
    // Both limits stop the search inside a refinement round. A truncated
    // answer is not stored, so the repeat runs the whole search again and
    // charges every round to its budget, as the first call did.
    let def = ops::c1d(1, 64, 64, 256, 3, 1);
    let accel = catalog::v100();
    for limit in [457, 679] {
        let config = ExplorerConfig {
            jobs: 1,
            budget: Budget {
                max_evaluations: Some(limit),
                ..Budget::default()
            },
            ..Default::default()
        };
        let cold = Engine::with_config(config.clone())
            .explore_op(&def, &accel)
            .expect("explores");
        let engine = Engine::with_config(config);
        for call in 1..=2 {
            let got = engine.explore_op(&def, &accel).expect("explores");
            let at = format!("limit {limit}, call {call}");
            assert_eq!(got.completion, cold.completion, "{at}");
            assert_eq!(got.cycles().to_bits(), cold.cycles().to_bits(), "{at}");
            assert_eq!(got.best_mapping, cold.best_mapping, "{at}");
            assert_eq!(got.best_schedule, cold.best_schedule, "{at}");
            assert_eq!(got.evaluations, cold.evaluations, "{at}");
            assert_eq!(
                got.generations_completed, cold.generations_completed,
                "{at}"
            );
        }
    }
}

#[test]
fn invalid_configs_are_typed_errors_not_panics() {
    let mut cfg = config(Budget::default());
    cfg.population = 0;
    let err = Explorer::with_config(cfg)
        .explore(&gemm(), &catalog::v100())
        .unwrap_err();
    assert!(
        matches!(err, ExploreError::InvalidConfig { .. }),
        "expected InvalidConfig, got {err}"
    );
}

#[test]
fn fault_injection_feature_matches_the_build() {
    // CI asserts the default build reports `false`: the fault harness must
    // never leak into release binaries.
    assert_eq!(
        amos::core::fault_injection_enabled(),
        cfg!(feature = "fault-injection")
    );
}

#[cfg(feature = "fault-injection")]
mod injected {
    use super::*;
    use amos::core::faultplan::FaultPlan;

    fn explore_with_faults(faults: FaultPlan) -> amos::core::ExplorationResult {
        let mut cfg = config(Budget::default());
        cfg.faults = faults;
        // Panics escape to a per-test hook unless suppressed; the isolation
        // layer's quiet guard keeps the expected ones out of test output.
        amos::sim::isolate::quiet_panics(|| {
            Explorer::with_config(cfg)
                .explore(&gemm(), &catalog::v100())
                .expect("degraded exploration still succeeds")
        })
    }

    /// The acceptance scenario: ~10% of measure-phase evaluations panic.
    /// The run must complete as `Degraded`, log every quarantined slot, and
    /// the surviving search must be exactly the fault-free search minus the
    /// quarantined candidates.
    #[test]
    fn ten_percent_panics_degrade_but_do_not_corrupt() {
        let faulty = explore_with_faults(FaultPlan {
            panic_ppm: 100_000,
            only_phase: Some("measure"),
            ..FaultPlan::default()
        });
        let clean = explore(Budget::default());

        let quarantined = faulty.quarantine.len();
        assert!(quarantined > 0, "10% panic rate quarantined nothing");
        assert_eq!(
            faulty.completion,
            Completion::Degraded { quarantined },
            "got {:?}",
            faulty.completion
        );
        for record in &faulty.quarantine.records {
            assert_eq!(record.phase, "measure");
            assert!(record.detail.contains("injected"), "{}", record.detail);
        }

        // Quarantined candidates are dropped, never replaced: the faulty
        // trace is a subsequence of the fault-free one.
        let mut clean_iter = clean.evaluations.iter();
        for pair in &faulty.evaluations {
            assert!(
                clean_iter.any(|c| c == pair),
                "evaluation {pair:?} absent from the fault-free trace"
            );
        }
        // The best is valid and exactly the fault-free optimum over the
        // candidates that survived quarantine.
        assert!(faulty.cycles().is_finite());
        let best_surviving = faulty
            .evaluations
            .iter()
            .map(|(_, measured)| *measured)
            .fold(f64::INFINITY, f64::min);
        assert_eq!(faulty.cycles(), best_surviving);
        assert!(faulty.cycles() >= clean.cycles());

        // Same plan, same seed: the degraded run is deterministic too.
        let again = explore_with_faults(FaultPlan {
            panic_ppm: 100_000,
            only_phase: Some("measure"),
            ..FaultPlan::default()
        });
        assert_eq!(faulty.evaluations, again.evaluations);
        assert_eq!(faulty.quarantine, again.quarantine);
    }

    /// Refinement rounds run concurrently at `jobs > 1`, each with its own
    /// quarantine buffer appended in round order: the log and the degraded
    /// completion must not depend on which round finished first.
    #[test]
    fn quarantine_inside_refinement_is_identical_at_every_width() {
        let explore_at = |jobs: usize| {
            let cfg = ExplorerConfig {
                jobs,
                faults: FaultPlan {
                    panic_ppm: 100_000,
                    ..FaultPlan::default()
                },
                ..config(Budget::default())
            };
            amos::sim::isolate::quiet_panics(|| {
                Explorer::with_config(cfg)
                    .explore(&conv(), &catalog::v100())
                    .expect("degraded exploration still succeeds")
            })
        };
        let serial = explore_at(1);
        // Refinement rounds derive their own seeds, so a record carrying a
        // seed other than the configured one was logged inside a round.
        let mut round_seeds: Vec<u64> = serial
            .quarantine
            .records
            .iter()
            .map(|r| r.seed)
            .filter(|&s| s != config(Budget::default()).seed)
            .collect();
        round_seeds.dedup();
        assert!(
            round_seeds.len() >= 2,
            "the plan must fire inside at least two rounds: {round_seeds:?}"
        );
        assert_eq!(
            serial.completion,
            Completion::Degraded {
                quarantined: serial.quarantine.len()
            }
        );
        for jobs in [2, 4, 8] {
            let pooled = explore_at(jobs);
            assert_eq!(serial.quarantine, pooled.quarantine, "jobs={jobs}");
            assert_eq!(serial.completion, pooled.completion, "jobs={jobs}");
            assert_eq!(serial.evaluations, pooled.evaluations, "jobs={jobs}");
        }
    }

    /// Injected `SimError`s at the measure phase are counted as ordinary
    /// infeasible simulations, not quarantined panics.
    #[test]
    fn injected_sim_errors_are_not_quarantined() {
        let faulty = explore_with_faults(FaultPlan {
            sim_error_ppm: 100_000,
            only_phase: Some("measure"),
            ..FaultPlan::default()
        });
        let clean = explore(Budget::default());
        assert!(faulty.quarantine.is_empty());
        assert!(
            faulty.sim_failures > clean.sim_failures,
            "injected SimErrors left no trace ({} vs {})",
            faulty.sim_failures,
            clean.sim_failures
        );
        assert!(faulty.cycles().is_finite());
    }
}
