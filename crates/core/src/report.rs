//! Structured mapping reports: everything a user needs to understand *why*
//! a chosen mapping looks the way it does — the compute mapping, the
//! physical memory mapping, tile counts, padding efficiency, memory
//! footprints and the measured timing.

use crate::explore::{Completion, ExplorationResult, ScreeningStats};
use crate::memory_map::{physical_memory_mapping, MemoryMapping};
use amos_hw::AcceleratorSpec;
use amos_sim::{ExecStats, Schedule, TimingReport};
use std::fmt;

/// A human-consumable summary of one explored mapping.
#[derive(Debug, Clone, PartialEq)]
pub struct MappingReport {
    /// The intrinsic the computation was mapped to.
    pub intrinsic: String,
    /// Table-5-style compute mapping string.
    pub compute_mapping: String,
    /// Physical memory mapping (base addresses and strides).
    pub memory_mapping: MemoryMapping,
    /// Tiles along each intrinsic iteration.
    pub tiles: Vec<(String, i64)>,
    /// Fraction of intrinsic lanes doing useful (non-padded) work.
    pub padding_efficiency: f64,
    /// Size of the enumerated mapping space the winner was chosen from.
    pub num_mappings: usize,
    /// Shared-memory staging footprint of the winning schedule, in bytes.
    pub shared_footprint_bytes: u64,
    /// Register footprint of the winning schedule, in bytes.
    pub register_footprint_bytes: u64,
    /// Blocks launched by the winning schedule.
    pub blocks: i64,
    /// Ground-truth timing of the winner.
    pub timing: TimingReport,
    /// Achieved GFLOPS.
    pub gflops: f64,
    /// Achieved microseconds at the accelerator clock.
    pub microseconds: f64,
    /// Infeasible ground-truth simulations hit during the exploration.
    pub sim_failures: usize,
    /// Analytic-screening counters of the exploration (candidates screened,
    /// survivor/measured memo hits, screening throughput).
    pub screening: ScreeningStats,
    /// Measured candidates the model ranked strictly ahead of the measured
    /// best ([`crate::screening_regret`] of the evaluation trace).
    pub screening_regret: usize,
    /// Algorithm-1 validation calls performed by this process so far
    /// (paper §5.2), snapshotted when the report was built.
    pub validation_calls: u64,
    /// Counters from a functional execution of the winner (lanes executed,
    /// affine index-evaluation hit ratio); attach via
    /// [`MappingReport::with_exec_stats`].
    pub exec_stats: Option<ExecStats>,
    /// How the exploration ended: complete, degraded by quarantined
    /// candidates, or truncated by a budget limit.
    pub completion: Completion,
    /// Generation-loop iterations completed before the run ended.
    pub generations_completed: usize,
    /// Candidate evaluations quarantined after panicking.
    pub quarantined: usize,
    /// Process-wide worker-pool counters snapshotted when the report was
    /// built (see [`crate::pool_stats`]). Deliberately **not** printed by
    /// `Display`: `threads`/`waves` depend on the thread budget, and report
    /// output must stay byte-identical at any `--jobs`.
    pub pool: crate::pool::PoolStats,
}

impl MappingReport {
    /// Builds a report from an exploration result.
    pub fn from_result(result: &ExplorationResult, accel: &AcceleratorSpec) -> Self {
        let prog = &result.best_program;
        let schedule: &Schedule = &result.best_schedule;
        let tiles = prog
            .intrinsic()
            .compute
            .iters()
            .iter()
            .enumerate()
            .map(|(t, it)| (it.name.clone(), prog.tiles(t)))
            .collect();
        let cycles = result.best_report.cycles;
        MappingReport {
            intrinsic: prog.intrinsic().name.clone(),
            compute_mapping: prog.mapping_string(),
            memory_mapping: physical_memory_mapping(prog),
            tiles,
            padding_efficiency: prog.padding_efficiency(),
            num_mappings: result.num_mappings,
            shared_footprint_bytes: schedule.shared_footprint_bytes(prog),
            register_footprint_bytes: schedule.register_footprint_bytes(prog),
            blocks: schedule.blocks(),
            timing: result.best_report.clone(),
            gflops: result.best_report.gflops(prog, accel),
            microseconds: cycles / accel.cycles_per_second() * 1e6,
            sim_failures: result.sim_failures,
            screening: result.screening,
            screening_regret: crate::explore::screening_regret(&result.evaluations),
            validation_calls: crate::validate::validation_calls(),
            exec_stats: None,
            completion: result.completion,
            generations_completed: result.generations_completed,
            quarantined: result.quarantine.len(),
            pool: crate::pool::pool_stats(),
        }
    }

    /// Attaches functional-execution counters (from
    /// [`amos_sim::execute_mapped_with_stats`] on the winning program) so the
    /// report also shows lanes executed and the affine-hit ratio of the
    /// compiled index programs.
    pub fn with_exec_stats(mut self, stats: ExecStats) -> Self {
        self.exec_stats = Some(stats);
        self
    }
}

impl fmt::Display for MappingReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "intrinsic        : {}", self.intrinsic)?;
        writeln!(f, "compute mapping  : {}", self.compute_mapping)?;
        write!(f, "memory mapping   :")?;
        for line in self.memory_mapping.to_string().lines() {
            writeln!(f, "\n    {line}")?;
        }
        let tiles: Vec<String> = self.tiles.iter().map(|(n, t)| format!("{n}:{t}")).collect();
        writeln!(f, "tiles            : {}", tiles.join(" "))?;
        writeln!(
            f,
            "lane efficiency  : {:.1}% (padding waste {:.1}%)",
            self.padding_efficiency * 100.0,
            (1.0 - self.padding_efficiency) * 100.0
        )?;
        writeln!(f, "mapping space    : {} candidates", self.num_mappings)?;
        writeln!(
            f,
            "exploration      : {} infeasible schedule sims, {} Algorithm-1 calls",
            self.sim_failures, self.validation_calls
        )?;
        // Deliberately no candidates/sec here: CLI output is byte-identical
        // across `--jobs`, and throughput is the one wall-clock quantity
        // (callers wanting it use `screening.throughput()`).
        writeln!(
            f,
            "screening        : {} candidates screened, {} survivor memo hits, {} measured memo hits",
            self.screening.screened,
            self.screening.survivor_memo_hits,
            self.screening.measured_memo_hits
        )?;
        writeln!(
            f,
            "screening regret : {} measured candidates ranked ahead of the best",
            self.screening_regret
        )?;
        if let Some(es) = &self.exec_stats {
            writeln!(
                f,
                "hot path         : {} lanes executed, {:.1}% affine index hits",
                es.total_lanes,
                es.affine_hit_ratio() * 100.0
            )?;
        }
        writeln!(
            f,
            "footprints       : {} B shared, {} B registers, {} blocks",
            self.shared_footprint_bytes, self.register_footprint_bytes, self.blocks
        )?;
        writeln!(
            f,
            "measured         : {:.0} cycles = {:.1} us, {:.1} GFLOPS",
            self.timing.cycles, self.microseconds, self.gflops
        )?;
        // Only surfaced when noteworthy: a clean finish keeps the historical
        // output byte-identical.
        if self.completion != Completion::Finished {
            writeln!(
                f,
                "completion       : {} after {} generations ({} quarantined)",
                self.completion, self.generations_completed, self.quarantined
            )?;
        }
        write!(
            f,
            "occupancy {:.2}, utilization {:.3}",
            self.timing.occupancy, self.timing.utilization
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Explorer, ExplorerConfig};
    use amos_hw::catalog;
    use amos_ir::{ComputeBuilder, DType};

    fn explore_gemm() -> (ExplorationResult, AcceleratorSpec) {
        let mut b = ComputeBuilder::new("gemm");
        let i = b.spatial("i", 100);
        let j = b.spatial("j", 100);
        let k = b.reduce("k", 100);
        let a = b.input("a", &[100, 100], DType::F16);
        let w = b.input("b", &[100, 100], DType::F16);
        let c = b.output("c", &[100, 100], DType::F32);
        b.mul_acc(c.at([i, j]), a.at([i, k]), w.at([k, j]));
        let def = b.finish().unwrap();
        let accel = catalog::v100();
        let explorer = Explorer::with_config(ExplorerConfig {
            population: 8,
            generations: 2,
            survivors: 3,
            measure_top: 2,
            seed: 3,
            jobs: 1,
            ..Default::default()
        });
        (explorer.explore(&def, &accel).unwrap(), accel)
    }

    #[test]
    fn report_captures_mapping_and_padding() {
        let (result, accel) = explore_gemm();
        let report = MappingReport::from_result(&result, &accel);
        assert_eq!(report.intrinsic, "mma_sync");
        assert_eq!(report.num_mappings, 1);
        // 100 is not a multiple of 16: 7 tiles per axis, padded to 112.
        assert_eq!(
            report.tiles,
            vec![
                ("i1".to_string(), 7),
                ("i2".to_string(), 7),
                ("r1".to_string(), 7),
            ]
        );
        let expected = (100.0f64 / 112.0).powi(3);
        assert!((report.padding_efficiency - expected).abs() < 1e-12);
        assert!(report.gflops > 0.0);
        assert!(report.microseconds > 0.0);
    }

    #[test]
    fn display_is_complete() {
        let (result, accel) = explore_gemm();
        let report = MappingReport::from_result(&result, &accel);
        let text = report.to_string();
        assert!(text.contains("compute mapping"));
        assert!(text.contains("lane efficiency"));
        assert!(text.contains("GFLOPS"));
        assert!(text.contains("occupancy"));
        assert!(text.contains("addr(Src1/a)"));
        assert!(text.contains("Algorithm-1 calls"));
        assert!(text.contains("survivor memo hits"));
        assert!(text.contains("screening regret : "));
        assert!(!text.contains("hot path"));
        assert!(
            !text.contains("completion"),
            "a clean finish must keep the historical output"
        );

        // Attaching functional counters adds the hot-path line.
        let tensors = amos_ir::interp::make_inputs(result.best_program.def(), 5);
        let (_, stats) =
            amos_sim::execute_mapped_with_stats(&result.best_program, &tensors).unwrap();
        let text = report.with_exec_stats(stats).to_string();
        assert!(text.contains("hot path"));
        assert!(text.contains("affine index hits"));
    }

    #[test]
    fn truncated_runs_surface_completion() {
        use crate::Budget;
        let mut b = ComputeBuilder::new("gemm");
        let i = b.spatial("i", 64);
        let j = b.spatial("j", 64);
        let k = b.reduce("k", 64);
        let a = b.input("a", &[64, 64], DType::F16);
        let w = b.input("b", &[64, 64], DType::F16);
        let c = b.output("c", &[64, 64], DType::F32);
        b.mul_acc(c.at([i, j]), a.at([i, k]), w.at([k, j]));
        let def = b.finish().unwrap();
        let accel = catalog::v100();
        let explorer = Explorer::with_config(ExplorerConfig {
            population: 8,
            generations: 2,
            survivors: 3,
            measure_top: 2,
            seed: 3,
            jobs: 1,
            budget: Budget {
                max_measurements: Some(1),
                ..Budget::default()
            },
            ..Default::default()
        });
        let result = explorer.explore(&def, &accel).unwrap();
        let report = MappingReport::from_result(&result, &accel);
        assert_eq!(report.completion, Completion::BudgetExhausted);
        let text = report.to_string();
        assert!(
            text.contains("completion       : budget exhausted"),
            "{text}"
        );
    }
}
