//! The timing engine: cycle-level ground truth for mapped programs.
//!
//! The paper measures wall-clock time on real accelerators; our substitute is
//! this hierarchical timing model. It shares the paper's pipelined
//! `max(compute, load, store)` structure but additionally models the effects
//! a simple analytic model misses — wave quantisation across cores, pipeline
//! fill, kernel launch overhead, staging synchronisation, and issue/bandwidth
//! derating when `unroll`/`vectorize` are off — so the relationship between
//! AMOS's performance model and this "hardware" mirrors Figure 5.
//!
//! There is one engine, [`ScreeningContext::simulate`]. It reads nothing but
//! the flat context — axis masks, fragment bytes, raw bandwidths, core count,
//! intrinsic latency and initiation interval, useful operations and peak
//! throughput — and the chunks the feasibility check derived from the
//! schedule, so a simulation allocates nothing and divides once per axis.
//! [`simulate`] is that engine behind the `(program, schedule, accelerator)`
//! signature: it fetches the program's cached context and only walks the
//! program itself ([`Schedule::validate`]) to name the rule an infeasible
//! schedule broke.

use crate::error::SimError;
use crate::program::{div_ceil, MappedProgram, MAX_AXES};
use crate::schedule::Schedule;
use crate::screening::{
    div_ceil_pow2, masked_product, set_bits, AxisChunks, ScreeningContext, NARROW_AXES,
};
use amos_hw::AcceleratorSpec;

/// Fixed cost of launching a kernel, in cycles.
pub const LAUNCH_OVERHEAD_CYCLES: f64 = 2000.0;
/// Cost of one staging synchronisation barrier, in cycles.
pub const STAGE_SYNC_CYCLES: f64 = 40.0;
/// Issue-rate derating when inner loops are not unrolled.
pub const NO_UNROLL_PENALTY: f64 = 1.25;
/// Achieved-bandwidth derating when transfers are not vectorised.
pub const NO_VECTORIZE_PENALTY: f64 = 0.6;

/// Cycle-level result of simulating one mapped program under one schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingReport {
    /// Total execution cycles.
    pub cycles: f64,
    /// Blocks launched.
    pub blocks: i64,
    /// Waves of blocks over the cores.
    pub waves: i64,
    /// Fraction of core slots busy in the launched waves.
    pub occupancy: f64,
    /// Fraction of peak tensor throughput achieved on *useful* (non-padded)
    /// scalar operations.
    pub utilization: f64,
    /// Bytes read from device memory.
    pub dram_read_bytes: u64,
    /// Bytes written to device memory.
    pub dram_write_bytes: u64,
    /// Bytes moved from staging buffers into register fragments.
    pub register_traffic_bytes: u64,
    /// Per-block compute cycles (pipeline view).
    pub block_compute_cycles: f64,
    /// Per-block data-movement cycles (the max over transfer paths).
    pub block_transfer_cycles: f64,
}

impl TimingReport {
    /// GFLOPS achieved for the program's useful scalar operations.
    pub fn gflops(&self, prog: &MappedProgram, accel: &AcceleratorSpec) -> f64 {
        accel.gflops(prog.def().scalar_ops(), self.cycles)
    }
}

/// Simulates a mapped program under a schedule on an accelerator.
///
/// ```
/// use amos_hw::catalog;
/// use amos_ir::{ComputeBuilder, DType};
/// use amos_sim::{simulate, FusedGroup, MappedProgram, Schedule};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = ComputeBuilder::new("gemm");
/// let i = b.spatial("i", 256);
/// let j = b.spatial("j", 256);
/// let k = b.reduce("k", 256);
/// let a = b.input("a", &[256, 256], DType::F16);
/// let w = b.input("b", &[256, 256], DType::F16);
/// let c = b.output("c", &[256, 256], DType::F32);
/// b.mul_acc(c.at([i, j]), a.at([i, k]), w.at([k, j]));
/// let def = b.finish()?;
///
/// let accel = catalog::v100();
/// let prog = MappedProgram::new(
///     def,
///     accel.intrinsic.clone(),
///     vec![
///         FusedGroup::of(vec![i.id()]),
///         FusedGroup::of(vec![j.id()]),
///         FusedGroup::of(vec![k.id()]),
///     ],
///     vec![0, 1],
/// )?;
/// let report = simulate(&prog, &Schedule::balanced(&prog, &accel), &accel)?;
/// assert!(report.cycles > 0.0);
/// assert!(report.utilization <= 1.0);
/// # Ok(())
/// # }
/// ```
///
/// The schedule is checked and simulated over `prog.screening_context(accel)`
/// (built on the program's first use, one atomic load afterwards).
///
/// # Errors
///
/// [`SimError::InvalidSchedule`] for an accelerator without hierarchy levels;
/// otherwise the error [`Schedule::validate`] names when the schedule does
/// not fit the program or the hardware — the one case that walks the program.
pub fn simulate(
    prog: &MappedProgram,
    schedule: &Schedule,
    accel: &AcceleratorSpec,
) -> Result<TimingReport, SimError> {
    ScreeningContext::require_levels(accel)?;
    match prog.screening_context(accel).simulate(schedule) {
        Some(report) => Ok(report),
        None => Err(schedule
            .validate(prog, accel)
            .err()
            .unwrap_or(SimError::ScheduleAxisMismatch)),
    }
}

/// [`simulate`] behind a panic-isolation boundary: a panic anywhere in the
/// timing model surfaces as [`SimError::Panicked`] instead of unwinding into
/// the caller. This is the ground-truth entry point for callers that must
/// survive individual candidate failures (the explorer's fault-tolerant
/// supervisor, long-running services).
///
/// # Errors
///
/// Same as [`simulate`], plus [`SimError::Panicked`] carrying the payload
/// text of a caught panic.
pub fn simulate_isolated(
    prog: &MappedProgram,
    schedule: &Schedule,
    accel: &AcceleratorSpec,
) -> Result<TimingReport, SimError> {
    crate::isolate::run_isolated(|| simulate(prog, schedule, accel))
        .unwrap_or_else(|detail| Err(SimError::Panicked { detail }))
}

impl ScreeningContext {
    /// The timing engine: checks `schedule` against this context's program
    /// and machine ([`ScreeningContext::schedule_feasible`], the verdict of
    /// [`Schedule::validate`]) and simulates it. `None` for an infeasible
    /// schedule; [`simulate`] names the violated rule.
    pub fn simulate(&self, schedule: &Schedule) -> Option<TimingReport> {
        if self.axes.len() <= NARROW_AXES {
            let chunks = self.chunks_if_feasible::<NARROW_AXES>(schedule)?;
            Some(self.simulate_chunks(schedule, &chunks))
        } else {
            let chunks = self.chunks_if_feasible::<MAX_AXES>(schedule)?;
            Some(self.simulate_chunks(schedule, &chunks))
        }
    }

    /// The engine proper, over the chunks of a schedule found feasible.
    fn simulate_chunks<const N: usize>(
        &self,
        schedule: &Schedule,
        c: &AxisChunks<N>,
    ) -> TimingReport {
        let n = self.axes.len();
        let cores = self.num_cores;
        let split_k = schedule.split_k_factor();
        let blocks = schedule.grid.iter().product::<i64>() * split_k;
        let waves = div_ceil(blocks, cores);
        let active_cores = blocks.min(cores);
        let occupancy = blocks as f64 / (waves * cores) as f64;

        // ---- per-block trip counts ---------------------------------------
        let calls_per_subcore: i64 = c.sub[..n].iter().product();
        // Sequential staging steps a block takes along each spatial axis.
        let mut steps = [1i64; N];
        for i in set_bits(self.spatial_mask) {
            steps[i] = div_ceil_pow2(c.blk[i], c.resident[i]);
        }

        // ---- traffic -----------------------------------------------------
        // Packed global->staging traffic per operand: one pass over the
        // operand's block footprint, repeated for every staging step of a
        // spatial axis the operand does not depend on (re-reads), and once
        // more per block for the grid dimensions it does not depend on.
        // Staging->register traffic with warp-tile reuse: a source fragment
        // is reloaded once per intrinsic call, divided by the
        // register-blocking reuse along the spatial tile axes it does NOT
        // depend on.
        let mut dram_read_bytes = 0u64;
        let mut block_read = 0u64;
        let mut register_traffic_bytes = 0u64;
        for m in 0..self.num_srcs {
            let mask = self.operand_masks[m];
            let passes = masked_product(&steps, self.spatial_mask & !mask);
            let bytes =
                masked_product(&c.blk, mask) as u64 * passes as u64 * self.src_frag_bytes[m];
            dram_read_bytes += bytes * blocks as u64;
            block_read += bytes;
            let reuse = masked_product(&c.wsub, self.tile_spatial_mask & !mask);
            register_traffic_bytes +=
                (calls_per_subcore as u64 / reuse.max(1) as u64) * self.src_frag_bytes[m];
        }

        // Destination store traffic: one packed dst tile set per block.
        let dst_mask = self.operand_masks[self.num_srcs] & self.spatial_mask;
        let per_block_write = masked_product(&c.blk, dst_mask) as u64 * self.dst_frag_bytes;
        let dram_write_bytes = per_block_write * blocks as u64;

        // ---- per-block pipeline stages -----------------------------------
        let issue_penalty = if schedule.unroll {
            1.0
        } else {
            NO_UNROLL_PENALTY
        };
        let bw_penalty = if schedule.vectorize {
            1.0
        } else {
            NO_VECTORIZE_PENALTY
        };

        // Staging synchronisation: one barrier per staged reduction chunk.
        let mut stage_steps = 1i64;
        for i in set_bits(self.nonspatial_mask) {
            stage_steps *= div_ceil_pow2(c.blk[i], schedule.stage[i]);
        }

        let t_compute = calls_per_subcore as f64 * self.initiation_interval * issue_penalty
            + self.latency
            + stage_steps as f64 * STAGE_SYNC_CYCLES;

        let reg_bw = self.register_bw * bw_penalty;
        let t_reg = if reg_bw > 0.0 {
            register_traffic_bytes as f64 / reg_bw
        } else {
            0.0
        };
        let shared_bw = self.shared_bw * bw_penalty;
        let t_shared = if shared_bw > 0.0 {
            block_read as f64 / shared_bw
        } else {
            0.0
        };

        // Device bandwidth is shared by all concurrently active cores.
        let dev_read_bw = self.device_load_bw / active_cores as f64;
        let dev_write_bw = self.device_store_bw / active_cores as f64;
        let t_dram = block_read as f64 / dev_read_bw;
        let t_store = per_block_write as f64 / dev_write_bw;

        let transfer = t_reg.max(t_shared).max(t_dram).max(t_store);
        let block_time = if schedule.double_buffer {
            t_compute.max(transfer)
        } else {
            t_compute + t_dram.max(t_shared) + t_reg + t_store
        };

        let mut cycles = waves as f64 * block_time + LAUNCH_OVERHEAD_CYCLES;

        // Split-K epilogue: the partial outputs of the K-split blocks are
        // combined by a follow-up reduction pass (read all partials, write
        // the final tensor once), plus its own launch.
        if split_k > 1 {
            let full_dst = dram_write_bytes as f64 / split_k as f64;
            let combine_bytes = dram_write_bytes as f64 + full_dst;
            cycles += combine_bytes / self.device_load_bw + LAUNCH_OVERHEAD_CYCLES;
        }

        let utilization = if self.peak_ops_per_cycle > 0.0 && cycles > 0.0 {
            (self.useful_ops / cycles) / self.peak_ops_per_cycle
        } else {
            0.0
        };

        TimingReport {
            cycles,
            blocks,
            waves,
            occupancy,
            utilization,
            dram_read_bytes,
            dram_write_bytes,
            register_traffic_bytes,
            block_compute_cycles: t_compute,
            block_transfer_cycles: transfer,
        }
    }
}

/// Average DRAM bytes touched per scalar multiply-add on the general-purpose
/// fallback path, modelling its weaker staging/reuse compared with the
/// explicit fragment pipeline of the spatial unit.
pub const SCALAR_BYTES_PER_OP: f64 = 0.5;

/// Estimated cycles to run the computation on the accelerator's
/// general-purpose scalar units — the fallback libraries and template
/// compilers take when an operator cannot be mapped to the spatial unit.
pub fn scalar_fallback_cycles(def: &amos_ir::ComputeDef, accel: &AcceleratorSpec) -> f64 {
    let cores = accel.total_units(accel.shared_level()) as f64;
    let ops = def.scalar_ops() as f64;
    let compute = ops / (accel.scalar_ops_per_core_cycle * cores);
    let tensor_bytes: u64 = def.tensors().iter().map(|t| t.bytes()).sum();
    let bytes = (ops * SCALAR_BYTES_PER_OP).max(tensor_bytes as f64);
    let device = accel.levels.last().expect("accelerator has levels");
    let mem = bytes / device.memory.load_bytes_per_cycle;
    compute.max(mem) + LAUNCH_OVERHEAD_CYCLES
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::FusedGroup;
    use amos_hw::catalog;
    use amos_ir::{ComputeBuilder, DType};

    fn gemm_prog(m: i64, n: i64, k: i64) -> MappedProgram {
        let mut b = ComputeBuilder::new("gemm");
        let i = b.spatial("i", m);
        let j = b.spatial("j", n);
        let kk = b.reduce("k", k);
        let a = b.input("a", &[m, k], DType::F16);
        let w = b.input("b", &[k, n], DType::F16);
        let c = b.output("c", &[m, n], DType::F32);
        b.mul_acc(c.at([i, j]), a.at([i, kk]), w.at([kk, j]));
        let def = b.finish().unwrap();
        let ids: Vec<_> = def.iter_ids().collect();
        MappedProgram::new(
            def,
            catalog::wmma_16x16x16(),
            vec![
                FusedGroup::of(vec![ids[0]]),
                FusedGroup::of(vec![ids[1]]),
                FusedGroup::of(vec![ids[2]]),
            ],
            vec![0, 1],
        )
        .unwrap()
    }

    #[test]
    fn parallel_schedule_beats_naive() {
        let prog = gemm_prog(2048, 2048, 512);
        let accel = catalog::v100();
        let naive = simulate(&prog, &Schedule::naive(&prog), &accel).unwrap();
        let balanced = simulate(&prog, &Schedule::balanced(&prog, &accel), &accel).unwrap();
        assert!(
            balanced.cycles < naive.cycles / 10.0,
            "parallelism must pay off: {} vs {}",
            balanced.cycles,
            naive.cycles
        );
    }

    #[test]
    fn utilization_is_bounded() {
        let prog = gemm_prog(4096, 4096, 1024);
        let accel = catalog::a100();
        let r = simulate(&prog, &Schedule::balanced(&prog, &accel), &accel).unwrap();
        assert!(r.utilization > 0.0 && r.utilization <= 1.0);
        assert!(r.occupancy > 0.0 && r.occupancy <= 1.0);
        assert!(r.gflops(&prog, &accel) > 0.0);
    }

    #[test]
    fn double_buffer_overlaps_transfers() {
        let prog = gemm_prog(2048, 2048, 512);
        let accel = catalog::v100();
        let mut s = Schedule::balanced(&prog, &accel);
        s.double_buffer = true;
        let overlapped = simulate(&prog, &s, &accel).unwrap();
        s.double_buffer = false;
        let serial = simulate(&prog, &s, &accel).unwrap();
        assert!(overlapped.cycles < serial.cycles);
    }

    #[test]
    fn register_blocking_reduces_register_traffic() {
        let prog = gemm_prog(2048, 2048, 512);
        let accel = catalog::v100();
        let mut s = Schedule::balanced(&prog, &accel);
        for w in &mut s.warp {
            *w = 1;
        }
        let base = simulate(&prog, &s, &accel).unwrap();
        s.warp[0] = 2;
        s.warp[1] = 2;
        let blocked = simulate(&prog, &s, &accel).unwrap();
        assert!(blocked.register_traffic_bytes < base.register_traffic_bytes);
    }

    #[test]
    fn larger_resident_tiles_reduce_dram_traffic() {
        let prog = gemm_prog(2048, 2048, 2048);
        let accel = catalog::v100();
        let mut s = Schedule::naive(&prog);
        s.grid[0] = 8;
        s.grid[1] = 8;
        let unblocked = simulate(&prog, &s, &accel).unwrap();
        // Register-blocking the j axis shrinks the number of passes blocks
        // make over the A operand.
        s.warp[1] = 4;
        let blocked = simulate(&prog, &s, &accel).unwrap();
        assert!(blocked.dram_read_bytes < unblocked.dram_read_bytes);
    }

    #[test]
    fn scalar_fallback_is_much_slower_than_tensor_units() {
        let prog = gemm_prog(1024, 1024, 1024);
        let accel = catalog::v100();
        let tensor = simulate(&prog, &Schedule::balanced(&prog, &accel), &accel).unwrap();
        let scalar = scalar_fallback_cycles(prog.def(), &accel);
        assert!(scalar > 2.0 * tensor.cycles);
    }

    #[test]
    fn split_k_helps_skinny_reductions() {
        // A tall-K GEMM with tiny spatial extent cannot fill the device
        // without splitting the reduction.
        let prog = gemm_prog(16, 16, 65536);
        let accel = catalog::v100();
        let serial = simulate(&prog, &Schedule::naive(&prog), &accel).unwrap();
        let mut s = Schedule::naive(&prog);
        s.split_k[2] = 8;
        let split = simulate(&prog, &s, &accel).unwrap();
        assert_eq!(split.blocks, 8);
        assert!(
            split.cycles < serial.cycles,
            "split-K {} vs serial {}",
            split.cycles,
            serial.cycles
        );
    }

    #[test]
    fn split_k_epilogue_is_charged() {
        let prog = gemm_prog(256, 256, 256);
        let accel = catalog::v100();
        let mut s = Schedule::naive(&prog);
        let base = simulate(&prog, &s, &accel).unwrap();
        s.split_k[2] = 2;
        let split = simulate(&prog, &s, &accel).unwrap();
        // Write traffic doubles (partial outputs) and the combine pass adds
        // a launch: the epilogue must be visible in the totals.
        assert_eq!(split.dram_write_bytes, 2 * base.dram_write_bytes);
    }

    #[test]
    fn an_accelerator_without_levels_is_a_typed_error_not_a_panic() {
        let prog = gemm_prog(64, 64, 64);
        let mut accel = catalog::v100();
        accel.levels.clear();
        for s in [Schedule::naive(&prog), Schedule::balanced(&prog, &accel)] {
            assert!(matches!(
                simulate(&prog, &s, &accel),
                Err(SimError::InvalidSchedule { .. })
            ));
        }
    }

    #[test]
    fn an_infeasible_schedule_reports_the_rule_validate_names() {
        let prog = gemm_prog(4096, 4096, 65536);
        let accel = catalog::v100();
        let mut s = Schedule::naive(&prog);
        s.stage[2] = prog.axes()[2].extent;
        let named = s.validate(&prog, &accel).unwrap_err();
        assert!(matches!(named, SimError::CapacityExceeded { .. }));
        assert_eq!(simulate(&prog, &s, &accel), Err(named));
        assert!(prog.screening_context(&accel).simulate(&s).is_none());
    }

    #[test]
    fn wave_quantisation_is_visible() {
        // 321 blocks on 80 cores -> 5 waves with the last nearly empty.
        let prog = gemm_prog(16 * 321, 16, 16);
        let accel = catalog::v100();
        let mut s = Schedule::naive(&prog);
        s.grid[0] = 321;
        let r = simulate(&prog, &s, &accel).unwrap();
        assert_eq!(r.blocks, 321);
        assert_eq!(r.waves, 5);
        assert!(r.occupancy < 0.9);
    }
}
