//! The analytic performance model of paper §5.3.
//!
//! ```text
//! Perf = L_{L-1},  L the number of hardware levels
//! L_l  = (Π S_l) · max(L_{l-1}, R_{l-1}, W_{l-1})    l > 0
//! L_0  = (Π S_0) · latency_of_intrinsic
//! R_l  = DataIn_l / in_bw_l        W_l = DataOut_l / out_bw_l
//! ```
//!
//! The model predicts cycles from the same schedule-derived data volumes the
//! timing simulator uses, but deliberately omits the second-order effects the
//! simulator has (wave quantisation, pipeline fill, launch overhead, staging
//! barriers, issue/bandwidth derating) — it is a *screening* model, fast and
//! rank-accurate, exactly the role it plays in the paper's exploration loop
//! (Figure 5 quantifies the gap).
//!
//! Three functions evaluate the model, pinned **bit-identical** to one
//! another (same guarded-reciprocal formulation `bytes * (1/bw)`, same
//! floating-point operation order) by the unit tests below and, over the
//! Figure-6 operator set, by the `property_tests` proptests
//! `precomputed_screening_is_bit_identical_to_reference_model` and
//! `batched_screening_is_bit_identical_to_scalar_screening`:
//!
//! * [`predict`] — the oracle: reads the program and accelerator
//!   descriptions directly, one loop per term of the formula above. Nothing
//!   on the search path calls it; the others are checked against it.
//! * [`predict_batch_with`] — the shipping kernel, what the explorer screens
//!   every generation with: [`BATCH_LANES`] candidates at a time over the
//!   SoA tables of a precomputed [`ScreeningContext`], dispatched to the
//!   widest vector ISA the CPU offers, no allocation. [`predict_batch`] is
//!   the same call with its own scratch tables.
//! * [`predict_with`] — the one-candidate form of that kernel: the same
//!   arithmetic over the same context for a single schedule, used where the
//!   explorer scores one candidate on its own (each mapping's balanced
//!   seed schedule) and for the lanes of a batch chunk too narrow to pad.

use amos_hw::{AcceleratorSpec, OperandRef};
use amos_sim::{
    div_ceil, AxisKind, BatchTables, GeneChange, MappedProgram, Schedule, ScreeningContext,
    SimError, BATCH_LANES,
};

/// A per-level breakdown of the prediction, for diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PerfBreakdown {
    /// Predicted total cycles (`Perf` in the paper).
    pub cycles: f64,
    /// Compute term at level 0 (intrinsic issue).
    pub l0_compute: f64,
    /// Read term into the register level.
    pub r_register: f64,
    /// Read term into the staging (shared) level.
    pub r_shared: f64,
    /// Read term from device memory.
    pub r_device: f64,
    /// Write term back to device memory.
    pub w_device: f64,
    /// Sequential factor at the device level (waves of blocks, unquantised).
    pub s_device: f64,
}

/// Whether a prediction can differ across `change`. The model reads the
/// per-axis factors and none of the three toggles: `unroll`, `vectorize` and
/// the overlap `double_buffer` buys are second-order effects of the timing
/// engine alone. A model that starts reading a toggle must say so here;
/// `tests/model_invariance.rs` holds all three functions below to this line.
pub fn reads(change: GeneChange) -> bool {
    matches!(change, GeneChange::Numeric)
}

/// Predicts execution cycles for a mapped program under a schedule.
///
/// # Errors
///
/// Returns the schedule-validation error when the schedule is malformed
/// (capacity violations are *not* model errors — the model is also used to
/// score slightly-infeasible candidates during mutation — so only structural
/// mismatches are rejected).
pub fn predict(
    prog: &MappedProgram,
    schedule: &Schedule,
    accel: &AcceleratorSpec,
) -> Result<PerfBreakdown, SimError> {
    let axes = prog.axes();
    if schedule.grid.len() != axes.len() {
        return Err(SimError::ScheduleAxisMismatch);
    }
    let intr = prog.intrinsic();
    let num_srcs = intr.compute.num_srcs();

    // ---- level 0: intrinsic issue ----------------------------------------
    let mut calls_per_subcore = 1f64;
    for i in 0..axes.len() {
        calls_per_subcore *= schedule.subcore_chunk(axes, i) as f64;
    }
    let l0 = calls_per_subcore * intr.initiation_interval as f64;

    // ---- register-level read ----------------------------------------------
    let mut register_bytes = 0f64;
    for m in 0..num_srcs {
        let mut reuse = 1i64;
        for (i, a) in axes.iter().enumerate() {
            if matches!(a.kind, AxisKind::TileSpatial(_)) && !prog.operand_uses_axis(m, a) {
                reuse *= schedule.warp[i].min(schedule.subcore_chunk(axes, i));
            }
        }
        register_bytes += calls_per_subcore / reuse.max(1) as f64
            * intr.fragment_bytes(OperandRef::Src(m)) as f64;
    }
    let reg_bw = accel.levels[0].memory.load_bytes_per_cycle;
    let inv_reg_bw = if reg_bw > 0.0 { 1.0 / reg_bw } else { 0.0 };
    let r_register = register_bytes * inv_reg_bw;

    // ---- staging-level read -----------------------------------------------
    let block_read: f64 = (0..num_srcs)
        .map(|m| schedule.block_read_bytes(prog, m) as f64)
        .sum();
    let shared_level = accel.shared_level();
    let shared_bw = accel.levels[shared_level].memory.load_bytes_per_cycle;
    let inv_shared_bw = if shared_bw > 0.0 {
        1.0 / shared_bw
    } else {
        0.0
    };
    let r_shared = block_read * inv_shared_bw;

    // ---- device-level read/write ------------------------------------------
    let cores = accel.total_units(shared_level) as f64;
    let blocks = schedule.blocks() as f64;
    let active = blocks.min(cores);
    let device = accel.levels.last().expect("levels");
    let r_device = block_read * (active * (1.0 / device.memory.load_bytes_per_cycle));

    let dst_row = num_srcs;
    let mut dst_tiles = 1f64;
    for (i, a) in axes.iter().enumerate() {
        if prog.operand_uses_axis(dst_row, a) && a.kind.is_spatial() {
            dst_tiles *= schedule.block_chunk(axes, i) as f64;
        }
    }
    let write_bytes = dst_tiles * intr.fragment_bytes(OperandRef::Dst) as f64;
    let w_device = write_bytes * (active * (1.0 / device.memory.store_bytes_per_cycle));

    // ---- hierarchy recursion ------------------------------------------------
    // L_1 (sub-core) = max(L_0, R_0, W_0); L_2 (core) folds staging; the
    // device level multiplies by the sequential wave factor.
    let l1 = l0.max(r_register);
    let l2 = l1.max(r_shared).max(r_device).max(w_device);
    let s_device = blocks * (1.0 / cores); // unquantised sequential factor
    let cycles = s_device.max(1.0) * l2;

    Ok(PerfBreakdown {
        cycles,
        l0_compute: l0,
        r_register,
        r_shared,
        r_device,
        w_device,
        s_device,
    })
}

/// [`predict`] over a precomputed [`ScreeningContext`]: the screening hot
/// path. Straight-line arithmetic over flat tables — no allocation, no hash
/// lookups, no `String` error construction — and bit-identical to the
/// reference (same reciprocal values, same floating-point operation order;
/// the masked products walk set bits in ascending axis order, exactly the
/// order of the reference loops).
///
/// # Errors
///
/// [`SimError::ScheduleAxisMismatch`] when the schedule's vectors do not
/// match the context's axis count.
pub fn predict_with(
    ctx: &ScreeningContext,
    schedule: &Schedule,
) -> Result<PerfBreakdown, SimError> {
    let axes = &ctx.axes[..];
    let n = axes.len();
    if schedule.grid.len() != n {
        return Err(SimError::ScheduleAxisMismatch);
    }
    // Per-axis chunks, computed once into fixed stack buffers (the context
    // asserts n <= 64). The reference recomputes these per use; the values
    // are integers, so hoisting them cannot change any float result.
    let mut blk_chunk = [0i64; 64];
    let mut sub_chunk = [0i64; 64];
    for i in 0..n {
        blk_chunk[i] = schedule.block_chunk(axes, i);
        sub_chunk[i] = div_ceil(blk_chunk[i], schedule.subcore[i]);
    }

    // ---- level 0: intrinsic issue ----------------------------------------
    let mut calls_per_subcore = 1f64;
    for &c in &sub_chunk[..n] {
        calls_per_subcore *= c as f64;
    }
    let l0 = calls_per_subcore * ctx.initiation_interval;

    // ---- register-level read ----------------------------------------------
    let mut register_bytes = 0f64;
    for m in 0..ctx.num_srcs {
        let mut reuse = 1i64;
        let mut bits = ctx.tile_spatial_mask & !ctx.operand_masks[m];
        while bits != 0 {
            let i = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            reuse *= schedule.warp[i].min(sub_chunk[i]);
        }
        register_bytes += calls_per_subcore / reuse.max(1) as f64 * ctx.src_frag_bytes[m] as f64;
    }
    let r_register = register_bytes * ctx.inv_register_bw;

    // ---- staging-level read -----------------------------------------------
    let mut block_read = 0f64;
    for m in 0..ctx.num_srcs {
        block_read += ctx.block_read_bytes(schedule, m) as f64;
    }
    let r_shared = block_read * ctx.inv_shared_bw;

    // ---- device-level read/write ------------------------------------------
    let blocks = schedule.blocks() as f64;
    let active = blocks.min(ctx.cores);
    let r_device = block_read * (active * ctx.inv_device_load_bw);

    let mut dst_tiles = 1f64;
    let mut bits = ctx.operand_masks[ctx.num_srcs] & ctx.spatial_mask;
    while bits != 0 {
        let i = bits.trailing_zeros() as usize;
        bits &= bits - 1;
        dst_tiles *= blk_chunk[i] as f64;
    }
    let write_bytes = dst_tiles * ctx.dst_frag_bytes as f64;
    let w_device = write_bytes * (active * ctx.inv_device_store_bw);

    // ---- hierarchy recursion ------------------------------------------------
    let l1 = l0.max(r_register);
    let l2 = l1.max(r_shared).max(r_device).max(w_device);
    let s_device = blocks * ctx.inv_cores;
    let cycles = s_device.max(1.0) * l2;

    Ok(PerfBreakdown {
        cycles,
        l0_compute: l0,
        r_register,
        r_shared,
        r_device,
        w_device,
        s_device,
    })
}

/// [`predict_with`] over many candidates at once: the batched screening hot
/// path. Candidates are evaluated in chunks of up to [`BATCH_LANES`] lanes
/// over the per-axis SoA tables of [`ScreeningContext::fill_batch_tables`],
/// with every float accumulator widened to a lane array so the per-axis and
/// per-operand loops run lane-minor over contiguous memory.
///
/// Each lane executes exactly the floating-point operation sequence of
/// scalar [`predict_with`] (the integer hoisting differs, but integers are
/// exact), so every result is **bit-identical** to the scalar path — asserted
/// by the unit tests `predict_batch_is_bit_identical_to_predict_with` and
/// `predict_batch_isolates_malformed_candidates` and by the `property_tests`
/// proptest `batched_screening_is_bit_identical_to_scalar_screening` over
/// random arenas.
///
/// Results are appended to `out` in candidate order; structurally malformed
/// candidates (wrong axis count) yield `Err(SimError::ScheduleAxisMismatch)`
/// in their slot without disturbing neighbouring lanes.
pub fn predict_batch(
    ctx: &ScreeningContext,
    schedules: &[&Schedule],
    out: &mut Vec<Result<PerfBreakdown, SimError>>,
) {
    let mut tables = BatchTables::default();
    predict_batch_with(ctx, schedules, &mut tables, out);
}

/// [`predict_batch`] with caller-owned scratch [`BatchTables`], so a loop
/// that screens generation after generation reuses one allocation.
pub fn predict_batch_with(
    ctx: &ScreeningContext,
    schedules: &[&Schedule],
    tables: &mut BatchTables,
    out: &mut Vec<Result<PerfBreakdown, SimError>>,
) {
    let n = ctx.axes.len();
    out.reserve(schedules.len());
    let mut results = [PerfBreakdown::default(); BATCH_LANES];
    for chunk in schedules.chunks(BATCH_LANES) {
        let width = chunk.iter().filter(|s| s.grid.len() == n).count();
        // Fast path: a full chunk of structurally valid candidates maps
        // straight onto the lanes with no compaction bookkeeping.
        if width == BATCH_LANES {
            let lanes: &[&Schedule; BATCH_LANES] = chunk.try_into().expect("full chunk");
            predict_chunk(ctx, lanes, tables, &mut results);
            for r in &results {
                out.push(Ok(*r));
            }
            continue;
        }
        // A padded chunk pays for eight lanes: 320–380 ns on a 2-core AVX-512
        // Xeon, against 115–140 ns a `predict_with`, so two valid lanes or
        // fewer go one by one (and malformed ones are rejected alike).
        if width <= 2 {
            out.extend(chunk.iter().map(|s| predict_with(ctx, s)));
            continue;
        }
        // Compact the structurally valid candidates into lanes; malformed
        // ones are rejected up front exactly like the scalar path.
        let mut lanes = [chunk[0]; BATCH_LANES];
        let mut lane_of = [usize::MAX; BATCH_LANES];
        let mut next = 0usize;
        for (c, s) in chunk.iter().enumerate() {
            if s.grid.len() == n {
                lanes[next] = s;
                lane_of[c] = next;
                next += 1;
            }
        }
        // Pad short chunks with the first valid lane: every inner loop then
        // runs exactly BATCH_LANES trips (the shape the vectoriser needs),
        // and the duplicated lanes' results are simply never read.
        for l in width..BATCH_LANES {
            lanes[l] = lanes[0];
        }
        predict_chunk(ctx, &lanes, tables, &mut results);
        for (c, _) in chunk.iter().enumerate() {
            out.push(match lane_of[c] {
                usize::MAX => Err(SimError::ScheduleAxisMismatch),
                l => Ok(results[l]),
            });
        }
    }
}

/// Evaluates one full chunk of [`BATCH_LANES`] structurally valid schedules
/// (short chunks arrive padded with a duplicate lane), dispatching to the
/// widest vector ISA the running CPU offers. The compiled variants differ
/// only in vector width and instruction selection: Rust never contracts
/// separate multiplies and adds into FMAs, so every elementwise IEEE result
/// — and therefore the search trajectory — is identical on every path.
fn predict_chunk(
    ctx: &ScreeningContext,
    lanes: &[&Schedule; BATCH_LANES],
    tables: &mut BatchTables,
    results: &mut [PerfBreakdown; BATCH_LANES],
) {
    #[cfg(target_arch = "x86_64")]
    {
        // 8 f64 lanes fill exactly one zmm register; AVX-512DQ adds the
        // 64-bit integer multiplies and i64->f64 converts the integer
        // product loops need, which AVX2 and baseline SSE2 lack.
        if std::is_x86_feature_detected!("avx512dq") {
            // SAFETY: feature presence checked at runtime on this CPU.
            return unsafe { predict_chunk_avx512(ctx, lanes, tables, results) };
        }
        if std::is_x86_feature_detected!("avx2") {
            // SAFETY: feature presence checked at runtime on this CPU.
            return unsafe { predict_chunk_avx2(ctx, lanes, tables, results) };
        }
    }
    predict_chunk_impl(ctx, lanes, tables, results);
}

/// [`predict_chunk_impl`] compiled for AVX-512F/DQ (8-wide f64, vector
/// `i64` multiply and convert).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f", enable = "avx512dq")]
unsafe fn predict_chunk_avx512(
    ctx: &ScreeningContext,
    lanes: &[&Schedule; BATCH_LANES],
    tables: &mut BatchTables,
    results: &mut [PerfBreakdown; BATCH_LANES],
) {
    predict_chunk_impl(ctx, lanes, tables, results);
}

/// [`predict_chunk_impl`] compiled for AVX2 (4-wide f64).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn predict_chunk_avx2(
    ctx: &ScreeningContext,
    lanes: &[&Schedule; BATCH_LANES],
    tables: &mut BatchTables,
    results: &mut [PerfBreakdown; BATCH_LANES],
) {
    predict_chunk_impl(ctx, lanes, tables, results);
}

/// Mirrors [`predict_with`] term by term with every scalar widened to a
/// `[f64; BATCH_LANES]` accumulator; the fixed width keeps every inner loop
/// a constant BATCH_LANES trips so they unroll and vectorise.
#[inline(always)]
fn predict_chunk_impl(
    ctx: &ScreeningContext,
    lanes: &[&Schedule; BATCH_LANES],
    tables: &mut BatchTables,
    results: &mut [PerfBreakdown; BATCH_LANES],
) {
    let n = ctx.axes.len();
    ctx.fill_batch_tables(lanes, tables);
    // Slicing to the exact table extent lets the compiler prove every
    // `i * BATCH_LANES + l` access in-bounds and drop the checks.
    let need = n * BATCH_LANES;
    let blk = &tables.blk[..need];
    let sub = &tables.sub[..need];
    let steps = &tables.steps[..need];
    let wsub = &tables.wsub[..need];

    // ---- level 0: intrinsic issue ----------------------------------------
    let mut calls = [1f64; BATCH_LANES];
    for i in 0..n {
        let row = i * BATCH_LANES;
        for (l, c) in calls.iter_mut().enumerate() {
            *c *= sub[row + l] as f64;
        }
    }
    let mut l0 = [0f64; BATCH_LANES];
    for l in 0..BATCH_LANES {
        l0[l] = calls[l] * ctx.initiation_interval;
    }

    // ---- register-level read ----------------------------------------------
    let mut register_bytes = [0f64; BATCH_LANES];
    for m in 0..ctx.num_srcs {
        let mut reuse = [1i64; BATCH_LANES];
        let mut bits = ctx.tile_spatial_mask & !ctx.operand_masks[m];
        while bits != 0 {
            let i = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let row = i * BATCH_LANES;
            for (l, r) in reuse.iter_mut().enumerate() {
                *r *= wsub[row + l];
            }
        }
        let frag = ctx.src_frag_bytes[m] as f64;
        for l in 0..BATCH_LANES {
            register_bytes[l] += calls[l] / reuse[l].max(1) as f64 * frag;
        }
    }
    let mut r_register = [0f64; BATCH_LANES];
    for l in 0..BATCH_LANES {
        r_register[l] = register_bytes[l] * ctx.inv_register_bw;
    }

    // ---- staging-level read -----------------------------------------------
    // Same integer product as `ScreeningContext::block_read_bytes`, but the
    // per-axis chunks and staging steps come from the shared tables instead
    // of being re-derived per operand.
    let mut block_read = [0f64; BATCH_LANES];
    for m in 0..ctx.num_srcs {
        let mask = ctx.operand_masks[m];
        let mut bytes_per_pass = [1i64; BATCH_LANES];
        let mut passes = [1i64; BATCH_LANES];
        for (i, a) in ctx.axes.iter().enumerate() {
            let row = i * BATCH_LANES;
            if mask >> i & 1 == 1 {
                for (l, b) in bytes_per_pass.iter_mut().enumerate() {
                    *b *= blk[row + l];
                }
            } else if a.kind.is_spatial() {
                for (l, p) in passes.iter_mut().enumerate() {
                    *p *= steps[row + l];
                }
            }
        }
        let frag = ctx.src_frag_bytes[m];
        for l in 0..BATCH_LANES {
            block_read[l] += (bytes_per_pass[l] as u64 * passes[l] as u64 * frag) as f64;
        }
    }

    // ---- device-level write volume -----------------------------------------
    let mut dst_tiles = [1f64; BATCH_LANES];
    let mut bits = ctx.operand_masks[ctx.num_srcs] & ctx.spatial_mask;
    while bits != 0 {
        let i = bits.trailing_zeros() as usize;
        bits &= bits - 1;
        let row = i * BATCH_LANES;
        for (l, d) in dst_tiles.iter_mut().enumerate() {
            *d *= blk[row + l] as f64;
        }
    }

    // ---- remaining terms + hierarchy recursion, per lane -------------------
    for l in 0..BATCH_LANES {
        let r_shared = block_read[l] * ctx.inv_shared_bw;
        let blocks = tables.blocks[l] as f64;
        let active = blocks.min(ctx.cores);
        let r_device = block_read[l] * (active * ctx.inv_device_load_bw);
        let write_bytes = dst_tiles[l] * ctx.dst_frag_bytes as f64;
        let w_device = write_bytes * (active * ctx.inv_device_store_bw);
        let l1 = l0[l].max(r_register[l]);
        let l2 = l1.max(r_shared).max(r_device).max(w_device);
        let s_device = blocks * ctx.inv_cores;
        let cycles = s_device.max(1.0) * l2;
        results[l] = PerfBreakdown {
            cycles,
            l0_compute: l0[l],
            r_register: r_register[l],
            r_shared,
            r_device,
            w_device,
            s_device,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amos_hw::catalog;
    use amos_ir::{ComputeBuilder, DType};
    use amos_sim::FusedGroup;

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
    fn prediction_tracks_simulation_direction() {
        let prog = gemm_prog(2048, 2048, 512);
        let accel = catalog::v100();
        let naive = Schedule::naive(&prog);
        let good = Schedule::balanced(&prog, &accel);
        let p_naive = predict(&prog, &naive, &accel).unwrap().cycles;
        let p_good = predict(&prog, &good, &accel).unwrap().cycles;
        assert!(p_good < p_naive, "model must prefer the better schedule");

        let s_naive = amos_sim::simulate(&prog, &naive, &accel).unwrap().cycles;
        let s_good = amos_sim::simulate(&prog, &good, &accel).unwrap().cycles;
        assert!(s_good < s_naive);
    }

    #[test]
    fn model_underestimates_the_simulator() {
        // The model omits launch overhead, fill and barriers, so it should
        // not exceed the simulator for the same configuration.
        let prog = gemm_prog(1024, 1024, 256);
        let accel = catalog::v100();
        let s = Schedule::balanced(&prog, &accel);
        let predicted = predict(&prog, &s, &accel).unwrap().cycles;
        let simulated = amos_sim::simulate(&prog, &s, &accel).unwrap().cycles;
        assert!(predicted <= simulated);
    }

    #[test]
    fn more_bandwidth_never_hurts() {
        let prog = gemm_prog(1024, 1024, 1024);
        let mut accel = catalog::v100();
        let s = Schedule::balanced(&prog, &accel);
        let base = predict(&prog, &s, &accel).unwrap().cycles;
        accel.levels.last_mut().unwrap().memory.load_bytes_per_cycle *= 2.0;
        let faster = predict(&prog, &s, &accel).unwrap().cycles;
        assert!(faster <= base);
    }

    #[test]
    fn breakdown_terms_are_nonnegative() {
        let prog = gemm_prog(256, 256, 256);
        let accel = catalog::a100();
        let b = predict(&prog, &Schedule::naive(&prog), &accel).unwrap();
        assert!(b.l0_compute > 0.0);
        assert!(b.r_register >= 0.0);
        assert!(b.r_shared >= 0.0);
        assert!(b.r_device >= 0.0);
        assert!(b.w_device >= 0.0);
        assert!(b.cycles >= b.l0_compute.min(b.r_device));
    }

    #[test]
    fn mismatched_schedule_rejected_without_allocating() {
        let prog = gemm_prog(256, 256, 256);
        let accel = catalog::v100();
        let mut s = Schedule::naive(&prog);
        s.grid.pop();
        // Both paths reject with the payload-free structural variant.
        assert!(matches!(
            predict(&prog, &s, &accel),
            Err(SimError::ScheduleAxisMismatch)
        ));
        let ctx = prog.screening_context(&accel);
        assert!(matches!(
            predict_with(&ctx, &s),
            Err(SimError::ScheduleAxisMismatch)
        ));
    }

    fn assert_bitwise_equal(a: &PerfBreakdown, b: &PerfBreakdown) {
        for (x, y) in [
            (a.cycles, b.cycles),
            (a.l0_compute, b.l0_compute),
            (a.r_register, b.r_register),
            (a.r_shared, b.r_shared),
            (a.r_device, b.r_device),
            (a.w_device, b.w_device),
            (a.s_device, b.s_device),
        ] {
            assert_eq!(x.to_bits(), y.to_bits(), "{x} != {y} bitwise");
        }
    }

    #[test]
    fn predict_with_is_bit_identical_to_predict() {
        use crate::explore::random_schedule;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let prog = gemm_prog(1024, 768, 512);
        for accel in [catalog::v100(), catalog::a100()] {
            let ctx = prog.screening_context(&accel);
            let mut rng = StdRng::seed_from_u64(0xA5);
            let naive = Schedule::naive(&prog);
            let balanced = Schedule::balanced(&prog, &accel);
            assert_bitwise_equal(
                &predict(&prog, &naive, &accel).unwrap(),
                &predict_with(&ctx, &naive).unwrap(),
            );
            assert_bitwise_equal(
                &predict(&prog, &balanced, &accel).unwrap(),
                &predict_with(&ctx, &balanced).unwrap(),
            );
            for _ in 0..64 {
                let s = random_schedule(&prog, &accel, &mut rng);
                assert_bitwise_equal(
                    &predict(&prog, &s, &accel).unwrap(),
                    &predict_with(&ctx, &s).unwrap(),
                );
            }
        }
    }

    #[test]
    fn predict_batch_is_bit_identical_to_predict_with() {
        use crate::explore::random_schedule;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let prog = gemm_prog(1024, 768, 512);
        for accel in [catalog::v100(), catalog::a100()] {
            let ctx = prog.screening_context(&accel);
            let mut rng = StdRng::seed_from_u64(0xBA7C);
            let scheds: Vec<Schedule> = (0..64)
                .map(|_| random_schedule(&prog, &accel, &mut rng))
                .collect();
            // Every batch width from a single remainder lane up to several
            // full chunks must agree lane-for-lane with the scalar path.
            for count in [1, 2, 7, 8, 9, 16, 17, 63, 64] {
                let lanes: Vec<&Schedule> = scheds[..count].iter().collect();
                let mut out = Vec::new();
                predict_batch(&ctx, &lanes, &mut out);
                assert_eq!(out.len(), count);
                for (s, got) in lanes.iter().zip(&out) {
                    assert_bitwise_equal(&predict_with(&ctx, s).unwrap(), got.as_ref().unwrap());
                }
            }
        }
    }

    #[test]
    fn predict_batch_isolates_malformed_candidates() {
        use crate::explore::random_schedule;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let prog = gemm_prog(512, 512, 256);
        let accel = catalog::v100();
        let ctx = prog.screening_context(&accel);
        let mut rng = StdRng::seed_from_u64(7);
        let scheds: Vec<Schedule> = (0..10)
            .map(|_| random_schedule(&prog, &accel, &mut rng))
            .collect();
        let mut malformed = scheds.clone();
        for (i, s) in malformed.iter_mut().enumerate() {
            match i % 3 {
                0 => {
                    s.grid.pop();
                }
                1 => s.grid.push(1),
                _ => s.grid.clear(),
            }
        }
        // Every chunk width and every pattern of structurally broken lanes:
        // full, padded and narrow chunks alike, broken lanes must error
        // while every neighbour still matches the scalar path bitwise.
        for width in 1..=BATCH_LANES {
            for broken in 0u32..1 << width {
                let lanes: Vec<&Schedule> = (0..width)
                    .map(|i| [&scheds[i], &malformed[i]][(broken >> i & 1) as usize])
                    .collect();
                let mut out = Vec::new();
                predict_batch(&ctx, &lanes, &mut out);
                assert_eq!(out.len(), lanes.len());
                for (i, (s, got)) in lanes.iter().zip(&out).enumerate() {
                    if broken >> i & 1 == 1 {
                        assert!(
                            matches!(got, Err(SimError::ScheduleAxisMismatch)),
                            "lane {i} of {broken:#b} must reject the malformed schedule"
                        );
                    } else {
                        let want = predict_with(&ctx, s).unwrap();
                        assert_bitwise_equal(&want, got.as_ref().unwrap());
                    }
                }
            }
        }
    }
}
