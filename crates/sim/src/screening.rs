//! Precomputed screening tables for the analytic performance model.
//!
//! The genetic explorer screens thousands of (mapping × schedule) candidates
//! per generation. Every quantity the analytic model needs that depends only
//! on the `(MappedProgram, AcceleratorSpec)` pair — axis kinds, per-operand
//! axis-usage bitmasks, fragment byte sizes, bandwidth reciprocals, memory
//! capacities — is folded into a [`ScreeningContext`] once, so the per-
//! candidate evaluation is straight-line arithmetic over flat tables with no
//! allocation, no hash lookups and no `String` error construction.
//!
//! The context is cached on [`MappedProgram`] next to its loop-nest shape
//! (see [`MappedProgram::screening_context`]); predictions computed through
//! it are bit-identical to the reference model, which the core crate asserts
//! in unit tests and a proptest.

use crate::program::{Axis, AxisKind, MappedProgram, MAX_AXES};
use crate::schedule::{subcores_per_core, Schedule};
use amos_hw::{AcceleratorSpec, OperandRef};

/// Number of candidate lanes the batched screening path evaluates together
/// (see [`ScreeningContext::fill_batch_tables`] and
/// `amos_core::perf_model::predict_batch`). Eight `f64` lanes fill two AVX2
/// registers (or one AVX-512 register), and the remainder chunk of a batch
/// simply runs with fewer live lanes.
pub const BATCH_LANES: usize = 8;

/// Reusable per-axis, per-lane integer tables for one chunk of schedules.
///
/// Layout is axis-major, lane-minor: entry `i * BATCH_LANES + l` belongs to
/// axis `i` of lane (candidate) `l`, so the model's per-axis loops walk
/// contiguous lanes — the shape auto-vectorisers want. The buffers grow to
/// the widest program seen and are never shrunk, so a caller that keeps one
/// `BatchTables` alive screens entire generations without allocating.
#[derive(Debug, Default)]
pub struct BatchTables {
    /// Per-block chunk of each axis (`Schedule::block_chunk`).
    pub blk: Vec<i64>,
    /// Per-sub-core chunk of each axis (`Schedule::subcore_chunk`).
    pub sub: Vec<i64>,
    /// Sequential staging steps along spatial axes
    /// (`Schedule::spatial_steps`); untouched on non-spatial axes.
    pub steps: Vec<i64>,
    /// Per-axis register reuse factor `warp.min(sub)` — the model's
    /// register-level walk reads it on tile-spatial axes, precomputed here so
    /// the walk never chases `Schedule` pointers.
    pub wsub: Vec<i64>,
    /// Blocks launched by each lane (`Schedule::blocks`).
    pub blocks: [i64; BATCH_LANES],
}

/// [`div_ceil`](crate::div_ceil) with a shift fast path for power-of-two
/// divisors — the only factors the schedule sampler emits. Value-identical
/// to the plain division for every positive divisor, so the batched tables
/// stay integer-identical to the scalar helpers.
#[inline]
fn div_ceil_pow2(a: i64, b: i64) -> i64 {
    debug_assert!(b > 0);
    let t = a + b - 1;
    if b > 0 && b & (b - 1) == 0 {
        t >> b.trailing_zeros()
    } else {
        t / b
    }
}

/// Flat, allocation-free view of everything the analytic model and the
/// schedule sampler need about one `(MappedProgram, AcceleratorSpec)` pair.
///
/// Axis sets are stored twice: as `u64` bitmasks (for the model's masked
/// products) and as index lists (for the sampler's uniform `choose` draws,
/// which must see the same list lengths as the reference implementation).
#[derive(Debug, Clone, PartialEq)]
pub struct ScreeningContext {
    /// The program's loop axes, outer-to-inner (a copy of
    /// [`MappedProgram::axes`], so borrowing the context does not borrow the
    /// program).
    pub axes: Vec<Axis>,
    /// Number of intrinsic source operands.
    pub num_srcs: usize,
    /// Bit `i` set when axis `i` is spatial (outer or tile).
    pub spatial_mask: u64,
    /// Bit `i` set when axis `i` is a spatial tile loop.
    pub tile_spatial_mask: u64,
    /// Bit `i` set when axis `i` is a reduction tile loop.
    pub tile_reduction_mask: u64,
    /// `operand_masks[o]` has bit `i` set when operand row `o` (sources then
    /// destination) depends on axis `i` — the bitmask form of
    /// [`MappedProgram::operand_uses_axis`].
    pub operand_masks: Vec<u64>,
    /// Fragment bytes of each source operand.
    pub src_frag_bytes: Vec<u64>,
    /// Fragment bytes of the destination operand.
    pub dst_frag_bytes: u64,
    /// Intrinsic initiation interval, in cycles (as `f64`).
    pub initiation_interval: f64,
    /// Reciprocal register-level load bandwidth; `0.0` when the level
    /// reports zero bandwidth (the reference model skips the term).
    pub inv_register_bw: f64,
    /// Reciprocal staging-level load bandwidth; `0.0` on zero bandwidth.
    pub inv_shared_bw: f64,
    /// Reciprocal device load bandwidth (unguarded: zero bandwidth is a
    /// hard `inf`, matching the reference).
    pub inv_device_load_bw: f64,
    /// Reciprocal device store bandwidth (unguarded).
    pub inv_device_store_bw: f64,
    /// Cores below the staging level, as `f64`.
    pub cores: f64,
    /// `1.0 / cores`.
    pub inv_cores: f64,
    /// Sub-cores per core.
    pub subcores: i64,
    /// Staging-memory capacity per core, in bytes.
    pub shared_capacity_bytes: u64,
    /// Register capacity per PE array, in bytes.
    pub register_capacity_bytes: u64,
    /// Indices of spatial axes, ascending (the sampler's sub-core draw).
    pub spatial_axes: Vec<usize>,
    /// Indices of non-spatial (reduction) axes, ascending.
    pub nonspatial_axes: Vec<usize>,
    /// Indices of spatial tile axes, ascending.
    pub tile_spatial_axes: Vec<usize>,
    /// Indices of reduction tile axes, ascending.
    pub tile_reduction_axes: Vec<usize>,
}

impl ScreeningContext {
    /// Folds a `(program, accelerator)` pair into flat screening tables,
    /// reading only the program's loop-nest shape. Infallible: every
    /// [`MappedProgram`] is checked at construction to have at most
    /// 64 loop axes, the width of the bitmasks here.
    pub fn build(prog: &MappedProgram, accel: &AcceleratorSpec) -> Self {
        let axes = prog.axes().to_vec();
        debug_assert!(axes.len() <= MAX_AXES, "MappedProgram::new bounds the axes");
        let intr = prog.intrinsic();
        let num_srcs = intr.compute.num_srcs();

        let mut spatial_mask = 0u64;
        let mut tile_spatial_mask = 0u64;
        let mut tile_reduction_mask = 0u64;
        let mut spatial_axes = Vec::new();
        let mut nonspatial_axes = Vec::new();
        let mut tile_spatial_axes = Vec::new();
        let mut tile_reduction_axes = Vec::new();
        for (i, a) in axes.iter().enumerate() {
            if a.kind.is_spatial() {
                spatial_mask |= 1 << i;
                spatial_axes.push(i);
            } else {
                nonspatial_axes.push(i);
            }
            match a.kind {
                AxisKind::TileSpatial(_) => {
                    tile_spatial_mask |= 1 << i;
                    tile_spatial_axes.push(i);
                }
                AxisKind::TileReduction(_) => {
                    tile_reduction_mask |= 1 << i;
                    tile_reduction_axes.push(i);
                }
                _ => {}
            }
        }
        let operand_masks: Vec<u64> = (0..=num_srcs)
            .map(|row| {
                let mut m = 0u64;
                for (i, a) in axes.iter().enumerate() {
                    if prog.operand_uses_axis(row, a) {
                        m |= 1 << i;
                    }
                }
                m
            })
            .collect();

        let shared_level = accel.shared_level();
        let device = accel.levels.last().expect("accelerator has levels");
        let reg_bw = accel.levels[0].memory.load_bytes_per_cycle;
        let shared_bw = accel.levels[shared_level].memory.load_bytes_per_cycle;
        let cores = accel.total_units(shared_level) as f64;

        ScreeningContext {
            num_srcs,
            spatial_mask,
            tile_spatial_mask,
            tile_reduction_mask,
            operand_masks,
            src_frag_bytes: (0..num_srcs)
                .map(|m| intr.fragment_bytes(OperandRef::Src(m)))
                .collect(),
            dst_frag_bytes: intr.fragment_bytes(OperandRef::Dst),
            initiation_interval: intr.initiation_interval as f64,
            inv_register_bw: if reg_bw > 0.0 { 1.0 / reg_bw } else { 0.0 },
            inv_shared_bw: if shared_bw > 0.0 {
                1.0 / shared_bw
            } else {
                0.0
            },
            inv_device_load_bw: 1.0 / device.memory.load_bytes_per_cycle,
            inv_device_store_bw: 1.0 / device.memory.store_bytes_per_cycle,
            cores,
            inv_cores: 1.0 / cores,
            subcores: subcores_per_core(accel) as i64,
            shared_capacity_bytes: accel.levels[shared_level].memory.capacity_bytes,
            register_capacity_bytes: accel.levels[0].memory.capacity_bytes,
            spatial_axes,
            nonspatial_axes,
            tile_spatial_axes,
            tile_reduction_axes,
            axes,
        }
    }

    /// Whether this context was built against an accelerator with the same
    /// model-relevant parameters as `accel`. Exact value comparison, not a
    /// hash — a mutated accelerator can never be mistaken for the cached one.
    pub fn matches(&self, accel: &AcceleratorSpec) -> bool {
        let shared_level = accel.shared_level();
        let device = accel.levels.last().expect("accelerator has levels");
        let reg_bw = accel.levels[0].memory.load_bytes_per_cycle;
        let shared_bw = accel.levels[shared_level].memory.load_bytes_per_cycle;
        self.inv_register_bw == if reg_bw > 0.0 { 1.0 / reg_bw } else { 0.0 }
            && self.inv_shared_bw
                == if shared_bw > 0.0 {
                    1.0 / shared_bw
                } else {
                    0.0
                }
            && self.inv_device_load_bw == 1.0 / device.memory.load_bytes_per_cycle
            && self.inv_device_store_bw == 1.0 / device.memory.store_bytes_per_cycle
            && self.cores == accel.total_units(shared_level) as f64
            && self.subcores == subcores_per_core(accel) as i64
            && self.shared_capacity_bytes == accel.levels[shared_level].memory.capacity_bytes
            && self.register_capacity_bytes == accel.levels[0].memory.capacity_bytes
    }

    /// Bytes of one source operand loaded from global memory by one block.
    /// Integer-identical to [`Schedule::block_read_bytes`].
    pub fn block_read_bytes(&self, s: &Schedule, m: usize) -> u64 {
        let axes = &self.axes[..];
        let mask = self.operand_masks[m];
        let mut bytes_per_pass = 1i64;
        let mut passes = 1i64;
        for (i, a) in axes.iter().enumerate() {
            if mask >> i & 1 == 1 {
                bytes_per_pass *= s.block_chunk(axes, i);
            } else if a.kind.is_spatial() {
                passes *= s.spatial_steps(axes, i);
            }
        }
        bytes_per_pass as u64 * passes as u64 * self.src_frag_bytes[m]
    }

    /// Staging bytes per core. Integer-identical to
    /// [`Schedule::shared_footprint_bytes`].
    pub fn shared_footprint_bytes(&self, s: &Schedule) -> u64 {
        let axes = &self.axes[..];
        let mut total = 0u64;
        for m in 0..self.num_srcs {
            let mask = self.operand_masks[m];
            let mut tiles = 1i64;
            for i in 0..axes.len() {
                if mask >> i & 1 == 1 {
                    tiles *= s.resident_tiles(axes, i);
                }
            }
            total += tiles as u64 * self.src_frag_bytes[m];
        }
        if s.double_buffer {
            total *= 2;
        }
        total
    }

    /// Register bytes per PE array. Integer-identical to
    /// [`Schedule::register_footprint_bytes`].
    pub fn register_footprint_bytes(&self, s: &Schedule) -> u64 {
        let axes = &self.axes[..];
        let dst_mask = self.operand_masks[self.num_srcs] & self.tile_spatial_mask;
        let mut dst_tiles = 1i64;
        let mut bits = dst_mask;
        while bits != 0 {
            let i = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            dst_tiles *= s.warp[i].min(s.subcore_chunk(axes, i));
        }
        let mut total = dst_tiles as u64 * self.dst_frag_bytes;
        for m in 0..self.num_srcs {
            let mask = self.operand_masks[m] & self.tile_spatial_mask;
            let mut tiles = 1i64;
            let mut bits = mask;
            while bits != 0 {
                let i = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                tiles *= s.warp[i].min(s.subcore_chunk(axes, i));
            }
            total += tiles as u64 * self.src_frag_bytes[m];
        }
        total
    }

    /// Fills the per-axis SoA tables for one full chunk of [`BATCH_LANES`]
    /// schedules, computing every integer quantity the analytic model needs
    /// exactly once per (axis, lane) — the scalar path re-derives block
    /// chunks and staging steps once per *operand*, so batching also halves
    /// the integer divisions before the float part even starts.
    ///
    /// Every lane must already have this context's axis count; the batched
    /// predictor rejects mismatched candidates and pads short chunks with a
    /// valid lane before gathering. The fixed width keeps every inner loop a
    /// constant [`BATCH_LANES`] trips, which is what lets the compiler
    /// unroll and vectorise them.
    #[inline]
    pub fn fill_batch_tables(&self, lanes: &[&Schedule; BATCH_LANES], t: &mut BatchTables) {
        let axes = &self.axes[..];
        let need = axes.len() * BATCH_LANES;
        if t.blk.len() < need {
            t.blk.resize(need, 1);
            t.sub.resize(need, 1);
            t.steps.resize(need, 1);
            t.wsub.resize(need, 1);
        }
        let n = axes.len();
        let (blk_t, sub_t) = (&mut t.blk[..need], &mut t.sub[..need]);
        let (wsub_t, steps_t) = (&mut t.wsub[..need], &mut t.steps[..need]);
        // Lane-major: each lane's schedule vectors are sliced to the axis
        // count once, hoisting both the `Schedule` pointer chase and the
        // bounds checks out of the per-axis loop.
        for (l, s) in lanes.iter().enumerate() {
            let grid = &s.grid[..n];
            let split_k = &s.split_k[..n];
            let subcore = &s.subcore[..n];
            let warp = &s.warp[..n];
            for (i, a) in axes.iter().enumerate() {
                let blk = div_ceil_pow2(a.extent, grid[i] * split_k[i]);
                let sub = div_ceil_pow2(blk, subcore[i]);
                let row = i * BATCH_LANES + l;
                blk_t[row] = blk;
                sub_t[row] = sub;
                wsub_t[row] = warp[i].min(sub);
                // Staging steps are only ever read on spatial axes (the
                // model's pass count for operands that skip the axis).
                if a.kind.is_spatial() {
                    let resident = if matches!(a.kind, AxisKind::TileSpatial(_)) {
                        (subcore[i] * warp[i]).min(blk)
                    } else {
                        1
                    };
                    steps_t[row] = div_ceil_pow2(blk, resident);
                }
            }
            t.blocks[l] = s.blocks();
        }
    }

    /// Allocation-free mirror of [`Schedule::validate`]: the same checks, a
    /// `bool` verdict instead of error construction. Used by schedule repair,
    /// which probes feasibility up to 16 times per candidate.
    pub fn schedule_feasible(&self, s: &Schedule) -> bool {
        let axes = &self.axes[..];
        let n = axes.len();
        if s.grid.len() != n
            || s.split_k.len() != n
            || s.subcore.len() != n
            || s.stage.len() != n
            || s.warp.len() != n
        {
            return false;
        }
        for v in [&s.grid, &s.split_k, &s.subcore, &s.stage, &s.warp] {
            if v.iter().any(|&x| x < 1) {
                return false;
            }
        }
        for (i, a) in axes.iter().enumerate() {
            let spatial = a.kind.is_spatial();
            if !spatial && (s.grid[i] != 1 || s.subcore[i] != 1) {
                return false;
            }
            if spatial && (s.split_k[i] != 1 || s.stage[i] != 1) {
                return false;
            }
            if s.warp[i] != 1 && !matches!(a.kind, AxisKind::TileSpatial(_)) {
                return false;
            }
            if s.grid[i] * s.split_k[i] > a.extent || s.subcore[i] > a.extent {
                return false;
            }
        }
        if s.subcore.iter().product::<i64>() > self.subcores {
            return false;
        }
        if self.shared_footprint_bytes(s) > self.shared_capacity_bytes {
            return false;
        }
        self.register_footprint_bytes(s) <= self.register_capacity_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
                crate::FusedGroup::of(vec![ids[0]]),
                crate::FusedGroup::of(vec![ids[1]]),
                crate::FusedGroup::of(vec![ids[2]]),
            ],
            vec![0, 1],
        )
        .unwrap()
    }

    #[test]
    fn masks_agree_with_operand_uses_axis() {
        let prog = gemm_prog(256, 256, 256);
        let ctx = ScreeningContext::build(&prog, &catalog::v100());
        for (row, mask) in ctx.operand_masks.iter().enumerate() {
            for (i, a) in ctx.axes.iter().enumerate() {
                assert_eq!(mask >> i & 1 == 1, prog.operand_uses_axis(row, a));
            }
        }
        for (i, a) in ctx.axes.iter().enumerate() {
            assert_eq!(ctx.spatial_mask >> i & 1 == 1, a.kind.is_spatial());
        }
        assert_eq!(ctx.num_srcs, 2);
        assert_eq!(ctx.src_frag_bytes, vec![512, 512]);
        assert_eq!(ctx.dst_frag_bytes, 1024);
    }

    #[test]
    fn footprints_match_schedule_helpers() {
        let prog = gemm_prog(512, 512, 512);
        let accel = catalog::v100();
        let ctx = ScreeningContext::build(&prog, &accel);
        let mut s = Schedule::balanced(&prog, &accel);
        s.warp[0] = 4;
        s.stage[2] = 2;
        assert_eq!(
            ctx.shared_footprint_bytes(&s),
            s.shared_footprint_bytes(&prog)
        );
        assert_eq!(
            ctx.register_footprint_bytes(&s),
            s.register_footprint_bytes(&prog)
        );
        for m in 0..ctx.num_srcs {
            assert_eq!(ctx.block_read_bytes(&s, m), s.block_read_bytes(&prog, m));
        }
    }

    #[test]
    fn feasibility_agrees_with_validate() {
        let prog = gemm_prog(256, 256, 4096);
        let accel = catalog::v100();
        let ctx = ScreeningContext::build(&prog, &accel);
        // A deterministic sweep over legal and illegal parameter combos.
        let mut s = Schedule::naive(&prog);
        for grid0 in [1, 2, 16, 512] {
            for splitk in [1, 4] {
                for warp in [1, 4, 64] {
                    for stage in [1, 2, 4096] {
                        s.grid[0] = grid0;
                        s.split_k[2] = splitk;
                        s.warp[1] = warp;
                        s.stage[2] = stage;
                        assert_eq!(
                            ctx.schedule_feasible(&s),
                            s.validate(&prog, &accel).is_ok(),
                            "feasibility diverges at grid={grid0} splitk={splitk} warp={warp} stage={stage}"
                        );
                    }
                }
            }
        }
        // Structural breakage: wrong vector length.
        s = Schedule::naive(&prog);
        s.grid.pop();
        assert!(!ctx.schedule_feasible(&s));
        assert!(s.validate(&prog, &accel).is_err());
    }

    #[test]
    fn div_ceil_pow2_matches_div_ceil() {
        use crate::program::div_ceil;
        for a in 0..200 {
            for b in 1..40 {
                assert_eq!(div_ceil_pow2(a, b), div_ceil(a, b), "a={a} b={b}");
            }
        }
    }

    #[test]
    fn batch_tables_match_scalar_schedule_helpers() {
        let prog = gemm_prog(512, 256, 1024);
        let accel = catalog::v100();
        let ctx = ScreeningContext::build(&prog, &accel);
        let axes = &ctx.axes[..];
        // A handful of distinct schedules, including non-trivial warp/stage
        // factors, batched together.
        let mut scheds = Vec::new();
        for (grid, splitk, warp, stage) in [
            (1, 1, 1, 1),
            (4, 2, 2, 2),
            (16, 1, 4, 4),
            (2, 4, 1, 8),
            (8, 2, 2, 1),
        ] {
            let mut s = Schedule::balanced(&prog, &accel);
            s.grid[0] = grid;
            s.split_k[2] = splitk;
            s.warp[1] = warp;
            s.stage[2] = stage;
            scheds.push(s);
        }
        // Short chunk padded to the fixed width with the first lane, as the
        // batched predictor does.
        let mut lanes = [&scheds[0]; BATCH_LANES];
        for (l, s) in scheds.iter().enumerate() {
            lanes[l] = s;
        }
        let mut t = BatchTables::default();
        ctx.fill_batch_tables(&lanes, &mut t);
        for (l, s) in lanes.iter().enumerate() {
            assert_eq!(t.blocks[l], s.blocks(), "lane {l}: blocks");
            for i in 0..axes.len() {
                let e = i * BATCH_LANES + l;
                assert_eq!(t.blk[e], s.block_chunk(axes, i), "lane {l} axis {i}: blk");
                assert_eq!(t.sub[e], s.subcore_chunk(axes, i), "lane {l} axis {i}: sub");
                assert_eq!(
                    t.wsub[e],
                    s.warp[i].min(s.subcore_chunk(axes, i)),
                    "lane {l} axis {i}: wsub"
                );
                if axes[i].kind.is_spatial() {
                    assert_eq!(
                        t.steps[e],
                        s.spatial_steps(axes, i),
                        "lane {l} axis {i}: steps"
                    );
                }
            }
        }
    }

    #[test]
    fn context_cache_is_shared_until_the_accel_changes() {
        let prog = gemm_prog(256, 256, 256);
        let mut accel = catalog::v100();
        let a = prog.screening_context(&accel);
        let b = prog.screening_context(&accel);
        assert!(std::sync::Arc::ptr_eq(&a, &b), "same accel must share");
        accel.levels.last_mut().unwrap().memory.load_bytes_per_cycle *= 2.0;
        let c = prog.screening_context(&accel);
        assert!(
            !std::sync::Arc::ptr_eq(&a, &c),
            "mutated accel must rebuild"
        );
        assert!(c.matches(&accel));
        assert!(!a.matches(&accel));
    }
}
