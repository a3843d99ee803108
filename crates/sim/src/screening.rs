//! The flat per-`(program, accelerator)` table under every per-candidate
//! operation of the search.
//!
//! The genetic explorer samples, repairs, screens and measures thousands of
//! (mapping × schedule) candidates per generation. Every quantity those
//! steps need that depends only on the `(MappedProgram, AcceleratorSpec)`
//! pair — axis kinds, per-operand axis-usage bitmasks, fragment byte sizes,
//! bandwidths and their reciprocals, memory capacities, core counts, the
//! intrinsic's latency, the operator's useful work — is folded into a
//! [`ScreeningContext`] once. It has three readers, each straight-line
//! arithmetic with no allocation, no hash lookups and no `String` error
//! construction: the analytic model (`amos_core::perf_model`), the schedule
//! sampler with its feasibility check ([`ScreeningContext::schedule_feasible`])
//! and the timing engine ([`ScreeningContext::simulate`], in
//! [`crate::timing`]).
//!
//! The context is cached on [`MappedProgram`] next to its loop-nest shape
//! (see [`MappedProgram::screening_context`]). Predictions computed through
//! it are bit-identical to the reference model (unit tests and a proptest in
//! the core crate); feasibility verdicts equal [`Schedule::validate`]'s (a
//! proptest here); timing reports are pinned by `tests/timing_digest.rs`.

use crate::error::SimError;
use crate::program::{Axis, AxisKind, MappedProgram, MAX_AXES};
use crate::schedule::{subcores_per_core, GeneChange, Schedule};
use amos_hw::AcceleratorSpec;

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
pub(crate) fn div_ceil_pow2(a: i64, b: i64) -> i64 {
    debug_assert!(b > 0);
    let t = a + b - 1;
    if b > 0 && b & (b - 1) == 0 {
        t >> b.trailing_zeros()
    } else {
        t / b
    }
}

/// What a feasible schedule makes of each axis, every integer derived once:
/// the feasibility check folds `resident` and `wsub` into the two
/// footprints, the timing engine folds all four into trip counts and
/// traffic. `N` is [`NARROW_AXES`] or [`MAX_AXES`], whichever first holds
/// the program's axes (filling four 64-entry arrays costs as much as the
/// check itself); entries past the axis count are unused.
pub(crate) struct AxisChunks<const N: usize> {
    /// Per-block chunk (`Schedule::block_chunk`).
    pub(crate) blk: [i64; N],
    /// Per-sub-core chunk (`Schedule::subcore_chunk`).
    pub(crate) sub: [i64; N],
    /// Tiles resident in staging memory (`Schedule::resident_tiles`).
    pub(crate) resident: [i64; N],
    /// Register reuse factor `warp.min(sub)`.
    pub(crate) wsub: [i64; N],
}

/// Axis count up to which the per-schedule scratch arrays take the narrow
/// form; every operator of the evaluation has at most eleven loop axes.
pub(crate) const NARROW_AXES: usize = 16;

/// Flat, allocation-free view of everything the analytic model, the timing
/// engine and the schedule sampler need about one
/// `(MappedProgram, AcceleratorSpec)` pair.
///
/// Axis sets are `u64` bitmasks, bit `i` for axis `i`: the model takes
/// masked products over them, and the timing engine, the balanced schedule
/// and the sampler walk their set bits in ascending order ([`set_bits`]).
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
    /// Bit `i` set when axis `i` is not spatial (a reduction loop).
    pub nonspatial_mask: u64,
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
    /// Intrinsic issue-to-retire latency, in cycles (as `f64`).
    pub latency: f64,
    /// Register-level load bandwidth as the machine states it: the timing
    /// engine derates and divides by the raw figures, the model multiplies
    /// by the reciprocals below.
    pub register_bw: f64,
    /// Staging-level load bandwidth.
    pub shared_bw: f64,
    /// Device load bandwidth.
    pub device_load_bw: f64,
    /// Device store bandwidth.
    pub device_store_bw: f64,
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
    /// The same count as the integer the timing engine's wave count uses.
    pub num_cores: i64,
    /// Useful scalar operations of the operator (`def.scalar_ops()`).
    pub useful_ops: f64,
    /// Peak tensor throughput of the device, scalar operations per cycle.
    pub peak_ops_per_cycle: f64,
    /// `1.0 / cores`.
    pub inv_cores: f64,
    /// Sub-cores per core.
    pub subcores: i64,
    /// Staging-memory capacity per core, in bytes.
    pub shared_capacity_bytes: u64,
    /// Register capacity per PE array, in bytes.
    pub register_capacity_bytes: u64,
}

impl ScreeningContext {
    /// Folds a `(program, accelerator)` pair into flat screening tables,
    /// reading only the program's loop-nest shape and its unit's facts.
    /// Infallible: every [`MappedProgram`] is checked at construction to
    /// have at most 64 loop axes, the width of the bitmasks here.
    pub fn build(prog: &MappedProgram, accel: &AcceleratorSpec) -> Self {
        let axes = prog.axes().to_vec();
        debug_assert!(axes.len() <= MAX_AXES, "MappedProgram::new bounds the axes");
        let intr = prog.intrinsic();
        let facts = &prog.facts;
        let num_srcs = facts.src_frag_bytes.len();

        let mut spatial_mask = 0u64;
        let mut nonspatial_mask = 0u64;
        let mut tile_spatial_mask = 0u64;
        let mut tile_reduction_mask = 0u64;
        for (i, a) in axes.iter().enumerate() {
            if a.kind.is_spatial() {
                spatial_mask |= 1 << i;
            } else {
                nonspatial_mask |= 1 << i;
            }
            match a.kind {
                AxisKind::TileSpatial(_) => tile_spatial_mask |= 1 << i,
                AxisKind::TileReduction(_) => tile_reduction_mask |= 1 << i,
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

        let registers = &accel.levels[0].memory;
        let shared_level = accel.shared_level();
        let shared = &accel.levels[shared_level].memory;
        let device = &accel.levels.last().expect("accelerator has levels").memory;
        let cores = accel.total_units(shared_level);
        let inv = |bw: f64| if bw > 0.0 { 1.0 / bw } else { 0.0 };

        ScreeningContext {
            num_srcs,
            spatial_mask,
            nonspatial_mask,
            tile_spatial_mask,
            tile_reduction_mask,
            operand_masks,
            src_frag_bytes: facts.src_frag_bytes.clone(),
            dst_frag_bytes: facts.dst_frag_bytes,
            initiation_interval: intr.initiation_interval as f64,
            latency: intr.latency as f64,
            register_bw: registers.load_bytes_per_cycle,
            shared_bw: shared.load_bytes_per_cycle,
            device_load_bw: device.load_bytes_per_cycle,
            device_store_bw: device.store_bytes_per_cycle,
            inv_register_bw: inv(registers.load_bytes_per_cycle),
            inv_shared_bw: inv(shared.load_bytes_per_cycle),
            inv_device_load_bw: 1.0 / device.load_bytes_per_cycle,
            inv_device_store_bw: 1.0 / device.store_bytes_per_cycle,
            cores: cores as f64,
            inv_cores: 1.0 / cores as f64,
            num_cores: cores as i64,
            useful_ops: facts.useful_ops,
            peak_ops_per_cycle: accel.peak_tensor_ops_per_cycle(),
            subcores: subcores_per_core(accel) as i64,
            shared_capacity_bytes: shared.capacity_bytes,
            register_capacity_bytes: registers.capacity_bytes,
            axes,
        }
    }

    /// The guard of every place contexts are born ([`crate::simulate`],
    /// [`Schedule::validate`], the explorer): [`ScreeningContext::build`] is
    /// infallible, and a machine without hierarchy levels, which user code
    /// can construct, would panic it.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidSchedule`] naming the accelerator.
    pub fn require_levels(accel: &AcceleratorSpec) -> Result<(), SimError> {
        if accel.levels.is_empty() {
            return Err(SimError::InvalidSchedule {
                detail: format!(
                    "accelerator `{}` has no memory hierarchy levels",
                    accel.name
                ),
            });
        }
        Ok(())
    }

    /// Whether this context was built against an accelerator with the same
    /// model-relevant parameters as `accel`. Exact value comparison, not a
    /// hash — a mutated accelerator can never be mistaken for the cached one.
    pub fn matches(&self, accel: &AcceleratorSpec) -> bool {
        let registers = &accel.levels[0].memory;
        let shared = &accel.levels[accel.shared_level()].memory;
        let device = &accel.levels.last().expect("accelerator has levels").memory;
        self.register_bw == registers.load_bytes_per_cycle
            && self.shared_bw == shared.load_bytes_per_cycle
            && self.device_load_bw == device.load_bytes_per_cycle
            && self.device_store_bw == device.store_bytes_per_cycle
            && self.num_cores == accel.total_units(accel.shared_level()) as i64
            && self.peak_ops_per_cycle == accel.peak_tensor_ops_per_cycle()
            && self.subcores == subcores_per_core(accel) as i64
            && self.shared_capacity_bytes == shared.capacity_bytes
            && self.register_capacity_bytes == registers.capacity_bytes
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
    ///
    /// Never inlined: one scalar-ISA copy measured 52 ns a candidate through
    /// `predict_batch` against 58 ns for a copy inlined into the model's
    /// AVX-512 body, and whether an `#[inline]` hint was taken turned on
    /// unrelated code in the calling crate.
    #[inline(never)]
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
        if self.axes.len() <= NARROW_AXES {
            self.chunks_if_feasible::<NARROW_AXES>(s).is_some()
        } else {
            self.chunks_if_feasible::<MAX_AXES>(s).is_some()
        }
    }

    /// Whether `s` is feasible, given that it was before `change` was
    /// applied to it: what the rule below reads of each kind of gene. It
    /// never reads `unroll` or `vectorize`; of `double_buffer` it reads only
    /// the doubling of the staging footprint, so turning it off cannot
    /// overflow a capacity that held; anything else is probed. Pinned by
    /// `tests/model_invariance.rs`.
    pub fn stays_feasible(&self, s: &Schedule, change: GeneChange) -> bool {
        match change {
            GeneChange::Nothing | GeneChange::Unroll | GeneChange::Vectorize => true,
            GeneChange::DoubleBuffer if !s.double_buffer => true,
            GeneChange::DoubleBuffer | GeneChange::Numeric => self.schedule_feasible(s),
        }
    }

    /// The feasibility check proper: one pass per axis applies the
    /// structural rules and derives the axis's chunks, then the staging and
    /// register footprints are folded over the operand bitmasks. `Some` with
    /// the derived chunks exactly when [`Schedule::validate`] accepts. `N`
    /// must hold the context's axes.
    pub(crate) fn chunks_if_feasible<const N: usize>(&self, s: &Schedule) -> Option<AxisChunks<N>> {
        let axes = &self.axes[..];
        let n = axes.len();
        let genes = [&s.grid, &s.split_k, &s.subcore, &s.stage, &s.warp];
        if n > N || genes.iter().any(|g| g.len() != n) {
            return None;
        }
        let mut c = AxisChunks {
            blk: [1; N],
            sub: [1; N],
            resident: [1; N],
            wsub: [1; N],
        };
        let mut sub_product = 1i64;
        for (i, a) in axes.iter().enumerate() {
            let (grid, split_k, subcore) = (s.grid[i], s.split_k[i], s.subcore[i]);
            let (stage, warp) = (s.stage[i], s.warp[i]);
            if grid.min(split_k).min(subcore).min(stage).min(warp) < 1 {
                return None;
            }
            let tile_spatial = matches!(a.kind, AxisKind::TileSpatial(_));
            let kind_ok = if a.kind.is_spatial() {
                split_k == 1 && stage == 1
            } else {
                grid == 1 && subcore == 1
            };
            // The kind rules leave at most one of `grid`, `split_k` above 1,
            // so the product below cannot overflow.
            if !kind_ok
                || (warp != 1 && !tile_spatial)
                || grid * split_k > a.extent
                || subcore > a.extent
            {
                return None;
            }
            let blk = div_ceil_pow2(a.extent, grid * split_k);
            let sub = div_ceil_pow2(blk, subcore);
            c.blk[i] = blk;
            c.sub[i] = sub;
            c.wsub[i] = warp.min(sub);
            c.resident[i] = match a.kind {
                AxisKind::TileSpatial(_) => (subcore * warp).min(blk),
                AxisKind::TileReduction(_) => stage.min(blk),
                AxisKind::OuterSpatial(_) | AxisKind::OuterReduction(_) => 1,
            };
            sub_product *= subcore;
        }
        if sub_product > self.subcores {
            return None;
        }
        let mut shared = 0u64;
        let mut registers = masked_product(
            &c.wsub,
            self.operand_masks[self.num_srcs] & self.tile_spatial_mask,
        ) as u64
            * self.dst_frag_bytes;
        for m in 0..self.num_srcs {
            let mask = self.operand_masks[m];
            shared += masked_product(&c.resident, mask) as u64 * self.src_frag_bytes[m];
            registers += masked_product(&c.wsub, mask & self.tile_spatial_mask) as u64
                * self.src_frag_bytes[m];
        }
        if s.double_buffer {
            shared *= 2;
        }
        (shared <= self.shared_capacity_bytes && registers <= self.register_capacity_bytes)
            .then_some(c)
    }
}

/// The set bits of `mask`, ascending: how an axis set of a
/// [`ScreeningContext`] is walked.
#[inline]
pub fn set_bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let bit = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            bit
        })
    })
}

/// Product of `values[i]` over the set bits `i` of `mask`, ascending.
#[inline]
pub(crate) fn masked_product<const N: usize>(values: &[i64; N], mut mask: u64) -> i64 {
    let mut product = 1i64;
    while mask != 0 {
        product *= values[mask.trailing_zeros() as usize];
        mask &= mask - 1;
    }
    product
}

#[cfg(test)]
mod tests {
    use super::*;
    use amos_hw::catalog;
    use amos_ir::{ComputeBuilder, DType};
    use proptest::prelude::*;

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
            assert_eq!(ctx.nonspatial_mask >> i & 1 == 1, !a.kind.is_spatial());
        }
        assert_eq!(ctx.num_srcs, 2);
        assert_eq!(ctx.src_frag_bytes, vec![512, 512]);
        assert_eq!(ctx.dst_frag_bytes, 1024);
    }

    #[test]
    fn block_read_bytes_match_the_schedule_helper() {
        let prog = gemm_prog(512, 512, 512);
        let accel = catalog::v100();
        let ctx = ScreeningContext::build(&prog, &accel);
        let mut s = Schedule::balanced(&prog, &accel);
        s.warp[0] = 4;
        s.stage[2] = 2;
        for m in 0..ctx.num_srcs {
            assert_eq!(ctx.block_read_bytes(&s, m), s.block_read_bytes(&prog, m));
        }
    }

    /// A batched product with an unmapped batch loop and an unmapped
    /// reduction loop: outer spatial and outer reduction axes around the
    /// three tile axes.
    fn outer_axes_prog(b_ext: i64, m: i64, r_ext: i64) -> MappedProgram {
        let mut b = ComputeBuilder::new("bgemm");
        let bb = b.spatial("b", b_ext);
        let i = b.spatial("i", m);
        let j = b.spatial("j", m);
        let kk = b.reduce("k", m);
        let r = b.reduce("r", r_ext);
        let a = b.input("a", &[b_ext, m, m, r_ext], DType::F16);
        let w = b.input("w", &[m, r_ext, m], DType::F16);
        let c = b.output("c", &[b_ext, m, m], DType::F32);
        b.mul_acc(c.at([bb, i, j]), a.at([bb, i, kk, r]), w.at([kk, r, j]));
        let def = b.finish().unwrap();
        MappedProgram::new(
            def,
            catalog::wmma_16x16x16(),
            vec![
                crate::FusedGroup::of(vec![i.id()]),
                crate::FusedGroup::of(vec![j.id()]),
                crate::FusedGroup::of(vec![kk.id()]),
            ],
            vec![0, 1],
        )
        .unwrap()
    }

    // Single-pass feasibility (and with it the timing engine's
    // accept/reject) equals `Schedule::validate` on arbitrary factor
    // vectors. Mode 0 draws anything — zeros, negatives, non-powers of
    // two, factors above the extent, wrong lengths; modes 1–3 draw
    // factors that respect the axis kinds, so the sub-core and capacity
    // rules decide, and modes 2 and 3 set the staging or register
    // capacity to exactly the schedule's footprint or one byte under it.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        fn single_pass_feasibility_equals_validate(
            case in 0usize..4,
            mode in 0usize..4,
            picks in prop::collection::vec(0usize..1024, 25),
            lens in prop::collection::vec(0usize..12, 5),
            toggles in 0usize..16,
        ) {
            let prog = match case {
                0 => gemm_prog(256, 256, 4096),
                1 => gemm_prog(200, 136, 1000),
                2 => outer_axes_prog(3, 96, 5),
                _ => outer_axes_prog(8, 512, 2),
            };
            let mut accel = if case % 2 == 0 { catalog::v100() } else { catalog::mali_g76() };
            let axes = prog.axes().to_vec();
            let n = axes.len();
            let mut s = Schedule::naive(&prog);
            s.double_buffer = toggles & 1 == 1;
            s.unroll = toggles & 2 == 2;
            s.vectorize = toggles & 4 == 4;
            for (v, genes) in [&mut s.grid, &mut s.split_k, &mut s.subcore, &mut s.stage, &mut s.warp]
                .into_iter()
                .enumerate()
            {
                for (i, a) in axes.iter().enumerate() {
                    let pick = picks[v * 5 + i];
                    let e = a.extent;
                    genes[i] = if mode == 0 {
                        let pool = [-3, 0, 1, 1, 2, 3, 4, 5, 7, 8, 16, 64, e - 1, e, e + 1, 1_000_000];
                        pool[pick % pool.len()]
                    } else {
                        let legal = match v {
                            0 | 2 => a.kind.is_spatial(),
                            1 | 3 => !a.kind.is_spatial(),
                            _ => matches!(a.kind, AxisKind::TileSpatial(_)),
                        };
                        let pool = if v == 2 {
                            [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 3, 4, e + 1]
                        } else {
                            [1, 1, 1, 2, 2, 2, 3, 4, 4, 5, 8, 8, 16, e, e, e + 1]
                        };
                        if legal { pool[pick % pool.len()] } else { 1 }
                    };
                }
                if mode == 0 {
                    match lens[v] {
                        0 => { genes.pop(); }
                        1 => genes.push(1),
                        _ => {}
                    }
                }
            }
            let structurally_sound = mode != 0
                && (0..n).all(|i| s.grid[i] * s.split_k[i] <= axes[i].extent);
            if structurally_sound && mode >= 2 {
                let under = (toggles >> 3) as u64;
                if mode == 2 {
                    let level = accel.shared_level();
                    accel.levels[level].memory.capacity_bytes =
                        s.shared_footprint_bytes(&prog).saturating_sub(under);
                } else {
                    accel.levels[0].memory.capacity_bytes =
                        s.register_footprint_bytes(&prog).saturating_sub(under);
                }
            }
            let ctx = ScreeningContext::build(&prog, &accel);
            let verdict = s.validate(&prog, &accel);
            prop_assert_eq!(ctx.schedule_feasible(&s), verdict.is_ok(), "{:?} -> {:?}", s, verdict);
            prop_assert_eq!(crate::simulate(&prog, &s, &accel).err(), verdict.err());
        }
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
