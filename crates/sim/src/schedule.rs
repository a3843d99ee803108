//! Optimization schedules for mapped programs (paper Table 3a).
//!
//! A schedule decides how the mapped loop nest is tiled over the accelerator
//! hierarchy: which spatial axes are split across cores (`bind`/`parallel`),
//! how work is divided among sub-cores, how deeply reduction tiles are staged
//! in shared memory (`cache`), register-level blocking (`tile`), and the
//! `unroll`/`vectorize`/double-buffer toggles.
//!
//! Every vector is aligned with [`MappedProgram::axes`].

use crate::error::SimError;
use crate::program::{Axis, AxisKind, MappedProgram};
use crate::screening::{div_ceil_pow2, set_bits, ScreeningContext};
use amos_hw::{AcceleratorSpec, OperandRef};

/// A complete schedule for one mapped program.
///
/// `Eq` and `Hash` let callers keep schedules in sets and maps directly
/// instead of formatting a string key.
#[derive(Debug, PartialEq, Eq, Hash)]
pub struct Schedule {
    /// Per-axis split across cores (grid dimension); must be 1 on reduction
    /// axes.
    pub grid: Vec<i64>,
    /// Per-axis *split-K* factor: parallelises a reduction axis across
    /// blocks that produce partial sums, combined by a follow-up reduction
    /// pass. Must be 1 on spatial axes. An extension over the paper's
    /// schedule table (which has no split-K), exercised by the
    /// `ablation_splitk` bench.
    pub split_k: Vec<i64>,
    /// Per-axis split across the sub-cores inside one core; must be 1 on
    /// reduction axes, and the product is bounded by the sub-core count.
    pub subcore: Vec<i64>,
    /// Per-axis shared-memory staging chunk (in tiles) for reduction axes;
    /// 1 elsewhere. Larger chunks need more shared memory but amortise
    /// synchronisation.
    pub stage: Vec<i64>,
    /// Per-axis register blocking factor for spatial tile axes: how many
    /// destination fragments along this axis stay resident, enabling source
    /// fragment reuse. 1 elsewhere.
    pub warp: Vec<i64>,
    /// Overlap data movement with compute (software pipelining); doubles the
    /// staging footprint.
    pub double_buffer: bool,
    /// Unroll inner loops (improves issue efficiency).
    pub unroll: bool,
    /// Vectorise staging transfers (improves achieved bandwidth).
    pub vectorize: bool,
}

/// Hand-written so `clone_from` reuses the five per-axis buffers — the
/// explorer's breeding loop copies parent schedules into arena slots every
/// generation, and the derived impl would reallocate all five `Vec`s.
impl Clone for Schedule {
    fn clone(&self) -> Self {
        Schedule {
            grid: self.grid.clone(),
            split_k: self.split_k.clone(),
            subcore: self.subcore.clone(),
            stage: self.stage.clone(),
            warp: self.warp.clone(),
            double_buffer: self.double_buffer,
            unroll: self.unroll,
            vectorize: self.vectorize,
        }
    }

    fn clone_from(&mut self, src: &Self) {
        self.grid.clone_from(&src.grid);
        self.split_k.clone_from(&src.split_k);
        self.subcore.clone_from(&src.subcore);
        self.stage.clone_from(&src.stage);
        self.warp.clone_from(&src.warp);
        self.double_buffer = src.double_buffer;
        self.unroll = src.unroll;
        self.vectorize = src.vectorize;
    }
}

/// What one mutation changed in a [`Schedule`], at the granularity its
/// readers differ by. The timing engine reads every gene; which of them the
/// analytic model and the feasibility rule read is stated beside each
/// (`amos_core::perf_model::reads`, [`ScreeningContext::stays_feasible`]),
/// and the explorer asks them what a bred child still has to pay for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GeneChange {
    /// The draw left every gene at its old value (a clamp, the same
    /// `warp`/`stage` value again, or no axis of the drawn kind).
    Nothing,
    /// `unroll` flipped.
    Unroll,
    /// `vectorize` flipped.
    Vectorize,
    /// `double_buffer` flipped; the schedule holds the new value.
    DoubleBuffer,
    /// A per-axis factor (`grid`, `split_k`, `subcore`, `stage`, `warp`)
    /// took a new value.
    Numeric,
}

impl Schedule {
    /// The identity schedule: fully sequential on one core, minimal staging.
    pub fn naive(prog: &MappedProgram) -> Self {
        let n = prog.axes().len();
        Schedule {
            grid: vec![1; n],
            split_k: vec![1; n],
            subcore: vec![1; n],
            stage: vec![1; n],
            warp: vec![1; n],
            double_buffer: false,
            unroll: false,
            vectorize: false,
        }
    }

    /// An empty schedule with no per-axis entries; an arena placeholder to
    /// be filled via [`Schedule::reset_naive`] or `clone_from`.
    pub fn empty() -> Self {
        Schedule {
            grid: Vec::new(),
            split_k: Vec::new(),
            subcore: Vec::new(),
            stage: Vec::new(),
            warp: Vec::new(),
            double_buffer: false,
            unroll: false,
            vectorize: false,
        }
    }

    /// Resets to the identity schedule for an `n`-axis program in place,
    /// reusing the existing buffers ([`Schedule::naive`] without the
    /// allocations).
    pub fn reset_naive(&mut self, n: usize) {
        for v in [
            &mut self.grid,
            &mut self.split_k,
            &mut self.subcore,
            &mut self.stage,
            &mut self.warp,
        ] {
            v.clear();
            v.resize(n, 1);
        }
        self.double_buffer = false;
        self.unroll = false;
        self.vectorize = false;
    }

    /// A reasonable default: greedily bind the largest spatial axes across
    /// cores until the device is oversubscribed ~2x, split the largest
    /// remaining spatial axis over sub-cores, and enable the toggles. Runs
    /// over the program's cached [`ScreeningContext`].
    pub fn balanced(prog: &MappedProgram, accel: &AcceleratorSpec) -> Self {
        // A degenerate accelerator with no memory hierarchy admits no
        // parallelism or staging decisions; the naive schedule is the only
        // sensible (and panic-free) answer.
        if accel.levels.is_empty() {
            return Schedule::naive(prog);
        }
        let mut s = Schedule::empty();
        Schedule::balanced_into(&prog.screening_context(accel), &mut s);
        s
    }

    /// [`Schedule::balanced`] written into `s` over a context, reusing its
    /// buffers: the form the explorer's heuristic seeds use.
    pub fn balanced_into(ctx: &ScreeningContext, s: &mut Schedule) {
        let axes = &ctx.axes[..];
        s.reset_naive(axes.len());
        s.double_buffer = true;
        s.unroll = true;
        s.vectorize = true;

        let target_blocks = 2 * ctx.num_cores;
        let mut blocks = 1i64;
        // Grow the grid by doubling the axis with the largest remaining
        // per-block chunk — a roughly square grid minimises operand re-reads.
        while blocks < target_blocks {
            let Some(i) = set_bits(ctx.spatial_mask)
                .filter(|&i| s.grid[i] < axes[i].extent)
                .max_by_key(|&i| div_ceil_pow2(axes[i].extent, s.grid[i]))
            else {
                break;
            };
            let grown = (s.grid[i] * 2).min(axes[i].extent);
            blocks = blocks / s.grid[i] * grown;
            s.grid[i] = grown;
        }
        // Sub-core split on the spatial axis with the largest leftover chunk.
        if let Some(i) = set_bits(ctx.spatial_mask)
            .max_by_key(|&i| s.block_chunk(axes, i))
            .filter(|&i| s.block_chunk(axes, i) >= ctx.subcores)
        {
            s.subcore[i] = ctx.subcores;
        }
        // Register-block the spatial tile axes and stage a couple of
        // reduction tiles; shrink if the footprints overflow.
        for (i, a) in axes.iter().enumerate() {
            match a.kind {
                AxisKind::TileSpatial(_) => {
                    s.warp[i] = s.subcore_chunk(axes, i).min(2);
                }
                AxisKind::TileReduction(_) => {
                    s.stage[i] = a.extent.min(2);
                }
                _ => {}
            }
        }
        while !ctx.schedule_feasible(s) && s.warp.iter().any(|&w| w > 1) {
            for w in &mut s.warp {
                *w = (*w / 2).max(1);
            }
        }
        if !ctx.schedule_feasible(s) {
            for st in &mut s.stage {
                *st = 1;
            }
            s.double_buffer = false;
        }
    }

    /// Validates the schedule against the program shape and the accelerator
    /// memory capacities.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidSchedule`] for malformed parameters and
    /// [`SimError::CapacityExceeded`] when staging or register footprints
    /// exceed the hardware.
    pub fn validate(&self, prog: &MappedProgram, accel: &AcceleratorSpec) -> Result<(), SimError> {
        // Guard the hierarchy lookups below: `shared_level()` (and the
        // register-capacity probe at level 0) would panic on an accelerator
        // description with no levels, which user code can construct.
        ScreeningContext::require_levels(accel)?;
        let axes = prog.axes();
        let n = axes.len();
        for (name, v) in [
            ("grid", &self.grid),
            ("split_k", &self.split_k),
            ("subcore", &self.subcore),
            ("stage", &self.stage),
            ("warp", &self.warp),
        ] {
            if v.len() != n {
                return Err(SimError::InvalidSchedule {
                    detail: format!("{name} has {} entries for {n} axes", v.len()),
                });
            }
            if v.iter().any(|&x| x < 1) {
                return Err(SimError::InvalidSchedule {
                    detail: format!("{name} contains a factor < 1"),
                });
            }
        }
        for (i, a) in axes.iter().enumerate() {
            if !a.kind.is_spatial() && (self.grid[i] != 1 || self.subcore[i] != 1) {
                return Err(SimError::InvalidSchedule {
                    detail: "reduction axes are parallelised via split_k, not grid".into(),
                });
            }
            if a.kind.is_spatial() && self.split_k[i] != 1 {
                return Err(SimError::InvalidSchedule {
                    detail: "split-K factors apply to reduction axes only".into(),
                });
            }
            if a.kind.is_spatial() && self.stage[i] != 1 {
                return Err(SimError::InvalidSchedule {
                    detail: "staging factors apply to reduction axes only".into(),
                });
            }
            if self.warp[i] != 1 && !matches!(a.kind, AxisKind::TileSpatial(_)) {
                return Err(SimError::InvalidSchedule {
                    detail: "register blocking applies to spatial tile axes only".into(),
                });
            }
            if self.grid[i] * self.split_k[i] > a.extent || self.subcore[i] > a.extent {
                return Err(SimError::InvalidSchedule {
                    detail: format!("split larger than axis extent {}", a.extent),
                });
            }
        }
        let subcores = subcores_per_core(accel) as i64;
        let sub_product: i64 = self.subcore.iter().product();
        if sub_product > subcores {
            return Err(SimError::InvalidSchedule {
                detail: format!("{sub_product} sub-core splits for {subcores} sub-cores"),
            });
        }

        // Shared-memory staging footprint.
        let shared_level = accel.shared_level();
        let shared_cap = accel.levels[shared_level].memory.capacity_bytes;
        let needed = self.shared_footprint_bytes(prog);
        if needed > shared_cap {
            return Err(SimError::CapacityExceeded {
                level: accel.levels[shared_level].name.clone(),
                needed_bytes: needed,
                available_bytes: shared_cap,
            });
        }

        // Register footprint per PE array.
        let reg_cap = accel.levels[0].memory.capacity_bytes;
        let reg_needed = self.register_footprint_bytes(prog);
        if reg_needed > reg_cap {
            return Err(SimError::CapacityExceeded {
                level: accel.levels[0].name.clone(),
                needed_bytes: reg_needed,
                available_bytes: reg_cap,
            });
        }
        Ok(())
    }

    /// Per-block trip count of an axis (per core): the extent divided by the
    /// grid split (spatial axes) or the split-K factor (reduction axes).
    pub fn block_chunk(&self, axes: &[Axis], i: usize) -> i64 {
        div_ceil_pow2(axes[i].extent, self.grid[i] * self.split_k[i])
    }

    /// Total split-K parallelism across reduction axes.
    pub fn split_k_factor(&self) -> i64 {
        self.split_k.iter().product()
    }

    /// Per-sub-core trip count of an axis.
    pub fn subcore_chunk(&self, axes: &[Axis], i: usize) -> i64 {
        div_ceil_pow2(self.block_chunk(axes, i), self.subcore[i])
    }

    /// Number of blocks launched (grid splits times split-K partials).
    pub fn blocks(&self) -> i64 {
        self.grid.iter().product::<i64>() * self.split_k_factor()
    }

    /// Tiles of an axis resident in staging memory at one time: the
    /// concurrently-worked spatial tiles (sub-core x register blocking) or
    /// the staged reduction chunk.
    pub fn resident_tiles(&self, axes: &[Axis], i: usize) -> i64 {
        let chunk = self.block_chunk(axes, i);
        match axes[i].kind {
            AxisKind::TileSpatial(_) => (self.subcore[i] * self.warp[i]).min(chunk),
            AxisKind::TileReduction(_) => self.stage[i].min(chunk),
            AxisKind::OuterSpatial(_) | AxisKind::OuterReduction(_) => 1,
        }
    }

    /// Sequential staging steps a block takes along a spatial axis.
    pub fn spatial_steps(&self, axes: &[Axis], i: usize) -> i64 {
        debug_assert!(axes[i].kind.is_spatial());
        div_ceil_pow2(self.block_chunk(axes, i), self.resident_tiles(axes, i))
    }

    /// Shared-memory bytes staged per core at any time: for every source
    /// operand, the resident tile set along each axis it depends on, doubled
    /// when double-buffering.
    pub fn shared_footprint_bytes(&self, prog: &MappedProgram) -> u64 {
        let axes = prog.axes();
        let intr = prog.intrinsic();
        let mut total = 0u64;
        for m in 0..intr.compute.num_srcs() {
            let mut tiles = 1i64;
            for (i, a) in axes.iter().enumerate() {
                if prog.operand_uses_axis(m, a) {
                    tiles *= self.resident_tiles(axes, i);
                }
            }
            total += tiles as u64 * intr.fragment_bytes(OperandRef::Src(m));
        }
        if self.double_buffer {
            total *= 2;
        }
        total
    }

    /// Bytes of one operand loaded from global memory by one block: a full
    /// pass over the operand's footprint, repeated once per staging step of
    /// every *spatial* axis the operand does not depend on (the classic
    /// re-read model: larger resident tiles mean fewer passes).
    pub fn block_read_bytes(&self, prog: &MappedProgram, operand_row: usize) -> u64 {
        let axes = prog.axes();
        let intr = prog.intrinsic();
        let mut bytes_per_pass = 1i64;
        let mut passes = 1i64;
        for (i, a) in axes.iter().enumerate() {
            if prog.operand_uses_axis(operand_row, a) {
                bytes_per_pass *= self.block_chunk(axes, i);
            } else if a.kind.is_spatial() {
                passes *= self.spatial_steps(axes, i);
            }
        }
        let frag = intr.fragment_bytes(OperandRef::Src(operand_row));
        bytes_per_pass as u64 * passes as u64 * frag
    }

    /// Register bytes resident per PE array: the destination fragments of
    /// the warp tile plus one source fragment per operand per warp-tile axis
    /// it spans.
    pub fn register_footprint_bytes(&self, prog: &MappedProgram) -> u64 {
        let axes = prog.axes();
        let intr = prog.intrinsic();
        let num_srcs = intr.compute.num_srcs();
        let dst_row = num_srcs;
        let mut dst_tiles = 1i64;
        for (i, a) in axes.iter().enumerate() {
            if matches!(a.kind, AxisKind::TileSpatial(_)) && prog.operand_uses_axis(dst_row, a) {
                dst_tiles *= self.warp[i].min(self.subcore_chunk(axes, i));
            }
        }
        let mut total = dst_tiles as u64 * intr.fragment_bytes(OperandRef::Dst);
        for m in 0..num_srcs {
            let mut tiles = 1i64;
            for (i, a) in axes.iter().enumerate() {
                if matches!(a.kind, AxisKind::TileSpatial(_)) && prog.operand_uses_axis(m, a) {
                    tiles *= self.warp[i].min(self.subcore_chunk(axes, i));
                }
            }
            total += tiles as u64 * intr.fragment_bytes(OperandRef::Src(m));
        }
        total
    }
}

/// Sub-cores contained in one core (one unit of the shared-memory level).
pub fn subcores_per_core(accel: &AcceleratorSpec) -> u64 {
    let shared = accel.shared_level();
    accel.levels[1..=shared]
        .iter()
        .map(|l| l.inner_units)
        .product()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{FusedGroup, MappedProgram};
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
    fn naive_schedule_validates() {
        let prog = gemm_prog(256, 256, 256);
        let s = Schedule::naive(&prog);
        s.validate(&prog, &catalog::v100()).unwrap();
        assert_eq!(s.blocks(), 1);
    }

    #[test]
    fn balanced_schedule_fills_the_device() {
        let prog = gemm_prog(4096, 4096, 1024);
        let accel = catalog::v100();
        let s = Schedule::balanced(&prog, &accel);
        s.validate(&prog, &accel).unwrap();
        let cores = accel.total_units(accel.shared_level()) as i64;
        assert!(s.blocks() >= cores, "balanced schedule underfills");
    }

    #[test]
    fn reduction_axis_cannot_be_grid_split() {
        let prog = gemm_prog(256, 256, 256);
        let mut s = Schedule::naive(&prog);
        // axes: [TileSpatial(i1), TileSpatial(i2), TileReduction(r1)]
        s.grid[2] = 2;
        assert!(matches!(
            s.validate(&prog, &catalog::v100()),
            Err(SimError::InvalidSchedule { .. })
        ));
    }

    #[test]
    fn oversized_staging_exceeds_shared_capacity() {
        let prog = gemm_prog(4096, 4096, 65536);
        let mut s = Schedule::naive(&prog);
        // Stage every reduction tile at once: 4096 tiles x 512 B x 2 operands
        // x (spatial chunk 256 tiles...) far beyond 96 KiB.
        s.stage[2] = prog.axes()[2].extent;
        assert!(matches!(
            s.validate(&prog, &catalog::v100()),
            Err(SimError::CapacityExceeded { .. })
        ));
    }

    #[test]
    fn warp_blocking_increases_register_footprint() {
        let prog = gemm_prog(512, 512, 512);
        let mut s = Schedule::naive(&prog);
        let base = s.register_footprint_bytes(&prog);
        s.warp[0] = 4;
        s.warp[1] = 2;
        let blocked = s.register_footprint_bytes(&prog);
        assert!(blocked > base);
        // dst: 4*2 frags (8 KiB) + src1: 4 frags + src2: 2 frags (3 KiB).
        assert_eq!(blocked, 8 * 1024 + 4 * 512 + 2 * 512);
    }

    #[test]
    fn double_buffer_doubles_shared_footprint() {
        let prog = gemm_prog(256, 256, 256);
        let mut s = Schedule::naive(&prog);
        let base = s.shared_footprint_bytes(&prog);
        s.double_buffer = true;
        assert_eq!(s.shared_footprint_bytes(&prog), 2 * base);
    }

    #[test]
    fn wrong_length_rejected() {
        let prog = gemm_prog(64, 64, 64);
        let mut s = Schedule::naive(&prog);
        s.grid.pop();
        assert!(matches!(
            s.validate(&prog, &catalog::v100()),
            Err(SimError::InvalidSchedule { .. })
        ));
    }

    #[test]
    fn split_k_multiplies_blocks_and_shrinks_chunks() {
        let prog = gemm_prog(256, 256, 4096);
        let mut s = Schedule::naive(&prog);
        // axes: [TileSpatial(i1), TileSpatial(i2), TileReduction(r1)]
        s.split_k[2] = 4;
        s.validate(&prog, &catalog::v100()).unwrap();
        assert_eq!(s.blocks(), 4);
        assert_eq!(s.split_k_factor(), 4);
        let axes = prog.axes();
        assert_eq!(s.block_chunk(axes, 2), 64); // 256 reduction tiles / 4
    }

    #[test]
    fn split_k_rejected_on_spatial_axes() {
        let prog = gemm_prog(256, 256, 256);
        let mut s = Schedule::naive(&prog);
        s.split_k[0] = 2;
        assert!(matches!(
            s.validate(&prog, &catalog::v100()),
            Err(SimError::InvalidSchedule { .. })
        ));
    }

    #[test]
    fn empty_hierarchy_is_a_typed_error_not_a_panic() {
        let prog = gemm_prog(64, 64, 64);
        let mut accel = catalog::v100();
        accel.levels.clear();
        let s = Schedule::naive(&prog);
        assert!(matches!(
            s.validate(&prog, &accel),
            Err(SimError::InvalidSchedule { .. })
        ));
        assert_eq!(Schedule::balanced(&prog, &accel), Schedule::naive(&prog));
    }

    #[test]
    fn subcores_per_core_counts_hierarchy() {
        assert_eq!(subcores_per_core(&catalog::v100()), 4);
        assert_eq!(subcores_per_core(&catalog::mali_g76()), 3);
    }

    #[test]
    fn reset_naive_matches_naive() {
        let prog = gemm_prog(256, 256, 256);
        let accel = catalog::v100();
        let mut s = Schedule::balanced(&prog, &accel);
        s.reset_naive(prog.axes().len());
        assert_eq!(s, Schedule::naive(&prog));
        let mut e = Schedule::empty();
        e.reset_naive(prog.axes().len());
        assert_eq!(e, Schedule::naive(&prog));
    }

    #[test]
    fn clone_from_copies_every_field() {
        let prog = gemm_prog(256, 256, 256);
        let accel = catalog::v100();
        let src = Schedule::balanced(&prog, &accel);
        let mut dst = Schedule::empty();
        dst.clone_from(&src);
        assert_eq!(dst, src);
    }
}
