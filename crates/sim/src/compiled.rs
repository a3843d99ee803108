//! The two lowered forms of a [`MappedProgram`], each a pure function of the
//! program's logical fields, each built lazily and exactly once behind its
//! own `OnceLock` (shared by clones through an `Arc`):
//!
//! * [`ProgramShape`] — the loop axes and the operand-dependence tables.
//!   This is everything [`MappedProgram::axes`],
//!   [`MappedProgram::operand_uses_axis`], the schedule helpers, the
//!   screening tables and the timing engine read, and it costs a few small
//!   vectors. A search touches the shape of a program the first time it
//!   samples or measures that program.
//! * [`CompiledProgram`] — the functional executor's tables: group decode,
//!   one compiled lane program per index expression, fragment strides and
//!   guard predicates, so `execute_mapped` walks strides instead of
//!   re-interpreting `Expr` trees per scalar lane. Only
//!   [`crate::functional`] reads it (via [`MappedProgram::compiled`]), so an
//!   exploration — which never executes a candidate functionally — never
//!   builds it.

use crate::error::SimError;
use crate::program::{Axis, AxisKind, MappedProgram};
use amos_hw::OperandRef;
use amos_ir::{IterId, IterKind, LaneExpr};

/// Mixed-radix decode table for one fused group: fused index → software
/// iteration values written straight into the environment buffer.
#[derive(Debug)]
pub(crate) struct GroupDecode {
    /// `(env slot, extent)` per member, fusion order (first most
    /// significant).
    pub members: Vec<(usize, i64)>,
    /// Intrinsic problem size along this iteration.
    pub problem: i64,
}

/// One compiled dimension of a tensor access: the lane program for its index
/// expression plus the tensor extent and row-major stride.
#[derive(Debug)]
pub(crate) struct CompiledDim {
    pub lane: LaneExpr,
    pub extent: i64,
    pub stride: i64,
}

/// A tensor access with every index expression compiled.
#[derive(Debug)]
pub(crate) struct CompiledAccess {
    /// Index of the backing tensor in the computation's declaration list.
    pub tensor: usize,
    /// Tensor name, for out-of-bounds diagnostics (cold path only).
    pub name: String,
    pub dims: Vec<CompiledDim>,
    /// How many of `dims` compiled to the affine fast path.
    pub affine_dims: u64,
}

impl CompiledAccess {
    /// Flat element offset under `env`, bounds-checked per dimension exactly
    /// like the interpreted `checked_flat`.
    #[inline]
    pub fn flat_offset(&self, env: &[i64], stack: &mut Vec<i64>) -> Result<usize, SimError> {
        let mut off = 0i64;
        for (dim, d) in self.dims.iter().enumerate() {
            let idx = d.lane.eval(env, stack);
            if idx < 0 || idx >= d.extent {
                return Err(SimError::Ir(amos_ir::IrError::OutOfBounds {
                    tensor: self.name.clone(),
                    dim,
                    index: idx,
                    extent: d.extent,
                }));
            }
            off += idx * d.stride;
        }
        Ok(off as usize)
    }
}

/// Affine fragment addressing for one intrinsic operand: the flat fragment
/// position at intrinsic point `j` is `base + Σ strides[t] · j[t]`. Always
/// exists because the compute abstraction validates its operand dimensions
/// as affine.
#[derive(Debug)]
pub(crate) struct FragAffine {
    pub base: i64,
    pub strides: Vec<i64>,
}

impl FragAffine {
    /// Flat fragment position of the operand at intrinsic point `j`.
    #[inline]
    pub fn position(&self, j: &[i64]) -> usize {
        let mut pos = self.base;
        for (s, v) in self.strides.iter().zip(j) {
            pos += s * v;
        }
        pos as usize
    }
}

/// The loop-nest shape of a mapped program: what the schedule helpers,
/// screening and `simulate` need per candidate.
#[derive(Debug)]
pub(crate) struct ProgramShape {
    /// The loop axes of the mapped program (see [`MappedProgram::axes`]).
    pub axes: Vec<Axis>,
    /// Per operand slot (sources then destination): does it depend on
    /// intrinsic iteration `t`? Mirror of the intrinsic access matrix `Z`.
    pub tile_deps: Vec<Vec<bool>>,
    /// Per operand slot: does its software access use software iteration
    /// `s`?
    pub outer_deps: Vec<Vec<bool>>,
}

/// Everything `execute_mapped` needs per candidate, lowered once.
#[derive(Debug)]
pub(crate) struct CompiledProgram {
    /// Decode tables, one per intrinsic iteration.
    pub groups: Vec<GroupDecode>,
    /// Intrinsic problem sizes per iteration.
    pub problem: Vec<i64>,
    /// Indices of spatial / reduction intrinsic iterations.
    pub spatial_t: Vec<usize>,
    pub reduction_t: Vec<usize>,
    /// Unmapped software iterations as `(env slot, extent)`, split by kind.
    pub outer_sp: Vec<(usize, i64)>,
    pub outer_red: Vec<(usize, i64)>,
    /// Compiled software accesses feeding each source slot, in slot order.
    pub src_accesses: Vec<CompiledAccess>,
    /// Compiled output access.
    pub dst_access: CompiledAccess,
    /// Fragment addressing per source slot, then the destination.
    pub src_frags: Vec<FragAffine>,
    pub dst_frag: FragAffine,
    /// Fragment shapes per source slot and for the destination.
    pub frag_shapes: Vec<Vec<i64>>,
    pub dst_shape: Vec<i64>,
    /// Compiled guard predicates; a point is active when all evaluate to 0.
    pub predicates: Vec<LaneExpr>,
}

impl ProgramShape {
    /// Derives the shape of a mapped program.
    pub fn build(prog: &MappedProgram) -> ProgramShape {
        let def = prog.def();
        let intr = prog.intrinsic();
        let num_iters = intr.compute.iters().len();
        let num_srcs = intr.compute.num_srcs();

        let mut axes = Vec::new();
        for &id in prog.outer() {
            let v = def.iter_var(id);
            if v.kind == IterKind::Spatial {
                axes.push(Axis {
                    kind: AxisKind::OuterSpatial(id),
                    extent: v.extent,
                });
            }
        }
        for (t, it) in intr.compute.iters().iter().enumerate() {
            if it.kind == IterKind::Spatial {
                axes.push(Axis {
                    kind: AxisKind::TileSpatial(t),
                    extent: prog.tiles(t),
                });
            }
        }
        for &id in prog.outer() {
            let v = def.iter_var(id);
            if v.kind == IterKind::Reduction {
                axes.push(Axis {
                    kind: AxisKind::OuterReduction(id),
                    extent: v.extent,
                });
            }
        }
        for (t, it) in intr.compute.iters().iter().enumerate() {
            if it.kind == IterKind::Reduction {
                axes.push(Axis {
                    kind: AxisKind::TileReduction(t),
                    extent: prog.tiles(t),
                });
            }
        }

        let z = intr.compute.access_matrix();
        let slot_access = |row: usize| -> &amos_ir::Access {
            if row < num_srcs {
                &def.inputs()[prog.correspondence()[row]]
            } else {
                def.output()
            }
        };
        let tile_deps = (0..num_srcs + 1)
            .map(|row| (0..num_iters).map(|t| z.get(row, t)).collect())
            .collect();
        let outer_deps = (0..num_srcs + 1)
            .map(|row| {
                let access = slot_access(row);
                (0..def.iters().len())
                    .map(|s| {
                        let id = IterId(s as u32);
                        access.indices.iter().any(|e| e.uses(id))
                    })
                    .collect()
            })
            .collect();

        ProgramShape {
            axes,
            tile_deps,
            outer_deps,
        }
    }
}

impl CompiledProgram {
    /// Lowers a mapped program for the functional executor. Pure function
    /// of the program's logical fields, so the cache never goes stale.
    pub fn build(prog: &MappedProgram) -> CompiledProgram {
        let def = prog.def();
        let intr = prog.intrinsic();
        let num_iters = intr.compute.iters().len();
        let num_srcs = intr.compute.num_srcs();
        let extents = def.extents();

        let problem = intr.compute.problem_size();
        let groups = (0..num_iters)
            .map(|t| GroupDecode {
                members: prog.groups()[t]
                    .iters
                    .iter()
                    .map(|id| (id.index(), def.iter_var(*id).extent))
                    .collect(),
                problem: problem[t],
            })
            .collect();
        let spatial_t = (0..num_iters)
            .filter(|&t| intr.compute.iters()[t].kind == IterKind::Spatial)
            .collect();
        let reduction_t = (0..num_iters)
            .filter(|&t| intr.compute.iters()[t].kind == IterKind::Reduction)
            .collect();
        let split_outer = |kind: IterKind| -> Vec<(usize, i64)> {
            prog.outer()
                .iter()
                .filter(|&&id| def.iter_var(id).kind == kind)
                .map(|&id| (id.index(), def.iter_var(id).extent))
                .collect()
        };

        let compile_access = |access: &amos_ir::Access| -> CompiledAccess {
            let decl = def.tensor(access.tensor);
            let strides = decl.strides();
            let dims: Vec<CompiledDim> = access
                .indices
                .iter()
                .zip(strides.iter())
                .enumerate()
                .map(|(dim, (e, &stride))| CompiledDim {
                    lane: LaneExpr::compile(e, &extents),
                    extent: decl.shape[dim],
                    stride,
                })
                .collect();
            let affine_dims = dims.iter().filter(|d| d.lane.is_affine()).count() as u64;
            CompiledAccess {
                tensor: access.tensor.index(),
                name: decl.name.clone(),
                dims,
                affine_dims,
            }
        };
        let src_accesses: Vec<CompiledAccess> = (0..num_srcs)
            .map(|m| compile_access(&def.inputs()[prog.correspondence()[m]]))
            .collect();
        let dst_access = compile_access(def.output());

        // Fragment addressing: fold the (affine) operand dimension
        // expressions and the fragment row-major strides into one
        // base-plus-stride table over the intrinsic point.
        let compile_frag = |r: OperandRef, shape: &[i64]| -> FragAffine {
            let mut base = 0i64;
            let mut strides = vec![0i64; num_iters];
            let mut row_stride = 1i64;
            let dims = &intr.compute.operand(r).dims;
            for d in (0..dims.len()).rev() {
                let (coeffs, c) = dims[d]
                    .affine_coefficients(num_iters)
                    .expect("intrinsic operand dimensions are validated affine");
                base += c * row_stride;
                for (t, coeff) in coeffs.iter().enumerate() {
                    strides[t] += coeff * row_stride;
                }
                row_stride *= shape[d];
            }
            FragAffine { base, strides }
        };
        let frag_shapes: Vec<Vec<i64>> = (0..num_srcs)
            .map(|m| intr.compute.fragment_shape(OperandRef::Src(m)))
            .collect();
        let dst_shape = intr.compute.fragment_shape(OperandRef::Dst);
        let src_frags = (0..num_srcs)
            .map(|m| compile_frag(OperandRef::Src(m), &frag_shapes[m]))
            .collect();
        let dst_frag = compile_frag(OperandRef::Dst, &dst_shape);

        let predicates = def
            .predicates()
            .iter()
            .map(|e| LaneExpr::compile(e, &extents))
            .collect();

        CompiledProgram {
            groups,
            problem,
            spatial_t,
            reduction_t,
            outer_sp: split_outer(IterKind::Spatial),
            outer_red: split_outer(IterKind::Reduction),
            src_accesses,
            dst_access,
            src_frags,
            dst_frag,
            frag_shapes,
            dst_shape,
            predicates,
        }
    }

    /// Decodes every fused group at `(tile, j)` directly into the
    /// environment buffer, returning `false` when any group index lands in a
    /// trailing padding region (the buffer's mapped slots may then be
    /// partially written; callers must treat the point as padding).
    /// Outer-loop slots are untouched.
    #[inline]
    pub fn build_env_into(&self, env: &mut [i64], tile: &[i64], j: &[i64]) -> bool {
        for (t, g) in self.groups.iter().enumerate() {
            let mut rem = tile[t] * g.problem + j[t];
            for &(slot, extent) in g.members.iter().rev() {
                env[slot] = rem % extent;
                rem /= extent;
            }
            if rem != 0 {
                return false;
            }
        }
        true
    }

    /// True when the point is guard-active (every compiled predicate is 0).
    #[inline]
    pub fn point_active(&self, env: &[i64], stack: &mut Vec<i64>) -> bool {
        self.predicates.iter().all(|p| p.eval(env, stack) == 0)
    }
}
