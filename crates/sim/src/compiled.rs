//! What a [`MappedProgram`] derives from its logical fields, each a pure
//! function of them, each shared by clones through an `Arc`:
//!
//! * [`UnitFacts`] — what it reads of its `(definition, intrinsic)` pair
//!   alone, built once per unit and shared with every
//!   [`MappedProgram::sibling`]: [`MappedProgram::operand_uses_axis`] is a
//!   bit test on it.
//! * [`ProgramShape`] — the loop axes, all the schedule helpers, the
//!   screening tables and the timing engine read of the mapping itself. A
//!   search derives it the first time it samples or measures that program.
//! * [`CompiledProgram`] — the functional executor's tables: group decode,
//!   one compiled lane program per index expression, fragment strides and
//!   guard predicates, so `execute_mapped` walks strides instead of
//!   re-interpreting `Expr` trees per scalar lane. Only
//!   [`crate::functional`] reads it (via [`MappedProgram::compiled`]), so an
//!   exploration — which never executes a candidate functionally — never
//!   builds it.
//!
//! The last two are built lazily, once, behind their own `OnceLock`.

use crate::error::SimError;
use crate::program::{Axis, AxisKind, MappedProgram};
use amos_hw::{Intrinsic, OperandRef};
use amos_ir::{ComputeDef, Expr, IterId, IterKind, LaneExpr};

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

/// What every program of one `(definition, intrinsic)` pair reads of the
/// pair, whatever its mapping.
#[derive(Debug)]
pub(crate) struct UnitFacts {
    /// Per operand row of `Z` (sources, then the destination): bit `t` set
    /// when the row depends on intrinsic iteration `t`.
    pub z_rows: Vec<u64>,
    /// Per software access (inputs, then the output), `words` words with
    /// bit `s` set when its indices use iteration `s`: exact past 64.
    access_iters: Vec<u64>,
    words: usize,
    pub src_frag_bytes: Vec<u64>,
    pub dst_frag_bytes: u64,
    /// `def.scalar_ops()`, counted in `f64` when it overflows `i64`.
    pub useful_ops: f64,
}

impl UnitFacts {
    /// Derives the facts of a pair one program of which passed
    /// [`MappedProgram::new`]'s checks (they bound `Z`'s columns by 64).
    pub fn build(def: &ComputeDef, intr: &Intrinsic) -> UnitFacts {
        let refs = intr.compute.operand_refs().into_iter();
        let z_rows = refs.map(|r| mark_vars(&intr.compute.operand(r).dims, &mut [0])[0]);
        let words = def.iters().len().div_ceil(64).max(1);
        let mut access_iters = vec![0; (def.inputs().len() + 1) * words];
        let accesses = def.inputs().iter().chain([def.output()]);
        for (access, bits) in accesses.zip(access_iters.chunks_mut(words)) {
            mark_vars(&access.indices, bits);
        }
        let extents = def.iters().iter().map(|v| v.extent);
        let ops = extents.clone().try_fold(1i64, i64::checked_mul);
        UnitFacts {
            z_rows: z_rows.collect(),
            access_iters,
            words,
            src_frag_bytes: (0..intr.compute.num_srcs())
                .map(|m| intr.fragment_bytes(OperandRef::Src(m)))
                .collect(),
            dst_frag_bytes: intr.fragment_bytes(OperandRef::Dst),
            useful_ops: ops.map_or_else(|| extents.map(|e| e as f64).product(), |ops| ops as f64),
        }
    }

    /// Whether the indices of software access `access` use iteration `id`.
    pub fn access_uses(&self, access: usize, id: IterId) -> bool {
        let s = id.index();
        self.access_iters[access * self.words + s / 64] >> (s % 64) & 1 == 1
    }
}

/// Sets bit `s` of `bits` for every iteration `s` that `exprs` read.
fn mark_vars<'b>(exprs: &[Expr], bits: &'b mut [u64]) -> &'b mut [u64] {
    use Expr::*;
    for e in exprs {
        match e {
            Var(id) => bits[id.index() / 64] |= 1 << (id.index() % 64),
            Const(_) => {}
            Add(a, b) | Sub(a, b) | Mul(a, b) | FloorDiv(a, b) | Mod(a, b) => {
                mark_vars(std::slice::from_ref(&**a), bits);
                mark_vars(std::slice::from_ref(&**b), bits);
            }
        }
    }
    bits
}

/// The loop-nest shape of a mapped program: what the schedule helpers,
/// screening and `simulate` need per candidate.
#[derive(Debug)]
pub(crate) struct ProgramShape {
    /// The loop axes of the mapped program (see [`MappedProgram::axes`]).
    pub axes: Vec<Axis>,
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
        let mut axes = Vec::with_capacity(prog.outer().len() + intr.compute.iters().len());
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
        ProgramShape { axes }
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
