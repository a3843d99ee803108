//! The mapped program: a tensor computation bound to an intrinsic through a
//! compute mapping, in the tiled physical form of paper §5.1 (Fig 3 g/h).
//!
//! Every intrinsic iteration carries a *fused group* of software iterations;
//! the fused index is restricted to the intrinsic problem size by `mod`, the
//! quotient becomes a tile loop, and trailing tiles are zero-padded. The
//! remaining software iterations stay as outer loops. [`MappedProgram`]
//! captures that structure; the functional executor and timing engine both
//! interpret it.

use crate::compiled::{CompiledProgram, ProgramShape, UnitFacts};
use crate::error::SimError;
use crate::screening::ScreeningContext;
use amos_hw::{AcceleratorSpec, Intrinsic};
use amos_ir::{ComputeDef, IterId};
use std::sync::{Arc, OnceLock};

/// A fused, ordered group of software iterations mapped to one intrinsic
/// iteration. The fused index is `s1·E2·…·Eg + s2·E3·…·Eg + … + sg`
/// (declaration order, first iteration most significant).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FusedGroup {
    /// Software iterations in fusion order; may be empty (the intrinsic axis
    /// is then padded to a single value).
    pub iters: Vec<IterId>,
}

impl FusedGroup {
    /// Group with no software iterations.
    pub fn empty() -> Self {
        FusedGroup { iters: Vec::new() }
    }

    /// Group fusing the given iterations.
    pub fn of(iters: Vec<IterId>) -> Self {
        FusedGroup { iters }
    }
}

/// Which kind of loop an axis of the mapped loop nest represents; used by
/// schedules to know what may be parallelised.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AxisKind {
    /// An unmapped spatial software iteration.
    OuterSpatial(IterId),
    /// An unmapped reduction software iteration.
    OuterReduction(IterId),
    /// The tile loop of a spatial intrinsic iteration (index into the
    /// intrinsic iteration list).
    TileSpatial(usize),
    /// The tile loop of a reduction intrinsic iteration.
    TileReduction(usize),
}

impl AxisKind {
    /// True for axes that address distinct output elements and may therefore
    /// be bound to parallel hardware units.
    pub fn is_spatial(self) -> bool {
        matches!(self, AxisKind::OuterSpatial(_) | AxisKind::TileSpatial(_))
    }
}

/// Most loop axes a mapped program may have: the width of the `u64` axis
/// masks in [`ScreeningContext`].
pub(crate) const MAX_AXES: usize = 64;

/// One loop axis of the mapped program, outer-to-inner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Axis {
    /// What the axis iterates.
    pub kind: AxisKind,
    /// Trip count.
    pub extent: i64,
}

/// A tensor computation physically mapped onto an intrinsic.
#[derive(Debug, Clone)]
pub struct MappedProgram {
    /// Shared, not owned: the programs lowered for one exploration unit all
    /// point at one definition, one intrinsic and one set of their facts.
    def: Arc<ComputeDef>,
    intrinsic: Arc<Intrinsic>,
    pub(crate) facts: Arc<UnitFacts>,
    /// One fused group per intrinsic iteration.
    groups: Vec<FusedGroup>,
    /// Unmapped software iterations, declaration order.
    outer: Vec<IterId>,
    /// `correspondence[m]` = index into `def.inputs()` feeding intrinsic
    /// source slot `m`.
    correspondence: Vec<usize>,
    /// Lazily-built loop-nest shape (the axes): what the schedule helpers
    /// and the screening tables read of the mapping.
    /// A pure function of the fields above, shared by clones via `Arc`.
    shape: OnceLock<Arc<ProgramShape>>,
    /// Lazily-built executor tables (decode tables, lane programs, fragment
    /// strides), read only by the functional executor; same sharing.
    compiled: OnceLock<Arc<CompiledProgram>>,
    /// Lazily-built screening tables for the analytic model, keyed by the
    /// first accelerator they were built against (see
    /// [`MappedProgram::screening_context`]).
    screening: OnceLock<Arc<ScreeningContext>>,
}

/// Equality over the logical mapping only — the lowered caches are derived
/// state and deliberately ignored (a lowered and a not-yet-lowered copy of
/// the same program are the same program).
impl PartialEq for MappedProgram {
    fn eq(&self, other: &Self) -> bool {
        self.def == other.def
            && self.intrinsic == other.intrinsic
            && self.groups == other.groups
            && self.outer == other.outer
            && self.correspondence == other.correspondence
    }
}

impl MappedProgram {
    /// Builds a mapped program, checking that the groups plus outer loops
    /// partition the software iterations exactly, that the operand
    /// correspondence is a bijection onto the input accesses, and that the
    /// loop nest (outer loops plus one tile loop per intrinsic iteration)
    /// fits the 64-bit axis masks of the screening tables.
    ///
    /// `def` and `intrinsic` are taken by value or as an `Arc`; callers
    /// lowering many mappings of one pair use [`MappedProgram::sibling`].
    pub fn new(
        def: impl Into<Arc<ComputeDef>>,
        intrinsic: impl Into<Arc<Intrinsic>>,
        groups: Vec<FusedGroup>,
        correspondence: Vec<usize>,
    ) -> Result<Self, SimError> {
        Self::checked(def.into(), intrinsic.into(), None, groups, correspondence)
    }

    /// [`MappedProgram::new`] for another mapping of the same definition
    /// onto the same intrinsic: it shares them and what is derived from
    /// them alone, so a unit's mapping set derives that once.
    pub fn sibling(&self, groups: Vec<FusedGroup>, corr: Vec<usize>) -> Result<Self, SimError> {
        let (def, intr) = (Arc::clone(&self.def), Arc::clone(&self.intrinsic));
        Self::checked(def, intr, Some(Arc::clone(&self.facts)), groups, corr)
    }

    fn checked(
        def: Arc<ComputeDef>,
        intrinsic: Arc<Intrinsic>,
        facts: Option<Arc<UnitFacts>>,
        groups: Vec<FusedGroup>,
        correspondence: Vec<usize>,
    ) -> Result<Self, SimError> {
        let num_intrinsic_iters = intrinsic.compute.iters().len();
        if groups.len() != num_intrinsic_iters {
            return Err(SimError::MalformedMapping {
                detail: format!(
                    "{} groups for {} intrinsic iterations",
                    groups.len(),
                    num_intrinsic_iters
                ),
            });
        }
        if correspondence.len() != intrinsic.compute.num_srcs()
            || correspondence.len() != def.inputs().len()
        {
            return Err(SimError::MalformedMapping {
                detail: format!(
                    "correspondence of {} slots for {} intrinsic sources and {} inputs",
                    correspondence.len(),
                    intrinsic.compute.num_srcs(),
                    def.inputs().len()
                ),
            });
        }
        let mut seen_inputs = vec![false; def.inputs().len()];
        for &m in &correspondence {
            if m >= seen_inputs.len() || seen_inputs[m] {
                return Err(SimError::MalformedMapping {
                    detail: "correspondence is not a bijection onto inputs".into(),
                });
            }
            seen_inputs[m] = true;
        }
        let mut used = vec![false; def.iters().len()];
        for g in &groups {
            for &it in &g.iters {
                if it.index() >= used.len() || used[it.index()] {
                    return Err(SimError::MalformedMapping {
                        detail: format!("iteration {it} mapped twice or unknown"),
                    });
                }
                used[it.index()] = true;
            }
        }
        let outer: Vec<IterId> = def.iter_ids().filter(|id| !used[id.index()]).collect();
        if outer.len() + num_intrinsic_iters > MAX_AXES {
            return Err(SimError::MalformedMapping {
                detail: format!(
                    "{} outer loops plus {num_intrinsic_iters} tile loops exceed {MAX_AXES} axes",
                    outer.len()
                ),
            });
        }
        // Only now: the checks above bound what the facts' masks must hold.
        let facts = facts.unwrap_or_else(|| Arc::new(UnitFacts::build(&def, &intrinsic)));
        Ok(MappedProgram {
            def,
            intrinsic,
            facts,
            groups,
            outer,
            correspondence,
            shape: OnceLock::new(),
            compiled: OnceLock::new(),
            screening: OnceLock::new(),
        })
    }

    /// The loop-nest shape, derived on first use and cached (one atomic load
    /// afterwards). Never touches the executor tables.
    pub(crate) fn shape(&self) -> &ProgramShape {
        self.shape
            .get_or_init(|| Arc::new(ProgramShape::build(self)))
    }

    /// The executor tables — decode tables, compiled lane programs, fragment
    /// strides — lowered on the first `execute_mapped` and cached. Nothing
    /// on the search path (schedules, screening, timing) calls this.
    pub(crate) fn compiled(&self) -> &CompiledProgram {
        self.compiled
            .get_or_init(|| Arc::new(CompiledProgram::build(self)))
    }

    /// The screening tables for this program on `accel`, built from the
    /// loop-nest shape on first use and cached. The cache holds the context
    /// of the *first* accelerator seen; a call with model-relevant
    /// parameters that differ from the
    /// cached ones (checked by value, never by hash) builds a fresh,
    /// uncached context — explorations hammer one accelerator, so the first
    /// entry is the only one worth keeping.
    pub fn screening_context(&self, accel: &AcceleratorSpec) -> Arc<ScreeningContext> {
        let cached = self
            .screening
            .get_or_init(|| Arc::new(ScreeningContext::build(self, accel)));
        if cached.matches(accel) {
            Arc::clone(cached)
        } else {
            Arc::new(ScreeningContext::build(self, accel))
        }
    }

    /// The software computation.
    pub fn def(&self) -> &ComputeDef {
        &self.def
    }

    /// The intrinsic the computation is mapped to.
    pub fn intrinsic(&self) -> &Intrinsic {
        &self.intrinsic
    }

    /// Fused groups, one per intrinsic iteration.
    pub fn groups(&self) -> &[FusedGroup] {
        &self.groups
    }

    /// Unmapped software iterations.
    pub fn outer(&self) -> &[IterId] {
        &self.outer
    }

    /// Source-slot to input-access correspondence.
    pub fn correspondence(&self) -> &[usize] {
        &self.correspondence
    }

    /// Extents of the software iterations in one fused group.
    pub fn group_extents(&self, t: usize) -> Vec<i64> {
        self.groups[t]
            .iters
            .iter()
            .map(|id| self.def.iter_var(*id).extent)
            .collect()
    }

    /// Product of software extents fused into intrinsic iteration `t`
    /// (1 for an empty group).
    pub fn fused_extent(&self, t: usize) -> i64 {
        let iters = self.groups[t].iters.iter();
        iters.map(|id| self.def.iter_var(*id).extent).product()
    }

    /// Number of tiles along intrinsic iteration `t`: the fused extent
    /// divided by the problem size, rounded up (trailing padding).
    pub fn tiles(&self, t: usize) -> i64 {
        let p = self.intrinsic.compute.iters()[t].extent;
        div_ceil(self.fused_extent(t), p)
    }

    /// Fraction of intrinsic lanes doing useful work: the ratio of real
    /// software iterations to padded iterations across all axes.
    pub fn padding_efficiency(&self) -> f64 {
        let mut useful = 1f64;
        let mut padded = 1f64;
        for (t, it) in self.intrinsic.compute.iters().iter().enumerate() {
            useful *= self.fused_extent(t) as f64;
            padded *= (self.tiles(t) * it.extent) as f64;
        }
        useful / padded
    }

    /// Decodes a fused index along intrinsic iteration `t` into values of the
    /// group's software iterations. Returns `None` when the index falls in a
    /// trailing padding region.
    pub fn decode_group(&self, t: usize, fused: i64) -> Option<Vec<(IterId, i64)>> {
        let iters = &self.groups[t].iters;
        let extents = self.group_extents(t);
        let mut rem = fused;
        let mut values = vec![0i64; iters.len()];
        for d in (0..iters.len()).rev() {
            values[d] = rem % extents[d];
            rem /= extents[d];
        }
        if rem != 0 {
            return None; // beyond the fused extent: padding
        }
        // An empty group accepts only fused index 0.
        if iters.is_empty() && fused != 0 {
            return None;
        }
        Some(iters.iter().copied().zip(values).collect())
    }

    /// The loop axes of the mapped program, outer-to-inner: outer spatial,
    /// spatial tile loops, outer reduction, reduction tile loops. The
    /// intrinsic call itself sits below these axes.
    ///
    /// Served from the cached loop-nest shape — repeated calls (the
    /// schedule helpers, the timing model, codegen) borrow one precomputed
    /// slice, and the first call derives only that shape, not the
    /// functional executor's tables.
    pub fn axes(&self) -> &[Axis] {
        &self.shape().axes
    }

    /// Total intrinsic calls executed (product of all axis extents).
    pub fn total_calls(&self) -> i64 {
        self.axes().iter().map(|a| a.extent).product()
    }

    /// Whether operand slot `o` (row of `Z`: sources then destination)
    /// depends on axis `a`.
    ///
    /// Tile axes matter when the operand is indexed by that intrinsic
    /// iteration; outer axes matter when the corresponding software access
    /// uses that software iteration. A bit test on the unit's facts.
    pub fn operand_uses_axis(&self, operand_row: usize, axis: &Axis) -> bool {
        match axis.kind {
            AxisKind::TileSpatial(t) | AxisKind::TileReduction(t) => {
                self.facts.z_rows[operand_row] >> t & 1 == 1
            }
            AxisKind::OuterSpatial(id) | AxisKind::OuterReduction(id) => {
                // There are as many sources as inputs: the destination row
                // is numbered like the output access.
                let access = self.correspondence.get(operand_row).unwrap_or(&operand_row);
                self.facts.access_uses(*access, id)
            }
        }
    }

    /// Human-readable compute-mapping string in the style of paper Table 5,
    /// e.g. `[i1, i2, r1] <- [(n * 56 + q) mod 16, k mod 16, (c * 3 + r) mod 16]`.
    pub fn mapping_string(&self) -> String {
        let lhs: Vec<String> = self
            .intrinsic
            .compute
            .iters()
            .iter()
            .map(|it| it.name.clone())
            .collect();
        let rhs: Vec<String> = self
            .groups
            .iter()
            .enumerate()
            .map(|(t, g)| {
                if g.iters.is_empty() {
                    return "0".to_string();
                }
                let extents = self.group_extents(t);
                let mut terms = Vec::new();
                let mut stride = 1i64;
                for d in (0..g.iters.len()).rev() {
                    let name = &self.def.iter_var(g.iters[d]).name;
                    if stride == 1 {
                        terms.push(name.clone());
                    } else {
                        terms.push(format!("{name} * {stride}"));
                    }
                    stride *= extents[d];
                }
                terms.reverse();
                let fused = terms.join(" + ");
                let p = self.intrinsic.compute.iters()[t].extent;
                if self.fused_extent(t) <= p {
                    fused
                } else if g.iters.len() == 1 {
                    format!("{fused} mod {p}")
                } else {
                    format!("({fused}) mod {p}")
                }
            })
            .collect();
        format!("[{}] <- [{}]", lhs.join(", "), rhs.join(", "))
    }
}

/// Ceiling division for positive numbers.
pub fn div_ceil(a: i64, b: i64) -> i64 {
    debug_assert!(b > 0);
    (a + b - 1) / b
}

#[cfg(test)]
mod tests {
    use super::*;
    use amos_hw::catalog;
    use amos_ir::{ComputeBuilder, DType};

    /// Paper Fig 3: conv (n=1,k=4,p=2,q=2,c=1,r=3,s=3) on the 2x2x2 mini mma.
    pub(crate) fn fig3_program() -> MappedProgram {
        let mut b = ComputeBuilder::new("conv2d_fig3");
        let n = b.spatial("n", 1);
        let k = b.spatial("k", 4);
        let p = b.spatial("p", 2);
        let q = b.spatial("q", 2);
        let c = b.reduce("c", 1);
        let r = b.reduce("r", 3);
        let s = b.reduce("s", 3);
        let image = b.input("image", &[1, 1, 4, 4], DType::F32);
        let weight = b.input("weight", &[4, 1, 3, 3], DType::F32);
        let out = b.output("out", &[1, 4, 2, 2], DType::F32);
        b.mul_acc(
            out.at([n.ex(), k.ex(), p.ex(), q.ex()]),
            image.at([n.ex(), c.ex(), p.ex() + r.ex(), q.ex() + s.ex()]),
            weight.at([k.ex(), c.ex(), r.ex(), s.ex()]),
        );
        let def = b.finish().unwrap();
        MappedProgram::new(
            def,
            catalog::mini_mma_2x2x2(),
            vec![
                FusedGroup::of(vec![n.id(), p.id(), q.id()]),
                FusedGroup::of(vec![k.id()]),
                FusedGroup::of(vec![c.id(), r.id(), s.id()]),
            ],
            vec![0, 1],
        )
        .unwrap()
    }

    #[test]
    fn fig3_tile_counts_match_paper() {
        let prog = fig3_program();
        // i1: fuse(n,p,q) = 4 -> 2 tiles of 2; i2: k=4 -> 2 tiles;
        // r1: fuse(c,r,s) = 9 -> 5 tiles of 2 (trailing padding).
        assert_eq!(prog.fused_extent(0), 4);
        assert_eq!(prog.tiles(0), 2);
        assert_eq!(prog.fused_extent(1), 4);
        assert_eq!(prog.tiles(1), 2);
        assert_eq!(prog.fused_extent(2), 9);
        assert_eq!(prog.tiles(2), 5);
        // 2 * 2 * 5 small 2x2x2 multiplications, exactly as Fig 3.
        assert_eq!(prog.total_calls(), 20);
    }

    #[test]
    fn fig3_padding_efficiency() {
        let prog = fig3_program();
        // useful = 4*4*9 = 144; padded = 4*4*10 = 160.
        assert!((prog.padding_efficiency() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn decode_group_handles_padding() {
        let prog = fig3_program();
        // r1 group is (c, r, s) with extents (1, 3, 3); fused 9 values.
        let decoded = prog.decode_group(2, 4).unwrap(); // c=0, r=1, s=1
        let vals: Vec<i64> = decoded.iter().map(|(_, v)| *v).collect();
        assert_eq!(vals, vec![0, 1, 1]);
        assert!(prog.decode_group(2, 9).is_none()); // padding region
        assert!(prog.decode_group(2, 8).is_some());
    }

    #[test]
    fn axes_order_and_kinds() {
        let prog = fig3_program();
        let axes = prog.axes();
        // No outer loops here; 2 spatial tile axes then 1 reduction tile axis.
        assert_eq!(axes.len(), 3);
        assert_eq!(axes[0].kind, AxisKind::TileSpatial(0));
        assert!(axes[0].kind.is_spatial());
        assert_eq!(axes[2].kind, AxisKind::TileReduction(2));
        assert!(!axes[2].kind.is_spatial());
        assert_eq!(axes.iter().map(|a| a.extent).product::<i64>(), 20);
    }

    #[test]
    fn operand_axis_dependence() {
        let prog = fig3_program();
        let axes = prog.axes();
        // Src1 (image) uses i1 and r1, not i2.
        assert!(prog.operand_uses_axis(0, &axes[0])); // i1 tiles
        assert!(!prog.operand_uses_axis(0, &axes[1])); // i2 tiles
        assert!(prog.operand_uses_axis(0, &axes[2])); // r1 tiles
                                                      // Dst (out) uses both spatial, not reduction.
        assert!(prog.operand_uses_axis(2, &axes[0]));
        assert!(prog.operand_uses_axis(2, &axes[1]));
        assert!(!prog.operand_uses_axis(2, &axes[2]));
    }

    #[test]
    fn mapping_string_matches_table5_style() {
        let prog = fig3_program();
        assert_eq!(
            prog.mapping_string(),
            "[i1, i2, r1] <- [(n * 4 + p * 2 + q) mod 2, k mod 2, (c * 9 + r * 3 + s) mod 2]"
        );
    }

    #[test]
    fn duplicate_iteration_rejected() {
        let prog = fig3_program();
        let def = prog.def().clone();
        let err = MappedProgram::new(
            def,
            catalog::mini_mma_2x2x2(),
            vec![
                FusedGroup::of(vec![IterId(0), IterId(0)]),
                FusedGroup::empty(),
                FusedGroup::empty(),
            ],
            vec![0, 1],
        )
        .unwrap_err();
        assert!(matches!(err, SimError::MalformedMapping { .. }));
    }

    #[test]
    fn bad_correspondence_rejected() {
        let prog = fig3_program();
        let def = prog.def().clone();
        let err = MappedProgram::new(
            def,
            catalog::mini_mma_2x2x2(),
            vec![
                FusedGroup::empty(),
                FusedGroup::empty(),
                FusedGroup::empty(),
            ],
            vec![0, 0],
        )
        .unwrap_err();
        assert!(matches!(err, SimError::MalformedMapping { .. }));
    }

    #[test]
    fn empty_group_decodes_only_zero() {
        let prog = fig3_program();
        let def = prog.def().clone();
        let p2 = MappedProgram::new(
            def,
            catalog::mini_mma_2x2x2(),
            vec![
                FusedGroup::of(vec![IterId(0)]),
                FusedGroup::empty(),
                FusedGroup::of(vec![IterId(4)]),
            ],
            vec![0, 1],
        )
        .unwrap();
        assert_eq!(p2.decode_group(1, 0), Some(vec![]));
        assert_eq!(p2.decode_group(1, 1), None);
        // Unmapped iterations (k, p, q, r, s) become outer loops.
        assert_eq!(p2.outer().len(), 5);
    }

    #[test]
    fn the_search_path_never_lowers_the_executor_tables() {
        use crate::{simulate, Schedule};
        let prog = fig3_program();
        let accel = catalog::mini_accel();
        assert!(prog.shape.get().is_none(), "a fresh program lowers nothing");
        assert_eq!(prog.axes().len(), 3);
        assert!(prog.shape.get().is_some());
        assert_eq!(prog.total_calls(), 20);
        let ctx = prog.screening_context(&accel);
        let schedule = Schedule::balanced(&prog, &accel);
        schedule.validate(&prog, &accel).expect("balanced is legal");
        assert!(ctx.schedule_feasible(&schedule));
        simulate(&prog, &schedule, &accel).expect("simulates");
        assert!(
            prog.compiled.get().is_none(),
            "axes, screening, schedules and simulate read the shape only"
        );
    }

    #[test]
    fn execute_mapped_lowers_the_executor_once_and_clones_share_it() {
        use crate::execute_mapped;
        let prog = fig3_program();
        let tensors = amos_ir::interp::make_inputs(prog.def(), 3);
        let first = execute_mapped(&prog, &tensors).expect("executes");
        let lowered = Arc::clone(prog.compiled.get().expect("lowered by the first execution"));
        assert!(
            prog.shape.get().is_none(),
            "the executor does not need the loop-nest shape"
        );
        // A second execution and a clone's execution reuse the same tables.
        let copy = prog.clone();
        assert_eq!(execute_mapped(&prog, &tensors).expect("executes"), first);
        assert_eq!(execute_mapped(&copy, &tensors).expect("executes"), first);
        for p in [&prog, &copy] {
            assert!(Arc::ptr_eq(
                p.compiled.get().expect("still lowered"),
                &lowered
            ));
        }
        // A clone shares the definition and the intrinsic, too.
        assert!(Arc::ptr_eq(&prog.def, &copy.def));
        assert!(Arc::ptr_eq(&prog.intrinsic, &copy.intrinsic));
    }

    #[test]
    fn siblings_share_the_unit_and_are_checked_like_new() {
        let prog = fig3_program();
        let swapped = prog.sibling(prog.groups().to_vec(), vec![1, 0]).unwrap();
        assert!(Arc::ptr_eq(&prog.def, &swapped.def));
        assert!(Arc::ptr_eq(&prog.intrinsic, &swapped.intrinsic));
        assert!(Arc::ptr_eq(&prog.facts, &swapped.facts));
        let own = MappedProgram::new(
            prog.def().clone(),
            prog.intrinsic().clone(),
            prog.groups().to_vec(),
            vec![1, 0],
        )
        .unwrap();
        assert_eq!(swapped, own);
        for row in 0..3 {
            for axis in own.axes() {
                assert_eq!(
                    swapped.operand_uses_axis(row, axis),
                    own.operand_uses_axis(row, axis)
                );
            }
        }
        let err = prog.sibling(vec![FusedGroup::empty(); 2], vec![0, 1]);
        assert!(matches!(err, Err(SimError::MalformedMapping { .. })));
    }

    #[test]
    fn div_ceil_behaviour() {
        assert_eq!(div_ceil(9, 2), 5);
        assert_eq!(div_ceil(8, 2), 4);
        assert_eq!(div_ceil(1, 16), 1);
    }
}
