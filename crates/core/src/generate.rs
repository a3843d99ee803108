//! Mapping generation (paper §5.1) — the exhaustive, fully automatic
//! enumeration of valid software–hardware mappings.
//!
//! The generator follows the paper's two-step flow. The *virtual* step is
//! signature matching: every software iteration's access signature (which
//! operands reference it) must equal the `Z` column of the intrinsic
//! iteration it fuses into — this is exactly what Algorithm 1 certifies, so
//! candidates are constructed per-column and the full matrix check runs as a
//! final belt-and-braces pass. The *physical* step (problem-size `mod`
//! restriction, tiling, padding) happens at lowering in [`Mapping::lower`].
//!
//! Everything the leaf of that enumeration checks — Algorithm 1, the rules
//! below, fragment coherence, the mirror key — depends on the
//! `(computation, intrinsic)` pair through a handful of small tables, so
//! an enumeration builds them once per call and the leaf works on bitmasks:
//! one `u64` of software iterations per intrinsic axis. The final pass
//! assembles `X` and `Y` from those masks into two reused matrices and runs
//! the same [`crate::validate::algorithm1`], once per candidate that passes
//! the rules; [`crate::validate::validate_mapping`] is a one-shot wrapper
//! over the same tables. A mapping that passes stays in that form
//! ([`MaskedMappings`]); only [`MappingGenerator::enumerate`] turns the whole
//! set into [`Mapping`]s.
//!
//! Beyond Algorithm 1, three generation rules shape the space (reverse
//! engineered from the paper's Table 6 counts; see DESIGN.md §5):
//!
//! 1. **Addressability** — an iteration occurring under floor-division or
//!    modulo in an access (or in a predicate) cannot be given base-plus-
//!    stride addresses by a memory intrinsic, unless it directly addresses an
//!    output axis; such iterations stay outer. This yields T2D = 7.
//! 2. **No singleton-window reduction groups** — a reduction axis must not be
//!    fed by a single window iteration (one participating in a compound index
//!    such as `p + r`). This yields C2D = 35, C3D = 180, C1D = 6.
//! 3. **Mandatory coverage** — an intrinsic axis with a non-empty candidate
//!    pool must receive at least one iteration; axes with no candidates are
//!    padded to extent 1 (GMV still maps with `i2` empty).
//!
//! Mappings that are mirror images under operand-slot permutation (swapping
//! `Src1`/`Src2` of a commutative multiply-add) are deduplicated, keyed by
//! iteration identity.

use crate::mapping::Mapping;
use crate::validate::AccessTable;
use amos_hw::{ComputeAbstraction, Intrinsic};
use amos_ir::{ComputeDef, IterId, IterKind};
use amos_sim::{set_bits, FusedGroup};

/// Tunable generation rules.
#[derive(Debug, Clone, PartialEq)]
pub struct MappingPolicy {
    /// Rule 2 above.
    pub forbid_singleton_window_reduction: bool,
    /// Rule 3 above.
    pub require_nonempty_axes: bool,
    /// Require fragment-layout coherence for compound intrinsic operand
    /// dimensions (window engines): iterations fused into a compound
    /// dimension must align with a software window expression.
    pub enforce_fragment_coherence: bool,
    /// Safety cap on the number of generated mappings.
    pub max_mappings: usize,
}

impl Default for MappingPolicy {
    fn default() -> Self {
        MappingPolicy {
            forbid_singleton_window_reduction: true,
            require_nonempty_axes: true,
            enforce_fragment_coherence: true,
            max_mappings: 100_000,
        }
    }
}

/// Enumerates valid software–hardware mappings for a computation on an
/// intrinsic.
#[derive(Debug, Clone, Default)]
pub struct MappingGenerator {
    policy: MappingPolicy,
}

impl MappingGenerator {
    /// Generator with the default (paper-matching) policy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Generator with a custom policy.
    pub fn with_policy(policy: MappingPolicy) -> Self {
        MappingGenerator { policy }
    }

    /// The active policy.
    pub fn policy(&self) -> &MappingPolicy {
        &self.policy
    }

    /// Enumerates all valid mappings of `def` onto `intrinsic`,
    /// deduplicated up to operand-slot mirror symmetry, in a deterministic
    /// order. Empty when the operation or operand count differs, or when the
    /// definition is too wide for the 64-bit iteration masks.
    pub fn enumerate(&self, def: &ComputeDef, intrinsic: &Intrinsic) -> Vec<Mapping> {
        let set = self.enumerate_masks(def, intrinsic);
        (0..set.len()).map(|i| set.mapping(i)).collect()
    }

    /// Number of valid mappings (the quantity reported in paper Table 6).
    pub fn count(&self, def: &ComputeDef, intrinsic: &Intrinsic) -> usize {
        self.enumerate_masks(def, intrinsic).len()
    }

    /// [`MappingGenerator::enumerate`] as the enumerator finds the mappings:
    /// same set, same order, none of them materialized.
    pub(crate) fn enumerate_masks(
        &self,
        def: &ComputeDef,
        intrinsic: &Intrinsic,
    ) -> MaskedMappings {
        if def.op() != intrinsic.compute.op() {
            return MaskedMappings::default();
        }
        let Some(table) = EnumTable::new(def, intrinsic) else {
            return MaskedMappings::default();
        };
        let mut run = Enumeration::new(&self.policy, table);
        for correspondence in permutations(def.inputs().len()) {
            run.start_correspondence(correspondence);
            run.assign(0);
            if run.out.len() >= self.policy.max_mappings {
                break;
            }
        }
        run.out
    }
}

/// A mapping set held the way the enumerator found it: per mapping, one
/// software-iteration mask per intrinsic axis and the index of its operand
/// correspondence, in flat buffers. Mapping `i` is
/// [`MaskedMappings::mapping`]`(i)`; a mask keeps no order inside a fused
/// group, so the groups list their iterations in declaration order, as the
/// enumerated [`Mapping`]s always have.
#[derive(Debug, Clone, Default)]
pub(crate) struct MaskedMappings {
    /// Mapping `i`'s masks are `masks[i * axes..][..axes]`, `axes` being the
    /// intrinsic's axis count.
    masks: Vec<u64>,
    /// Mapping `i`'s correspondence is `correspondences[corr[i]]`.
    corr: Vec<u32>,
    correspondences: Vec<Vec<usize>>,
}

impl MaskedMappings {
    /// Appends a mapping: one iteration mask per intrinsic axis and its
    /// operand correspondence.
    pub(crate) fn push(&mut self, groups: &[u64], correspondence: &[usize]) {
        debug_assert_eq!(self.masks.len(), self.len() * groups.len());
        // A run of mappings under one correspondence shares one copy.
        if self.correspondences.last().map(Vec::as_slice) != Some(correspondence) {
            self.correspondences.push(correspondence.to_vec());
        }
        self.masks.extend_from_slice(groups);
        self.corr.push(self.correspondences.len() as u32 - 1);
    }

    /// Number of mappings.
    pub(crate) fn len(&self) -> usize {
        self.corr.len()
    }

    /// `true` when the set is empty.
    pub(crate) fn is_empty(&self) -> bool {
        self.corr.is_empty()
    }

    /// The fused groups of mapping `i`.
    pub(crate) fn groups(&self, i: usize) -> Vec<FusedGroup> {
        let axes = self.masks.len() / self.len();
        self.masks[i * axes..][..axes]
            .iter()
            .map(|&g| FusedGroup::of(set_bits(g).map(|s| IterId(s as u32)).collect()))
            .collect()
    }

    /// The operand correspondence of mapping `i`.
    pub(crate) fn correspondence(&self, i: usize) -> &[usize] {
        &self.correspondences[self.corr[i] as usize]
    }

    /// Mapping `i`, materialized.
    pub(crate) fn mapping(&self, i: usize) -> Mapping {
        Mapping {
            groups: self.groups(i),
            correspondence: self.correspondence(i).to_vec(),
        }
    }
}

/// The mirror keys of the mappings found so far: key `k` is the sorted
/// `(operand-identity class, fused group)` list of mapping `k`, `width`
/// entries, stored back to back. An open-addressing table of indices finds
/// them by an in-tree hash and compares every probe exactly, so a collision
/// can cost a step but never drop a mapping.
#[derive(Default)]
struct MirrorKeys {
    width: usize,
    keys: Vec<(usize, u64)>,
    /// `index + 1` of a key; `0` marks an empty slot.
    table: Vec<u32>,
}

impl MirrorKeys {
    fn hash(key: &[(usize, u64)]) -> u64 {
        let mut h = 0u64;
        for &(class, group) in key {
            h = (h.rotate_left(5) ^ class as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            h = (h.rotate_left(5) ^ group).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        }
        h >> 32
    }

    fn key(&self, k: usize) -> &[(usize, u64)] {
        &self.keys[k * self.width..][..self.width]
    }

    /// Adds `key` (`width` entries); `false` when it was already present.
    fn insert(&mut self, key: &[(usize, u64)]) -> bool {
        let len = self.keys.len() / self.width.max(1);
        if (len + 1) * 2 > self.table.len() {
            self.table = vec![0; (self.table.len() * 2).max(64)];
            for k in 0..len {
                let at = self.slot_of(self.key(k));
                self.table[at] = k as u32 + 1;
            }
        }
        let at = self.slot_of(key);
        if self.table[at] != 0 {
            return false;
        }
        self.keys.extend_from_slice(key);
        self.table[at] = len as u32 + 1;
        true
    }

    /// The table slot holding `key`, or the empty slot it belongs in.
    fn slot_of(&self, key: &[(usize, u64)]) -> usize {
        let mask = self.table.len() - 1;
        let mut at = Self::hash(key) as usize & mask;
        while let Some(k) = (self.table[at] as usize).checked_sub(1) {
            if self.key(k) == key {
                break;
            }
            at = (at + 1) & mask;
        }
        at
    }
}

/// Bitmask of a set of iterations.
fn iter_mask(ids: impl IntoIterator<Item = IterId>) -> u64 {
    ids.into_iter().fold(0, |mask, s| mask | 1 << s.index())
}

/// The intrinsic axes operand `row` (sources, then the destination) indexes
/// through a compound dimension — one over two or more iterations.
fn compound_dim_axes(compute: &ComputeAbstraction, row: usize) -> u64 {
    let spec = match compute.srcs().get(row) {
        Some(src) => src,
        None => compute.dst(),
    };
    let compound = spec.dims.iter().map(|e| e.vars()).filter(|v| v.len() >= 2);
    iter_mask(compound.flatten())
}

/// Everything the leaf checks of one enumeration need that depends only on
/// `(def, intrinsic)`, built once per [`MappingGenerator::enumerate`] call.
/// Iteration sets are `u64` masks (bit `s` = software iteration `s`, bit `t`
/// = intrinsic axis `t`); [`AccessTable::new`] bounds both widths.
struct EnumTable {
    access: AccessTable,
    coherence: CoherenceTable,
    /// Per operand row (sources, then destination): the axes it indexes
    /// through a compound dimension.
    row_compound_axes: Vec<u64>,
    /// The axes rule 2 guards: reductions outside every compound dimension.
    /// The window axes of the intrinsic itself are exempt (mapping a software
    /// window iteration alone onto a hardware window axis is the intended
    /// use of a convolution engine).
    plain_reduction_axes: u64,
    /// Software iterations participating in a compound index (rule 2).
    window_iters: u64,
    /// Software iterations a memory intrinsic can address (rule 1).
    addressable: u64,
    /// Mirror-deduplication identity of each input access: identical
    /// accesses (same tensor, same indices) share a key.
    access_keys: Vec<usize>,
}

impl EnumTable {
    fn new(def: &ComputeDef, intrinsic: &Intrinsic) -> Option<Self> {
        let access = AccessTable::new(def, intrinsic)?;
        let compute = &intrinsic.compute;
        let row_compound_axes: Vec<u64> = (0..=compute.num_srcs())
            .map(|row| compound_dim_axes(compute, row))
            .collect();
        let non_addressable = iter_mask(
            def.div_mod_participants()
                .into_iter()
                .chain(def.predicates().iter().flat_map(|e| e.vars()))
                .filter(|&s| !def.anchored_in_output(s)),
        );
        Some(EnumTable {
            access,
            coherence: CoherenceTable::new(def, intrinsic),
            plain_reduction_axes: (0..compute.iters().len())
                .filter(|&t| compute.iters()[t].kind == IterKind::Reduction)
                .fold(0, |mask, t| mask | 1 << t)
                & !row_compound_axes.iter().fold(0, |all, m| all | m),
            row_compound_axes,
            window_iters: iter_mask(def.compound_participants()),
            addressable: !non_addressable,
            access_keys: def
                .inputs()
                .iter()
                .map(|a| {
                    def.inputs()
                        .iter()
                        .position(|b| b == a)
                        .expect("access equals itself")
                })
                .collect(),
        })
    }
}

/// The affine coefficients fragment-layout coherence compares (see
/// [`CoherenceTable::coherent`]).
struct CoherenceTable {
    /// Per intrinsic source slot, its compound dimensions as
    /// `(intrinsic axis, coefficient)` lists of two or more entries.
    compound_dims: Vec<Vec<Vec<(usize, i64)>>>,
    /// Per software input access, the coefficient vector of every affine
    /// index expression plus the mask of its non-zero entries.
    alphas: Vec<Vec<(Vec<i64>, u64)>>,
}

impl CoherenceTable {
    fn new(def: &ComputeDef, intrinsic: &Intrinsic) -> Self {
        let num_t = intrinsic.compute.iters().len();
        let nonzero = |coeffs: &[i64]| -> Vec<(usize, i64)> {
            let entries = coeffs.iter().copied().enumerate();
            entries.filter(|&(_, c)| c != 0).collect()
        };
        CoherenceTable {
            compound_dims: intrinsic
                .compute
                .srcs()
                .iter()
                .map(|spec| {
                    spec.dims
                        .iter()
                        .map(|dim| {
                            let (gamma, _) = dim
                                .affine_coefficients(num_t)
                                .expect("intrinsic dims are affine");
                            nonzero(&gamma)
                        })
                        // A single-iteration dimension is always coherent.
                        .filter(|gamma| gamma.len() >= 2)
                        .collect()
                })
                .collect(),
            alphas: def
                .inputs()
                .iter()
                .map(|access| {
                    access
                        .indices
                        .iter()
                        .filter_map(|e| e.affine_coefficients(def.iters().len()))
                        .map(|(alpha, _)| {
                            let mask = nonzero(&alpha).iter().fold(0, |m, &(s, _)| m | 1 << s);
                            (alpha, mask)
                        })
                        .collect()
                })
                .collect(),
        }
    }

    /// Checks that iterations fused into *compound* intrinsic operand
    /// dimensions (e.g. the `i2 + r2` line buffer of a convolution engine)
    /// line up with a software window expression: each such axis carries at
    /// most one software iteration, and the corresponding software access
    /// contains an index whose coefficients over those iterations match the
    /// intrinsic dimension's coefficients. `groups` holds one iteration mask
    /// per intrinsic axis.
    fn coherent(&self, correspondence: &[usize], groups: &[u64]) -> bool {
        let mapped = groups.iter().fold(0, |all, g| all | g);
        for (dims, &access) in self.compound_dims.iter().zip(correspondence) {
            for dim in dims {
                // Each participating axis must carry at most one iteration.
                if dim.iter().any(|&(t, _)| groups[t].count_ones() > 1) {
                    return false;
                }
                let own = dim.iter().fold(0, |all, &(t, _)| all | groups[t]);
                if own.count_ones() < 2 {
                    continue; // at most one live axis: degenerates to single-var
                }
                // The software access must contain an index expression
                // matching the intrinsic coefficients on exactly these
                // iterations, shared with no other *mapped* iteration.
                let found = self.alphas[access].iter().any(|(alpha, nonzero)| {
                    nonzero & mapped & !own == 0
                        && dim.iter().all(|&(t, gamma)| {
                            groups[t] == 0 || alpha[groups[t].trailing_zeros() as usize] == gamma
                        })
                });
                if !found {
                    return false;
                }
            }
        }
        true
    }
}

/// The state of one enumeration: the shared table, the tables of the operand
/// correspondence being walked, the assignment under construction and the
/// mappings found so far.
struct Enumeration<'a> {
    policy: &'a MappingPolicy,
    table: EnumTable,
    /// `correspondence[m]` is the input access feeding source slot `m`.
    correspondence: Vec<usize>,
    /// Candidate intrinsic axes per software iteration.
    candidates: Vec<Vec<usize>>,
    /// Axes some iteration could feed (rule 3).
    pool_nonempty: u64,
    /// Per axis, the index into `classes` of the software-side identity of
    /// the operands that use it under this correspondence.
    axis_class: Vec<usize>,
    /// Software iterations assigned to each intrinsic axis so far.
    groups: Vec<u64>,
    /// Distinct operand identities seen across all correspondences: sorted
    /// `(access key, compound)` lists, `usize::MAX` keying the destination.
    classes: Vec<Vec<(usize, bool)>>,
    /// The mirror key of the current assignment (see
    /// [`Enumeration::mirror_key`]).
    key: Vec<(usize, u64)>,
    /// Mirror-invariant keys of the mappings in `out`, in `out`'s order.
    seen: MirrorKeys,
    out: MaskedMappings,
}

impl<'a> Enumeration<'a> {
    fn new(policy: &'a MappingPolicy, table: EnumTable) -> Self {
        let axes = table.access.z().cols();
        Enumeration {
            policy,
            groups: vec![0; axes],
            table,
            correspondence: Vec::new(),
            candidates: Vec::new(),
            pool_nonempty: 0,
            axis_class: Vec::new(),
            classes: Vec::new(),
            key: Vec::with_capacity(axes),
            seen: MirrorKeys {
                width: axes,
                ..MirrorKeys::default()
            },
            out: MaskedMappings::default(),
        }
    }

    /// Signature matching for one operand correspondence: an iteration may
    /// fuse into the axes whose `Z` column equals its access signature.
    fn start_correspondence(&mut self, correspondence: Vec<usize>) {
        let table = &self.table;
        let z = table.access.z();
        let dst_row = z.rows() - 1;
        let access_of = |row: usize| correspondence.get(row).copied().unwrap_or(dst_row);
        self.candidates = (0..table.access.iters())
            .map(|s| {
                if table.addressable >> s & 1 == 0 {
                    return Vec::new();
                }
                (0..z.cols())
                    .filter(|&t| {
                        (0..=dst_row)
                            .all(|row| z.get(row, t) == table.access.uses(access_of(row), s))
                    })
                    .collect()
            })
            .collect();
        self.pool_nonempty = self
            .candidates
            .iter()
            .flatten()
            .fold(0, |pool, &t| pool | 1 << t);
        self.axis_class = (0..z.cols())
            .map(|t| {
                let mut class: Vec<(usize, bool)> = (0..=dst_row)
                    .filter(|&row| z.get(row, t))
                    .map(|row| {
                        let key = match correspondence.get(row) {
                            Some(&access) => table.access_keys[access],
                            None => usize::MAX,
                        };
                        (key, table.row_compound_axes[row] >> t & 1 == 1)
                    })
                    .collect();
                class.sort_unstable();
                match self.classes.iter().position(|c| *c == class) {
                    Some(known) => known,
                    None => {
                        self.classes.push(class);
                        self.classes.len() - 1
                    }
                }
            })
            .collect();
        self.correspondence = correspondence;
    }

    /// Enumerates assignments: each iteration from `s` on picks one
    /// candidate axis or stays outer.
    fn assign(&mut self, s: usize) {
        if self.out.len() >= self.policy.max_mappings {
            return;
        }
        if s == self.candidates.len() {
            self.finish_assignment();
            return;
        }
        self.assign(s + 1);
        for c in 0..self.candidates[s].len() {
            let t = self.candidates[s][c];
            self.groups[t] |= 1 << s;
            self.assign(s + 1);
            self.groups[t] &= !(1 << s);
        }
    }

    /// Mirror-invariant key of the current assignment: for every intrinsic
    /// axis, the software-side identity of the operands that use it (via the
    /// correspondence) plus the fused group, as a sorted list, written into
    /// the reused `key` buffer.
    fn mirror_key(&mut self) -> &[(usize, u64)] {
        let classes = self.axis_class.iter().copied();
        self.key.clear();
        self.key.extend(classes.zip(self.groups.iter().copied()));
        self.key.sort_unstable();
        &self.key
    }

    /// The leaf: generation rules 2 and 3, Algorithm 1, fragment coherence
    /// and mirror deduplication, all over the shared table.
    fn finish_assignment(&mut self) {
        let table = &mut self.table;
        if self.groups.iter().all(|&g| g == 0) {
            return;
        }
        for (t, &g) in self.groups.iter().enumerate() {
            if self.policy.require_nonempty_axes && self.pool_nonempty >> t & 1 == 1 && g == 0 {
                return;
            }
            if self.policy.forbid_singleton_window_reduction
                && table.plain_reduction_axes >> t & 1 == 1
                && g.count_ones() == 1
                && g & table.window_iters != 0
            {
                return;
            }
        }
        if !table.access.check(&self.correspondence, &self.groups) {
            return;
        }
        if self.policy.enforce_fragment_coherence
            && !table.coherence.coherent(&self.correspondence, &self.groups)
        {
            return;
        }
        self.mirror_key();
        if self.seen.insert(&self.key) {
            self.out.push(&self.groups, &self.correspondence);
        }
    }
}

/// All permutations of `0..n` in lexicographic order (identity first).
fn permutations(n: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut items: Vec<usize> = (0..n).collect();
    permute(&mut items, 0, &mut out);
    out.sort();
    out
}

fn permute(items: &mut Vec<usize>, k: usize, out: &mut Vec<Vec<usize>>) {
    if k == items.len() {
        out.push(items.clone());
        return;
    }
    for i in k..items.len() {
        items.swap(k, i);
        permute(items, k + 1, out);
        items.swap(k, i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::{algorithm1_naive, validate_mapping};
    use amos_hw::catalog;
    use amos_ir::{BinMatrix, ComputeBuilder, DType};
    use proptest::prelude::*;

    fn conv2d() -> ComputeDef {
        let mut b = ComputeBuilder::new("c2d");
        let n = b.spatial("n", 4);
        let k = b.spatial("k", 8);
        let p = b.spatial("p", 6);
        let q = b.spatial("q", 6);
        let c = b.reduce("c", 8);
        let r = b.reduce("r", 3);
        let s = b.reduce("s", 3);
        let img = b.input("image", &[4, 8, 8, 8], DType::F16);
        let wt = b.input("weight", &[8, 8, 3, 3], DType::F16);
        let out = b.output("out", &[4, 8, 6, 6], DType::F32);
        b.mul_acc(
            out.at([n.ex(), k.ex(), p.ex(), q.ex()]),
            img.at([n.ex(), c.ex(), p.ex() + r.ex(), q.ex() + s.ex()]),
            wt.at([k.ex(), c.ex(), r.ex(), s.ex()]),
        );
        b.finish().unwrap()
    }

    fn gemm() -> ComputeDef {
        let mut b = ComputeBuilder::new("gemm");
        let i = b.spatial("i", 32);
        let j = b.spatial("j", 32);
        let k = b.reduce("k", 32);
        let a = b.input("a", &[32, 32], DType::F16);
        let w = b.input("b", &[32, 32], DType::F16);
        let c = b.output("c", &[32, 32], DType::F32);
        b.mul_acc(c.at([i, j]), a.at([i, k]), w.at([k, j]));
        b.finish().unwrap()
    }

    fn gemv() -> ComputeDef {
        let mut b = ComputeBuilder::new("gemv");
        let i = b.spatial("i", 32);
        let k = b.reduce("k", 32);
        let a = b.input("a", &[32, 32], DType::F16);
        let x = b.input("x", &[32], DType::F16);
        let o = b.output("o", &[32], DType::F32);
        b.mul_acc(o.at([i]), a.at([i, k]), x.at([k]));
        b.finish().unwrap()
    }

    #[test]
    fn gemm_has_exactly_one_mapping_on_tensor_core() {
        let g = MappingGenerator::new();
        assert_eq!(g.count(&gemm(), &catalog::wmma_16x16x16()), 1);
    }

    #[test]
    fn gemv_has_exactly_one_mapping_on_tensor_core() {
        let g = MappingGenerator::new();
        let maps = g.enumerate(&gemv(), &catalog::wmma_16x16x16());
        assert_eq!(maps.len(), 1);
        // One intrinsic axis stays empty (padded).
        assert!(maps[0].groups.iter().any(|g| g.iters.is_empty()));
    }

    #[test]
    fn conv2d_has_35_mappings_on_tensor_core() {
        // The headline count of paper §5.2 / Table 6.
        let g = MappingGenerator::new();
        assert_eq!(g.count(&conv2d(), &catalog::wmma_16x16x16()), 35);
    }

    #[test]
    fn conv2d_mappings_are_all_algorithm1_valid() {
        let g = MappingGenerator::new();
        let def = conv2d();
        let intr = catalog::wmma_16x16x16();
        for m in g.enumerate(&def, &intr) {
            assert!(
                validate_mapping(&def, &intr, &m),
                "{}",
                m.describe(&def, &intr)
            );
        }
    }

    #[test]
    fn relaxing_window_rule_grows_the_space() {
        let policy = MappingPolicy {
            forbid_singleton_window_reduction: false,
            ..MappingPolicy::default()
        };
        let g = MappingGenerator::with_policy(policy);
        // 7 x 1 x 7 = 49 assignments without rule 2.
        assert_eq!(g.count(&conv2d(), &catalog::wmma_16x16x16()), 49);
    }

    #[test]
    fn op_mismatch_yields_no_mappings() {
        let mut b = ComputeBuilder::new("sum");
        let i = b.spatial("i", 4);
        let k = b.reduce("k", 4);
        let a = b.input("a", &[4, 4], DType::F32);
        let o = b.output("o", &[4], DType::F32);
        b.add_acc(o.at([i]), a.at([i, k]));
        let def = b.finish().unwrap();
        let g = MappingGenerator::new();
        assert_eq!(g.count(&def, &catalog::wmma_16x16x16()), 0);
    }

    #[test]
    fn mirror_keys_answer_by_exact_equality_through_growth() {
        let mut keys = MirrorKeys {
            width: 3,
            ..MirrorKeys::default()
        };
        let mut reference = std::collections::HashSet::new();
        for k in 0u64..2_000 {
            // Few distinct classes and groups: many repeats, many near misses.
            let key = [(k as usize % 3, k % 7), (1, k % 11), (2, k % 5)];
            assert_eq!(keys.insert(&key), reference.insert(key));
            assert!(!keys.insert(&key), "a second insert finds it");
        }
        assert_eq!(keys.keys.len(), 3 * reference.len());
    }

    #[test]
    fn permutations_enumerate_in_order() {
        assert_eq!(permutations(1), vec![vec![0]]);
        assert_eq!(permutations(2), vec![vec![0, 1], vec![1, 0]]);
        assert_eq!(permutations(3).len(), 6);
        assert_eq!(permutations(3)[0], vec![0, 1, 2]);
    }

    #[test]
    fn same_tensor_in_both_slots_deduplicates() {
        // The operand-slot swap of a symmetric product yields a mirror
        // mapping that must collapse to one.
        let def = symmetric_product();
        let g = MappingGenerator::new();
        assert_eq!(g.count(&def, &catalog::wmma_16x16x16()), 1);
    }

    #[test]
    fn vnni_maps_conv2d_through_its_matrix_vector_form() {
        // Two mapping families exist on the matrix-vector unit: the image as
        // the per-lane matrix with the weight broadcast (i1 from {n,p,q}:
        // 7 x 5 reduction choices) and the transposed role with the output
        // channels in the lanes (i1 = {k}: 1 x 5).
        let g = MappingGenerator::new();
        assert_eq!(g.count(&conv2d(), &catalog::avx512_vnni()), 40);
    }

    #[test]
    fn conv_unit_requires_window_alignment() {
        let def = conv1d();
        let g = MappingGenerator::new();
        let maps = g.enumerate(&def, &catalog::conv_unit());
        assert!(!maps.is_empty(), "direct window mapping must exist");
        // Every surviving mapping respects fragment coherence.
        let coherence = CoherenceTable::new(&def, &catalog::conv_unit());
        for m in &maps {
            let groups = m.group_masks(def.iters().len()).expect("fits the masks");
            assert!(coherence.coherent(&m.correspondence, &groups));
        }
    }

    /// 1D conv for the window engine: `out[a,x] += img[c, x+w] * wt[a,c,w]`.
    fn conv1d() -> ComputeDef {
        let mut b = ComputeBuilder::new("c1d");
        let a = b.spatial("a", 8);
        let x = b.spatial("x", 8);
        let c = b.reduce("c", 8);
        let w = b.reduce("w", 3);
        let img = b.input("img", &[8, 10], DType::F16);
        let wt = b.input("wt", &[8, 8, 3], DType::F16);
        let o = b.output("o", &[8, 8], DType::F32);
        b.mul_acc(
            o.at([a.ex(), x.ex()]),
            img.at([c.ex(), x.ex() + w.ex()]),
            wt.at([a.ex(), c.ex(), w.ex()]),
        );
        b.finish().unwrap()
    }

    /// `out[i,j] += a[i,k] * a[k,j]`: both input accesses read one tensor.
    fn symmetric_product() -> ComputeDef {
        let mut b = ComputeBuilder::new("sym");
        let i = b.spatial("i", 16);
        let j = b.spatial("j", 16);
        let k = b.reduce("k", 16);
        let a = b.input("a", &[16, 16], DType::F16);
        let o = b.output("o", &[16, 16], DType::F32);
        let acc1 = a.at([i, k]);
        let acc2 = a.at([k, j]);
        b.mul_acc(o.at([i, j]), acc1, acc2);
        b.finish().unwrap()
    }

    /// Operator × intrinsic pairs of the equivalence proptests; the first
    /// `SMALL` have assignment spaces small enough to walk exhaustively.
    fn equivalence_cases() -> Vec<(ComputeDef, Intrinsic)> {
        vec![
            (gemm(), catalog::wmma_16x16x16()),
            (gemv(), catalog::avx512_vnni()),
            (symmetric_product(), catalog::wmma_16x16x16()),
            (conv1d(), catalog::conv_unit()),
            (conv2d(), catalog::wmma_16x16x16()),
            (conv2d(), catalog::avx512_vnni()),
        ]
    }
    const SMALL: usize = 4;

    /// The `format!`-built mirror key the enumerator used before the structural
    /// one, kept as the oracle of the key-equivalence proptest.
    fn canonical_key(
        def: &ComputeDef,
        intrinsic: &Intrinsic,
        mapping: &Mapping,
        access_keys: &[usize],
    ) -> String {
        let z = intrinsic.compute.access_matrix();
        let num_t = intrinsic.compute.iters().len();
        let num_srcs = intrinsic.compute.num_srcs();
        let mut elems: Vec<String> = (0..num_t)
            .map(|t| {
                let mut ops: Vec<String> = Vec::new();
                for row in 0..z.rows() {
                    if !z[(row, t)] {
                        continue;
                    }
                    let (id, compound) = if row < num_srcs {
                        let spec = &intrinsic.compute.srcs()[row];
                        let compound = spec
                            .dims
                            .iter()
                            .any(|e| e.uses(IterId(t as u32)) && e.vars().len() >= 2);
                        (access_keys[mapping.correspondence[row]], compound)
                    } else {
                        let spec = intrinsic.compute.dst();
                        let compound = spec
                            .dims
                            .iter()
                            .any(|e| e.uses(IterId(t as u32)) && e.vars().len() >= 2);
                        (usize::MAX, compound)
                    };
                    ops.push(format!("{id}:{compound}"));
                }
                ops.sort();
                let group: Vec<String> = mapping.groups[t]
                    .iters
                    .iter()
                    .map(|s| def.iter_var(*s).name.clone())
                    .collect();
                format!("[{}]<-({})", ops.join(","), group.join(","))
            })
            .collect();
        elems.sort();
        elems.join(";")
    }

    /// Decodes `code` digit by digit in base `axes + 1` into one group mask
    /// per intrinsic axis: digit 0 leaves the iteration outer, digit `d`
    /// fuses it into axis `d - 1`.
    fn groups_from_code(mut code: u64, iters: usize, axes: usize) -> Vec<u64> {
        let mut groups = vec![0u64; axes];
        for s in 0..iters {
            let digit = (code % (axes as u64 + 1)) as usize;
            code /= axes as u64 + 1;
            if digit > 0 {
                groups[digit - 1] |= 1 << s;
            }
        }
        groups
    }

    fn mapping_of(groups: &[u64], correspondence: &[usize]) -> Mapping {
        Mapping {
            groups: groups
                .iter()
                .map(|&g| FusedGroup::of(set_bits(g).map(|s| IterId(s as u32)).collect()))
                .collect(),
            correspondence: correspondence.to_vec(),
        }
    }

    /// The Algorithm-1 inputs as the pre-table `validate_mapping` built them,
    /// entry by entry over compacted columns: the mapped iterations in
    /// declaration order, then one synthetic column per empty axis.
    fn explicit_matrices(
        def: &ComputeDef,
        intrinsic: &Intrinsic,
        mapping: &Mapping,
    ) -> (BinMatrix, BinMatrix, BinMatrix) {
        let z = intrinsic.compute.access_matrix();
        let mapped = mapping.mapped_iters();
        let empty_axes: Vec<usize> = (0..z.cols())
            .filter(|&t| mapping.groups[t].iters.is_empty())
            .collect();
        let cols = mapped.len() + empty_axes.len();
        let mut x = BinMatrix::zeros(z.rows(), cols);
        let mut y = BinMatrix::zeros(z.cols(), cols);
        for (col, &s) in mapped.iter().enumerate() {
            for (m, &input) in mapping.correspondence.iter().enumerate() {
                let access = &def.inputs()[input];
                x.set(m, col, access.indices.iter().any(|e| e.uses(s)));
            }
            let in_output = def.output().indices.iter().any(|e| e.uses(s));
            x.set(z.rows() - 1, col, in_output);
            let t = mapping.groups.iter().position(|g| g.iters.contains(&s));
            y.set(t.expect("mapped iteration has a group"), col, true);
        }
        for (k, &t) in empty_axes.iter().enumerate() {
            for row in 0..z.rows() {
                x.set(row, mapped.len() + k, z.get(row, t));
            }
            y.set(t, mapped.len() + k, true);
        }
        (x, y, z)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn table_check_agrees_with_validate_mapping_and_naive_algorithm1(
            case in 0usize..6,
            swapped in 0usize..2,
            code in 0u64..u64::MAX,
            // 0: a uniformly random assignment (mostly invalid, often with
            // empty axes); 1: an enumerated, valid mapping; 2: a valid
            // mapping with one iteration dropped to the outer loops.
            shape in 0usize..3,
        ) {
            let (def, intrinsic) = equivalence_cases().swap_remove(case);
            let axes = intrinsic.compute.iters().len();
            let iters = def.iters().len();
            let mut correspondence: Vec<usize> = (0..def.inputs().len()).collect();
            let mut groups = groups_from_code(code, iters, axes);
            if shape == 0 {
                if swapped == 1 {
                    correspondence.reverse();
                }
            } else {
                let valid = MappingGenerator::new().enumerate(&def, &intrinsic);
                let pick = &valid[code as usize % valid.len()];
                correspondence = pick.correspondence.clone();
                groups = pick.group_masks(iters).expect("enumerated mappings fit the masks");
                if shape == 2 {
                    let victim = (code >> 32) as usize % iters;
                    for g in &mut groups {
                        *g &= !(1 << victim);
                    }
                }
            }
            let mapping = mapping_of(&groups, &correspondence);
            let mut table = AccessTable::new(&def, &intrinsic).expect("narrow definition");
            let by_table = table.check(&correspondence, &groups);
            prop_assert_eq!(by_table, validate_mapping(&def, &intrinsic, &mapping));
            let expected = groups.iter().any(|&g| g != 0) && {
                let (x, y, z) = explicit_matrices(&def, &intrinsic, &mapping);
                algorithm1_naive(&x, &y, &z)
            };
            prop_assert_eq!(by_table, expected, "{}", mapping.describe(&def, &intrinsic));
            if shape == 1 {
                prop_assert!(by_table, "enumerated mappings are Algorithm-1 valid");
            }
        }

        #[test]
        fn structural_keys_collide_exactly_when_string_keys_did(
            case in 0usize..SMALL,
            swapped in 0usize..2,
            code in 0u64..u64::MAX,
        ) {
            // One random assignment against every assignment of the operator
            // under both correspondences: a whole row of the pair matrix.
            let (def, intrinsic) = equivalence_cases().swap_remove(case);
            let axes = intrinsic.compute.iters().len();
            let iters = def.iters().len();
            let policy = MappingPolicy::default();
            let table = EnumTable::new(&def, &intrinsic).expect("narrow definition");
            let access_keys = table.access_keys.clone();
            let mut run = Enumeration::new(&policy, table);
            let string_key = |groups: &[u64], correspondence: &[usize]| {
                let mapping = mapping_of(groups, correspondence);
                canonical_key(&def, &intrinsic, &mapping, &access_keys)
            };
            let correspondences = permutations(def.inputs().len());
            let mine = &correspondences[swapped % correspondences.len()];
            run.start_correspondence(mine.clone());
            run.groups = groups_from_code(code, iters, axes);
            let my_key = run.mirror_key().to_vec();
            let my_string = string_key(&run.groups, mine);
            let mut collisions = 0;
            for other in &correspondences {
                run.start_correspondence(other.clone());
                for other_code in 0..(axes as u64 + 1).pow(iters as u32) {
                    run.groups = groups_from_code(other_code, iters, axes);
                    let same = run.mirror_key() == my_key.as_slice();
                    prop_assert_eq!(same, string_key(&run.groups, other) == my_string);
                    collisions += same as usize;
                }
            }
            prop_assert!(collisions >= 1, "an assignment collides with itself");
        }
    }
}
