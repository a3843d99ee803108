//! Software–hardware mappings (paper Def 4.3).
//!
//! A compute mapping assigns every mapped software iteration to an intrinsic
//! iteration (as an ordered fused group); the operand correspondence ties
//! software tensors to intrinsic operand slots. Lowering a mapping yields a
//! [`MappedProgram`] for the simulator.

use amos_hw::Intrinsic;
use amos_ir::{BinMatrix, ComputeDef, IterId};
use amos_sim::{FusedGroup, MappedProgram, SimError};

/// A compute mapping: per intrinsic iteration, the ordered group of software
/// iterations fused into it, plus the operand correspondence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mapping {
    /// One fused group per intrinsic iteration (same order as the intrinsic's
    /// iteration list). Empty groups pad the axis to extent 1.
    pub groups: Vec<FusedGroup>,
    /// `correspondence[m]` is the index of the software input access feeding
    /// intrinsic source slot `m`.
    pub correspondence: Vec<usize>,
}

impl Mapping {
    /// The iteration matching matrix `Y` (paper Fig 4): rows are intrinsic
    /// iterations, columns are *all* software iterations in declaration
    /// order; entry `(t, s)` is set when iteration `s` is fused into
    /// intrinsic iteration `t`.
    pub fn matching_matrix(&self, def: &ComputeDef) -> BinMatrix {
        let mut y = BinMatrix::zeros(self.groups.len(), def.iters().len());
        for (t, g) in self.groups.iter().enumerate() {
            for &s in &g.iters {
                y.set(t, s.index(), true);
            }
        }
        y
    }

    /// Software iterations covered by the mapping, in declaration order.
    pub fn mapped_iters(&self) -> Vec<IterId> {
        let mut ids: Vec<IterId> = self.groups.iter().flat_map(|g| g.iters.clone()).collect();
        ids.sort();
        ids
    }

    /// The fused groups as one iteration bitmask per intrinsic axis (bit `s`
    /// = software iteration `s` of `num_iters`), the form the enumeration
    /// tables check. `None` when the masks cannot represent the mapping:
    /// more than 64 iterations, an unknown iteration, or one mapped twice.
    pub(crate) fn group_masks(&self, num_iters: usize) -> Option<Vec<u64>> {
        if num_iters > 64 {
            return None;
        }
        let mut seen = 0u64;
        let mut masks = Vec::with_capacity(self.groups.len());
        for g in &self.groups {
            let mut mask = 0u64;
            for s in &g.iters {
                if s.index() >= num_iters || (seen | mask) >> s.index() & 1 == 1 {
                    return None;
                }
                mask |= 1 << s.index();
            }
            seen |= mask;
            masks.push(mask);
        }
        Some(masks)
    }

    /// The mapping `program` was lowered from.
    pub(crate) fn of_program(program: &MappedProgram) -> Mapping {
        Mapping {
            groups: program.groups().to_vec(),
            correspondence: program.correspondence().to_vec(),
        }
    }

    /// Number of software iterations fused into intrinsic axes.
    pub fn num_mapped(&self) -> usize {
        self.groups.iter().map(|g| g.iters.len()).sum()
    }

    /// Lowers the mapping into an executable [`MappedProgram`] holding its
    /// own copy of `def` and `intrinsic`.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError::MalformedMapping`] for inconsistent groups or
    /// correspondences, and for a loop nest of more than 64 axes.
    pub fn lower(
        &self,
        def: &ComputeDef,
        intrinsic: &Intrinsic,
    ) -> Result<MappedProgram, SimError> {
        MappedProgram::new(
            def.clone(),
            intrinsic.clone(),
            self.groups.clone(),
            self.correspondence.clone(),
        )
    }

    /// Short human-readable form: iteration names per intrinsic axis.
    pub fn describe(&self, def: &ComputeDef, intrinsic: &Intrinsic) -> String {
        let parts: Vec<String> = intrinsic
            .compute
            .iters()
            .iter()
            .zip(&self.groups)
            .map(|(it, g)| {
                let names: Vec<&str> = g
                    .iters
                    .iter()
                    .map(|id| def.iter_var(*id).name.as_str())
                    .collect();
                format!("{} <- {{{}}}", it.name, names.join(", "))
            })
            .collect();
        parts.join(", ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amos_hw::catalog;
    use amos_ir::{ComputeBuilder, DType};

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

    #[test]
    fn matching_matrix_shape_and_content() {
        let def = gemm();
        let m = Mapping {
            groups: vec![
                FusedGroup::of(vec![IterId(0)]),
                FusedGroup::of(vec![IterId(1)]),
                FusedGroup::of(vec![IterId(2)]),
            ],
            correspondence: vec![0, 1],
        };
        let y = m.matching_matrix(&def);
        assert_eq!(y.rows(), 3);
        assert_eq!(y.cols(), 3);
        assert!(y[(0, 0)] && y[(1, 1)] && y[(2, 2)]);
        assert!(!y[(0, 1)]);
        assert_eq!(m.num_mapped(), 3);
        assert_eq!(m.mapped_iters(), vec![IterId(0), IterId(1), IterId(2)]);
    }

    #[test]
    fn lower_produces_program() {
        let def = gemm();
        let m = Mapping {
            groups: vec![
                FusedGroup::of(vec![IterId(0)]),
                FusedGroup::of(vec![IterId(1)]),
                FusedGroup::of(vec![IterId(2)]),
            ],
            correspondence: vec![0, 1],
        };
        let prog = m.lower(&def, &catalog::wmma_16x16x16()).unwrap();
        assert_eq!(prog.tiles(0), 2);
        assert_eq!(prog.total_calls(), 8);
    }

    #[test]
    fn describe_names_iterations() {
        let def = gemm();
        let m = Mapping {
            groups: vec![
                FusedGroup::of(vec![IterId(0)]),
                FusedGroup::empty(),
                FusedGroup::of(vec![IterId(2)]),
            ],
            correspondence: vec![0, 1],
        };
        let text = m.describe(&def, &catalog::wmma_16x16x16());
        assert_eq!(text, "i1 <- {i}, i2 <- {}, r1 <- {k}");
    }
}
