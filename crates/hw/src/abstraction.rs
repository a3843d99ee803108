//! Hardware **compute abstraction** (paper Def 4.1).
//!
//! An opaque compute intrinsic is rewritten as an equivalent scalar
//! statement
//!
//! ```text
//! Dst[ĩ] = F(Src1[j̃₁], ..., SrcM[j̃M])   s.t.  A·ĩ + Σ Bm·j̃m + C < 0
//! ```
//!
//! The intrinsic iterations `ĩ, j̃m` range over the intrinsic's fixed problem
//! size; each operand is indexed by affine expressions over those iterations.

use amos_ir::{BinMatrix, Expr, IterId, IterKind, OpKind};
use std::fmt;

/// One iteration axis of an intrinsic (e.g. `i1`, `i2`, `r1` of `mma_sync`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct IntrinsicIter {
    /// Display name.
    pub name: String,
    /// Problem-size extent of this axis (from the constraint `C`).
    pub extent: i64,
    /// Spatial (appears in `Dst`) or reduction.
    pub kind: IterKind,
}

/// Reference to an operand slot of an intrinsic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OperandRef {
    /// `Src{m}` (0-based).
    Src(usize),
    /// The destination.
    Dst,
}

impl fmt::Display for OperandRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OperandRef::Src(m) => write!(f, "Src{}", m + 1),
            OperandRef::Dst => write!(f, "Dst"),
        }
    }
}

/// Shape and indexing of one intrinsic operand.
///
/// `dims[d]` is an affine expression over intrinsic iterations (their
/// [`IterId`]s index [`ComputeAbstraction::iters`]). Most intrinsics use a
/// single iteration per dimension (`Src1[i1, r1]`); window-style units such
/// as a convolution engine use compound dimensions (`Src1[r1, i2 + r2]`).
#[derive(Debug, Clone, PartialEq)]
pub struct OperandSpec {
    /// Operand name for display (`Src1`, `a_frag`, ...).
    pub name: String,
    /// Affine index expression per operand dimension.
    pub dims: Vec<Expr>,
}

impl OperandSpec {
    /// Creates an operand indexed by single iterations per dimension.
    pub fn simple(name: impl Into<String>, iters: &[usize]) -> Self {
        OperandSpec {
            name: name.into(),
            dims: iters.iter().map(|&i| Expr::Var(IterId(i as u32))).collect(),
        }
    }

    /// Creates a zero-dimensional (scalar) operand.
    pub fn scalar(name: impl Into<String>) -> Self {
        OperandSpec {
            name: name.into(),
            dims: Vec::new(),
        }
    }
}

/// The scalar-format description of a compute intrinsic (Def 4.1).
#[derive(Debug, Clone, PartialEq)]
pub struct ComputeAbstraction {
    iters: Vec<IntrinsicIter>,
    srcs: Vec<OperandSpec>,
    dst: OperandSpec,
    op: OpKind,
}

impl ComputeAbstraction {
    /// Builds and validates a compute abstraction.
    ///
    /// # Panics
    ///
    /// Panics if an operand references an unknown iteration, if an index
    /// expression is not affine, or if the operand count does not match the
    /// arity of `op`. Abstractions are authored in the intrinsic catalog, so
    /// violations are programming errors.
    pub fn new(
        iters: Vec<IntrinsicIter>,
        srcs: Vec<OperandSpec>,
        dst: OperandSpec,
        op: OpKind,
    ) -> Self {
        assert_eq!(
            srcs.len(),
            op.arity(),
            "operand count must match the arity of {op}"
        );
        for operand in srcs.iter().chain(std::iter::once(&dst)) {
            for e in &operand.dims {
                assert!(e.is_affine(), "operand index {e:?} must be affine");
                for v in e.vars() {
                    assert!(
                        v.index() < iters.len(),
                        "operand `{}` references unknown intrinsic iteration {v}",
                        operand.name
                    );
                }
            }
        }
        for it in &iters {
            assert!(it.extent > 0, "intrinsic iteration extent must be positive");
        }
        ComputeAbstraction {
            iters,
            srcs,
            dst,
            op,
        }
    }

    /// The intrinsic iterations in declaration order.
    pub fn iters(&self) -> &[IntrinsicIter] {
        &self.iters
    }

    /// Source operand specifications.
    pub fn srcs(&self) -> &[OperandSpec] {
        &self.srcs
    }

    /// Destination operand specification.
    pub fn dst(&self) -> &OperandSpec {
        &self.dst
    }

    /// The arithmetic operation `F`.
    pub fn op(&self) -> OpKind {
        self.op
    }

    /// Number of source operands.
    pub fn num_srcs(&self) -> usize {
        self.srcs.len()
    }

    /// Looks up an operand specification.
    pub fn operand(&self, r: OperandRef) -> &OperandSpec {
        match r {
            OperandRef::Src(m) => &self.srcs[m],
            OperandRef::Dst => &self.dst,
        }
    }

    /// All operand slots: sources in order, then the destination. This is the
    /// row order of the intrinsic access matrix `Z`.
    pub fn operand_refs(&self) -> Vec<OperandRef> {
        (0..self.srcs.len())
            .map(OperandRef::Src)
            .chain(std::iter::once(OperandRef::Dst))
            .collect()
    }

    /// The intrinsic access matrix `Z` (paper Fig 4): rows are operand slots
    /// (`Src1..SrcM, Dst`), columns are intrinsic iterations.
    pub fn access_matrix(&self) -> BinMatrix {
        let refs = self.operand_refs();
        let mut z = BinMatrix::zeros(refs.len(), self.iters.len());
        for (row, r) in refs.iter().enumerate() {
            for e in &self.operand(*r).dims {
                for v in e.vars() {
                    z.set(row, v.index(), true);
                }
            }
        }
        z
    }

    /// Problem size: the extent of every intrinsic iteration.
    pub fn problem_size(&self) -> Vec<i64> {
        self.iters.iter().map(|it| it.extent).collect()
    }

    /// Total scalar multiply-accumulate operations performed per intrinsic
    /// call (the product of the problem size).
    pub fn scalar_ops(&self) -> i64 {
        self.iters.iter().map(|it| it.extent).product()
    }

    /// The register-fragment shape of one operand: the value range of each
    /// dimension expression over the intrinsic problem size.
    ///
    /// For affine expressions with non-negative coefficients the extent of a
    /// dimension is `expr(max) - expr(min) + 1`.
    pub fn fragment_shape(&self, r: OperandRef) -> Vec<i64> {
        self.operand(r)
            .dims
            .iter()
            .map(|e| {
                let (coeffs, _) = e
                    .affine_coefficients(self.iters.len())
                    .expect("operand indices validated affine");
                let mut lo = 0i64;
                let mut hi = 0i64;
                for (i, &c) in coeffs.iter().enumerate() {
                    let span = c * (self.iters[i].extent - 1);
                    if span >= 0 {
                        hi += span;
                    } else {
                        lo += span;
                    }
                }
                hi - lo + 1
            })
            .collect()
    }

    /// Elements in one operand fragment.
    pub fn fragment_len(&self, r: OperandRef) -> i64 {
        self.fragment_shape(r).iter().product()
    }

    /// The constraint system of Def 4.1 in matrix form: `(A, B, C)` such that
    /// `A·ĩ + Σ Bm·j̃m + C < 0` bounds the iteration ranges.
    ///
    /// Rows follow the iteration order; `A` has one column per *spatial*
    /// iteration, `B` one column per *reduction* iteration, and `C` is the
    /// negated extent vector — matching the layout of the paper's Equation 1.
    pub fn constraint_matrices(&self) -> (Vec<Vec<i64>>, Vec<Vec<i64>>, Vec<i64>) {
        let spatial: Vec<usize> = (0..self.iters.len())
            .filter(|&i| self.iters[i].kind == IterKind::Spatial)
            .collect();
        let reduction: Vec<usize> = (0..self.iters.len())
            .filter(|&i| self.iters[i].kind == IterKind::Reduction)
            .collect();
        let mut a = vec![vec![0i64; spatial.len()]; self.iters.len()];
        let mut b = vec![vec![0i64; reduction.len()]; self.iters.len()];
        let mut c = Vec::with_capacity(self.iters.len());
        for (row, it) in self.iters.iter().enumerate() {
            if let Some(col) = spatial.iter().position(|&s| s == row) {
                a[row][col] = 1;
            }
            if let Some(col) = reduction.iter().position(|&s| s == row) {
                b[row][col] = 1;
            }
            c.push(-it.extent);
        }
        (a, b, c)
    }

    /// Renders the abstraction in the paper's scalar statement style.
    pub fn statement_string(&self) -> String {
        let names = |id: IterId| self.iters[id.index()].name.clone();
        let operand = |o: &OperandSpec| {
            let idx: Vec<String> = o
                .dims
                .iter()
                .map(|e| e.display_with(&names).to_string())
                .collect();
            format!("{}[{}]", o.name, idx.join(", "))
        };
        let srcs: Vec<String> = self.srcs.iter().map(operand).collect();
        format!("{} = {}({})", operand(&self.dst), self.op, srcs.join(", "))
    }
}

impl fmt::Display for ComputeAbstraction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.statement_string())?;
        let ranges: Vec<String> = self
            .iters
            .iter()
            .map(|it| format!("{}: [0,{})", it.name, it.extent))
            .collect();
        write!(f, " s.t. {}", ranges.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `Dst[i1,i2] = multiply-add(Src1[i1,r1], Src2[r1,i2])`, 16x16x16.
    fn mma16() -> ComputeAbstraction {
        ComputeAbstraction::new(
            vec![
                IntrinsicIter {
                    name: "i1".into(),
                    extent: 16,
                    kind: IterKind::Spatial,
                },
                IntrinsicIter {
                    name: "i2".into(),
                    extent: 16,
                    kind: IterKind::Spatial,
                },
                IntrinsicIter {
                    name: "r1".into(),
                    extent: 16,
                    kind: IterKind::Reduction,
                },
            ],
            vec![
                OperandSpec::simple("Src1", &[0, 2]),
                OperandSpec::simple("Src2", &[2, 1]),
            ],
            OperandSpec::simple("Dst", &[0, 1]),
            OpKind::MulAcc,
        )
    }

    #[test]
    fn access_matrix_matches_paper_fig4() {
        let z = mma16().access_matrix();
        let expected = BinMatrix::from_rows(&[&[1, 0, 1], &[0, 1, 1], &[1, 1, 0]]);
        assert_eq!(z, expected);
    }

    #[test]
    fn fragment_shapes_follow_problem_size() {
        let m = mma16();
        assert_eq!(m.fragment_shape(OperandRef::Src(0)), vec![16, 16]);
        assert_eq!(m.fragment_shape(OperandRef::Dst), vec![16, 16]);
        assert_eq!(m.fragment_len(OperandRef::Src(1)), 256);
        assert_eq!(m.scalar_ops(), 16 * 16 * 16);
        assert_eq!(m.problem_size(), vec![16, 16, 16]);
    }

    #[test]
    fn compound_dimension_fragment_shape() {
        // A conv unit: Src1[r1, i2 + r2] with i2:8, r2:3 -> dim extent 10.
        let conv = ComputeAbstraction::new(
            vec![
                IntrinsicIter {
                    name: "i1".into(),
                    extent: 4,
                    kind: IterKind::Spatial,
                },
                IntrinsicIter {
                    name: "i2".into(),
                    extent: 8,
                    kind: IterKind::Spatial,
                },
                IntrinsicIter {
                    name: "r1".into(),
                    extent: 4,
                    kind: IterKind::Reduction,
                },
                IntrinsicIter {
                    name: "r2".into(),
                    extent: 3,
                    kind: IterKind::Reduction,
                },
            ],
            vec![
                OperandSpec {
                    name: "Src1".into(),
                    dims: vec![
                        Expr::Var(IterId(2)),
                        Expr::Var(IterId(1)) + Expr::Var(IterId(3)),
                    ],
                },
                OperandSpec::simple("Src2", &[0, 2, 3]),
            ],
            OperandSpec::simple("Dst", &[0, 1]),
            OpKind::MulAcc,
        );
        assert_eq!(conv.fragment_shape(OperandRef::Src(0)), vec![4, 10]);
        assert_eq!(conv.fragment_shape(OperandRef::Src(1)), vec![4, 4, 3]);
    }

    #[test]
    fn constraint_matrices_match_equation_1() {
        let (a, b, c) = mma16().constraint_matrices();
        // A (cols i1,i2), B (col r1), C = -extents: the layout of Eq. (1).
        assert_eq!(a, vec![vec![1, 0], vec![0, 1], vec![0, 0]]);
        assert_eq!(b, vec![vec![0], vec![0], vec![1]]);
        assert_eq!(c, vec![-16, -16, -16]);
    }

    #[test]
    fn statement_rendering() {
        let m = mma16();
        assert_eq!(
            m.statement_string(),
            "Dst[i1, i2] = multiply-add(Src1[i1, r1], Src2[r1, i2])"
        );
        assert!(m.to_string().contains("i1: [0,16)"));
    }

    #[test]
    fn scalar_operand_has_empty_fragment_shape() {
        let axpy = ComputeAbstraction::new(
            vec![IntrinsicIter {
                name: "i1".into(),
                extent: 32,
                kind: IterKind::Spatial,
            }],
            vec![
                OperandSpec::scalar("Src1"),
                OperandSpec::simple("Src2", &[0]),
            ],
            OperandSpec::simple("Dst", &[0]),
            OpKind::MulAcc,
        );
        assert_eq!(axpy.fragment_shape(OperandRef::Src(0)), Vec::<i64>::new());
        assert_eq!(axpy.fragment_len(OperandRef::Src(0)), 1);
        let z = axpy.access_matrix();
        assert_eq!(z, BinMatrix::from_rows(&[&[0], &[1], &[1]]));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics() {
        ComputeAbstraction::new(
            vec![IntrinsicIter {
                name: "i1".into(),
                extent: 2,
                kind: IterKind::Spatial,
            }],
            vec![OperandSpec::simple("Src1", &[0])],
            OperandSpec::simple("Dst", &[0]),
            OpKind::MulAcc,
        );
    }

    #[test]
    fn operand_ref_display() {
        assert_eq!(OperandRef::Src(0).to_string(), "Src1");
        assert_eq!(OperandRef::Dst.to_string(), "Dst");
    }
}
