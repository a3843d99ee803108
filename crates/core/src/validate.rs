//! Mapping validation — paper §5.2, Algorithm 1.
//!
//! A mapping is valid when the binary matching matrix `Y` transports the
//! intrinsic access relationship `Z` onto the software access relationship
//! `X` and back:
//!
//! ```text
//! Z ★ Y  = X      (software access relationship preserved)
//! X ★ Yᵀ = Z      (hardware access relationship preserved)
//! ```
//!
//! where ★ is the boolean matrix product. `X` is restricted to the *mapped*
//! software iterations, and every empty intrinsic axis is represented by a
//! synthetic unit iteration whose access column equals the axis's `Z`
//! column — after padding, that degenerate dimension genuinely exists in the
//! software loop nest.

use crate::mapping::Mapping;
use amos_hw::Intrinsic;
use amos_ir::{BinMatrix, ComputeDef};
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide count of [`algorithm1`] invocations, for the per-run
/// validation-call counter surfaced by reports and benches.
static VALIDATION_CALLS: AtomicU64 = AtomicU64::new(0);

/// Number of [`algorithm1`] calls since process start (or the last
/// [`reset_validation_calls`]). Monotonic and thread-safe; exploration runs
/// read it before/after a search to report how many candidates validation
/// screened.
pub fn validation_calls() -> u64 {
    VALIDATION_CALLS.load(Ordering::Relaxed)
}

/// Resets the validation-call counter to zero (used by benches that measure
/// isolated runs).
pub fn reset_validation_calls() {
    VALIDATION_CALLS.store(0, Ordering::Relaxed);
}

/// Raw Algorithm 1 on explicit matrices.
///
/// ```
/// use amos_core::validate::algorithm1;
/// use amos_ir::BinMatrix;
///
/// // The paper's Figure 4 matrices: conv2d onto the mma intrinsic.
/// let x = BinMatrix::from_rows(&[
///     &[1, 0, 1, 1, 1, 1, 1], // image
///     &[0, 1, 0, 0, 1, 1, 1], // weight
///     &[1, 1, 1, 1, 0, 0, 0], // out
/// ]);
/// let y = BinMatrix::from_rows(&[
///     &[1, 0, 1, 1, 0, 0, 0], // i1 <- n, p, q
///     &[0, 1, 0, 0, 0, 0, 0], // i2 <- k
///     &[0, 0, 0, 0, 1, 1, 1], // r1 <- c, r, s
/// ]);
/// let z = BinMatrix::from_rows(&[&[1, 0, 1], &[0, 1, 1], &[1, 1, 0]]);
/// assert!(algorithm1(&x, &y, &z));
/// ```
///
/// * `x` — software access matrix (operand-slot rows, mapped-iteration cols),
/// * `y` — matching matrix (intrinsic-iteration rows, mapped-iteration cols),
/// * `z` — intrinsic access matrix (operand-slot rows, intrinsic-iter cols).
///
/// The fast path never materialises `Z ★ Y` or `Yᵀ`: both checks stream over
/// the packed `u64` rows of the bitset matrices with a single word
/// accumulator, so a validation call performs zero heap allocations.
pub fn algorithm1(x: &BinMatrix, y: &BinMatrix, z: &BinMatrix) -> bool {
    VALIDATION_CALLS.fetch_add(1, Ordering::Relaxed);
    if z.cols() != y.rows() || x.cols() != y.cols() || x.rows() != z.rows() {
        return false;
    }
    // Check 1: Z ★ Y = X, word by word. (Z ★ Y)'s row i is the OR of Y's
    // packed rows selected by Z's row i, accumulated per output word.
    for i in 0..z.rows() {
        for (w, &xw) in x.row_words(i).iter().enumerate() {
            let mut acc = 0u64;
            for (wi, &word) in z.row_words(i).iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let k = wi * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    acc |= y.row_words(k)[w];
                }
            }
            if acc != xw {
                return false;
            }
        }
    }
    // Check 2: X ★ Yᵀ = Z. Entry (i, t) is "do X's row i and Y's row t share
    // a column?" — a word-wise AND-any over the packed rows, no transpose.
    for i in 0..x.rows() {
        let xi = x.row_words(i);
        for t in 0..y.rows() {
            let yt = y.row_words(t);
            let overlap = xi.iter().zip(yt).any(|(&a, &b)| a & b != 0);
            if overlap != z.get(i, t) {
                return false;
            }
        }
    }
    true
}

/// Reference Algorithm 1 via materialised boolean products, retained to
/// cross-check the allocation-free fast path in tests and the ablation
/// bench.
pub fn algorithm1_naive(x: &BinMatrix, y: &BinMatrix, z: &BinMatrix) -> bool {
    if z.cols() != y.rows() || x.cols() != y.cols() || x.rows() != z.rows() {
        return false;
    }
    let x_prime = z.bool_mul_naive(y);
    let z_prime = x.bool_mul_naive(&y.transpose_naive());
    x_prime == *x && z_prime == *z
}

/// Everything the Algorithm-1 check of a mapping needs that depends only on
/// the `(computation, intrinsic)` pair: the intrinsic access matrix `Z` and,
/// per software access, the bitmask of the iterations it uses. Built once per
/// enumeration (or per [`validate_mapping`] call); a candidate's `X` and `Y`
/// are then assembled from masks into two reused matrices.
///
/// Columns are laid out by identity rather than compacted: software
/// iteration `s` owns column `s` (all-zero in both `X` and `Y` while `s`
/// stays outer, which neither ★ product can see), and the synthetic unit
/// iteration of an empty intrinsic axis `t` owns column `iters + t`.
#[derive(Debug)]
pub(crate) struct AccessTable {
    z: BinMatrix,
    /// Number of software iterations.
    iters: usize,
    /// `uses[a]` has bit `s` set when access `a` (inputs in declaration
    /// order, then the output) indexes with software iteration `s`.
    uses: Vec<u64>,
    /// Scratch `X` and `Y`, overwritten by every [`AccessTable::check`].
    x: BinMatrix,
    y: BinMatrix,
}

impl AccessTable {
    /// `None` when the operand counts disagree, or when the software
    /// iterations plus the intrinsic axes do not fit the 64-bit masks (the
    /// same width bounds a mapped program's loop axes).
    pub(crate) fn new(def: &ComputeDef, intrinsic: &Intrinsic) -> Option<Self> {
        let z = intrinsic.compute.access_matrix();
        let iters = def.iters().len();
        let cols = iters + z.cols();
        if def.inputs().len() != intrinsic.compute.num_srcs() || cols > 64 {
            return None;
        }
        let uses = def
            .inputs()
            .iter()
            .chain([def.output()])
            .map(|access| {
                def.iter_ids()
                    .filter(|&s| access.indices.iter().any(|e| e.uses(s)))
                    .fold(0u64, |mask, s| mask | 1 << s.index())
            })
            .collect();
        Some(AccessTable {
            x: BinMatrix::zeros(z.rows(), cols),
            y: BinMatrix::zeros(z.cols(), cols),
            z,
            iters,
            uses,
        })
    }

    /// The intrinsic access matrix.
    pub(crate) fn z(&self) -> &BinMatrix {
        &self.z
    }

    /// Number of software iterations.
    pub(crate) fn iters(&self) -> usize {
        self.iters
    }

    /// Whether access `a` (inputs, then the output) uses iteration `s`.
    pub(crate) fn uses(&self, a: usize, s: usize) -> bool {
        self.uses[a] >> s & 1 == 1
    }

    /// Runs Algorithm 1 on the mapping given as one iteration mask per
    /// intrinsic axis plus the operand correspondence.
    ///
    /// Row `m` of `X` is the input access feeding source slot `m` (the last
    /// row is the output), so a single algorithm covers every operand
    /// permutation; every empty intrinsic axis gets a synthetic unit
    /// iteration whose access column equals the axis's `Z` column.
    pub(crate) fn check(&mut self, correspondence: &[usize], groups: &[u64]) -> bool {
        let dst_row = self.z.rows() - 1;
        if correspondence.len() != dst_row
            || groups.len() != self.z.cols()
            || correspondence.iter().any(|&a| a >= dst_row)
        {
            return false;
        }
        let mapped = groups.iter().fold(0, |all, g| all | g);
        if mapped == 0 {
            return false;
        }
        let mut empty_axes = 0u64;
        for (t, &g) in groups.iter().enumerate() {
            let synthetic = if g == 0 { 1 << t } else { 0 };
            empty_axes |= synthetic;
            self.y.set_row_words(t, &[g | synthetic << self.iters]);
        }
        for row in 0..=dst_row {
            // `uses` lists the output after the inputs.
            let access = correspondence.get(row).copied().unwrap_or(dst_row);
            let synthetic = self.z.row_words(row)[0] & empty_axes;
            let used = self.uses[access] & mapped;
            self.x.set_row_words(row, &[used | synthetic << self.iters]);
        }
        algorithm1(&self.x, &self.y, &self.z)
    }
}

/// Builds the Algorithm-1 inputs for a mapping and runs the check: a
/// one-shot `AccessTable`, the same one an enumeration shares across all
/// of its candidates.
pub fn validate_mapping(def: &ComputeDef, intrinsic: &Intrinsic, mapping: &Mapping) -> bool {
    let Some(mut table) = AccessTable::new(def, intrinsic) else {
        return false;
    };
    mapping
        .group_masks(def.iters().len())
        .is_some_and(|groups| table.check(&mapping.correspondence, &groups))
}

#[cfg(test)]
mod tests {
    use super::*;
    use amos_ir::BinMatrix;

    /// The exact matrices of paper Figure 4.
    fn paper_matrices() -> (BinMatrix, BinMatrix, BinMatrix) {
        let x = BinMatrix::from_rows(&[
            &[1, 0, 1, 1, 1, 1, 1], // image
            &[0, 1, 0, 0, 1, 1, 1], // weight
            &[1, 1, 1, 1, 0, 0, 0], // out
        ]);
        let y = BinMatrix::from_rows(&[
            &[1, 0, 1, 1, 0, 0, 0], // i1 <- n, p, q
            &[0, 1, 0, 0, 0, 0, 0], // i2 <- k
            &[0, 0, 0, 0, 1, 1, 1], // r1 <- c, r, s
        ]);
        let z = BinMatrix::from_rows(&[&[1, 0, 1], &[0, 1, 1], &[1, 1, 0]]);
        (x, y, z)
    }

    #[test]
    fn figure4_mapping_is_valid() {
        let (x, y, z) = paper_matrices();
        assert!(algorithm1(&x, &y, &z));
    }

    #[test]
    fn mapping_n_and_k_to_same_axis_is_invalid() {
        // The §5.2 counter-example: n and k share i1.
        let (x, _, z) = paper_matrices();
        let y = BinMatrix::from_rows(&[
            &[1, 1, 1, 1, 0, 0, 0],
            &[0, 0, 0, 0, 0, 0, 0],
            &[0, 0, 0, 0, 1, 1, 1],
        ]);
        assert!(!algorithm1(&x, &y, &z));
    }

    #[test]
    fn dimension_mismatch_is_invalid() {
        let (x, y, z) = paper_matrices();
        let bad_z = BinMatrix::zeros(3, 2);
        assert!(!algorithm1(&x, &y, &bad_z));
        let bad_x = BinMatrix::zeros(2, 7);
        assert!(!algorithm1(&bad_x, &y, &z));
    }

    #[test]
    fn fast_path_agrees_with_naive_on_figure4_suite() {
        let (x, y, z) = paper_matrices();
        let bad_y = BinMatrix::from_rows(&[
            &[1, 1, 1, 1, 0, 0, 0],
            &[0, 0, 0, 0, 0, 0, 0],
            &[0, 0, 0, 0, 1, 1, 1],
        ]);
        let swapped_y = BinMatrix::from_rows(&[
            &[0, 0, 0, 0, 1, 1, 1],
            &[0, 1, 0, 0, 0, 0, 0],
            &[1, 0, 1, 1, 0, 0, 0],
        ]);
        let bad_z = BinMatrix::zeros(3, 2);
        let bad_x = BinMatrix::zeros(2, 7);
        for (xx, yy, zz) in [
            (&x, &y, &z),
            (&x, &bad_y, &z),
            (&x, &swapped_y, &z),
            (&x, &y, &bad_z),
            (&bad_x, &y, &z),
        ] {
            assert_eq!(algorithm1(xx, yy, zz), algorithm1_naive(xx, yy, zz));
        }
    }

    #[test]
    fn validation_calls_counter_advances() {
        let (x, y, z) = paper_matrices();
        let before = validation_calls();
        let _ = algorithm1(&x, &y, &z);
        assert!(validation_calls() > before);
    }

    #[test]
    fn swapping_spatial_and_reduction_is_invalid() {
        // Map c, r, s to i1 and n, p, q to r1: the output would be indexed by
        // reduction iterations.
        let (x, _, z) = paper_matrices();
        let y = BinMatrix::from_rows(&[
            &[0, 0, 0, 0, 1, 1, 1],
            &[0, 1, 0, 0, 0, 0, 0],
            &[1, 0, 1, 1, 0, 0, 0],
        ]);
        assert!(!algorithm1(&x, &y, &z));
    }
}
