//! Binary (boolean) matrices and the boolean matrix product ★ used by the
//! mapping-validation algorithm (paper §5.2, Algorithm 1).
//!
//! # Bitset layout
//!
//! Storage is row-major over `u64` words: each row occupies
//! `words_per_row = ceil(cols / 64)` consecutive words, and bit `j % 64` of
//! word `j / 64` holds entry `(i, j)`. Any trailing bits past `cols` in a
//! row's last word are kept at zero as an invariant, so the derived
//! `PartialEq`/`Eq`/`Hash` on the raw words agree with logical equality.
//!
//! The layout makes the ★ product word-parallel: a set entry `A[i][k]`
//! contributes all of `B`'s row `k` to the output row `i` with one `OR` per
//! word instead of one branch per column. Validation (`algorithm1`) runs once
//! per virtual-mapping candidate during generation, so these inner loops are
//! on the exploration hot path.

use std::fmt;
use std::ops::Index;

/// Referents for `Index<(usize, usize)> -> &bool` on a packed matrix.
static TRUE: bool = true;
static FALSE: bool = false;

/// A dense binary-valued matrix stored as packed `u64` words.
///
/// Rows conventionally index tensors/operands and columns index iteration
/// variables, matching the access matrices of paper Figure 4.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BinMatrix {
    rows: usize,
    cols: usize,
    /// `ceil(cols / 64)`; cached because every row access needs it.
    words_per_row: usize,
    /// Row-major packed bits; `rows * words_per_row` words, trailing bits of
    /// each row's last word always zero.
    data: Vec<u64>,
}

impl BinMatrix {
    /// Creates an all-zero matrix. Either dimension may be zero, producing a
    /// degenerate matrix with no stored entries.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        let words_per_row = cols.div_ceil(64);
        BinMatrix {
            rows,
            cols,
            words_per_row,
            data: vec![0u64; rows * words_per_row],
        }
    }

    /// Creates a matrix from row-major rows of 0/1 values.
    ///
    /// Dimensions are taken from the input: `rows.len()` rows and the length
    /// of the first row as the column count. An empty slice therefore
    /// produces the degenerate 0×0 matrix (there is no way to state a column
    /// count without a row) — callers that need an `r`×0 or 0×`c` shape
    /// should use [`BinMatrix::zeros`] instead, which spells out both
    /// dimensions.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[u8]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut m = BinMatrix::zeros(r, c);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), c, "inconsistent row lengths");
            for (j, &v) in row.iter().enumerate() {
                m.set(i, j, v != 0);
            }
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of `u64` words backing each row (`ceil(cols / 64)`).
    pub fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    /// The packed words of row `i`. Trailing bits past `cols` are zero.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn row_words(&self, i: usize) -> &[u64] {
        assert!(i < self.rows, "index out of bounds");
        &self.data[i * self.words_per_row..(i + 1) * self.words_per_row]
    }

    /// Entry at `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if the position is out of bounds.
    pub fn get(&self, i: usize, j: usize) -> bool {
        assert!(i < self.rows && j < self.cols, "index out of bounds");
        self.data[i * self.words_per_row + j / 64] >> (j % 64) & 1 != 0
    }

    /// Sets the entry at `(i, j)`, preserving the zero-trailing-bits
    /// invariant (clearing a bit is as safe as setting one).
    ///
    /// # Panics
    ///
    /// Panics if the position is out of bounds.
    pub fn set(&mut self, i: usize, j: usize, v: bool) {
        assert!(i < self.rows && j < self.cols, "index out of bounds");
        let word = &mut self.data[i * self.words_per_row + j / 64];
        if v {
            *word |= 1u64 << (j % 64);
        } else {
            *word &= !(1u64 << (j % 64));
        }
    }

    /// Overwrites row `i` with already-packed words (bit `j % 64` of word
    /// `j / 64` is entry `(i, j)`). Bits past `cols` are dropped, preserving
    /// the zero-trailing-bits invariant.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds or `words` is not
    /// [`BinMatrix::words_per_row`] long.
    pub fn set_row_words(&mut self, i: usize, words: &[u64]) {
        assert!(i < self.rows, "index out of bounds");
        assert_eq!(words.len(), self.words_per_row, "row width mismatch");
        let row = &mut self.data[i * self.words_per_row..(i + 1) * self.words_per_row];
        row.copy_from_slice(words);
        if let (Some(last), tail @ 1..) = (row.last_mut(), self.cols % 64) {
            *last &= (1u64 << tail) - 1;
        }
    }

    /// Boolean matrix product: `(A ★ B)[i][j] = OR_k (A[i][k] AND B[k][j])`.
    ///
    /// Word-parallel: each set entry `A[i][k]` ORs `B`'s packed row `k` into
    /// the output row in `words_per_row` operations.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree.
    pub fn bool_mul(&self, rhs: &BinMatrix) -> BinMatrix {
        assert_eq!(
            self.cols, rhs.rows,
            "dimension mismatch: {}x{} ★ {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = BinMatrix::zeros(self.rows, rhs.cols);
        let wpr = rhs.words_per_row;
        for i in 0..self.rows {
            let out_row = i * wpr;
            for (wi, &word) in self.row_words(i).iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let k = wi * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let rhs_row = k * wpr;
                    for w in 0..wpr {
                        out.data[out_row + w] |= rhs.data[rhs_row + w];
                    }
                }
            }
        }
        out
    }

    /// Transposed copy of the matrix. Scans each packed row word by word and
    /// only visits set bits.
    pub fn transpose(&self) -> BinMatrix {
        let mut out = BinMatrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for (wi, &word) in self.row_words(i).iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let j = wi * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    out.set(j, i, true);
                }
            }
        }
        out
    }

    /// The column at `j` as a boolean vector (a per-iteration access
    /// signature in mapping terms).
    pub fn column(&self, j: usize) -> Vec<bool> {
        (0..self.rows).map(|i| self.get(i, j)).collect()
    }

    /// The row at `i` as a boolean vector.
    pub fn row(&self, i: usize) -> Vec<bool> {
        (0..self.cols).map(|j| self.get(i, j)).collect()
    }

    /// Returns a matrix keeping only the listed columns, in the given order.
    pub fn select_columns(&self, cols: &[usize]) -> BinMatrix {
        let mut out = BinMatrix::zeros(self.rows, cols.len());
        for (jj, &j) in cols.iter().enumerate() {
            for i in 0..self.rows {
                out.set(i, jj, self.get(i, j));
            }
        }
        out
    }

    /// Count of set entries (a popcount per word).
    pub fn count_ones(&self) -> usize {
        self.data.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Reference (per-element) boolean product, retained for equivalence
    /// tests and the `bitset-vs-naive` ablation bench. Semantically
    /// identical to [`BinMatrix::bool_mul`].
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree.
    pub fn bool_mul_naive(&self, rhs: &BinMatrix) -> BinMatrix {
        assert_eq!(
            self.cols, rhs.rows,
            "dimension mismatch: {}x{} ★ {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = BinMatrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                if self.get(i, k) {
                    for j in 0..rhs.cols {
                        if rhs.get(k, j) {
                            out.set(i, j, true);
                        }
                    }
                }
            }
        }
        out
    }

    /// Reference (per-element) transpose, retained for equivalence tests and
    /// the ablation bench. Semantically identical to
    /// [`BinMatrix::transpose`].
    pub fn transpose_naive(&self) -> BinMatrix {
        let mut out = BinMatrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.set(j, i, self.get(i, j));
            }
        }
        out
    }
}

impl Index<(usize, usize)> for BinMatrix {
    type Output = bool;
    fn index(&self, (i, j): (usize, usize)) -> &bool {
        if self.get(i, j) {
            &TRUE
        } else {
            &FALSE
        }
    }
}

impl fmt::Display for BinMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            for j in 0..self.cols {
                write!(f, "{}", if self.get(i, j) { '1' } else { '0' })?;
                if j + 1 < self.cols {
                    write!(f, " ")?;
                }
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_row_words_matches_per_entry_sets_and_drops_trailing_bits() {
        let mut packed = BinMatrix::zeros(2, 70);
        packed.set_row_words(1, &[0b1011, u64::MAX]);
        let mut by_entry = BinMatrix::zeros(2, 70);
        for j in [0, 1, 3].into_iter().chain(64..70) {
            by_entry.set(1, j, true);
        }
        assert_eq!(packed, by_entry);
        assert_eq!(packed.count_ones(), 9);
    }

    #[test]
    fn bool_mul_matches_figure4_example() {
        // Z: intrinsic access matrix for mma (rows Src1, Src2, Dst).
        let z = BinMatrix::from_rows(&[&[1, 0, 1], &[0, 1, 1], &[1, 1, 0]]);
        // Y: matching matrix for conv2d -> mma from paper Fig 4
        // (rows i1,i2,r1; cols n,k,p,q,c,r,s).
        let y = BinMatrix::from_rows(&[
            &[1, 0, 1, 1, 0, 0, 0],
            &[0, 1, 0, 0, 0, 0, 0],
            &[0, 0, 0, 0, 1, 1, 1],
        ]);
        // X: access matrix for conv2d (rows image, weight, out).
        let x = BinMatrix::from_rows(&[
            &[1, 0, 1, 1, 1, 1, 1],
            &[0, 1, 0, 0, 1, 1, 1],
            &[1, 1, 1, 1, 0, 0, 0],
        ]);

        assert_eq!(z.bool_mul(&y), x);
        assert_eq!(x.bool_mul(&y.transpose()), z);
    }

    #[test]
    fn bool_mul_invalid_mapping_is_detected() {
        let z = BinMatrix::from_rows(&[&[1, 0, 1], &[0, 1, 1], &[1, 1, 0]]);
        // Invalid: map both n and k to i1 (paper's §5.2 counter-example).
        let y = BinMatrix::from_rows(&[
            &[1, 1, 1, 1, 0, 0, 0],
            &[0, 0, 0, 0, 0, 0, 0],
            &[0, 0, 0, 0, 1, 1, 1],
        ]);
        let x = BinMatrix::from_rows(&[
            &[1, 0, 1, 1, 1, 1, 1],
            &[0, 1, 0, 0, 1, 1, 1],
            &[1, 1, 1, 1, 0, 0, 0],
        ]);
        assert_ne!(z.bool_mul(&y), x);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = BinMatrix::from_rows(&[&[1, 0, 1], &[0, 1, 1]]);
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose().rows(), 3);
        assert_eq!(m.transpose().cols(), 2);
    }

    #[test]
    fn column_and_row_extraction() {
        let m = BinMatrix::from_rows(&[&[1, 0], &[0, 1], &[1, 1]]);
        assert_eq!(m.column(0), vec![true, false, true]);
        assert_eq!(m.row(2), vec![true, true]);
        assert_eq!(m.count_ones(), 4);
    }

    #[test]
    fn select_columns_reorders() {
        let m = BinMatrix::from_rows(&[&[1, 0, 1], &[0, 1, 0]]);
        let s = m.select_columns(&[2, 0]);
        assert_eq!(s, BinMatrix::from_rows(&[&[1, 1], &[0, 0]]));
    }

    #[test]
    fn display_is_compact() {
        let m = BinMatrix::from_rows(&[&[1, 0]]);
        assert_eq!(m.to_string(), "1 0\n");
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn bool_mul_dimension_mismatch_panics() {
        let a = BinMatrix::zeros(2, 3);
        let b = BinMatrix::zeros(2, 3);
        let _ = a.bool_mul(&b);
    }

    #[test]
    fn from_rows_on_empty_slice_is_zero_by_zero() {
        let m = BinMatrix::from_rows(&[]);
        assert_eq!((m.rows(), m.cols()), (0, 0));
        assert_eq!(m.words_per_row(), 0);
        assert_eq!(m.count_ones(), 0);
        // Degenerate shapes with one zero dimension come from `zeros`.
        let tall = BinMatrix::zeros(3, 0);
        assert_eq!((tall.rows(), tall.cols()), (3, 0));
    }

    #[test]
    fn wide_matrices_span_multiple_words() {
        // 70 columns forces two words per row; exercise the boundary bits.
        let mut m = BinMatrix::zeros(2, 70);
        m.set(0, 63, true);
        m.set(0, 64, true);
        m.set(1, 69, true);
        assert_eq!(m.words_per_row(), 2);
        assert!(m[(0, 63)] && m[(0, 64)] && m[(1, 69)]);
        assert_eq!(m.count_ones(), 3);
        let t = m.transpose();
        assert!(t[(63, 0)] && t[(64, 0)] && t[(69, 1)]);
        assert_eq!(t, m.transpose_naive());
        // Clearing keeps the packed invariant.
        m.set(0, 64, false);
        assert!(!m.get(0, 64));
        assert_eq!(m.count_ones(), 2);
    }

    #[test]
    fn packed_product_matches_naive_reference() {
        // Deterministic pseudo-random fill via a small LCG.
        let mut state = 0x1234_5678_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let (r, inner, c) = (5, 67, 9);
        let mut a = BinMatrix::zeros(r, inner);
        let mut b = BinMatrix::zeros(inner, c);
        for i in 0..r {
            for k in 0..inner {
                a.set(i, k, next() % 3 == 0);
            }
        }
        for k in 0..inner {
            for j in 0..c {
                b.set(k, j, next() % 3 == 0);
            }
        }
        assert_eq!(a.bool_mul(&b), a.bool_mul_naive(&b));
        assert_eq!(a.transpose(), a.transpose_naive());
    }
}
