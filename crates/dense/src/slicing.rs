//! Row/column slicing, stacking, and broadcast helpers.
//!
//! The LMM rewrite splits the parameter matrix `X` by row ranges
//! (`X[1:dS,]`, `X[dS+1:d,]`), RMM and cross-product rewrites concatenate
//! partial results column-wise, and the K-Means/GNMF scripts replicate
//! vectors across rows/columns. This module provides those primitives.

use crate::DenseMatrix;
use std::ops::Range;

impl DenseMatrix {
    /// Copies the row range `range` into a new matrix (`X[range, ]`).
    ///
    /// # Panics
    /// Panics if `range.end > rows`.
    pub fn slice_rows(&self, range: Range<usize>) -> DenseMatrix {
        assert!(
            range.end <= self.rows(),
            "slice_rows: range end {} exceeds {} rows",
            range.end,
            self.rows()
        );
        let n = self.cols();
        let data = self.as_slice()[range.start * n..range.end * n].to_vec();
        DenseMatrix::from_vec(range.len(), n, data).expect("slice_rows: internal shape error")
    }

    /// Copies the column range `range` into a new matrix (`X[, range]`).
    ///
    /// # Panics
    /// Panics if `range.end > cols`.
    pub fn slice_cols(&self, range: Range<usize>) -> DenseMatrix {
        assert!(
            range.end <= self.cols(),
            "slice_cols: range end {} exceeds {} cols",
            range.end,
            self.cols()
        );
        let mut out = DenseMatrix::zeros(self.rows(), range.len());
        for i in 0..self.rows() {
            let src = &self.row(i)[range.clone()];
            out.row_mut(i).copy_from_slice(src);
        }
        out
    }

    /// Copies the rows at the given indices (gather), allowing repeats.
    ///
    /// # Panics
    /// Panics if any index is out of bounds.
    pub fn gather_rows(&self, indices: &[usize]) -> DenseMatrix {
        let n = self.cols();
        let mut out = DenseMatrix::zeros(indices.len(), n);
        for (dst, &src) in indices.iter().enumerate() {
            assert!(
                src < self.rows(),
                "gather_rows: index {src} out of bounds ({} rows)",
                self.rows()
            );
            out.row_mut(dst).copy_from_slice(self.row(src));
        }
        out
    }

    /// Horizontal concatenation `[self, other]`.
    ///
    /// # Panics
    /// Panics if the row counts differ.
    pub fn hstack(&self, other: &DenseMatrix) -> DenseMatrix {
        assert_eq!(
            self.rows(),
            other.rows(),
            "hstack: row counts differ ({} vs {})",
            self.rows(),
            other.rows()
        );
        DenseMatrix::hstack_all(&[self, other])
    }

    /// Horizontal concatenation of any number of blocks `[m0, m1, …]`.
    ///
    /// # Panics
    /// Panics if the blocks disagree on row count or the list is empty.
    pub fn hstack_all(blocks: &[&DenseMatrix]) -> DenseMatrix {
        assert!(!blocks.is_empty(), "hstack_all: no blocks");
        let rows = blocks[0].rows();
        for b in blocks {
            assert_eq!(b.rows(), rows, "hstack_all: row counts differ");
        }
        let cols: usize = blocks.iter().map(|b| b.cols()).sum();
        let mut out = DenseMatrix::zeros(rows, cols);
        for i in 0..rows {
            let orow = out.row_mut(i);
            let mut off = 0;
            for b in blocks {
                let w = b.cols();
                orow[off..off + w].copy_from_slice(b.row(i));
                off += w;
            }
        }
        out
    }

    /// Vertical concatenation of `self` on top of `other`.
    ///
    /// # Panics
    /// Panics if the column counts differ.
    pub fn vstack(&self, other: &DenseMatrix) -> DenseMatrix {
        assert_eq!(
            self.cols(),
            other.cols(),
            "vstack: column counts differ ({} vs {})",
            self.cols(),
            other.cols()
        );
        let mut data = Vec::with_capacity(self.len() + other.len());
        data.extend_from_slice(self.as_slice());
        data.extend_from_slice(other.as_slice());
        DenseMatrix::from_vec(self.rows() + other.rows(), self.cols(), data)
            .expect("vstack: internal shape error")
    }

    /// Vertical concatenation of any number of blocks.
    ///
    /// # Panics
    /// Panics if the blocks disagree on column count or the list is empty.
    pub fn vstack_all(blocks: &[&DenseMatrix]) -> DenseMatrix {
        assert!(!blocks.is_empty(), "vstack_all: no blocks");
        let cols = blocks[0].cols();
        let mut data = Vec::new();
        let mut rows = 0;
        for b in blocks {
            assert_eq!(b.cols(), cols, "vstack_all: column counts differ");
            data.extend_from_slice(b.as_slice());
            rows += b.rows();
        }
        DenseMatrix::from_vec(rows, cols, data).expect("vstack_all: internal shape error")
    }

    /// Scales row `i` by `weights[i]` (`diag(w) * T`).
    ///
    /// # Panics
    /// Panics if `weights.len() != rows`.
    pub fn scale_rows(&self, weights: &[f64]) -> DenseMatrix {
        assert_eq!(
            weights.len(),
            self.rows(),
            "scale_rows: weight length {} != rows {}",
            weights.len(),
            self.rows()
        );
        let mut out = self.clone();
        for (i, &w) in weights.iter().enumerate() {
            for v in out.row_mut(i) {
                *v *= w;
            }
        }
        out
    }

    /// Scales column `j` by `weights[j]` (`T * diag(w)`).
    ///
    /// # Panics
    /// Panics if `weights.len() != cols`.
    pub fn scale_cols(&self, weights: &[f64]) -> DenseMatrix {
        assert_eq!(
            weights.len(),
            self.cols(),
            "scale_cols: weight length {} != cols {}",
            weights.len(),
            self.cols()
        );
        let mut out = self.clone();
        for i in 0..out.rows() {
            for (v, &w) in out.row_mut(i).iter_mut().zip(weights) {
                *v *= w;
            }
        }
        out
    }

    /// Writes `block` into `self` starting at `(row_off, col_off)`.
    ///
    /// # Panics
    /// Panics if the block does not fit.
    pub fn set_block(&mut self, row_off: usize, col_off: usize, block: &DenseMatrix) {
        assert!(
            row_off + block.rows() <= self.rows() && col_off + block.cols() <= self.cols(),
            "set_block: {}x{} block at ({row_off}, {col_off}) does not fit in {}x{}",
            block.rows(),
            block.cols(),
            self.rows(),
            self.cols()
        );
        for i in 0..block.rows() {
            let dst = &mut self.row_mut(row_off + i)[col_off..col_off + block.cols()];
            dst.copy_from_slice(block.row(i));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m() -> DenseMatrix {
        DenseMatrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0], &[7.0, 8.0, 9.0]])
    }

    #[test]
    fn slice_rows_and_cols() {
        let t = m();
        assert_eq!(t.slice_rows(1..3).row(0), &[4.0, 5.0, 6.0]);
        assert_eq!(t.slice_rows(0..0).rows(), 0);
        let c = t.slice_cols(1..2);
        assert_eq!(c.shape(), (3, 1));
        assert_eq!(c.as_slice(), &[2.0, 5.0, 8.0]);
    }

    #[test]
    fn gather_rows_with_repeats() {
        let g = m().gather_rows(&[2, 0, 0]);
        assert_eq!(g.row(0), &[7.0, 8.0, 9.0]);
        assert_eq!(g.row(1), g.row(2));
    }

    #[test]
    fn stacking_round_trip() {
        let t = m();
        let left = t.slice_cols(0..1);
        let right = t.slice_cols(1..3);
        assert_eq!(left.hstack(&right), t);
        let top = t.slice_rows(0..2);
        let bottom = t.slice_rows(2..3);
        assert_eq!(top.vstack(&bottom), t);
        assert_eq!(DenseMatrix::vstack_all(&[&top, &bottom]), t);
        assert_eq!(
            DenseMatrix::hstack_all(&[&left, &t.slice_cols(1..2), &t.slice_cols(2..3)]),
            t
        );
    }

    #[test]
    fn row_and_col_scaling() {
        let t = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(t.scale_rows(&[2.0, 0.0]).as_slice(), &[2.0, 4.0, 0.0, 0.0]);
        assert_eq!(t.scale_cols(&[0.0, 1.0]).as_slice(), &[0.0, 2.0, 0.0, 4.0]);
    }

    #[test]
    fn set_block_writes_in_place() {
        let mut t = DenseMatrix::zeros(3, 3);
        t.set_block(1, 1, &DenseMatrix::filled(2, 2, 9.0));
        assert_eq!(t.get(0, 0), 0.0);
        assert_eq!(t.get(1, 1), 9.0);
        assert_eq!(t.get(2, 2), 9.0);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn set_block_overflow_panics() {
        DenseMatrix::zeros(2, 2).set_block(1, 1, &DenseMatrix::filled(2, 2, 1.0));
    }
}
