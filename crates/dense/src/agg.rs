//! Aggregation operators: `rowSums`, `colSums`, `sum`, row min/max, norms.
//!
//! These correspond to the "Aggregation" rows of Table 1 in the paper and the
//! `rowMin` helper used by the K-Means LA formulation (Algorithm 7/15).
//!
//! The linear reductions run on the fixed-lane kernels of [`crate::simd`]
//! ([`morpheus_dense::simd::sum`](crate::simd::sum), min/max folds): eight
//! compile-time accumulator lanes combined in a fixed tree order, so every
//! result is deterministic run-to-run, across worker counts, and across the
//! SIMD gate (`Runtime::set_simd`). `colSums` keeps its per-column accumulator walk —
//! it is already one contiguous auto-vectorized add per input row.

use crate::simd;
use crate::DenseMatrix;

impl DenseMatrix {
    /// Row-wise sums, returned as an `n x 1` column vector (`rowSums(T)`).
    pub fn row_sums(&self) -> DenseMatrix {
        let sums: Vec<f64> = self.row_iter().map(simd::sum).collect();
        DenseMatrix::col_vector(&sums)
    }

    /// Column-wise sums, returned as a `1 x d` row vector (`colSums(T)`).
    pub fn col_sums(&self) -> DenseMatrix {
        let mut sums = vec![0.0; self.cols()];
        for row in self.row_iter() {
            for (s, &v) in sums.iter_mut().zip(row) {
                *s += v;
            }
        }
        DenseMatrix::row_vector(&sums)
    }

    /// Sum of all entries (`sum(T)`).
    pub fn sum(&self) -> f64 {
        simd::sum(self.as_slice())
    }

    /// Row-wise minima, returned as an `n x 1` column vector (`rowMin(D)`).
    ///
    /// Empty rows (zero columns) yield `f64::INFINITY`.
    pub fn row_min(&self) -> DenseMatrix {
        let mins: Vec<f64> = self.row_iter().map(simd::min).collect();
        DenseMatrix::col_vector(&mins)
    }

    /// Row-wise maxima, returned as an `n x 1` column vector.
    ///
    /// Empty rows yield `f64::NEG_INFINITY`.
    pub fn row_max(&self) -> DenseMatrix {
        let maxs: Vec<f64> = self.row_iter().map(simd::max).collect();
        DenseMatrix::col_vector(&maxs)
    }

    /// Frobenius norm `sqrt(sum(T^2))`.
    pub fn frobenius_norm(&self) -> f64 {
        simd::dot(self.as_slice(), self.as_slice()).sqrt()
    }

    /// Mean of all entries; `NaN` for empty matrices.
    pub fn mean(&self) -> f64 {
        self.sum() / self.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m() -> DenseMatrix {
        DenseMatrix::from_rows(&[&[1.0, 2.0, 3.0], &[-4.0, 5.0, 0.0]])
    }

    #[test]
    fn row_sums_shape_and_values() {
        let rs = m().row_sums();
        assert_eq!(rs.shape(), (2, 1));
        assert_eq!(rs.as_slice(), &[6.0, 1.0]);
    }

    #[test]
    fn col_sums_shape_and_values() {
        let cs = m().col_sums();
        assert_eq!(cs.shape(), (1, 3));
        assert_eq!(cs.as_slice(), &[-3.0, 7.0, 3.0]);
    }

    #[test]
    fn total_sum_consistent_with_row_and_col_sums() {
        let t = m();
        assert_eq!(t.sum(), 7.0);
        assert_eq!(t.row_sums().sum(), t.sum());
        assert_eq!(t.col_sums().sum(), t.sum());
    }

    #[test]
    fn row_extrema() {
        let t = m();
        assert_eq!(t.row_min().as_slice(), &[1.0, -4.0]);
        assert_eq!(t.row_max().as_slice(), &[3.0, 5.0]);
    }

    #[test]
    fn norms() {
        let t = DenseMatrix::from_rows(&[&[3.0, 4.0]]);
        assert!((t.frobenius_norm() - 5.0).abs() < 1e-12);
        assert!((t.mean() - 3.5).abs() < 1e-12);
    }

    #[test]
    fn empty_rows_min_is_infinite() {
        let t = DenseMatrix::zeros(2, 0);
        assert_eq!(t.row_min().as_slice(), &[f64::INFINITY, f64::INFINITY]);
    }
}
