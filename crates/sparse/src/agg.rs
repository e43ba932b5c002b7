//! Aggregations and diagonal scaling for CSR matrices.
//!
//! `colSums(K)` is the heart of the paper's efficient cross-product rewrite
//! (Algorithm 2): `Kᵀ K = diag(colSums(K))` for a PK-FK indicator matrix.
//!
//! The linear reductions over the CSR value array run on the fixed-lane
//! kernels of [`morpheus_dense::simd`], sharing the dense side's
//! determinism contract; `colSums` keeps its scatter walk (it is bound by
//! the indexed stores, not the additions).

use crate::CsrMatrix;
use morpheus_dense::{simd, DenseMatrix};

impl CsrMatrix {
    /// Row-wise sums as an `n x 1` dense column vector (`rowSums`).
    pub fn row_sums(&self) -> DenseMatrix {
        let sums: Vec<f64> = (0..self.rows()).map(|i| simd::sum(self.row(i).1)).collect();
        DenseMatrix::col_vector(&sums)
    }

    /// Column-wise sums as a `1 x d` dense row vector (`colSums`).
    pub fn col_sums(&self) -> DenseMatrix {
        let mut sums = vec![0.0; self.cols()];
        for (&c, &v) in self.indices().iter().zip(self.values()) {
            sums[c] += v;
        }
        DenseMatrix::row_vector(&sums)
    }

    /// Sum of all entries (`sum`).
    pub fn sum(&self) -> f64 {
        simd::sum(self.values())
    }

    /// Scales row `i` by `weights[i]` (`diag(w) * M`), preserving sparsity.
    ///
    /// # Panics
    /// Panics if `weights.len() != rows`.
    pub fn scale_rows(&self, weights: &[f64]) -> CsrMatrix {
        assert_eq!(
            weights.len(),
            self.rows(),
            "scale_rows: weight length {} != rows {}",
            weights.len(),
            self.rows()
        );
        let mut out = self.clone();
        for (i, &w) in weights.iter().enumerate() {
            let lo = out.indptr()[i];
            let hi = out.indptr()[i + 1];
            for v in &mut out.values_mut()[lo..hi] {
                *v *= w;
            }
        }
        out
    }

    /// Scales column `j` by `weights[j]` (`M * diag(w)`), preserving sparsity.
    ///
    /// # Panics
    /// Panics if `weights.len() != cols`.
    pub fn scale_cols(&self, weights: &[f64]) -> CsrMatrix {
        assert_eq!(
            weights.len(),
            self.cols(),
            "scale_cols: weight length {} != cols {}",
            weights.len(),
            self.cols()
        );
        let mut out = self.clone();
        let indices: Vec<usize> = out.indices().to_vec();
        for (v, &c) in out.values_mut().iter_mut().zip(&indices) {
            *v *= weights[c];
        }
        out
    }

    /// Frobenius norm `sqrt(sum(M^2))`.
    pub fn frobenius_norm(&self) -> f64 {
        simd::dot(self.values(), self.values()).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp() -> CsrMatrix {
        CsrMatrix::from_triplets(3, 2, &[(0, 0, 1.0), (0, 1, 2.0), (2, 1, 3.0)]).unwrap()
    }

    #[test]
    fn sums_match_dense() {
        let m = sp();
        let d = m.to_dense();
        assert_eq!(m.row_sums(), d.row_sums());
        assert_eq!(m.col_sums(), d.col_sums());
        assert_eq!(m.sum(), d.sum());
    }

    #[test]
    fn indicator_col_sums_count_references() {
        // colSums(K)[j] = number of S-tuples referencing R-tuple j (paper §3.3.5).
        let fk = [0, 1, 1, 1, 0];
        let trips: Vec<_> = fk.iter().enumerate().map(|(i, &j)| (i, j, 1.0)).collect();
        let k = CsrMatrix::from_triplets(5, 2, &trips).unwrap();
        assert_eq!(k.col_sums().as_slice(), &[2.0, 3.0]);
        // Kᵀ K == diag(colSums(K)) for PK-FK indicators.
        let ktk = k.transpose().spgemm(&k);
        assert_eq!(ktk.to_dense(), DenseMatrix::from_diag(&[2.0, 3.0]));
    }

    #[test]
    fn scaling_matches_dense() {
        let m = sp();
        let d = m.to_dense();
        assert_eq!(
            m.scale_rows(&[2.0, 5.0, 0.5]).to_dense(),
            d.scale_rows(&[2.0, 5.0, 0.5])
        );
        assert_eq!(
            m.scale_cols(&[0.0, 3.0]).to_dense(),
            d.scale_cols(&[0.0, 3.0])
        );
    }

    #[test]
    fn frobenius_norm_matches_dense() {
        assert!((sp().frobenius_norm() - sp().to_dense().frobenius_norm()).abs() < 1e-12);
    }
}
