//! Element-wise arithmetic on CSR matrices.
//!
//! A scalar op `f` keeps a table sparse exactly when `f(0)` is `±0`: the
//! implicit zeros then read `+0.0` and only the stored values change
//! ([`CsrMatrix::map_nnz`]). Any other `f` (`+ 1`, `/ 0`, `* inf`, `exp`)
//! must reach the implicit zeros too, so the result is dense.
//! `morpheus_core::Matrix::apply` applies that one rule.

use crate::CsrMatrix;

impl CsrMatrix {
    /// Applies `f` to the stored non-zeros only.
    ///
    /// Correct as a full element-wise map **only when** `f(0) == 0`; callers
    /// needing general maps should densify first (see
    /// `morpheus_core::Matrix::apply`).
    pub fn map_nnz(&self, f: impl Fn(f64) -> f64) -> CsrMatrix {
        let mut out = self.clone();
        for v in out.values_mut() {
            *v = f(*v);
        }
        out
    }

    /// Element-wise sum of two CSR matrices (sorted two-pointer merge).
    ///
    /// # Panics
    /// Panics if the shapes differ.
    pub fn add(&self, other: &CsrMatrix) -> CsrMatrix {
        assert_eq!(
            self.shape(),
            other.shape(),
            "CsrMatrix::add: shape mismatch"
        );
        let mut indptr = Vec::with_capacity(self.rows() + 1);
        let mut indices = Vec::with_capacity(self.nnz() + other.nnz());
        let mut values = Vec::with_capacity(self.nnz() + other.nnz());
        indptr.push(0);
        for i in 0..self.rows() {
            let (ac, av) = self.row(i);
            let (bc, bv) = other.row(i);
            let (mut p, mut q) = (0usize, 0usize);
            while p < ac.len() || q < bc.len() {
                let (c, v) = if q >= bc.len() || (p < ac.len() && ac[p] < bc[q]) {
                    let r = (ac[p], av[p]);
                    p += 1;
                    r
                } else if p >= ac.len() || bc[q] < ac[p] {
                    let r = (bc[q], bv[q]);
                    q += 1;
                    r
                } else {
                    let r = (ac[p], av[p] + bv[q]);
                    p += 1;
                    q += 1;
                    r
                };
                if v != 0.0 {
                    indices.push(c);
                    values.push(v);
                }
            }
            indptr.push(indices.len());
        }
        CsrMatrix::from_raw_unchecked(self.rows(), self.cols(), indptr, indices, values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morpheus_dense::ScalarOp;

    fn sp() -> CsrMatrix {
        CsrMatrix::from_triplets(2, 3, &[(0, 0, 1.0), (0, 2, 2.0), (1, 1, -3.0)]).unwrap()
    }

    #[test]
    fn zero_preserving_scalar_ops() {
        let m = sp();
        for op in [ScalarOp::Mul(2.0), ScalarOp::Div(2.0), ScalarOp::Pow(2.0)] {
            assert_eq!(
                m.map_nnz(|v| op.apply(v)).to_dense(),
                m.to_dense().apply(op)
            );
        }
        assert_eq!(m.map_nnz(|v| ScalarOp::Pow(3.0).apply(v)).get(1, 1), -27.0);
    }

    #[test]
    fn sparse_add_and_sub_match_dense() {
        let a = sp();
        let b = CsrMatrix::from_triplets(2, 3, &[(0, 1, 5.0), (0, 2, -2.0), (1, 1, 3.0)]).unwrap();
        let s = a.add(&b);
        assert_eq!(s.to_dense(), a.to_dense().add(&b.to_dense()));
        // cancellations drop stored entries
        assert_eq!(s.get(0, 2), 0.0);
        assert_eq!(s.nnz(), 2);
    }

    #[test]
    fn map_nnz_leaves_structure() {
        let m = sp().map_nnz(|v| v * v);
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.get(1, 1), 9.0);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn add_shape_mismatch_panics() {
        sp().add(&CsrMatrix::zeros(3, 3));
    }
}
