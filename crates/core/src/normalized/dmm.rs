//! Double matrix multiplication (DMM, appendix C): multiplying two
//! normalized matrices.
//!
//! DMM does not arise in the four headline ML algorithms, but it appears
//! over multi-table joins and completes the closure of the operator set.
//! For two PK-FK normalized matrices `A = (S_A, K_A, R_A)` and
//! `B = (S_B, K_B, R_B)` with `d_A = n_B`:
//!
//! ```text
//! A B → [ S_A S_B1 + K_A(R_A S_B2),
//!         (S_A K_B1)R_B + K_A((R_A K_B2)R_B) ]
//! ```
//!
//! where `S_B1/S_B2` (`K_B1/K_B2`) split `S_B` (`K_B`) at row `d_{S_A}`.
//! The transposed variants (`AᵀBᵀ`, `ABᵀ`, `AᵀB`) follow appendix C,
//! including the `nnz(KᵀAK_B)` bounds of theorems C.1/C.2 which justify
//! computing the sparse product `P = KᵀA K_B` eagerly.

use super::{Indicator, KeyColumn, NormalizedMatrix};
use crate::Matrix;
use morpheus_runtime::Runtime;

/// Splits a two-part PK-FK normalized matrix into `(S, K, R)` views.
fn as_pkfk(m: &NormalizedMatrix) -> Option<(&Matrix, &KeyColumn, &Matrix)> {
    if m.parts.len() != 2 {
        return None;
    }
    let (p0, p1) = (&m.parts[0], &m.parts[1]);
    match (&p0.indicator, &p1.indicator) {
        (Indicator::Identity, Indicator::Rows(k)) => Some((&p0.table, k, &p1.table)),
        _ => None,
    }
}

impl NormalizedMatrix {
    /// Multiplies two normalized matrices (`self * other`), honoring both
    /// transpose flags. Both operands must be two-part PK-FK normalized
    /// matrices (the shape appendix C covers); other shapes fall back to
    /// materializing the *smaller* operand.
    ///
    /// # Panics
    /// Panics if the inner dimensions disagree.
    pub fn dmm(&self, other: &NormalizedMatrix) -> Matrix {
        assert_eq!(
            self.cols(),
            other.rows(),
            "dmm: inner dimensions differ ({}x{} * {}x{})",
            self.rows(),
            self.cols(),
            other.rows(),
            other.cols()
        );
        match (self.transposed, other.transposed) {
            (false, false) => self.dmm_plain(other),
            // Transposing clears a set flag; AᵀBᵀ → (B A)ᵀ.
            (true, true) => other.transpose().dmm_plain(&self.transpose()).transpose(),
            (false, true) => self.dmm_abt(&other.transpose()),
            (true, false) => self.transpose().dmm_atb(other),
        }
    }

    /// `A B`, both untransposed.
    fn dmm_plain(&self, other: &NormalizedMatrix) -> Matrix {
        let (Some((sa, ka, ra)), Some((sb, kb, rb))) = (as_pkfk(self), as_pkfk(other)) else {
            return self.dmm_fallback(other);
        };
        let dsa = sa.cols();
        // Row splits of B's members at d_{S_A}.
        let sb1 = sb.slice_rows(0..dsa);
        let sb2 = sb.slice_rows(dsa..sb.rows());
        let kb = kb.to_sparse();
        let kb1 = kb.slice_rows(0..dsa);
        let kb2 = kb.slice_rows(dsa..kb.rows());

        // The left and right blocks are independent; compute them
        // concurrently on the shared runtime.
        let (left, right) = Runtime::executor().par_join(
            // Left block: S_A S_B1 + K_A (R_A S_B2).
            || sa.matmul(&sb1).add(&ka.apply_m(&ra.matmul(&sb2))),
            // Right block: (S_A K_B1) R_B + K_A ((R_A K_B2) R_B).
            || {
                let right_a = sa.matmul(&kb1).matmul(rb);
                let right_b = ka.apply_m(&ra.matmul(&kb2).matmul(rb));
                right_a.add(&right_b)
            },
        );
        Matrix::hstack_all(&[&left, &right])
    }

    /// `A Bᵀ` (appendix C, three cases on `d_{S_A}` vs `d_{S_B}`);
    /// `other` is passed untransposed.
    fn dmm_abt(&self, other: &NormalizedMatrix) -> Matrix {
        let (Some((sa, ka, ra)), Some((sb, kb, rb))) = (as_pkfk(self), as_pkfk(other)) else {
            return self.dmm_fallback(&other.transpose());
        };
        let (dsa, dsb) = (sa.cols(), sb.cols());
        let kb_t = kb.to_sparse().transpose();
        match dsa.cmp(&dsb) {
            std::cmp::Ordering::Equal => {
                // S_A S_Bᵀ + K_A (R_A R_Bᵀ) K_Bᵀ.
                let first = sa.matmul(&sb.transpose());
                let second = ka.apply_m(&ra.matmul(&rb.transpose())).matmul(&kb_t);
                first.add(&second)
            }
            std::cmp::Ordering::Less => {
                // Column splits: S_B1 = S_B[:, :dsa], S_B2 = rest;
                // R_A1 = R_A[:, :dsb-dsa], R_A2 = rest.
                let sb1 = sb.slice_cols(0..dsa);
                let sb2 = sb.slice_cols(dsa..dsb);
                let ra1 = ra.slice_cols(0..dsb - dsa);
                let ra2 = ra.slice_cols(dsb - dsa..ra.cols());
                let t1 = sa.matmul(&sb1.transpose());
                let t2 = ka.apply_m(&ra1.matmul(&sb2.transpose()));
                let t3 = ka.apply_m(&ra2.matmul(&rb.transpose())).matmul(&kb_t);
                t1.add(&t2).add(&t3)
            }
            std::cmp::Ordering::Greater => {
                // (B Aᵀ)ᵀ.
                other.dmm_abt(self).transpose()
            }
        }
    }

    /// `Aᵀ B` (appendix C, 2x2 block form with the sparse `P = K_AᵀK_B`);
    /// `self` is passed untransposed.
    fn dmm_atb(&self, other: &NormalizedMatrix) -> Matrix {
        let (Some((sa, ka, ra)), Some((sb, kb, rb))) = (as_pkfk(self), as_pkfk(other)) else {
            return self.transpose().dmm_fallback(other);
        };
        // P = K_Aᵀ K_B: theorems C.1/C.2 bound max{n_RA, n_RB} ≤ nnz(P) ≤ n_S,
        // so materializing P eagerly is safe.
        let p = Matrix::Sparse(ka.pair_counts(kb));
        let kb_m = kb.to_sparse();
        let ka_tm = ka.to_sparse().transpose();

        // The four blocks are independent: nested par_join claims the
        // workers pairwise, and the kernels inside see the remainder.
        let ((tl, tr), (bl, br)) = Runtime::executor().par_join(
            || {
                Runtime::executor().par_join(
                    || sa.transpose().matmul(sb),               // S_Aᵀ S_B
                    || sa.transpose().matmul(&kb_m).matmul(rb), // (S_Aᵀ K_B) R_B
                )
            },
            || {
                Runtime::executor().par_join(
                    || ra.transpose().matmul(&ka_tm.matmul(sb)), // R_Aᵀ (K_Aᵀ S_B)
                    || ra.transpose().matmul(&p.matmul(rb)),     // R_Aᵀ P R_B
                )
            },
        );
        let top = Matrix::hstack_all(&[&tl, &tr]);
        let bottom = Matrix::hstack_all(&[&bl, &br]);
        match (top, bottom) {
            (Matrix::Dense(t), Matrix::Dense(b)) => Matrix::Dense(t.vstack(&b)),
            (t, b) => Matrix::Dense(t.to_dense().vstack(&b.to_dense())),
        }
    }

    /// Fallback for shapes outside appendix C: materialize the smaller
    /// operand and use the single-normalized rewrites.
    fn dmm_fallback(&self, other: &NormalizedMatrix) -> Matrix {
        let self_size = self.rows() * self.cols();
        let other_size = other.rows() * other.cols();
        if self_size <= other_size {
            let left = self.materialize().to_dense();
            Matrix::Dense(other.rmm(&left))
        } else {
            let right = other.materialize().to_dense();
            Matrix::Dense(self.lmm(&right))
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::NormalizedMatrix;
    use morpheus_dense::DenseMatrix;

    /// A: n_A x d_A normalized; B: n_B x d_B normalized with n_B = d_A.
    fn pair() -> (NormalizedMatrix, NormalizedMatrix) {
        // A: S_A 6x2, R_A 2x2 → d_A = 4.
        let sa = DenseMatrix::from_fn(6, 2, |i, j| ((i * 3 + j) % 5) as f64 + 0.5);
        let ra = DenseMatrix::from_fn(2, 2, |i, j| (i + 2 * j) as f64 - 1.0);
        let a = NormalizedMatrix::pk_fk(sa.into(), &[0, 1, 1, 0, 1, 0], ra.into());
        // B: S_B 4x2, R_B 3x3 → n_B = 4 = d_A, d_B = 5.
        let sb = DenseMatrix::from_fn(4, 2, |i, j| ((i + j * 2) % 4) as f64 * 0.75);
        let rb = DenseMatrix::from_fn(3, 3, |i, j| ((i * 2 + j) % 6) as f64 - 2.0);
        let b = NormalizedMatrix::pk_fk(sb.into(), &[2, 0, 1, 2], rb.into());
        (a, b)
    }

    #[test]
    fn dmm_plain_matches_materialized() {
        let (a, b) = pair();
        let f = a.dmm(&b).to_dense();
        let m = a
            .materialize()
            .to_dense()
            .matmul(&b.materialize().to_dense());
        assert!(f.approx_eq(&m, 1e-10));
    }

    #[test]
    fn dmm_transposed_both() {
        let (a, b) = pair();
        // Aᵀ has shape d_A x n_A; Bᵀ n_B = d_A… need BᵀAᵀ conformable:
        // (B A)ᵀ requires d_B? Use b.T * a.T with b: 4x5 → bᵀ: 5x4, aᵀ: 4x6.
        let f = b.transpose().dmm(&a.transpose()).to_dense();
        let m = b
            .materialize()
            .to_dense()
            .transpose()
            .matmul(&a.materialize().to_dense().transpose());
        assert!(f.approx_eq(&m, 1e-10));
    }

    #[test]
    fn dmm_abt_equal_ds() {
        // A Bᵀ with d_{S_A} = d_{S_B} and equal total widths.
        let sa = DenseMatrix::from_fn(5, 2, |i, j| (i + j) as f64);
        let ra = DenseMatrix::from_fn(2, 3, |i, j| (i * 3 + j) as f64 * 0.5);
        let a = NormalizedMatrix::pk_fk(sa.into(), &[0, 1, 0, 1, 1], ra.into());
        let sb = DenseMatrix::from_fn(4, 2, |i, j| (2 * i + j) as f64 - 3.0);
        let rb = DenseMatrix::from_fn(2, 3, |i, j| (i + j * 2) as f64 + 0.25);
        let b = NormalizedMatrix::pk_fk(sb.into(), &[1, 0, 1, 0], rb.into());
        let f = a.dmm(&b.transpose()).to_dense();
        let m = a
            .materialize()
            .to_dense()
            .matmul(&b.materialize().to_dense().transpose());
        assert!(f.approx_eq(&m, 1e-10));
    }

    #[test]
    fn dmm_abt_unequal_ds_both_directions() {
        // d_{S_A} = 1 < d_{S_B} = 3, same total width 4.
        let sa = DenseMatrix::from_fn(5, 1, |i, _| i as f64 + 1.0);
        let ra = DenseMatrix::from_fn(2, 3, |i, j| (i * 3 + j) as f64 * 0.3);
        let a = NormalizedMatrix::pk_fk(sa.into(), &[0, 1, 0, 1, 1], ra.into());
        let sb = DenseMatrix::from_fn(4, 3, |i, j| ((i + j) % 3) as f64 - 1.0);
        let rb = DenseMatrix::from_fn(3, 1, |i, _| (i as f64) * 2.0 + 0.5);
        let b = NormalizedMatrix::pk_fk(sb.into(), &[2, 1, 0, 2], rb.into());

        let f = a.dmm(&b.transpose()).to_dense();
        let m = a
            .materialize()
            .to_dense()
            .matmul(&b.materialize().to_dense().transpose());
        assert!(f.approx_eq(&m, 1e-10), "case dSA < dSB failed");

        // And the symmetric case via (B Aᵀ)ᵀ.
        let f2 = b.dmm(&a.transpose()).to_dense();
        let m2 = m.transpose();
        assert!(f2.approx_eq(&m2, 1e-10), "case dSA > dSB failed");
    }

    #[test]
    fn dmm_atb_matches_materialized() {
        // Aᵀ B with n_A = n_B.
        let sa = DenseMatrix::from_fn(6, 2, |i, j| (i * 2 + j) as f64 * 0.5);
        let ra = DenseMatrix::from_fn(3, 2, |i, j| (i + j) as f64);
        let a = NormalizedMatrix::pk_fk(sa.into(), &[0, 1, 2, 0, 1, 2], ra.into());
        let sb = DenseMatrix::from_fn(6, 1, |i, _| (i % 4) as f64 - 1.5);
        let rb = DenseMatrix::from_fn(2, 2, |i, j| (i * 2 + j) as f64 + 1.0);
        let b = NormalizedMatrix::pk_fk(sb.into(), &[1, 0, 0, 1, 1, 0], rb.into());
        let f = a.transpose().dmm(&b).to_dense();
        let m = a
            .materialize()
            .to_dense()
            .t_matmul(&b.materialize().to_dense());
        assert!(f.approx_eq(&m, 1e-10));
    }

    #[test]
    fn dmm_fallback_for_non_pkfk_shapes() {
        // M:N-shaped A falls back to materializing the smaller operand.
        let s = DenseMatrix::from_fn(3, 2, |i, j| (i + j) as f64 + 1.0);
        let r = DenseMatrix::from_fn(2, 2, |i, j| (i * 2 + j) as f64 * 0.5);
        let a = NormalizedMatrix::mn_join(s.into(), &[0, 1, 2, 0], r.into(), &[0, 1, 1, 0]);
        // A is 4x4, so B needs 4 rows.
        let sb = DenseMatrix::from_fn(4, 1, |i, _| i as f64);
        let rb = DenseMatrix::from_fn(1, 3, |_, j| 2.0 + j as f64);
        let b = NormalizedMatrix::pk_fk(sb.into(), &[0, 0, 0, 0], rb.into());
        let f = a.dmm(&b).to_dense();
        let m = a
            .materialize()
            .to_dense()
            .matmul(&b.materialize().to_dense());
        assert!(f.approx_eq(&m, 1e-10));
    }

    #[test]
    fn nnz_bounds_theorems_c1_c2() {
        use crate::KeyColumn;
        // P = K_Aᵀ K_B: max{n_RA, n_RB} ≤ nnz(P) ≤ n_S.
        let ka = KeyColumn::new(&[0, 1, 2, 0, 1, 2, 0, 2], 3).unwrap();
        let kb = KeyColumn::new(&[1, 1, 0, 0, 1, 3, 2, 0], 4).unwrap();
        let p = ka.pair_counts(&kb);
        assert!(p.nnz() >= 4); // max{n_RA, n_RB} = max{3, 4}
        assert!(p.nnz() <= 8);
        // sum(P) = n_S exactly (proof of theorem C.2).
        assert_eq!(p.sum(), 8.0);
    }
}
