//! Gaussian non-negative matrix factorization (paper Algorithms 8 & 16).
//!
//! GNMF factorizes the data as `T ≈ W Hᵀ` with non-negative `W` (`n x r`)
//! and `H` (`d x r`) via Lee–Seung multiplicative updates:
//!
//! ```text
//! H = H * (Tᵀ W) / (H crossprod(W))
//! W = W * (T H)  / (W crossprod(H))
//! ```
//!
//! Both data-touching products — the transposed LMM `Tᵀ W` and the LMM
//! `T H` — factorize on normalized input; everything else operates on the
//! small `r`-column factor matrices. Like K-Means, GNMF requires full
//! matrix-matrix multiplications, demonstrating the generality the paper
//! claims beyond the vector-only prior work.

use morpheus_core::LinearOperand;
use morpheus_dense::DenseMatrix;

/// Multiplicative-update GNMF.
#[derive(Debug, Clone)]
pub struct Gnmf {
    /// Factorization rank (number of "topics") `r`.
    pub rank: usize,
    /// Number of multiplicative-update iterations.
    pub max_iter: usize,
}

/// A fitted GNMF model `T ≈ W Hᵀ`.
#[derive(Debug, Clone)]
pub struct GnmfModel {
    /// Row-factor matrix `W` (`n x r`).
    pub w: DenseMatrix,
    /// Column-factor matrix `H` (`d x r`).
    pub h: DenseMatrix,
}

/// Numerical floor keeping the multiplicative updates away from 0/0.
const EPS: f64 = 1e-12;

impl Gnmf {
    /// Creates a trainer with the given rank and iteration count.
    pub fn new(rank: usize, max_iter: usize) -> Self {
        Self { rank, max_iter }
    }

    /// Deterministic strictly-positive initial factors.
    fn init(&self, n: usize, d: usize) -> (DenseMatrix, DenseMatrix) {
        let r = self.rank;
        let w = DenseMatrix::from_fn(n, r, |i, j| {
            0.5 + 0.25 * (((i * 31 + j * 17 + 1) % 97) as f64 / 97.0)
        });
        let h = DenseMatrix::from_fn(d, r, |i, j| {
            0.5 + 0.25 * (((i * 13 + j * 41 + 5) % 89) as f64 / 89.0)
        });
        (w, h)
    }

    /// Runs multiplicative updates on any [`LinearOperand`] data matrix.
    /// The data should be non-negative for the NMF semantics to hold.
    ///
    /// # Panics
    /// Panics if `rank == 0`.
    pub fn fit<M: LinearOperand>(&self, t: &M) -> GnmfModel {
        assert!(self.rank > 0, "gnmf: rank must be positive");
        let (w0, h0) = self.init(t.nrows(), t.ncols());
        self.fit_from(t, &w0, &h0)
    }

    /// Runs multiplicative updates from explicit initial factors.
    ///
    /// # Panics
    /// Panics if the factor shapes disagree with the data.
    pub fn fit_from<M: LinearOperand>(
        &self,
        t: &M,
        w0: &DenseMatrix,
        h0: &DenseMatrix,
    ) -> GnmfModel {
        assert_eq!(w0.shape(), (t.nrows(), self.rank), "gnmf: W must be n x r");
        assert_eq!(h0.shape(), (t.ncols(), self.rank), "gnmf: H must be d x r");
        let mut w = w0.clone();
        let mut h = h0.clone();
        for _ in 0..self.max_iter {
            // H = H * (Tᵀ W) / (H crossprod(W))
            let num_h = t.t_lmm(&w); // d x r — factorized
            let den_h = h.matmul(&w.crossprod());
            update(&mut h, &num_h, &den_h);
            // W = W * (T H) / (W crossprod(H))
            let num_w = t.lmm(&h); // n x r — factorized
            let den_w = w.matmul(&h.crossprod());
            update(&mut w, &num_w, &den_w);
        }
        GnmfModel { w, h }
    }
}

/// One multiplicative update in place, `f = f * (num / (den + EPS))`
/// element by element: the expression of the matrix form, without its
/// three temporaries.
fn update(f: &mut DenseMatrix, num: &DenseMatrix, den: &DenseMatrix) {
    let terms = num.as_slice().iter().zip(den.as_slice());
    for (x, (&n, &d)) in f.as_mut_slice().iter_mut().zip(terms) {
        *x *= n / (d + EPS);
    }
}

impl GnmfModel {
    /// Reconstruction `W Hᵀ`.
    pub fn reconstruct(&self) -> DenseMatrix {
        self.w.matmul_t(&self.h)
    }

    /// Frobenius reconstruction error `‖T − W Hᵀ‖_F` against a
    /// materialized copy of the data.
    pub fn reconstruction_error(&self, t: &DenseMatrix) -> f64 {
        let mut diff = self.reconstruct();
        diff.sub_assign(t);
        diff.frobenius_norm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morpheus_core::{Matrix, NormalizedMatrix};
    use morpheus_dense::ScalarOp;

    /// Non-negative PK-FK fixture (NMF needs non-negative data).
    fn fixture() -> (NormalizedMatrix, Matrix) {
        let mut rng = crate::test_data::stream(71);
        let s = DenseMatrix::from_fn(40, 3, |_, _| rng().abs() + 0.05);
        let r = DenseMatrix::from_fn(5, 4, |_, _| rng().abs() + 0.05);
        let fk: Vec<usize> = (0..40).map(|i| (i * 3 + 1) % 5).collect();
        let tn = NormalizedMatrix::pk_fk(s.into(), &fk, r.into());
        let t = tn.materialize();
        (tn, t)
    }

    #[test]
    fn factorized_matches_materialized() {
        let (tn, t) = fixture();
        let g = Gnmf::new(3, 10);
        let mf = g.fit(&tn);
        let mm = g.fit(&t);
        assert!(mf.w.approx_eq(&mm.w, 1e-7));
        assert!(mf.h.approx_eq(&mm.h, 1e-7));
    }

    #[test]
    fn planned_routing_matches_pure_paths() {
        let (tn, t) = fixture();
        let g = Gnmf::new(3, 10);
        let planned = g.fit(&crate::test_data::planned(&tn));
        let mm = g.fit(&t);
        assert!(planned.w.approx_eq(&mm.w, 1e-7));
        assert!(planned.h.approx_eq(&mm.h, 1e-7));
    }

    /// The in-place update against the matrix expression it replaced,
    /// `H * ((Tᵀ W) / (H crossprod(W) + EPS))` with its temporaries.
    #[test]
    fn in_place_updates_match_the_matrix_expression() {
        let (tn, t) = fixture();
        let g = Gnmf::new(3, 10);
        let bits = |m: &DenseMatrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        fn reference<M: LinearOperand>(g: &Gnmf, t: &M) -> GnmfModel {
            let (mut w, mut h) = g.init(t.nrows(), t.ncols());
            for _ in 0..g.max_iter {
                let den_h = h.matmul(&w.crossprod()).apply(ScalarOp::Add(EPS));
                h = h.mul_elem(&t.t_lmm(&w).div_elem(&den_h));
                let den_w = w.matmul(&h.crossprod()).apply(ScalarOp::Add(EPS));
                w = w.mul_elem(&t.lmm(&h).div_elem(&den_w));
            }
            GnmfModel { w, h }
        }
        for (got, want) in [
            (g.fit(&tn), reference(&g, &tn)),
            (g.fit(&t), reference(&g, &t)),
        ] {
            assert_eq!(bits(&got.w), bits(&want.w));
            assert_eq!(bits(&got.h), bits(&want.h));
        }
    }

    #[test]
    fn factors_stay_nonnegative() {
        let (tn, _) = fixture();
        let m = Gnmf::new(2, 15).fit(&tn);
        assert!(m.w.as_slice().iter().all(|&v| v >= 0.0));
        assert!(m.h.as_slice().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn reconstruction_error_decreases() {
        let (tn, t) = fixture();
        let td = t.to_dense();
        let e1 = Gnmf::new(3, 2).fit(&tn).reconstruction_error(&td);
        let e2 = Gnmf::new(3, 20).fit(&tn).reconstruction_error(&td);
        assert!(
            e2 < e1,
            "reconstruction error did not decrease: {e1} -> {e2}"
        );
    }

    #[test]
    fn exact_low_rank_data_is_recovered_well() {
        // T = W₀ H₀ᵀ with rank 2 — GNMF should drive the error near zero.
        let w0 = DenseMatrix::from_fn(30, 2, |i, j| ((i + 2 * j) % 5) as f64 + 0.5);
        let h0 = DenseMatrix::from_fn(4, 2, |i, j| ((i * 2 + j) % 3) as f64 + 0.5);
        let t = Matrix::Dense(w0.matmul_t(&h0));
        let m = Gnmf::new(2, 300).fit(&t);
        let err = m.reconstruction_error(&t.to_dense());
        let scale = t.to_dense().frobenius_norm();
        assert!(
            err / scale < 0.05,
            "relative error too high: {}",
            err / scale
        );
    }

    #[test]
    #[should_panic(expected = "rank must be positive")]
    fn zero_rank_panics() {
        let (tn, _) = fixture();
        Gnmf::new(0, 1).fit(&tn);
    }
}
