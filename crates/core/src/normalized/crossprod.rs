//! Cross-product rewrites (§3.3.5, §3.5, App. A/D/E) — the heart of
//! factorized linear regression, covariance, and PCA.
//!
//! `crossprod(T) = Tᵀ T` is assembled block-wise over the parts of
//! `T = [I₀B₀, …, I_qB_q]`; block `(i, j)` is `Bᵢᵀ (Iᵢᵀ Iⱼ) Bⱼ` (for two
//! key columns `Iᵢᵀ Iⱼ` is their pair counts), and only the upper triangle
//! is computed (the result is symmetric).
//!
//! Two variants mirror the paper:
//!
//! * **Efficient** (Algorithm 2 / 10): diagonal blocks use the identity
//!   `Bᵀ(KᵀK)B = crossprod(diag(colSums(K))^½ B)` — valid because a key
//!   column selects one base row per logical row, making `KᵀK` diagonal
//!   with the reference counts on the diagonal. This avoids a sparse
//!   product entirely and exploits the symmetric kernel.
//! * **Naive** (Algorithm 1 / 9): diagonal blocks compute `Bᵀ((KᵀK)B)` with
//!   `KᵀK` as an explicit sparse matrix, and the entity diagonal uses a
//!   plain `SᵀS` product instead of the symmetric kernel. Kept for the
//!   ablation benchmark.
//!
//! The Gram matrix `crossprod(Tᵀ) = T Tᵀ` (appendix A) is
//! `Σᵢ Iᵢ (BᵢBᵢᵀ) Iᵢᵀ` **plus** cross-part terms when more than one part has
//! a non-identity indicator (M:N joins); the PK-FK special cases in the
//! appendix drop those terms because `I₀ = I`.

use super::{Indicator, NormalizedMatrix};
use crate::Matrix;
use morpheus_dense::DenseMatrix;
use morpheus_runtime::Runtime;

/// `aᵀ b` across all four representation pairings, returned dense. Every
/// arm is transpose-free and band-parallel, including the scatter-written
/// sparse ones (`t_spmm_dense` / `t_spgemm_dense` run a two-pass
/// symbolic/numeric scheme above the work threshold).
fn t_cross(a: &Matrix, b: &Matrix) -> DenseMatrix {
    match (a, b) {
        (Matrix::Dense(x), Matrix::Dense(y)) => x.t_matmul(y),
        (Matrix::Sparse(x), Matrix::Dense(y)) => x.t_spmm_dense(y),
        (Matrix::Dense(x), Matrix::Sparse(y)) => y.t_spmm_dense(x).transpose(),
        (Matrix::Sparse(x), Matrix::Sparse(y)) => x.t_spgemm_dense(y),
    }
}

impl NormalizedMatrix {
    /// `crossprod(T) = Tᵀ T`, using the efficient rewrite. Respects the
    /// transpose flag (`crossprod(Tᵀ)` is the Gram matrix `T Tᵀ`).
    pub fn crossprod(&self) -> DenseMatrix {
        if self.transposed {
            self.gram_raw()
        } else {
            self.crossprod_raw(false)
        }
    }

    /// `crossprod` via the naive method (Algorithm 1 / 9) — ablation only.
    pub fn crossprod_naive(&self) -> DenseMatrix {
        if self.transposed {
            self.gram_raw()
        } else {
            self.crossprod_raw(true)
        }
    }

    /// The Gram matrix `tcrossprod(T) = T Tᵀ`. Respects the transpose flag.
    pub fn tcrossprod(&self) -> DenseMatrix {
        if self.transposed {
            self.crossprod_raw(false)
        } else {
            self.gram_raw()
        }
    }

    fn crossprod_raw(&self, naive: bool) -> DenseMatrix {
        let d = self.d_total();
        let offsets = self.col_offsets();
        // Every block of the upper triangle — diagonal blocks
        // cp(Iᵢ Bᵢ) and off-diagonal blocks Bᵢᵀ (Iᵢᵀ Iⱼ) Bⱼ, j > i — is an
        // independent product; compute them in parallel on the shared
        // runtime (the kernels inside see the remaining thread budget) and
        // assemble in deterministic block order afterwards.
        let q = self.parts.len();
        let jobs: Vec<(usize, usize)> = (0..q).flat_map(|i| (i..q).map(move |j| (i, j))).collect();
        let blocks = Runtime::executor().map(jobs.len(), |idx| {
            let (i, j) = jobs[idx];
            if i == j {
                self.diag_block(&self.parts[i], naive)
            } else {
                self.cross_block(&self.parts[i], &self.parts[j])
            }
        });
        let mut out = DenseMatrix::zeros(d, d);
        for ((i, j), block) in jobs.into_iter().zip(blocks) {
            if i == j {
                out.set_block(offsets[i], offsets[i], &block);
            } else {
                out.set_block(offsets[j], offsets[i], &block.transpose());
                out.set_block(offsets[i], offsets[j], &block);
            }
        }
        out
    }

    fn diag_block(&self, part: &super::AttributePart, naive: bool) -> DenseMatrix {
        match (&part.indicator, naive) {
            (Indicator::Identity, false) => part.table.crossprod(),
            (Indicator::Identity, true) => t_cross(&part.table, &part.table),
            (Indicator::Rows(k), false) => {
                // crossprod(diag(colSums(K))^½ B): KᵀK is diagonal because
                // each indicator row is a single 1.
                let weights: Vec<f64> = k.col_sums().as_slice().iter().map(|&c| c.sqrt()).collect();
                part.table.scale_rows(&weights).crossprod()
            }
            (Indicator::Rows(k), true) => {
                // Bᵀ((KᵀK)B) with KᵀK as an explicit sparse matrix.
                let inner = Matrix::Sparse(k.pair_counts(k)).matmul(&part.table);
                t_cross(&part.table, &inner)
            }
        }
    }

    fn cross_block(&self, pi: &super::AttributePart, pj: &super::AttributePart) -> DenseMatrix {
        match (&pi.indicator, &pj.indicator) {
            // SᵀS' — two identity parts (degenerate but legal).
            (Indicator::Identity, Indicator::Identity) => t_cross(&pi.table, &pj.table),
            // Sᵀ(Kⱼ Bⱼ) without materializing: (KⱼᵀS)ᵀ Bⱼ.
            (Indicator::Identity, Indicator::Rows(_)) => {
                let u = pj.indicator.apply_t_m(&pi.table); // Kⱼᵀ S
                t_cross(&u, &pj.table)
            }
            // (Kᵢ Bᵢ)ᵀ S = Bᵢᵀ (Kᵢᵀ S).
            (Indicator::Rows(_), Indicator::Identity) => {
                let u = pi.indicator.apply_t_m(&pj.table); // Kᵢᵀ S
                t_cross(&pi.table, &u)
            }
            // Bᵢᵀ (Kᵢᵀ Kⱼ) Bⱼ — compute the small sparse P = KᵢᵀKⱼ first
            // (§3.5: "Ri (Kᵢᵀ Kⱼ) Rⱼ is used").
            (Indicator::Rows(ki), Indicator::Rows(kj)) => {
                let q = Matrix::Sparse(ki.pair_counts(kj)).matmul(&pj.table); // P Bⱼ
                t_cross(&pi.table, &q)
            }
        }
    }

    fn gram_raw(&self) -> DenseMatrix {
        // T Tᵀ for T = [I₀B₀, …, I_qB_q] is a pure per-part sum
        // Σᵢ Iᵢ (BᵢBᵢᵀ) Iᵢᵀ — horizontal blocks contribute independently
        // (appendix A/D: crossprod(Tᵀ) → Σᵢ Iᵢ crossprod(Bᵢᵀ) Iᵢᵀ).
        let n = self.n_rows;
        // Contributions are n x n each, so they stream one at a time into
        // the accumulator (bounded memory: two n x n matrices, like the
        // serial rewrite) rather than materializing all parts at once.
        // Parallelism comes from the band-parallel kernels inside
        // tcrossprod and the `(K G) Kᵀ` product, which see the full
        // runtime budget here.
        let mut out = DenseMatrix::zeros(n, n);
        for pi in &self.parts {
            let g = pi.table.tcrossprod();
            let contrib = match &pi.indicator {
                Indicator::Identity => g,
                Indicator::Rows(k) => k.sandwich(&g),
            };
            out.add_assign(&contrib);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_fixtures::*;

    #[test]
    fn crossprod_matches_materialized() {
        for tn in [figure2(), star2(), mn(), sparse_pkfk()] {
            let f = tn.crossprod();
            let m = tn.materialize().crossprod();
            assert!(f.approx_eq(&m, 1e-10), "crossprod mismatch");
        }
    }

    #[test]
    fn naive_crossprod_matches_efficient() {
        for tn in [figure2(), star2(), mn(), sparse_pkfk()] {
            assert!(tn.crossprod_naive().approx_eq(&tn.crossprod(), 1e-10));
        }
    }

    #[test]
    fn gram_matches_materialized() {
        for tn in [figure2(), star2(), mn(), sparse_pkfk()] {
            let f = tn.tcrossprod();
            let m = tn.materialize().tcrossprod();
            assert!(f.approx_eq(&m, 1e-10), "gram mismatch");
        }
    }

    #[test]
    fn transposed_crossprod_is_gram() {
        for tn in [figure2(), star2(), mn()] {
            let tt = tn.transpose();
            // crossprod(Tᵀ) = T Tᵀ.
            assert!(tt.crossprod().approx_eq(&tn.tcrossprod(), 1e-10));
            // tcrossprod(Tᵀ) = Tᵀ T.
            assert!(tt.tcrossprod().approx_eq(&tn.crossprod(), 1e-10));
        }
    }

    #[test]
    fn crossprod_is_symmetric_psd() {
        let cp = star2().crossprod();
        assert!(cp.transpose().approx_eq(&cp, 1e-12));
        let e = morpheus_linalg::eigen_sym(&cp).unwrap();
        for &l in &e.values {
            assert!(l > -1e-8, "negative eigenvalue {l} in crossprod");
        }
    }

    #[test]
    fn crossprod_composes_with_scalar_ops() {
        // crossprod(2T) = 4 crossprod(T): scalar ops return normalized
        // matrices, so this chains without materialization.
        let tn = figure2();
        let lhs = tn.scalar_mul(2.0).crossprod();
        let rhs = tn.crossprod().scalar_mul(4.0);
        assert!(lhs.approx_eq(&rhs, 1e-10));
    }
}
