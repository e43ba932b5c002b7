//! Left and right matrix multiplication (LMM §3.3.3, RMM §3.3.4, §3.5,
//! App. A/D/E) — the workhorse rewrites of factorized ML.
//!
//! Over `T = [I₀B₀, …, I_qB_q]` with column offsets `d'ᵢ`:
//!
//! ```text
//! LMM  T X → Σᵢ Iᵢ (Bᵢ X[d'ᵢ₋₁ : d'ᵢ, ])
//! RMM  X T → [(X I₀)B₀, …, (X I_q)B_q]
//! ```
//!
//! The multiplication *order* is the crux (§3.3.3): `Iᵢ(BᵢXᵢ)` costs
//! `O(nᵢ dᵢ m + n m)` while `(IᵢBᵢ)Xᵢ` is equivalent to materializing the
//! join and costs `O(n dᵢ m)`. [`NormalizedMatrix::lmm_materialized_order`]
//! keeps the bad order around for the ablation benchmark.
//!
//! For a fixed `X` (a loaded model) the inner products `Bᵢ Xᵢ` are also
//! what a request for *some* rows of `T X` shares with every other
//! request: [`NormalizedMatrix::lmm_partials`] computes them once and
//! [`NormalizedMatrix::lmm_rows_from_partials`] finishes any row selection
//! with the same per-element expression sequence as the full rewrite.
//!
//! [`NormalizedMatrix::t_lmm_indicator`] is `Tᵀ A` for a one-hot `A`
//! given by its keys (K-Means' centroid update): a segmented reduce
//! `Aᵀ Bᵢ` for an identity part and `(Kᵢᵀ A)ᵀ Bᵢ` over the pair counts
//! `Kᵢᵀ A` for a keyed part, which then costs `O(n + nnz(Kᵢᵀ A)·dᵢ)`
//! instead of the `O(n·dᵢ·k)` of `t_lmm` on the one-hot `A`.
//!
//! Transposed forms (appendix A): `Tᵀ X → (Xᵀ T)ᵀ` and `X Tᵀ → (T Xᵀ)ᵀ`,
//! which dispatch back onto the untransposed rewrites.
//!
//! Parallelism is two-level: the per-part products run concurrently on the
//! shared [`Runtime`] executor (each part's `Bᵢ Xᵢ` is independent), while
//! the dense/sparse kernels inside each product see the *remaining* thread
//! budget — the executor's claim bookkeeping prevents oversubscription.
//! Partials are always combined in part order, so results are identical to
//! the sequential rewrite.

use super::{Indicator, KeyColumn, NormalizedMatrix};
use crate::Matrix;
use morpheus_dense::DenseMatrix;
use morpheus_runtime::Runtime;

impl NormalizedMatrix {
    /// Left matrix multiplication `T X` (`X` is `cols() x m` dense).
    ///
    /// # Panics
    /// Panics if `x.rows() != self.cols()`.
    pub fn lmm(&self, x: &DenseMatrix) -> DenseMatrix {
        assert_eq!(
            x.rows(),
            self.cols(),
            "lmm: X has {} rows for a {}x{} normalized matrix",
            x.rows(),
            self.rows(),
            self.cols()
        );
        if self.transposed {
            self.t_lmm_raw(x)
        } else {
            self.lmm_raw(x)
        }
    }

    /// Transposed LMM `Tᵀ X` without materializing the transpose
    /// (`X` is `rows() x m`).
    ///
    /// # Panics
    /// Panics if `x.rows() != self.rows()`.
    pub fn t_lmm(&self, x: &DenseMatrix) -> DenseMatrix {
        assert_eq!(
            x.rows(),
            self.rows(),
            "t_lmm: X has {} rows for a {}x{} normalized matrix",
            x.rows(),
            self.rows(),
            self.cols()
        );
        if self.transposed {
            self.lmm_raw(x)
        } else {
            self.t_lmm_raw(x)
        }
    }

    /// `Tᵀ A` for the `rows() x a.table_rows()` indicator `A` of `a`, as
    /// group sums: column `c` sums the rows of `T` keyed `c`, so a
    /// non-finite row reaches only its own group. Where `t_lmm` on the
    /// one-hot `A` costs `O(n·dᵢ·k)` per part, an identity part here is
    /// one segmented reduce `Aᵀ Bᵢ` and a keyed part is `(Kᵢᵀ A)ᵀ Bᵢ`
    /// over the `n_Rᵢ x k` pair counts `Kᵢᵀ A`: `O(n + nnz(Kᵢᵀ A)·dᵢ)`.
    /// A transposed view sums the columns of each `Bᵢ` by key and
    /// gathers the sums through `Iᵢ`, the LMM rewrite's order.
    ///
    /// # Panics
    /// Panics if `a.rows() != self.rows()`.
    pub fn t_lmm_indicator(&self, a: &KeyColumn) -> DenseMatrix {
        assert_eq!(
            a.rows(),
            self.rows(),
            "t_lmm_indicator: A has {} rows for a {}x{} normalized matrix",
            a.rows(),
            self.rows(),
            self.cols()
        );
        if self.transposed {
            // (Tᵀ)ᵀ A = T A = Σᵢ Iᵢ (Bᵢ Aᵢ), Aᵢ the keys of part i's columns.
            let offsets = self.col_offsets();
            let partials = Runtime::executor().map(self.parts.len(), |i| {
                let ai = a.slice_rows(offsets[i]..offsets[i + 1]);
                ai.col_group_sums(&self.parts[i].table)
            });
            let mut out = DenseMatrix::zeros(self.n_rows, a.table_rows());
            for (p, partial) in self.parts.iter().zip(&partials) {
                p.indicator
                    .apply_add_into(partial, out.as_mut_slice(), self.n_rows);
            }
            return out;
        }
        // Aᵀ T = [Aᵀ I₀B₀, …, Aᵀ I_qB_q] side by side, then transposed.
        let blocks = Runtime::executor().map(self.parts.len(), |i| {
            let p = &self.parts[i];
            match (&p.indicator, &p.table) {
                (Indicator::Identity, _) => a.group_sums(&p.table),
                (Indicator::Rows(k), Matrix::Dense(b)) => k.pair_counts(a).t_spmm_dense(b),
                (Indicator::Rows(k), Matrix::Sparse(b)) => k.pair_counts(a).t_spgemm_dense(b),
            }
        });
        let refs: Vec<&DenseMatrix> = blocks.iter().collect();
        DenseMatrix::hstack_all(&refs).transpose()
    }

    /// Right matrix multiplication `X T` (`X` is `m x rows()` dense).
    ///
    /// # Panics
    /// Panics if `x.cols() != self.rows()`.
    pub fn rmm(&self, x: &DenseMatrix) -> DenseMatrix {
        assert_eq!(
            x.cols(),
            self.rows(),
            "rmm: X has {} cols for a {}x{} normalized matrix",
            x.cols(),
            self.rows(),
            self.cols()
        );
        if self.transposed {
            // X Tᵀ → (T Xᵀ)ᵀ
            self.lmm_raw(&x.transpose()).transpose()
        } else {
            self.rmm_raw(x)
        }
    }

    /// `T X` in the *materializing* multiplication order `(Iᵢ Bᵢ) Xᵢ` —
    /// logically equal to [`NormalizedMatrix::lmm`] but with the redundancy
    /// the paper warns about. Exposed for the ablation study only.
    pub fn lmm_materialized_order(&self, x: &DenseMatrix) -> DenseMatrix {
        assert!(
            !self.transposed,
            "ablation helper expects untransposed input"
        );
        let offsets = self.col_offsets();
        let mut acc = DenseMatrix::zeros(self.n_rows, x.cols());
        for (p, w) in self.parts.iter().zip(offsets.windows(2)) {
            let xi = x.slice_rows(w[0]..w[1]);
            let materialized_part = p.materialize(); // Iᵢ Bᵢ — the bad order
            acc.add_assign(&materialized_part.matmul_dense(&xi));
        }
        acc
    }

    /// `T X` written into a caller-provided buffer (row-major,
    /// `rows() * x.cols()` slots) instead of allocating the output, so a
    /// caller scoring the whole operand repeatedly reuses one buffer.
    /// Bit-identical to [`NormalizedMatrix::lmm`] by construction: both
    /// run `NormalizedMatrix::lmm_accumulate`.
    ///
    /// Transposed views take the allocating dispatch and copy (their
    /// result is assembled by vertical stacking, not accumulation).
    ///
    /// # Panics
    /// Panics if `x.rows() != self.cols()` or if `out.len()` is not
    /// `self.rows() * x.cols()`.
    pub fn lmm_into(&self, x: &DenseMatrix, out: &mut [f64]) {
        assert_eq!(
            out.len(),
            self.rows() * x.cols(),
            "lmm_into: out has {} slots for a {} x {} result",
            out.len(),
            self.rows(),
            x.cols()
        );
        if self.transposed {
            out.copy_from_slice(self.lmm(x).as_slice());
            return;
        }
        assert_eq!(
            x.rows(),
            self.cols(),
            "lmm: X has {} rows for a {}x{} normalized matrix",
            x.rows(),
            self.rows(),
            self.cols()
        );
        self.lmm_accumulate(x, out);
    }

    pub(crate) fn lmm_raw(&self, x: &DenseMatrix) -> DenseMatrix {
        let mut acc = DenseMatrix::zeros(self.n_rows, x.cols());
        self.lmm_accumulate(x, acc.as_mut_slice());
        acc
    }

    /// The LMM rewrite into a zeroed-by-us output slice. The good order:
    /// Bᵢ Xᵢ first (small), then the indicator as a fused gather-add — no
    /// intermediate n x m matrix. The per-part products are independent
    /// and run in parallel; the gather-adds stay in part order so the
    /// accumulation is deterministic.
    fn lmm_accumulate(&self, x: &DenseMatrix, out: &mut [f64]) {
        let offsets = self.col_offsets();
        let partials = Runtime::executor().map(self.parts.len(), |i| {
            let w = &offsets[i..=i + 1];
            let xi = x.slice_rows(w[0]..w[1]);
            self.parts[i].table.matmul_dense(&xi)
        });
        out.fill(0.0);
        for (p, partial) in self.parts.iter().zip(&partials) {
            p.indicator.apply_add_into(partial, out, self.n_rows);
        }
    }

    /// The row-independent half of `T X` for a **fixed** `X`, one entry
    /// per part: `Bᵢ Xᵢ` (`n_Rᵢ x m`, shared by every logical row that
    /// references it) for a part with an explicit indicator, and the bare
    /// slice `Xᵢ` (`dᵢ x m`) for an identity part, whose product has one
    /// row per logical row and is left to
    /// [`NormalizedMatrix::lmm_rows_from_partials`]. Computed with the
    /// call [`NormalizedMatrix::lmm`] makes, so a model loaded once can
    /// answer row requests without repeating any `Bᵢ Xᵢ` — memory is
    /// `Σ n_Rᵢ m` floats, independent of the entity-table height.
    ///
    /// # Panics
    /// Panics if `x.rows() != self.cols()` or if the matrix is transposed
    /// (rows of a transposed view are columns of the join).
    pub fn lmm_partials(&self, x: &DenseMatrix) -> Vec<DenseMatrix> {
        assert!(
            !self.transposed,
            "lmm_partials: transposed views are unsupported"
        );
        assert_eq!(
            x.rows(),
            self.cols(),
            "lmm_partials: X has {} rows for a {}x{} normalized matrix",
            x.rows(),
            self.rows(),
            self.cols()
        );
        let offsets = self.col_offsets();
        Runtime::executor().map(self.parts.len(), |i| {
            let xi = x.slice_rows(offsets[i]..offsets[i + 1]);
            match self.parts[i].indicator {
                Indicator::Identity => xi,
                Indicator::Rows(_) => self.parts[i].table.matmul_dense(&xi),
            }
        })
    }

    /// Rows `rows` of `T X` (repeats and any order allowed) from
    /// `partials = self.lmm_partials(X)`, written row-major into `out`
    /// (`rows.len() * m` slots). Per element this is the expression
    /// sequence of the full rewrite — zero, then one add per part in part
    /// order, an identity part's term coming from the same product kernel
    /// run on its gathered rows — so every value is bit-identical to the
    /// matching row of [`NormalizedMatrix::lmm`], whatever else is in
    /// `rows`.
    ///
    /// # Panics
    /// Panics if the matrix is transposed, if `partials` was not built by
    /// [`NormalizedMatrix::lmm_partials`] on this matrix, if any index is
    /// `>= self.rows()`, or if `out.len() != rows.len() * m`.
    pub fn lmm_rows_from_partials(
        &self,
        partials: &[DenseMatrix],
        rows: &[usize],
        out: &mut [f64],
    ) {
        assert!(
            !self.transposed,
            "lmm_rows_from_partials: transposed views are unsupported"
        );
        assert_eq!(
            partials.len(),
            self.parts.len(),
            "lmm_rows_from_partials: one partial per part"
        );
        let m = partials[0].cols();
        assert_eq!(
            out.len(),
            rows.len() * m,
            "lmm_rows_from_partials: out has {} slots for a {} x {m} result",
            out.len(),
            rows.len()
        );
        let n = self.n_rows;
        if let Some(&bad) = rows.iter().find(|&&r| r >= n) {
            panic!("lmm_rows_from_partials: row {bad} out of range for {n} logical rows");
        }
        out.fill(0.0);
        for (p, partial) in self.parts.iter().zip(partials) {
            assert_eq!(partial.cols(), m, "lmm_rows_from_partials: ragged partials");
            match &p.indicator {
                Indicator::Identity => {
                    let product = selected_rows_product(&p.table, rows, partial);
                    p.indicator.apply_add_into(&product, out, rows.len());
                }
                Indicator::Rows(k) => {
                    assert_eq!(
                        partial.rows(),
                        p.table.rows(),
                        "lmm_rows_from_partials: partial does not match its base table"
                    );
                    k.gather_add(partial, rows.iter().copied(), out);
                }
            }
        }
    }

    pub(crate) fn t_lmm_raw(&self, x: &DenseMatrix) -> DenseMatrix {
        // Tᵀ X = [B₀ᵀ(I₀ᵀX); …; B_qᵀ(I_qᵀX)] stacked vertically; each
        // block is independent.
        let blocks = Runtime::executor().map(self.parts.len(), |i| {
            let p = &self.parts[i];
            match &p.indicator {
                Indicator::Identity => p.table.t_matmul_dense(x),
                Indicator::Rows(k) => p.table.t_matmul_dense(&k.t_spmm_dense(x)),
            }
        });
        let refs: Vec<&DenseMatrix> = blocks.iter().collect();
        DenseMatrix::vstack_all(&refs)
    }

    pub(crate) fn rmm_raw(&self, x: &DenseMatrix) -> DenseMatrix {
        // X T = [(X I₀)B₀, …, (X I_q)B_q] stacked horizontally; each block
        // is independent.
        let blocks = Runtime::executor().map(self.parts.len(), |i| {
            let p = &self.parts[i];
            match &p.indicator {
                Indicator::Identity => p.table.dense_matmul(x),
                Indicator::Rows(k) => p.table.dense_matmul(&k.dense_spmm(x)),
            }
        });
        let refs: Vec<&DenseMatrix> = blocks.iter().collect();
        DenseMatrix::hstack_all(&refs)
    }
}

/// `table[rows, :] * x`, bit-identical per row to `table * x`: the product
/// kernels accumulate each output row on its own, except that a dense
/// product with a single output row and `x.cols() > 1` takes an unfused
/// streaming path while taller ones take the FMA microkernel. The row
/// count handed to the kernel therefore stays on the full table's side of
/// that split.
fn selected_rows_product(table: &Matrix, rows: &[usize], x: &DenseMatrix) -> DenseMatrix {
    if table.rows() == 1 {
        // Every requested row is row 0: one product, repeated.
        let one = table.matmul_dense(x);
        return DenseMatrix::from_fn(rows.len(), x.cols(), |_, j| one.get(0, j));
    }
    if let [r] = *rows {
        return table.gather_rows(&[r, r]).matmul_dense(x).slice_rows(0..1);
    }
    table.gather_rows(rows).matmul_dense(x)
}

#[cfg(test)]
mod tests {
    use super::super::test_fixtures::*;
    use super::NormalizedMatrix;
    use morpheus_dense::DenseMatrix;
    use morpheus_runtime::Runtime;

    fn param(rows: usize, cols: usize) -> DenseMatrix {
        DenseMatrix::from_fn(rows, cols, |i, j| ((i * 7 + j * 3) % 5) as f64 - 2.0)
    }

    #[test]
    fn lmm_matches_materialized() {
        for tn in [figure2(), star2(), mn(), sparse_pkfk()] {
            let x = param(tn.cols(), 3);
            let f = tn.lmm(&x);
            let m = tn.materialize().matmul_dense(&x);
            assert!(f.approx_eq(&m, 1e-12));
        }
    }

    #[test]
    fn lmm_vector_case() {
        // dX = 1: the GLM inner-product case factorized in Kumar et al. [26].
        let tn = figure2();
        let w = param(4, 1);
        let f = tn.lmm(&w);
        let m = tn.materialize().matmul_dense(&w);
        assert!(f.approx_eq(&m, 1e-12));
    }

    #[test]
    fn figure2_worked_example() {
        // Figure 2 of the paper: X = [1; 2; 3; 4], T X = [17.1; 37.5; 44.5; 34.1; 38.5].
        let tn = figure2();
        let x = DenseMatrix::col_vector(&[1.0, 2.0, 3.0, 4.0]);
        let out = tn.lmm(&x);
        let expected = DenseMatrix::col_vector(&[17.1, 37.5, 44.5, 34.1, 38.5]);
        assert!(out.approx_eq(&expected, 1e-9));
    }

    #[test]
    fn t_lmm_matches_materialized() {
        for tn in [figure2(), star2(), mn(), sparse_pkfk()] {
            let x = param(tn.rows(), 2);
            let f = tn.t_lmm(&x);
            let m = tn.materialize().t_matmul_dense(&x);
            assert!(f.approx_eq(&m, 1e-12));
        }
    }

    #[test]
    fn rmm_matches_materialized() {
        for tn in [figure2(), star2(), mn(), sparse_pkfk()] {
            let x = param(3, tn.rows());
            let f = tn.rmm(&x);
            let m = tn.materialize().dense_matmul(&x);
            assert!(f.approx_eq(&m, 1e-12));
        }
    }

    #[test]
    fn transposed_operators_dispatch_correctly() {
        for tn in [figure2(), star2(), mn()] {
            let tt = tn.transpose();
            let mt = tt.materialize(); // d x n regular matrix

            let x = param(tt.cols(), 2); // Tᵀ X
            assert!(tt.lmm(&x).approx_eq(&mt.matmul_dense(&x), 1e-12));

            let y = param(tt.rows(), 2); // (Tᵀ)ᵀ Y = T Y
            assert!(tt.t_lmm(&y).approx_eq(&mt.t_matmul_dense(&y), 1e-12));

            let z = param(2, tt.rows()); // Z Tᵀ
            assert!(tt.rmm(&z).approx_eq(&mt.dense_matmul(&z), 1e-12));
        }
    }

    #[test]
    fn double_transpose_is_identity() {
        let tn = figure2();
        let x = param(tn.cols(), 2);
        let back = tn.transpose().transpose();
        assert!(back.lmm(&x).approx_eq(&tn.lmm(&x), 1e-12));
    }

    #[test]
    fn materialized_order_ablation_is_equivalent() {
        for tn in [figure2(), star2(), mn()] {
            let x = param(tn.cols(), 2);
            assert!(tn.lmm_materialized_order(&x).approx_eq(&tn.lmm(&x), 1e-12));
        }
    }

    #[test]
    fn rows_from_partials_are_bitwise_rows_of_lmm() {
        let irrational = |rows, cols, seed: f64| {
            DenseMatrix::from_fn(rows, cols, |i, j| {
                ((i * cols + j) as f64 * 0.37 + seed).sin()
            })
        };
        // Beyond the shared fixtures: inexact products (FMA and unfused
        // kernels round them differently), an entity table without
        // features, and a one-row entity table.
        let inexact = NormalizedMatrix::pk_fk(
            irrational(7, 3, 0.1).into(),
            &[2, 0, 1, 1, 2, 0, 2],
            irrational(3, 2, 0.2).into(),
        );
        let featureless = NormalizedMatrix::pk_fk(
            DenseMatrix::zeros(4, 0).into(),
            &[1, 0, 1, 1],
            irrational(2, 2, 0.3).into(),
        );
        let one_row = NormalizedMatrix::pk_fk(
            irrational(1, 3, 0.4).into(),
            &[0],
            irrational(1, 2, 0.5).into(),
        );
        let special = [-0.0, f64::INFINITY, 1.5, f64::NEG_INFINITY, f64::NAN, -2.25];
        // Worker count and threshold change scheduling only, never bits.
        Runtime::set_par_threshold(1);
        let configured = Runtime::threads();
        for threads in [1usize, 8] {
            Runtime::set_threads(threads);
            for tn in [
                figure2(),
                star2(),
                mn(),
                sparse_pkfk(),
                inexact.clone(),
                featureless.clone(),
                one_row.clone(),
            ] {
                let (n, d) = tn.shape();
                for m in [1usize, 3] {
                    for x in [
                        irrational(d, m, 0.6),
                        DenseMatrix::from_fn(d, m, |i, j| special[(i * m + j) % special.len()]),
                        DenseMatrix::from_fn(d, m, |_, _| -0.0),
                    ] {
                        let full = tn.lmm(&x);
                        let partials = tn.lmm_partials(&x);
                        for rows in [
                            vec![],
                            vec![0],
                            vec![n - 1],
                            vec![n - 1, 0, n - 1],
                            (0..n).rev().collect::<Vec<_>>(),
                            vec![1 % n, 1 % n, 0, n - 1],
                        ] {
                            let mut out = vec![f64::NAN; rows.len() * m];
                            tn.lmm_rows_from_partials(&partials, &rows, &mut out);
                            for (orow, &r) in out.chunks(m).zip(&rows) {
                                for (got, want) in orow.iter().zip(full.row(r)) {
                                    assert_eq!(
                                        got.to_bits(),
                                        want.to_bits(),
                                        "row {r} of {rows:?}"
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
        Runtime::set_threads(configured);
    }

    #[test]
    #[should_panic(expected = "row 5 out of range")]
    fn rows_from_partials_rejects_out_of_range() {
        let tn = figure2();
        let partials = tn.lmm_partials(&param(4, 1));
        tn.lmm_rows_from_partials(&partials, &[0, 5], &mut [0.0; 2]);
    }

    #[test]
    #[should_panic(expected = "transposed")]
    fn partials_reject_transposed() {
        figure2().transpose().lmm_partials(&param(5, 1));
    }

    #[test]
    #[should_panic(expected = "lmm: X has")]
    fn lmm_shape_mismatch_panics() {
        figure2().lmm(&DenseMatrix::zeros(3, 1));
    }
}
