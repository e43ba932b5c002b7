//! Aggregation operators: `rowSums`, `colSums`, `sum` (§3.3.2, §3.5, App. A/D/E).
//!
//! Rewrite rules over the unified representation `T = [I₀B₀, …, I_qB_q]`:
//!
//! ```text
//! rowSums(T) → Σᵢ Iᵢ rowSums(Bᵢ)
//! colSums(T) → [colSums(I₀)B₀, …, colSums(I_q)B_q]
//! sum(T)     → Σᵢ colSums(Iᵢ) rowSums(Bᵢ)
//! ```
//!
//! where `Iᵢ = Identity` collapses `colSums(Iᵢ)Bᵢ` to `colSums(Bᵢ)` —
//! recovering the §3.3.2 PK-FK rules verbatim. These are the LA analog of
//! SQL aggregate push-down ([12, 37] in the paper).

use super::{Indicator, NormalizedMatrix};
use morpheus_dense::DenseMatrix;

impl NormalizedMatrix {
    /// `rowSums(T)` as an `n x 1` column vector; under the transpose flag,
    /// `rowSums(Tᵀ) → colSums(T)ᵀ` (appendix A).
    pub fn row_sums(&self) -> DenseMatrix {
        if self.transposed {
            self.col_sums_raw().transpose()
        } else {
            self.row_sums_raw()
        }
    }

    /// `colSums(T)` as a `1 x d` row vector; under the transpose flag,
    /// `colSums(Tᵀ) → rowSums(T)ᵀ`.
    pub fn col_sums(&self) -> DenseMatrix {
        if self.transposed {
            self.row_sums_raw().transpose()
        } else {
            self.col_sums_raw()
        }
    }

    /// `sum(T)`; transpose-invariant (`sum(Tᵀ) → sum(T)`).
    pub fn sum(&self) -> f64 {
        self.parts
            .iter()
            .map(|p| {
                // colSums(Iᵢ) rowSums(Bᵢ) = Σⱼ refcount(j) · rowSum(Bᵢ)[j]
                let rs = p.table.row_sums().into_vec();
                let counts = match &p.indicator {
                    Indicator::Identity => vec![1.0; rs.len()],
                    Indicator::Rows(k) => k.col_sums().into_vec(),
                };
                morpheus_dense::dot(&counts, &rs)
            })
            .sum()
    }

    /// `rowMin(T)` as an `n x 1` column vector — an extension beyond the
    /// paper's Table 1: the row minimum distributes over the horizontal
    /// block structure, `rowMin(T)[j] = minᵢ rowMin(Bᵢ)[a_{i,j}]`, so only
    /// the per-part row minima (of base-table size) are computed and then
    /// gathered. Transposed inputs materialize (a column minimum has no
    /// such push-down through the indicator).
    pub fn row_min(&self) -> DenseMatrix {
        if self.transposed {
            return self.materialize().row_min();
        }
        let mut acc = DenseMatrix::filled(self.n_rows, 1, f64::INFINITY);
        for p in &self.parts {
            let part_min = p.table.row_min();
            let assign = p.indicator.assignment(p.table.rows());
            for (a, &src) in acc.as_mut_slice().iter_mut().zip(&assign) {
                *a = a.min(part_min.get(src, 0));
            }
        }
        acc
    }

    fn row_sums_raw(&self) -> DenseMatrix {
        let mut acc = DenseMatrix::zeros(self.n_rows, 1);
        let n = self.n_rows;
        for p in &self.parts {
            p.indicator
                .apply_add_into(&p.table.row_sums(), acc.as_mut_slice(), n);
        }
        acc
    }

    fn col_sums_raw(&self) -> DenseMatrix {
        let blocks: Vec<DenseMatrix> = self
            .parts
            .iter()
            .map(|p| match &p.indicator {
                Indicator::Identity => p.table.col_sums(),
                // colSums(K) * B — a 1 x n_B vector times the base table.
                Indicator::Rows(k) => p.table.dense_matmul(&k.col_sums()),
            })
            .collect();
        let refs: Vec<&DenseMatrix> = blocks.iter().collect();
        DenseMatrix::hstack_all(&refs)
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_fixtures::*;
    use morpheus_dense::ScalarOp;

    #[test]
    fn row_sums_match_materialized() {
        for tn in [figure2(), star2(), mn(), sparse_pkfk()] {
            let f = tn.row_sums();
            let m = tn.materialize().row_sums();
            assert!(f.approx_eq(&m, 1e-12));
        }
    }

    #[test]
    fn col_sums_match_materialized() {
        for tn in [figure2(), star2(), mn(), sparse_pkfk()] {
            let f = tn.col_sums();
            let m = tn.materialize().col_sums();
            assert!(f.approx_eq(&m, 1e-12));
        }
    }

    #[test]
    fn sum_matches_materialized() {
        for tn in [figure2(), star2(), mn(), sparse_pkfk()] {
            let f = tn.sum();
            let m = tn.materialize().sum();
            assert!((f - m).abs() <= 1e-9 * m.abs().max(1.0));
        }
    }

    #[test]
    fn transposed_aggregations_follow_appendix_a() {
        for tn in [figure2(), star2(), mn()] {
            let tt = tn.transpose();
            let mt = tt.materialize();
            assert!(tt.row_sums().approx_eq(&mt.row_sums(), 1e-12));
            assert!(tt.col_sums().approx_eq(&mt.col_sums(), 1e-12));
            assert!((tt.sum() - tn.sum()).abs() < 1e-9);
        }
    }

    #[test]
    fn row_min_matches_materialized() {
        for tn in [figure2(), star2(), mn(), sparse_pkfk()] {
            let f = tn.row_min();
            let m = tn.materialize().row_min();
            assert!(f.approx_eq(&m, 1e-12), "rowMin mismatch");
        }
        // Transposed fallback.
        let tt = figure2().transpose();
        assert!(tt.row_min().approx_eq(&tt.materialize().row_min(), 1e-12));
    }

    #[test]
    fn aggregation_composes_with_scalar_ops() {
        // rowSums(T^2): the K-Means pre-computation (Algorithm 7, step 1).
        let tn = figure2();
        let f = tn.apply(ScalarOp::Pow(2.0)).row_sums();
        let m = tn.materialize().apply(ScalarOp::Pow(2.0)).row_sums();
        assert!(f.approx_eq(&m, 1e-12));
    }
}
