//! Non-factorizable element-wise matrix operators (§3.3.7).
//!
//! `T ⊙ X` for a regular matrix `X` of the same shape has no join-induced
//! redundancy to exploit — the paper's counter-example fills `X` with unique
//! entries so that every output entry is distinct. There is therefore no
//! rewrite here: the operator runs on the materialized `T`
//! (`t.materialize().to_dense().add(&x)`), and [`crate::PlannedMatrix`] routes it
//! through `elementwise_fallback`, which only decides whether that join is
//! memoized. It exists so that the operator set stays total (any LA script
//! keeps running), which is part of the closure story even though no
//! speedup is possible.

#[cfg(test)]
mod tests {
    use super::super::test_fixtures::*;
    use crate::{Matrix, NormalizedMatrix, PlannedMatrix, Strategy};
    use morpheus_dense::DenseMatrix;

    /// `f` run through the planner's §3.3.7 fallback, on either route,
    /// equals `f` on the materialized `T`.
    fn assert_routes_match(tn: &NormalizedMatrix, f: impl Fn(&DenseMatrix) -> DenseMatrix) {
        let f = |t: &Matrix| f(&t.to_dense());
        let expected = f(&tn.materialize());
        for strategy in [Strategy::AlwaysFactorize, Strategy::AlwaysMaterialize] {
            let planned = PlannedMatrix::with_strategy(tn.clone(), strategy);
            assert!(planned.elementwise_fallback(f).approx_eq(&expected, 1e-12));
        }
    }

    #[test]
    fn elementwise_ops_match_materialized() {
        let tn = figure2();
        let (n, d) = tn.shape();
        // X with all-unique entries: the paper's no-redundancy witness.
        let x = DenseMatrix::from_fn(n, d, |i, j| ((i * d + j) * (n * d)) as f64);
        assert_routes_match(&tn, |t| t.add(&x));
        assert_routes_match(&tn, |t| t.sub(&x));
        assert_routes_match(&tn, |t| t.mul_elem(&x));
        let ones = DenseMatrix::ones(n, d);
        let t = tn.materialize().to_dense();
        assert!(t.div_elem(&ones).approx_eq(&t, 1e-12));
        assert_routes_match(&tn, |t| t.div_elem(&ones));
    }

    #[test]
    fn transposed_elementwise_ops() {
        let tn = figure2().transpose();
        let (n, d) = tn.shape();
        let x = DenseMatrix::from_fn(n, d, |i, j| (i + j) as f64);
        assert_routes_match(&tn, |t| t.add(&x));
    }
}
