//! Element-wise scalar operators and scalar functions (§3.3.1, §3.5, App. A/D/E).
//!
//! Rewrite rules (PK-FK form; the star-schema and M:N forms apply the same
//! map to every base table):
//!
//! ```text
//! T ⊘ x → (S ⊘ x, K, R ⊘ x)        x ⊘ T → (x ⊘ S, K, x ⊘ R)
//! f(T)  → (f(S), K, f(R))
//! ```
//!
//! These are valid because every indicator row holds a single `1`, so
//! `K f(R) = f(K R)` entry-wise — a key column cannot express anything else.
//! The output is again a normalized matrix, which lets downstream operators
//! keep exploiting the factorized form (the paper's closure property).
//! Transposed inputs use appendix A: `Tᵀ ⊘ x → (T ⊘ x)ᵀ`, i.e. the flag is
//! simply carried through.
//!
//! The rule holds for every `f`, so there is one entry point,
//! [`NormalizedMatrix::apply`], taking the operator as a [`ScalarOp`]
//! value. Each base table applies it under [`Matrix::apply`]'s sparsity
//! rule (a sparse table stays sparse exactly when `f(0)` is `±0`), so the
//! factorized result equals the materialized one entry by entry, NaN and
//! `±inf` cells of `T / 0` or `T * inf` included.

use super::NormalizedMatrix;
use crate::Matrix;
use morpheus_dense::ScalarOp;

impl NormalizedMatrix {
    /// The same structure over the base tables `f(Bᵢ)`, in part order.
    fn map_tables(&self, mut f: impl FnMut(&Matrix) -> Matrix) -> NormalizedMatrix {
        let parts = self
            .parts
            .iter()
            .map(|p| super::AttributePart {
                indicator: p.indicator.clone(),
                table: f(&p.table),
            })
            .collect();
        NormalizedMatrix {
            parts,
            n_rows: self.n_rows,
            transposed: self.transposed,
        }
    }

    /// `f(T)` for a scalar operator (or `f(T)ᵀ` under the transpose
    /// flag): `f` applied to every base table.
    pub fn apply(&self, op: ScalarOp) -> NormalizedMatrix {
        self.map_tables(|t| t.apply(op))
    }

    /// `f(T)` for an arbitrary scalar function.
    pub fn map(&self, f: impl Fn(f64) -> f64 + Copy) -> NormalizedMatrix {
        self.map_tables(|t| t.map(f))
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_fixtures::*;
    use crate::Matrix;
    use morpheus_dense::ScalarOp::{self, *};

    /// Factorized `f(T)` equals `f` applied to the materialized `T`, both
    /// as materialization stores it and as a dense matrix, for each op.
    fn assert_factorized_matches(ops: &[ScalarOp]) {
        for tn in [figure2(), star2(), mn(), sparse_pkfk()] {
            let t = tn.materialize();
            for &op in ops {
                let f = tn.apply(op).materialize().to_dense();
                for m in [t.clone(), Matrix::Dense(t.to_dense())] {
                    assert!(
                        same_values(&f, &m.apply(op).to_dense()),
                        "factorized/materialized mismatch for {op:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn add_matches() {
        assert_factorized_matches(&[Add(2.5)]);
    }

    #[test]
    fn sub_matches() {
        assert_factorized_matches(&[Sub(1.5)]);
    }

    #[test]
    fn rsub_matches() {
        assert_factorized_matches(&[RSub(3.0)]);
    }

    #[test]
    fn mul_matches() {
        // `* inf` turns the implicit zeros of sparse tables into NaN.
        assert_factorized_matches(&[Mul(3.0), Mul(f64::INFINITY)]);
    }

    #[test]
    fn div_matches() {
        // `/ 0` turns the implicit zeros of sparse tables into NaN.
        assert_factorized_matches(&[Div(4.0), Div(0.0)]);
    }

    #[test]
    fn pow_matches() {
        assert_factorized_matches(&[Pow(2.0)]);
    }

    #[test]
    fn exp_matches() {
        assert_factorized_matches(&[Exp]);
    }

    #[test]
    fn rdiv_matches_on_nonzero_data() {
        // x / T produces infinities on zero entries; use the all-nonzero fixture.
        let tn = figure2();
        let f = tn.apply(RDiv(2.0)).materialize().to_dense();
        let m = tn.materialize().apply(RDiv(2.0)).to_dense();
        assert!(f.approx_eq(&m, 1e-12));
    }

    #[test]
    fn output_is_still_normalized() {
        let tn = figure2();
        let out = tn.apply(Mul(2.0));
        assert_eq!(out.parts().len(), 2);
        assert_eq!(out.shape(), tn.shape());
    }

    #[test]
    fn transposed_scalar_op_carries_flag() {
        let tn = figure2().transpose();
        let out = tn.apply(Add(1.0));
        assert!(out.is_transposed());
        let expected = tn.materialize().apply(Add(1.0)).to_dense();
        assert!(out.materialize().to_dense().approx_eq(&expected, 1e-12));
    }

    #[test]
    fn map_with_custom_function() {
        let tn = figure2();
        let f = tn.map(|v| v.sin()).materialize().to_dense();
        let m = tn.materialize().map(|v| v.sin()).to_dense();
        assert!(f.approx_eq(&m, 1e-12));
    }

    #[test]
    fn chained_scalar_ops_stay_factorized() {
        // (2T + 1)^2 entirely in normalized land.
        let tn = figure2();
        let chain = [Mul(2.0), Add(1.0), Pow(2.0)];
        let chained = chain.iter().fold(tn.clone(), |t, &op| t.apply(op));
        let expected = chain.iter().fold(tn.materialize(), |m, &op| m.apply(op));
        assert!(chained
            .materialize()
            .to_dense()
            .approx_eq(&expected.to_dense(), 1e-12));
    }
}
