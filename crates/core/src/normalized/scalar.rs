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

use super::NormalizedMatrix;
use crate::Matrix;

impl NormalizedMatrix {
    /// The same structure over the base tables `f(Bᵢ)`, in part order.
    pub(crate) fn map_tables(&self, mut f: impl FnMut(&Matrix) -> Matrix) -> NormalizedMatrix {
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

    /// `T + x` (or `(T + x)ᵀ` under the transpose flag).
    pub fn scalar_add(&self, x: f64) -> NormalizedMatrix {
        self.map_tables(|t| t.scalar_add(x))
    }

    /// `T - x`.
    pub fn scalar_sub(&self, x: f64) -> NormalizedMatrix {
        self.map_tables(|t| t.scalar_sub(x))
    }

    /// `x - T`.
    pub fn scalar_rsub(&self, x: f64) -> NormalizedMatrix {
        self.map_tables(|t| t.scalar_rsub(x))
    }

    /// `T * x`.
    pub fn scalar_mul(&self, x: f64) -> NormalizedMatrix {
        self.map_tables(|t| t.scalar_mul(x))
    }

    /// `T / x`.
    pub fn scalar_div(&self, x: f64) -> NormalizedMatrix {
        self.map_tables(|t| t.scalar_div(x))
    }

    /// `x / T`.
    pub fn scalar_rdiv(&self, x: f64) -> NormalizedMatrix {
        self.map_tables(|t| t.scalar_rdiv(x))
    }

    /// `T ^ x` element-wise.
    pub fn scalar_pow(&self, x: f64) -> NormalizedMatrix {
        self.map_tables(|t| t.scalar_pow(x))
    }

    /// `f(T)` for an arbitrary scalar function.
    pub fn map(&self, f: impl Fn(f64) -> f64 + Copy) -> NormalizedMatrix {
        self.map_tables(|t| t.map(f))
    }

    /// `exp(T)`.
    pub fn exp(&self) -> NormalizedMatrix {
        self.map(f64::exp)
    }

    /// `log(T)`.
    pub fn ln(&self) -> NormalizedMatrix {
        self.map(f64::ln)
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_fixtures::*;

    /// Each factorized scalar op must equal the materialized op applied to T.
    macro_rules! check_scalar_op {
        ($name:ident, $call:expr, $mat_call:expr) => {
            #[test]
            fn $name() {
                for tn in [figure2(), star2(), mn(), sparse_pkfk()] {
                    let f = $call(&tn).materialize().to_dense();
                    let m = $mat_call(&tn.materialize()).to_dense();
                    assert!(
                        f.approx_eq(&m, 1e-12),
                        "factorized/materialized mismatch in {}",
                        stringify!($name)
                    );
                }
            }
        };
    }

    check_scalar_op!(
        add_matches,
        |t: &crate::NormalizedMatrix| t.scalar_add(2.5),
        |m: &crate::Matrix| m.scalar_add(2.5)
    );
    check_scalar_op!(
        sub_matches,
        |t: &crate::NormalizedMatrix| t.scalar_sub(1.5),
        |m: &crate::Matrix| m.scalar_sub(1.5)
    );
    check_scalar_op!(
        rsub_matches,
        |t: &crate::NormalizedMatrix| t.scalar_rsub(3.0),
        |m: &crate::Matrix| m.scalar_rsub(3.0)
    );
    check_scalar_op!(
        mul_matches,
        |t: &crate::NormalizedMatrix| t.scalar_mul(3.0),
        |m: &crate::Matrix| m.scalar_mul(3.0)
    );
    check_scalar_op!(
        div_matches,
        |t: &crate::NormalizedMatrix| t.scalar_div(4.0),
        |m: &crate::Matrix| m.scalar_div(4.0)
    );
    check_scalar_op!(
        pow_matches,
        |t: &crate::NormalizedMatrix| t.scalar_pow(2.0),
        |m: &crate::Matrix| m.scalar_pow(2.0)
    );
    check_scalar_op!(
        exp_matches,
        |t: &crate::NormalizedMatrix| t.exp(),
        |m: &crate::Matrix| m.exp()
    );

    #[test]
    fn rdiv_matches_on_nonzero_data() {
        // x / T produces infinities on zero entries; use the all-nonzero fixture.
        let tn = figure2();
        let f = tn.scalar_rdiv(2.0).materialize().to_dense();
        let m = tn.materialize().scalar_rdiv(2.0).to_dense();
        assert!(f.approx_eq(&m, 1e-12));
    }

    #[test]
    fn output_is_still_normalized() {
        let tn = figure2();
        let out = tn.scalar_mul(2.0);
        assert_eq!(out.parts().len(), 2);
        assert_eq!(out.shape(), tn.shape());
    }

    #[test]
    fn transposed_scalar_op_carries_flag() {
        let tn = figure2().transpose();
        let out = tn.scalar_add(1.0);
        assert!(out.is_transposed());
        let expected = tn.materialize().scalar_add(1.0).to_dense();
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
        let chained = tn.scalar_mul(2.0).scalar_add(1.0).scalar_pow(2.0);
        let expected = tn
            .materialize()
            .scalar_mul(2.0)
            .scalar_add(1.0)
            .scalar_pow(2.0);
        assert!(chained
            .materialize()
            .to_dense()
            .approx_eq(&expected.to_dense(), 1e-12));
    }
}
