//! Non-factorizable element-wise matrix operators (§3.3.7).
//!
//! `T ⊙ X` for a regular matrix `X` of the same shape has no join-induced
//! redundancy to exploit — the paper's counter-example fills `X` with unique
//! entries so that every output entry is distinct. These operators therefore
//! *materialize* the normalized matrix first; they exist so that the
//! operator set stays total (any LA script keeps running), which is part of
//! the closure story even though no speedup is possible.

use super::{Indicator, NormalizedMatrix};
use crate::Matrix;

impl NormalizedMatrix {
    /// `true` when `self` and `other` share the exact same join structure:
    /// equal transpose flags, equal part counts, and *identical* indicator
    /// matrices (checked by `Arc` pointer first, then structurally).
    ///
    /// Two normalized matrices derived from the same joins — e.g. `T` and
    /// `f(T)` for scalar `f`, or two feature transformations of one schema
    /// — always share structure.
    pub fn same_structure(&self, other: &NormalizedMatrix) -> bool {
        if self.transposed != other.transposed
            || self.n_rows != other.n_rows
            || self.parts.len() != other.parts.len()
        {
            return false;
        }
        self.parts.iter().zip(&other.parts).all(|(a, b)| {
            a.table.shape() == b.table.shape()
                && match (&a.indicator, &b.indicator) {
                    (Indicator::Identity, Indicator::Identity) => true,
                    (Indicator::Rows(ka), Indicator::Rows(kb)) => {
                        std::sync::Arc::ptr_eq(ka, kb) || ka == kb
                    }
                    _ => false,
                }
        })
    }

    /// Element-wise combination of two **structure-sharing** normalized
    /// matrices that stays factorized — an extension beyond §3.3.7.
    ///
    /// The paper marks `T ⊙ X` non-factorizable for *arbitrary* `X`, but
    /// when `X` is itself normalized over the same indicators, linearity
    /// gives `[S_A, K R_A] + [S_B, K R_B] = [S_A + S_B, K (R_A + R_B)]`
    /// (and similarly for `-`, and for `*`/`/` because one-hot indicators
    /// replicate rows verbatim). Returns `None` when the structures differ
    /// — callers then fall back to the materializing operators.
    pub fn try_elementwise(
        &self,
        other: &NormalizedMatrix,
        op: impl Fn(&Matrix, &Matrix) -> Matrix,
    ) -> Option<NormalizedMatrix> {
        let mut others = other.parts.iter().map(|p| &p.table);
        let combine = |a: &Matrix| op(a, others.next().expect("same part count"));
        self.same_structure(other).then(|| self.map_tables(combine))
    }

    /// Factorized `T + U` for structure-sharing normalized `U`.
    pub fn try_add_normalized(&self, other: &NormalizedMatrix) -> Option<NormalizedMatrix> {
        self.try_elementwise(other, |a, b| a.add(b))
    }

    /// Factorized `T - U` for structure-sharing normalized `U`.
    pub fn try_sub_normalized(&self, other: &NormalizedMatrix) -> Option<NormalizedMatrix> {
        self.try_elementwise(other, |a, b| a.sub(b))
    }

    /// Factorized Hadamard `T * U` for structure-sharing normalized `U`.
    pub fn try_mul_normalized(&self, other: &NormalizedMatrix) -> Option<NormalizedMatrix> {
        self.try_elementwise(other, |a, b| a.mul_elem(b))
    }
    /// `T + X` — non-factorizable; materializes (§3.3.7).
    ///
    /// # Panics
    /// Panics if shapes differ.
    pub fn add_matrix(&self, x: &Matrix) -> Matrix {
        self.materialize().add(x)
    }

    /// `T - X` — non-factorizable; materializes.
    ///
    /// # Panics
    /// Panics if shapes differ.
    pub fn sub_matrix(&self, x: &Matrix) -> Matrix {
        self.materialize().sub(x)
    }

    /// `T * X` element-wise — non-factorizable; materializes.
    ///
    /// # Panics
    /// Panics if shapes differ.
    pub fn mul_elem_matrix(&self, x: &Matrix) -> Matrix {
        self.materialize().mul_elem(x)
    }

    /// `T / X` element-wise — non-factorizable; materializes.
    ///
    /// # Panics
    /// Panics if shapes differ.
    pub fn div_elem_matrix(&self, x: &Matrix) -> Matrix {
        self.materialize().div_elem(x)
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_fixtures::*;
    use crate::Matrix;
    use morpheus_dense::DenseMatrix;

    #[test]
    fn elementwise_ops_match_materialized() {
        let tn = figure2();
        let (n, d) = tn.shape();
        // X with all-unique entries: the paper's no-redundancy witness.
        let x = Matrix::Dense(DenseMatrix::from_fn(n, d, |i, j| {
            ((i * d + j) * (n * d)) as f64
        }));
        let t = tn.materialize();
        assert!(tn.add_matrix(&x).approx_eq(&t.add(&x), 1e-12));
        assert!(tn.sub_matrix(&x).approx_eq(&t.sub(&x), 1e-12));
        assert!(tn.mul_elem_matrix(&x).approx_eq(&t.mul_elem(&x), 1e-12));
        let ones = Matrix::Dense(DenseMatrix::ones(n, d));
        assert!(tn.div_elem_matrix(&ones).approx_eq(&t, 1e-12));
    }

    #[test]
    fn transposed_elementwise_ops() {
        let tn = figure2().transpose();
        let (n, d) = tn.shape();
        let x = Matrix::Dense(DenseMatrix::from_fn(n, d, |i, j| (i + j) as f64));
        let t = tn.materialize();
        assert!(tn.add_matrix(&x).approx_eq(&t.add(&x), 1e-12));
    }

    #[test]
    fn structure_sharing_detection() {
        let tn = figure2();
        // Scalar ops preserve structure (indicators are shared Arcs).
        let scaled = tn.scalar_mul(2.0);
        assert!(tn.same_structure(&scaled));
        // A different join does not share structure.
        let other = mn();
        assert!(!tn.same_structure(&other));
        // Nor does the transpose.
        assert!(!tn.same_structure(&tn.transpose()));
    }

    #[test]
    fn factorized_elementwise_between_shared_structures() {
        let tn = figure2();
        let doubled = tn.scalar_mul(2.0);
        // T + 2T = 3T, computed without materializing.
        let sum = tn.try_add_normalized(&doubled).expect("same structure");
        assert!(sum
            .materialize()
            .approx_eq(&tn.materialize().scalar_mul(3.0), 1e-12));
        // 2T - T = T.
        let diff = doubled.try_sub_normalized(&tn).expect("same structure");
        assert!(diff.materialize().approx_eq(&tn.materialize(), 1e-12));
        // T * 2T = 2T² element-wise (one-hot indicators replicate rows).
        let prod = tn.try_mul_normalized(&doubled).expect("same structure");
        let expected = tn.materialize().scalar_pow(2.0).scalar_mul(2.0);
        assert!(prod.materialize().approx_eq(&expected, 1e-12));
    }

    #[test]
    fn mismatched_structures_return_none() {
        let tn = figure2();
        assert!(tn.try_add_normalized(&mn()).is_none());
        assert!(tn.try_add_normalized(&tn.transpose()).is_none());
    }

    #[test]
    fn structural_equality_survives_reconstruction() {
        // Same fk column built twice: different Arcs, equal structure.
        let a = figure2();
        let b = figure2();
        assert!(a.same_structure(&b));
        assert!(a.try_add_normalized(&b).is_some());
    }
}
