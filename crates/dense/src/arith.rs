//! Element-wise arithmetic: scalar ops, matrix-matrix ops, and scalar maps.
//!
//! These are the "Element-wise Scalar Op" and "Element-wise Matrix Op" rows of
//! Table 1 in the paper, implemented for regular dense matrices. A scalar op
//! is a [`ScalarOp`] value, so every layer above (sparse tables, normalized
//! matrices, the planner, the script language) applies the same function.

use crate::DenseMatrix;

/// One element-wise scalar operator `f`, the `f` of the paper's rewrite
/// `f(T) → (f(S), K, f(R))` (§3.3.1).
///
/// [`ScalarOp::apply`] is the one definition of each operator's value;
/// every matrix kind applies it. Equality and hashing compare the
/// operand's bit pattern, so `Mul(NaN) == Mul(NaN)` and
/// `Mul(0.0) != Mul(-0.0)`.
#[derive(Debug, Clone, Copy)]
pub enum ScalarOp {
    /// `t + c`.
    Add(f64),
    /// `t - c`.
    Sub(f64),
    /// `c - t`.
    RSub(f64),
    /// `t * c`.
    Mul(f64),
    /// `t / c`.
    Div(f64),
    /// `c / t`.
    RDiv(f64),
    /// `t ^ c`.
    Pow(f64),
    /// `c ^ t`.
    RPow(f64),
    /// `exp(t)`.
    Exp,
    /// `log(t)`, the natural logarithm.
    Ln,
    /// `1 / (1 + exp(-t))`, the logistic-regression link.
    Sigmoid,
}

impl ScalarOp {
    /// `f(x)` for one entry.
    #[inline]
    pub fn apply(self, x: f64) -> f64 {
        match self {
            ScalarOp::Add(c) => x + c,
            ScalarOp::Sub(c) => x - c,
            ScalarOp::RSub(c) => c - x,
            ScalarOp::Mul(c) => x * c,
            ScalarOp::Div(c) => x / c,
            ScalarOp::RDiv(c) => c / x,
            // One multiply is markedly faster than `powf` for the
            // ubiquitous square.
            ScalarOp::Pow(2.0) => x * x,
            ScalarOp::Pow(c) => x.powf(c),
            ScalarOp::RPow(c) => c.powf(x),
            ScalarOp::Exp => x.exp(),
            ScalarOp::Ln => x.ln(),
            ScalarOp::Sigmoid => 1.0 / (1.0 + (-x).exp()),
        }
    }

    /// Overwrites every entry of `xs` with `f(x)`, bit-identical to
    /// [`ScalarOp::apply`] per entry. The operator is matched once per
    /// call, not per entry, so each arm is its own straight loop.
    pub fn apply_in_place(self, xs: &mut [f64]) {
        fn each(xs: &mut [f64], f: impl Fn(f64) -> f64) {
            for v in xs {
                *v = f(*v);
            }
        }
        use ScalarOp::*;
        match self {
            Add(c) => each(xs, |x| Add(c).apply(x)),
            Sub(c) => each(xs, |x| Sub(c).apply(x)),
            RSub(c) => each(xs, |x| RSub(c).apply(x)),
            Mul(c) => each(xs, |x| Mul(c).apply(x)),
            Div(c) => each(xs, |x| Div(c).apply(x)),
            RDiv(c) => each(xs, |x| RDiv(c).apply(x)),
            // The square gets its own loop, so its multiply is not behind
            // a per-entry test of the exponent.
            Pow(2.0) => each(xs, |x| Pow(2.0).apply(x)),
            Pow(c) => each(xs, |x| Pow(c).apply(x)),
            RPow(c) => each(xs, |x| RPow(c).apply(x)),
            Exp => each(xs, |x| Exp.apply(x)),
            Ln => each(xs, |x| Ln.apply(x)),
            Sigmoid => each(xs, |x| Sigmoid.apply(x)),
        }
    }

    /// Variant tag and operand bits: the identity `Eq` and `Hash` use.
    fn key(self) -> (u8, u64) {
        match self {
            ScalarOp::Add(c) => (0, c.to_bits()),
            ScalarOp::Sub(c) => (1, c.to_bits()),
            ScalarOp::RSub(c) => (2, c.to_bits()),
            ScalarOp::Mul(c) => (3, c.to_bits()),
            ScalarOp::Div(c) => (4, c.to_bits()),
            ScalarOp::RDiv(c) => (5, c.to_bits()),
            ScalarOp::Pow(c) => (6, c.to_bits()),
            ScalarOp::RPow(c) => (7, c.to_bits()),
            ScalarOp::Exp => (8, 0),
            ScalarOp::Ln => (9, 0),
            ScalarOp::Sigmoid => (10, 0),
        }
    }
}

impl PartialEq for ScalarOp {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for ScalarOp {}

impl std::hash::Hash for ScalarOp {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.key().hash(state);
    }
}

impl DenseMatrix {
    /// `f(T)`: the scalar operator applied to every entry.
    pub fn apply(&self, op: ScalarOp) -> DenseMatrix {
        let mut out = self.clone();
        op.apply_in_place(out.as_mut_slice());
        out
    }

    /// Applies an arbitrary scalar function `f` to every entry (`f(T)`).
    pub fn map(&self, f: impl Fn(f64) -> f64) -> DenseMatrix {
        let mut out = self.clone();
        for v in out.as_mut_slice() {
            *v = f(*v);
        }
        out
    }

    /// In-place variant of [`DenseMatrix::map`].
    pub fn map_in_place(&mut self, f: impl Fn(f64) -> f64) {
        for v in self.as_mut_slice() {
            *v = f(*v);
        }
    }

    /// `f(T, X)` entry by entry, for a same-shape `X`: the element-wise
    /// matrix ⊘ matrix operators.
    ///
    /// # Panics
    /// Panics if the shapes differ.
    pub fn zip_map(&self, other: &DenseMatrix, f: impl Fn(f64, f64) -> f64) -> DenseMatrix {
        assert_eq!(
            self.shape(),
            other.shape(),
            "DenseMatrix::zip_map: shape mismatch"
        );
        let mut out = self.clone();
        for (v, &o) in out.as_mut_slice().iter_mut().zip(other.as_slice()) {
            *v = f(*v, o);
        }
        out
    }

    /// Element-wise sum `T + X`.
    ///
    /// # Panics
    /// Panics if the shapes differ.
    pub fn add(&self, other: &DenseMatrix) -> DenseMatrix {
        self.zip_map(other, |a, b| a + b)
    }

    /// Element-wise difference `T - X`.
    ///
    /// # Panics
    /// Panics if the shapes differ.
    pub fn sub(&self, other: &DenseMatrix) -> DenseMatrix {
        self.zip_map(other, |a, b| a - b)
    }

    /// Element-wise (Hadamard) product `T * X`.
    ///
    /// # Panics
    /// Panics if the shapes differ.
    pub fn mul_elem(&self, other: &DenseMatrix) -> DenseMatrix {
        self.zip_map(other, |a, b| a * b)
    }

    /// Element-wise quotient `T / X`.
    ///
    /// # Panics
    /// Panics if the shapes differ.
    pub fn div_elem(&self, other: &DenseMatrix) -> DenseMatrix {
        self.zip_map(other, |a, b| a / b)
    }

    /// In-place element-wise sum.
    ///
    /// # Panics
    /// Panics if the shapes differ.
    pub fn add_assign(&mut self, other: &DenseMatrix) {
        assert_eq!(self.shape(), other.shape(), "add_assign: shape mismatch");
        for (v, &o) in self.as_mut_slice().iter_mut().zip(other.as_slice()) {
            *v += o;
        }
    }

    /// In-place `self += alpha * other` (the BLAS `axpy` pattern).
    ///
    /// # Panics
    /// Panics if the shapes differ.
    pub fn axpy(&mut self, alpha: f64, other: &DenseMatrix) {
        assert_eq!(self.shape(), other.shape(), "axpy: shape mismatch");
        for (v, &o) in self.as_mut_slice().iter_mut().zip(other.as_slice()) {
            *v += alpha * o;
        }
    }

    /// In-place element-wise difference.
    ///
    /// # Panics
    /// Panics if the shapes differ.
    pub fn sub_assign(&mut self, other: &DenseMatrix) {
        assert_eq!(self.shape(), other.shape(), "sub_assign: shape mismatch");
        for (v, &o) in self.as_mut_slice().iter_mut().zip(other.as_slice()) {
            *v -= o;
        }
    }

    /// In-place scalar multiplication.
    pub fn scale_in_place(&mut self, x: f64) {
        for v in self.as_mut_slice() {
            *v *= x;
        }
    }

    /// Element-wise equality indicator: `1.0` where entries match within
    /// `tol`, else `0.0`. Used by K-Means for `D == rowMin(D)` assignment.
    ///
    /// # Panics
    /// Panics if the shapes differ.
    pub fn eq_indicator(&self, other: &DenseMatrix, tol: f64) -> DenseMatrix {
        self.zip_map(other, |v, o| if (v - o).abs() <= tol { 1.0 } else { 0.0 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DenseMatrix {
        DenseMatrix::from_rows(&[&[1.0, -2.0], &[3.0, 4.0]])
    }

    #[test]
    fn scalar_ops() {
        let m = sample();
        let apply = |op| m.apply(op);
        assert_eq!(apply(ScalarOp::Add(1.0)).as_slice(), &[2.0, -1.0, 4.0, 5.0]);
        assert_eq!(apply(ScalarOp::Sub(1.0)).as_slice(), &[0.0, -3.0, 2.0, 3.0]);
        assert_eq!(apply(ScalarOp::Mul(2.0)).as_slice(), &[2.0, -4.0, 6.0, 8.0]);
        assert_eq!(apply(ScalarOp::Div(2.0)).as_slice(), &[0.5, -1.0, 1.5, 2.0]);
        assert_eq!(
            apply(ScalarOp::RSub(0.0)).as_slice(),
            &[-1.0, 2.0, -3.0, -4.0]
        );
        assert_eq!(apply(ScalarOp::RDiv(12.0)).get(1, 0), 4.0);
        assert_eq!(
            apply(ScalarOp::RPow(2.0)).as_slice(),
            &[2.0, 0.25, 8.0, 16.0]
        );
        // An op's identity is its variant and operand bits.
        assert_eq!(ScalarOp::Mul(f64::NAN), ScalarOp::Mul(f64::NAN));
        assert_ne!(ScalarOp::Mul(0.0), ScalarOp::Mul(-0.0));
        assert_ne!(ScalarOp::Pow(2.0), ScalarOp::RPow(2.0));
        let set: std::collections::HashSet<_> = [ScalarOp::Exp, ScalarOp::Exp].into();
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn pow_and_square() {
        let m = sample();
        assert_eq!(
            m.apply(ScalarOp::Pow(2.0)).as_slice(),
            &[1.0, 4.0, 9.0, 16.0]
        );
        let cubed = m.apply(ScalarOp::Pow(3.0));
        assert!((cubed.get(1, 1) - 64.0).abs() < 1e-12);
    }

    #[test]
    fn scalar_functions() {
        let m = DenseMatrix::from_rows(&[&[0.0, 1.0]]);
        let e = m.apply(ScalarOp::Exp);
        assert!((e.get(0, 1) - std::f64::consts::E).abs() < 1e-12);
        assert!((e.apply(ScalarOp::Ln).get(0, 1) - 1.0).abs() < 1e-12);
        assert!((m.apply(ScalarOp::Sigmoid).get(0, 0) - 0.5).abs() < 1e-12);
        // The slice kernel and the per-entry value agree bit for bit.
        let mut xs = [0.5, -3.0, 7.25];
        ScalarOp::Sigmoid.apply_in_place(&mut xs);
        assert_eq!(xs[1].to_bits(), ScalarOp::Sigmoid.apply(-3.0).to_bits());
    }

    #[test]
    fn elementwise_ops() {
        let a = sample();
        let b = DenseMatrix::filled(2, 2, 2.0);
        assert_eq!(a.add(&b).as_slice(), &[3.0, 0.0, 5.0, 6.0]);
        assert_eq!(a.sub(&b).as_slice(), &[-1.0, -4.0, 1.0, 2.0]);
        assert_eq!(a.mul_elem(&b).as_slice(), &[2.0, -4.0, 6.0, 8.0]);
        assert_eq!(a.div_elem(&b).as_slice(), &[0.5, -1.0, 1.5, 2.0]);
    }

    #[test]
    fn in_place_ops() {
        let mut a = sample();
        let b = DenseMatrix::filled(2, 2, 1.0);
        a.add_assign(&b);
        assert_eq!(a.as_slice(), &[2.0, -1.0, 4.0, 5.0]);
        a.sub_assign(&b);
        a.axpy(2.0, &b);
        assert_eq!(a.as_slice(), &[3.0, 0.0, 5.0, 6.0]);
        a.scale_in_place(0.5);
        assert_eq!(a.as_slice(), &[1.5, 0.0, 2.5, 3.0]);
    }

    #[test]
    fn eq_indicator_matches_kmeans_usage() {
        let d = DenseMatrix::from_rows(&[&[1.0, 2.0], &[5.0, 3.0]]);
        let m = DenseMatrix::from_rows(&[&[1.0, 1.0], &[3.0, 3.0]]);
        let a = d.eq_indicator(&m, 1e-12);
        assert_eq!(a.as_slice(), &[1.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn add_shape_mismatch_panics() {
        sample().add(&DenseMatrix::zeros(3, 2));
    }
}
