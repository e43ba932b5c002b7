//! Logistic regression via gradient descent (paper Algorithms 3 & 4).
//!
//! The standard LA script is
//!
//! ```text
//! for i in 1 : max_iter do
//!     w = w + α * (Tᵀ (Y / (1 + exp(Y ∘ T w))))
//! end
//! ```
//!
//! with labels `Y ∈ {−1, +1}ⁿ` — the gradient-ascent update on the
//! logistic log-likelihood from Kumar et al. (SIGMOD'15), which the paper's
//! Algorithm 3 abbreviates as `Y/(1 + exp(T w))`. The element-wise label
//! product only touches `n x 1` vectors, so the factorized operator
//! pattern is identical. Written against [`LinearOperand`], the two
//! data-intensive operators — the LMM `T w` and the transposed LMM
//! `Tᵀ P` — factorize automatically on normalized input, reproducing the
//! paper's Algorithm 4 without any algorithm-specific rewriting.

use morpheus_core::LinearOperand;
use morpheus_dense::{DenseMatrix, ScalarOp};

/// Gradient-descent logistic regression, following the paper's script.
#[derive(Debug, Clone)]
pub struct LogisticRegressionGd {
    /// Step size `α`.
    pub alpha: f64,
    /// Number of gradient iterations.
    pub max_iter: usize,
}

impl Default for LogisticRegressionGd {
    fn default() -> Self {
        Self {
            alpha: 1e-3,
            max_iter: 20,
        }
    }
}

/// A fitted logistic-regression model.
#[derive(Debug, Clone)]
pub struct LogisticModel {
    /// Weight vector `w` (`d x 1`).
    pub w: DenseMatrix,
    /// Negative log-likelihood after each iteration; empty unless trained
    /// with [`LogisticRegressionGd::fit_traced`].
    pub loss_trace: Vec<f64>,
}

/// Fused element-wise gradient scaling `P = Y / (1 + exp(Y ∘ m))`, one pass
/// over the margins `m = T w`. Overwrites `m` in place — the single
/// intermediate the update needs, matching what R's vectorized expression
/// would allocate after constant folding.
fn logistic_scale_in_place(margins: &mut DenseMatrix, y: &DenseMatrix) {
    for (pv, &yv) in margins.as_mut_slice().iter_mut().zip(y.as_slice()) {
        *pv = yv / (1.0 + (yv * *pv).exp());
    }
}

impl LogisticRegressionGd {
    /// Creates a trainer with the given step size and iteration count.
    pub fn new(alpha: f64, max_iter: usize) -> Self {
        Self { alpha, max_iter }
    }

    /// Trains on any [`LinearOperand`] data matrix with labels
    /// `y ∈ {−1, +1}` (`n x 1`), starting from the zero vector. No loss
    /// trace is recorded (see [`LogisticRegressionGd::fit_traced`]).
    ///
    /// # Panics
    /// Panics if `y` is not `n x 1`.
    pub fn fit<M: LinearOperand>(&self, t: &M, y: &DenseMatrix) -> LogisticModel {
        let w0 = DenseMatrix::zeros(t.ncols(), 1);
        self.fit_impl(t, y, &w0, false)
    }

    /// Like [`LogisticRegressionGd::fit`], but records the negative
    /// log-likelihood after every iteration (one extra O(n) pass per
    /// iteration).
    pub fn fit_traced<M: LinearOperand>(&self, t: &M, y: &DenseMatrix) -> LogisticModel {
        let w0 = DenseMatrix::zeros(t.ncols(), 1);
        self.fit_impl(t, y, &w0, true)
    }

    /// Trains from an explicit initial weight vector.
    ///
    /// # Panics
    /// Panics if shapes disagree.
    pub fn fit_from<M: LinearOperand>(
        &self,
        t: &M,
        y: &DenseMatrix,
        w0: &DenseMatrix,
    ) -> LogisticModel {
        self.fit_impl(t, y, w0, false)
    }

    fn fit_impl<M: LinearOperand>(
        &self,
        t: &M,
        y: &DenseMatrix,
        w0: &DenseMatrix,
        traced: bool,
    ) -> LogisticModel {
        assert_eq!(y.shape(), (t.nrows(), 1), "logreg: y must be n x 1");
        assert_eq!(w0.shape(), (t.ncols(), 1), "logreg: w0 must be d x 1");
        let mut w = w0.clone();
        let mut loss_trace = Vec::new();
        for _ in 0..self.max_iter {
            let mut tw = t.lmm(&w); // T w — factorized LMM on normalized input
            if traced {
                loss_trace.push(crate::metrics::logistic_loss(&tw, y));
            }
            // P = Y / (1 + exp(Y ∘ T w)), fused into one pass over T w.
            logistic_scale_in_place(&mut tw, y);
            let grad = t.t_lmm(&tw); // Tᵀ P — factorized transposed LMM
            w.axpy(self.alpha, &grad);
        }
        LogisticModel { w, loss_trace }
    }

    /// Per-iteration body only (used by the ORE-style chunked benchmarks
    /// that time a single iteration).
    pub fn step<M: LinearOperand>(&self, t: &M, y: &DenseMatrix, w: &mut DenseMatrix) {
        let mut tw = t.lmm(w);
        logistic_scale_in_place(&mut tw, y);
        let grad = t.t_lmm(&tw);
        w.axpy(self.alpha, &grad);
    }
}

/// Predicts class probabilities `σ(T w)` for a fitted model.
pub fn predict_proba<M: LinearOperand>(t: &M, w: &DenseMatrix) -> DenseMatrix {
    t.lmm(w).apply(ScalarOp::Sigmoid)
}

/// Like [`predict_proba`], but written into a caller-provided buffer of
/// `t.nrows()` slots so a scoring hot path can reuse one allocation per
/// batch. Bit-identical to [`predict_proba`]: the margin comes from
/// [`LinearOperand::lmm_into`] (itself bit-identical to `lmm`) and
/// [`sigmoid_in_place`] runs the kernel of `DenseMatrix::apply(ScalarOp::Sigmoid)`.
///
/// # Panics
/// Panics if `w` is not `d x 1` or `out.len() != t.nrows()`.
pub fn predict_proba_into<M: LinearOperand>(t: &M, w: &DenseMatrix, out: &mut [f64]) {
    assert_eq!(w.cols(), 1, "predict_proba_into: w must be d x 1");
    t.lmm_into(w, out);
    sigmoid_in_place(out);
}

/// The logistic link over a slice of margins, in place — the kernel
/// `DenseMatrix::apply(ScalarOp::Sigmoid)` runs, for callers that already
/// hold `T w`.
pub fn sigmoid_in_place(margins: &mut [f64]) {
    ScalarOp::Sigmoid.apply_in_place(margins);
}

impl LogisticModel {
    /// Class probabilities `σ(T w)` on new data.
    pub fn predict_proba<M: LinearOperand>(&self, t: &M) -> DenseMatrix {
        predict_proba(t, &self.w)
    }

    /// Allocation-free variant of [`LogisticModel::predict_proba`]; see
    /// [`predict_proba_into`].
    pub fn predict_proba_into<M: LinearOperand>(&self, t: &M, out: &mut [f64]) {
        predict_proba_into(t, &self.w, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_data::pkfk;

    fn binarize(y: &DenseMatrix) -> DenseMatrix {
        y.map(|v| if v >= 0.0 { 1.0 } else { -1.0 })
    }

    #[test]
    fn factorized_matches_materialized_trajectory() {
        let fx = pkfk(60, 3, 8, 4, 7);
        let y = binarize(&fx.y);
        let trainer = LogisticRegressionGd::new(1e-2, 15);
        let fact = trainer.fit_traced(&fx.tn, &y);
        let mat = trainer.fit_traced(&fx.t, &y);
        assert!(
            fact.w.approx_eq(&mat.w, 1e-9),
            "weight vectors diverged between factorized and materialized"
        );
        for (a, b) in fact.loss_trace.iter().zip(&mat.loss_trace) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn planned_routing_matches_pure_trajectories() {
        let fx = pkfk(60, 3, 8, 4, 7);
        let y = binarize(&fx.y);
        let trainer = LogisticRegressionGd::new(1e-2, 15);
        let planned = trainer.fit_traced(&crate::test_data::planned(&fx.tn), &y);
        let mat = trainer.fit_traced(&fx.t, &y);
        assert!(planned.w.approx_eq(&mat.w, 1e-9));
        for (a, b) in planned.loss_trace.iter().zip(&mat.loss_trace) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn loss_decreases() {
        let fx = pkfk(80, 3, 10, 3, 11);
        let y = binarize(&fx.y);
        let m = LogisticRegressionGd::new(5e-3, 25).fit_traced(&fx.tn, &y);
        let first = m.loss_trace.first().unwrap();
        let last = m.loss_trace.last().unwrap();
        assert!(last < first, "loss did not decrease: {first} -> {last}");
    }

    #[test]
    fn learns_separable_data() {
        let fx = pkfk(120, 4, 6, 2, 3);
        let y = binarize(&fx.y);
        let m = LogisticRegressionGd::new(1e-2, 300).fit(&fx.tn, &y);
        let proba = predict_proba(&fx.tn, &m.w);
        // The planted labels are separable but many points sit very close
        // to the hyperplane; finite-iteration GD classifies the clear
        // majority correctly.
        let acc = crate::metrics::accuracy(&proba, &y);
        assert!(acc > 0.8, "accuracy too low: {acc}");
        // On the comfortably-separated examples (|margin| > 0.2) accuracy
        // must be essentially perfect.
        let (mut hits, mut total) = (0usize, 0usize);
        for i in 0..y.rows() {
            if fx.y.get(i, 0).abs() > 0.2 {
                total += 1;
                if (proba.get(i, 0) >= 0.5) == (y.get(i, 0) > 0.0) {
                    hits += 1;
                }
            }
        }
        assert!(total > 20, "fixture produced too few clear examples");
        assert!(
            hits as f64 / total as f64 > 0.95,
            "clear-margin accuracy too low: {hits}/{total}"
        );
    }

    #[test]
    fn step_matches_one_iteration_of_fit() {
        let fx = pkfk(30, 2, 5, 2, 5);
        let y = binarize(&fx.y);
        let trainer = LogisticRegressionGd::new(1e-2, 1);
        let fitted = trainer.fit(&fx.tn, &y);
        let mut w = DenseMatrix::zeros(fx.tn.cols(), 1);
        trainer.step(&fx.tn, &y, &mut w);
        assert!(w.approx_eq(&fitted.w, 1e-12));
    }

    #[test]
    #[should_panic(expected = "y must be n x 1")]
    fn wrong_label_shape_panics() {
        let fx = pkfk(10, 2, 2, 2, 1);
        LogisticRegressionGd::default().fit(&fx.tn, &DenseMatrix::zeros(3, 1));
    }

    #[test]
    fn predict_proba_into_is_bit_identical_to_predict_proba() {
        let fx = pkfk(40, 3, 6, 3, 19);
        let y = binarize(&fx.y);
        let model = LogisticRegressionGd::new(1e-2, 10).fit(&fx.tn, &y);
        let planned = crate::test_data::planned(&fx.tn);
        let mut buf = vec![f64::NAN; fx.t.rows()];
        let check = |alloc: DenseMatrix, run: &[f64]| {
            for (a, b) in alloc.as_slice().iter().zip(run) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        };
        model.predict_proba_into(&fx.tn, &mut buf);
        check(model.predict_proba(&fx.tn), &buf);
        model.predict_proba_into(&fx.t, &mut buf);
        check(model.predict_proba(&fx.t), &buf);
        model.predict_proba_into(&planned, &mut buf);
        check(model.predict_proba(&planned), &buf);
        // Micro-batch slices reproduce the full pass bit for bit.
        let rows = [7usize, 7, 0, 33];
        let (slice, _) = fx.batch(&rows);
        let mut small = vec![0.0; rows.len()];
        model.predict_proba_into(&slice, &mut small);
        let full = model.predict_proba(&fx.tn);
        for (j, &r) in rows.iter().enumerate() {
            assert_eq!(small[j].to_bits(), full.get(r, 0).to_bits());
        }
    }
}
