//! The trained models the service knows how to score.

use morpheus_core::LinearOperand;
use morpheus_dense::DenseMatrix;

/// A fitted model loaded into the service once, at startup.
///
/// Both variants carry a `d x 1` weight vector fitted by the trainers in
/// `morpheus-ml`; scoring routes through the allocation-free
/// `predict_into` entry points so the hot path reuses one output buffer
/// per scorer thread.
#[derive(Debug, Clone)]
pub enum ScoringModel {
    /// Linear regression: responses `T w`.
    Linear(DenseMatrix),
    /// Logistic regression: class probabilities `σ(T w)`.
    Logistic(DenseMatrix),
}

impl ScoringModel {
    /// The model's weight vector.
    pub fn weights(&self) -> &DenseMatrix {
        match self {
            ScoringModel::Linear(w) | ScoringModel::Logistic(w) => w,
        }
    }

    /// Turns linear margins `T w` into this model's scores, in place — the
    /// step [`ScoringModel::score_into`] applies after its product.
    pub(crate) fn link(&self, margins: &mut [f64]) {
        match self {
            ScoringModel::Linear(_) => {}
            ScoringModel::Logistic(_) => morpheus_ml::logreg::sigmoid_in_place(margins),
        }
    }

    /// Scores `t` into `out` (one value per row of `t`). Bit-identical
    /// regardless of which rows accompany a given row in `t` — the
    /// invariant that lets the service coalesce requests freely.
    pub fn score_into<M: LinearOperand>(&self, t: &M, out: &mut [f64]) {
        match self {
            ScoringModel::Linear(w) => morpheus_ml::linreg::predict_into(t, w, out),
            ScoringModel::Logistic(w) => morpheus_ml::logreg::predict_proba_into(t, w, out),
        }
    }
}
