//! A *pass*: the algorithm suite a training workload runs over one
//! operand, written once against [`LinearOperand`] so the planned,
//! materialized, always-factorized and chunked routes all run the same
//! code.

use crate::data::Dataset;
use crate::trace::in_span;
use morpheus_core::LinearOperand;
use morpheus_dense::DenseMatrix;
use morpheus_ml::gnmf::Gnmf;
use morpheus_ml::kmeans::KMeans;
use morpheus_ml::linreg::LinearRegressionNe;
use morpheus_ml::logreg::LogisticRegressionGd;

/// One algorithm of a pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Algo {
    /// `LogisticRegressionGd::new(1e-4, iters)` on the ±1 labels.
    LogReg(usize),
    /// `LinearRegressionNe::new()` on the numeric target.
    LinRegNe,
    /// `KMeans::new(k, iters)`.
    KMeans(usize, usize),
    /// `Gnmf::new(rank, iters)` on `T²` (element-wise).
    Gnmf(usize, usize),
}

impl Algo {
    /// Span name of the fit (`ml.*`).
    pub fn span_name(self) -> &'static str {
        match self {
            Algo::LogReg(_) => "ml.logreg",
            Algo::LinRegNe => "ml.linreg_ne",
            Algo::KMeans(..) => "ml.kmeans",
            Algo::Gnmf(..) => "ml.gnmf",
        }
    }
}

/// Everything a pass fitted — weights, centroids, factors — in pass order.
pub type Models = Vec<DenseMatrix>;

/// Runs `algos` in order on `t`, each fit inside its `ml.*` span.
pub fn run_pass<M: LinearOperand>(algos: &[Algo], t: &M, ds: &Dataset) -> Models {
    let mut out = Vec::new();
    for &algo in algos {
        in_span(algo.span_name(), || match algo {
            Algo::LogReg(iters) => {
                out.push(LogisticRegressionGd::new(1e-4, iters).fit(t, &ds.labels).w);
            }
            Algo::LinRegNe => out.push(LinearRegressionNe::new().fit(t, &ds.y)),
            Algo::KMeans(k, iters) => out.push(KMeans::new(k, iters).fit(t).centroids),
            Algo::Gnmf(rank, iters) => {
                // Multiplicative updates need non-negative data and the
                // generators draw from [-1, 1): on the signed table the
                // factors blow up to ~1e11 and no two routes agree. T² is
                // non-negative and a closure operator, so the fit stays
                // on whatever route `t` is on.
                let m = Gnmf::new(rank, iters).fit(&t.squared());
                out.push(m.w);
                out.push(m.h);
            }
        });
    }
    out
}

/// Whether two passes fitted the same models within `tol`
/// ([`DenseMatrix::approx_eq`]: relative above 1, absolute below).
pub fn models_agree(a: &Models, b: &Models, tol: f64) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.approx_eq(y, tol))
}

/// Whether two passes fitted bit-identical models.
pub fn models_bitwise_equal(a: &Models, b: &Models) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.shape() == y.shape()
                && x.as_slice()
                    .iter()
                    .zip(y.as_slice())
                    .all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

/// Largest absolute element-wise difference between two passes' models
/// (`NaN` counts as infinite).
pub fn model_delta(a: &Models, b: &Models) -> f64 {
    a.iter()
        .zip(b)
        .flat_map(|(x, y)| x.as_slice().iter().zip(y.as_slice()))
        .map(|(p, q)| {
            let d = (p - q).abs();
            if d.is_nan() {
                f64::INFINITY
            } else {
                d
            }
        })
        .fold(0.0, f64::max)
}
