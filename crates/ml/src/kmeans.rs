//! K-Means clustering in linear algebra (paper Algorithms 7 & 15).
//!
//! The LA formulation works on whole matrices — pairwise squared distances
//! via `rowSums(T²)`, `colSums(C²)` and the LMM `T C` — which is exactly
//! what makes it factorizable:
//!
//! ```text
//! D_T = rowSums(T²) 1_{1xk}
//! repeat:
//!     D = D_T + 1_{nx1} colSums(C²) − 2 T C
//!     A = (D == rowMin(D) 1_{1xk})
//!     C = (Tᵀ A) / (1_{dx1} colSums(A))
//! ```
//!
//! The `rowSums(T²)` pre-computation showcases operator *composition*:
//! `squared()` returns a normalized matrix, whose `row_sums()` then
//! factorizes too. Assignment ties are broken toward the lowest centroid
//! index (equivalent to the paper's `D == rowMin(D)` with deterministic
//! tie-breaking).

use morpheus_core::LinearOperand;
use morpheus_dense::{DenseMatrix, ScalarOp};

/// LA-formulated K-Means.
#[derive(Debug, Clone)]
pub struct KMeans {
    /// Number of centroids `k`.
    pub k: usize,
    /// Number of Lloyd iterations.
    pub max_iter: usize,
}

/// A fitted K-Means model.
#[derive(Debug, Clone)]
pub struct KMeansModel {
    /// Centroid matrix `C` (`d x k`, centroids are columns).
    pub centroids: DenseMatrix,
    /// Cluster index per data row.
    pub assignments: Vec<usize>,
    /// Within-cluster sum of squared distances after the final iteration.
    pub inertia: f64,
}

impl KMeans {
    /// Creates a trainer with `k` centroids and `max_iter` iterations.
    pub fn new(k: usize, max_iter: usize) -> Self {
        Self { k, max_iter }
    }

    /// Deterministic initial centroids: the first `k` distinct data rows
    /// of the materialized matrix would break factorization, so instead we
    /// seed from `Tᵀ E` where `E` picks every `n/k`-th unit row — an LMM,
    /// hence factorized.
    fn init_centroids<M: LinearOperand>(&self, t: &M) -> DenseMatrix {
        let n = t.nrows();
        let mut e = DenseMatrix::zeros(n, self.k);
        for c in 0..self.k {
            let row = (c * n.max(1)) / self.k.max(1);
            e.set(row.min(n - 1), c, 1.0);
        }
        t.t_lmm(&e) // d x k: column c is data row `row` — a real data point
    }

    /// Runs Lloyd iterations on any [`LinearOperand`] data matrix.
    ///
    /// # Panics
    /// Panics if `k == 0` or the data has no rows.
    pub fn fit<M: LinearOperand>(&self, t: &M) -> KMeansModel {
        assert!(self.k > 0, "kmeans: k must be positive");
        assert!(t.nrows() > 0, "kmeans: empty data");
        let c0 = self.init_centroids(t);
        self.fit_from(t, &c0)
    }

    /// Runs Lloyd iterations from explicit initial centroids (`d x k`).
    ///
    /// # Panics
    /// Panics if `c0` is not `d x k`.
    pub fn fit_from<M: LinearOperand>(&self, t: &M, c0: &DenseMatrix) -> KMeansModel {
        assert_eq!(
            c0.shape(),
            (t.ncols(), self.k),
            "kmeans: initial centroids must be d x k"
        );
        let n = t.nrows();
        // Pre-compute rowSums(T²) — factorized through squared() + row_sums().
        let dt = t.squared().row_sums(); // n x 1
        let two_t = t.scale(2.0); // stays normalized on normalized input
        let mut c = c0.clone();
        let mut assignments = vec![0usize; n];
        let mut inertia = 0.0;
        for _ in 0..self.max_iter {
            // D = D_T 1 + 1 colSums(C²) − 2 T C, an n x k distance matrix.
            let c2 = c.apply(ScalarOp::Pow(2.0)).col_sums(); // 1 x k
            let mut d = two_t.lmm(&c).apply(ScalarOp::Mul(-1.0)); // −2 T C
            d.add_assign(&dt.replicate_cols(self.k));
            d.add_assign(&c2.replicate_rows(n));
            // A = one-hot argmin per row (ties toward lowest index).
            assignments = d.row_argmin();
            inertia = assignments
                .iter()
                .enumerate()
                .map(|(i, &j)| d.get(i, j))
                .sum::<f64>();
            let mut a = DenseMatrix::zeros(n, self.k);
            for (i, &j) in assignments.iter().enumerate() {
                a.set(i, j, 1.0);
            }
            // C = (Tᵀ A) / colSums(A) columns; empty clusters keep their
            // previous centroid (a common Lloyd convention).
            let counts = a.col_sums();
            let num = t.t_lmm(&a); // d x k
            for col in 0..self.k {
                let cnt = counts.get(0, col);
                if cnt > 0.0 {
                    for row in 0..num.rows() {
                        c.set(row, col, num.get(row, col) / cnt);
                    }
                }
            }
        }
        KMeansModel {
            centroids: c,
            assignments,
            inertia: inertia.max(0.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_data::pkfk;

    #[test]
    fn factorized_matches_materialized() {
        let fx = pkfk(60, 3, 8, 3, 41);
        let km = KMeans::new(4, 10);
        let mf = km.fit(&fx.tn);
        let mm = km.fit(&fx.t);
        assert_eq!(mf.assignments, mm.assignments);
        assert!(mf.centroids.approx_eq(&mm.centroids, 1e-8));
        assert!((mf.inertia - mm.inertia).abs() <= 1e-8 * mm.inertia.max(1.0));
    }

    #[test]
    fn planned_routing_matches_pure_paths() {
        // K-Means chains closure ops (squared, scale) with LMMs and
        // aggregations — exactly the mix the per-operator planner routes.
        let fx = pkfk(60, 3, 8, 3, 41);
        let km = KMeans::new(4, 10);
        let planned = km.fit(&crate::test_data::planned(&fx.tn));
        let mm = km.fit(&fx.t);
        assert_eq!(planned.assignments, mm.assignments);
        assert!(planned.centroids.approx_eq(&mm.centroids, 1e-8));
    }

    #[test]
    fn separated_clusters_are_found() {
        // Two far-apart blobs in a PK-FK layout: R carries the blob offset.
        use morpheus_core::NormalizedMatrix;
        let mut rng = crate::test_data::stream(5);
        let s = DenseMatrix::from_fn(40, 1, |_, _| rng() * 0.1);
        let r = DenseMatrix::from_rows(&[&[0.0, 0.0], &[50.0, 50.0]]);
        let fk: Vec<usize> = (0..40).map(|i| i % 2).collect();
        let tn = NormalizedMatrix::pk_fk(s.into(), &fk, r.into());
        let model = KMeans::new(2, 15).fit(&tn);
        // All even rows together, all odd rows together.
        let c0 = model.assignments[0];
        for (i, &a) in model.assignments.iter().enumerate() {
            if i % 2 == 0 {
                assert_eq!(a, c0);
            } else {
                assert_ne!(a, c0);
            }
        }
    }

    #[test]
    fn inertia_nonincreasing_over_iterations() {
        let fx = pkfk(50, 2, 6, 2, 43);
        let mut last = f64::INFINITY;
        for iters in [1, 3, 6, 12] {
            let m = KMeans::new(3, iters).fit(&fx.tn);
            assert!(
                m.inertia <= last + 1e-9,
                "inertia increased at {iters} iters: {last} -> {}",
                m.inertia
            );
            last = m.inertia;
        }
    }

    #[test]
    fn empty_cluster_keeps_previous_centroid() {
        // k larger than distinct points: some clusters must stay empty and
        // the algorithm must not produce NaNs.
        use morpheus_core::Matrix;
        let t = Matrix::Dense(DenseMatrix::from_rows(&[&[0.0, 0.0], &[1.0, 1.0]]));
        let model = KMeans::new(2, 5).fit(&t);
        for v in model.centroids.as_slice() {
            assert!(v.is_finite());
        }
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        let fx = pkfk(10, 2, 2, 2, 1);
        KMeans::new(0, 1).fit(&fx.tn);
    }
}
