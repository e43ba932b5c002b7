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
//!
//! `A` is never built. Each step computes `Y = T C` once and makes one
//! pass over it: per element `(−2·y_ij + D_T[i]) + colSums(C²)[j]`, then
//! the row's argmin, its distance and the cluster counts. Scaling by 2 is
//! exact, so this is bit for bit the distance of `−(2T) C + D_T + c2`.
//! `Tᵀ A` is a group sum, [`LinearOperand::t_lmm_indicator`]: column `c`
//! sums the rows assigned to `c`. On normalized data an entity part is one
//! segmented reduce and an attribute part `Bᵢᵀ (Kᵢᵀ A)` goes through the
//! `n_Rᵢ x k` pair counts `Kᵢᵀ A`, never through an `n x k` matrix.
//!
//! The initial centroids are `k` data rows, spread evenly (`c·n/k` for
//! centroid `c`), taken by the same group sum: each seed row is a group of
//! its own and every other row falls into one extra group, which is
//! dropped — so seeding factorizes too.

use morpheus_core::{KeyColumn, LinearOperand};
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

    /// Deterministic initial centroids: centroid `c` is data row `c·n/k`.
    /// Reading rows out of the materialized matrix would break
    /// factorization, so they come from one group sum instead — each
    /// distinct seed row a group, all other rows one extra group that is
    /// discarded.
    fn init_centroids<M: LinearOperand>(&self, t: &M) -> DenseMatrix {
        let n = t.nrows();
        let seeds: Vec<usize> = (0..self.k).map(|c| c * n / self.k).collect();
        let mut rows = seeds.clone();
        rows.dedup(); // seeds ascend; they repeat only when k > n
        let mut keys = vec![rows.len(); n];
        for (g, &r) in rows.iter().enumerate() {
            keys[r] = g;
        }
        let groups = KeyColumn::new(&keys, rows.len() + 1).expect("keys within the groups");
        let sums = t.t_lmm_indicator(&groups); // d x (distinct seeds + 1)
        DenseMatrix::from_fn(t.ncols(), self.k, |j, c| sums.get(j, keys[seeds[c]]))
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
        let k = self.k;
        // Pre-compute rowSums(T²): factorized through squared() +
        // row_sums(), and row by row on a materialized T (no T² copy).
        let dt = t.row_sums_squared(); // n x 1
        let mut c = c0.clone();
        let mut assignments = vec![0usize; t.nrows()];
        let mut inertia = 0.0;
        for _ in 0..self.max_iter {
            let c2 = c.apply(ScalarOp::Pow(2.0)).col_sums().into_vec(); // 1 x k
            let y = t.lmm(&c); // T C, n x k

            // D = D_T 1 + 1 colSums(C²) − 2 T C, one row at a time: the
            // argmin (ties toward the lowest index, selected without a
            // branch), its distance and the cluster counts.
            let mut counts = vec![0usize; k];
            inertia = 0.0;
            let rows = y.as_slice().chunks_exact(k).zip(dt.as_slice());
            for (a, (yrow, &dti)) in assignments.iter_mut().zip(rows) {
                let (mut best, mut best_d) = (0, f64::INFINITY);
                for (j, (&yij, &c2j)) in yrow.iter().zip(&c2).enumerate() {
                    let d = (-2.0 * yij + dti) + c2j;
                    let lt = d < best_d;
                    best = if lt { j } else { best };
                    best_d = if lt { d } else { best_d };
                }
                *a = best;
                counts[best] += 1;
                inertia += (-2.0 * yrow[best] + dti) + c2[best];
            }
            // C = (Tᵀ A) / colSums(A) columns; empty clusters keep their
            // previous centroid (a common Lloyd convention).
            let a = KeyColumn::new(&assignments, k).expect("assignments below k");
            let num = t.t_lmm_indicator(&a); // d x k
            for (col, &cnt) in counts.iter().enumerate().filter(|&(_, &cnt)| cnt > 0) {
                for row in 0..num.rows() {
                    c.set(row, col, num.get(row, col) / cnt as f64);
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
    fn assignment_ties_go_to_the_lowest_index() {
        // Centroids 0 and 2 coincide, as do 1 and 3: every row is equally
        // far from both of a pair and must join the lower one.
        use morpheus_core::Matrix;
        let t = Matrix::Dense(DenseMatrix::from_rows(&[&[0.0], &[0.2], &[4.0], &[4.5]]));
        let c0 = DenseMatrix::from_rows(&[&[0.0, 4.0, 0.0, 4.0]]);
        let model = KMeans::new(4, 1).fit_from(&t, &c0);
        assert_eq!(model.assignments, vec![0, 0, 1, 1]);
        // The emptied centroids keep their place.
        assert_eq!(model.centroids.as_slice(), &[0.1, 4.25, 0.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        let fx = pkfk(10, 2, 2, 2, 1);
        KMeans::new(0, 1).fit(&fx.tn);
    }
}
