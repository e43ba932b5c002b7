//! A row-chunked, thread-parallel linear-algebra backend — the workspace's
//! stand-in for Oracle R Enterprise (§5.2.4 of the paper).
//!
//! ORE executes LA over larger-than-memory `ore.frame`s by partitioning
//! tables into row chunks and pushing a function over each chunk
//! (`ore.rowapply`). The paper's point in Tables 9 and 10 is architectural:
//! because Morpheus rewrites close over plain LA operators, the factorized
//! versions run on such a backend *without modifying it*. This crate
//! reproduces that architecture:
//!
//! * [`ChunkedMatrix`] — a regular matrix stored as row chunks; every
//!   [`LinearOperand`] operator is evaluated chunk-at-a-time, in parallel
//!   across worker threads (the shared `morpheus-runtime` scoped-thread
//!   executor — the `ore.rowapply` analog).
//! * [`PlannedChunkedMatrix`] — the per-operator cost-based planner routed
//!   through the chunked backend. A materialized verdict runs on a
//!   [`ChunkedMatrix`] built by streaming row bands of the join; a
//!   factorized verdict runs the [`morpheus_core::NormalizedMatrix`]
//!   rewrites themselves on the base tables — the backend is not modified
//!   and the rewrites are not re-implemented for it, which is the paper's
//!   point. The materialized route is priced with DRAM-tier kernel rates,
//!   per-chunk dispatch overhead, and calibrated spill I/O; the factorized
//!   route at its in-memory price
//!   ([`morpheus_core::cost::estimate_op_chunked`]).
//!
//! Both types implement [`LinearOperand`], so the `morpheus-ml` algorithms
//! run on them unchanged — the closure property, demonstrated end-to-end.
//!
//! Residency, stated plainly: the factorized route keeps **all** base
//! tables resident, the entity table `S` included, and none of them counts
//! against `MORPHEUS_CHUNK_BYTES`. Only the materialized route's chunks
//! are admitted against that budget and spill. Streaming `S` by chunk (the
//! paper's ORE prototype partitions it) is not implemented.
//!
//! Chunks are genuinely out-of-core: past a resident budget
//! (`MORPHEUS_CHUNK_BYTES`) dense chunks spill to memory-mapped files in
//! `MORPHEUS_SPILL_DIR` ([`spill`]), and operators stream over them with
//! double-buffered prefetch — while chunk *i* computes, chunk *i + 1*
//! faults in on a worker claimed from the same shared budget. Spill
//! failures degrade to resident chunks (never wrong results), reported
//! through the fault registry's degradation ladder.
//!
//! The executor itself lives in `morpheus-runtime` (re-exported here for
//! compatibility): chunk-level parallelism claims workers from the shared
//! budget, so the parallel dense/sparse kernels running *inside* each
//! chunk see only the remaining threads and the two levels compose
//! without oversubscription.

mod chunked_matrix;
mod planned;
pub mod spill;

pub use chunked_matrix::ChunkedMatrix;
pub use morpheus_runtime::Executor;
pub use planned::PlannedChunkedMatrix;
pub use spill::{SpillFile, CHUNK_BYTES_ENV, SPILL_DIR_ENV};

pub(crate) use morpheus_core::LinearOperand;

/// Contract suite of the factorized route: every operator a
/// [`PlannedChunkedMatrix`] routes factorized is **bitwise** the in-memory
/// planner's, at any resident budget — it *is* the in-memory rewrite.
///
/// The module path is kept from the retired hand-chunked normalized type
/// this suite used to cover (to `1e-9…1e-11`), so its test ids — and what
/// they guard — carry across the replacement, tightened to bit equality.
#[cfg(test)]
mod chunked_normalized {
    mod tests {
        use crate::PlannedChunkedMatrix;
        use morpheus_core::cost::ChunkedCostCtx;
        use morpheus_core::{LinearOperand, Matrix, NormalizedMatrix, PlannedMatrix, Strategy};
        use morpheus_dense::DenseMatrix;
        use morpheus_runtime::Runtime;

        /// Values with full mantissas, so a rewrite that merely regroups a
        /// sum shows up in the low bits.
        fn noise(rows: usize, cols: usize, salt: usize) -> DenseMatrix {
            DenseMatrix::from_fn(rows, cols, |i, j| {
                ((i * cols + j + salt) as f64 * 0.7311).sin()
            })
        }

        /// PK-FK dense, M:N, and a star schema with one sparse part.
        fn fixtures() -> Vec<NormalizedMatrix> {
            let fk: Vec<usize> = (0..23).map(|i| (i * 5 + 1) % 4).collect();
            let pkfk = NormalizedMatrix::pk_fk(noise(23, 2, 1).into(), &fk, noise(4, 3, 2).into());

            let is = [0, 0, 1, 2, 3, 4, 5, 5, 2];
            let ir = [0, 1, 2, 0, 1, 2, 0, 1, 2];
            let mn =
                NormalizedMatrix::mn_join(noise(6, 2, 3).into(), &is, noise(3, 2, 4).into(), &ir);

            let fk_a: Vec<usize> = (0..11).map(|i| i % 3).collect();
            let fk_b: Vec<usize> = (0..11).map(|i| (i * 5 + 1) % 2).collect();
            let holes = noise(2, 3, 5).map(|v| if v < 0.0 { 0.0 } else { v });
            let sparse = Matrix::Sparse(Matrix::Dense(holes).to_csr());
            let star = NormalizedMatrix::star(
                noise(11, 1, 6).into(),
                vec![(fk_a, noise(3, 2, 7).into()), (fk_b, sparse)],
            );
            vec![pkfk, mn, star]
        }

        fn ctx(chunk_rows: usize, budget: f64) -> ChunkedCostCtx {
            ChunkedCostCtx {
                chunk_rows,
                resident_budget_bytes: budget,
                spill_read_ns_per_byte: 0.5,
                spill_write_ns_per_byte: 1.0,
            }
        }

        fn chunked(
            tn: &NormalizedMatrix,
            chunk_rows: usize,
            strategy: Strategy,
            budget: f64,
        ) -> PlannedChunkedMatrix {
            PlannedChunkedMatrix::with_strategy(tn.clone(), chunk_rows, strategy)
                .with_cost_ctx(ctx(chunk_rows, budget))
        }

        /// Runs `check(in-memory F, chunked F)` for every fixture at
        /// resident budgets ∞ and 0: the F route must not depend on it.
        fn for_each_factorized_pair(check: impl Fn(&PlannedMatrix, &PlannedChunkedMatrix)) {
            for tn in fixtures() {
                let planned = PlannedMatrix::with_strategy(tn.clone(), Strategy::AlwaysFactorize);
                for budget in [f64::INFINITY, 0.0] {
                    check(
                        &planned,
                        &chunked(&tn, 4, Strategy::AlwaysFactorize, budget),
                    );
                }
            }
        }

        #[track_caller]
        fn assert_bitwise(a: &DenseMatrix, b: &DenseMatrix) {
            assert_eq!(a.shape(), b.shape());
            let bits =
                |m: &DenseMatrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(a), bits(b));
        }

        #[test]
        fn materialize_matches_normalized() {
            for_each_factorized_pair(|p, c| {
                assert!(c.materialize().approx_eq(&p.materialize(), 1e-12));
            });
        }

        #[test]
        fn lmm_matches() {
            for_each_factorized_pair(|p, c| {
                let x = noise(p.cols(), 2, 11);
                assert_bitwise(&c.lmm(&x), &p.lmm(&x));
            });
        }

        #[test]
        fn t_lmm_matches() {
            for_each_factorized_pair(|p, c| {
                let x = noise(p.rows(), 2, 12);
                assert_bitwise(&c.t_lmm(&x), &p.t_lmm(&x));
            });
        }

        #[test]
        fn rmm_matches() {
            for_each_factorized_pair(|p, c| {
                let x = noise(3, p.rows(), 13);
                assert_bitwise(&c.rmm(&x), &p.rmm(&x));
            });
        }

        #[test]
        fn crossprod_matches() {
            for_each_factorized_pair(|p, c| {
                assert_bitwise(&c.crossprod(), &LinearOperand::crossprod(p));
            });
        }

        #[test]
        fn aggregations_match() {
            for_each_factorized_pair(|p, c| {
                assert_bitwise(&c.row_sums(), &LinearOperand::row_sums(p));
                assert_bitwise(&c.col_sums(), &LinearOperand::col_sums(p));
                assert_eq!(c.sum().to_bits(), LinearOperand::sum(p).to_bits());
            });
        }

        #[test]
        fn scalar_closure_and_ginv() {
            for_each_factorized_pair(|p, c| {
                assert_bitwise(&c.ginv(), &LinearOperand::ginv(p));
                assert_bitwise(
                    &c.scale(3.0).crossprod(),
                    &LinearOperand::crossprod(&p.scale(3.0)),
                );
                let x = noise(p.rows(), 2, 14);
                assert_bitwise(&c.squared().t_lmm(&x), &p.squared().t_lmm(&x));
            });
        }

        #[test]
        fn sum_is_invariant_to_worker_count() {
            let configured = Runtime::threads();
            for tn in fixtures() {
                let c = chunked(&tn, 4, Strategy::AlwaysFactorize, 0.0);
                Runtime::set_threads(1);
                let serial = c.sum();
                Runtime::set_threads(8);
                let wide = c.sum();
                Runtime::set_threads(configured);
                assert_eq!(serial.to_bits(), wide.to_bits());
            }
        }

        #[test]
        fn logistic_regression_identical_across_backends() {
            let tn = fixtures().remove(0);
            let y = DenseMatrix::from_fn(tn.rows(), 1, |i, _| if i % 3 == 0 { 1.0 } else { -1.0 });
            let trainer = morpheus_ml::logreg::LogisticRegressionGd::new(1e-2, 6);
            let w_norm = trainer.fit(&tn, &y);
            let w_chunk = trainer.fit(&chunked(&tn, 5, Strategy::AlwaysFactorize, 0.0), &y);
            assert_bitwise(&w_norm.w, &w_chunk.w);
        }

        /// Every operator on a degenerate shape, under both always-arms:
        /// same shape and value as the in-memory planner's, no panic.
        fn check_degenerate(tn: &NormalizedMatrix, chunk_rows: usize) {
            let (n, d) = (tn.rows(), tn.cols());
            let x = DenseMatrix::from_fn(d, 2, |i, j| (2 * i + j) as f64 * 0.25);
            let y = DenseMatrix::from_fn(n, 2, |i, j| (i + j) as f64 - 0.5);
            let z = DenseMatrix::from_fn(3, n, |i, j| (i * 2 + j) as f64 * 0.5);
            for strategy in [Strategy::AlwaysFactorize, Strategy::AlwaysMaterialize] {
                let p = PlannedMatrix::with_strategy(tn.clone(), strategy);
                let c = chunked(tn, chunk_rows, strategy, 0.0);
                assert_eq!((c.nrows(), c.ncols()), (n, d), "{strategy:?}");
                let same = |a: DenseMatrix, b: DenseMatrix, shape: (usize, usize)| {
                    assert_eq!(a.shape(), shape, "{strategy:?}");
                    assert!(a.approx_eq(&b, 1e-12), "{strategy:?}");
                };
                same(c.lmm(&x), p.lmm(&x), (n, 2));
                same(c.t_lmm(&y), p.t_lmm(&y), (d, 2));
                same(c.rmm(&z), p.rmm(&z), (3, d));
                same(c.crossprod(), LinearOperand::crossprod(&p), (d, d));
                same(c.row_sums(), LinearOperand::row_sums(&p), (n, 1));
                same(c.col_sums(), LinearOperand::col_sums(&p), (1, d));
                same(c.ginv(), LinearOperand::ginv(&p), (d, n));
                assert!((c.sum() - LinearOperand::sum(&p)).abs() < 1e-12);
                same(c.scale(2.0).col_sums(), p.scale(2.0).col_sums(), (1, d));
                same(c.squared().row_sums(), p.squared().row_sums(), (n, 1));
                assert_eq!(c.materialize().shape(), (n, d), "{strategy:?}");
            }
        }

        #[test]
        fn zero_row_matrix_has_one_empty_chunk() {
            let s = DenseMatrix::zeros(0, 2);
            let r = DenseMatrix::from_fn(3, 2, |i, j| (i + j) as f64);
            let tn = NormalizedMatrix::pk_fk(s.into(), &[], r.into());
            let streamed = crate::ChunkedMatrix::from_normalized_with_budget(&tn, 5, 0);
            assert_eq!(streamed.n_chunks(), 1);
            check_degenerate(&tn, 5);
        }

        #[test]
        fn one_row_table_runs_every_operator() {
            let s = DenseMatrix::from_fn(1, 2, |_, j| j as f64 + 0.5);
            let r = DenseMatrix::from_fn(3, 2, |i, j| (i + j) as f64 - 1.0);
            let tn = NormalizedMatrix::pk_fk(s.into(), &[2], r.into());
            check_degenerate(&tn, 1);
            check_degenerate(&tn, 5);
        }

        #[test]
        fn chunk_rows_larger_than_matrix_degenerates_to_one_chunk() {
            let tn = fixtures().remove(0);
            let streamed = crate::ChunkedMatrix::from_normalized_with_budget(&tn, 10_000, 0);
            assert_eq!(streamed.n_chunks(), 1);
            check_degenerate(&tn, 10_000);
        }
    }
}
