//! Property-based validation of the chunked (ORE-analog) backend: for
//! random shapes, chunk sizes, and worker counts, every operator must
//! agree with the in-memory result — chunking and parallelism are pure
//! execution details. The planner-routed and
//! spill-backed paths are held to a harder bar: spilled execution must be
//! *bit-identical* to fully-resident chunked execution at any worker
//! count, and injected spill-I/O faults must degrade chunks to resident —
//! counted, never corrupting results.

mod common;

use morpheus::chunked::{ChunkedCostCtx, ChunkedMatrix, PlannedChunkedMatrix, SpillCosts};
use morpheus::core::LinearOperand;
use morpheus::core::Strategy as Route;
use morpheus::prelude::*;
use morpheus::runtime::faults;
use proptest::prelude::*;

fn mat(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
    let mut state = seed | 1;
    DenseMatrix::from_fn(rows, cols, |_, _| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
    })
}

fn pkfk(n_s: usize, d_s: usize, n_r: usize, d_r: usize, seed: u64) -> NormalizedMatrix {
    let s = mat(n_s, d_s, seed);
    let r = mat(n_r, d_r, seed ^ 0xBEEF);
    let fk: Vec<usize> = (0..n_s).map(|i| (i * 13 + 5) % n_r).collect();
    NormalizedMatrix::pk_fk(s.into(), &fk, r.into())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn chunked_matrix_agrees_with_dense(
        rows in 1usize..40,
        cols in 1usize..6,
        chunk in 1usize..16,
        threads in 1usize..4,
        seed in any::<u64>(),
    ) {
        // Every test in this binary holds the guard (see `faults::exclusive`).
        let _guard = faults::exclusive();
        let d = mat(rows, cols, seed);
        let m = Matrix::Dense(d.clone());
        // Chunk-level workers come from the Runtime budget; pin it for
        // the checks and restore the configured count afterwards.
        let configured = Runtime::threads();
        Runtime::set_threads(threads);
        let c = ChunkedMatrix::new(&m, chunk);
        let x = mat(cols, 2, seed ^ 0x44);
        let y = mat(rows, 2, seed ^ 0x55);
        let (lmm, t_lmm, crossprod) = (c.lmm(&x), c.t_lmm(&y), LinearOperand::crossprod(&c));
        let (scaled, squared) = (c.scale(2.5).materialize(), c.squared().materialize());
        Runtime::set_threads(configured);

        prop_assert_eq!(c.n_chunks(), rows.div_ceil(chunk).max(1));
        prop_assert!(lmm.approx_eq(&d.matmul(&x), 1e-10));
        prop_assert!(t_lmm.approx_eq(&d.t_matmul(&y), 1e-10));
        prop_assert!(crossprod.approx_eq(&d.crossprod(), 1e-9));
        prop_assert!(scaled.approx_eq(&m.apply(ScalarOp::Mul(2.5)), 1e-12));
        prop_assert!(squared.approx_eq(&m.apply(ScalarOp::Pow(2.0)), 1e-12));
    }

    #[test]
    fn planner_routed_chunked_agrees_with_in_memory_across_strategies_and_threads(
        n_s in 8usize..60,
        d_s in 1usize..4,
        n_r in 2usize..8,
        d_r in 1usize..4,
        chunk in 1usize..24,
        seed in any::<u64>(),
    ) {
        // The budget-0 passes spill; keep them out of the window in which
        // the sibling chaos test arms the process-global spill failpoints
        // and counts their fallbacks.
        let _guard = faults::exclusive();
        let tn = pkfk(n_s, d_s, n_r, d_r, seed);
        let x = mat(tn.cols(), 2, seed ^ 0x77);
        // (resident, spilled): same chunking, budgets MAX and 0.
        let ctxs = [f64::INFINITY, 0.0].map(|budget| ChunkedCostCtx {
            chunk_rows: chunk,
            spill: Some(SpillCosts {
                resident_budget_bytes: budget,
                read_ns_per_byte: 0.5,
                write_ns_per_byte: 1.0,
            }),
        });
        // Chunk-level parallelism comes from the Runtime budget; pin it
        // per pass and restore the configured count afterwards.
        let configured = Runtime::threads();
        let mut per_thread: Vec<Vec<u64>> = Vec::new();
        for threads in [1usize, 8] {
            Runtime::set_threads(threads);
            let mut fingerprint: Vec<u64> = Vec::new();
            for strategy in [
                Route::CostBased,
                Route::Heuristic(DecisionRule::default()),
                Route::AlwaysFactorize,
                Route::AlwaysMaterialize,
            ] {
                for ctx in ctxs {
                    let chunked =
                        PlannedChunkedMatrix::with_strategy(tn.clone(), chunk, strategy)
                            .with_profile(MachineProfile::REFERENCE)
                            .with_ctx(ctx);
                    let planned = PlannedMatrix::with_strategy(tn.clone(), strategy)
                        .with_profile(MachineProfile::REFERENCE);
                    // Chunked-vs-unchunked: equal up to reduction
                    // regrouping (chunk partials vs full-matrix bands).
                    prop_assert!(chunked.lmm(&x).approx_eq(&planned.lmm(&x), 1e-10));
                    prop_assert!(LinearOperand::row_sums(&chunked)
                        .approx_eq(&LinearOperand::row_sums(&planned), 1e-10));
                    prop_assert!(LinearOperand::crossprod(&chunked)
                        .approx_eq(&LinearOperand::crossprod(&planned), 1e-9));
                    let (cs, ps) = (LinearOperand::sum(&chunked), LinearOperand::sum(&planned));
                    prop_assert!((cs - ps).abs() <= 1e-9 * ps.abs().max(1.0));
                    // Spilled-vs-resident and across worker counts:
                    // bit-identical, by chunk-order combination.
                    fingerprint.extend(common::bits(chunked.lmm(&x).as_slice()));
                    fingerprint.extend(common::bits(&[LinearOperand::sum(&chunked)]));
                }
            }
            per_thread.push(fingerprint);
        }
        Runtime::set_threads(configured);
        prop_assert_eq!(&per_thread[0], &per_thread[1]);
    }

    #[test]
    fn injected_spill_faults_degrade_to_resident_without_corruption(
        rows in 4usize..48,
        cols in 1usize..5,
        chunk in 1usize..12,
        seed in any::<u64>(),
    ) {
        // Seeded chaos on the spill failpoint: whichever chunks fail to
        // spill stay resident (counted as SpillFallback degradations) and
        // every result stays bit-identical to the clean resident build.
        let _guard = faults::exclusive();
        let d = mat(rows, cols, seed);
        let m = Matrix::Dense(d.clone());
        let clean = ChunkedMatrix::with_budget(&m, chunk, u64::MAX);
        let x = mat(cols, 2, seed ^ 0x88);
        let clean_lmm = clean.lmm(&x);
        let clean_sum = LinearOperand::sum(&clean);
        let clean_crossprod = LinearOperand::crossprod(&clean);

        faults::configure(&format!("spill.write=io_error(0.5,seed={})", seed | 1)).unwrap();
        let before = faults::stats().spill_fallbacks;
        let chaotic = ChunkedMatrix::with_budget(&m, chunk, 0);
        let degraded = faults::stats().spill_fallbacks - before;
        faults::clear();

        // Every chunk either spilled or was counted as a fallback.
        prop_assert_eq!(
            chaotic.n_spilled() as u64 + degraded,
            chaotic.n_chunks() as u64
        );
        let chaotic_lmm = chaotic.lmm(&x);
        prop_assert_eq!(chaotic_lmm.as_slice(), clean_lmm.as_slice());
        prop_assert_eq!(
            common::bits(&[LinearOperand::sum(&chaotic)]),
            common::bits(&[clean_sum])
        );
        let chaotic_crossprod = LinearOperand::crossprod(&chaotic);
        prop_assert_eq!(chaotic_crossprod.as_slice(), clean_crossprod.as_slice());
        prop_assert!(chaotic.materialize().approx_eq(&m, 0.0));
    }
}
