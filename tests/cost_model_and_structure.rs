//! Integration tests for the cost model (Table 3/11), the decision rule,
//! and structural invariants that span crates.

use morpheus::core::cost::{self, Dims};
use morpheus::data::synth::PkFkSpec;
use morpheus::prelude::*;

#[test]
fn cost_model_limits_match_paper_table3() {
    // lim TR→∞ speedup = 1 + FR for linear ops; (1+FR)² for crossprod.
    for fr in [0.5, 1.0, 2.0, 4.0] {
        let d = Dims {
            n_s: 1e9,
            d_s: 20.0,
            n_r: 1e3,
            d_r: fr * 20.0,
        };
        let lin = cost::scalar_op(&d).speedup();
        assert!((lin - (1.0 + fr)).abs() / (1.0 + fr) < 1e-3);
        let cp = cost::crossprod(&d).speedup();
        assert!((cp - (1.0 + fr).powi(2)).abs() / (1.0 + fr).powi(2) < 1e-2);
    }
    // lim FR→∞ speedup = TR.
    for tr in [2.0, 10.0, 50.0] {
        let d = Dims {
            n_s: tr * 1e4,
            d_s: 1.0,
            n_r: 1e4,
            d_r: 1e7,
        };
        let lin = cost::scalar_op(&d).speedup();
        assert!((lin - tr).abs() / tr < 1e-2);
    }
}

#[test]
fn cost_model_redundancy_equals_size_ratio() {
    // §3.3.1: the scalar-op speedup is exactly size(T) / (size(S)+size(R)).
    let ds = PkFkSpec::from_ratios(10.0, 2.0, 100, 10, 1).generate();
    let d = Dims::new(1000, 10, 100, 20);
    let predicted = cost::scalar_op(&d).speedup();
    assert!((predicted - ds.tn.redundancy_ratio()).abs() < 1e-9);
}

#[test]
fn decision_rule_matches_cost_model_sign_on_clear_cases() {
    let rule = DecisionRule::default();
    // Deep in the win region, the model predicts > 1 and the rule says F.
    let hot = PkFkSpec::from_ratios(20.0, 4.0, 50, 5, 2).generate();
    assert!(rule.should_factorize(&hot.tn));
    let d_hot = Dims::new(1000, 5, 50, 20);
    assert!(cost::scalar_op(&d_hot).speedup() > 1.0);
    // Deep in the loss region the rule refuses even though raw flop counts
    // might still favor F — it is deliberately conservative about operator
    // overheads (§5.1).
    let cold = PkFkSpec::from_ratios(1.0, 0.25, 40, 8, 3).generate();
    assert!(!rule.should_factorize(&cold.tn));
}

#[test]
fn normalized_matrix_never_materializes_during_rewrites() {
    // Indirect structural check: factorized operator results on a join
    // whose materialized form would be huge. 2000 logical rows x 3000
    // columns = 48 MB dense — but the factorized ops only ever touch the
    // base tables (~3000 entries each); running several of them in
    // milliseconds-scale memory is the evidence.
    let s = DenseMatrix::from_fn(2_000, 1, |i, _| (i % 17) as f64);
    let r = DenseMatrix::from_fn(2, 2_999, |i, j| ((i + j) % 13) as f64 * 0.1);
    let fk: Vec<usize> = (0..2_000).map(|i| i % 2).collect();
    let tn = NormalizedMatrix::pk_fk(s.into(), &fk, r.into());
    assert_eq!(tn.cols(), 3_000);
    let x = DenseMatrix::from_fn(3_000, 1, |i, _| ((i % 7) as f64 - 3.0) * 0.01);
    let out = tn.lmm(&x);
    assert_eq!(out.shape(), (2_000, 1));
    assert!((tn.sum() - tn.materialize().sum()).abs() < 1e-6 * tn.sum().abs().max(1.0));
}

#[test]
fn join_stats_round_trip_through_generators() {
    let spec = PkFkSpec::from_ratios(12.0, 3.0, 64, 8, 9);
    let ds = spec.generate();
    let stats = ds.tn.stats();
    assert_eq!(stats.n_rows, 768);
    assert_eq!(stats.d_entity, 8);
    assert_eq!(stats.attr_dims, vec![(64, 24)]);
    assert!((stats.tuple_ratio - 12.0).abs() < 1e-12);
    assert!((stats.feature_ratio - 3.0).abs() < 1e-12);
}

#[test]
fn facade_prelude_exposes_the_working_set() {
    // Compile-time check that the prelude covers the README quickstart.
    let s = DenseMatrix::from_rows(&[&[1.0], &[2.0]]);
    let r = DenseMatrix::from_rows(&[&[3.0]]);
    let tn = NormalizedMatrix::pk_fk(s.into(), &[0, 0], r.into());
    let _planned = PlannedMatrix::with_strategy(tn.clone(), Strategy::CostBased)
        .with_profile(MachineProfile::REFERENCE);
    let _rule = DecisionRule::default();
    let _csr = CsrMatrix::identity(2);
    let _km = KMeans::new(1, 1);
    let _gn = Gnmf::new(1, 1);
    let _lr = LogisticRegressionGd::default();
    let _ne = LinearRegressionNe::new();
    let _gd = LinearRegressionGd::default();
    assert_eq!(tn.rows(), 2);
}

#[test]
fn cost_based_planner_agrees_with_brute_force_comparison_on_every_op() {
    use morpheus::core::cost::estimate_op;
    let profile = MachineProfile::REFERENCE;
    // A spread of join shapes: deep factorized win, the L-shaped slow-down
    // corner, and a middling point.
    for (tr, fr) in [(20.0, 4.0), (1.0, 0.25), (5.0, 1.0)] {
        let ds = PkFkSpec::from_ratios(tr, fr, 50, 8, 11).generate();
        let planned =
            PlannedMatrix::with_strategy(ds.tn.clone(), Strategy::CostBased).with_profile(profile);
        for op in OpKind::ALL {
            let decision = planned.plan(op).expect("factorized repr plans");
            let est = estimate_op(&profile, &ds.tn, op);
            let brute_force = est.factorized_ns < est.materialized_total_ns(false);
            assert_eq!(
                decision.factorized, brute_force,
                "planner and brute-force cost comparison disagree \
                 on {op:?} at TR={tr}, FR={fr}"
            );
            assert_eq!(decision.factorized_ns, est.factorized_ns);
        }
    }
}

#[test]
fn per_op_decisions_diverge_and_stay_bit_identical() {
    use std::sync::{Arc, Mutex};
    // TR = 10, FR = 2: the crossprod rewrite is predicted
    // factorized-profitable while the §3.3.7 element-wise fallback (which
    // materializes internally either way) routes materialized — two
    // different paths from one PlannedMatrix, observed via the decision
    // log.
    let ds = PkFkSpec::from_ratios(10.0, 2.0, 50, 4, 12).generate();
    let tn = ds.tn;
    let log: Arc<Mutex<Vec<Decision>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&log);
    let planned = PlannedMatrix::with_strategy(tn.clone(), Strategy::CostBased)
        .with_profile(MachineProfile::REFERENCE)
        .with_hook(move |d| sink.lock().unwrap().push(*d));

    let cp = planned.crossprod();
    let x = Matrix::Dense(DenseMatrix::from_fn(tn.rows(), tn.cols(), |i, j| {
        (i * 31 + j * 17) as f64
    }));
    let ew = planned.elementwise_fallback(|t| t.add(&x));

    let decisions = log.lock().unwrap().clone();
    assert_eq!(decisions.len(), 2);
    assert!(decisions[0].factorized, "crossprod should factorize");
    assert!(!decisions[1].factorized, "ew fallback should materialize");
    // Both results bit-identical to the pure path each op was routed to.
    assert_eq!(cp, tn.crossprod());
    assert!(ew.approx_eq(&tn.materialize().add(&x), 0.0));
}

// ---------------------------------------------------------------------
// Property tests for the cost layer: the estimates must be well-formed
// (finite, positive), monotone in problem size, and the planner must
// agree with a brute-force estimate comparison — over *randomized* join
// shapes and sparsity, not just hand-picked points.
// ---------------------------------------------------------------------

// Selective proptest imports (no prelude glob): the prelude's `Strategy`
// trait would collide with the planner's `Strategy` enum used above.
use morpheus::core::cost::{estimate_dmm, estimate_op, materialize_ns, OpKind as Op};
use proptest::{prop_assert, proptest, ProptestConfig};

/// A dense-S PK-FK join whose attribute table is dense or (when
/// `nnz_per_row` is `Some`) sparse with that many stored entries per row.
fn random_tn(
    n_s: usize,
    d_s: usize,
    n_r: usize,
    d_r: usize,
    nnz_per_row: Option<usize>,
    seed: u64,
) -> NormalizedMatrix {
    let mut state = seed | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
    };
    let s = DenseMatrix::from_fn(n_s, d_s, |_, _| next());
    let r: Matrix = match nnz_per_row {
        None => DenseMatrix::from_fn(n_r, d_r, |_, _| next()).into(),
        Some(k) => {
            let k = k.min(d_r);
            let trips: Vec<(usize, usize, f64)> = (0..n_r)
                .flat_map(|i| (0..k).map(move |j| (i, (i * 7 + j * 3 + seed as usize) % d_r, 1.0)))
                .collect();
            // Duplicate columns collapse, so nnz may be below n_r * k —
            // that's fine, the estimate reads the actual stored count.
            Matrix::Sparse(CsrMatrix::from_triplets(n_r, d_r, &trips).unwrap())
        }
    };
    let fk: Vec<usize> = (0..n_s).map(|i| (i * 13 + seed as usize) % n_r).collect();
    NormalizedMatrix::pk_fk(s.into(), &fk, r)
}

/// A small PK-FK right operand for `dmm`, conformable with `a` (its row
/// count equals `a.cols()`).
fn dmm_rhs(a: &NormalizedMatrix, seed: u64) -> NormalizedMatrix {
    let n_b = a.cols();
    let n_rb = (n_b / 2).max(1);
    let sb = DenseMatrix::from_fn(n_b, 2, |i, j| {
        ((i * 3 + j + seed as usize) % 7) as f64 - 3.0
    });
    let rb = DenseMatrix::from_fn(n_rb, 3, |i, j| ((i + j) % 5) as f64 * 0.5);
    let fk: Vec<usize> = (0..n_b).map(|i| i % n_rb).collect();
    NormalizedMatrix::pk_fk(sb.into(), &fk, rb.into())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn estimates_are_finite_and_positive_over_random_shapes_and_nnz(
        (n_s, d_s, n_r, d_r) in (1usize..200, 1usize..10, 1usize..40, 1usize..12),
        nnz in 0usize..4,
        seed in 0u64..1_000_000,
    ) {
        // nnz = 0 means a dense attribute table; otherwise sparse.
        let tn = random_tn(n_s, d_s, n_r, d_r, (nnz > 0).then_some(nnz), seed);
        let profile = MachineProfile::REFERENCE;
        for op in Op::ALL {
            let e = estimate_op(&profile, &tn, op);
            for v in [e.factorized_ns, e.materialized_op_ns, e.materialize_ns] {
                prop_assert!(
                    v.is_finite() && v > 0.0,
                    "bad estimate {v} for {op:?} at n_s={n_s} d_s={d_s} n_r={n_r} d_r={d_r} nnz={nnz}"
                );
            }
        }
        let e = estimate_dmm(&profile, &tn, &dmm_rhs(&tn, seed));
        for v in [e.factorized_ns, e.materialized_op_ns, e.materialize_ns] {
            prop_assert!(v.is_finite() && v > 0.0, "bad dmm estimate {v}");
        }
        prop_assert!(materialize_ns(&profile, &tn) > 0.0);
    }

    #[test]
    fn estimates_are_monotone_in_row_and_column_counts(
        (n_s, d_s, n_r, d_r) in (32usize..160, 1usize..6, 1usize..20, 1usize..5),
        extra_rows in 1usize..120,
        extra_cols in 1usize..4,
        seed in 0u64..1_000_000,
    ) {
        // d_total ≤ 12 < 32 ≤ n_s on both sides of the growth, so every
        // operator (including ginv) stays in one cost-form branch.
        let profile = MachineProfile::REFERENCE;
        let base = random_tn(n_s, d_s, n_r, d_r, None, seed);
        let taller = random_tn(n_s + extra_rows, d_s, n_r, d_r, None, seed);
        let wider = random_tn(n_s, d_s, n_r, d_r + extra_cols, None, seed);
        for op in Op::ALL {
            let e0 = estimate_op(&profile, &base, op);
            for (label, grown) in [("rows", &taller), ("cols", &wider)] {
                let e1 = estimate_op(&profile, grown, op);
                prop_assert!(
                    e1.factorized_ns >= e0.factorized_ns
                        && e1.materialized_op_ns >= e0.materialized_op_ns
                        && e1.materialize_ns >= e0.materialize_ns,
                    "estimate for {op:?} decreased when {label} grew: \
                     {e0:?} -> {e1:?} (n_s={n_s} d_s={d_s} n_r={n_r} d_r={d_r})"
                );
            }
        }
    }

    #[test]
    fn planner_agrees_with_brute_force_estimates_on_random_shapes(
        (n_s, d_s, n_r, d_r) in (1usize..300, 1usize..8, 1usize..50, 1usize..10),
        seed in 0u64..1_000_000,
    ) {
        let profile = MachineProfile::REFERENCE;
        let tn = random_tn(n_s, d_s, n_r, d_r, None, seed);
        let planned = PlannedMatrix::with_strategy(tn.clone(), Strategy::CostBased)
            .with_profile(profile);
        for op in Op::ALL {
            let decision = planned.plan(op).expect("factorized repr plans");
            let est = estimate_op(&profile, &tn, op);
            let brute_force = est.factorized_ns < est.materialized_total_ns(false);
            prop_assert!(
                decision.factorized == brute_force,
                "planner disagrees with brute force on {op:?} at \
                 n_s={n_s} d_s={d_s} n_r={n_r} d_r={d_r}"
            );
        }
    }
}

#[test]
fn vectorized_reduction_rates_no_longer_show_the_serial_chain_gap() {
    // Before the fixed-lane reduction kernels, calibration priced the
    // three reduction classes at roughly 0.21 / 0.44 / 0.61 ns per
    // element (independent-accumulator row sums / min folds / the serial
    // whole-matrix sum chain): the fold and serial-chain kernels were
    // 2–3x off the vectorized rate, and rowMin-heavy plans (K-Means)
    // inherited that drift. With eight accumulator lanes and the
    // select-based min fold, all three run at streaming bandwidth.
    //
    // Kernel-rate ratios are only meaningful in optimized builds — debug
    // codegen neither vectorizes the lanes nor keeps them in registers —
    // so the measurement is release-gated.
    if cfg!(debug_assertions) {
        return;
    }
    // Two noise-robust invariants instead of one absolute spread bound
    // (per-row rates inflate together under background load, the
    // contiguous whole-matrix sum barely moves, so a single lo/hi ratio
    // is flaky on busy machines):
    //   1. the two per-row classes (sum lanes vs min-fold lanes) now run
    //      the same kernel structure and must stay within 2x;
    //   2. the whole-matrix sum is no longer the serial-chain laggard —
    //      before vectorization it was ~3x *slower* than row sums, now
    //      it is the fastest class.
    let p = MachineProfile::calibrate();
    let row_ratio = (p.red_ns / p.minmax_ns).max(p.minmax_ns / p.red_ns);
    assert!(
        row_ratio < 2.0,
        "per-row reduction classes drifted apart again: red={} minmax={} ({:.2}x)",
        p.red_ns,
        p.minmax_ns,
        row_ratio
    );
    assert!(
        p.sum_ns < p.red_ns * 1.5,
        "whole-matrix sum regressed to a serial chain: sum={} vs red={}",
        p.sum_ns,
        p.red_ns
    );
}

#[test]
fn heuristic_strategy_reproduces_the_paper_rule_per_op() {
    let rule = DecisionRule::default();
    for (tr, fr, seed) in [(20.0, 4.0, 1), (2.0, 0.5, 2), (10.0, 0.5, 3), (2.0, 4.0, 4)] {
        let ds = PkFkSpec::from_ratios(tr, fr, 40, 6, seed).generate();
        let expected = rule.should_factorize(&ds.tn);
        let planned = PlannedMatrix::with_strategy(ds.tn, Strategy::Heuristic(rule));
        for op in OpKind::ALL {
            assert_eq!(
                planned.plan(op).unwrap().factorized,
                expected,
                "heuristic must apply the τ/ρ rule uniformly ({op:?}, TR={tr}, FR={fr})"
            );
        }
    }
}
