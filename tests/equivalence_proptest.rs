//! Property-based equivalence suite: for *randomly generated* normalized
//! matrices of every join shape, every factorized operator must equal its
//! materialized counterpart — the paper's core correctness claim
//! ("our rewrites do not alter the outputs of the operators", §3.7).
//! The group sums `Tᵀ A` of an indicator `A` are checked against `t_lmm`
//! on the one-hot `A`, with CSR tables too, and for a NaN on every route.

use morpheus::chunked::{ChunkedMatrix, PlannedChunkedMatrix};
use morpheus::core::{AttributePart, KeyColumn};
use morpheus::prelude::*;
use morpheus_core::{Matrix, Strategy as Route};
use proptest::prelude::*;
use proptest::Strategy; // shadow the prelude's planner Strategy enum

/// Strategy: a dense PK-FK normalized matrix with bounded dimensions.
fn arb_pkfk() -> impl Strategy<Value = NormalizedMatrix> {
    (1usize..20, 0usize..4, 1usize..6, 1usize..5, any::<u64>()).prop_map(
        |(n_s, d_s, n_r, d_r, seed)| {
            let mut state = seed;
            let mut next = move || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
            };
            let s = DenseMatrix::from_fn(n_s, d_s, |_, _| next());
            let r = DenseMatrix::from_fn(n_r, d_r, |_, _| next());
            let fk: Vec<usize> = (0..n_s)
                .map(|i| {
                    let v = (next().abs() * n_r as f64) as usize;
                    (i + v) % n_r
                })
                .collect();
            NormalizedMatrix::pk_fk(s.into(), &fk, r.into())
        },
    )
}

/// Strategy: a two-table M:N normalized matrix built from key columns.
fn arb_mn() -> impl Strategy<Value = NormalizedMatrix> {
    (
        2usize..10,
        2usize..10,
        1usize..4,
        1usize..4,
        1u64..5,
        any::<u64>(),
    )
        .prop_map(|(n_s, n_r, d_s, d_r, n_u, seed)| {
            let mut state = seed;
            let mut next = move || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
            };
            let s = DenseMatrix::from_fn(n_s, d_s, |_, _| next());
            let r = DenseMatrix::from_fn(n_r, d_r, |_, _| next());
            // Guarantee at least one shared key so T is non-empty.
            let js: Vec<u64> = (0..n_s).map(|i| (i as u64) % n_u).collect();
            let jr: Vec<u64> = (0..n_r).map(|i| (i as u64) % n_u).collect();
            NormalizedMatrix::mn_join_on_keys(s.into(), &js, r.into(), &jr)
        })
}

/// Strategy: a star-schema normalized matrix with two attribute tables.
fn arb_star() -> impl Strategy<Value = NormalizedMatrix> {
    (
        2usize..15,
        1usize..3,
        1usize..5,
        1usize..4,
        1usize..4,
        1usize..3,
        any::<u64>(),
    )
        .prop_map(|(n_s, d_s, n_r1, d_r1, n_r2, d_r2, seed)| {
            let mut state = seed;
            let mut next = move || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
            };
            let s = DenseMatrix::from_fn(n_s, d_s, |_, _| next());
            let r1 = DenseMatrix::from_fn(n_r1, d_r1, |_, _| next());
            let r2 = DenseMatrix::from_fn(n_r2, d_r2, |_, _| next());
            let fk1: Vec<usize> = (0..n_s).map(|i| i % n_r1).collect();
            let fk2: Vec<usize> = (0..n_s).map(|i| (i * 7 + 1) % n_r2).collect();
            NormalizedMatrix::star(s.into(), vec![(fk1, r1.into()), (fk2, r2.into())])
        })
}

fn param(rows: usize, cols: usize) -> DenseMatrix {
    DenseMatrix::from_fn(rows, cols, |i, j| {
        ((i * 13 + j * 5) % 11) as f64 * 0.25 - 1.0
    })
}

fn check_all_ops(tn: &NormalizedMatrix) {
    let tm = tn.materialize();
    let tol = 1e-9;

    // Scalar ops.
    for op in [
        ScalarOp::Mul(2.5),
        ScalarOp::Add(-1.5),
        ScalarOp::Pow(2.0),
        ScalarOp::Exp,
    ] {
        prop_assert_mat(&tn.apply(op).materialize(), &tm.apply(op), tol);
    }

    // Aggregations.
    assert!(tn.row_sums().approx_eq(&tm.row_sums(), tol));
    assert!(tn.col_sums().approx_eq(&tm.col_sums(), tol));
    let (fs, ms) = (tn.sum(), tm.sum());
    assert!((fs - ms).abs() <= tol * ms.abs().max(1.0));

    // Multiplications.
    if tn.cols() > 0 {
        let x = param(tn.cols(), 2);
        assert!(tn.lmm(&x).approx_eq(&tm.matmul_dense(&x), tol));
        let y = param(tn.rows(), 2);
        assert!(tn.t_lmm(&y).approx_eq(&tm.t_matmul_dense(&y), tol));
        let z = param(2, tn.rows());
        assert!(tn.rmm(&z).approx_eq(&tm.dense_matmul(&z), tol));

        // Cross-products (both variants) and the Gram matrix.
        assert!(tn.crossprod().approx_eq(&tm.crossprod(), 1e-8));
        assert!(tn.crossprod_naive().approx_eq(&tm.crossprod(), 1e-8));
        assert!(tn.tcrossprod().approx_eq(&tm.tcrossprod(), 1e-8));

        // Transposed operators (appendix A).
        let tt = tn.transpose();
        let mt = tm.transpose();
        let xt = param(tt.cols(), 2);
        assert!(tt.lmm(&xt).approx_eq(&mt.matmul_dense(&xt), tol));
        assert!(tt.row_sums().approx_eq(&mt.row_sums(), tol));
        assert!(tt.col_sums().approx_eq(&mt.col_sums(), tol));
        assert!(tt.crossprod().approx_eq(&mt.crossprod(), 1e-8));
    }

    check_group_sums(tn);
    check_group_sums(&sparsified(tn));
}

/// The same join with every base table stored as CSR, the entries below
/// 0.5 in magnitude dropped.
fn sparsified(tn: &NormalizedMatrix) -> NormalizedMatrix {
    let parts = tn.parts().iter().map(|p| {
        let kept = p
            .table()
            .to_dense()
            .map(|v| if v.abs() < 0.5 { 0.0 } else { v });
        AttributePart::new(p.indicator().clone(), CsrMatrix::from_dense(&kept).into())
    });
    NormalizedMatrix::try_from_parts(parts.collect()).unwrap()
}

/// `k` interleaved groups over `rows` rows: row `i` has key `(7i + 3) % k`.
fn groups(rows: usize, k: usize) -> KeyColumn {
    let keys: Vec<usize> = (0..rows).map(|i| (i * 7 + 3) % k).collect();
    KeyColumn::new(&keys, k).unwrap()
}

/// `Tᵀ A` as group sums, on `tn` and its transposed view, against
/// `t_lmm` on the one-hot `A`. Both add the same at most `n` terms per
/// entry in other orders (a keyed part scales a base row by its pair
/// count instead of adding it that often); with entries in `[-1, 1)` and
/// `n < 100` they agree within 1e-12. `k = 1` is `colSums(T)ᵀ`; with
/// `n + 2` groups some are empty, and their columns are exactly zero.
fn check_group_sums(tn: &NormalizedMatrix) {
    for t in [tn.clone(), tn.transpose()] {
        let tm = t.materialize();
        let n = t.rows();
        for k in [1, 3, n + 2] {
            let a = groups(n, k);
            let want = tm.t_matmul_dense(&a.to_dense());
            let f = t.t_lmm_indicator(&a);
            assert!(f.approx_eq(&want, 1e-12), "factorized {f:?} vs {want:?}");
            let m = LinearOperand::t_lmm_indicator(&tm, &a);
            assert!(m.approx_eq(&want, 1e-12), "materialized {m:?} vs {want:?}");
            if k == 1 {
                assert!(f.approx_eq(&t.col_sums().transpose(), 1e-12));
            }
            for c in (0..k).filter(|&c| !a.keys().contains(&(c as u32))) {
                assert!(
                    (0..f.rows()).all(|j| f.get(j, c).to_bits() == 0),
                    "empty group {c}"
                );
            }
        }
    }
}

fn prop_assert_mat(a: &Matrix, b: &Matrix, tol: f64) {
    assert!(
        a.approx_eq(b, tol),
        "factorized/materialized mismatch: {a:?} vs {b:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn pkfk_operators_equal_materialized(tn in arb_pkfk()) {
        check_all_ops(&tn);
    }

    #[test]
    fn mn_operators_equal_materialized(tn in arb_mn()) {
        check_all_ops(&tn);
    }

    #[test]
    fn star_operators_equal_materialized(tn in arb_star()) {
        check_all_ops(&tn);
    }

    #[test]
    fn pruning_preserves_semantics(tn in arb_pkfk()) {
        let pruned = tn.prune();
        prop_assert!(pruned.materialize().approx_eq(&tn.materialize(), 1e-12));
    }

    #[test]
    fn ginv_satisfies_moore_penrose(tn in arb_pkfk()) {
        // Skip degenerate zero-width inputs.
        if tn.cols() == 0 {
            return Ok(());
        }
        let p = tn.ginv();
        let t = tn.materialize().to_dense();
        let tp = t.matmul(&p);
        prop_assert!(tp.matmul(&t).approx_eq(&t, 1e-5), "T P T != T");
        prop_assert!(p.matmul(&tp).approx_eq(&p, 1e-5), "P T P != P");
    }

    #[test]
    fn scalar_op_chains_stay_closed(tn in arb_star()) {
        // ((2T + 1)^2) / 4 computed entirely in normalized land.
        let chained = tn
            .apply(ScalarOp::Mul(2.0))
            .apply(ScalarOp::Add(1.0))
            .apply(ScalarOp::Pow(2.0))
            .apply(ScalarOp::Div(4.0));
        let expected = tn
            .materialize()
            .apply(ScalarOp::Mul(2.0))
            .apply(ScalarOp::Add(1.0))
            .apply(ScalarOp::Pow(2.0))
            .apply(ScalarOp::Div(4.0));
        prop_assert!(chained.materialize().approx_eq(&expected, 1e-9));
    }

    #[test]
    fn dmm_matches_materialized(seed in any::<u64>(), n_s in 3usize..10, d_s in 1usize..3, n_r in 1usize..4, d_r in 1usize..3) {
        // Build A, then derive a conformable B with n_B = d_A.
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let sa = DenseMatrix::from_fn(n_s, d_s, |_, _| next());
        let ra = DenseMatrix::from_fn(n_r, d_r, |_, _| next());
        let fka: Vec<usize> = (0..n_s).map(|i| i % n_r).collect();
        let a = NormalizedMatrix::pk_fk(sa.into(), &fka, ra.into());

        let n_b = a.cols();
        let (d_sb, n_rb, d_rb) = (1usize, 2usize.min(n_b), 2usize);
        let sb = DenseMatrix::from_fn(n_b, d_sb, |_, _| next());
        let rb = DenseMatrix::from_fn(n_rb, d_rb, |_, _| next());
        let fkb: Vec<usize> = (0..n_b).map(|i| i % n_rb).collect();
        let b = NormalizedMatrix::pk_fk(sb.into(), &fkb, rb.into());

        let f = a.dmm(&b).to_dense();
        let m = a.materialize().to_dense().matmul(&b.materialize().to_dense());
        prop_assert!(f.approx_eq(&m, 1e-8));
    }
}

/// `tn` with entry `(row, 0)` of part `part`'s table set to NaN, in the
/// table's own storage.
fn with_nan(tn: &NormalizedMatrix, part: usize, row: usize) -> NormalizedMatrix {
    let parts = tn.parts().iter().enumerate().map(|(i, p)| {
        let mut t = p.table().to_dense();
        if i == part {
            t.set(row, 0, f64::NAN);
        }
        let table = match p.table() {
            Matrix::Dense(_) => t.into(),
            Matrix::Sparse(_) => CsrMatrix::from_dense(&t).into(),
        };
        AttributePart::new(p.indicator().clone(), table)
    });
    NormalizedMatrix::try_from_parts(parts.collect()).unwrap()
}

/// A NaN in one base row reaches, on every route, only the groups of the
/// join rows that carry it: each route matches the group sums of the
/// dense join, NaN exactly where they are NaN, elsewhere within 1e-12.
#[test]
fn group_sums_keep_a_nan_in_its_own_groups_on_every_route() {
    let pkfk = PkFkSpec::from_ratios(4.0, 1.0, 5, 3, 1).generate().tn;
    let star = StarSpec {
        n_s: 24,
        d_s: 2,
        tables: vec![(6, 3), (4, 2)],
        seed: 2,
    }
    .generate()
    .tn;
    let mn = MnJoinSpec {
        n_s: 12,
        n_r: 10,
        d_s: 2,
        d_r: 3,
        n_u: 4,
        seed: 3,
    }
    .generate()
    .tn;
    for (tn, part, row) in [
        (pkfk, 0, 3),
        (sparsified(&star), 1, 1),
        (star, 2, 0),
        (mn.clone(), 0, 0),
        (sparsified(&mn), 1, 2),
    ] {
        let t = with_nan(&tn, part, row);
        let tm = t.materialize();
        let dense = tm.to_dense();
        let a = groups(t.rows(), 4);
        let mut want = DenseMatrix::zeros(t.cols(), 4);
        for (i, &c) in a.keys().iter().enumerate() {
            for j in 0..t.cols() {
                want.set(j, c as usize, want.get(j, c as usize) + dense.get(i, j));
            }
        }
        let nan = |m: &DenseMatrix| m.as_slice().iter().map(|v| v.is_nan()).collect::<Vec<_>>();
        let hit = nan(&want).iter().filter(|&&v| v).count();
        assert!(
            hit > 0 && hit < 4,
            "the NaN must reach some groups but not all"
        );
        let planned = |s| PlannedMatrix::with_strategy(t.clone(), s);
        let chunked = |s| PlannedChunkedMatrix::with_strategy(t.clone(), 5, s);
        let routes = [
            ("factorized", t.t_lmm_indicator(&a)),
            ("materialized", LinearOperand::t_lmm_indicator(&tm, &a)),
            (
                "planned F",
                planned(Route::AlwaysFactorize).t_lmm_indicator(&a),
            ),
            (
                "planned M",
                planned(Route::AlwaysMaterialize).t_lmm_indicator(&a),
            ),
            ("chunked", ChunkedMatrix::new(&tm, 5).t_lmm_indicator(&a)),
            (
                "chunked F",
                chunked(Route::AlwaysFactorize).t_lmm_indicator(&a),
            ),
            (
                "chunked M",
                chunked(Route::AlwaysMaterialize).t_lmm_indicator(&a),
            ),
        ];
        for (route, got) in routes {
            assert_eq!(nan(&got), nan(&want), "{route}: NaN pattern");
            let finite = |m: &DenseMatrix| m.map(|v| if v.is_nan() { 0.0 } else { v });
            assert!(finite(&got).approx_eq(&finite(&want), 1e-12), "{route}");
        }
    }
}
