//! Property-based validation of the numerical substrate: factorizations
//! must reconstruct their inputs and solvers must produce true solutions,
//! over randomized well- and ill-conditioned matrices.

use morpheus::dense::{DenseMatrix, ScalarOp};
use morpheus::linalg::{
    cholesky, eigen_sym, ginv, ginv_sym_psd, householder_qr, lstsq, lu_decompose, solve, solve_spd,
    svd,
};
use proptest::prelude::*;

/// Deterministic matrix from a seed; entries in [-1, 1].
fn mat(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
    let mut state = seed | 1;
    DenseMatrix::from_fn(rows, cols, |_, _| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn lu_solves_square_systems(n in 1usize..8, seed in any::<u64>()) {
        // Diagonally dominant ⇒ non-singular.
        let mut a = mat(n, n, seed);
        for i in 0..n {
            let v = a.get(i, i) + n as f64 + 1.0;
            a.set(i, i, v);
        }
        let x_true = mat(n, 1, seed ^ 0xABCD);
        let b = a.matmul(&x_true);
        let x = solve(&a, &b).expect("dominant matrix is non-singular");
        prop_assert!(x.approx_eq(&x_true, 1e-7));
        // Determinant is consistent with invertibility.
        let lu = lu_decompose(&a).unwrap();
        prop_assert!(lu.det().abs() > 0.0);
    }

    #[test]
    fn cholesky_reconstructs_spd(n in 1usize..8, seed in any::<u64>()) {
        let b = mat(n + 2, n, seed);
        let mut a = b.crossprod();
        a.add_assign(&DenseMatrix::identity(n)); // strictly PD
        let l = cholesky(&a).expect("PD by construction");
        prop_assert!(l.matmul(&l.transpose()).approx_eq(&a, 1e-8));
        // And the SPD solver agrees with LU.
        let rhs = mat(n, 1, seed ^ 0x1111);
        let x1 = solve_spd(&a, &rhs).unwrap();
        let x2 = solve(&a, &rhs).unwrap();
        prop_assert!(x1.approx_eq(&x2, 1e-6));
    }

    #[test]
    fn qr_reconstructs_and_solves_least_squares(
        m in 3usize..10,
        n in 1usize..4,
        seed in any::<u64>(),
    ) {
        prop_assume!(m >= n);
        let a = mat(m, n, seed);
        let qr = householder_qr(&a).unwrap();
        prop_assert!(qr.q.matmul(&qr.r).approx_eq(&a, 1e-8));
        prop_assert!(qr
            .q
            .crossprod()
            .approx_eq(&DenseMatrix::identity(n), 1e-8));
        // Least squares via QR matches the normal equations when the Gram
        // matrix is well-conditioned.
        let mut gram = a.crossprod();
        gram.add_assign(&DenseMatrix::identity(n).apply(ScalarOp::Mul(1e-9)));
        let b = mat(m, 1, seed ^ 0x2222);
        if let (Ok(x_qr), Ok(x_ne)) = (lstsq(&a, &b), solve(&gram, &a.t_matmul(&b))) {
            prop_assert!(x_qr.approx_eq(&x_ne, 1e-4));
        }
    }

    #[test]
    fn svd_reconstructs_any_matrix(
        m in 1usize..9,
        n in 1usize..9,
        seed in any::<u64>(),
    ) {
        let a = mat(m, n, seed);
        let s = svd(&a).unwrap();
        prop_assert!(s.reconstruct().approx_eq(&a, 1e-8));
        for w in s.singular.windows(2) {
            prop_assert!(w[0] >= w[1]);
        }
        prop_assert!(s.singular.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn ginv_moore_penrose_on_random_and_rank_deficient(
        m in 1usize..7,
        n in 1usize..7,
        seed in any::<u64>(),
        duplicate_col in any::<bool>(),
    ) {
        let mut a = mat(m, n, seed);
        if duplicate_col && n >= 2 {
            // Force rank deficiency: copy column 0 into column n-1.
            for i in 0..m {
                let v = a.get(i, 0);
                a.set(i, n - 1, v);
            }
        }
        let p = ginv(&a);
        prop_assert_eq!(p.shape(), (n, m));
        prop_assert!(a.matmul(&p).matmul(&a).approx_eq(&a, 1e-6), "APA != A");
        prop_assert!(p.matmul(&a).matmul(&p).approx_eq(&p, 1e-6), "PAP != P");
        let ap = a.matmul(&p);
        prop_assert!(ap.transpose().approx_eq(&ap, 1e-6));
    }

    #[test]
    fn dense_algebra_laws(m in 1usize..7, k in 1usize..7, n in 1usize..7, seed in any::<u64>()) {
        let a = mat(m, k, seed);
        let b = mat(k, n, seed ^ 0x3333);
        // (AB)ᵀ = Bᵀ Aᵀ.
        let lhs = a.matmul(&b).transpose();
        let rhs = b.transpose().matmul(&a.transpose());
        prop_assert!(lhs.approx_eq(&rhs, 1e-10));
        // crossprod(A) = Aᵀ A.
        prop_assert!(a.crossprod().approx_eq(&a.transpose().matmul(&a), 1e-10));
        // rowSums/colSums/sum consistency.
        prop_assert!((a.row_sums().sum() - a.sum()).abs() < 1e-9 * a.sum().abs().max(1.0));
        prop_assert!((a.col_sums().sum() - a.sum()).abs() < 1e-9 * a.sum().abs().max(1.0));
    }

    #[test]
    fn sparse_dense_kernels_agree(rows in 1usize..10, cols in 1usize..10, seed in any::<u64>()) {
        use morpheus::sparse::CsrMatrix;
        // Random ~30%-dense sparse matrix.
        let mut state = seed | 1;
        let dense = DenseMatrix::from_fn(rows, cols, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0;
            if v.abs() < 0.7 { 0.0 } else { v }
        });
        let sp = CsrMatrix::from_dense(&dense);
        prop_assert_eq!(sp.to_dense(), dense.clone());
        let x = mat(cols, 2, seed ^ 0x4444);
        prop_assert!(sp.spmm_dense(&x).approx_eq(&dense.matmul(&x), 1e-10));
        let y = mat(rows, 2, seed ^ 0x5555);
        prop_assert!(sp
            .t_spmm_dense(&y)
            .approx_eq(&dense.t_matmul(&y), 1e-10));
        prop_assert!(sp.crossprod_dense().approx_eq(&dense.crossprod(), 1e-10));
        prop_assert_eq!(sp.transpose().to_dense(), dense.transpose());
        prop_assert!(sp.row_sums().approx_eq(&dense.row_sums(), 1e-12));
        prop_assert!(sp.col_sums().approx_eq(&dense.col_sums(), 1e-12));
    }
}

// The eigensolver at the sizes it serves (a script's d = 100 Gram and
// beyond): each case is an O(n³) decomposition up to n = 130, and the
// SVD reference is slow in debug builds, hence fewer cases.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn eigen_reconstructs_symmetric(n in 1usize..131, seed in any::<u64>()) {
        let b = mat(n + 1, n, seed);
        let a = b.crossprod(); // symmetric PSD
        let e = eigen_sym(&a).unwrap();
        let rec = e
            .vectors
            .scale_cols(&e.values)
            .matmul_t(&e.vectors);
        prop_assert!(rec.approx_eq(&a, 1e-7));
        prop_assert!(e.values.iter().all(|&l| l > -1e-8));
    }

    #[test]
    fn ginv_routes_agree_on_gram_matrices(n in 1usize..131, m in 1usize..8, seed in any::<u64>()) {
        // m·⌈n/4⌉ rows: rank-deficient Grams (m < 4) at every size.
        let a = mat(m * n.div_ceil(4), n, seed);
        let g = a.crossprod();
        let via_eig = ginv_sym_psd(&g);
        let via_svd = ginv(&g);
        // Both are the Moore–Penrose inverse; rank-deficient cases may
        // differ near the cutoff, so compare through the defining property.
        prop_assert!(g.matmul(&via_eig).matmul(&g).approx_eq(&g, 1e-6));
        prop_assert!(g.matmul(&via_svd).matmul(&g).approx_eq(&g, 1e-6));
    }
}

/// Relative accuracy bound for the eigensolver's fixed cases: a
/// backward-stable decomposition reconstructs `A` to within a small
/// multiple of `n · eps · max|A|`, and its eigenvectors are orthonormal to
/// within `n · eps`.
fn eigen_bound(n: usize) -> f64 {
    32.0 * n as f64 * f64::EPSILON
}

fn max_abs(m: &DenseMatrix) -> f64 {
    m.as_slice().iter().fold(0.0f64, |acc, x| acc.max(x.abs()))
}

/// Decomposes `a` and asserts the `EigenSym` contract: values descending,
/// `V diag(λ) Vᵀ = A` and `VᵀV = I` within [`eigen_bound`].
fn checked_eigen(a: &DenseMatrix, label: &str) -> morpheus::linalg::EigenSym {
    let n = a.rows();
    let e = eigen_sym(a).unwrap_or_else(|err| panic!("{label}: {err}"));
    let bound = eigen_bound(n);
    assert!(
        e.values.windows(2).all(|w| w[0] >= w[1]),
        "{label}: values not descending"
    );
    let rec = e.vectors.scale_cols(&e.values).matmul_t(&e.vectors);
    let rec_err = max_abs(&rec.sub(a));
    assert!(
        rec_err <= bound * max_abs(a),
        "{label}: max|VΛVᵀ - A| = {rec_err:e} > {bound:e} · max|A|"
    );
    let orth_err = max_abs(&e.vectors.crossprod().sub(&DenseMatrix::identity(n)));
    assert!(
        orth_err <= bound,
        "{label}: max|VᵀV - I| = {orth_err:e} > {bound:e}"
    );
    e
}

/// On PSD input the eigenvalues are the singular values.
fn assert_values_match_svd(a: &DenseMatrix, values: &[f64], label: &str) {
    let s = svd(a).unwrap();
    let tol = eigen_bound(a.rows()) * values.first().map_or(0.0, |l| l.abs());
    for (l, sigma) in values.iter().zip(&s.singular) {
        assert!(
            (l - sigma).abs() <= tol,
            "{label}: λ = {l:e} vs σ = {sigma:e}"
        );
    }
}

#[test]
fn eigen_fixed_sizes_psd_and_indefinite() {
    for n in [1usize, 2, 3, 17, 64, 100, 129] {
        let gram = mat(n + 3, n, 0xE16E + n as u64).crossprod();
        let e = checked_eigen(&gram, &format!("Gram n = {n}"));
        assert_values_match_svd(&gram, &e.values, &format!("Gram n = {n}"));
        let b = mat(n, n, 0x51D3 + n as u64);
        let indefinite = b.add(&b.transpose());
        checked_eigen(&indefinite, &format!("indefinite n = {n}"));
    }
}

#[test]
fn eigen_zero_and_identity() {
    for n in [1usize, 5, 64] {
        let e = checked_eigen(&DenseMatrix::zeros(n, n), "zero");
        assert!(e.values.iter().all(|&l| l == 0.0));
        // Every eigenvalue repeated: any orthonormal basis is valid.
        let e = checked_eigen(&DenseMatrix::identity(n), "identity");
        assert!(e.values.iter().all(|&l| l == 1.0));
    }
}

#[test]
fn eigen_diagonal_input_returns_exact_values() {
    let diag = [3.0, -1.5, 0.0, 7.25, 1e-300, -2e10, 3.0];
    let e = checked_eigen(&DenseMatrix::from_diag(&diag), "diagonal");
    let mut want = diag.to_vec();
    want.sort_by(|a, b| b.total_cmp(a));
    assert_eq!(e.values, want);
}

#[test]
fn eigen_tridiagonal_input_matches_closed_form() {
    // The second-difference matrix tridiag(-1, 2, -1) has eigenvalues
    // 2 - 2 cos(kπ / (n + 1)), k = 1..n.
    let n = 50;
    let a = DenseMatrix::from_fn(n, n, |i, j| match i.abs_diff(j) {
        0 => 2.0,
        1 => -1.0,
        _ => 0.0,
    });
    let e = checked_eigen(&a, "tridiagonal");
    for (k, l) in e.values.iter().rev().enumerate() {
        let want = 2.0 - 2.0 * ((k + 1) as f64 * std::f64::consts::PI / (n + 1) as f64).cos();
        assert!(
            (l - want).abs() <= eigen_bound(n) * 4.0,
            "λ{k} = {l} vs {want}"
        );
    }
}

#[test]
fn eigen_rank_deficient_gram() {
    // A 40 x 40 Gram of rank 10: thirty eigenvalues are zero up to rounding.
    let (rank, n) = (10, 40);
    let g = mat(rank, n, 0xDEF1).crossprod();
    let e = checked_eigen(&g, "rank-deficient Gram");
    let tol = eigen_bound(n) * e.values[0];
    assert!(e.values[rank - 1] > tol, "rank lost: {:?}", e.values);
    assert!(e.values[rank..].iter().all(|l| l.abs() <= tol));
    assert_values_match_svd(&g, &e.values, "rank-deficient Gram");
}

#[test]
fn eigen_graded_gram() {
    // Column scales 1 … 1e-5 grade the Gram's spectrum over 1e-10.
    let n = 60;
    let t = mat(3 * n, n, 0x6AD3);
    let scales: Vec<f64> = (0..n)
        .map(|j| 10f64.powf(-5.0 * j as f64 / (n - 1) as f64))
        .collect();
    let g = t.scale_cols(&scales).crossprod();
    let e = checked_eigen(&g, "graded Gram");
    assert!(e.values[n - 1] > 0.0 && e.values[n - 1] < 1e-9 * e.values[0]);
    assert_values_match_svd(&g, &e.values, "graded Gram");
}
