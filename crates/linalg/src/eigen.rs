//! Eigendecomposition of symmetric matrices: Householder reduction to
//! tridiagonal form followed by implicit-shift QL, with the eigenvectors
//! accumulated (the EISPACK `tred2` + `tql2` pair).
//!
//! Both phases run serially on one flat row-major `n x n` buffer that
//! holds the basis vectors as *rows*: every inner loop — the Householder
//! dot/axpy updates and each Givens rotation of a QL sweep — walks
//! contiguous slices, and one transpose at the end returns the
//! eigenvectors as columns. The work is about `9n³` flops: `4/3 n³` to
//! reduce, `4/3 n³` to accumulate the reflectors, and `≈ 6n³` for the
//! rotations at the usual one to two QL iterations per eigenvalue.

use crate::{LinalgError, LinalgResult};
use morpheus_dense::DenseMatrix;

/// QL iterations allowed per eigenvalue before giving up (EISPACK's cap).
const MAX_QL_ITERS: usize = 30;

/// An eigendecomposition `A = V diag(λ) Vᵀ` of a symmetric matrix.
///
/// Eigenvalues are sorted in descending order, `vectors` holds the matching
/// eigenvectors as columns.
#[derive(Debug, Clone)]
pub struct EigenSym {
    /// Eigenvalues, descending.
    pub values: Vec<f64>,
    /// Eigenvectors as columns, in the order of `values`.
    pub vectors: DenseMatrix,
}

/// Computes the eigendecomposition of a symmetric matrix by Householder
/// tridiagonalization and implicit-shift QL.
///
/// Only symmetry up to rounding is assumed; the upper triangle drives the
/// reduction. Returns [`LinalgError::BadShape`] for non-square input,
/// [`LinalgError::NonFinite`] (before any work) when an entry is NaN or
/// infinite, and [`LinalgError::NoConvergence`] if one eigenvalue needs more
/// than 30 QL iterations or the iteration overflows — neither of which
/// happens for finite input of moderate magnitude.
pub fn eigen_sym(a: &DenseMatrix) -> LinalgResult<EigenSym> {
    if !a.is_square() {
        return Err(LinalgError::BadShape(format!(
            "eigen_sym: matrix is {}x{}, expected square",
            a.rows(),
            a.cols()
        )));
    }
    let n = a.rows();
    if let Some(at) = a.as_slice().iter().position(|x| !x.is_finite()) {
        return Err(LinalgError::NonFinite {
            routine: "eigen_sym",
            row: at / n,
            col: at % n,
        });
    }
    if n == 0 {
        return Ok(EigenSym {
            values: Vec::new(),
            vectors: DenseMatrix::zeros(0, 0),
        });
    }
    let mut w = a.as_slice().to_vec();
    let mut d = vec![0.0; n];
    let mut e = vec![0.0; n];
    tred2(&mut w, &mut d, &mut e, n);
    tql2(&mut w, &mut d, &mut e, n)?;
    Ok(sorted(&w, &d, n))
}

/// Householder reduction of the symmetric `n x n` matrix in `w` to
/// tridiagonal form `T = Qᵀ A Q`: on return `d` holds the diagonal of `T`,
/// `e[1..]` its sub-diagonal, and row `j` of `w` is column `j` of `Q`.
///
/// Rows of `w` stand where EISPACK indexes columns (`w[j][k]` is its
/// `V[k][j]`), so the reduction reads the upper triangle of `A`, stores
/// the Householder vectors in the lower one, and every O(n³) loop runs
/// along a row.
fn tred2(w: &mut [f64], d: &mut [f64], e: &mut [f64], n: usize) {
    for (j, dj) in d.iter_mut().enumerate() {
        *dj = w[j * n + n - 1];
    }
    for i in (1..n).rev() {
        // Scale the row to avoid under/overflow in the Householder norm.
        let scale: f64 = d[..i].iter().map(|x| x.abs()).sum();
        let mut h = 0.0;
        if scale == 0.0 {
            e[i] = d[i - 1];
            for j in 0..i {
                d[j] = w[j * n + i - 1];
                w[j * n + i] = 0.0;
                w[i * n + j] = 0.0;
            }
        } else {
            // Householder vector u = d[..i] with the pivot shifted by g.
            for x in &mut d[..i] {
                *x /= scale;
                h += *x * *x;
            }
            let f = d[i - 1];
            let g = if f > 0.0 { -h.sqrt() } else { h.sqrt() };
            e[i] = scale * g;
            h -= f * g;
            d[i - 1] = f - g;
            e[..i].fill(0.0);
            // e = A u over the leading i x i block (upper triangle read
            // row by row; u saved in row i of w for the accumulation).
            for j in 0..i {
                let f = d[j];
                w[i * n + j] = f;
                let row = &w[j * n + j..j * n + i];
                let mut g = e[j] + row[0] * f;
                for ((&a, &u), ek) in row[1..].iter().zip(&d[j + 1..i]).zip(&mut e[j + 1..i]) {
                    g += a * u;
                    *ek += a * f;
                }
                e[j] = g;
            }
            // p = A u / h, K = uᵀp / 2h, q = p − K u.
            let mut f = 0.0;
            for (ej, &dj) in e[..i].iter_mut().zip(&d[..i]) {
                *ej /= h;
                f += *ej * dj;
            }
            let hh = f / (h + h);
            for (ej, &dj) in e[..i].iter_mut().zip(&d[..i]) {
                *ej -= hh * dj;
            }
            // A ← A − u qᵀ − q uᵀ on the upper triangle.
            for j in 0..i {
                let (f, g) = (d[j], e[j]);
                let row = &mut w[j * n + j..j * n + i];
                for ((a, &q), &u) in row.iter_mut().zip(&e[j..i]).zip(&d[j..i]) {
                    *a -= f * q + g * u;
                }
                d[j] = w[j * n + i - 1];
                w[j * n + i] = 0.0;
            }
        }
        d[i] = h;
    }
    // Accumulate the reflectors into Q (row j of w = column j of Q).
    for i in 0..n - 1 {
        w[i * n + n - 1] = w[i * n + i];
        w[i * n + i] = 1.0;
        let h = d[i + 1];
        let (head, tail) = w.split_at_mut((i + 1) * n);
        let u = &mut tail[..=i];
        if h != 0.0 {
            for (dk, &uk) in d[..=i].iter_mut().zip(u.iter()) {
                *dk = uk / h;
            }
            for row in head.chunks_exact_mut(n) {
                let row = &mut row[..=i];
                let g: f64 = u.iter().zip(row.iter()).map(|(&a, &b)| a * b).sum();
                for (x, &dk) in row.iter_mut().zip(&d[..=i]) {
                    *x -= g * dk;
                }
            }
        }
        u.fill(0.0);
    }
    for (j, dj) in d.iter_mut().enumerate() {
        *dj = w[j * n + n - 1];
        w[j * n + n - 1] = 0.0;
    }
    w[n * n - 1] = 1.0;
    e[0] = 0.0;
}

/// Diagonalizes the tridiagonal matrix left by [`tred2`] by implicit-shift
/// QL, rotating the basis rows of `w` along: on return `d` holds the
/// eigenvalues (unsorted) and row `j` of `w` the eigenvector of `d[j]`.
fn tql2(w: &mut [f64], d: &mut [f64], e: &mut [f64], n: usize) -> LinalgResult<()> {
    e.copy_within(1..n, 0);
    e[n - 1] = 0.0;
    let mut f = 0.0;
    let mut tst1 = 0.0f64;
    for l in 0..n {
        // Find the first negligible sub-diagonal entry at or after l.
        tst1 = tst1.max(d[l].abs() + e[l].abs());
        let small = f64::EPSILON * tst1;
        let m = (l..n).find(|&m| e[m].abs() <= small).unwrap_or(n - 1);
        let mut iters = 0;
        while m > l && e[l].abs() > small {
            iters += 1;
            if iters > MAX_QL_ITERS {
                return Err(LinalgError::NoConvergence {
                    routine: "eigen_sym",
                    sweeps: MAX_QL_ITERS,
                });
            }
            // Wilkinson-style shift from the leading 2 x 2 block.
            let mut g = d[l];
            let mut p = (d[l + 1] - g) / (2.0 * e[l]);
            let r = if p < 0.0 { -p.hypot(1.0) } else { p.hypot(1.0) };
            d[l] = e[l] / (p + r);
            d[l + 1] = e[l] * (p + r);
            let dl1 = d[l + 1];
            let mut h = g - d[l];
            for x in &mut d[l + 2..] {
                *x -= h;
            }
            f += h;
            // One implicit QL sweep, bottom (m) to top (l).
            p = d[m];
            let (mut c, mut c2, mut c3) = (1.0, 1.0, 1.0);
            let el1 = e[l + 1];
            let (mut s, mut s2) = (0.0, 0.0);
            for i in (l..m).rev() {
                c3 = c2;
                c2 = c;
                s2 = s;
                g = c * e[i];
                h = c * p;
                let r = p.hypot(e[i]);
                e[i + 1] = s * r;
                s = e[i] / r;
                c = p / r;
                p = c * d[i] - s * g;
                d[i + 1] = h + s * (c * g + s * d[i]);
                // The same Givens rotation on basis rows i and i + 1.
                let (upper, lower) = w.split_at_mut((i + 1) * n);
                let vi = &mut upper[i * n..];
                for (a, b) in vi.iter_mut().zip(&mut lower[..n]) {
                    let t = *b;
                    *b = s * *a + c * t;
                    *a = c * *a - s * t;
                }
            }
            p = -s * s2 * c3 * el1 * e[l] / dl1;
            e[l] = s * p;
            d[l] = c * p;
        }
        d[l] += f;
        e[l] = 0.0;
    }
    // Input near f64::MAX can overflow the reduction or the shifts; report
    // it rather than hand back infinite or NaN eigenvalues.
    if d.iter().all(|x| x.is_finite()) {
        Ok(())
    } else {
        Err(LinalgError::NoConvergence {
            routine: "eigen_sym",
            sweeps: MAX_QL_ITERS,
        })
    }
}

/// Sorts the eigenpairs by descending eigenvalue and returns the
/// eigenvectors (rows of `w`) as columns.
fn sorted(w: &[f64], d: &[f64], n: usize) -> EigenSym {
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&i, &j| d[j].total_cmp(&d[i]));
    let values = idx.iter().map(|&i| d[i]).collect();
    let mut vectors = vec![0.0; n * n];
    for (col, &i) in idx.iter().enumerate() {
        for (r, &x) in w[i * n..(i + 1) * n].iter().enumerate() {
            vectors[r * n + col] = x;
        }
    }
    let vectors = DenseMatrix::from_vec(n, n, vectors).expect("an n x n buffer");
    EigenSym { values, vectors }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagonal_matrix_eigenvalues() {
        let a = DenseMatrix::from_diag(&[3.0, 1.0, 2.0]);
        let e = eigen_sym(&a).unwrap();
        assert_eq!(e.values, vec![3.0, 2.0, 1.0]);
    }

    #[test]
    fn known_2x2() {
        // [[2, 1], [1, 2]] has eigenvalues 3 and 1.
        let a = DenseMatrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
        let e = eigen_sym(&a).unwrap();
        assert!((e.values[0] - 3.0).abs() < 1e-10);
        assert!((e.values[1] - 1.0).abs() < 1e-10);
    }

    #[test]
    fn reconstruction_and_orthogonality() {
        let b = DenseMatrix::from_rows(&[&[1.0, 2.0, 0.5], &[0.0, 1.0, 3.0], &[2.0, 1.0, 1.0]]);
        let a = b.crossprod(); // symmetric PSD
        let e = eigen_sym(&a).unwrap();
        let lam = DenseMatrix::from_diag(&e.values);
        let rec = e.vectors.matmul(&lam).matmul(&e.vectors.transpose());
        assert!(rec.approx_eq(&a, 1e-9));
        let vtv = e.vectors.crossprod();
        assert!(vtv.approx_eq(&DenseMatrix::identity(3), 1e-9));
    }

    #[test]
    fn indefinite_matrix_reconstructs() {
        // Eigenvalues 4, 2 and -2 (the first two share no structure with
        // the diagonal).
        let a = DenseMatrix::from_rows(&[&[1.0, 3.0, 0.0], &[3.0, 1.0, 0.0], &[0.0, 0.0, 2.0]]);
        let e = eigen_sym(&a).unwrap();
        for (got, want) in e.values.iter().zip([4.0, 2.0, -2.0]) {
            assert!((got - want).abs() < 1e-12, "{:?}", e.values);
        }
        let rec = e.vectors.scale_cols(&e.values).matmul_t(&e.vectors);
        assert!(rec.approx_eq(&a, 1e-12));
    }

    #[test]
    fn psd_eigenvalues_nonnegative() {
        let b = DenseMatrix::from_fn(5, 3, |i, j| ((i + 1) * (j + 2)) as f64 % 7.0);
        let a = b.crossprod();
        let e = eigen_sym(&a).unwrap();
        for &l in &e.values {
            assert!(l > -1e-9, "PSD matrix produced negative eigenvalue {l}");
        }
    }

    #[test]
    fn empty_and_bad_shape() {
        let e = eigen_sym(&DenseMatrix::zeros(0, 0)).unwrap();
        assert!(e.values.is_empty());
        assert!(matches!(
            eigen_sym(&DenseMatrix::zeros(2, 3)),
            Err(LinalgError::BadShape(_))
        ));
    }

    #[test]
    fn non_finite_input_is_rejected_before_iterating() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut a = DenseMatrix::identity(4);
            a.set(2, 1, bad);
            assert_eq!(
                eigen_sym(&a).unwrap_err(),
                LinalgError::NonFinite {
                    routine: "eigen_sym",
                    row: 2,
                    col: 1
                }
            );
        }
    }

    #[test]
    fn overflowing_input_errors_instead_of_returning_non_finite_values() {
        // Finite, but the reduction's row scale Σ|aᵢⱼ| overflows.
        let a = DenseMatrix::filled(3, 3, f64::MAX);
        assert!(matches!(
            eigen_sym(&a),
            Err(LinalgError::NoConvergence { .. })
        ));
    }
}
