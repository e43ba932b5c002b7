//! The [`DenseMatrix`] type: representation, constructors, and accessors.

use crate::{DenseError, Result};
use std::fmt;

/// A dense, row-major `f64` matrix.
///
/// The backing buffer is a single contiguous `Vec<f64>` of length
/// `rows * cols`; element `(i, j)` lives at index `i * cols + j`. Vectors are
/// represented as `n x 1` (column vector) or `1 x n` (row vector) matrices,
/// mirroring R's treatment of vectors in matrix expressions.
#[derive(Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Creates a matrix from a raw row-major buffer.
    ///
    /// Returns [`DenseError::BufferLen`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if rows.checked_mul(cols) != Some(data.len()) {
            return Err(DenseError::BufferLen {
                rows,
                cols,
                len: data.len(),
            });
        }
        Ok(Self { rows, cols, data })
    }

    /// Creates a matrix from a slice of row slices.
    ///
    /// # Panics
    /// Panics if the rows are jagged. Use [`DenseMatrix::try_from_rows`] for a
    /// fallible version.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        Self::try_from_rows(rows).expect("DenseMatrix::from_rows: jagged input")
    }

    /// Fallible version of [`DenseMatrix::from_rows`].
    pub fn try_from_rows(rows: &[&[f64]]) -> Result<Self> {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(nrows * ncols);
        for (i, r) in rows.iter().enumerate() {
            if r.len() != ncols {
                return Err(DenseError::Jagged {
                    expected: ncols,
                    row: i,
                    found: r.len(),
                });
            }
            data.extend_from_slice(r);
        }
        Ok(Self {
            rows: nrows,
            cols: ncols,
            data,
        })
    }

    /// Creates an all-zero matrix.
    ///
    /// # Panics
    /// Panics if `rows * cols` overflows `usize`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self::filled(rows, cols, 0.0)
    }

    /// Creates a matrix with every entry set to `value`.
    ///
    /// # Panics
    /// Panics if `rows * cols` overflows `usize`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        let len = rows
            .checked_mul(cols)
            .unwrap_or_else(|| panic!("DenseMatrix: {rows} x {cols} elements overflow usize"));
        Self {
            rows,
            cols,
            data: vec![value; len],
        }
    }

    /// Creates the all-ones matrix `1_{rows x cols}` used by the paper's
    /// K-Means formulation for row/column replication.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Self::filled(rows, cols, 1.0)
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Creates a square diagonal matrix from a vector of diagonal entries.
    pub fn from_diag(diag: &[f64]) -> Self {
        let n = diag.len();
        let mut m = Self::zeros(n, n);
        for (i, &v) in diag.iter().enumerate() {
            m.data[i * n + i] = v;
        }
        m
    }

    /// Creates an `n x 1` column vector from a slice.
    pub fn col_vector(values: &[f64]) -> Self {
        Self {
            rows: values.len(),
            cols: 1,
            data: values.to_vec(),
        }
    }

    /// Creates a `1 x n` row vector from a slice.
    pub fn row_vector(values: &[f64]) -> Self {
        Self {
            rows: 1,
            cols: values.len(),
            data: values.to_vec(),
        }
    }

    /// Builds a matrix by evaluating `f(i, j)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of entries (`rows * cols`).
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the matrix has zero entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// `true` when the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Immutable view of the backing row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the backing row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the matrix, returning the backing buffer.
    #[inline]
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Element accessor.
    ///
    /// # Panics
    /// Panics if `i >= rows` or `j >= cols`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i}, {j}) out of bounds for {}x{} matrix",
            self.rows,
            self.cols
        );
        self.data[i * self.cols + j]
    }

    /// Element mutator.
    ///
    /// # Panics
    /// Panics if `i >= rows` or `j >= cols`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, value: f64) {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i}, {j}) out of bounds for {}x{} matrix",
            self.rows,
            self.cols
        );
        self.data[i * self.cols + j] = value;
    }

    /// Borrow of row `i` as a contiguous slice.
    ///
    /// # Panics
    /// Panics if `i >= rows`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row {i} out of bounds ({} rows)", self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable borrow of row `i`.
    ///
    /// # Panics
    /// Panics if `i >= rows`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(i < self.rows, "row {i} out of bounds ({} rows)", self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` into a new `Vec`.
    ///
    /// # Panics
    /// Panics if `j >= cols`.
    pub fn col(&self, j: usize) -> Vec<f64> {
        assert!(j < self.cols, "col {j} out of bounds ({} cols)", self.cols);
        (0..self.rows)
            .map(|i| self.data[i * self.cols + j])
            .collect()
    }

    /// Iterator over rows as slices. Zero-column matrices yield `rows` empty
    /// slices.
    pub fn row_iter(&self) -> impl Iterator<Item = &[f64]> + '_ {
        (0..self.rows).map(move |i| &self.data[i * self.cols..(i + 1) * self.cols])
    }

    /// Number of non-zero entries (exact comparison with `0.0`).
    pub fn nnz(&self) -> usize {
        self.data.iter().filter(|&&v| v != 0.0).count()
    }

    /// `true` if every entry of `self` is within `tol` of the corresponding
    /// entry of `other`, relative to the larger magnitude (absolute for
    /// near-zero entries).
    pub fn approx_eq(&self, other: &DenseMatrix, tol: f64) -> bool {
        if self.shape() != other.shape() {
            return false;
        }
        self.data.iter().zip(&other.data).all(|(&a, &b)| {
            let scale = a.abs().max(b.abs()).max(1.0);
            (a - b).abs() <= tol * scale
        })
    }

    /// The diagonal entries of the matrix (length `min(rows, cols)`).
    pub fn diag(&self) -> Vec<f64> {
        let n = self.rows.min(self.cols);
        (0..n).map(|i| self.data[i * self.cols + i]).collect()
    }
}

impl fmt::Debug for DenseMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "DenseMatrix {}x{} [", self.rows, self.cols)?;
        const MAX: usize = 8;
        for i in 0..self.rows.min(MAX) {
            write!(f, "  [")?;
            for j in 0..self.cols.min(MAX) {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:.4}", self.get(i, j))?;
            }
            if self.cols > MAX {
                write!(f, ", …")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > MAX {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_happy_path() {
        let m = DenseMatrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]).unwrap();
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.get(0, 2), 3.0);
        assert_eq!(m.get(1, 0), 4.0);
    }

    #[test]
    fn from_vec_bad_len() {
        let err = DenseMatrix::from_vec(2, 3, vec![1.0]).unwrap_err();
        assert!(matches!(err, DenseError::BufferLen { len: 1, .. }));
    }

    #[test]
    fn from_rows_jagged_rejected() {
        let err = DenseMatrix::try_from_rows(&[&[1.0, 2.0], &[3.0]]).unwrap_err();
        assert!(matches!(err, DenseError::Jagged { row: 1, .. }));
    }

    #[test]
    fn identity_and_diag() {
        let i3 = DenseMatrix::identity(3);
        assert_eq!(i3.diag(), vec![1.0, 1.0, 1.0]);
        assert_eq!(i3.nnz(), 3);
        let d = DenseMatrix::from_diag(&[2.0, 5.0]);
        assert_eq!(d.get(0, 0), 2.0);
        assert_eq!(d.get(1, 1), 5.0);
        assert_eq!(d.get(0, 1), 0.0);
    }

    #[test]
    fn vectors() {
        let c = DenseMatrix::col_vector(&[1.0, 2.0]);
        assert_eq!(c.shape(), (2, 1));
        let r = DenseMatrix::row_vector(&[1.0, 2.0, 3.0]);
        assert_eq!(r.shape(), (1, 3));
    }

    #[test]
    fn row_and_col_access() {
        let m = DenseMatrix::from_rows(&[&[1., 2.], &[3., 4.], &[5., 6.]]);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.col(1), vec![2.0, 4.0, 6.0]);
        let rows: Vec<_> = m.row_iter().collect();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[2], &[5.0, 6.0]);
    }

    #[test]
    fn from_fn_fills_in_row_major_order() {
        let m = DenseMatrix::from_fn(2, 2, |i, j| (i * 10 + j) as f64);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 10.0, 11.0]);
    }

    #[test]
    fn approx_eq_tolerances() {
        let a = DenseMatrix::filled(2, 2, 1.0);
        let mut b = a.clone();
        b.set(0, 0, 1.0 + 1e-12);
        assert!(a.approx_eq(&b, 1e-9));
        b.set(0, 0, 1.1);
        assert!(!a.approx_eq(&b, 1e-9));
        let c = DenseMatrix::zeros(2, 3);
        assert!(!a.approx_eq(&c, 1e-9));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        DenseMatrix::zeros(2, 2).get(2, 0);
    }

    #[test]
    fn empty_matrix() {
        let m = DenseMatrix::zeros(0, 5);
        assert!(m.is_empty());
        assert_eq!(m.rows(), 0);
        assert_eq!(m.nnz(), 0);
    }
}
