//! The [`CsrMatrix`] type: representation, constructors, and accessors.

use crate::{SparseError, SparseResult};
use std::fmt;

/// A coordinate-format entry `(row, col, value)` used to build CSR matrices.
pub type Triplet = (usize, usize, f64);

/// A compressed-sparse-row `f64` matrix.
///
/// Representation: `indptr` has `rows + 1` entries; the non-zeros of row `i`
/// live at positions `indptr[i]..indptr[i + 1]` of `indices` (column ids,
/// sorted ascending within a row) and `values`.
#[derive(Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    indptr: Vec<usize>,
    indices: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Creates an empty (all-zero) sparse matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            indptr: vec![0; rows + 1],
            indices: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Creates the `n x n` sparse identity matrix.
    pub fn identity(n: usize) -> Self {
        Self {
            rows: n,
            cols: n,
            indptr: (0..=n).collect(),
            indices: (0..n).collect(),
            values: vec![1.0; n],
        }
    }

    /// Builds a CSR matrix from coordinate triplets. Duplicate coordinates
    /// are summed. Explicit zeros are dropped.
    pub fn from_triplets(rows: usize, cols: usize, triplets: &[Triplet]) -> SparseResult<Self> {
        for &(r, c, _) in triplets {
            if r >= rows || c >= cols {
                return Err(SparseError::IndexOutOfBounds {
                    row: r,
                    col: c,
                    rows,
                    cols,
                });
            }
        }
        // Counting sort by row.
        let mut counts = vec![0usize; rows + 1];
        for &(r, _, _) in triplets {
            counts[r + 1] += 1;
        }
        for i in 0..rows {
            counts[i + 1] += counts[i];
        }
        let mut order = counts.clone();
        let mut cols_tmp = vec![0usize; triplets.len()];
        let mut vals_tmp = vec![0.0f64; triplets.len()];
        for &(r, c, v) in triplets {
            let pos = order[r];
            cols_tmp[pos] = c;
            vals_tmp[pos] = v;
            order[r] += 1;
        }
        // Sort within each row, merging duplicates and dropping zeros.
        let mut indptr = Vec::with_capacity(rows + 1);
        let mut indices = Vec::with_capacity(triplets.len());
        let mut values = Vec::with_capacity(triplets.len());
        indptr.push(0);
        let mut scratch: Vec<(usize, f64)> = Vec::new();
        for i in 0..rows {
            scratch.clear();
            scratch.extend(
                cols_tmp[counts[i]..counts[i + 1]]
                    .iter()
                    .copied()
                    .zip(vals_tmp[counts[i]..counts[i + 1]].iter().copied()),
            );
            scratch.sort_unstable_by_key(|&(c, _)| c);
            let mut iter = scratch.iter().copied().peekable();
            while let Some((c, mut v)) = iter.next() {
                while iter.peek().is_some_and(|&(c2, _)| c2 == c) {
                    v += iter.next().unwrap().1;
                }
                if v != 0.0 {
                    indices.push(c);
                    values.push(v);
                }
            }
            indptr.push(indices.len());
        }
        Ok(Self {
            rows,
            cols,
            indptr,
            indices,
            values,
        })
    }

    /// Builds a CSR matrix from raw arrays, validating the invariants.
    pub fn from_raw(
        rows: usize,
        cols: usize,
        indptr: Vec<usize>,
        indices: Vec<usize>,
        values: Vec<f64>,
    ) -> SparseResult<Self> {
        if indptr.len() != rows + 1 {
            return Err(SparseError::MalformedCsr(format!(
                "indptr length {} != rows + 1 = {}",
                indptr.len(),
                rows + 1
            )));
        }
        if indptr[0] != 0 || *indptr.last().unwrap() != indices.len() {
            return Err(SparseError::MalformedCsr(
                "indptr does not start at 0 / end at nnz".into(),
            ));
        }
        if indices.len() != values.len() {
            return Err(SparseError::MalformedCsr(
                "indices and values lengths differ".into(),
            ));
        }
        for w in indptr.windows(2) {
            if w[0] > w[1] {
                return Err(SparseError::MalformedCsr("indptr not monotone".into()));
            }
        }
        for i in 0..rows {
            let row = &indices[indptr[i]..indptr[i + 1]];
            for w in row.windows(2) {
                if w[0] >= w[1] {
                    return Err(SparseError::MalformedCsr(format!(
                        "row {i} column indices not strictly increasing"
                    )));
                }
            }
            if let Some(&last) = row.last() {
                if last >= cols {
                    return Err(SparseError::MalformedCsr(format!(
                        "row {i} has column {last} >= cols {cols}"
                    )));
                }
            }
        }
        Ok(Self {
            rows,
            cols,
            indptr,
            indices,
            values,
        })
    }

    /// Builds a CSR matrix from raw arrays without validation.
    ///
    /// Intended for kernels in this crate that construct valid output by
    /// construction; external callers should prefer [`CsrMatrix::from_raw`].
    pub(crate) fn from_raw_unchecked(
        rows: usize,
        cols: usize,
        indptr: Vec<usize>,
        indices: Vec<usize>,
        values: Vec<f64>,
    ) -> Self {
        debug_assert_eq!(indptr.len(), rows + 1);
        debug_assert_eq!(indices.len(), values.len());
        Self {
            rows,
            cols,
            indptr,
            indices,
            values,
        }
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

    /// Number of stored non-zero entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Fill fraction `nnz / (rows * cols)`; `0.0` for empty shapes.
    pub fn density(&self) -> f64 {
        if self.rows == 0 || self.cols == 0 {
            0.0
        } else {
            self.nnz() as f64 / (self.rows as f64 * self.cols as f64)
        }
    }

    /// The row-pointer array (`rows + 1` entries).
    #[inline]
    pub fn indptr(&self) -> &[usize] {
        &self.indptr
    }

    /// The column-index array (one entry per non-zero).
    #[inline]
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// The non-zero values array.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable access to the non-zero values (structure is fixed).
    #[inline]
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// The `(column, value)` pairs of row `i`.
    ///
    /// # Panics
    /// Panics if `i >= rows`.
    #[inline]
    pub fn row(&self, i: usize) -> (&[usize], &[f64]) {
        assert!(i < self.rows, "row {i} out of bounds ({} rows)", self.rows);
        let lo = self.indptr[i];
        let hi = self.indptr[i + 1];
        (&self.indices[lo..hi], &self.values[lo..hi])
    }

    /// Reads a single element (binary search within the row).
    ///
    /// # Panics
    /// Panics if out of bounds.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i}, {j}) out of bounds for {}x{} matrix",
            self.rows,
            self.cols
        );
        let (cols, vals) = self.row(i);
        match cols.binary_search(&j) {
            Ok(pos) => vals[pos],
            Err(_) => 0.0,
        }
    }

    /// Iterator over all stored entries as `(row, col, value)` triplets.
    pub fn triplet_iter(&self) -> impl Iterator<Item = Triplet> + '_ {
        (0..self.rows).flat_map(move |i| {
            let (cols, vals) = self.row(i);
            cols.iter().zip(vals).map(move |(&c, &v)| (i, c, v))
        })
    }
}

impl fmt::Debug for CsrMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CsrMatrix {}x{} (nnz = {}, density = {:.4})",
            self.rows,
            self.cols,
            self.nnz(),
            self.density()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_triplets_sorts_merges_and_drops_zeros() {
        let m =
            CsrMatrix::from_triplets(2, 3, &[(1, 2, 5.0), (0, 1, 1.0), (0, 1, 2.0), (1, 0, 0.0)])
                .unwrap();
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.get(0, 1), 3.0);
        assert_eq!(m.get(1, 2), 5.0);
        assert_eq!(m.get(1, 0), 0.0);
    }

    #[test]
    fn from_triplets_rejects_out_of_bounds() {
        let err = CsrMatrix::from_triplets(2, 2, &[(2, 0, 1.0)]).unwrap_err();
        assert!(matches!(err, SparseError::IndexOutOfBounds { row: 2, .. }));
    }

    #[test]
    fn from_raw_validates() {
        assert!(CsrMatrix::from_raw(2, 2, vec![0, 1, 2], vec![0, 1], vec![1.0, 2.0]).is_ok());
        // non-monotone indptr
        assert!(CsrMatrix::from_raw(2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 2.0]).is_err());
        // unsorted columns within a row
        assert!(CsrMatrix::from_raw(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 2.0]).is_err());
        // column out of range
        assert!(CsrMatrix::from_raw(1, 2, vec![0, 1], vec![5], vec![1.0]).is_err());
        // wrong indptr length
        assert!(CsrMatrix::from_raw(2, 2, vec![0, 1], vec![0], vec![1.0]).is_err());
    }

    #[test]
    fn identity_and_density() {
        let i = CsrMatrix::identity(4);
        assert_eq!(i.nnz(), 4);
        assert_eq!(i.get(3, 3), 1.0);
        assert_eq!(i.get(3, 0), 0.0);
        assert!((i.density() - 0.25).abs() < 1e-12);
        assert_eq!(CsrMatrix::zeros(0, 0).density(), 0.0);
    }

    #[test]
    fn triplet_iter_round_trip() {
        let m = CsrMatrix::from_triplets(3, 3, &[(0, 2, 1.0), (2, 0, 2.0), (1, 1, 3.0)]).unwrap();
        let trips: Vec<_> = m.triplet_iter().collect();
        let m2 = CsrMatrix::from_triplets(3, 3, &trips).unwrap();
        assert_eq!(m, m2);
    }
}
