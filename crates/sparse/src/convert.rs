//! Conversions and structural transformations: densification, transpose,
//! gather, and stacking.

use crate::CsrMatrix;
use morpheus_dense::DenseMatrix;

impl CsrMatrix {
    /// Converts to a dense matrix.
    pub fn to_dense(&self) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.rows(), self.cols());
        for i in 0..self.rows() {
            let (cols, vals) = self.row(i);
            let orow = out.row_mut(i);
            for (&c, &v) in cols.iter().zip(vals) {
                orow[c] = v;
            }
        }
        out
    }

    /// Builds a CSR matrix from a dense one, dropping exact zeros.
    pub fn from_dense(m: &DenseMatrix) -> CsrMatrix {
        let mut indptr = Vec::with_capacity(m.rows() + 1);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        indptr.push(0);
        for row in m.row_iter() {
            for (j, &v) in row.iter().enumerate() {
                if v != 0.0 {
                    indices.push(j);
                    values.push(v);
                }
            }
            indptr.push(indices.len());
        }
        CsrMatrix::from_raw_unchecked(m.rows(), m.cols(), indptr, indices, values)
    }

    /// Matrix transpose, returned in CSR form.
    ///
    /// Uses a counting sort over columns: O(nnz + rows + cols).
    pub fn transpose(&self) -> CsrMatrix {
        let (m, n) = self.shape();
        let nnz = self.nnz();
        let mut indptr = vec![0usize; n + 1];
        for &c in self.indices() {
            indptr[c + 1] += 1;
        }
        for j in 0..n {
            indptr[j + 1] += indptr[j];
        }
        let mut cursor = indptr.clone();
        let mut indices = vec![0usize; nnz];
        let mut values = vec![0.0f64; nnz];
        for i in 0..m {
            let (cols, vals) = self.row(i);
            for (&c, &v) in cols.iter().zip(vals) {
                let pos = cursor[c];
                indices[pos] = i;
                values[pos] = v;
                cursor[c] += 1;
            }
        }
        CsrMatrix::from_raw_unchecked(n, m, indptr, indices, values)
    }

    /// Copies the rows at the given indices (gather), allowing repeats.
    ///
    /// For an indicator matrix `K` with assignment `a`, `R.gather_rows(&a)`
    /// materializes `K * R` directly — this is the fast path for join
    /// materialization.
    ///
    /// # Panics
    /// Panics if any index is out of bounds.
    pub fn gather_rows(&self, rows: &[usize]) -> CsrMatrix {
        let mut indptr = Vec::with_capacity(rows.len() + 1);
        indptr.push(0);
        let mut nnz = 0usize;
        for &r in rows {
            assert!(
                r < self.rows(),
                "gather_rows: index {r} out of bounds ({} rows)",
                self.rows()
            );
            nnz += self.row(r).0.len();
            indptr.push(nnz);
        }
        let mut indices = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        for &r in rows {
            let (cols, vals) = self.row(r);
            indices.extend_from_slice(cols);
            values.extend_from_slice(vals);
        }
        CsrMatrix::from_raw_unchecked(rows.len(), self.cols(), indptr, indices, values)
    }

    /// Horizontal concatenation `[self, other]` in CSR form.
    ///
    /// # Panics
    /// Panics if the row counts differ.
    pub fn hstack(&self, other: &CsrMatrix) -> CsrMatrix {
        CsrMatrix::hstack_all(&[self, other])
    }

    /// Horizontal concatenation of any number of blocks.
    ///
    /// # Panics
    /// Panics if the blocks disagree on row count or the list is empty.
    pub fn hstack_all(blocks: &[&CsrMatrix]) -> CsrMatrix {
        assert!(!blocks.is_empty(), "hstack_all: no blocks");
        let rows = blocks[0].rows();
        for b in blocks {
            assert_eq!(b.rows(), rows, "hstack_all: row counts differ");
        }
        let cols: usize = blocks.iter().map(|b| b.cols()).sum();
        let nnz: usize = blocks.iter().map(|b| b.nnz()).sum();
        let mut indptr = Vec::with_capacity(rows + 1);
        let mut indices = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        indptr.push(0);
        for i in 0..rows {
            let mut off = 0usize;
            for b in blocks {
                let (bc, bv) = b.row(i);
                indices.extend(bc.iter().map(|&c| c + off));
                values.extend_from_slice(bv);
                off += b.cols();
            }
            indptr.push(indices.len());
        }
        CsrMatrix::from_raw_unchecked(rows, cols, indptr, indices, values)
    }

    /// Vertical concatenation of `self` on top of `other`.
    ///
    /// # Panics
    /// Panics if the column counts differ.
    pub fn vstack(&self, other: &CsrMatrix) -> CsrMatrix {
        assert_eq!(
            self.cols(),
            other.cols(),
            "vstack: column counts differ ({} vs {})",
            self.cols(),
            other.cols()
        );
        let rows = self.rows() + other.rows();
        let mut indptr = Vec::with_capacity(rows + 1);
        indptr.extend_from_slice(self.indptr());
        let base = self.nnz();
        indptr.extend(other.indptr()[1..].iter().map(|&p| p + base));
        let mut indices = Vec::with_capacity(self.nnz() + other.nnz());
        indices.extend_from_slice(self.indices());
        indices.extend_from_slice(other.indices());
        let mut values = Vec::with_capacity(self.nnz() + other.nnz());
        values.extend_from_slice(self.values());
        values.extend_from_slice(other.values());
        CsrMatrix::from_raw_unchecked(rows, self.cols(), indptr, indices, values)
    }

    /// Copies the row range into a new CSR matrix.
    ///
    /// # Panics
    /// Panics if `range.end > rows`.
    pub fn slice_rows(&self, range: std::ops::Range<usize>) -> CsrMatrix {
        assert!(
            range.end <= self.rows(),
            "slice_rows: range end {} exceeds {} rows",
            range.end,
            self.rows()
        );
        let lo = self.indptr()[range.start];
        let hi = self.indptr()[range.end];
        let indptr: Vec<usize> = self.indptr()[range.start..=range.end]
            .iter()
            .map(|&p| p - lo)
            .collect();
        CsrMatrix::from_raw_unchecked(
            range.len(),
            self.cols(),
            indptr,
            self.indices()[lo..hi].to_vec(),
            self.values()[lo..hi].to_vec(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        CsrMatrix::from_triplets(3, 4, &[(0, 1, 1.0), (0, 3, 2.0), (1, 0, 3.0), (2, 2, 4.0)])
            .unwrap()
    }

    #[test]
    fn dense_round_trip() {
        let m = sample();
        let d = m.to_dense();
        assert_eq!(d.get(0, 3), 2.0);
        assert_eq!(d.get(1, 1), 0.0);
        assert_eq!(CsrMatrix::from_dense(&d), m);
    }

    #[test]
    fn transpose_matches_dense_transpose() {
        let m = sample();
        let t = m.transpose();
        assert_eq!(t.shape(), (4, 3));
        assert_eq!(t.to_dense(), m.to_dense().transpose());
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn gather_rows_materializes_indicator_product() {
        let r = sample();
        let assign = [2, 0, 0, 1];
        let trips: Vec<_> = assign
            .iter()
            .enumerate()
            .map(|(i, &j)| (i, j, 1.0))
            .collect();
        let k = CsrMatrix::from_triplets(4, 3, &trips).unwrap();
        let via_gather = r.gather_rows(&assign);
        let via_product = k.spmm_dense(&r.to_dense());
        assert_eq!(via_gather.to_dense(), via_product);
    }

    #[test]
    fn hstack_and_vstack() {
        let a = sample();
        let b = CsrMatrix::identity(3);
        let h = a.hstack(&b);
        assert_eq!(h.shape(), (3, 7));
        assert_eq!(h.get(1, 0), 3.0);
        assert_eq!(h.get(1, 5), 1.0);
        assert_eq!(h.to_dense(), a.to_dense().hstack(&b.to_dense()));

        let c = CsrMatrix::from_triplets(2, 4, &[(0, 0, 9.0)]).unwrap();
        let v = a.vstack(&c);
        assert_eq!(v.shape(), (5, 4));
        assert_eq!(v.to_dense(), a.to_dense().vstack(&c.to_dense()));
    }

    #[test]
    fn slice_rows_matches_dense() {
        let m = sample();
        let s = m.slice_rows(1..3);
        assert_eq!(s.to_dense(), m.to_dense().slice_rows(1..3));
        assert_eq!(m.slice_rows(0..0).rows(), 0);
    }

    #[test]
    fn transpose_empty() {
        let z = CsrMatrix::zeros(3, 5);
        assert_eq!(z.transpose().shape(), (5, 3));
        assert_eq!(z.transpose().nnz(), 0);
    }
}
