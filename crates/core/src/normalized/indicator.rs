//! The indicator `K` of a part, stored as its foreign-key column.
//!
//! Every indicator the paper builds (PK-FK `K` §3.1, star `Kᵢ` §3.5, M:N
//! `I_S`/`I_R` §3.6) has one `1` per row, so the base rows it selects
//! describe it completely and a `K` that is not one-hot cannot be stored.
//! Only this module knows how `K` is stored; where a rewrite needs it as a
//! general sparse operand (`Kᵀ S` for sparse `S`, `K G Kᵀ`, DMM blocks), a
//! CSR copy is built for that product.
//!
//! Results are bitwise those of the CSR kernels on the same `K`: every
//! value is `1.0`, so `o += 1.0 · x` and `o += x` round alike, and `Kᵀ X`
//! sums each output row's sources in ascending row order, as the CSR
//! scatter does.

use crate::{AttributePart, CoreError, CoreResult, Matrix};
use morpheus_dense::DenseMatrix;
use morpheus_runtime::Runtime;
use morpheus_sparse::CsrMatrix;
use std::sync::{Arc, OnceLock};

/// How a part's base table maps into the logical join output.
#[derive(Debug, Clone)]
pub enum Indicator {
    /// The part contributes its base table unchanged (PK-FK entity table).
    Identity,
    /// The part contributes `K * B`. Shared via `Arc`: indicators are
    /// immutable across rewrites (scalar operators produce new base tables
    /// but reuse them), so clones also share the lazy grouping by key.
    Rows(Arc<KeyColumn>),
}

impl Indicator {
    /// Logical rows this indicator produces from `table_rows` base rows.
    pub fn n_out(&self, table_rows: usize) -> usize {
        self.as_rows().map_or(table_rows, KeyColumn::rows)
    }

    /// `true` for the identity indicator.
    pub fn is_identity(&self) -> bool {
        matches!(self, Indicator::Identity)
    }

    /// The key column, unless this is the identity.
    pub fn as_rows(&self) -> Option<&KeyColumn> {
        match self {
            Indicator::Identity => None,
            Indicator::Rows(k) => Some(k),
        }
    }

    /// The row assignment `a` with `K[i, a[i]] = 1` (identity ⇒ `a[i] = i`).
    pub fn assignment(&self, table_rows: usize) -> Vec<usize> {
        match self {
            Indicator::Identity => (0..table_rows).collect(),
            Indicator::Rows(k) => k.wide_keys(),
        }
    }

    /// `out += K * x` for dense `x`, without allocating `K x` — the hot
    /// inner step of the LMM rewrite. `out` is a row-major
    /// `out_rows x x.cols()` slice, so callers can reuse one allocation.
    pub(crate) fn apply_add_into(&self, x: &DenseMatrix, out: &mut [f64], out_rows: usize) {
        debug_assert_eq!(out.len(), out_rows * x.cols());
        debug_assert_eq!(self.n_out(x.rows()), out_rows);
        match self {
            Indicator::Identity => out.iter_mut().zip(x.as_slice()).for_each(|(o, &v)| *o += v),
            Indicator::Rows(k) => k.gather_add(x, 0..k.rows(), out),
        }
    }

    /// `K * m` for either representation of `m`: a row gather.
    pub(crate) fn apply_m(&self, m: &Matrix) -> Matrix {
        self.as_rows().map_or_else(|| m.clone(), |k| k.apply_m(m))
    }

    /// `Kᵀ * m` for either representation of `m`.
    pub(crate) fn apply_t_m(&self, m: &Matrix) -> Matrix {
        match (self, m) {
            (Indicator::Identity, _) => m.clone(),
            (Indicator::Rows(k), Matrix::Dense(d)) => Matrix::Dense(k.t_spmm_dense(d)),
            (Indicator::Rows(k), Matrix::Sparse(s)) => Matrix::Sparse(k.csr_t().spgemm(s)),
        }
    }
}

/// A one-hot indicator `K` (`rows x table_rows`) held as its key column:
/// `K[i, keys()[i]] = 1`, every other entry zero.
pub struct KeyColumn {
    keys: Vec<u32>,
    table_rows: usize,
    /// `Kᵀ`'s rows `(start, src)`, a counting-sort permutation built on
    /// first use: key `c` owns rows `src[start[c]..start[c + 1]]`, ascending.
    by_key: OnceLock<(Vec<usize>, Vec<u32>)>,
}

impl std::fmt::Debug for KeyColumn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "KeyColumn {}x{}", self.rows(), self.table_rows)
    }
}

impl PartialEq for KeyColumn {
    fn eq(&self, other: &Self) -> bool {
        (self.table_rows, &self.keys) == (other.table_rows, &other.keys)
    }
}

impl KeyColumn {
    /// The indicator whose row `i` selects row `keys[i]` of a
    /// `table_rows`-row base table: `K` from a foreign-key column, or
    /// `I_S`/`I_R` from the provenance columns of an M:N join.
    ///
    /// # Errors
    /// [`CoreError::KeyOutOfRange`] for the first key `>= table_rows`.
    ///
    /// # Panics
    /// Panics if the table or the key column has `2³²` rows or more.
    pub fn new(keys: &[usize], table_rows: usize) -> CoreResult<Self> {
        u32::try_from(table_rows.max(keys.len())).expect("key column of 2^32 rows or more");
        if let Some((row, &key)) = keys.iter().enumerate().find(|&(_, &k)| k >= table_rows) {
            return Err(CoreError::KeyOutOfRange {
                row,
                key,
                table_rows,
            });
        }
        let keys = keys.iter().map(|&k| k as u32).collect();
        Ok(Self::from_keys(keys, table_rows))
    }

    fn from_keys(keys: Vec<u32>, table_rows: usize) -> Self {
        let by_key = OnceLock::new();
        Self {
            keys,
            table_rows,
            by_key,
        }
    }

    /// Logical rows (rows of `K`).
    pub fn rows(&self) -> usize {
        self.keys.len()
    }

    /// Base-table rows (columns of `K`).
    pub fn table_rows(&self) -> usize {
        self.table_rows
    }

    /// `(rows, table_rows)`: the shape of `K`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows(), self.table_rows)
    }

    /// The base-table row each logical row selects.
    pub fn keys(&self) -> &[u32] {
        &self.keys
    }

    /// `K m` for either representation of `m`: a row gather.
    pub(crate) fn apply_m(&self, m: &Matrix) -> Matrix {
        m.gather_rows(&self.wide_keys())
    }

    fn wide_keys(&self) -> Vec<usize> {
        self.keys.iter().map(|&c| c as usize).collect()
    }

    fn by_key(&self) -> &(Vec<usize>, Vec<u32>) {
        self.by_key.get_or_init(|| {
            let mut start = vec![0usize; self.table_rows + 1];
            for &c in &self.keys {
                start[c as usize + 1] += 1;
            }
            for c in 0..self.table_rows {
                start[c + 1] += start[c];
            }
            let (mut fill, mut src) = (start.clone(), vec![0u32; self.keys.len()]);
            for (i, &c) in self.keys.iter().enumerate() {
                src[fill[c as usize]] = i as u32;
                fill[c as usize] += 1;
            }
            (start, src)
        })
    }

    /// `out[j, :] += K[ids[j], :] * x` for each `j` — the fused gather-add
    /// of the LMM rewrite over any selection of logical rows. The
    /// expression per output element does not depend on which other rows
    /// are selected, so a row scored alone and the same row inside a
    /// full-table pass agree bit for bit.
    pub(crate) fn gather_add(
        &self,
        x: &DenseMatrix,
        ids: impl Iterator<Item = usize>,
        out: &mut [f64],
    ) {
        let row = |i: usize| x.row(self.keys[i] as usize);
        match x.cols() {
            0 => {}
            1 => out.iter_mut().zip(ids).for_each(|(o, i)| *o += row(i)[0]),
            m => {
                for (orow, i) in out.chunks_exact_mut(m).zip(ids) {
                    orow.iter_mut().zip(row(i)).for_each(|(o, &v)| *o += v);
                }
            }
        }
    }

    /// `K x`: row `i` is row `keys()[i]` of `x`. Panics unless `x` has
    /// `table_rows()` rows.
    pub fn spmm_dense(&self, x: &DenseMatrix) -> DenseMatrix {
        assert_eq!(x.rows(), self.table_rows, "K x: x has the wrong height");
        let mut out = DenseMatrix::zeros(self.rows(), x.cols());
        self.gather_add(x, 0..self.rows(), out.as_mut_slice());
        out
    }

    /// `Kᵀ x`: row `c` sums, ascending, the rows of `x` with key `c` — one
    /// segmented reduce over the grouping by key. Panics unless `x` has
    /// `rows()` rows.
    pub fn t_spmm_dense(&self, x: &DenseMatrix) -> DenseMatrix {
        assert_eq!(x.rows(), self.rows(), "Kᵀ x: x has the wrong height");
        let (start, src) = self.by_key();
        by_rows(self.table_rows, x.cols(), x.len(), |c, orow| {
            let rows = src[start[c]..start[c + 1]].iter().map(|&s| s as usize);
            match orow {
                [o] => rows.for_each(|s| *o += x.as_slice()[s]),
                _ => rows.for_each(|s| orow.iter_mut().zip(x.row(s)).for_each(|(o, &v)| *o += v)),
            }
        })
    }

    /// `x K`: entry `(i, c)` sums, ascending, row `i` of `x` at the rows
    /// with key `c`. Panics unless `x` has `rows()` columns.
    pub fn dense_spmm(&self, x: &DenseMatrix) -> DenseMatrix {
        assert_eq!(x.cols(), self.rows(), "x K: x has the wrong width");
        by_rows(x.rows(), self.table_rows, x.len(), |i, orow| {
            for (&c, &v) in self.keys.iter().zip(x.row(i)) {
                orow[c as usize] += v;
            }
        })
    }

    /// `colSums(K)` as a `1 x table_rows` row: how many logical rows
    /// reference each base row.
    pub fn col_sums(&self) -> DenseMatrix {
        let start = &self.by_key().0;
        let counts: Vec<f64> = start.windows(2).map(|w| (w[1] - w[0]) as f64).collect();
        DenseMatrix::row_vector(&counts)
    }

    /// `Kᵀ L` for an indicator `L` over the same logical rows: entry
    /// `(a, b)` counts the rows with key `a` here and `b` in `other`
    /// (§3.5's `Kᵢᵀ Kⱼ`, appendix C's `P`; `Kᵀ K = diag(colSums(K))`).
    /// Panics if the logical row counts differ.
    pub fn pair_counts(&self, other: &KeyColumn) -> CsrMatrix {
        assert_eq!(self.rows(), other.rows(), "Kᵀ L: row counts differ");
        let pair = |(&a, &b): (&u32, &u32)| (a as usize, b as usize, 1.0);
        let pairs: Vec<_> = self.keys.iter().zip(&other.keys).map(pair).collect();
        CsrMatrix::from_triplets(self.table_rows, other.table_rows, &pairs).expect("keys in range")
    }

    /// `K G Kᵀ` for a `G` over the base rows: a part's Gram-matrix term.
    pub(crate) fn sandwich(&self, g: &DenseMatrix) -> DenseMatrix {
        self.csr_t().dense_spmm(&self.spmm_dense(g))
    }

    /// `K` as a general sparse operand, for the DMM blocks.
    pub(crate) fn to_sparse(&self) -> Matrix {
        let (n, keys) = (self.rows(), self.wide_keys());
        let k = CsrMatrix::from_raw(n, self.table_rows, (0..=n).collect(), keys, vec![1.0; n]);
        Matrix::Sparse(k.expect("one in-range entry per row"))
    }

    fn csr_t(&self) -> CsrMatrix {
        let (start, src) = self.by_key();
        let (n, src) = (self.rows(), src.iter().map(|&s| s as usize).collect());
        CsrMatrix::from_raw(self.table_rows, n, start.to_vec(), src, vec![1.0; n]).expect("by key")
    }

    /// The part `K B` with the logical rows `keys` appended to `K`.
    pub(crate) fn append(&self, keys: &[usize], table: &Matrix) -> CoreResult<AttributePart> {
        let add = Self::new(keys, self.table_rows)?;
        let k = Self::from_keys([&self.keys[..], &add.keys].concat(), self.table_rows);
        Ok(keyed_part(k, table.clone()))
    }

    /// Rows `rows` of the part `K B` (repeats and any order allowed),
    /// keeping only the base rows they reference, numbered in first-use
    /// order so the result is deterministic.
    pub(crate) fn select(&self, rows: &[usize], table: &Matrix) -> AttributePart {
        let mut keep: Vec<usize> = Vec::new();
        let mut first_use = |old: u32| {
            keep.push(old as usize);
            keep.len() as u32 - 1
        };
        // The dense remap is O(table_rows) to zero, so small slices of big
        // tables use a map keyed by base row instead.
        let keys = if rows.len() * 8 >= self.table_rows {
            let mut remap = vec![u32::MAX; self.table_rows];
            let mut renumber = |old: u32| {
                let slot = &mut remap[old as usize];
                if *slot == u32::MAX {
                    *slot = first_use(old);
                }
                *slot
            };
            rows.iter().map(|&r| renumber(self.keys[r])).collect()
        } else {
            let mut remap = std::collections::HashMap::with_capacity(rows.len());
            let mut renumber = |old: u32| *remap.entry(old).or_insert_with(|| first_use(old));
            rows.iter().map(|&r| renumber(self.keys[r])).collect()
        };
        keyed_part(Self::from_keys(keys, keep.len()), table.gather_rows(&keep))
    }

    /// The part `K B` over only the base rows some logical row references,
    /// kept in ascending order; `None` when every base row is referenced.
    pub(crate) fn prune(&self, table: &Matrix) -> Option<AttributePart> {
        let (start, mut keep) = (&self.by_key().0, Vec::new());
        let mut remap = vec![0u32; self.table_rows];
        for c in (0..self.table_rows).filter(|&c| start[c] < start[c + 1]) {
            remap[c] = keep.len() as u32;
            keep.push(c);
        }
        let keys = self.keys.iter().map(|&c| remap[c as usize]).collect();
        (keep.len() < self.table_rows)
            .then(|| keyed_part(Self::from_keys(keys, keep.len()), table.gather_rows(&keep)))
    }
}

pub(super) fn keyed_part(k: KeyColumn, table: Matrix) -> AttributePart {
    AttributePart::new(Indicator::Rows(Arc::new(k)), table)
}

/// An `n x m` result whose row `i` is accumulated by `f(i, row)`,
/// in bands on the shared runtime once `work` clears the parallelism gate.
/// Each output row has one writer, so any worker count gives the same bits.
fn by_rows(n: usize, m: usize, work: usize, f: impl Fn(usize, &mut [f64]) + Sync) -> DenseMatrix {
    let mut out = DenseMatrix::zeros(n, m);
    if !out.is_empty() {
        let ex = Runtime::executor().gated(work);
        let band = ex.grain(n);
        ex.par_chunks_mut(out.as_mut_slice(), band * m, |bi, chunk| {
            for (orow, i) in chunk.chunks_mut(m).zip(bi * band..) {
                f(i, orow);
            }
        });
    }
    out
}
