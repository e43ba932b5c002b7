//! [`ChunkedMatrix`]: a regular matrix stored as row chunks, with every
//! operator evaluated chunk-at-a-time — in parallel across resident
//! chunks, or streamed with double-buffered prefetch once chunks spill
//! to memory-mapped files.
//!
//! Chunks are resident until the process-wide budget
//! (`MORPHEUS_CHUNK_BYTES`, see [`crate::spill`]) is exhausted; dense
//! chunks beyond it spill to mmap-backed files and fault in on access.
//! Spilling and prefetch are pure execution details: every operator
//! result is bit-identical to the fully-resident (in-memory) evaluation
//! at any worker count, because chunk results are always combined in
//! chunk-index order and the underlying kernels are themselves
//! worker-count-invariant.

use crate::spill::{self, SpillFile};
use crate::LinearOperand;
use morpheus_core::{KeyColumn, Matrix, NormalizedMatrix};
use morpheus_dense::{DenseMatrix, ScalarOp};
use morpheus_linalg::ginv_sym_psd;
use morpheus_runtime::Runtime;
use std::borrow::Cow;
use std::sync::Arc;

/// One row chunk: resident in memory, or spilled to an mmap-backed file.
#[derive(Debug, Clone)]
enum ChunkStore {
    Resident(Matrix),
    Spilled(Arc<SpillFile>),
}

impl ChunkStore {
    fn rows(&self) -> usize {
        match self {
            ChunkStore::Resident(m) => m.rows(),
            ChunkStore::Spilled(f) => f.rows(),
        }
    }

    /// The chunk's values; for spilled chunks the copy out of the map is
    /// the fault-in.
    fn load(&self) -> Cow<'_, Matrix> {
        match self {
            ChunkStore::Resident(m) => Cow::Borrowed(m),
            ChunkStore::Spilled(f) => Cow::Owned(Matrix::Dense(f.load())),
        }
    }

    /// Approximate resident bytes if this chunk were kept in memory.
    fn bytes(m: &Matrix) -> u64 {
        if m.is_sparse() {
            // CSR: value + column index per entry, plus row pointers.
            (m.nnz() * 16 + (m.rows() + 1) * 8) as u64
        } else {
            (m.rows() * m.cols() * 8) as u64
        }
    }
}

/// A regular (materialized) matrix partitioned into row chunks — the "M"
/// side of the ORE experiments, and the memoized join representation of
/// the chunked planner route.
#[derive(Debug, Clone)]
pub struct ChunkedMatrix {
    chunks: Vec<ChunkStore>,
    rows: usize,
    cols: usize,
    /// Resident-byte budget chunks were admitted under; propagated to
    /// derived matrices (`scale`, `squared`).
    budget: u64,
}

impl ChunkedMatrix {
    /// Partitions `m` into row chunks of at most `chunk_rows` rows,
    /// spilling beyond the `MORPHEUS_CHUNK_BYTES` resident budget, with
    /// chunk-level parallelism drawn from the shared [`Runtime`] thread
    /// budget.
    ///
    /// # Panics
    /// Panics if `chunk_rows == 0`.
    pub fn new(m: &Matrix, chunk_rows: usize) -> Self {
        Self::with_budget(m, chunk_rows, spill::resident_budget_bytes())
    }

    /// [`ChunkedMatrix::new`] with an explicit resident budget in bytes
    /// instead of the environment default. `u64::MAX` never spills.
    pub fn with_budget(m: &Matrix, chunk_rows: usize, resident_budget_bytes: u64) -> Self {
        assert!(chunk_rows > 0, "ChunkedMatrix: chunk_rows must be positive");
        let rows = m.rows();
        let cols = m.cols();
        let mut admit = Admission::new(resident_budget_bytes);
        let mut chunks = Vec::with_capacity(rows.div_ceil(chunk_rows).max(1));
        let mut start = 0;
        while start < rows {
            let end = (start + chunk_rows).min(rows);
            chunks.push(admit.store(m.slice_rows(start..end)));
            start = end;
        }
        if chunks.is_empty() {
            chunks.push(ChunkStore::Resident(m.slice_rows(0..0)));
        }
        Self {
            chunks,
            rows,
            cols,
            budget: resident_budget_bytes,
        }
    }

    /// Builds the chunked join of a normalized matrix **without ever
    /// materializing the whole table**: each row band is materialized on
    /// its own and spilled (budget permitting) before the next band is
    /// built, so peak memory stays near one chunk once the resident
    /// budget is exhausted. Values are identical to
    /// `ChunkedMatrix::new(&t.materialize(), chunk_rows)`.
    pub fn from_normalized(t: &NormalizedMatrix, chunk_rows: usize) -> Self {
        Self::from_normalized_with_budget(t, chunk_rows, spill::resident_budget_bytes())
    }

    /// [`ChunkedMatrix::from_normalized`] with an explicit resident
    /// budget in bytes.
    pub fn from_normalized_with_budget(
        t: &NormalizedMatrix,
        chunk_rows: usize,
        resident_budget_bytes: u64,
    ) -> Self {
        assert!(chunk_rows > 0, "ChunkedMatrix: chunk_rows must be positive");
        let rows = t.rows();
        let cols = t.cols();
        let mut admit = Admission::new(resident_budget_bytes);
        let mut chunks = Vec::with_capacity(rows.div_ceil(chunk_rows).max(1));
        let mut start = 0;
        while start < rows {
            let end = (start + chunk_rows).min(rows);
            let band: Vec<usize> = (start..end).collect();
            chunks.push(admit.store(t.select_rows(&band).materialize()));
            start = end;
        }
        if chunks.is_empty() {
            chunks.push(ChunkStore::Resident(t.materialize().slice_rows(0..0)));
        }
        Self {
            chunks,
            rows,
            cols,
            budget: resident_budget_bytes,
        }
    }

    /// Number of chunks.
    pub fn n_chunks(&self) -> usize {
        self.chunks.len()
    }

    /// Number of chunks currently backed by spill files.
    pub fn n_spilled(&self) -> usize {
        self.chunks
            .iter()
            .filter(|c| matches!(c, ChunkStore::Spilled(_)))
            .count()
    }

    fn chunk_row_offsets(&self) -> Vec<usize> {
        let mut offs = Vec::with_capacity(self.chunks.len() + 1);
        let mut acc = 0;
        offs.push(0);
        for c in &self.chunks {
            acc += c.rows();
            offs.push(acc);
        }
        offs
    }

    /// Applies `f` to every chunk and returns the results **in chunk
    /// order** — the one combination order both evaluation modes share.
    /// All-resident matrices fan the chunks out across the executor of
    /// the shared [`Runtime`] budget, resolved at each call so it sees
    /// the *remaining* threads of enclosing parallel sections; once any
    /// chunk is spilled the walk turns into a stream with
    /// double-buffered prefetch: while chunk `i` computes on one
    /// `par_join` stride, chunk `i+1` faults in on the
    /// other, so at most two chunks are resident and the spill I/O
    /// overlaps the compute. Inner kernels see the remaining thread
    /// budget either way — the two parallelism levels compose without
    /// oversubscription.
    fn map_chunks<R: Send>(&self, f: impl Fn(&Matrix, usize) -> R + Sync + Send) -> Vec<R> {
        let n = self.chunks.len();
        let ex = Runtime::executor();
        if self.n_spilled() == 0 {
            return ex.map(n, |i| match &self.chunks[i] {
                ChunkStore::Resident(m) => f(m, i),
                ChunkStore::Spilled(s) => f(&Matrix::Dense(s.load()), i),
            });
        }
        let mut out = Vec::with_capacity(n);
        let mut cur = self.chunks[0].load();
        for i in 0..n {
            let (r, next) = ex.par_join(
                || f(&cur, i),
                || (i + 1 < n).then(|| self.chunks[i + 1].load()),
            );
            out.push(r);
            if let Some(nx) = next {
                cur = nx;
            }
        }
        out
    }

    /// Rebuilds a derived matrix from per-chunk results, re-admitting
    /// them under the same resident budget.
    fn derive(&self, chunks: Vec<Matrix>) -> Self {
        let mut admit = Admission::new(self.budget);
        Self {
            chunks: chunks.into_iter().map(|c| admit.store(c)).collect(),
            rows: self.rows,
            cols: self.cols,
            budget: self.budget,
        }
    }
}

/// Budgeted chunk admission: chunks are resident while the running
/// resident-byte total fits, and spill once it would not. Sparse chunks
/// and chunks that fail to spill (I/O error, injected fault, non-Unix
/// target) stay resident — counted as a [`spill::try_spill`] degradation
/// where an actual failure occurred, never a correctness hazard.
struct Admission {
    budget: u64,
    resident: u64,
}

impl Admission {
    fn new(budget: u64) -> Self {
        Admission {
            budget,
            resident: 0,
        }
    }

    fn store(&mut self, m: Matrix) -> ChunkStore {
        let bytes = ChunkStore::bytes(&m);
        let fits = self.resident.saturating_add(bytes) <= self.budget;
        if !fits && m.rows() * m.cols() > 0 {
            if let Some(f) = m.as_dense().and_then(spill::try_spill) {
                return ChunkStore::Spilled(Arc::new(f));
            }
        }
        self.resident += bytes;
        ChunkStore::Resident(m)
    }
}

impl LinearOperand for ChunkedMatrix {
    fn nrows(&self) -> usize {
        self.rows
    }

    fn ncols(&self) -> usize {
        self.cols
    }

    fn lmm(&self, x: &DenseMatrix) -> DenseMatrix {
        // Each chunk contributes its own output rows: rowapply + stack.
        let parts = self.map_chunks(|c, _| c.matmul_dense(x));
        let refs: Vec<&DenseMatrix> = parts.iter().collect();
        DenseMatrix::vstack_all(&refs)
    }

    fn t_lmm(&self, x: &DenseMatrix) -> DenseMatrix {
        // Tᵀ X = Σ chunks Cᵢᵀ Xᵢ: rowapply + chunk-ordered reduce.
        let offsets = self.chunk_row_offsets();
        let parts = self.map_chunks(|c, i| {
            let xi = x.slice_rows(offsets[i]..offsets[i + 1]);
            c.t_matmul_dense(&xi)
        });
        let mut acc = DenseMatrix::zeros(self.cols, x.cols());
        for p in parts {
            acc.add_assign(&p);
        }
        acc
    }

    fn t_lmm_indicator(&self, a: &KeyColumn) -> DenseMatrix {
        // Tᵀ A = Σ chunks Cᵢᵀ Aᵢ: group sums per chunk, chunk-ordered reduce.
        assert_eq!(
            a.rows(),
            self.rows,
            "t_lmm_indicator: A has the wrong height"
        );
        let offsets = self.chunk_row_offsets();
        let parts =
            self.map_chunks(|c, i| c.t_lmm_indicator(&a.slice_rows(offsets[i]..offsets[i + 1])));
        let mut acc = DenseMatrix::zeros(self.cols, a.table_rows());
        for p in parts {
            acc.add_assign(&p);
        }
        acc
    }

    fn rmm(&self, x: &DenseMatrix) -> DenseMatrix {
        // X T = Σᵢ X[:, rowsᵢ] Cᵢ: X splits by columns aligned with T's
        // row chunks.
        let offsets = self.chunk_row_offsets();
        let parts = self.map_chunks(|c, i| {
            let xi = x.slice_cols(offsets[i]..offsets[i + 1]);
            c.dense_matmul(&xi)
        });
        let mut acc = DenseMatrix::zeros(x.rows(), self.cols);
        for p in parts {
            acc.add_assign(&p);
        }
        acc
    }

    fn crossprod(&self) -> DenseMatrix {
        // TᵀT = Σ chunks CᵢᵀCᵢ.
        let parts = self.map_chunks(|c, _| c.crossprod());
        let mut acc = DenseMatrix::zeros(self.cols, self.cols);
        for p in parts {
            acc.add_assign(&p);
        }
        acc
    }

    fn row_sums(&self) -> DenseMatrix {
        let parts = self.map_chunks(|c, _| c.row_sums());
        let refs: Vec<&DenseMatrix> = parts.iter().collect();
        DenseMatrix::vstack_all(&refs)
    }

    fn col_sums(&self) -> DenseMatrix {
        let parts = self.map_chunks(|c, _| c.col_sums());
        let mut acc = DenseMatrix::zeros(1, self.cols);
        for p in parts {
            acc.add_assign(&p);
        }
        acc
    }

    fn sum(&self) -> f64 {
        // Chunk partials folded sequentially in chunk order — the same
        // grouping at every worker count, unlike a worker-shaped
        // reduction tree.
        self.map_chunks(|c, _| c.sum()).into_iter().sum()
    }

    fn scale(&self, x: f64) -> Self {
        self.derive(self.map_chunks(|c, _| c.apply(ScalarOp::Mul(x))))
    }

    fn squared(&self) -> Self {
        self.derive(self.map_chunks(|c, _| c.apply(ScalarOp::Pow(2.0))))
    }

    fn ginv(&self) -> DenseMatrix {
        // Same §3.3.6 identity as everywhere else; both the cross-product
        // and the closing LMM stream chunk-at-a-time.
        let (n, d) = (self.rows, self.cols);
        if d < n {
            let g = ginv_sym_psd(&self.crossprod());
            self.lmm(&g).transpose()
        } else {
            let t = self.materialize().to_dense();
            morpheus_linalg::ginv(&t)
        }
    }

    fn materialize(&self) -> Matrix {
        let denses = self.map_chunks(|c, _| c.to_dense());
        let refs: Vec<&DenseMatrix> = denses.iter().collect();
        Matrix::Dense(DenseMatrix::vstack_all(&refs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (Matrix, ChunkedMatrix) {
        let m = Matrix::Dense(DenseMatrix::from_fn(23, 4, |i, j| {
            ((i * 5 + j * 3) % 11) as f64 - 4.0
        }));
        let c = ChunkedMatrix::new(&m, 5);
        (m, c)
    }

    #[test]
    fn chunking_covers_all_rows() {
        let (m, c) = sample();
        assert_eq!(c.n_chunks(), 5); // 23 rows / 5 = 5 chunks
        assert_eq!(c.nrows(), 23);
        assert!(c.materialize().approx_eq(&m, 0.0));
    }

    #[test]
    fn operators_match_in_memory() {
        let (m, c) = sample();
        let x = DenseMatrix::from_fn(4, 2, |i, j| (i + j) as f64 * 0.5);
        assert!(c.lmm(&x).approx_eq(&m.matmul_dense(&x), 1e-12));
        let y = DenseMatrix::from_fn(23, 2, |i, j| ((i * 2 + j) % 5) as f64);
        assert!(c.t_lmm(&y).approx_eq(&m.t_matmul_dense(&y), 1e-12));
        let z = DenseMatrix::from_fn(3, 23, |i, j| ((i + j) % 4) as f64 - 1.0);
        assert!(c.rmm(&z).approx_eq(&m.dense_matmul(&z), 1e-12));
        assert!(LinearOperand::crossprod(&c).approx_eq(&m.crossprod(), 1e-12));
        assert_eq!(LinearOperand::row_sums(&c), m.row_sums());
        assert_eq!(LinearOperand::col_sums(&c), m.col_sums());
        assert!((LinearOperand::sum(&c) - m.sum()).abs() < 1e-9);
    }

    #[test]
    fn scalar_closure_ops() {
        let (m, c) = sample();
        assert!(c
            .scale(2.5)
            .materialize()
            .approx_eq(&m.apply(ScalarOp::Mul(2.5)), 1e-12));
        assert!(c
            .squared()
            .materialize()
            .approx_eq(&m.apply(ScalarOp::Pow(2.0)), 1e-12));
    }

    #[test]
    fn ginv_moore_penrose() {
        let (m, c) = sample();
        let p = LinearOperand::ginv(&c);
        let t = m.to_dense();
        assert!(t.matmul(&p).matmul(&t).approx_eq(&t, 1e-7));
    }

    #[test]
    fn single_chunk_degenerate_case() {
        let m = Matrix::Dense(DenseMatrix::from_fn(3, 2, |i, j| (i + j) as f64));
        let c = ChunkedMatrix::new(&m, 100);
        assert_eq!(c.n_chunks(), 1);
        let x = DenseMatrix::from_fn(2, 1, |i, _| i as f64 + 1.0);
        assert!(c.lmm(&x).approx_eq(&m.matmul_dense(&x), 1e-12));
    }

    #[test]
    fn zero_row_matrix_has_one_empty_chunk() {
        let m = Matrix::Dense(DenseMatrix::zeros(0, 3));
        let c = ChunkedMatrix::new(&m, 4);
        assert_eq!(c.n_chunks(), 1);
        assert_eq!(c.nrows(), 0);
        assert_eq!(c.n_spilled(), 0);
        let x = DenseMatrix::from_fn(3, 2, |i, j| (i + j) as f64);
        assert_eq!(c.lmm(&x).rows(), 0);
        assert_eq!(LinearOperand::sum(&c), 0.0);
        assert!(LinearOperand::crossprod(&c).approx_eq(&DenseMatrix::zeros(3, 3), 0.0));
        assert!(c.materialize().approx_eq(&m, 0.0));
    }

    #[test]
    fn chunk_rows_larger_than_matrix() {
        let m = Matrix::Dense(DenseMatrix::from_fn(2, 2, |i, j| (i * 2 + j) as f64));
        let c = ChunkedMatrix::new(&m, 1_000_000);
        assert_eq!(c.n_chunks(), 1);
        assert!((LinearOperand::sum(&c) - m.sum()).abs() < 1e-12);
    }

    #[test]
    fn spilled_execution_is_bit_identical_to_resident() {
        let m = Matrix::Dense(DenseMatrix::from_fn(57, 6, |i, j| {
            ((i * 7 + j * 5) % 13) as f64 * 0.37 - 2.0
        }));
        let resident = ChunkedMatrix::with_budget(&m, 8, u64::MAX);
        let spilled = ChunkedMatrix::with_budget(&m, 8, 0);
        assert_eq!(resident.n_spilled(), 0);
        assert_eq!(spilled.n_spilled(), spilled.n_chunks());

        let x = DenseMatrix::from_fn(6, 3, |i, j| ((i + 2 * j) % 5) as f64 * 0.4);
        assert_eq!(spilled.lmm(&x).as_slice(), resident.lmm(&x).as_slice());
        let y = DenseMatrix::from_fn(57, 2, |i, j| ((i * 3 + j) % 7) as f64);
        assert_eq!(spilled.t_lmm(&y).as_slice(), resident.t_lmm(&y).as_slice());
        assert_eq!(
            LinearOperand::crossprod(&spilled).as_slice(),
            LinearOperand::crossprod(&resident).as_slice()
        );
        assert_eq!(
            LinearOperand::row_sums(&spilled).as_slice(),
            LinearOperand::row_sums(&resident).as_slice()
        );
        assert_eq!(
            LinearOperand::col_sums(&spilled).as_slice(),
            LinearOperand::col_sums(&resident).as_slice()
        );
        assert_eq!(
            LinearOperand::sum(&spilled).to_bits(),
            LinearOperand::sum(&resident).to_bits()
        );
        assert!(spilled.materialize().approx_eq(&m, 0.0));
        // Derived matrices keep streaming under the same budget.
        let s = spilled.scale(1.5);
        assert!(s.n_spilled() > 0);
        assert!(s
            .materialize()
            .approx_eq(&resident.scale(1.5).materialize(), 0.0));
    }

    #[test]
    fn partial_budget_spills_only_the_tail() {
        let m = Matrix::Dense(DenseMatrix::from_fn(40, 4, |i, j| (i * 4 + j) as f64));
        // Budget fits exactly two 10x4 chunks (10 * 4 * 8 = 320 bytes).
        let c = ChunkedMatrix::with_budget(&m, 10, 640);
        assert_eq!(c.n_chunks(), 4);
        assert_eq!(c.n_spilled(), 2);
        assert!(c.materialize().approx_eq(&m, 0.0));
    }

    #[test]
    fn streaming_build_from_normalized_matches_materialized_build() {
        let s = DenseMatrix::from_fn(31, 2, |i, j| ((i * 3 + j) % 7) as f64 - 2.0);
        let r = DenseMatrix::from_fn(5, 3, |i, j| ((i * 2 + j) % 5) as f64 * 0.5);
        let fk: Vec<usize> = (0..31).map(|i| (i * 3 + 1) % 5).collect();
        let tn = NormalizedMatrix::pk_fk(s.into(), &fk, r.into());
        let streamed = ChunkedMatrix::from_normalized_with_budget(&tn, 7, 0);
        let bulk = ChunkedMatrix::with_budget(&tn.materialize(), 7, u64::MAX);
        assert!(streamed.n_spilled() > 0);
        assert!(streamed.materialize().approx_eq(&bulk.materialize(), 0.0));
        let x = DenseMatrix::from_fn(tn.cols(), 2, |i, j| (i + j) as f64 * 0.3);
        assert_eq!(streamed.lmm(&x).as_slice(), bulk.lmm(&x).as_slice());
    }

    #[test]
    fn ml_algorithm_runs_unchanged_on_chunked_backend() {
        // The closure demo: logistic regression from morpheus-ml, untouched.
        let (m, c) = sample();
        let y = DenseMatrix::from_fn(23, 1, |i, _| if i % 2 == 0 { 1.0 } else { -1.0 });
        let trainer = morpheus_ml::logreg::LogisticRegressionGd::new(1e-2, 5);
        let w_chunked = trainer.fit(&c, &y);
        let w_memory = trainer.fit(&m, &y);
        assert!(w_chunked.w.approx_eq(&w_memory.w, 1e-10));
    }
}
