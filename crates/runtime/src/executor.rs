//! The parallel executor shared by every compute layer, dispatching onto
//! the process-resident worker pool.

use crate::{pool, Runtime};
use std::ops::Range;
use std::sync::Mutex;

/// A parallel executor backed by the resident worker pool.
///
/// Work is distributed over `threads` *strides*; the calling thread always
/// runs strides itself and parked pool workers pick up the rest, so
/// dispatch never creates a thread (see the `pool` module). With
/// `threads == 1` everything runs inline on the caller (deterministic, no
/// dispatch overhead), which is also the fallback when only one work item
/// exists. Requesting more strides than resident workers exist is fine —
/// the surplus strides run sequentially on whichever threads are available
/// and results are unchanged.
///
/// Every parallel primitive records its stride count in a thread-local
/// claim multiplier while its strides run, so nested uses of
/// [`crate::Runtime::executor`] see the *remaining* thread budget and the
/// two levels compose without oversubscription.
#[derive(Debug, Clone, Copy)]
pub struct Executor {
    threads: usize,
}

/// Unwraps a mutex that can only be poisoned if a stride panicked — in
/// which case [`pool::broadcast`] already re-threw before results are
/// read, so recovering the inner value is always sound here.
fn into_ok<T>(m: Mutex<T>) -> T {
    m.into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Locks a per-stride slot inside a running section.
///
/// Unwrap audit: every `Mutex` this touches is owned by exactly one
/// stride, each stride is claimed by exactly one thread, and panics in
/// stride bodies are caught *before* the slot lock is taken again — so
/// the lock is never contended and can never be observed poisoned here.
/// This is a programmer-error invariant of the executor, not a state
/// reachable from user input or I/O, hence `unwrap` rather than a
/// `MorpheusError` return.
fn lock_slot<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock()
        .expect("executor: per-stride slot lock poisoned (single-claimant invariant broken)")
}

impl Executor {
    /// Creates an executor with an explicit worker count (minimum 1).
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }

    /// A single-threaded executor: everything runs inline on the caller.
    pub(crate) fn serial() -> Self {
        Self::new(1)
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// This executor, capped to one worker when `work` (in flops or
    /// equivalent fused operations) is below the runtime's parallelism
    /// threshold — see [`Runtime::should_parallelize`]. Scheduling only:
    /// results are identical either way.
    pub fn gated(&self, work: usize) -> Executor {
        if Runtime::should_parallelize(work) {
            *self
        } else {
            Self::serial()
        }
    }

    /// A work-splitting granularity for `items` units of work: small enough
    /// that round-robin distribution balances skewed workloads (such as
    /// triangular kernels), large enough to amortize per-chunk overhead.
    pub fn grain(&self, items: usize) -> usize {
        items.div_ceil(self.threads * 4).max(1)
    }

    /// Applies `f` to every index in `0..n`, returning results in index
    /// order. `f` runs concurrently on up to `threads` workers.
    pub fn map<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let workers = self.threads.min(n.max(1));
        if workers <= 1 || n <= 1 {
            return (0..n).map(f).collect();
        }
        // Stride `s` produces items s, s + workers, … in order; the
        // per-stride buffers are interleaved back into index order below.
        let buffers: Vec<Mutex<Vec<T>>> = (0..workers)
            .map(|_| Mutex::new(Vec::with_capacity(n.div_ceil(workers))))
            .collect();
        pool::broadcast(workers, &|stride| {
            let mut buf = lock_slot(&buffers[stride]);
            let mut i = stride;
            while i < n {
                buf.push(f(i));
                i += workers;
            }
        });
        let mut iters: Vec<_> = buffers
            .into_iter()
            .map(|b| into_ok(b).into_iter())
            .collect();
        (0..n)
            .map(|i| {
                iters[i % workers]
                    .next()
                    .expect("executor: missing stride result")
            })
            .collect()
    }

    /// Applies `f` to every index in `0..n` for its side effects, without
    /// collecting results (no `Vec<()>` allocation).
    pub fn for_each<F>(&self, n: usize, f: F)
    where
        F: Fn(usize) + Sync,
    {
        let workers = self.threads.min(n.max(1));
        if workers <= 1 || n <= 1 {
            (0..n).for_each(f);
            return;
        }
        pool::broadcast(workers, &|stride| {
            let mut i = stride;
            while i < n {
                f(i);
                i += workers;
            }
        });
    }

    /// Consumes `items`, applying `f` to each; item `i` is assigned to
    /// stride `i % threads`, and each stride processes its items in index
    /// order. This is the variable-sized sibling of
    /// [`Executor::par_chunks_mut`]: callers that carve an output into
    /// unequal disjoint pieces (per-row extents from a counting pass, say)
    /// ship each piece as an owned item.
    pub fn for_each_item<W, F>(&self, items: Vec<W>, f: F)
    where
        W: Send,
        F: Fn(W) + Sync,
    {
        let n = items.len();
        let workers = self.threads.min(n.max(1));
        if workers <= 1 || n <= 1 {
            for item in items {
                f(item);
            }
            return;
        }
        let mut assignments: Vec<Vec<W>> = (0..workers)
            .map(|_| Vec::with_capacity(n.div_ceil(workers)))
            .collect();
        for (i, item) in items.into_iter().enumerate() {
            assignments[i % workers].push(item);
        }
        let slots: Vec<Mutex<Vec<W>>> = assignments.into_iter().map(Mutex::new).collect();
        pool::broadcast(workers, &|stride| {
            let own = std::mem::take(&mut *lock_slot(&slots[stride]));
            for item in own {
                f(item);
            }
        });
    }

    /// Splits `data` into chunks of at most `chunk_len` elements and
    /// applies `f(chunk_index, chunk)` to each, distributing chunks
    /// round-robin over the workers.
    ///
    /// Chunk `i` covers `data[i * chunk_len .. (i + 1) * chunk_len]`
    /// (shorter for the last chunk), so callers can recover each chunk's
    /// offset from its index. Because the chunks are disjoint `&mut`
    /// slices, this is the safe-Rust backbone of every band-parallel
    /// kernel in the workspace.
    ///
    /// # Panics
    /// Panics if `chunk_len == 0`.
    pub fn par_chunks_mut<T, F>(&self, data: &mut [T], chunk_len: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        assert!(chunk_len > 0, "par_chunks_mut: chunk_len must be positive");
        let n_chunks = data.len().div_ceil(chunk_len);
        let workers = self.threads.min(n_chunks.max(1));
        if workers <= 1 || n_chunks <= 1 {
            for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
                f(i, chunk);
            }
            return;
        }
        type Assignment<'a, T> = Vec<(usize, &'a mut [T])>;
        let mut assignments: Vec<Assignment<'_, T>> = (0..workers).map(|_| Vec::new()).collect();
        for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
            assignments[i % workers].push((i, chunk));
        }
        let slots: Vec<Mutex<Assignment<'_, T>>> =
            assignments.into_iter().map(Mutex::new).collect();
        pool::broadcast(workers, &|stride| {
            let mut own = lock_slot(&slots[stride]);
            for (i, chunk) in own.iter_mut() {
                f(*i, chunk);
            }
        });
    }

    /// Splits the row-major `out` (rows of `row_len` elements) into bands
    /// of [`Executor::grain`]`(rows)` rows and applies `body(i0, band)` to
    /// each, distributing bands round-robin like
    /// [`Executor::par_chunks_mut`]. `i0` is the index of the band's first
    /// output row, so a body that writes each of its rows from that row's
    /// index alone gives the same bits at any worker count. A no-op on
    /// empty output.
    ///
    /// Bodies walk their rows as `band.chunks_mut(row_len).zip(i0..)`:
    /// zipping with the bounded `i0..i0 + rows` instead measured up to
    /// 1.4x slower on the indicator's `Kᵀ X` (2-vCPU x86-64, release + LTO).
    ///
    /// # Panics
    /// Panics if `out` is non-empty and `row_len == 0`.
    pub fn par_rows<T, F>(&self, out: &mut [T], row_len: usize, body: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        if out.is_empty() {
            return;
        }
        assert!(row_len > 0, "par_rows: row_len must be positive");
        let band = self.grain(out.len() / row_len);
        self.par_chunks_mut(out, band * row_len, |bi, chunk| body(bi * band, chunk));
    }

    /// Reduces the input rows `0..n` into the zeroed `out` in fixed row
    /// blocks of `h` rows: block `b` runs `block(b·h .. min((b+1)·h, n),
    /// partial)` into a zeroed private partial of `out.len()` elements,
    /// the blocks run in parallel, and `out` becomes the partials summed
    /// in ascending block order. An input shorter than two blocks is one
    /// chain, run in place as `block(0..n, out)`; an empty `out` runs no
    /// block. The bits depend on `n` and `h` only, never on the worker
    /// count. This drives every tall reduction whose input rows scatter
    /// into one small output: dense `Aᵀ X` and `crossprod`, CSR `Aᵀ X` and
    /// `Aᵀ B`, and the key column's `Kᵀ X`.
    ///
    /// # Panics
    /// Panics if `h == 0`.
    pub fn reduce_row_blocks<F>(&self, out: &mut [f64], n: usize, h: usize, block: F)
    where
        F: Fn(Range<usize>, &mut [f64]) + Sync,
    {
        assert!(h > 0, "reduce_row_blocks: block height must be positive");
        let len = out.len();
        if len == 0 {
            return;
        }
        if n < h.saturating_mul(2) {
            block(0..n, out);
            return;
        }
        let mut partials = vec![0.0f64; n.div_ceil(h) * len];
        self.par_chunks_mut(&mut partials, len, |b, part| {
            block(b * h..((b + 1) * h).min(n), part)
        });
        let (first, rest) = partials.split_at(len);
        out.copy_from_slice(first);
        for part in rest.chunks_exact(len) {
            for (o, &v) in out.iter_mut().zip(part) {
                *o += v;
            }
        }
    }

    /// Runs two closures concurrently (as two strides of one pool job:
    /// the caller starts on the first while an idle worker may take the
    /// second) and returns both results.
    pub fn par_join<A, B, FA, FB>(&self, fa: FA, fb: FB) -> (A, B)
    where
        A: Send,
        B: Send,
        FA: FnOnce() -> A + Send,
        FB: FnOnce() -> B + Send,
    {
        if self.threads <= 1 {
            return (fa(), fb());
        }
        let fa = Mutex::new(Some(fa));
        let fb = Mutex::new(Some(fb));
        let ra: Mutex<Option<A>> = Mutex::new(None);
        let rb: Mutex<Option<B>> = Mutex::new(None);
        pool::broadcast(2, &|stride| {
            if stride == 0 {
                let f = lock_slot(&fa).take().expect("par_join: fa taken twice");
                *lock_slot(&ra) = Some(f());
            } else {
                let f = lock_slot(&fb).take().expect("par_join: fb taken twice");
                *lock_slot(&rb) = Some(f());
            }
        });
        let a = into_ok(ra).expect("par_join: missing first result");
        let b = into_ok(rb).expect("par_join: missing second result");
        (a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn map_preserves_order() {
        let ex = Executor::new(4);
        let out = ex.map(17, |i| i * i);
        assert_eq!(out, (0..17).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn map_single_threaded_path() {
        let ex = Executor::new(1);
        assert_eq!(ex.map(3, |i| i + 1), vec![1, 2, 3]);
        assert_eq!(ex.map(0, |i| i), Vec::<usize>::new());
    }

    #[test]
    fn for_each_visits_every_index() {
        let hits = AtomicUsize::new(0);
        Executor::new(4).for_each(33, |i| {
            hits.fetch_add(i + 1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), (1..=33).sum::<usize>());
    }

    #[test]
    fn for_each_item_consumes_every_item() {
        let total = AtomicUsize::new(0);
        let items: Vec<usize> = (1..=40).collect();
        Executor::new(4).for_each_item(items, |v| {
            total.fetch_add(v, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), (1..=40).sum::<usize>());
        // Serial path consumes too.
        let hits = AtomicUsize::new(0);
        Executor::serial().for_each_item(vec![7usize, 8], |v| {
            hits.fetch_add(v, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 15);
    }

    #[test]
    fn for_each_item_supports_mutable_borrows() {
        // The motivating use: unequal disjoint output pieces shipped as
        // owned items (what the two-pass `spgemm` does).
        let mut data = vec![0usize; 10];
        let (a, rest) = data.split_at_mut(3);
        let (b, c) = rest.split_at_mut(5);
        let items: Vec<(usize, &mut [usize])> = vec![(0, a), (1, b), (2, c)];
        Executor::new(3).for_each_item(items, |(tag, piece)| {
            for v in piece.iter_mut() {
                *v = tag + 1;
            }
        });
        assert_eq!(data, [1, 1, 1, 2, 2, 2, 2, 2, 3, 3]);
    }

    #[test]
    fn par_chunks_mut_covers_disjoint_bands() {
        let mut data = vec![0usize; 103];
        Executor::new(4).par_chunks_mut(&mut data, 10, |ci, chunk| {
            for (off, v) in chunk.iter_mut().enumerate() {
                *v = ci * 10 + off;
            }
        });
        // Every element was written exactly once with its global index.
        assert!(data.iter().enumerate().all(|(i, &v)| v == i));
    }

    #[test]
    fn par_chunks_mut_serial_matches() {
        let mut a = vec![1.0f64; 37];
        let mut b = a.clone();
        let f = |ci: usize, chunk: &mut [f64]| {
            for v in chunk.iter_mut() {
                *v += ci as f64;
            }
        };
        Executor::new(1).par_chunks_mut(&mut a, 5, f);
        Executor::new(5).par_chunks_mut(&mut b, 5, f);
        assert_eq!(a, b);
    }

    #[test]
    fn par_join_returns_both() {
        let (a, b) = Executor::new(2).par_join(|| 1 + 1, || "two");
        assert_eq!((a, b), (2, "two"));
        let (a, b) = Executor::serial().par_join(|| 40 + 2, || vec![1, 2]);
        assert_eq!(a, 42);
        assert_eq!(b, vec![1, 2]);
    }

    #[test]
    fn par_rows_hands_each_band_its_rows() {
        // 23 rows of 3: bands of grain(23) rows, the last one shorter.
        for threads in [1, 4] {
            let ex = Executor::new(threads);
            let mut data = vec![0usize; 23 * 3];
            let heights = Mutex::new(Vec::new());
            ex.par_rows(&mut data, 3, |i0, band| {
                assert_eq!(band.len() % 3, 0);
                lock_slot(&heights).push((i0, band.len() / 3));
                for (row, i) in band.chunks_mut(3).zip(i0..) {
                    row.fill(i);
                }
            });
            assert!(data.chunks(3).enumerate().all(|(i, row)| row == [i; 3]));
            let mut heights = into_ok(heights);
            heights.sort_unstable();
            let band = ex.grain(23);
            let want: Vec<_> = (0..23)
                .step_by(band)
                .map(|i| (i, band.min(23 - i)))
                .collect();
            assert_eq!(heights, want);
        }
        // Empty output: no band runs, whatever the row length.
        Executor::new(4).par_rows(&mut [0.0f64; 0], 0, |_, _| unreachable!());
    }

    #[test]
    fn reduce_row_blocks_sums_fixed_blocks_in_ascending_order() {
        // Block b adds `weights[b]` once per row; rows of one block scale
        // its weight by the row count, so the partials are exact.
        let weights = [1.0, 1e100, -1e100];
        let block_of = |h: usize| {
            move |rows: Range<usize>, part: &mut [f64]| {
                for i in rows {
                    part[0] += weights[i / h] / h as f64;
                    part[1] += 1.0;
                }
            }
        };
        for threads in [1, 2, 8] {
            let ex = Executor::new(threads);
            // Three full blocks: ascending order gives (1 + 1e100) - 1e100
            // = 0; descending would give (-1e100 + 1e100) + 1 = 1.
            let mut out = [0.0; 2];
            ex.reduce_row_blocks(&mut out, 12, 4, block_of(4));
            assert_eq!(out, [0.0, 12.0], "{threads} workers");
            // A ragged last block gets the rows left over.
            let ranges = Mutex::new(Vec::new());
            ex.reduce_row_blocks(&mut [0.0], 10, 4, |rows, _| {
                lock_slot(&ranges).push(rows);
            });
            let mut ranges = into_ok(ranges);
            ranges.sort_by_key(|r| r.start);
            assert_eq!(ranges, [0..4, 4..8, 8..10]);
            // Shorter than two blocks: one chain, in place, on `out`.
            let mut out = [5.0, 0.0];
            ex.reduce_row_blocks(&mut out, 7, 4, |rows, part| {
                assert_eq!(rows, 0..7);
                part[1] = part[0];
            });
            assert_eq!(out, [5.0, 5.0]);
            // No rows: the single chain sees an empty range.
            let mut out = [0.0];
            ex.reduce_row_blocks(&mut out, 0, 4, |rows, _| assert!(rows.is_empty()));
            assert_eq!(out, [0.0]);
            // No output: no block runs.
            ex.reduce_row_blocks(&mut [], 100, 4, |_, _| unreachable!());
        }
    }

    #[test]
    fn grain_is_positive_and_splits_work() {
        let ex = Executor::new(4);
        assert_eq!(ex.grain(0), 1);
        assert!(ex.grain(1000) <= 1000usize.div_ceil(4));
        assert!(Executor::serial().grain(7) >= 1);
    }

    #[test]
    fn gated_caps_small_work_to_serial() {
        let ex = Executor::new(4);
        assert_eq!(ex.gated(0).threads(), 1);
        assert_eq!(ex.gated(usize::MAX).threads(), 4);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panics_propagate() {
        Executor::new(2).map(4, |i| {
            if i == 3 {
                panic!("boom");
            }
            i
        });
    }

    #[test]
    fn parallel_and_serial_agree() {
        let serial = Executor::new(1).map(25, |i| (i * 31) % 7);
        let parallel = Executor::new(8).map(25, |i| (i * 31) % 7);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn oversubscribed_executor_is_deterministic() {
        // Far more strides than any plausible pool: every stride still
        // runs exactly once and results assemble in index order.
        let out = Executor::new(64).map(200, |i| i * 3);
        assert_eq!(out, (0..200).map(|i| i * 3).collect::<Vec<_>>());
    }
}
