//! The shared parallel runtime: a resident worker pool, the [`Executor`]
//! that dispatches onto it, and the process-global [`Runtime`] that sizes
//! both.
//!
//! This crate sits at the very bottom of the workspace DAG so that every
//! compute layer — dense kernels, sparse kernels, the normalized rewrites,
//! and the chunked (ORE-analog) backend — schedules work on the *same*
//! thread budget instead of each layer spawning its own oblivious pool.
//!
//! ## Threading model
//!
//! * The process-wide worker count comes from the `MORPHEUS_NUM_THREADS`
//!   environment variable (read once, at first use), falling back to
//!   [`std::thread::available_parallelism`]. It can be overridden
//!   programmatically with [`Runtime::set_threads`], which also rebuilds
//!   the resident pool.
//! * Worker threads are **long-lived**: they park on a condvar between
//!   parallel sections, and dispatching a section is a queue push plus a
//!   wake — no thread is created on the hot path (the spawn tax of the
//!   old scoped-thread executor). The calling thread always participates
//!   in its own section, so dispatch degrades gracefully when workers are
//!   busy and nested sections can never deadlock (see the `pool` module
//!   docs for the invariants).
//! * Kernels obtain an executor with [`Runtime::executor`]; callers that
//!   want explicit control pass their own [`Executor`] to the `*_with`
//!   kernel variants instead.
//! * Tiny kernels skip the pool entirely: [`Executor::gated`] caps a
//!   section to the caller thread when its work estimate is below the
//!   process-wide threshold ([`runtime::DEFAULT_PAR_THRESHOLD`], which
//!   tests may override with [`Runtime::set_par_threshold`]) — see
//!   [`Runtime::should_parallelize`].
//! * Parallel sections **compose without oversubscription**: when an outer
//!   level (e.g. the chunk-at-a-time backend) claims `W` workers, code
//!   running inside those workers sees only the remaining budget
//!   (`threads / W`, floored at 1) from [`Runtime::executor`]. The
//!   bookkeeping is a thread-local claim multiplier maintained by the
//!   executor itself, so composition needs no plumbing.
//!
//! ## Determinism
//!
//! All executor primitives are deterministic for a fixed worker count:
//! work is keyed by stride index (round-robin or contiguous bands) — never
//! by which OS thread happens to run it — results are combined in index
//! order, and worker panics propagate. The kernels built on top preserve
//! the *per-output-element accumulation order* of their serial versions,
//! so parallel and single-threaded runs agree bit-for-bit at any worker
//! count, including oversubscribed ones.
//!
//! ## Failure model
//!
//! The runtime is engineered to degrade, never to wedge (see [`faults`]
//! for the deterministic failpoint registry that tests this, and the
//! README's "Failure model" section for the operator view):
//!
//! * A resident worker that dies heals in place; unclaimed strides fall
//!   to the submitter, so no job is ever lost (`pool` module docs).
//! * A pool that cannot be (re)built degrades every parallel section to
//!   inline serial execution on the caller — bit-identical results, one
//!   warning, and a counter in [`faults::stats`].
//! * Pool and job locks recover from poisoning instead of propagating
//!   it; the state they guard is torn-update-free by construction.
//! * Stride-body panics are caught per stride and re-thrown exactly once
//!   on the submitting thread after the section completes — a panicking
//!   kernel can never strand a worker or a sibling section.

mod executor;
pub mod faults;
mod pool;
mod runtime;
pub mod timing;

pub use executor::Executor;
pub use runtime::{Runtime, DEFAULT_PAR_THRESHOLD};

/// Thread-local bookkeeping of how many workers enclosing parallel
/// sections have claimed, so nested parallelism divides the global budget
/// instead of multiplying it.
pub(crate) mod claim {
    use std::cell::Cell;

    thread_local! {
        static CLAIMED: Cell<usize> = const { Cell::new(1) };
    }

    /// The product of worker counts claimed by enclosing parallel sections
    /// on this thread (1 when not inside any).
    pub(crate) fn current() -> usize {
        CLAIMED.with(|c| c.get())
    }

    /// Sets the claim multiplier for this thread (used on freshly spawned
    /// worker threads, which die when their scope ends).
    pub(crate) fn set(value: usize) {
        CLAIMED.with(|c| c.set(value.max(1)));
    }

    /// Runs `f` with the claim multiplier temporarily set to `value`,
    /// restoring the previous value afterwards (also on panic).
    pub(crate) fn scoped<R>(value: usize, f: impl FnOnce() -> R) -> R {
        struct Restore(usize);
        impl Drop for Restore {
            fn drop(&mut self) {
                set(self.0);
            }
        }
        let guard = Restore(current());
        set(value);
        let out = f();
        drop(guard);
        out
    }
}
