//! The process-resident worker pool behind every [`crate::Executor`]
//! primitive.
//!
//! Workers are long-lived OS threads parked on a condvar; dispatching a
//! parallel section enqueues one lifetime-erased *job* and wakes them — no
//! thread is ever created on the hot path. The calling thread always
//! participates as a worker of its own job, which yields two properties:
//!
//! * **No deadlock under nesting.** A job's submitter drains the job's
//!   work itself, so a parallel section completes even when every resident
//!   worker is busy (or the pool is empty). Resident workers only *help*;
//!   they are never required for progress.
//! * **Graceful degradation.** Requesting more workers than are parked
//!   (oversubscription) just means fewer helpers show up; each worker runs
//!   several of the job's strides sequentially and results are unchanged —
//!   work is keyed by stride id, not by OS thread.
//!
//! [`resize`] implements `Runtime::set_threads`: growth spawns parked
//! workers, shrinkage wakes the excess so they exit after finishing the
//! job they are on. Panics inside a job are caught on whichever thread ran
//! the stride and re-thrown on the submitting thread once the job ends.
//!
//! ## Self-healing and degradation
//!
//! The pool is built to survive its own failure modes (see
//! [`crate::faults`] for the failpoints that exercise them):
//!
//! * **Worker death.** A panic that escapes the job level (impossible from
//!   stride bodies, which are individually caught — but injectable, and
//!   conceivable from e.g. allocation failure in the loop itself) lands in
//!   [`worker_main`], which records the death and re-enters the loop: the
//!   worker heals in place and the census stays exact. Strides are claimed
//!   atomically and only marked complete after running, so a death never
//!   loses work — unclaimed strides fall to the submitter.
//! * **Spawn failure.** If the OS refuses a thread during growth, the pool
//!   runs with the workers it has; with none at all, every section runs
//!   inline on its submitter (bit-identical, just serial) and a one-time
//!   warning is printed.
//! * **Lock poisoning.** All pool locks recover from poisoning instead of
//!   propagating it: state under them is either append-only bookkeeping or
//!   monotone counters, so a poisoned guard cannot carry a torn update.
//!   Each recovery is counted in [`crate::faults::stats`].

// The single place in the workspace that needs `unsafe`: resident workers
// are `'static` threads, but jobs borrow from the submitter's stack, so the
// body reference is lifetime-erased on dispatch. Soundness rests on one
// invariant — `broadcast` never returns before every stride completed —
// which is the same contract `std::thread::scope` is built on.
#![allow(unsafe_code)]

use crate::{claim, faults};
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Once, OnceLock};

/// A lifetime-erased pointer to a job's per-stride body. The submitter
/// blocks in [`broadcast`] until every stride completed, so the pointee
/// outlives every dereference (the same argument that makes
/// `std::thread::scope` sound).
struct BodyPtr(*const (dyn Fn(usize) + Sync));
// Safety: the pointee is `Sync` (shared calls from any thread are fine)
// and is only dereferenced while the submitting thread keeps it alive.
unsafe impl Send for BodyPtr {}
unsafe impl Sync for BodyPtr {}

/// Completion bookkeeping of one job, guarded by [`Job::progress`].
struct Progress {
    /// Strides that finished running (panicked strides count).
    completed: usize,
    /// First panic payload observed, re-thrown by the submitter.
    panic: Option<Box<dyn Any + Send>>,
}

/// One dispatched parallel section: `workers` strides, each executed
/// exactly once by whichever thread claims it first.
struct Job {
    body: BodyPtr,
    /// Total strides; also the claim multiplier basis.
    workers: usize,
    /// Claim multiplier every stride runs under (submitter's claim at
    /// dispatch times `workers`), so nested sections see the divided
    /// budget no matter which thread hosts them.
    child_claim: usize,
    /// Next unclaimed stride id; `>= workers` once exhausted.
    next_stride: AtomicUsize,
    progress: Mutex<Progress>,
    /// Signalled when `completed` reaches `workers`.
    done: Condvar,
}

impl Job {
    /// Locks the progress record, recovering from poisoning: `Progress`
    /// is a counter plus an owned payload slot, both updated in single
    /// statements, so a poisoned guard cannot expose a torn state.
    fn lock_progress(&self) -> MutexGuard<'_, Progress> {
        self.progress.lock().unwrap_or_else(|e| {
            faults::note(faults::Degradation::LockRecovery);
            self.progress.clear_poison();
            e.into_inner()
        })
    }

    /// Claims and runs strides until none remain. Called by the submitter
    /// and by any helping resident worker; safe to call after exhaustion
    /// (returns immediately without touching `body`).
    fn run_strides(&self) {
        loop {
            let stride = self.next_stride.fetch_add(1, Ordering::Relaxed);
            if stride >= self.workers {
                return;
            }
            claim::set(self.child_claim);
            // Safety: `broadcast` does not return before `completed ==
            // workers`, and `completed` is only incremented after the body
            // call below returns — the pointee is alive here.
            let body = unsafe { &*self.body.0 };
            let result = catch_unwind(AssertUnwindSafe(|| {
                faults::maybe_panic("exec.stride");
                body(stride)
            }));
            let mut progress = self.lock_progress();
            if let Err(payload) = result {
                if progress.panic.is_none() {
                    progress.panic = Some(payload);
                }
            }
            progress.completed += 1;
            if progress.completed == self.workers {
                self.done.notify_all();
            }
        }
    }

    /// `true` once every stride has been claimed (not necessarily
    /// completed) — helpers skip exhausted jobs without touching `body`.
    fn exhausted(&self) -> bool {
        self.next_stride.load(Ordering::Relaxed) >= self.workers
    }
}

struct PoolState {
    /// Dispatched jobs that may still have unclaimed strides. Submitters
    /// push on dispatch and remove after completion.
    jobs: Vec<Arc<Job>>,
    /// Resident workers the pool should keep (`Runtime::threads() - 1`;
    /// the submitting thread is the implicit extra worker).
    target: usize,
    /// Resident workers currently alive.
    alive: usize,
}

/// The pool singleton: a job queue plus the condvar workers park on.
struct Pool {
    state: Mutex<PoolState>,
    work: Condvar,
}

/// Locks the pool state, recovering from poisoning: the state is a job
/// list mutated by single push/retain calls plus two counters, so a
/// poisoned guard cannot expose a torn update.
fn lock_state(p: &Pool) -> MutexGuard<'_, PoolState> {
    p.state.lock().unwrap_or_else(|e| {
        faults::note(faults::Degradation::LockRecovery);
        p.state.clear_poison();
        e.into_inner()
    })
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    static STARTED: Once = Once::new();
    let pool = POOL.get_or_init(|| Pool {
        state: Mutex::new(PoolState {
            jobs: Vec::new(),
            target: 0,
            alive: 0,
        }),
        work: Condvar::new(),
    });
    // Size the pool from the configured worker count once, outside the
    // OnceLock init (Runtime::threads may itself race to resolve). Must
    // not go through `resize` → `pool()` — `call_once` is not re-entrant.
    STARTED.call_once(|| resize_on(pool, crate::Runtime::threads().saturating_sub(1)));
    pool
}

/// Resident-worker entry point: runs [`worker_loop`] and heals the worker
/// in place if a panic ever escapes it. Stride-body panics are caught per
/// stride inside the job, so an escaping panic means the loop machinery
/// itself died (injected via the `pool.worker` failpoint); the worker
/// counts the death and re-enters — `alive` still counts this thread, so
/// the census stays exact and the pool returns to full strength without
/// spawning.
fn worker_main(pool: &'static Pool) {
    loop {
        match catch_unwind(AssertUnwindSafe(|| worker_loop(pool))) {
            // Normal exit: the pool shrank and `worker_loop` already
            // decremented `alive` for this thread.
            Ok(()) => return,
            Err(_) => {
                faults::note(faults::Degradation::WorkerDeath);
                faults::note(faults::Degradation::WorkerRespawn);
            }
        }
    }
}

/// Parked-worker main loop: help any job with unclaimed strides, park
/// otherwise, exit when the pool shrank below the live count.
fn worker_loop(pool: &'static Pool) {
    let mut state = lock_state(pool);
    loop {
        if state.alive > state.target {
            state.alive -= 1;
            return;
        }
        let job = state.jobs.iter().find(|j| !j.exhausted()).map(Arc::clone);
        match job {
            Some(job) => {
                drop(state);
                // Worker-death injection point: the panic unwinds past the
                // whole loop (no stride claimed yet, no lock held) and is
                // healed by `worker_main`.
                faults::maybe_panic("pool.worker");
                job.run_strides();
                state = lock_state(pool);
            }
            None => {
                state = pool.work.wait(state).unwrap_or_else(|e| {
                    faults::note(faults::Degradation::LockRecovery);
                    pool.state.clear_poison();
                    e.into_inner()
                });
            }
        }
    }
}

/// Sets the resident worker count (the public knob is
/// `Runtime::set_threads`, which passes `threads - 1`). Growth spawns
/// parked workers immediately; shrinkage wakes the excess, which exit
/// after the job they are currently helping, so in-flight sections finish
/// undisturbed.
pub(crate) fn resize(target: usize) {
    resize_on(pool(), target);
}

/// Warns exactly once per process when parallel sections degrade to
/// inline serial execution because no resident worker could be kept.
fn warn_pool_down_once() {
    static WARNED: Once = Once::new();
    WARNED.call_once(|| {
        eprintln!(
            "morpheus: worker pool unavailable; \
             running parallel sections inline on the caller"
        );
    });
}

fn resize_on(p: &'static Pool, target: usize) {
    let mut state = lock_state(p);
    state.target = target;
    while state.alive < state.target {
        let spawned = if faults::check("pool.spawn").is_some() {
            Err(std::io::Error::other("injected spawn failure"))
        } else {
            std::thread::Builder::new()
                .name("morpheus-pool-worker".into())
                .spawn(|| worker_main(pool()))
        };
        match spawned {
            Ok(_) => state.alive += 1,
            // Out of threads: run with what we have — broadcast degrades
            // to fewer helpers, never to incorrect results.
            Err(_) => {
                faults::note(faults::Degradation::PoolSpawnFailure);
                if state.alive == 0 {
                    warn_pool_down_once();
                }
                break;
            }
        }
    }
    if state.alive > state.target {
        p.work.notify_all();
    }
}

/// Runs `body(stride)` exactly once for every stride in `0..workers`,
/// distributing strides over the calling thread and any idle resident
/// workers, and returns when all strides completed. Every stride runs
/// under the nested-claim multiplier `claim::current() * workers`. The
/// first panic among the strides is re-thrown here after the section ends.
///
/// Dispatch itself can degrade: when the `pool.dispatch` failpoint fires
/// an error kind, or the pool has no live workers while some were
/// requested, the section is not published and the submitter runs every
/// stride inline — bit-identical results, counted as a serial fallback.
pub(crate) fn broadcast(workers: usize, body: &(dyn Fn(usize) + Sync)) {
    debug_assert!(workers >= 2, "broadcast: single-stride jobs run inline");
    // A `panic` kind unwinds on the submitter here, before anything is
    // published; any other kind makes dispatch report "unavailable".
    let dispatch_ok = faults::fire("pool.dispatch").is_none();
    let child_claim = claim::current().saturating_mul(workers);
    // Safety: the raw pointer is dereferenced only by `Job::run_strides`
    // for strides claimed before this function returns; we block on the
    // completion condvar below, so `body` outlives every use.
    let erased: *const (dyn Fn(usize) + Sync) =
        unsafe { std::mem::transmute::<&_, &'static (dyn Fn(usize) + Sync)>(body) };
    let job = Arc::new(Job {
        body: BodyPtr(erased),
        workers,
        child_claim,
        next_stride: AtomicUsize::new(0),
        progress: Mutex::new(Progress {
            completed: 0,
            panic: None,
        }),
        done: Condvar::new(),
    });
    let p = pool();
    let published = {
        let mut state = lock_state(p);
        if !dispatch_ok {
            faults::note(faults::Degradation::PoolSerialFallback);
            false
        } else if state.alive > 0 {
            state.jobs.push(Arc::clone(&job));
            p.work.notify_all();
            true
        } else {
            // No helpers exist; skip the queue round-trip. With a zero
            // target this is the configured 1-thread mode, not a
            // degradation — only a pool that *should* have workers but
            // has none counts as a serial fallback.
            if state.target > 0 {
                faults::note(faults::Degradation::PoolSerialFallback);
                warn_pool_down_once();
            }
            false
        }
    };
    // The submitter is always a worker of its own job — progress never
    // depends on a resident worker being free.
    claim::scoped(claim::current(), || job.run_strides());
    let panic = {
        let mut progress = job.lock_progress();
        while progress.completed < job.workers {
            progress = job.done.wait(progress).unwrap_or_else(|e| {
                faults::note(faults::Degradation::LockRecovery);
                job.progress.clear_poison();
                e.into_inner()
            });
        }
        progress.panic.take()
    };
    if published {
        let mut state = lock_state(p);
        state.jobs.retain(|j| !Arc::ptr_eq(j, &job));
    }
    if let Some(payload) = panic {
        resume_unwind(payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn broadcast_runs_every_stride_once() {
        let hits = AtomicUsize::new(0);
        broadcast(5, &|stride| {
            hits.fetch_add(stride + 1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 1 + 2 + 3 + 4 + 5);
    }

    #[test]
    fn broadcast_completes_when_pool_is_empty() {
        // Even with zero resident workers the submitter drains the job.
        let before = crate::Runtime::threads();
        resize(0);
        let hits = AtomicUsize::new(0);
        broadcast(4, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 4);
        resize(before.saturating_sub(1));
    }

    #[test]
    fn nested_broadcast_does_not_deadlock() {
        let hits = AtomicUsize::new(0);
        broadcast(3, &|_| {
            broadcast(3, &|_| {
                hits.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(hits.load(Ordering::Relaxed), 9);
    }

    #[test]
    fn broadcast_propagates_panics() {
        let result = std::panic::catch_unwind(|| {
            broadcast(4, &|stride| {
                if stride == 2 {
                    panic!("stride failure");
                }
            });
        });
        let payload = result.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "stride failure");
    }
}
