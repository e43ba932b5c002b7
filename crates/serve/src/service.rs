//! The micro-batching scoring service.
//!
//! At load, the model's share of the LMM rewrite that does not depend on
//! the request — one partial score per attribute-table row, `Bᵢ wᵢ` — is
//! computed once ([`NormalizedMatrix::lmm_partials`]). One scorer loop
//! then pops the oldest request, keeps coalescing queued requests **in
//! FIFO order** into the batch until the row budget is full or the
//! latency window since the batch opened has elapsed, and finishes the
//! union of their rows from those partials in one call
//! ([`NormalizedMatrix::lmm_rows_from_partials`]): an entity-feature dot
//! plus one gathered partial per attribute table per row. The
//! per-request answers are carved back out of the batch output by offset
//! — valid because that call is row-independent, so a row's score is
//! bit-identical no matter which other rows ride along.

use crate::{ScoringModel, ServeConfig, ServeStats};
use morpheus_core::{Matrix, NormalizedMatrix, Strategy};
use morpheus_dense::DenseMatrix;
use morpheus_runtime::faults::{self, Degradation};
use morpheus_runtime::Runtime;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

/// Failpoint checked once per scoring batch (`MORPHEUS_FAILPOINTS`,
/// e.g. `serve.batch=panic(0.1,seed=7)`): a `panic` kind aborts the
/// batch, which the service converts into a structured
/// [`ServeError::BatchAborted`] for every request in it.
pub const BATCH_FAILPOINT: &str = "serve.batch";

/// Why a scoring request did not produce scores.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// Admission control refused the request: the queue was at capacity.
    /// Back off and retry; already-queued requests are unaffected.
    Shed,
    /// The batch carrying this request died with a panic (injected or
    /// genuine). No partial output is ever returned — the whole request
    /// fails and can be resubmitted; the service keeps running.
    BatchAborted,
    /// A requested row id is outside the model's entity table.
    RowOutOfRange {
        /// The offending row id.
        row: usize,
        /// Number of logical rows the service was loaded with.
        n_rows: usize,
    },
    /// The service is shutting down and no longer admits requests.
    ShuttingDown,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Shed => write!(f, "request shed: scoring queue at capacity"),
            ServeError::BatchAborted => write!(f, "scoring batch aborted by a panic"),
            ServeError::RowOutOfRange { row, n_rows } => {
                write!(f, "row {row} out of range for {n_rows} entity rows")
            }
            ServeError::ShuttingDown => write!(f, "service is shutting down"),
        }
    }
}

impl std::error::Error for ServeError {}

/// The scoring representation the service locked in at startup.
///
/// Fixed **once**, from [`ServeConfig::strategy`] — never per batch:
/// factorized partial sums and a materialized row dot product accumulate
/// in different orders, so switching per batch would let two batch
/// sizes return bitwise-different scores for the same row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeMode {
    /// Rows are scored from per-table partial scores computed at load;
    /// the join is never materialized. Every strategy but
    /// [`Strategy::AlwaysMaterialize`] serves this way — it does less
    /// work per row than the resident join on every schema.
    Factorized,
    /// The join was materialized once at startup; batches gather rows
    /// from the resident join output. Only
    /// [`Strategy::AlwaysMaterialize`] asks for it: the materialized
    /// oracle the equivalence tests compare against.
    Resident,
}

/// A request waiting in the queue.
struct Pending {
    rows: Vec<usize>,
    slot: Arc<Slot>,
}

/// Where a request's answer appears; the submitting thread blocks on it.
struct Slot {
    state: Mutex<SlotState>,
    ready: Condvar,
}

struct SlotState {
    result: Option<Result<Vec<f64>, ServeError>>,
    /// Whether the submitter is (about to be) parked on `ready`. Guarded
    /// by `state`, so `fulfill` can skip the wake syscall when nobody is
    /// listening — on the hot path most answers are consumed by a
    /// pipelined client that has not reached this ticket yet.
    waiting: bool,
}

impl Slot {
    fn empty() -> Slot {
        Slot {
            state: Mutex::new(SlotState {
                result: None,
                waiting: false,
            }),
            ready: Condvar::new(),
        }
    }

    fn ready_with(r: Result<Vec<f64>, ServeError>) -> Slot {
        Slot {
            state: Mutex::new(SlotState {
                result: Some(r),
                waiting: false,
            }),
            ready: Condvar::new(),
        }
    }

    fn fulfill(&self, r: Result<Vec<f64>, ServeError>) {
        let mut g = self.state.lock().unwrap_or_else(|e| e.into_inner());
        g.result = Some(r);
        let waiting = g.waiting;
        drop(g);
        if waiting {
            self.ready.notify_all();
        }
    }
}

/// A submitted request; [`Ticket::wait`] blocks until its batch ran.
pub struct Ticket {
    slot: Arc<Slot>,
}

impl Ticket {
    /// Blocks until the request was scored (or failed) and returns one
    /// score per requested row, in request order.
    pub fn wait(self) -> Result<Vec<f64>, ServeError> {
        let mut g = self.slot.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(r) = g.result.take() {
                return r;
            }
            g.waiting = true;
            g = self.slot.ready.wait(g).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// The data representation batches are scored from.
enum Backing {
    /// The normalized data plus the model's
    /// [`NormalizedMatrix::lmm_partials`] — the join is never
    /// materialized, per request or otherwise.
    Factorized {
        tn: NormalizedMatrix,
        partials: Vec<DenseMatrix>,
    },
    /// Rows gathered from the join output, materialized once at startup
    /// (the long-lived analog of the planner's join memo).
    Resident(Matrix),
}

struct QueueState {
    queue: VecDeque<Pending>,
    shutdown: bool,
    /// Scorers currently parked on (or committed to parking on) the
    /// `work` condvar. Guarded by the state mutex, which is what makes
    /// skipping the wake syscall in `submit` safe: a scorer either saw
    /// the new request during its locked queue check, or had already
    /// bumped `idle` before releasing the lock to wait.
    idle: usize,
}

struct Inner {
    cfg: ServeConfig,
    model: ScoringModel,
    backing: Backing,
    state: Mutex<QueueState>,
    work: Condvar,
    requests: AtomicU64,
    shed: AtomicU64,
    batches: AtomicU64,
    batched_requests: AtomicU64,
    rows_scored: AtomicU64,
    batch_aborts: AtomicU64,
    max_queue_depth: AtomicU64,
}

impl Inner {
    fn lock_state(&self) -> MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(|e| {
            faults::note(Degradation::LockRecovery);
            self.state.clear_poison();
            e.into_inner()
        })
    }
}

/// A loaded model serving scoring requests with micro-batching.
///
/// Created once per model; shared by reference (or `Arc`) across any
/// number of client threads calling [`ScoringService::score`] /
/// [`ScoringService::submit`] concurrently. Dropping the service drains
/// the queue, answers every pending request, and joins its scorers.
pub struct ScoringService {
    inner: Arc<Inner>,
    mode: ServeMode,
    n_rows: usize,
    scorers: Vec<JoinHandle<()>>,
}

impl ScoringService {
    /// Loads `model` over the normalized data `tn` and starts
    /// `config.scorers` scorer threads.
    ///
    /// The scoring mode is fixed here, once, from `config.strategy` — see
    /// [`ServeMode`] for why it must not vary per batch. The factorized
    /// mode computes the model's per-table partial scores now; with
    /// [`Strategy::AlwaysMaterialize`] the join is materialized now
    /// instead, and batches gather its rows.
    ///
    /// # Panics
    /// Panics if `tn` is a transposed view (its rows are features, not
    /// entities, so no request could be answered), if the model weight
    /// vector is not `d x 1` for `tn`'s `d`, or if a scorer thread cannot
    /// be spawned.
    pub fn new(tn: NormalizedMatrix, model: ScoringModel, config: ServeConfig) -> ScoringService {
        let cfg = ServeConfig {
            batch_max: config.batch_max.max(1),
            queue_cap: config.queue_cap.max(1),
            scorers: config.scorers.max(1),
            ..config
        };
        assert!(
            !tn.is_transposed(),
            "serve: a transposed view has no entity rows to score"
        );
        assert_eq!(
            model.weights().shape(),
            (tn.cols(), 1),
            "serve: model weights must be {} x 1",
            tn.cols()
        );
        let n_rows = tn.rows();
        let mode = decide_mode(cfg.strategy);
        let backing = match mode {
            ServeMode::Factorized => Backing::Factorized {
                partials: tn.lmm_partials(model.weights()),
                tn,
            },
            ServeMode::Resident => Backing::Resident(tn.materialize()),
        };
        let inner = Arc::new(Inner {
            cfg,
            model,
            backing,
            state: Mutex::new(QueueState {
                queue: VecDeque::new(),
                shutdown: false,
                idle: 0,
            }),
            work: Condvar::new(),
            requests: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            batched_requests: AtomicU64::new(0),
            rows_scored: AtomicU64::new(0),
            batch_aborts: AtomicU64::new(0),
            max_queue_depth: AtomicU64::new(0),
        });
        let scorers = (0..inner.cfg.scorers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("morpheus-serve-{i}"))
                    .spawn(move || scorer_loop(&inner))
                    .expect("serve: failed to spawn scorer thread")
            })
            .collect();
        ScoringService {
            inner,
            mode,
            n_rows,
            scorers,
        }
    }

    /// The scoring mode locked in at startup.
    pub fn mode(&self) -> ServeMode {
        self.mode
    }

    /// Number of logical entity rows the service can score.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Enqueues a scoring request for the given entity row ids
    /// (duplicates and arbitrary order allowed) without blocking on the
    /// result. Fails fast — shed queue, bad row id, shutdown — instead
    /// of enqueueing a request that cannot succeed.
    pub fn submit(&self, rows: Vec<usize>) -> Result<Ticket, ServeError> {
        if let Some(&bad) = rows.iter().find(|&&r| r >= self.n_rows) {
            return Err(ServeError::RowOutOfRange {
                row: bad,
                n_rows: self.n_rows,
            });
        }
        if rows.is_empty() {
            return Ok(Ticket {
                slot: Arc::new(Slot::ready_with(Ok(Vec::new()))),
            });
        }
        let slot = Arc::new(Slot::empty());
        let scorer_parked = {
            let mut st = self.inner.lock_state();
            if st.shutdown {
                return Err(ServeError::ShuttingDown);
            }
            if st.queue.len() >= self.inner.cfg.queue_cap {
                self.inner.shed.fetch_add(1, Ordering::Relaxed);
                return Err(ServeError::Shed);
            }
            st.queue.push_back(Pending {
                rows,
                slot: Arc::clone(&slot),
            });
            self.inner
                .max_queue_depth
                .fetch_max(st.queue.len() as u64, Ordering::Relaxed);
            st.idle > 0
        };
        self.inner.requests.fetch_add(1, Ordering::Relaxed);
        if scorer_parked {
            self.inner.work.notify_one();
        }
        Ok(Ticket { slot })
    }

    /// Submits and blocks for the answer: one score per requested row,
    /// in request order.
    pub fn score(&self, rows: Vec<usize>) -> Result<Vec<f64>, ServeError> {
        self.submit(rows)?.wait()
    }

    /// Snapshot of the service counters together with the process-wide
    /// fault/degradation counters.
    pub fn stats(&self) -> ServeStats {
        let queue_depth = self.inner.lock_state().queue.len() as u64;
        let batches = self.inner.batches.load(Ordering::Relaxed);
        let batched_requests = self.inner.batched_requests.load(Ordering::Relaxed);
        ServeStats {
            mode: self.mode,
            requests: self.inner.requests.load(Ordering::Relaxed),
            shed: self.inner.shed.load(Ordering::Relaxed),
            batches,
            batched_requests,
            rows_scored: self.inner.rows_scored.load(Ordering::Relaxed),
            batch_aborts: self.inner.batch_aborts.load(Ordering::Relaxed),
            queue_depth,
            max_queue_depth: self.inner.max_queue_depth.load(Ordering::Relaxed),
            coalesce_ratio: if batches == 0 {
                0.0
            } else {
                batched_requests as f64 / batches as f64
            },
            faults: faults::stats(),
        }
    }
}

impl Drop for ScoringService {
    fn drop(&mut self) {
        self.inner.lock_state().shutdown = true;
        self.inner.work.notify_all();
        for h in self.scorers.drain(..) {
            let _ = h.join();
        }
    }
}

/// Maps the routing strategy to a scoring mode, once. Scoring from
/// precomputed partials is less work per row than gathering the resident
/// join on every schema, so there is no verdict to weigh.
fn decide_mode(strategy: Strategy) -> ServeMode {
    match strategy {
        Strategy::AlwaysMaterialize => ServeMode::Resident,
        _ => ServeMode::Factorized,
    }
}

/// One scorer thread: coalesce, score, distribute, repeat.
fn scorer_loop(inner: &Inner) {
    // Buffers reused across batches — the hot path allocates only the
    // per-request answer vectors it hands back.
    let mut batch: Vec<Pending> = Vec::new();
    let mut rows: Vec<usize> = Vec::new();
    let mut out: Vec<f64> = Vec::new();
    loop {
        batch.clear();
        rows.clear();
        {
            let mut st = inner.lock_state();
            // Wait for the first request of the next batch.
            let mut total = loop {
                if let Some(p) = st.queue.pop_front() {
                    let n = p.rows.len();
                    batch.push(p);
                    break n;
                }
                if st.shutdown {
                    return;
                }
                st.idle += 1;
                st = inner.work.wait(st).unwrap_or_else(|e| e.into_inner());
                st.idle -= 1;
            };
            // Coalesce FIFO until the row budget is full or the window
            // since the batch opened has elapsed. Never skip ahead: the
            // first queued request that does not fit closes the batch,
            // so no request can be starved by smaller ones behind it.
            let deadline = Instant::now() + inner.cfg.batch_window;
            let mut yielded = false;
            'coalesce: while total < inner.cfg.batch_max {
                while let Some(front) = st.queue.front() {
                    if total + front.rows.len() > inner.cfg.batch_max {
                        break 'coalesce;
                    }
                    let p = st.queue.pop_front().expect("front() was Some");
                    total += p.rows.len();
                    batch.push(p);
                    if total >= inner.cfg.batch_max {
                        break 'coalesce;
                    }
                }
                if st.shutdown {
                    break;
                }
                let now = Instant::now();
                if now >= deadline {
                    // Cooperative coalescing: before dispatching an
                    // under-filled batch, give submitters one scheduling
                    // turn and re-drain. Unlike a timed wait this costs
                    // nanoseconds on an idle machine, yet on a saturated
                    // one it lets queued-up clients land their requests,
                    // keeping batches deep without a timer.
                    if yielded {
                        break;
                    }
                    yielded = true;
                    drop(st);
                    std::thread::yield_now();
                    st = inner.lock_state();
                    continue;
                }
                st.idle += 1;
                let (g, _) = inner
                    .work
                    .wait_timeout(st, deadline - now)
                    .unwrap_or_else(|e| e.into_inner());
                st = g;
                st.idle -= 1;
            }
        } // queue unlocked while scoring
        run_batch(inner, &batch, &mut rows, &mut out);
    }
}

/// Scores one coalesced batch and distributes per-request answers.
fn run_batch(inner: &Inner, batch: &[Pending], rows: &mut Vec<usize>, out: &mut Vec<f64>) {
    for p in batch {
        rows.extend_from_slice(&p.rows);
    }
    inner.batches.fetch_add(1, Ordering::Relaxed);
    inner
        .batched_requests
        .fetch_add(batch.len() as u64, Ordering::Relaxed);
    let scored = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        faults::maybe_panic(BATCH_FAILPOINT);
        out.clear();
        out.resize(rows.len(), 0.0);
        // Concurrent scorers split the one resident worker pool instead
        // of oversubscribing it.
        Runtime::with_pool_share(inner.cfg.scorers, || match &inner.backing {
            Backing::Factorized { tn, partials } => {
                tn.lmm_rows_from_partials(partials, rows, out);
                inner.model.link(out);
            }
            Backing::Resident(m) => inner.model.score_into(&m.gather_rows(rows), out),
        });
    }));
    match scored {
        Ok(()) => {
            inner
                .rows_scored
                .fetch_add(rows.len() as u64, Ordering::Relaxed);
            let mut offset = 0;
            for p in batch {
                let next = offset + p.rows.len();
                p.slot.fulfill(Ok(out[offset..next].to_vec()));
                offset = next;
            }
        }
        Err(_) => {
            // Self-healing: the batch dies, the service does not. Every
            // request in the batch gets a structured error (no partial
            // or torn scores can leak — the output buffer is discarded),
            // and the scorer moves on to the next batch.
            faults::note(Degradation::ServeBatchAbort);
            inner.batch_aborts.fetch_add(1, Ordering::Relaxed);
            for p in batch {
                p.slot.fulfill(Err(ServeError::BatchAborted));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morpheus_core::DecisionRule;
    use morpheus_dense::DenseMatrix;
    use std::time::Duration;

    /// Deterministic PK-FK fixture plus a weight vector.
    fn fixture(n_s: usize, n_r: usize, seed: u64) -> (NormalizedMatrix, DenseMatrix) {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let s = DenseMatrix::from_fn(n_s, 3, |_, _| next());
        let r = DenseMatrix::from_fn(n_r, 4, |_, _| next());
        let fk: Vec<usize> = (0..n_s).map(|i| (i * 7 + 3) % n_r).collect();
        let tn = NormalizedMatrix::pk_fk(s.into(), &fk, r.into());
        let w = DenseMatrix::from_fn(tn.cols(), 1, |i, _| (i as f64 - 3.0) * 0.25);
        (tn, w)
    }

    fn quick_config() -> ServeConfig {
        ServeConfig::default()
            .with_strategy(Strategy::AlwaysFactorize)
            .with_batch_window(Duration::from_micros(50))
    }

    #[test]
    fn scores_match_full_table_predictions_bitwise() {
        let (tn, w) = fixture(40, 6, 3);
        for model in [
            ScoringModel::Linear(w.clone()),
            ScoringModel::Logistic(w.clone()),
        ] {
            let expected = match &model {
                ScoringModel::Linear(w) => morpheus_ml::linreg::predict(&tn, w),
                ScoringModel::Logistic(w) => morpheus_ml::logreg::predict_proba(&tn, w),
            };
            let svc = ScoringService::new(tn.clone(), model, quick_config());
            assert_eq!(svc.mode(), ServeMode::Factorized);
            for rows in [vec![0], vec![7, 7, 39], vec![12, 3, 25, 0, 1]] {
                let got = svc.score(rows.clone()).unwrap();
                for (j, &r) in rows.iter().enumerate() {
                    assert_eq!(got[j].to_bits(), expected.get(r, 0).to_bits());
                }
            }
        }
    }

    #[test]
    fn resident_mode_scores_match_materialized_predictions_bitwise() {
        let (tn, w) = fixture(30, 5, 9);
        let expected = morpheus_ml::linreg::predict(&tn.materialize(), &w);
        let svc = ScoringService::new(
            tn,
            ScoringModel::Linear(w),
            quick_config().with_strategy(Strategy::AlwaysMaterialize),
        );
        assert_eq!(svc.mode(), ServeMode::Resident);
        let rows = vec![5usize, 0, 29, 5];
        let got = svc.score(rows.clone()).unwrap();
        for (j, &r) in rows.iter().enumerate() {
            assert_eq!(got[j].to_bits(), expected.get(r, 0).to_bits());
        }
    }

    #[test]
    fn mode_decision_follows_strategy() {
        assert_eq!(
            decide_mode(Strategy::AlwaysMaterialize),
            ServeMode::Resident
        );
        for strategy in [
            Strategy::AlwaysFactorize,
            Strategy::Heuristic(DecisionRule::default()),
            Strategy::CostBased,
        ] {
            assert_eq!(decide_mode(strategy), ServeMode::Factorized);
        }
    }

    #[test]
    fn default_config_serves_factorized_without_a_window() {
        let cfg = ServeConfig::default();
        assert_eq!(cfg.strategy, Strategy::CostBased);
        assert_eq!(cfg.batch_window, Duration::ZERO);
        // A redundancy-free join, which every per-operator rule would
        // materialize, is still served from partials.
        let (flat, w) = fixture(4, 4, 1);
        let svc = ScoringService::new(flat, ScoringModel::Linear(w), cfg);
        assert_eq!(svc.mode(), ServeMode::Factorized);
    }

    #[test]
    #[should_panic(expected = "transposed view")]
    fn transposed_data_is_rejected_at_load() {
        let (tn, _) = fixture(10, 4, 5);
        let tt = tn.transpose();
        let w = DenseMatrix::zeros(tt.cols(), 1);
        ScoringService::new(tt, ScoringModel::Linear(w), quick_config());
    }

    #[test]
    fn rejects_invalid_requests_without_enqueueing() {
        let (tn, w) = fixture(10, 4, 5);
        let svc = ScoringService::new(tn, ScoringModel::Linear(w), quick_config());
        assert_eq!(
            svc.submit(vec![1, 10]).err(),
            Some(ServeError::RowOutOfRange {
                row: 10,
                n_rows: 10
            })
        );
        assert_eq!(svc.score(Vec::new()).unwrap(), Vec::<f64>::new());
        let stats = svc.stats();
        assert_eq!(stats.requests, 0);
        assert_eq!(stats.shed, 0);
    }

    #[test]
    fn oversized_request_runs_alone() {
        let (tn, w) = fixture(32, 4, 7);
        let expected = morpheus_ml::linreg::predict(&tn, &w);
        let svc = ScoringService::new(
            tn,
            ScoringModel::Linear(w),
            quick_config().with_batch_max(4),
        );
        let rows: Vec<usize> = (0..32).collect();
        let got = svc.score(rows).unwrap();
        for (r, v) in got.iter().enumerate() {
            assert_eq!(v.to_bits(), expected.get(r, 0).to_bits());
        }
        assert!(svc.stats().batches >= 1);
    }

    #[test]
    fn concurrent_clients_coalesce() {
        let (tn, w) = fixture(64, 8, 17);
        let expected = morpheus_ml::linreg::predict(&tn, &w);
        let svc = ScoringService::new(
            tn,
            ScoringModel::Linear(w),
            quick_config().with_batch_window(Duration::from_millis(2)),
        );
        std::thread::scope(|scope| {
            for c in 0..8usize {
                let svc = &svc;
                let expected = &expected;
                scope.spawn(move || {
                    for k in 0..20usize {
                        let rows = vec![(c * 20 + k) % 64, (c + k * 13) % 64];
                        let got = svc.score(rows.clone()).unwrap();
                        for (j, &r) in rows.iter().enumerate() {
                            assert_eq!(got[j].to_bits(), expected.get(r, 0).to_bits());
                        }
                    }
                });
            }
        });
        let stats = svc.stats();
        assert_eq!(stats.requests, 160);
        assert_eq!(stats.batched_requests, 160);
        assert_eq!(stats.rows_scored, 320);
        assert!(stats.batches <= stats.batched_requests);
        assert!(stats.coalesce_ratio >= 1.0);
        assert_eq!(stats.queue_depth, 0);
    }
}
