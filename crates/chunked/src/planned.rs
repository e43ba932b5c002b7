//! [`PlannedChunkedMatrix`] — the per-operator planner routed through the
//! out-of-core chunked backend.
//!
//! The in-memory [`morpheus_core::PlannedMatrix`] compares calibrated
//! time estimates of the factorized and materialized routes. Out of core
//! the same comparison holds, but the materialized route's price changes:
//! it flattens to the profile's DRAM tier (a chunked working set never
//! stays in a cache tier across chunks), pays a per-chunk dispatch
//! overhead, and pays spill I/O — writing the materialized join's chunks
//! past the resident budget once, and reading them back on every pass.
//! The factorized route is the in-memory route, at the in-memory price:
//! it runs the [`NormalizedMatrix`] rewrites directly on the base tables,
//! because the rewrites close over plain LA operators and need no second
//! implementation to run beside a chunked backend — the ORE argument of
//! the paper. [`estimate_op_chunked`] prices both, with spill rates
//! calibrated against the actual spill directory ([`spill::io_rates`]).
//!
//! Residency: the factorized route keeps **all** base tables resident —
//! the entity table included — and outside `MORPHEUS_CHUNK_BYTES`. Only
//! the materialized route's chunks are admitted against that budget and
//! spill. Streaming the entity table `S` by chunk is not implemented.
//!
//! Routing reuses the exact decision core of the in-memory planner
//! ([`plan_with`]): the strategies, the tie-break, the memoized-join
//! discount, and the [`DecisionHook`] observer all behave identically —
//! only the estimates differ. Whichever route is chosen, execution is
//! delegated verbatim to [`NormalizedMatrix`] or [`ChunkedMatrix`], so
//! planning affects scheduling, never numerics: a factorized verdict is
//! bit-identical to the in-memory planner's, at any budget.

use crate::{spill, ChunkedMatrix};
use morpheus_core::cost::{estimate_op_chunked, ChunkedCostCtx, OpKind};
use morpheus_core::{
    plan_with, Decision, DecisionHook, LinearOperand, MachineProfile, Matrix, NormalizedMatrix,
    Strategy,
};
use morpheus_dense::DenseMatrix;
use std::sync::{Arc, OnceLock};

/// Which concrete chunked representation the planned matrix carries.
#[derive(Debug, Clone)]
enum Repr {
    /// The normalized form; operators may still go either way.
    Factorized(NormalizedMatrix),
    /// Output of a closure operator routed materialized: the
    /// factorization opportunity is spent.
    Materialized(ChunkedMatrix),
}

/// Where the planned matrix gets its kernel rates from.
#[derive(Clone)]
enum ProfileSource {
    Global,
    Fixed(Arc<MachineProfile>),
}

impl ProfileSource {
    fn get(&self) -> &MachineProfile {
        match self {
            ProfileSource::Global => MachineProfile::global(),
            ProfileSource::Fixed(p) => p,
        }
    }
}

/// A chunked data matrix that plans factorized-vs-materialized execution
/// per operator call, pricing the materialized route's spill traffic.
///
/// Implements [`LinearOperand`], so ML algorithms are oblivious both to
/// the routing *and* to chunks spilling to disk. Cloning is cheap and
/// clones share the materialization memo.
#[derive(Clone)]
pub struct PlannedChunkedMatrix {
    repr: Repr,
    chunk_rows: usize,
    strategy: Strategy,
    profile: ProfileSource,
    /// Overrides the environment-derived cost context (tests, benches).
    ctx: Option<ChunkedCostCtx>,
    memo: Arc<OnceLock<ChunkedMatrix>>,
    hook: Option<DecisionHook>,
}

impl std::fmt::Debug for PlannedChunkedMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlannedChunkedMatrix")
            .field("repr", &self.repr)
            .field("chunk_rows", &self.chunk_rows)
            .field("strategy", &self.strategy)
            .field("memoized", &self.is_memoized())
            .finish_non_exhaustive()
    }
}

impl PlannedChunkedMatrix {
    /// Plans `t` chunked into at-most-`chunk_rows` row partitions, with
    /// the process-wide strategy ([`Strategy::from_env`]) and the global
    /// machine profile.
    ///
    /// # Panics
    /// Panics if `chunk_rows == 0` or `t` is a transposed view.
    pub fn new(t: NormalizedMatrix, chunk_rows: usize) -> Self {
        Self::with_strategy(t, chunk_rows, Strategy::from_env())
    }

    /// [`PlannedChunkedMatrix::new`] with an explicit strategy.
    pub fn with_strategy(t: NormalizedMatrix, chunk_rows: usize, strategy: Strategy) -> Self {
        assert!(
            chunk_rows > 0,
            "PlannedChunkedMatrix: chunk_rows must be positive"
        );
        assert!(
            !t.is_transposed(),
            "PlannedChunkedMatrix: chunk the untransposed matrix"
        );
        PlannedChunkedMatrix {
            repr: Repr::Factorized(t),
            chunk_rows,
            strategy,
            profile: ProfileSource::Global,
            ctx: None,
            memo: Arc::new(OnceLock::new()),
            hook: None,
        }
    }

    /// Replaces the kernel-rate profile (tests, ablations).
    pub fn with_profile(mut self, profile: MachineProfile) -> Self {
        self.profile = ProfileSource::Fixed(Arc::new(profile));
        self
    }

    /// Replaces the environment-derived chunked cost context — budget and
    /// spill I/O rates — for tests and benches. The memoized materialized
    /// join is admitted under the same `resident_budget_bytes`, so pricing
    /// and execution stay consistent.
    pub fn with_cost_ctx(mut self, ctx: ChunkedCostCtx) -> Self {
        self.ctx = Some(ctx);
        self
    }

    /// Installs a decision-log hook, called synchronously with every
    /// routing verdict this matrix (and its closure derivations) makes.
    pub fn with_hook(mut self, hook: impl Fn(&Decision) + Send + Sync + 'static) -> Self {
        self.hook = Some(Arc::new(hook));
        self
    }

    /// The strategy in effect.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// The chunk height, in logical rows.
    pub fn chunk_rows(&self) -> usize {
        self.chunk_rows
    }

    /// `true` when the materialized chunked join is resident (memoized or
    /// the representation itself is spent).
    pub fn is_memoized(&self) -> bool {
        matches!(self.repr, Repr::Materialized(_)) || self.memo.get().is_some()
    }

    /// Chunks of the materialized join currently spilled to disk
    /// (`0` while nothing has been materialized).
    pub fn n_spilled(&self) -> usize {
        match &self.repr {
            Repr::Materialized(m) => m.n_spilled(),
            Repr::Factorized(..) => self.memo.get().map_or(0, ChunkedMatrix::n_spilled),
        }
    }

    /// The verdict this matrix would reach for `op` right now, without
    /// executing anything or filling the memo. `None` when the
    /// representation is already materialized.
    pub fn plan(&self, op: OpKind) -> Option<Decision> {
        match &self.repr {
            Repr::Factorized(t) => Some(self.plan_for(t, op)),
            Repr::Materialized(_) => None,
        }
    }

    /// The cost context in effect: the explicit override, or the
    /// process-wide budget and calibrated spill I/O rates.
    fn cost_ctx(&self) -> ChunkedCostCtx {
        self.ctx.unwrap_or_else(|| {
            let (read, write) = spill::io_rates();
            ChunkedCostCtx {
                chunk_rows: self.chunk_rows,
                resident_budget_bytes: spill::resident_budget_bytes() as f64,
                spill_read_ns_per_byte: read,
                spill_write_ns_per_byte: write,
            }
        })
    }

    fn plan_for(&self, t: &NormalizedMatrix, op: OpKind) -> Decision {
        plan_with(self.strategy, t, op, self.memo.get().is_some(), || {
            estimate_op_chunked(self.profile.get(), t, op, &self.cost_ctx())
        })
    }

    fn decide(&self, t: &NormalizedMatrix, op: OpKind) -> bool {
        let decision = self.plan_for(t, op);
        if let Some(hook) = &self.hook {
            hook(&decision);
        }
        decision.factorized
    }

    /// The memoized materialized chunked join, built on first use by
    /// *streaming* row bands of the source — the whole join is never
    /// resident at once; chunks past the budget spill as they are built.
    /// Same failure model as the in-memory planner memo: a panic
    /// (injectable via `planner.memo`) leaves the cell empty, never
    /// poisoned.
    fn memo_ref(&self, t: &NormalizedMatrix) -> &ChunkedMatrix {
        self.memo.get_or_init(|| {
            morpheus_runtime::faults::maybe_panic("planner.memo");
            let budget = self.ctx.map_or_else(spill::resident_budget_bytes, |c| {
                c.resident_budget_bytes as u64
            });
            ChunkedMatrix::from_normalized_with_budget(t, self.chunk_rows, budget)
        })
    }

    /// Routes a read-only operator.
    fn run<R>(
        &self,
        op: OpKind,
        fact: impl FnOnce(&NormalizedMatrix) -> R,
        mat: impl FnOnce(&ChunkedMatrix) -> R,
    ) -> R {
        match &self.repr {
            Repr::Materialized(m) => mat(m),
            Repr::Factorized(t) => {
                if self.decide(t, op) {
                    fact(t)
                } else {
                    mat(self.memo_ref(t))
                }
            }
        }
    }

    /// Routes a closure operator. A factorized verdict keeps the
    /// normalized form alive (fresh memo); a materialized verdict spends
    /// the factorization opportunity.
    fn run_closure(
        &self,
        op: OpKind,
        fact: impl FnOnce(&NormalizedMatrix) -> NormalizedMatrix,
        mat: impl FnOnce(&ChunkedMatrix) -> ChunkedMatrix,
    ) -> PlannedChunkedMatrix {
        match &self.repr {
            Repr::Materialized(m) => self.derive(Repr::Materialized(mat(m))),
            Repr::Factorized(t) => {
                if self.decide(t, op) {
                    self.derive(Repr::Factorized(fact(t)))
                } else {
                    self.derive(Repr::Materialized(mat(self.memo_ref(t))))
                }
            }
        }
    }

    fn derive(&self, repr: Repr) -> PlannedChunkedMatrix {
        PlannedChunkedMatrix {
            repr,
            chunk_rows: self.chunk_rows,
            strategy: self.strategy,
            profile: self.profile.clone(),
            ctx: self.ctx,
            memo: Arc::new(OnceLock::new()),
            hook: self.hook.clone(),
        }
    }
}

impl LinearOperand for PlannedChunkedMatrix {
    fn nrows(&self) -> usize {
        match &self.repr {
            Repr::Factorized(t) => t.rows(),
            Repr::Materialized(m) => m.nrows(),
        }
    }

    fn ncols(&self) -> usize {
        match &self.repr {
            Repr::Factorized(t) => t.cols(),
            Repr::Materialized(m) => m.ncols(),
        }
    }

    fn lmm(&self, x: &DenseMatrix) -> DenseMatrix {
        self.run(OpKind::Lmm { m: x.cols() }, |t| t.lmm(x), |m| m.lmm(x))
    }

    fn t_lmm(&self, x: &DenseMatrix) -> DenseMatrix {
        self.run(OpKind::TLmm { m: x.cols() }, |t| t.t_lmm(x), |m| m.t_lmm(x))
    }

    fn rmm(&self, x: &DenseMatrix) -> DenseMatrix {
        self.run(OpKind::Rmm { m: x.rows() }, |t| t.rmm(x), |m| m.rmm(x))
    }

    fn crossprod(&self) -> DenseMatrix {
        self.run(OpKind::Crossprod, |t| t.crossprod(), |m| m.crossprod())
    }

    fn row_sums(&self) -> DenseMatrix {
        self.run(OpKind::RowSums, |t| t.row_sums(), |m| m.row_sums())
    }

    fn col_sums(&self) -> DenseMatrix {
        self.run(OpKind::ColSums, |t| t.col_sums(), |m| m.col_sums())
    }

    fn sum(&self) -> f64 {
        self.run(OpKind::Sum, |t| t.sum(), |m| m.sum())
    }

    fn scale(&self, x: f64) -> Self {
        self.run_closure(OpKind::Elementwise, |t| t.scalar_mul(x), |m| m.scale(x))
    }

    fn squared(&self) -> Self {
        self.run_closure(OpKind::Elementwise, |t| t.scalar_pow(2.0), |m| m.squared())
    }

    fn ginv(&self) -> DenseMatrix {
        self.run(OpKind::Ginv, |t| t.ginv(), |m| m.ginv())
    }

    fn materialize(&self) -> Matrix {
        match &self.repr {
            Repr::Materialized(m) => m.materialize(),
            Repr::Factorized(t) => self.memo_ref(t).materialize(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morpheus_core::PlannedMatrix;
    use std::sync::Mutex;

    fn pkfk(n_s: usize, d_s: usize, n_r: usize, d_r: usize) -> NormalizedMatrix {
        let s = DenseMatrix::from_fn(n_s, d_s, |i, j| ((i * 3 + j) % 7) as f64 - 2.5);
        let r = DenseMatrix::from_fn(n_r, d_r, |i, j| ((i * d_r + j) % 5) as f64 * 0.5 + 0.1);
        let fk: Vec<usize> = (0..n_s).map(|i| (i * 7 + 1) % n_r).collect();
        NormalizedMatrix::pk_fk(s.into(), &fk, r.into())
    }

    fn resident_ctx(chunk_rows: usize) -> ChunkedCostCtx {
        ChunkedCostCtx {
            chunk_rows,
            resident_budget_bytes: f64::INFINITY,
            spill_read_ns_per_byte: 0.5,
            spill_write_ns_per_byte: 1.0,
        }
    }

    fn logged(
        t: NormalizedMatrix,
        chunk_rows: usize,
        strategy: Strategy,
    ) -> (PlannedChunkedMatrix, Arc<Mutex<Vec<Decision>>>) {
        let log = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&log);
        let planned = PlannedChunkedMatrix::with_strategy(t, chunk_rows, strategy)
            .with_profile(MachineProfile::REFERENCE)
            .with_cost_ctx(resident_ctx(chunk_rows))
            .with_hook(move |d| sink.lock().unwrap().push(*d));
        (planned, log)
    }

    #[test]
    fn always_arms_agree_and_route_unconditionally() {
        let tn = pkfk(60, 3, 8, 4);
        let x = DenseMatrix::from_fn(tn.cols(), 2, |i, j| (i + 2 * j) as f64 * 0.3);
        let (f, f_log) = logged(tn.clone(), 16, Strategy::AlwaysFactorize);
        let (m, m_log) = logged(tn.clone(), 16, Strategy::AlwaysMaterialize);
        assert!(f.lmm(&x).approx_eq(&tn.lmm(&x), 1e-11));
        assert!(m
            .lmm(&x)
            .approx_eq(&tn.materialize().matmul_dense(&x), 1e-11));
        assert!(f_log.lock().unwrap().iter().all(|d| d.factorized));
        assert!(m_log.lock().unwrap().iter().all(|d| !d.factorized));
        assert!(!f.is_memoized());
        assert!(m.is_memoized());
        assert!(LinearOperand::crossprod(&f).approx_eq(&LinearOperand::crossprod(&m), 1e-9));
    }

    #[test]
    fn routed_results_match_the_in_memory_planner() {
        let tn = pkfk(120, 3, 10, 5);
        for strategy in [
            Strategy::CostBased,
            Strategy::AlwaysFactorize,
            Strategy::AlwaysMaterialize,
        ] {
            let chunked = PlannedChunkedMatrix::with_strategy(tn.clone(), 32, strategy)
                .with_profile(MachineProfile::REFERENCE)
                .with_cost_ctx(resident_ctx(32));
            let planned = PlannedMatrix::with_strategy(tn.clone(), strategy)
                .with_profile(MachineProfile::REFERENCE);
            let x = DenseMatrix::from_fn(tn.cols(), 2, |i, j| (i + j) as f64 * 0.2);
            assert!(chunked.lmm(&x).approx_eq(&planned.lmm(&x), 1e-10));
            assert!(LinearOperand::row_sums(&chunked)
                .approx_eq(&LinearOperand::row_sums(&planned), 1e-10));
            assert!(LinearOperand::crossprod(&chunked)
                .approx_eq(&LinearOperand::crossprod(&planned), 1e-9));
            assert!(
                (LinearOperand::sum(&chunked) - LinearOperand::sum(&planned)).abs() < 1e-8,
                "{strategy:?}"
            );
        }
    }

    #[test]
    fn decisions_match_brute_force_chunked_estimates() {
        let tn = pkfk(300, 3, 20, 6);
        let profile = MachineProfile::REFERENCE;
        let ctx = ChunkedCostCtx {
            chunk_rows: 64,
            resident_budget_bytes: 0.0,
            spill_read_ns_per_byte: 0.5,
            spill_write_ns_per_byte: 1.0,
        };
        let planned = PlannedChunkedMatrix::with_strategy(tn.clone(), 64, Strategy::CostBased)
            .with_profile(profile)
            .with_cost_ctx(ctx);
        for op in OpKind::ALL {
            let d = planned.plan(op).unwrap();
            let est = estimate_op_chunked(&profile, &tn, op, &ctx);
            assert_eq!(
                d.factorized,
                est.factorized_ns < est.materialized_total_ns(false),
                "chunked planner disagrees with brute force on {op:?}"
            );
        }
    }

    #[test]
    fn spilled_memo_keeps_results_identical() {
        let tn = pkfk(90, 4, 9, 3);
        let ctx = ChunkedCostCtx {
            chunk_rows: 16,
            resident_budget_bytes: 0.0, // every materialized chunk spills
            spill_read_ns_per_byte: 0.5,
            spill_write_ns_per_byte: 1.0,
        };
        let planned =
            PlannedChunkedMatrix::with_strategy(tn.clone(), 16, Strategy::AlwaysMaterialize)
                .with_cost_ctx(ctx);
        let x = DenseMatrix::from_fn(tn.cols(), 1, |i, _| i as f64 * 0.5);
        let via_spill = planned.lmm(&x);
        assert!(planned.n_spilled() > 0, "budget 0 must spill the memo");
        // The spilled materialized route is bit-identical to the fully
        // resident one.
        let resident =
            PlannedChunkedMatrix::with_strategy(tn.clone(), 16, Strategy::AlwaysMaterialize)
                .with_cost_ctx(resident_ctx(16));
        assert_eq!(via_spill.as_slice(), resident.lmm(&x).as_slice());
        assert_eq!(resident.n_spilled(), 0);
    }

    #[test]
    fn closure_ops_preserve_or_spend_the_representation() {
        let tn = pkfk(48, 2, 6, 3);
        let f = PlannedChunkedMatrix::with_strategy(tn.clone(), 12, Strategy::AlwaysFactorize);
        let f2 = f.scale(2.0);
        assert!(matches!(f2.repr, Repr::Factorized(..)));
        assert!((LinearOperand::sum(&f2) - tn.scalar_mul(2.0).sum()).abs() < 1e-9);
        let m = PlannedChunkedMatrix::with_strategy(tn.clone(), 12, Strategy::AlwaysMaterialize);
        let m2 = m.squared();
        assert!(matches!(m2.repr, Repr::Materialized(_)));
        assert!((LinearOperand::sum(&m2) - tn.materialize().scalar_pow(2.0).sum()).abs() < 1e-9);
    }

    #[test]
    fn ml_training_is_oblivious_to_the_planned_chunked_backend() {
        let tn = pkfk(80, 3, 8, 4);
        let y = DenseMatrix::from_fn(tn.rows(), 1, |i, _| if i % 3 == 0 { 1.0 } else { -1.0 });
        let trainer = morpheus_ml::logreg::LogisticRegressionGd::new(1e-2, 5);
        let w_plain = trainer.fit(&tn, &y);
        for strategy in [Strategy::AlwaysFactorize, Strategy::AlwaysMaterialize] {
            let planned = PlannedChunkedMatrix::with_strategy(tn.clone(), 16, strategy)
                .with_cost_ctx(resident_ctx(16));
            let w = trainer.fit(&planned, &y);
            assert!(w.w.approx_eq(&w_plain.w, 1e-9), "{strategy:?}");
        }
    }
}
