//! The per-operator cost-based planner: [`Strategy`], [`Decision`], and
//! [`Planned`] — [`PlannedMatrix`] in memory.
//!
//! The paper's §3.7 heuristic makes one factorize-or-materialize choice per
//! *matrix*, at construction time. But the §3.4 cost model is per
//! *operator*: at the same (TR, FR) point the cross-product can sit deep in
//! the factorized win region (its savings are quadratic in the feature
//! split) while an LMM at low FR is already inside the L-shaped slow-down
//! area. [`Planned`] therefore re-decides on every operator call,
//! comparing calibrated time estimates of the two routes, and memoizes the
//! materialized join in a shared [`OnceLock`] so one "materialize" verdict
//! is paid once and amortizes across every later operator.
//!
//! This per-call decision is the only router. A script is routed the same
//! way, one call at a time: the script planner removes repeated calls
//! (CSE) and fuses chains, but never decides a route itself.
//!
//! The planner is written once, generic over the [`Store`] a materialize
//! verdict builds the join in: a [`Matrix`] here ([`PlannedMatrix`]), row
//! chunks that spill past a resident budget in `morpheus_chunked`
//! (`PlannedChunkedMatrix`). The store says how the join is built and how
//! the materialized route is priced; the factorized route, the strategies,
//! the memo and the hook are the same for every store.
//!
//! Whichever route is chosen, the operator is delegated verbatim to the
//! pure implementation ([`NormalizedMatrix`] or the store), so planned
//! results are bit-for-bit identical to the corresponding pure path —
//! planning affects scheduling, never numerics.
//!
//! The paper's rule survives as [`Strategy::Heuristic`]; the strategy is
//! chosen per matrix ([`Planned::with_strategy`], [`Strategy::CostBased`]
//! by default), and a [`DecisionHook`] exposes every verdict for tests,
//! logging, and the ablation benches.

use crate::cost::{estimate_op, OpKind, PlanEstimate};
use crate::{DecisionRule, KeyColumn, LinearOperand, MachineProfile, Matrix, NormalizedMatrix};
use morpheus_dense::{DenseMatrix, ScalarOp};
use std::sync::{Arc, OnceLock};

/// How a [`Planned`] matrix routes each operator.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub enum Strategy {
    /// Compare calibrated time estimates per operator (the default).
    #[default]
    CostBased,
    /// The paper's construction-level τ/ρ threshold rule (§3.7, §5.1),
    /// applied uniformly to every operator.
    Heuristic(DecisionRule),
    /// Always run the factorized rewrite (the paper's "F" arm).
    AlwaysFactorize,
    /// Always run on the materialized join (the paper's "M" arm).
    AlwaysMaterialize,
}

/// One routing verdict, as delivered to a [`DecisionHook`].
///
/// For [`Strategy::CostBased`] the two estimates are filled in
/// (`materialized_ns` already includes the join-materialization cost
/// unless a memoized `T` existed at decision time); the other strategies
/// decide without estimating and report `NaN`.
#[derive(Debug, Clone, Copy)]
pub struct Decision {
    /// The operator that was planned.
    pub op: OpKind,
    /// Estimated ns of the factorized route (`NaN` unless cost-based).
    pub factorized_ns: f64,
    /// Estimated total ns of the materialized route (`NaN` unless
    /// cost-based).
    pub materialized_ns: f64,
    /// `true` when the factorized rewrite was chosen.
    pub factorized: bool,
}

/// Observer invoked with every [`Decision`] a [`Planned`] matrix makes.
pub type DecisionHook = Arc<dyn Fn(&Decision) + Send + Sync>;

/// Where a [`Planned`] matrix puts the join when a verdict materializes
/// it, and what running an operator there costs. The factorized route is
/// the same for every store — the [`NormalizedMatrix`] rewrites on the
/// base tables — so only the materialized route varies.
pub trait Store: LinearOperand + Clone {
    /// What builds and prices the join: nothing for an in-memory
    /// [`Matrix`]; the chunk height, resident budget and spill rates for
    /// a chunked store. One value does both, so the route that is priced
    /// is the route that runs.
    type Ctx: Clone + std::fmt::Debug;

    /// Builds the materialized join of `t`.
    fn materialize_join(t: &NormalizedMatrix, ctx: &Self::Ctx) -> Self;

    /// Estimates `op` on `t` both ways, the materialized route running on
    /// this store.
    fn estimate(
        profile: &MachineProfile,
        t: &NormalizedMatrix,
        op: OpKind,
        ctx: &Self::Ctx,
    ) -> PlanEstimate;
}

/// A [`Store`] that partitions the join into row chunks, so its planner
/// is built with a chunk height. [`Matrix`] does not implement it, which
/// keeps `PlannedMatrix::new(t)` apart from the chunked
/// `new(t, chunk_rows)`.
pub trait RowChunked: Store {
    /// The context of `chunk_rows`-row chunks under the process-wide
    /// spill settings, which the store resolves at first use.
    fn chunk_ctx(chunk_rows: usize) -> Self::Ctx;
}

impl Store for Matrix {
    type Ctx = ();

    fn materialize_join(t: &NormalizedMatrix, _: &()) -> Matrix {
        t.materialize()
    }

    fn estimate(
        profile: &MachineProfile,
        t: &NormalizedMatrix,
        op: OpKind,
        _: &(),
    ) -> PlanEstimate {
        estimate_op(profile, t, op)
    }
}

/// Which concrete representation a planned matrix carries.
#[derive(Debug, Clone)]
enum Repr<S> {
    /// The normalized form; operators may still go either way.
    Factorized(NormalizedMatrix),
    /// Output of a closure operator that was routed materialized: the
    /// factorization opportunity is spent, every later operator runs
    /// materialized.
    Materialized(S),
}

/// Where a planned matrix gets its kernel rates from.
#[derive(Clone)]
enum ProfileSource {
    /// [`MachineProfile::global`], resolved lazily on the first
    /// cost-based decision (so heuristic runs never pay calibration).
    Global,
    /// An explicit profile, for tests and ablations.
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

/// A data matrix that plans factorized-vs-materialized execution *per
/// operator call*, materializing into the store `S` — the replacement for
/// the construction-time `AdaptiveMatrix` of earlier revisions.
///
/// Implements [`LinearOperand`], so ML algorithms are oblivious to the
/// routing (and, out of core, to chunks spilling to disk). Cloning is
/// cheap and clones share the materialization memo.
#[derive(Clone)]
pub struct Planned<S: Store> {
    repr: Repr<S>,
    strategy: Strategy,
    profile: ProfileSource,
    ctx: S::Ctx,
    memo: Arc<OnceLock<S>>,
    hook: Option<DecisionHook>,
}

/// The in-memory planner: a materialize verdict builds the join as a
/// [`Matrix`].
pub type PlannedMatrix = Planned<Matrix>;

impl<S: Store + std::fmt::Debug> std::fmt::Debug for Planned<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Planned")
            .field("repr", &self.repr)
            .field("strategy", &self.strategy)
            .field("ctx", &self.ctx)
            .field("memoized", &self.is_memoized())
            .finish_non_exhaustive()
    }
}

impl From<NormalizedMatrix> for PlannedMatrix {
    fn from(t: NormalizedMatrix) -> Self {
        PlannedMatrix::new(t)
    }
}

impl<S: RowChunked> Planned<S> {
    /// Plans `t` chunked into at-most-`chunk_rows` row partitions, with
    /// the default strategy ([`Strategy::CostBased`]) and the global
    /// machine profile.
    ///
    /// # Panics
    /// Panics if `chunk_rows == 0` or `t` is a transposed view.
    pub fn new(t: NormalizedMatrix, chunk_rows: usize) -> Self {
        Self::with_strategy(t, chunk_rows, Strategy::default())
    }

    /// The chunked `new` with an explicit strategy.
    pub fn with_strategy(t: NormalizedMatrix, chunk_rows: usize, strategy: Strategy) -> Self {
        assert!(chunk_rows > 0, "Planned: chunk_rows must be positive");
        assert!(!t.is_transposed(), "Planned: chunk the untransposed matrix");
        Self::build(Repr::Factorized(t), strategy, S::chunk_ctx(chunk_rows))
    }
}

impl<S: Store> Planned<S> {
    fn build(repr: Repr<S>, strategy: Strategy, ctx: S::Ctx) -> Self {
        Planned {
            repr,
            strategy,
            profile: ProfileSource::Global,
            ctx,
            memo: Arc::new(OnceLock::new()),
            hook: None,
        }
    }

    /// Replaces the kernel-rate profile (tests, ablations). Cost-based
    /// decisions use these rates instead of the calibrated global ones.
    pub fn with_profile(mut self, profile: MachineProfile) -> Self {
        self.profile = ProfileSource::Fixed(Arc::new(profile));
        self
    }

    /// Replaces the store's context (tests, benches) — for a chunked
    /// store the chunk height, resident budget and spill I/O rates. The
    /// same context prices the materialized route and builds its join.
    pub fn with_ctx(mut self, ctx: S::Ctx) -> Self {
        self.ctx = ctx;
        self
    }

    /// Installs a decision-log hook, called synchronously with every
    /// routing verdict this matrix (and matrices derived from it via
    /// closure operators) makes.
    pub fn with_hook(mut self, hook: impl Fn(&Decision) + Send + Sync + 'static) -> Self {
        self.hook = Some(Arc::new(hook));
        self
    }

    /// The normalized form, when the factorization opportunity is still
    /// alive (`None` after a closure operator was routed materialized).
    pub fn normalized(&self) -> Option<&NormalizedMatrix> {
        match &self.repr {
            Repr::Factorized(t) => Some(t),
            Repr::Materialized(_) => None,
        }
    }

    /// The materialized join, when one is resident: the representation
    /// itself once it is spent, else the memo an earlier materialize
    /// verdict filled. `None` while nothing has been materialized.
    pub fn memo(&self) -> Option<&S> {
        match &self.repr {
            Repr::Materialized(m) => Some(m),
            Repr::Factorized(_) => self.memo.get(),
        }
    }

    /// `true` when a materialized `T` is resident (see [`Planned::memo`]).
    pub fn is_memoized(&self) -> bool {
        self.memo().is_some()
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        match &self.repr {
            Repr::Factorized(t) => t.shape(),
            Repr::Materialized(m) => (m.nrows(), m.ncols()),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.shape().0
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.shape().1
    }

    /// The verdict this matrix would reach for `op` right now, without
    /// executing anything or filling the memo. `None` when the
    /// representation is already materialized (there is nothing to plan).
    pub fn plan(&self, op: OpKind) -> Option<Decision> {
        match &self.repr {
            Repr::Factorized(t) => Some(self.plan_for(t, op)),
            Repr::Materialized(_) => None,
        }
    }

    // ------------------------------------------------------------------
    // Decision machinery
    // ------------------------------------------------------------------

    /// Resolves one routing [`Decision`]. Only [`Strategy::CostBased`]
    /// estimates, and charges the materialized route the one-off join
    /// exactly when no memoized `T` exists. Ties go to the materialized
    /// route: its cost is dominated by the one-off materialization, which
    /// the memo amortizes across every later operator.
    fn plan_for(&self, t: &NormalizedMatrix, op: OpKind) -> Decision {
        let (factorized_ns, materialized_ns, factorized) = match self.strategy {
            Strategy::AlwaysFactorize => (f64::NAN, f64::NAN, true),
            Strategy::AlwaysMaterialize => (f64::NAN, f64::NAN, false),
            Strategy::Heuristic(rule) => (f64::NAN, f64::NAN, rule.should_factorize(t)),
            Strategy::CostBased => {
                let est = S::estimate(self.profile.get(), t, op, &self.ctx);
                let materialized_ns = est.materialized_total_ns(self.memo.get().is_some());
                (
                    est.factorized_ns,
                    materialized_ns,
                    est.factorized_ns < materialized_ns,
                )
            }
        };
        Decision {
            op,
            factorized_ns,
            materialized_ns,
            factorized,
        }
    }

    fn decide(&self, t: &NormalizedMatrix, op: OpKind) -> bool {
        let decision = self.plan_for(t, op);
        if let Some(hook) = &self.hook {
            hook(&decision);
        }
        decision.factorized
    }

    /// The memoized materialized `T`, computing it on first use.
    ///
    /// Failure model: if the materialization panics (injectable via the
    /// `planner.memo` failpoint), `OnceLock::get_or_init` leaves the cell
    /// *empty* — never poisoned — so the panic propagates to this caller
    /// while the next call simply recomputes. A crash mid-join can never
    /// wedge the shared memo for the clones that hold it.
    fn memo_ref(&self, t: &NormalizedMatrix) -> &S {
        self.memo.get_or_init(|| {
            morpheus_runtime::faults::maybe_panic("planner.memo");
            S::materialize_join(t, &self.ctx)
        })
    }

    /// The materialized matrix this representation resolves to (memoizing
    /// for factorized representations).
    fn resident(&self) -> &S {
        match &self.repr {
            Repr::Materialized(m) => m,
            Repr::Factorized(t) => self.memo_ref(t),
        }
    }

    /// Routes a read-only operator.
    fn run<R>(
        &self,
        op: OpKind,
        fact: impl FnOnce(&NormalizedMatrix) -> R,
        mat: impl FnOnce(&S) -> R,
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

    /// Routes a closure operator (one whose result stays a data matrix).
    /// A factorized verdict keeps the normalized form alive (with a fresh
    /// memo — the old `T` no longer matches); a materialized verdict
    /// spends the factorization opportunity.
    fn run_closure(
        &self,
        op: OpKind,
        fact: impl FnOnce(&NormalizedMatrix) -> NormalizedMatrix,
        mat: impl FnOnce(&S) -> S,
    ) -> Self {
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

    fn derive(&self, repr: Repr<S>) -> Self {
        Planned {
            repr,
            strategy: self.strategy,
            profile: self.profile.clone(),
            ctx: self.ctx.clone(),
            memo: Arc::new(OnceLock::new()),
            hook: self.hook.clone(),
        }
    }
}

impl Planned<Matrix> {
    /// Plans `t` with the default strategy ([`Strategy::CostBased`]) and
    /// the global machine profile.
    pub fn new(t: NormalizedMatrix) -> Self {
        Self::with_strategy(t, Strategy::default())
    }

    /// Plans `t` with an explicit strategy.
    pub fn with_strategy(t: NormalizedMatrix, strategy: Strategy) -> Self {
        Self::build(Repr::Factorized(t), strategy, ())
    }

    /// Wraps an already-materialized matrix; every operator runs
    /// materialized.
    pub fn from_materialized(m: Matrix) -> Self {
        Self::build(Repr::Materialized(m), Strategy::default(), ())
    }

    // ------------------------------------------------------------------
    // The extended operator surface (beyond LinearOperand) used by the
    // scripting layer
    // ------------------------------------------------------------------

    /// `f(T)` for a scalar operator `f` (closure operator, §3.3.1).
    pub fn apply(&self, op: ScalarOp) -> PlannedMatrix {
        self.run_closure(OpKind::Elementwise, |t| t.apply(op), |m| m.apply(op))
    }

    /// Transpose. Free on the normalized form (flag flip, §3.2), a copy on
    /// a materialized representation — there is no routing choice to make,
    /// so no decision is logged. A filled memo is carried over transposed
    /// (a permutation copy), so a paid materialization is never paid again
    /// just because the chain transposed.
    pub fn transpose(&self) -> PlannedMatrix {
        match &self.repr {
            Repr::Factorized(t) => {
                let derived = self.derive(Repr::Factorized(t.transpose()));
                if let Some(m) = self.memo.get() {
                    let _ = derived.memo.set(m.transpose());
                }
                derived
            }
            Repr::Materialized(m) => self.derive(Repr::Materialized(m.transpose())),
        }
    }

    /// `rowMin(T)`.
    pub fn row_min(&self) -> DenseMatrix {
        self.run(OpKind::RowMin, NormalizedMatrix::row_min, Matrix::row_min)
    }

    /// `tcrossprod(T) = T Tᵀ`.
    pub fn tcrossprod(&self) -> DenseMatrix {
        self.run(
            OpKind::Tcrossprod,
            NormalizedMatrix::tcrossprod,
            Matrix::tcrossprod,
        )
    }

    /// `f(T)` for a function of the whole materialized `T`, such as
    /// `T ⊘ X` for a same-shape regular matrix `X`: the non-factorizable
    /// element-wise fallback of §3.3.7. Both routes run `f` on the join;
    /// the route only decides whether the join is memoized.
    pub fn elementwise_fallback<R>(&self, f: impl Fn(&Matrix) -> R) -> R {
        self.run(OpKind::ElementwiseFallback, |t| f(&t.materialize()), &f)
    }

    /// Double matrix multiplication `T₁ T₂` (appendix C). The factorized
    /// rewrite is only available while both operands still carry their
    /// normalized form; whether it *fires* is the left operand's strategy
    /// call, priced with the dedicated two-operand appendix-C estimate
    /// ([`crate::cost::estimate_dmm`]): the block rewrite per part of the
    /// left operand's join on the factorized side, a full `n·d_A·d_B`
    /// product on the materialized side — with the right operand's join
    /// materialization charged to the materialized route when its memo is
    /// empty. When exactly one side is spent, the multiplication routes
    /// through the surviving side's planned `lmm`/`rmm` instead of
    /// materializing it.
    pub fn dmm(&self, other: &PlannedMatrix) -> Matrix {
        match (&self.repr, &other.repr) {
            (Repr::Factorized(a), Repr::Factorized(b)) => {
                let op = OpKind::Dmm { m: b.cols() };
                let decision = if matches!(self.strategy, Strategy::CostBased) {
                    let profile = self.profile.get();
                    let est = crate::cost::estimate_dmm(profile, a, b);
                    let extra = if other.is_memoized() {
                        0.0
                    } else {
                        crate::cost::materialize_ns(profile, b)
                    };
                    let materialized_ns =
                        est.materialized_total_ns(self.memo.get().is_some()) + extra;
                    Decision {
                        op,
                        factorized_ns: est.factorized_ns,
                        materialized_ns,
                        factorized: est.factorized_ns < materialized_ns,
                    }
                } else {
                    self.plan_for(a, op)
                };
                if let Some(hook) = &self.hook {
                    hook(&decision);
                }
                if decision.factorized {
                    a.dmm(b)
                } else {
                    self.memo_ref(a).matmul(other.resident())
                }
            }
            // Left side still factorized: a planned LMM with the spent
            // right operand (dense only — sparse operands multiply
            // materialized).
            (Repr::Factorized(_), Repr::Materialized(b)) => match b.as_dense() {
                Some(bd) => Matrix::Dense(self.lmm(bd)),
                None => self.resident().matmul(b),
            },
            // Right side still factorized: a planned RMM symmetrically.
            (Repr::Materialized(a), Repr::Factorized(_)) => match a.as_dense() {
                Some(ad) => Matrix::Dense(other.rmm(ad)),
                None => a.matmul(other.resident()),
            },
            _ => self.resident().matmul(other.resident()),
        }
    }
}

impl<S: Store> LinearOperand for Planned<S> {
    fn nrows(&self) -> usize {
        self.rows()
    }

    fn ncols(&self) -> usize {
        self.cols()
    }

    fn lmm(&self, x: &DenseMatrix) -> DenseMatrix {
        self.run(OpKind::Lmm { m: x.cols() }, |t| t.lmm(x), |m| m.lmm(x))
    }

    fn lmm_into(&self, x: &DenseMatrix, out: &mut [f64]) {
        // Not expressible through `run` (both routes need the one `out`
        // borrow), so the routing is inlined: same op kind, same decision,
        // same memo — bit-identical to `lmm` on either verdict.
        match &self.repr {
            Repr::Materialized(m) => m.lmm_into(x, out),
            Repr::Factorized(t) => {
                if self.decide(t, OpKind::Lmm { m: x.cols() }) {
                    t.lmm_into(x, out);
                } else {
                    self.memo_ref(t).lmm_into(x, out);
                }
            }
        }
    }

    fn t_lmm(&self, x: &DenseMatrix) -> DenseMatrix {
        self.run(OpKind::TLmm { m: x.cols() }, |t| t.t_lmm(x), |m| m.t_lmm(x))
    }

    /// One decision, priced as the `t_lmm` on the one-hot `A` that the
    /// group sums replace.
    fn t_lmm_indicator(&self, a: &KeyColumn) -> DenseMatrix {
        let op = OpKind::TLmm { m: a.table_rows() };
        self.run(op, |t| t.t_lmm_indicator(a), |m| m.t_lmm_indicator(a))
    }

    fn rmm(&self, x: &DenseMatrix) -> DenseMatrix {
        self.run(OpKind::Rmm { m: x.rows() }, |t| t.rmm(x), |m| m.rmm(x))
    }

    fn crossprod(&self) -> DenseMatrix {
        self.run(OpKind::Crossprod, NormalizedMatrix::crossprod, S::crossprod)
    }

    fn row_sums(&self) -> DenseMatrix {
        self.run(OpKind::RowSums, NormalizedMatrix::row_sums, S::row_sums)
    }

    fn col_sums(&self) -> DenseMatrix {
        self.run(OpKind::ColSums, NormalizedMatrix::col_sums, S::col_sums)
    }

    fn sum(&self) -> f64 {
        self.run(OpKind::Sum, NormalizedMatrix::sum, S::sum)
    }

    fn scale(&self, x: f64) -> Self {
        self.run_closure(
            OpKind::Elementwise,
            |t| t.apply(ScalarOp::Mul(x)),
            |m| m.scale(x),
        )
    }

    fn squared(&self) -> Self {
        self.run_closure(
            OpKind::Elementwise,
            |t| t.apply(ScalarOp::Pow(2.0)),
            S::squared,
        )
    }

    fn ginv(&self) -> DenseMatrix {
        self.run(OpKind::Ginv, NormalizedMatrix::ginv, S::ginv)
    }

    fn materialize(&self) -> Matrix {
        self.resident().materialize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    fn pkfk(n_s: usize, d_s: usize, n_r: usize, d_r: usize) -> NormalizedMatrix {
        let s = DenseMatrix::from_fn(n_s, d_s, |i, j| ((i * 3 + j) % 7) as f64 - 2.5);
        let r = DenseMatrix::from_fn(n_r, d_r, |i, j| ((i * d_r + j) % 5) as f64 * 0.5 + 0.1);
        let fk: Vec<usize> = (0..n_s).map(|i| (i * 7 + 1) % n_r).collect();
        NormalizedMatrix::pk_fk(s.into(), &fk, r.into())
    }

    /// A planned matrix that records every decision it makes.
    fn logged(
        t: NormalizedMatrix,
        strategy: Strategy,
    ) -> (PlannedMatrix, Arc<Mutex<Vec<Decision>>>) {
        let log = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&log);
        let planned = PlannedMatrix::with_strategy(t, strategy)
            .with_profile(MachineProfile::REFERENCE)
            .with_hook(move |d| sink.lock().unwrap().push(*d));
        (planned, log)
    }

    #[test]
    fn always_strategies_route_unconditionally_and_agree() {
        let tn = pkfk(40, 3, 8, 4);
        let x = DenseMatrix::from_fn(tn.cols(), 2, |i, j| (i + j) as f64 * 0.1);
        let (f, f_log) = logged(tn.clone(), Strategy::AlwaysFactorize);
        let (m, m_log) = logged(tn.clone(), Strategy::AlwaysMaterialize);
        // Factorized arm is bit-identical to the pure normalized path,
        // materialized arm to the pure materialized path.
        assert_eq!(f.lmm(&x), tn.lmm(&x));
        assert_eq!(m.lmm(&x), tn.materialize().matmul_dense(&x));
        assert!(f_log.lock().unwrap().iter().all(|d| d.factorized));
        assert!(m_log.lock().unwrap().iter().all(|d| !d.factorized));
        // And the two arms agree numerically.
        assert!(f.crossprod().approx_eq(&m.crossprod(), 1e-10));
    }

    #[test]
    fn heuristic_strategy_applies_the_paper_rule_uniformly() {
        let rule = DecisionRule::default();
        // TR = 10, FR = 2 → factorize; TR = 2, FR = 0.5 → materialize.
        let hot = pkfk(100, 2, 10, 4);
        let cold = pkfk(20, 4, 10, 2);
        assert!(rule.should_factorize(&hot));
        assert!(!rule.should_factorize(&cold));
        let (h, h_log) = logged(hot, Strategy::Heuristic(rule));
        let (c, c_log) = logged(cold, Strategy::Heuristic(rule));
        let _ = h.crossprod();
        let _ = h.row_sums();
        let _ = c.crossprod();
        let _ = c.row_sums();
        assert!(h_log.lock().unwrap().iter().all(|d| d.factorized));
        assert!(c_log.lock().unwrap().iter().all(|d| !d.factorized));
        // The heuristic decides without estimating (no calibration).
        assert!(h_log.lock().unwrap()[0].factorized_ns.is_nan());
        // A materialized verdict memoizes the join.
        assert!(c.is_memoized());
        assert!(!h.is_memoized());
    }

    #[test]
    fn cost_based_routes_per_operator_with_bit_identical_results() {
        // TR = 10, FR = 2: crossprod is factorized-profitable, while the
        // §3.3.7 element-wise fallback materializes internally either way,
        // so the planner routes it to the (memoizable) materialized side.
        let tn = pkfk(500, 4, 50, 8);
        let (planned, log) = logged(tn.clone(), Strategy::CostBased);

        let cp = planned.crossprod();
        let x = Matrix::Dense(DenseMatrix::from_fn(tn.rows(), tn.cols(), |i, j| {
            ((i * 13 + j * 7) % 11) as f64
        }));
        let ew = planned.elementwise_fallback(|t| t.add(&x));

        let decisions = log.lock().unwrap().clone();
        assert_eq!(decisions.len(), 2);
        assert!(
            decisions[0].factorized,
            "crossprod should be factorized: {:?}",
            decisions[0]
        );
        assert!(
            !decisions[1].factorized,
            "elementwise fallback should materialize: {:?}",
            decisions[1]
        );
        // Same PlannedMatrix, two operators, two different routes — and
        // both results bit-identical to their pure paths.
        assert_eq!(cp, tn.crossprod());
        assert!(ew.approx_eq(&tn.materialize().add(&x), 0.0));
    }

    #[test]
    fn materialize_verdicts_amortize_through_the_memo() {
        let tn = pkfk(60, 3, 12, 3);
        let (planned, log) = logged(tn, Strategy::CostBased);
        let x = Matrix::Dense(DenseMatrix::from_fn(60, 6, |i, j| (i + j) as f64));
        let _ = planned.elementwise_fallback(|t| t.add(&x));
        assert!(planned.is_memoized());
        let _ = planned.elementwise_fallback(|t| t.add(&x));
        let decisions = log.lock().unwrap().clone();
        // Second decision no longer charges materialization.
        assert!(decisions[1].materialized_ns < decisions[0].materialized_ns);
    }

    #[test]
    fn cost_based_decisions_match_brute_force_estimates() {
        let tn = pkfk(300, 3, 20, 6);
        let profile = MachineProfile::REFERENCE;
        let planned =
            PlannedMatrix::with_strategy(tn.clone(), Strategy::CostBased).with_profile(profile);
        for op in OpKind::ALL {
            let decision = planned.plan(op).unwrap();
            let est = estimate_op(&profile, &tn, op);
            assert_eq!(
                decision.factorized,
                est.factorized_ns < est.materialized_total_ns(planned.is_memoized()),
                "planner disagrees with brute-force comparison on {op:?}"
            );
        }
    }

    #[test]
    fn closure_ops_preserve_or_spend_the_representation() {
        let tn = pkfk(80, 2, 8, 4);
        // Factorized closure: representation stays normalized.
        let f = PlannedMatrix::with_strategy(tn.clone(), Strategy::AlwaysFactorize);
        let f2 = f.scale(2.0);
        assert!(f2.normalized().is_some());
        assert_eq!(f2.sum(), tn.apply(ScalarOp::Mul(2.0)).sum());
        // Materialized closure: the opportunity is spent.
        let m = PlannedMatrix::with_strategy(tn.clone(), Strategy::AlwaysMaterialize);
        let m2 = m.squared();
        assert!(m2.normalized().is_none());
        assert!(m2.is_memoized());
        assert_eq!(m2.sum(), tn.materialize().apply(ScalarOp::Pow(2.0)).sum());
        // Chained ops on a spent representation keep running materialized.
        assert_eq!(m2.scale(0.5).sum(), m2.sum() * 0.5);
    }

    #[test]
    fn transpose_round_trips_without_losing_planning() {
        let tn = pkfk(30, 2, 6, 3);
        let planned = PlannedMatrix::with_strategy(tn.clone(), Strategy::AlwaysFactorize);
        let tt = planned.transpose();
        assert_eq!(tt.shape(), (tn.cols(), tn.rows()));
        assert!(tt.normalized().is_some());
        let x = DenseMatrix::from_fn(tn.rows(), 2, |i, j| (i * 2 + j) as f64 * 0.25);
        assert_eq!(tt.lmm(&x), tn.transpose().lmm(&x));
    }

    #[test]
    fn transpose_carries_a_paid_materialization() {
        let tn = pkfk(24, 2, 4, 3);
        let planned = PlannedMatrix::with_strategy(tn.clone(), Strategy::AlwaysMaterialize);
        let _ = planned.sum(); // routes materialized, fills the memo
        assert!(planned.is_memoized());
        let tt = planned.transpose();
        assert!(tt.is_memoized(), "transpose must not drop the paid memo");
        // And the carried memo is the transposed join, bit-identical to
        // materializing the transposed normalized form.
        assert_eq!(
            LinearOperand::materialize(&tt).to_dense(),
            tn.transpose().materialize().to_dense()
        );
    }

    #[test]
    fn dmm_factorizes_only_while_both_sides_are_normalized() {
        let a = pkfk(10, 2, 5, 2);
        let sb = DenseMatrix::from_fn(4, 1, |i, _| i as f64 * 0.2);
        let rb = DenseMatrix::from_fn(2, 2, |i, j| (i + j) as f64 + 0.5);
        let b = NormalizedMatrix::pk_fk(sb.into(), &[0, 1, 0, 1], rb.into());
        let pa = PlannedMatrix::with_strategy(a.clone(), Strategy::AlwaysFactorize);
        let pb = PlannedMatrix::with_strategy(b.clone(), Strategy::AlwaysFactorize);
        let fact = pa.dmm(&pb);
        assert!(fact.approx_eq(&a.dmm(&b), 0.0));
        // One side spent → materialized multiply.
        let pb_mat = PlannedMatrix::with_strategy(b.clone(), Strategy::AlwaysMaterialize)
            .apply(ScalarOp::Mul(1.0));
        assert!(pb_mat.normalized().is_none());
        let mixed = pa.dmm(&pb_mat);
        assert!(mixed.approx_eq(&a.materialize().matmul(&b.materialize()), 1e-12));
        // Both sides normalized but the left strategy says materialize:
        // dmm must respect it (and log the decision) instead of
        // unconditionally firing the rewrite.
        let (pa_mat, log) = logged(a.clone(), Strategy::AlwaysMaterialize);
        let routed = pa_mat.dmm(&pb);
        assert!(routed.approx_eq(&a.materialize().matmul(&b.materialize()), 1e-12));
        let decisions = log.lock().unwrap().clone();
        assert_eq!(decisions.len(), 1);
        assert!(!decisions[0].factorized);
        assert!(
            pa_mat.is_memoized(),
            "materialized dmm memoizes the left join"
        );
    }

    #[test]
    fn from_materialized_never_plans() {
        let tn = pkfk(12, 2, 4, 2);
        let (planned, log) = logged(tn.clone(), Strategy::CostBased);
        let mat = PlannedMatrix::from_materialized(tn.materialize());
        assert!(mat.plan(OpKind::Sum).is_none());
        assert_eq!(mat.sum(), tn.materialize().sum());
        // The logged planned matrix still plans.
        assert!(planned.plan(OpKind::Sum).is_some());
        assert!(log.lock().unwrap().is_empty(), "plan() must not log");
    }
}
