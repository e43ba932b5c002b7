//! The per-operator cost-based planner: [`Strategy`], [`Decision`], and
//! [`PlannedMatrix`].
//!
//! The paper's §3.7 heuristic makes one factorize-or-materialize choice per
//! *matrix*, at construction time. But the §3.4 cost model is per
//! *operator*: at the same (TR, FR) point the cross-product can sit deep in
//! the factorized win region (its savings are quadratic in the feature
//! split) while an LMM at low FR is already inside the L-shaped slow-down
//! area. [`PlannedMatrix`] therefore re-decides on every operator call,
//! comparing calibrated time estimates ([`crate::cost::estimate_op`]) of
//! the two routes, and memoizes the materialized join in a shared
//! [`OnceLock`] so one "materialize" verdict is paid once and amortizes
//! across every later operator.
//!
//! This per-call decision is the only router. A script is routed the same
//! way, one call at a time: the script planner removes repeated calls
//! (CSE) and fuses chains, but never decides a route itself.
//!
//! Whichever route is chosen, the operator is delegated verbatim to the
//! pure implementation ([`NormalizedMatrix`] or [`Matrix`]), so planned
//! results are bit-for-bit identical to the corresponding pure path —
//! planning affects scheduling, never numerics.
//!
//! The paper's rule survives as [`Strategy::Heuristic`]; `MORPHEUS_STRATEGY`
//! selects the strategy process-wide, and a [`DecisionHook`] exposes every
//! verdict for tests, logging, and the ablation benches.

use crate::cost::{estimate_op, OpKind, PlanEstimate};
use crate::{DecisionRule, JoinStats, LinearOperand, MachineProfile, Matrix, NormalizedMatrix};
use morpheus_dense::DenseMatrix;
use std::sync::{Arc, OnceLock};

/// Environment variable selecting the process-wide default [`Strategy`].
pub const STRATEGY_ENV: &str = "MORPHEUS_STRATEGY";

/// How a [`PlannedMatrix`] routes each operator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Strategy {
    /// Compare calibrated time estimates per operator (the default).
    CostBased,
    /// The paper's construction-level τ/ρ threshold rule (§3.7, §5.1),
    /// applied uniformly to every operator.
    Heuristic(DecisionRule),
    /// Always run the factorized rewrite (the paper's "F" arm).
    AlwaysFactorize,
    /// Always run on the materialized join (the paper's "M" arm).
    AlwaysMaterialize,
}

impl Strategy {
    /// Parses a `MORPHEUS_STRATEGY` value. Accepts `cost-based` (also
    /// `cost_based`, `costbased`, `cost`), `heuristic`, `factorize`
    /// (also `always-factorize`), and `materialize` (also
    /// `always-materialize`); case-insensitive.
    pub fn parse(s: &str) -> Option<Strategy> {
        match s.trim().to_ascii_lowercase().as_str() {
            "cost-based" | "cost_based" | "costbased" | "cost" => Some(Strategy::CostBased),
            "heuristic" => Some(Strategy::Heuristic(DecisionRule::default())),
            "factorize" | "always-factorize" | "always_factorize" => {
                Some(Strategy::AlwaysFactorize)
            }
            "materialize" | "always-materialize" | "always_materialize" => {
                Some(Strategy::AlwaysMaterialize)
            }
            _ => None,
        }
    }

    /// The process-wide strategy: `MORPHEUS_STRATEGY` if set to a value
    /// [`Strategy::parse`] accepts (unparseable values are reported once
    /// and ignored), else [`Strategy::CostBased`]. Read once, at first
    /// use, like the other `MORPHEUS_*` knobs.
    pub fn from_env() -> Strategy {
        static FROM_ENV: OnceLock<Strategy> = OnceLock::new();
        *FROM_ENV.get_or_init(|| match std::env::var(STRATEGY_ENV) {
            Ok(v) => Strategy::parse(&v).unwrap_or_else(|| {
                eprintln!("morpheus: unknown {STRATEGY_ENV}={v:?}, using cost-based");
                Strategy::CostBased
            }),
            Err(_) => Strategy::CostBased,
        })
    }
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

/// Observer invoked with every [`Decision`] a [`PlannedMatrix`] makes.
pub type DecisionHook = Arc<dyn Fn(&Decision) + Send + Sync>;

/// Resolves one routing [`Decision`] from a strategy, the operand, and a
/// lazily-computed cost estimate — the decision core of
/// [`PlannedMatrix`], shared with planner routes that price execution
/// differently but route by the same rules (the chunked backend estimates
/// through [`crate::cost::estimate_op_chunked`] and resolves here).
///
/// `estimate` is only invoked for [`Strategy::CostBased`]; `memoized`
/// states whether a materialized `T` already exists, so the materialized
/// route's one-off join cost is charged exactly when it would be paid.
/// Ties go to the materialized route: its cost is dominated by the
/// one-off materialization, which the memo amortizes across every later
/// operator.
pub fn plan_with(
    strategy: Strategy,
    t: &NormalizedMatrix,
    op: OpKind,
    memoized: bool,
    estimate: impl FnOnce() -> PlanEstimate,
) -> Decision {
    match strategy {
        Strategy::AlwaysFactorize => Decision {
            op,
            factorized_ns: f64::NAN,
            materialized_ns: f64::NAN,
            factorized: true,
        },
        Strategy::AlwaysMaterialize => Decision {
            op,
            factorized_ns: f64::NAN,
            materialized_ns: f64::NAN,
            factorized: false,
        },
        Strategy::Heuristic(rule) => Decision {
            op,
            factorized_ns: f64::NAN,
            materialized_ns: f64::NAN,
            factorized: rule.should_factorize(t),
        },
        Strategy::CostBased => {
            let est = estimate();
            let materialized_ns = est.materialized_total_ns(memoized);
            Decision {
                op,
                factorized_ns: est.factorized_ns,
                materialized_ns,
                factorized: est.factorized_ns < materialized_ns,
            }
        }
    }
}

/// Which concrete representation a planned matrix carries.
#[derive(Debug, Clone)]
enum Repr {
    /// The normalized form; operators may still go either way.
    Factorized(NormalizedMatrix),
    /// Output of a closure operator that was routed materialized: the
    /// factorization opportunity is spent, every later operator runs
    /// materialized.
    Materialized(Matrix),
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
/// operator call* — the replacement for the construction-time
/// `AdaptiveMatrix` of earlier revisions.
///
/// Implements [`LinearOperand`], so ML algorithms are oblivious to the
/// routing. Cloning is cheap and clones share the materialization memo.
#[derive(Clone)]
pub struct PlannedMatrix {
    repr: Repr,
    strategy: Strategy,
    profile: ProfileSource,
    memo: Arc<OnceLock<Matrix>>,
    hook: Option<DecisionHook>,
}

impl std::fmt::Debug for PlannedMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlannedMatrix")
            .field("repr", &self.repr)
            .field("strategy", &self.strategy)
            .field("memoized", &self.is_memoized())
            .finish_non_exhaustive()
    }
}

impl From<NormalizedMatrix> for PlannedMatrix {
    fn from(t: NormalizedMatrix) -> Self {
        PlannedMatrix::new(t)
    }
}

impl PlannedMatrix {
    /// Plans `t` with the process-wide strategy ([`Strategy::from_env`])
    /// and the global machine profile.
    pub fn new(t: NormalizedMatrix) -> Self {
        Self::with_strategy(t, Strategy::from_env())
    }

    /// Plans `t` with an explicit strategy.
    pub fn with_strategy(t: NormalizedMatrix, strategy: Strategy) -> Self {
        PlannedMatrix {
            repr: Repr::Factorized(t),
            strategy,
            profile: ProfileSource::Global,
            memo: Arc::new(OnceLock::new()),
            hook: None,
        }
    }

    /// Wraps an already-materialized matrix; every operator runs
    /// materialized.
    pub fn from_materialized(m: Matrix) -> Self {
        PlannedMatrix {
            repr: Repr::Materialized(m),
            strategy: Strategy::from_env(),
            profile: ProfileSource::Global,
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

    /// Installs a decision-log hook, called synchronously with every
    /// routing verdict this matrix (and matrices derived from it via
    /// closure operators) makes.
    pub fn with_hook(mut self, hook: impl Fn(&Decision) + Send + Sync + 'static) -> Self {
        self.hook = Some(Arc::new(hook));
        self
    }

    /// The strategy in effect.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// The normalized form, when the factorization opportunity is still
    /// alive (`None` after a closure operator was routed materialized).
    pub fn normalized(&self) -> Option<&NormalizedMatrix> {
        match &self.repr {
            Repr::Factorized(t) => Some(t),
            Repr::Materialized(_) => None,
        }
    }

    /// `true` when a materialized `T` is resident — either memoized by an
    /// earlier decision or because the representation itself is
    /// materialized.
    pub fn is_memoized(&self) -> bool {
        matches!(self.repr, Repr::Materialized(_)) || self.memo.get().is_some()
    }

    /// Join statistics of the normalized form, if it is still alive.
    pub fn stats(&self) -> Option<JoinStats> {
        self.normalized().map(NormalizedMatrix::stats)
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        match &self.repr {
            Repr::Factorized(t) => t.shape(),
            Repr::Materialized(m) => m.shape(),
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

    fn plan_for(&self, t: &NormalizedMatrix, op: OpKind) -> Decision {
        plan_with(self.strategy, t, op, self.memo.get().is_some(), || {
            estimate_op(self.profile.get(), t, op)
        })
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
    fn memo_ref(&self, t: &NormalizedMatrix) -> &Matrix {
        self.memo.get_or_init(|| {
            morpheus_runtime::faults::maybe_panic("planner.memo");
            t.materialize()
        })
    }

    /// Routes a read-only operator.
    fn run<R>(
        &self,
        op: OpKind,
        fact: impl FnOnce(&NormalizedMatrix) -> R,
        mat: impl FnOnce(&Matrix) -> R,
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
        mat: impl FnOnce(&Matrix) -> Matrix,
    ) -> PlannedMatrix {
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

    fn derive(&self, repr: Repr) -> PlannedMatrix {
        PlannedMatrix {
            repr,
            strategy: self.strategy,
            profile: self.profile.clone(),
            memo: Arc::new(OnceLock::new()),
            hook: self.hook.clone(),
        }
    }

    // ------------------------------------------------------------------
    // The extended operator surface (beyond LinearOperand) used by the
    // scripting layer
    // ------------------------------------------------------------------

    /// `T + x` element-wise (closure operator).
    pub fn scalar_add(&self, x: f64) -> PlannedMatrix {
        self.run_closure(
            OpKind::Elementwise,
            |t| t.scalar_add(x),
            |m| m.scalar_add(x),
        )
    }

    /// `T - x` element-wise.
    pub fn scalar_sub(&self, x: f64) -> PlannedMatrix {
        self.run_closure(
            OpKind::Elementwise,
            |t| t.scalar_sub(x),
            |m| m.scalar_sub(x),
        )
    }

    /// `x - T` element-wise.
    pub fn scalar_rsub(&self, x: f64) -> PlannedMatrix {
        self.run_closure(
            OpKind::Elementwise,
            |t| t.scalar_rsub(x),
            |m| m.scalar_rsub(x),
        )
    }

    /// `T * x` element-wise.
    pub fn scalar_mul(&self, x: f64) -> PlannedMatrix {
        self.run_closure(
            OpKind::Elementwise,
            |t| t.scalar_mul(x),
            |m| m.scalar_mul(x),
        )
    }

    /// `T / x` element-wise.
    pub fn scalar_div(&self, x: f64) -> PlannedMatrix {
        self.run_closure(
            OpKind::Elementwise,
            |t| t.scalar_div(x),
            |m| m.scalar_div(x),
        )
    }

    /// `x / T` element-wise.
    pub fn scalar_rdiv(&self, x: f64) -> PlannedMatrix {
        self.run_closure(
            OpKind::Elementwise,
            |t| t.scalar_rdiv(x),
            |m| m.scalar_rdiv(x),
        )
    }

    /// `T ^ x` element-wise.
    pub fn scalar_pow(&self, x: f64) -> PlannedMatrix {
        self.run_closure(
            OpKind::Elementwise,
            |t| t.scalar_pow(x),
            |m| m.scalar_pow(x),
        )
    }

    /// Element-wise map.
    pub fn map(&self, f: impl Fn(f64) -> f64 + Copy) -> PlannedMatrix {
        self.run_closure(OpKind::Elementwise, |t| t.map(f), |m| m.map(f))
    }

    /// `exp(T)` element-wise.
    pub fn exp(&self) -> PlannedMatrix {
        self.run_closure(OpKind::Elementwise, NormalizedMatrix::exp, Matrix::exp)
    }

    /// `ln(T)` element-wise.
    pub fn ln(&self) -> PlannedMatrix {
        self.run_closure(OpKind::Elementwise, NormalizedMatrix::ln, Matrix::ln)
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

    /// `T + X` for a same-shape regular matrix — the non-factorizable
    /// element-wise fallback of §3.3.7.
    pub fn add_matrix(&self, x: &Matrix) -> Matrix {
        self.run(
            OpKind::ElementwiseFallback,
            |t| t.add_matrix(x),
            |m| m.add(x),
        )
    }

    /// `T - X` (§3.3.7 fallback).
    pub fn sub_matrix(&self, x: &Matrix) -> Matrix {
        self.run(
            OpKind::ElementwiseFallback,
            |t| t.sub_matrix(x),
            |m| m.sub(x),
        )
    }

    /// `T * X` element-wise (§3.3.7 fallback).
    pub fn mul_elem_matrix(&self, x: &Matrix) -> Matrix {
        self.run(
            OpKind::ElementwiseFallback,
            |t| t.mul_elem_matrix(x),
            |m| m.mul_elem(x),
        )
    }

    /// `T / X` element-wise (§3.3.7 fallback).
    pub fn div_elem_matrix(&self, x: &Matrix) -> Matrix {
        self.run(
            OpKind::ElementwiseFallback,
            |t| t.div_elem_matrix(x),
            |m| m.div_elem(x),
        )
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
                    self.memo_ref(a).matmul(other.resident_matrix())
                }
            }
            // Left side still factorized: a planned LMM with the spent
            // right operand (dense only — sparse operands multiply
            // materialized).
            (Repr::Factorized(_), Repr::Materialized(b)) => match b.as_dense() {
                Some(bd) => Matrix::Dense(self.lmm(bd)),
                None => self.resident_matrix().matmul(b),
            },
            // Right side still factorized: a planned RMM symmetrically.
            (Repr::Materialized(a), Repr::Factorized(_)) => match a.as_dense() {
                Some(ad) => Matrix::Dense(other.rmm(ad)),
                None => a.matmul(other.resident_matrix()),
            },
            _ => self.resident_matrix().matmul(other.resident_matrix()),
        }
    }

    /// The materialized matrix this representation resolves to (memoizing
    /// for factorized representations).
    fn resident_matrix(&self) -> &Matrix {
        match &self.repr {
            Repr::Materialized(m) => m,
            Repr::Factorized(t) => self.memo_ref(t),
        }
    }
}

impl LinearOperand for PlannedMatrix {
    fn nrows(&self) -> usize {
        self.rows()
    }

    fn ncols(&self) -> usize {
        self.cols()
    }

    fn lmm(&self, x: &DenseMatrix) -> DenseMatrix {
        self.run(
            OpKind::Lmm { m: x.cols() },
            |t| t.lmm(x),
            |m| m.matmul_dense(x),
        )
    }

    fn lmm_into(&self, x: &DenseMatrix, out: &mut [f64]) {
        // Not expressible through `run` (both routes need the one `out`
        // borrow), so the routing is inlined: same op kind, same decision,
        // same memo — bit-identical to `lmm` on either verdict.
        match &self.repr {
            Repr::Materialized(m) => out.copy_from_slice(m.matmul_dense(x).as_slice()),
            Repr::Factorized(t) => {
                if self.decide(t, OpKind::Lmm { m: x.cols() }) {
                    t.lmm_into(x, out);
                } else {
                    out.copy_from_slice(self.memo_ref(t).matmul_dense(x).as_slice());
                }
            }
        }
    }

    fn t_lmm(&self, x: &DenseMatrix) -> DenseMatrix {
        self.run(
            OpKind::TLmm { m: x.cols() },
            |t| t.t_lmm(x),
            |m| m.t_matmul_dense(x),
        )
    }

    fn rmm(&self, x: &DenseMatrix) -> DenseMatrix {
        self.run(
            OpKind::Rmm { m: x.rows() },
            |t| t.rmm(x),
            |m| m.dense_matmul(x),
        )
    }

    fn crossprod(&self) -> DenseMatrix {
        self.run(
            OpKind::Crossprod,
            NormalizedMatrix::crossprod,
            Matrix::crossprod,
        )
    }

    fn row_sums(&self) -> DenseMatrix {
        self.run(
            OpKind::RowSums,
            NormalizedMatrix::row_sums,
            Matrix::row_sums,
        )
    }

    fn col_sums(&self) -> DenseMatrix {
        self.run(
            OpKind::ColSums,
            NormalizedMatrix::col_sums,
            Matrix::col_sums,
        )
    }

    fn sum(&self) -> f64 {
        self.run(OpKind::Sum, NormalizedMatrix::sum, Matrix::sum)
    }

    fn scale(&self, x: f64) -> Self {
        self.scalar_mul(x)
    }

    fn squared(&self) -> Self {
        self.scalar_pow(2.0)
    }

    fn ginv(&self) -> DenseMatrix {
        self.run(OpKind::Ginv, |t| t.ginv(), LinearOperand::ginv)
    }

    fn materialize(&self) -> Matrix {
        self.resident_matrix().clone()
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
    fn strategy_parsing() {
        assert_eq!(Strategy::parse("cost-based"), Some(Strategy::CostBased));
        assert_eq!(Strategy::parse("COST_BASED"), Some(Strategy::CostBased));
        assert!(matches!(
            Strategy::parse("heuristic"),
            Some(Strategy::Heuristic(_))
        ));
        assert_eq!(
            Strategy::parse(" factorize "),
            Some(Strategy::AlwaysFactorize)
        );
        assert_eq!(
            Strategy::parse("always-materialize"),
            Some(Strategy::AlwaysMaterialize)
        );
        assert_eq!(Strategy::parse("flip-a-coin"), None);
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
        let ew = planned.add_matrix(&x);

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
        let _ = planned.add_matrix(&x);
        assert!(planned.is_memoized());
        let _ = planned.add_matrix(&x);
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
        assert_eq!(f2.sum(), tn.scalar_mul(2.0).sum());
        // Materialized closure: the opportunity is spent.
        let m = PlannedMatrix::with_strategy(tn.clone(), Strategy::AlwaysMaterialize);
        let m2 = m.squared();
        assert!(m2.normalized().is_none());
        assert!(m2.is_memoized());
        assert_eq!(m2.sum(), tn.materialize().scalar_pow(2.0).sum());
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
        let pb_mat =
            PlannedMatrix::with_strategy(b.clone(), Strategy::AlwaysMaterialize).scalar_mul(1.0);
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
