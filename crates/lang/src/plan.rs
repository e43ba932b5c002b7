//! Holistic script-level planning: common-subexpression elimination,
//! element-wise fusion, and a plan cache.
//!
//! The per-operator planner ([`morpheus_core::PlannedMatrix`]) decides
//! every call on its own, and it stays the only router: nothing here picks
//! a route. A script still sees more than one call: the same
//! subexpression may be evaluated many times (loop-invariant factors like
//! `t(T)` in gradient descent), and chains of scalar operators each
//! allocate an intermediate. This module removes that work:
//!
//! 1. **CSE** — the optimized AST is hash-consed into a DAG
//!    ([`plan_program`]); at evaluation time each distinct node is
//!    computed once and reused until a variable it reads is rebound
//!    (per-variable generation stamps), so repeated subexpressions and
//!    loop-invariant factors are evaluated once instead of per use.
//! 2. **Element-wise fusion** — adjacent scalar-operator links
//!    (`T*2 + 1`, `1 + exp(..)`, `-x`, `sigmoid(..)`) are folded into one
//!    fused node holding a list of [`ScalarOp`] values. The interpreter
//!    builds and applies the very same values, so there is no second
//!    dispatch to keep in step. On dense values the whole chain runs as
//!    a single pass (one allocation instead of one per link). Scalar
//!    values replay it link by link as the interpreter computes them.
//!    Normalized values replay it link by link through the per-operator
//!    planner, so routing decisions — and therefore numerics — are
//!    exactly the interpreter's.
//! 3. **Plan cache** — a plan depends on the program alone, never on the
//!    values it runs against, so plans are memoized process-wide under a
//!    key of the parsed program (statement structure, names and literal
//!    bits; source lines excluded). A hit skips optimizing and lowering;
//!    [`plan_cache_stats`] exposes hit/miss counters.
//!
//! Values are shared, not copied: a variable read, a memo hit and an
//! assignment all hand out the same [`Arc`]-held value the environment
//! binds, as in the interpreter.

use crate::ast::{BinOp, Expr, Program, Stmt, UnaryFn};
use crate::eval::{
    apply_scalar_op, constant_matrix, eval_bin, eval_call, expect_scalar, unshare, Env, Value,
};
use crate::optimize::optimize;
use crate::token::LangError;
use morpheus_dense::{DenseMatrix, ScalarOp};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Entries kept in the process-wide plan cache before it is cleared
/// wholesale (plans are small; whole-cache eviction keeps the bookkeeping
/// trivial and bounds memory).
const PLAN_CACHE_CAPACITY: usize = 1024;

// ---------------------------------------------------------------------
// The plan IR: a hash-consed DAG with fused scalar chains
// ---------------------------------------------------------------------

/// A DAG node. Variables are interned (`u32` indices into
/// [`ScriptPlan::vars`]), literals carry their bit pattern so the node is
/// hashable, and fused chains keep their base plus the operator list.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum NodeKind {
    /// A literal, as `f64` bits.
    Number(u64),
    /// A variable read.
    Var(u32),
    /// A binary operator that did not fuse.
    Bin(BinOp, usize, usize),
    /// A unary builtin that did not fuse (`t`, aggregations, `ginv`, ...).
    Call(UnaryFn, usize),
    /// `zeros(r, c)`.
    Zeros(usize, usize),
    /// `ones(r, c)`.
    Ones(usize, usize),
    /// A fused element-wise chain over a base node: the operators in
    /// application order, each with its scalar operand baked in.
    Fused(usize, Box<[ScalarOp]>),
}

#[derive(Debug, Clone)]
struct Node {
    kind: NodeKind,
    /// Sorted variable ids this subtree reads — the CSE invalidation set.
    deps: Box<[u32]>,
}

/// A statement over DAG nodes; source lines ride along so runtime errors
/// on planned programs point at the same script lines as on the
/// interpreter.
#[derive(Debug, Clone)]
enum PStmt {
    Assign {
        var: u32,
        node: usize,
        line: usize,
    },
    Expr {
        node: usize,
        line: usize,
    },
    For {
        var: u32,
        from: usize,
        to: usize,
        body: Vec<PStmt>,
        line: usize,
    },
}

impl PStmt {
    fn line(&self) -> usize {
        match self {
            PStmt::Assign { line, .. } | PStmt::Expr { line, .. } | PStmt::For { line, .. } => {
                *line
            }
        }
    }
}

/// A compiled script: the hash-consed DAG and the statement list over it.
/// Build one with [`plan_program`], run it with [`eval_plan`] (or both at
/// once with [`run_program`]).
#[derive(Debug, Clone)]
pub struct ScriptPlan {
    nodes: Vec<Node>,
    stmts: Vec<PStmt>,
    vars: Vec<String>,
}

impl ScriptPlan {
    /// Number of distinct DAG nodes (repeated subexpressions share one).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of fused element-wise chains of at least two links.
    pub fn fused_chain_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(&n.kind, NodeKind::Fused(_, steps) if steps.len() >= 2))
            .count()
    }
}

// ---------------------------------------------------------------------
// Lowering: AST -> hash-consed DAG with fusion
// ---------------------------------------------------------------------

#[derive(Default)]
struct Lowering {
    nodes: Vec<Node>,
    cons: HashMap<NodeKind, usize>,
    vars: Vec<String>,
    var_ids: HashMap<String, u32>,
}

impl Lowering {
    fn var_id(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.var_ids.get(name) {
            return id;
        }
        let id = self.vars.len() as u32;
        self.vars.push(name.to_string());
        self.var_ids.insert(name.to_string(), id);
        id
    }

    fn deps_of(&self, kind: &NodeKind) -> Box<[u32]> {
        fn merge(a: &[u32], b: &[u32]) -> Box<[u32]> {
            let mut out: Vec<u32> = a.iter().chain(b).copied().collect();
            out.sort_unstable();
            out.dedup();
            out.into()
        }
        match kind {
            NodeKind::Number(_) => Box::from([]),
            NodeKind::Var(v) => Box::from([*v]),
            NodeKind::Bin(_, l, r) | NodeKind::Zeros(l, r) | NodeKind::Ones(l, r) => {
                merge(&self.nodes[*l].deps, &self.nodes[*r].deps)
            }
            NodeKind::Call(_, a) | NodeKind::Fused(a, _) => self.nodes[*a].deps.clone(),
        }
    }

    fn intern(&mut self, kind: NodeKind) -> usize {
        if let Some(&id) = self.cons.get(&kind) {
            return id;
        }
        let deps = self.deps_of(&kind);
        let id = self.nodes.len();
        self.nodes.push(Node {
            kind: kind.clone(),
            deps,
        });
        self.cons.insert(kind, id);
        id
    }

    /// The literal value of a node, when it is one.
    fn literal(&self, id: usize) -> Option<f64> {
        match self.nodes[id].kind {
            NodeKind::Number(bits) => Some(f64::from_bits(bits)),
            _ => None,
        }
    }

    /// Appends one step to `base`, extending an existing fused chain.
    fn step_onto(&mut self, base: usize, step: ScalarOp) -> usize {
        let kind = match &self.nodes[base].kind {
            NodeKind::Fused(inner, steps) => {
                let mut all = steps.to_vec();
                all.push(step);
                NodeKind::Fused(*inner, all.into())
            }
            _ => NodeKind::Fused(base, Box::from([step])),
        };
        self.intern(kind)
    }

    fn lower_expr(&mut self, expr: &Expr) -> usize {
        match expr {
            Expr::Number(v) => self.intern(NodeKind::Number(v.to_bits())),
            Expr::Var(name) => {
                let v = self.var_id(name);
                self.intern(NodeKind::Var(v))
            }
            // The interpreter evaluates `-x` as `(-1) * x`; fuse it the
            // same way (IEEE multiplication is commutative bitwise).
            Expr::Neg(inner) => {
                let base = self.lower_expr(inner);
                self.step_onto(base, ScalarOp::Mul(-1.0))
            }
            Expr::Call(f, arg) => {
                let base = self.lower_expr(arg);
                match f.scalar_op() {
                    Some(op) => self.step_onto(base, op),
                    None => self.intern(NodeKind::Call(*f, base)),
                }
            }
            Expr::Zeros(r, c) => {
                let (rn, cn) = (self.lower_expr(r), self.lower_expr(c));
                self.intern(NodeKind::Zeros(rn, cn))
            }
            Expr::Ones(r, c) => {
                let (rn, cn) = (self.lower_expr(r), self.lower_expr(c));
                self.intern(NodeKind::Ones(rn, cn))
            }
            Expr::Bin(op, lhs, rhs) => {
                let l = self.lower_expr(lhs);
                let r = self.lower_expr(rhs);
                // A binary op with one literal operand is a fusable
                // scalar link (`%*%` with a scalar recycles to `*`, as in
                // the interpreter). `==` is never fused: its matrix form
                // is an indicator build, not a scalar chain.
                let step = match (self.literal(l), self.literal(r)) {
                    (_, Some(c)) => op.with_scalar(c, false).map(|s| (l, s)),
                    (Some(c), None) => op.with_scalar(c, true).map(|s| (r, s)),
                    (None, None) => None,
                };
                match step {
                    Some((base, s)) => self.step_onto(base, s),
                    None => self.intern(NodeKind::Bin(*op, l, r)),
                }
            }
        }
    }

    fn lower_stmt(&mut self, stmt: &Stmt) -> PStmt {
        match stmt {
            Stmt::Assign { name, expr, line } => {
                let node = self.lower_expr(expr);
                PStmt::Assign {
                    var: self.var_id(name),
                    node,
                    line: *line,
                }
            }
            Stmt::Expr { expr, line } => PStmt::Expr {
                node: self.lower_expr(expr),
                line: *line,
            },
            Stmt::For {
                var,
                from,
                to,
                body,
                line,
            } => {
                let from = self.lower_expr(from);
                let to = self.lower_expr(to);
                let body = body.iter().map(|s| self.lower_stmt(s)).collect();
                PStmt::For {
                    var: self.var_id(var),
                    from,
                    to,
                    body,
                    line: *line,
                }
            }
        }
    }
}

/// Lowers an (already optimized) program into a plan: DAG + statements.
fn lower(program: &Program) -> ScriptPlan {
    let mut lowering = Lowering::default();
    let stmts = program
        .stmts
        .iter()
        .map(|s| lowering.lower_stmt(s))
        .collect();
    // Chain-building leaves prefix Fused nodes (`T^2` inside
    // `T^2 / 3`) that nothing references; sweep them so node and chain
    // counts reflect only live structure.
    let (nodes, stmts) = sweep(lowering.nodes, stmts);
    ScriptPlan {
        nodes,
        stmts,
        vars: lowering.vars,
    }
}

fn mark_node(nodes: &[Node], id: usize, live: &mut [bool]) {
    if live[id] {
        return;
    }
    live[id] = true;
    match &nodes[id].kind {
        NodeKind::Number(_) | NodeKind::Var(_) => {}
        NodeKind::Bin(_, l, r) | NodeKind::Zeros(l, r) | NodeKind::Ones(l, r) => {
            mark_node(nodes, *l, live);
            mark_node(nodes, *r, live);
        }
        NodeKind::Call(_, a) | NodeKind::Fused(a, _) => mark_node(nodes, *a, live),
    }
}

fn mark_stmts(nodes: &[Node], stmts: &[PStmt], live: &mut [bool]) {
    for s in stmts {
        match s {
            PStmt::Assign { node, .. } | PStmt::Expr { node, .. } => mark_node(nodes, *node, live),
            PStmt::For { from, to, body, .. } => {
                mark_node(nodes, *from, live);
                mark_node(nodes, *to, live);
                mark_stmts(nodes, body, live);
            }
        }
    }
}

fn remap_stmts(stmts: Vec<PStmt>, remap: &[usize]) -> Vec<PStmt> {
    stmts
        .into_iter()
        .map(|s| match s {
            PStmt::Assign { var, node, line } => PStmt::Assign {
                var,
                node: remap[node],
                line,
            },
            PStmt::Expr { node, line } => PStmt::Expr {
                node: remap[node],
                line,
            },
            PStmt::For {
                var,
                from,
                to,
                body,
                line,
            } => PStmt::For {
                var,
                from: remap[from],
                to: remap[to],
                body: remap_stmts(body, remap),
                line,
            },
        })
        .collect()
}

/// Drops nodes unreachable from any statement, compacting indices
/// (children still precede parents afterwards).
fn sweep(nodes: Vec<Node>, stmts: Vec<PStmt>) -> (Vec<Node>, Vec<PStmt>) {
    let mut live = vec![false; nodes.len()];
    mark_stmts(&nodes, &stmts, &mut live);
    let mut remap = vec![usize::MAX; nodes.len()];
    let mut out = Vec::with_capacity(nodes.len());
    for (i, node) in nodes.into_iter().enumerate() {
        if !live[i] {
            continue;
        }
        let kind = match node.kind {
            NodeKind::Bin(op, l, r) => NodeKind::Bin(op, remap[l], remap[r]),
            NodeKind::Zeros(l, r) => NodeKind::Zeros(remap[l], remap[r]),
            NodeKind::Ones(l, r) => NodeKind::Ones(remap[l], remap[r]),
            NodeKind::Call(f, a) => NodeKind::Call(f, remap[a]),
            NodeKind::Fused(a, steps) => NodeKind::Fused(remap[a], steps),
            leaf => leaf,
        };
        remap[i] = out.len();
        out.push(Node {
            kind,
            deps: node.deps,
        });
    }
    let stmts = remap_stmts(stmts, &remap);
    (out, stmts)
}

// ---------------------------------------------------------------------
// Plan cache
// ---------------------------------------------------------------------

/// Hit/miss and fault counters of the process-wide plan cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Plans served from the cache.
    pub hits: u64,
    /// Plans built from scratch.
    pub misses: u64,
    /// Times a poisoned cache lock was recovered by clearing the cache
    /// (cached plans are recomputed on their next use — a degradation,
    /// never an error). Also counted in
    /// [`morpheus_runtime::faults::stats`] as a lock recovery.
    pub poison_recoveries: u64,
}

struct PlanCache {
    map: Mutex<HashMap<(u64, u64), Arc<ScriptPlan>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    poison_recoveries: AtomicU64,
}

impl PlanCache {
    fn new() -> Self {
        PlanCache {
            map: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            poison_recoveries: AtomicU64::new(0),
        }
    }

    /// Locks the plan map, recovering from poisoning by **clearing** the
    /// cache: a thread that died inside the critical section (injectable
    /// via the `plan.cache.lookup`/`plan.cache.insert` failpoints) may
    /// have left a torn insert behind, so the safe recovery is to drop
    /// every entry — plans are pure functions of their key and rebuild on
    /// the next miss. Counted, never propagated.
    fn lock_map(&self) -> std::sync::MutexGuard<'_, HashMap<(u64, u64), Arc<ScriptPlan>>> {
        self.map.lock().unwrap_or_else(|e| {
            self.poison_recoveries.fetch_add(1, Ordering::Relaxed);
            morpheus_runtime::faults::note(morpheus_runtime::faults::Degradation::LockRecovery);
            self.map.clear_poison();
            let mut map = e.into_inner();
            map.clear();
            map
        })
    }

    fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            poison_recoveries: self.poison_recoveries.load(Ordering::Relaxed),
        }
    }

    fn reset(&self) {
        self.lock_map().clear();
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.poison_recoveries.store(0, Ordering::Relaxed);
    }

    fn get_or_insert_with(
        &self,
        key: (u64, u64),
        build: impl FnOnce() -> ScriptPlan,
    ) -> Arc<ScriptPlan> {
        {
            let map = self.lock_map();
            morpheus_runtime::faults::maybe_panic("plan.cache.lookup");
            if let Some(plan) = map.get(&key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Arc::clone(plan);
            }
        }
        // Built outside the lock: a racing build of the same key is
        // wasted work, never wrong (both plans are identical).
        self.misses.fetch_add(1, Ordering::Relaxed);
        let plan = Arc::new(build());
        let mut map = self.lock_map();
        if map.len() >= PLAN_CACHE_CAPACITY {
            map.clear();
        }
        morpheus_runtime::faults::maybe_panic("plan.cache.insert");
        map.insert(key, Arc::clone(&plan));
        plan
    }
}

fn global_cache() -> &'static PlanCache {
    static CACHE: OnceLock<PlanCache> = OnceLock::new();
    CACHE.get_or_init(PlanCache::new)
}

/// Hit/miss counters of the process-wide plan cache.
pub fn plan_cache_stats() -> PlanCacheStats {
    global_cache().stats()
}

/// Clears the process-wide plan cache and its counters.
pub fn plan_cache_reset() {
    global_cache().reset();
}

fn hash_expr<H: Hasher>(h: &mut H, expr: &Expr) {
    std::mem::discriminant(expr).hash(h);
    match expr {
        Expr::Number(v) => v.to_bits().hash(h),
        Expr::Var(name) => name.hash(h),
        Expr::Bin(op, l, r) => {
            op.hash(h);
            hash_expr(h, l);
            hash_expr(h, r);
        }
        Expr::Neg(a) => hash_expr(h, a),
        Expr::Call(f, a) => {
            f.hash(h);
            hash_expr(h, a);
        }
        Expr::Zeros(r, c) | Expr::Ones(r, c) => {
            hash_expr(h, r);
            hash_expr(h, c);
        }
    }
}

fn hash_stmts<H: Hasher>(h: &mut H, stmts: &[Stmt]) {
    // Source lines are deliberately excluded: formatting-only edits reuse
    // the cached plan. The length keeps a loop body's end unambiguous.
    stmts.len().hash(h);
    for s in stmts {
        std::mem::discriminant(s).hash(h);
        match s {
            Stmt::Assign { name, expr, .. } => {
                name.hash(h);
                hash_expr(h, expr);
            }
            Stmt::Expr { expr, .. } => hash_expr(h, expr),
            Stmt::For {
                var,
                from,
                to,
                body,
                ..
            } => {
                var.hash(h);
                hash_expr(h, from);
                hash_expr(h, to);
                hash_stmts(h, body);
            }
        }
    }
}

/// The cache key: two independent 64-bit hashes of the parsed program
/// (so a single-hash collision cannot alias two plans).
fn plan_key(program: &Program) -> (u64, u64) {
    let mut out = [0u64; 2];
    for (slot, salt) in out
        .iter_mut()
        .zip([0x9e37_79b9_7f4a_7c15u64, 0x6a09_e667_f3bc_c909u64])
    {
        let mut h = DefaultHasher::new();
        h.write_u64(salt);
        hash_stmts(&mut h, &program.stmts);
        *slot = h.finish();
    }
    (out[0], out[1])
}

// ---------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------

/// Plans a program: optimizes (to fixpoint) and hash-conses into a CSE
/// DAG with fused element-wise chains.
///
/// Plans are memoized process-wide under a key of the parsed program, so
/// a hit skips all of that work. `_env` does not affect the plan; it is
/// kept so existing callers compile.
pub fn plan_program(program: &Program, _env: &Env) -> Arc<ScriptPlan> {
    global_cache().get_or_insert_with(plan_key(program), || lower(&optimize(program)))
}

/// Evaluates a planned program: runs the statement list with each
/// distinct DAG node computed once per validity epoch (a node is
/// recomputed only after a variable it reads is rebound).
pub fn eval_plan(plan: &ScriptPlan, env: &mut Env) -> Result<Value, LangError> {
    let mut ctx = EvalCtx {
        memo: vec![None; plan.nodes.len()],
        var_stamp: vec![0; plan.vars.len()],
        clock: 0,
    };
    let mut last = Arc::new(Value::Scalar(0.0));
    for stmt in &plan.stmts {
        last = eval_stmt(plan, &mut ctx, stmt, env)?;
    }
    Ok(unshare(last))
}

/// Plans (with caching) and evaluates in one call — the drop-in
/// script-level replacement for [`crate::eval_program`].
pub fn run_program(program: &Program, env: &mut Env) -> Result<Value, LangError> {
    let plan = plan_program(program, env);
    eval_plan(&plan, env)
}

// ---------------------------------------------------------------------
// Plan evaluation (CSE with per-variable generation stamps)
// ---------------------------------------------------------------------

struct EvalCtx {
    /// Per-node `(stamp, value)`: valid while no dependency variable has
    /// been rebound after `stamp`.
    memo: Vec<Option<(u64, Arc<Value>)>>,
    var_stamp: Vec<u64>,
    clock: u64,
}

impl EvalCtx {
    fn bump(&mut self, var: u32) {
        self.clock += 1;
        self.var_stamp[var as usize] = self.clock;
    }
}

fn eval_stmt(
    plan: &ScriptPlan,
    ctx: &mut EvalCtx,
    stmt: &PStmt,
    env: &mut Env,
) -> Result<Arc<Value>, LangError> {
    eval_stmt_inner(plan, ctx, stmt, env).map_err(|e| e.at(stmt.line()))
}

fn eval_stmt_inner(
    plan: &ScriptPlan,
    ctx: &mut EvalCtx,
    stmt: &PStmt,
    env: &mut Env,
) -> Result<Arc<Value>, LangError> {
    match stmt {
        PStmt::Assign { var, node, .. } => {
            let v = eval_node(plan, ctx, env, *node)?;
            env.bind_shared(&plan.vars[*var as usize], Arc::clone(&v));
            ctx.bump(*var);
            Ok(v)
        }
        PStmt::Expr { node, .. } => eval_node(plan, ctx, env, *node),
        PStmt::For {
            var,
            from,
            to,
            body,
            ..
        } => {
            let lo = expect_scalar(&*eval_node(plan, ctx, env, *from)?, "for-range start")?;
            let hi = expect_scalar(&*eval_node(plan, ctx, env, *to)?, "for-range end")?;
            let (lo, hi) = (lo.round() as i64, hi.round() as i64);
            let name = &plan.vars[*var as usize];
            let mut last = Arc::new(Value::Scalar(0.0));
            for i in lo..=hi {
                env.bind(name, Value::Scalar(i as f64));
                ctx.bump(*var);
                for s in body {
                    last = eval_stmt(plan, ctx, s, env)?;
                }
            }
            Ok(last)
        }
    }
}

fn eval_node(
    plan: &ScriptPlan,
    ctx: &mut EvalCtx,
    env: &Env,
    id: usize,
) -> Result<Arc<Value>, LangError> {
    // Leaves bypass the memo: literals are trivial and variable reads
    // must observe the current binding.
    match &plan.nodes[id].kind {
        NodeKind::Number(bits) => return Ok(Arc::new(Value::Scalar(f64::from_bits(*bits)))),
        NodeKind::Var(v) => return env.get_shared(&plan.vars[*v as usize]),
        _ => {}
    }
    if let Some((stamp, value)) = &ctx.memo[id] {
        let fresh = plan.nodes[id]
            .deps
            .iter()
            .all(|&d| ctx.var_stamp[d as usize] <= *stamp);
        if fresh {
            return Ok(Arc::clone(value));
        }
    }
    let value = match &plan.nodes[id].kind {
        NodeKind::Number(_) | NodeKind::Var(_) => unreachable!("handled above"),
        NodeKind::Bin(op, l, r) => {
            let lv = eval_node(plan, ctx, env, *l)?;
            let rv = eval_node(plan, ctx, env, *r)?;
            Arc::new(eval_bin(*op, &lv, &rv)?)
        }
        NodeKind::Call(f, a) => eval_call(*f, &eval_node(plan, ctx, env, *a)?)?,
        NodeKind::Zeros(r, c) => {
            let (rv, cv) = (
                eval_node(plan, ctx, env, *r)?,
                eval_node(plan, ctx, env, *c)?,
            );
            Arc::new(constant_matrix("zeros", &rv, &cv, DenseMatrix::zeros)?)
        }
        NodeKind::Ones(r, c) => {
            let (rv, cv) = (
                eval_node(plan, ctx, env, *r)?,
                eval_node(plan, ctx, env, *c)?,
            );
            Arc::new(constant_matrix("ones", &rv, &cv, DenseMatrix::ones)?)
        }
        NodeKind::Fused(base, steps) => {
            let base = eval_node(plan, ctx, env, *base)?;
            Arc::new(apply_fused(steps, &base))
        }
    };
    ctx.memo[id] = Some((ctx.clock, Arc::clone(&value)));
    Ok(value)
}

fn apply_fused(steps: &[ScalarOp], base: &Value) -> Value {
    match base {
        // Dense: the whole chain in one pass — one allocation instead of
        // one per link, bit-identical per element to the chained kernels.
        Value::Dense(m) => Value::Dense(m.map(|x| steps.iter().fold(x, |acc, op| op.apply(acc)))),
        // Scalars link by link as the interpreter computes them;
        // normalized values link by link through the per-operator planner,
        // so routing decisions match the interpreter exactly.
        _ => {
            let (first, rest) = steps.split_first().expect("a fused chain has a link");
            rest.iter()
                .fold(apply_scalar_op(*first, base), |current, &op| {
                    apply_scalar_op(op, &current)
                })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval_program;
    use crate::parser::parse;
    use morpheus_core::cost::OpKind;
    use morpheus_core::{
        Decision, LinearOperand, MachineProfile, NormalizedMatrix, PlannedMatrix, Strategy,
    };
    use std::sync::atomic::AtomicUsize;

    /// Plans without touching the process-wide cache, whose counters the
    /// cache tests assert.
    fn run_planned(src: &str, env: &mut Env) -> Result<Value, LangError> {
        let plan = lower(&optimize(&parse(src).unwrap()));
        eval_plan(&plan, env)
    }

    fn run_interp(src: &str, env: &mut Env) -> Result<Value, LangError> {
        eval_program(&parse(src).unwrap(), env)
    }

    /// A deterministic PK-FK normalized matrix (`n_s x (d_s + d_r)`).
    fn pkfk(n_s: usize, d_s: usize, n_r: usize, d_r: usize) -> NormalizedMatrix {
        let mut seed = 0x2545f491u64;
        let mut next = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 33) as f64) / ((1u64 << 31) as f64) - 0.5
        };
        let s = DenseMatrix::from_fn(n_s, d_s, |_, _| next());
        let r = DenseMatrix::from_fn(n_r, d_r, |_, _| next());
        let fk: Vec<usize> = (0..n_s).map(|i| (i * 7 + 3) % n_r).collect();
        NormalizedMatrix::pk_fk(s.into(), &fk, r.into())
    }

    /// Counts planner decisions for one operator kind via the hook.
    fn counting(
        t: NormalizedMatrix,
        strategy: Strategy,
        count_op: fn(&OpKind) -> bool,
    ) -> (PlannedMatrix, Arc<AtomicUsize>) {
        let n = Arc::new(AtomicUsize::new(0));
        let n2 = Arc::clone(&n);
        let p = PlannedMatrix::with_strategy(t, strategy)
            .with_profile(MachineProfile::REFERENCE)
            .with_hook(move |d: &Decision| {
                if count_op(&d.op) {
                    n2.fetch_add(1, Ordering::Relaxed);
                }
            });
        (p, n)
    }

    fn bits(v: &Value) -> Vec<u64> {
        match v {
            Value::Scalar(x) => vec![x.to_bits()],
            Value::Dense(m) => m.as_slice().iter().map(|x| x.to_bits()).collect(),
            Value::Normalized(p) => p
                .materialize()
                .to_dense()
                .as_slice()
                .iter()
                .map(|x| x.to_bits())
                .collect(),
        }
    }

    #[test]
    fn fusion_collapses_scalar_chains() {
        let program = parse("sum((T ^ 2) / 3 - 0.5)").unwrap();
        let plan = lower(&optimize(&program));
        let chains: Vec<usize> = plan
            .nodes
            .iter()
            .filter_map(|n| match &n.kind {
                NodeKind::Fused(_, steps) => Some(steps.len()),
                _ => None,
            })
            .collect();
        assert_eq!(chains, vec![3], "expected one fused chain of 3 links");
        assert_eq!(plan.fused_chain_count(), 1);
    }

    #[test]
    fn single_ops_also_fuse_and_stay_exact() {
        // `-x` lowers to a one-link chain: MulC(-1), the interpreter's
        // own desugaring.
        let program = parse("-(X + 0)").unwrap();
        let plan = lower(&optimize(&program));
        assert!(plan
            .nodes
            .iter()
            .any(|n| matches!(&n.kind, NodeKind::Fused(_, s) if s.len() == 1)));
    }

    #[test]
    fn planned_eval_matches_interpreter_bitwise_on_dense() {
        let src =
            "a = exp(X / 7 - 0.25)\nb = 2 ^ a\nc = -b + sigma\nsum(log(c * c + 1.5)) - sum(a)";
        let x = DenseMatrix::from_fn(8, 5, |i, j| (i as f64 - 2.0) * 0.3 + j as f64 * 0.7);
        let mk = || {
            let mut env = Env::new();
            env.bind("X", Value::Dense(x.clone()));
            env.bind("sigma", Value::Scalar(1.75));
            env
        };
        let vi = run_interp(src, &mut mk()).unwrap();
        let vp = run_planned(src, &mut mk()).unwrap();
        assert_eq!(bits(&vi), bits(&vp));
    }

    #[test]
    fn fused_chain_replays_bitwise_on_normalized() {
        let src = "sum(exp(2 * T + 1) / 3)";
        let t = pkfk(24, 3, 6, 4);
        let mk = |t: NormalizedMatrix| {
            let mut env = Env::new();
            env.bind(
                "T",
                Value::Normalized(
                    PlannedMatrix::with_strategy(t, Strategy::AlwaysFactorize)
                        .with_profile(MachineProfile::REFERENCE),
                ),
            );
            env
        };
        let vi = run_interp(src, &mut mk(t.clone())).unwrap();
        let vp = run_planned(src, &mut mk(t)).unwrap();
        assert_eq!(bits(&vi), bits(&vp));
    }

    #[test]
    fn normalized_elementwise_operands_route_through_the_planner() {
        // §3.3.7: each normalized operand of a matrix ⊘ matrix operator or
        // of `==` against a scalar is one routed fallback decision, on
        // either side, in both evaluators; the result equals the same
        // script on the materialized join.
        let t = pkfk(24, 3, 6, 4);
        let x = DenseMatrix::from_fn(24, 7, |i, j| (i * 7 + j) as f64 * 0.25 - 3.0);
        let is_fallback = |op: &OpKind| matches!(op, OpKind::ElementwiseFallback);
        let joined = Value::Dense(t.materialize().to_dense());
        type Run = fn(&str, &mut Env) -> Result<Value, LangError>;
        for (src, want) in [
            ("T + X", 1),
            ("X + T", 1),
            ("X * T", 1),
            ("T == 0", 1),
            ("0 == T", 1),
            ("T - T", 2),
        ] {
            for run in [run_interp as Run, run_planned] {
                let (p, n) = counting(t.clone(), Strategy::AlwaysMaterialize, is_fallback);
                let mut env = Env::new();
                env.bind("T", Value::Normalized(p));
                env.bind("X", Value::Dense(x.clone()));
                let got = run(src, &mut env).unwrap();
                assert_eq!(n.load(Ordering::Relaxed), want, "{src}");
                let mut env = Env::new();
                env.bind("T", joined.clone());
                env.bind("X", Value::Dense(x.clone()));
                assert_eq!(bits(&got), bits(&run(src, &mut env).unwrap()), "{src}");
            }
        }
    }

    #[test]
    fn for_loop_parity_bitwise() {
        let src = "w = zeros(4, 1)\nfor (i in 1:3) {\n  p = Y / (1 + exp(Y * (X %*% w)))\n  w = w + 0.01 * (t(X) %*% p)\n}\nw";
        let x = DenseMatrix::from_fn(6, 4, |i, j| ((i * 5 + j * 3) % 7) as f64 * 0.2 - 0.5);
        let y = DenseMatrix::from_fn(6, 1, |i, _| if i % 2 == 0 { 1.0 } else { -1.0 });
        let mk = || {
            let mut env = Env::new();
            env.bind("X", Value::Dense(x.clone()));
            env.bind("Y", Value::Dense(y.clone()));
            env
        };
        let vi = run_interp(src, &mut mk()).unwrap();
        let vp = run_planned(src, &mut mk()).unwrap();
        assert_eq!(bits(&vi), bits(&vp));
    }

    #[test]
    fn cse_evaluates_shared_subexpressions_once() {
        let src = "a = sum(crossprod(T))\nb = sum(crossprod(T))\na + b";
        let t = pkfk(32, 2, 8, 3);
        let is_cp = |op: &OpKind| matches!(op, OpKind::Crossprod);

        let (p, n_interp) = counting(t.clone(), Strategy::AlwaysFactorize, is_cp);
        let mut env = Env::new();
        env.bind("T", Value::Normalized(p));
        let vi = run_interp(src, &mut env).unwrap();

        let (p, n_planned) = counting(t, Strategy::AlwaysFactorize, is_cp);
        let mut env = Env::new();
        env.bind("T", Value::Normalized(p));
        let vp = run_planned(src, &mut env).unwrap();

        assert_eq!(n_interp.load(Ordering::Relaxed), 2);
        assert_eq!(n_planned.load(Ordering::Relaxed), 1);
        assert_eq!(bits(&vi), bits(&vp));
    }

    #[test]
    fn loop_invariant_expressions_hoist() {
        let src = "s = 0\nfor (i in 1:5) { s = s + sum(crossprod(T)) }\ns";
        let t = pkfk(32, 2, 8, 3);
        let is_cp = |op: &OpKind| matches!(op, OpKind::Crossprod);

        let (p, n_interp) = counting(t.clone(), Strategy::AlwaysFactorize, is_cp);
        let mut env = Env::new();
        env.bind("T", Value::Normalized(p));
        let vi = run_interp(src, &mut env).unwrap();

        let (p, n_planned) = counting(t, Strategy::AlwaysFactorize, is_cp);
        let mut env = Env::new();
        env.bind("T", Value::Normalized(p));
        let vp = run_planned(src, &mut env).unwrap();

        assert_eq!(n_interp.load(Ordering::Relaxed), 5);
        assert_eq!(n_planned.load(Ordering::Relaxed), 1);
        assert_eq!(bits(&vi), bits(&vp));
    }

    #[test]
    fn planned_eval_preserves_error_lines() {
        let mut env = Env::new();
        let err = run_planned("x = 1\nz = nope + 1\nz", &mut env).unwrap_err();
        match err {
            LangError::At { line, inner } => {
                assert_eq!(line, 2);
                assert_eq!(*inner, LangError::Undefined("nope".into()));
            }
            other => panic!("expected line-annotated error, got {other}"),
        }
    }

    #[test]
    fn plan_cache_hits_and_keying() {
        // The global counters are shared: every test that reads them (or
        // arms the `plan.cache.*` failpoints) holds the guard.
        let _guard = morpheus_runtime::faults::exclusive();
        plan_cache_reset();
        let program = parse("sum(t(T) %*% (T %*% w))").unwrap();
        let planned = |t: NormalizedMatrix, strategy: Strategy| {
            PlannedMatrix::with_strategy(t, strategy).with_profile(MachineProfile::REFERENCE)
        };
        let env_for = |t: PlannedMatrix| {
            let mut env = Env::new();
            env.bind("T", Value::Normalized(t));
            env.bind("w", Value::Dense(DenseMatrix::ones(5, 1)));
            env
        };
        let first = plan_program(
            &program,
            &env_for(planned(pkfk(16, 2, 4, 3), Strategy::CostBased)),
        );

        // The same program against other environments hits: a different
        // table shape, a different strategy, a memoized join.
        let memoized = planned(pkfk(16, 2, 4, 3), Strategy::CostBased);
        let _ = LinearOperand::materialize(&memoized);
        assert!(memoized.is_memoized());
        for t in [
            planned(pkfk(48, 2, 8, 3), Strategy::CostBased),
            planned(pkfk(16, 2, 4, 3), Strategy::AlwaysFactorize),
            memoized,
        ] {
            assert!(Arc::ptr_eq(&first, &plan_program(&program, &env_for(t))));
        }
        // Source lines are not part of the key either.
        let reformatted = parse("\n\nsum(t(T) %*% (T %*% w))").unwrap();
        assert!(Arc::ptr_eq(
            &first,
            &plan_program(&reformatted, &Env::new())
        ));
        assert_eq!(
            plan_cache_stats(),
            PlanCacheStats {
                hits: 4,
                misses: 1,
                poison_recoveries: 0
            }
        );

        // A changed program misses.
        let changed = parse("sum(t(T) %*% (T %*% w)) + 1").unwrap();
        assert!(!Arc::ptr_eq(&first, &plan_program(&changed, &Env::new())));
        assert_eq!(plan_cache_stats().misses, 2);
    }

    #[test]
    fn plan_cache_capacity_clears_wholesale() {
        let _guard = morpheus_runtime::faults::exclusive();
        let cache = PlanCache::new();
        let plan_of = |src: &str| lower(&optimize(&parse(src).unwrap()));
        for i in 0..PLAN_CACHE_CAPACITY + 1 {
            cache.get_or_insert_with((i as u64, 0), || plan_of("1 + 1"));
        }
        // The insert that crossed capacity cleared the map first.
        assert!(cache.map.lock().unwrap().len() <= PLAN_CACHE_CAPACITY);
        assert_eq!(cache.stats().misses, (PLAN_CACHE_CAPACITY + 1) as u64);
    }

    #[test]
    fn poisoned_cache_recovers_by_clearing() {
        use morpheus_runtime::faults;
        let _guard = faults::exclusive();
        let cache = PlanCache::new();
        let plan_of = |src: &str| lower(&optimize(&parse(src).unwrap()));
        cache.get_or_insert_with((1, 1), || plan_of("1 + 1"));
        assert_eq!(cache.stats().hits + cache.stats().misses, 1);
        // Kill a thread inside the cache's critical section: the mutex is
        // now poisoned.
        faults::configure("plan.cache.lookup=panic(times=1)").unwrap();
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.get_or_insert_with((2, 2), || plan_of("2 + 2"))
        }));
        faults::clear();
        assert!(died.is_err(), "injected lookup panic must propagate");
        assert!(cache.map.is_poisoned());
        // The next access recovers by clearing — no propagated poison,
        // the counter ticks, and the cache works again (a miss, since
        // recovery dropped the entries).
        let recoveries_before = cache.stats().poison_recoveries;
        cache.get_or_insert_with((1, 1), || plan_of("1 + 1"));
        assert_eq!(cache.stats().poison_recoveries, recoveries_before + 1);
        assert!(!cache.map.is_poisoned());
        cache.get_or_insert_with((1, 1), || panic!("must hit after recovery"));
    }

    #[test]
    fn global_cache_round_trip_when_enabled() {
        let _guard = morpheus_runtime::faults::exclusive();
        plan_cache_reset();
        let program = parse("x = 41\nx + 1").unwrap();
        let v1 = run_program(&program, &mut Env::new()).unwrap();
        let s1 = plan_cache_stats();
        let v2 = run_program(&program, &mut Env::new()).unwrap();
        let s2 = plan_cache_stats();
        assert_eq!(v1.as_scalar(), Some(42.0));
        assert_eq!(v2.as_scalar(), Some(42.0));
        assert_eq!(s2.misses, s1.misses);
        assert_eq!(s2.hits, s1.hits + 1);
    }
}
