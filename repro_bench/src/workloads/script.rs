//! The `script` workload: one R-like source text — column
//! standardization into a correlation matrix, normal equations, ten
//! gradient steps of linear and twenty of logistic regression — run
//! through parser → script planner → planner → kernels on a large table
//! (kernels dominate) and a tiny one (fixed per-script cost dominates).

use crate::data::{self, Dataset};
use crate::decisions::DecisionLog;
use crate::harness::{calibrate, peak_rss_mib, repeat_setup, timed, Deadline, Report, RunCfg};
use crate::probes;
use crate::stats::{median, summarize};
use crate::trace::{self, in_span};
use morpheus_core::{Matrix, PlannedMatrix};
use morpheus_dense::DenseMatrix;
use morpheus_lang::{
    eval_plan, eval_program, parse, plan_cache_reset, plan_cache_stats, plan_program, run_program,
    Env, Program, Value,
};

/// The script. Its standardization stage (zero mean / unit variance with
/// `sd + (sd == 0)`) is the column half of successive normalization and
/// is built only from factorizable aggregates feeding a `crossprod`.
pub const SOURCE: &str = "\
mu = colSums(T) / n
G = crossprod(T)
C = (G - n * (t(mu) %*% mu)) / (n - 1)
sd = (colSums(T ^ 2) / n - mu ^ 2) ^ 0.5
sd = sd + (sd == 0)
R = C / (t(sd) %*% sd)
b = ginv(crossprod(T)) %*% (t(T) %*% Y)
v = zeros(d, 1)
for (i in 1:10) { v = v - beta * (crossprod(T) %*% v - t(T) %*% Y) }
w = zeros(d, 1)
for (i in 1:20) { w = w + alpha * (t(T) %*% (L / (1 + exp(L * (T %*% w))))) }
sum(R) + sum(b) + sum(v) + sum(w)
";

/// Relative agreement bound between the normalized-bound and the
/// dense-bound run of the script.
const DENSE_TOL: f64 = 1e-9;

/// Attribute-table rows of the large table (`TR = 20`, `FR = 4`,
/// `d_S = 20`: 20 × this many rows by 100 columns).
const LARGE_N_R: usize = 2_000;
/// Attribute-table rows of the tiny table (2 000 × 100).
const TINY_N_R: usize = 100;

fn table(cfg: &RunCfg, n_r: usize) -> Dataset {
    data::pkfk(cfg, 20.0, 4.0, n_r, 20)
}

/// What `T` is bound to.
enum Binding<'a> {
    /// `Value::normalized` over a fresh planner (optionally logging its
    /// verdicts).
    Normalized(Option<&'a DecisionLog>),
    /// The dense join output.
    Dense(&'a DenseMatrix),
}

fn env_for(ds: &Dataset, t: Binding<'_>) -> Env {
    let mut env = Env::new();
    let planned = |log: Option<&DecisionLog>| {
        let p = PlannedMatrix::new(ds.tn.clone());
        match log {
            Some(log) => p.with_hook(log.hook()),
            None => p,
        }
    };
    env.bind(
        "T",
        match t {
            Binding::Normalized(log) => Value::normalized(planned(log)),
            Binding::Dense(m) => Value::Dense(m.clone()),
        },
    );
    env.bind("Y", Value::Dense(ds.y.clone()));
    env.bind("L", Value::Dense(ds.labels.clone()));
    env.bind("n", Value::Scalar(ds.tn.rows() as f64));
    env.bind("d", Value::Scalar(ds.tn.cols() as f64));
    env.bind("alpha", Value::Scalar(1e-5));
    env.bind("beta", Value::Scalar(1e-7));
    env
}

fn scalar(v: Result<Value, morpheus_lang::LangError>) -> f64 {
    v.ok().and_then(|v| v.as_scalar()).unwrap_or(f64::NAN)
}

/// One script, text in → value out: `parse` + `run_program`, timed; the
/// environment is the caller's and is built outside the clock.
fn run_script(mut env: Env) -> (f64, f64) {
    timed(|| match parse(SOURCE) {
        Ok(program) => scalar(run_program(&program, &mut env)),
        Err(_) => f64::NAN,
    })
}

fn close(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol * a.abs().max(b.abs()).max(1.0)
}

/// `(node_count, fused_chain_count)` of the script's plan against the
/// tiny table — counts that must repeat exactly for a given seed.
pub fn plan_counts(cfg: &RunCfg) -> (usize, usize) {
    let program = parse(SOURCE).expect("the benchmark script parses");
    let env = env_for(&table(cfg, TINY_N_R), Binding::Normalized(None));
    let plan = plan_program(&program, &env);
    (plan.node_count(), plan.fused_chain_count())
}

/// Runs the workload and fills the end-to-end or the per-layer metrics.
pub fn run(cfg: &RunCfg) -> Report {
    let mut report = Report::default();
    let reps = cfg.setup_reps();
    let ((large, tiny, tm), setup_s) = repeat_setup(reps, |rep| {
        let (large, tiny) = in_span("data.generate", || {
            (table(cfg, LARGE_N_R), table(cfg, TINY_N_R))
        });
        calibrate(rep);
        let tm = in_span("core.materialize", || large.tn.materialize());
        (large, tiny, tm)
    });
    if cfg.trace {
        traced(cfg, &large, &tiny, &tm, &mut report);
    } else {
        report.samples("setup_s", &setup_s);
        let dense = tm.as_dense().expect("a dense PK-FK join output is dense");
        end_to_end(cfg, &large, &tiny, dense, &mut report);
        report.value("peak_rss_mb", peak_rss_mib());
    }
    report
}

/// Checked once, outside the timed units: planned vs tree-walking
/// interpreter (bitwise when both logged the same routes), and vs the
/// dense-bound value.
fn check_values(ds: &Dataset, dense_value: f64, report: &mut Report) {
    let program: Program = parse(SOURCE).expect("the benchmark script parses");
    let (plan_log, interp_log) = (DecisionLog::default(), DecisionLog::default());
    let planned = scalar(run_program(
        &program,
        &mut env_for(ds, Binding::Normalized(Some(&plan_log))),
    ));
    let interp = scalar(eval_program(
        &program,
        &mut env_for(ds, Binding::Normalized(Some(&interp_log))),
    ));
    if plan_log.all_factorized() && interp_log.all_factorized() {
        report.check(
            planned.to_bits() == interp.to_bits(),
            "planned script value differs bitwise from the interpreter under identical routes",
        );
    } else {
        report.check(
            close(planned, interp, DENSE_TOL),
            "planned script value disagrees with the interpreter",
        );
    }
    report.check(
        close(planned, dense_value, DENSE_TOL),
        "normalized-bound script value disagrees with the dense-bound run",
    );
}

/// Rounds of large-table runs — normalized, dense, normalized: the
/// dense-bound run costs several normalized ones, so it gets one sample
/// per round, bracketed by the runs it is compared with — each followed
/// by a batch of tiny-table scripts.
fn end_to_end(
    cfg: &RunCfg,
    large: &Dataset,
    tiny: &Dataset,
    dense: &DenseMatrix,
    report: &mut Report,
) {
    let min_rounds = if cfg.quick { 1 } else { 3 };
    let small_per_round = if cfg.quick { 5 } else { 14 };
    let deadline = Deadline::new(cfg.budget_s());
    let (mut norm_s, mut dense_s, mut small_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut dense_value = f64::NAN;
    let tiny_value = run_script(env_for(tiny, Binding::Normalized(None))).1;
    // Round 0 warms the plan cache, the pool and the allocator. The tiny
    // scripts ride in every round (about 30 % of it) rather than in a
    // phase of their own, so both tables sample the whole run's weather.
    for round in 0.. {
        if round > min_rounds && deadline.expired() {
            break;
        }
        let (a_s, a_v) = run_script(env_for(large, Binding::Normalized(None)));
        let (d_s, d_v) = run_script(env_for(large, Binding::Dense(dense)));
        let (b_s, b_v) = run_script(env_for(large, Binding::Normalized(None)));
        dense_value = d_v;
        if round > 0 {
            norm_s.extend([a_s, b_s]);
            dense_s.push(d_s);
            report.check(
                a_v.to_bits() == b_v.to_bits() && close(a_v, d_v, DENSE_TOL),
                "normalized-bound script value disagrees with the dense-bound run",
            );
        }
        for _ in 0..small_per_round {
            let (s, v) = run_script(env_for(tiny, Binding::Normalized(None)));
            if round > 0 {
                small_s.push(s);
                report.check(
                    v.to_bits() == tiny_value.to_bits(),
                    "tiny script value changed between runs",
                );
            }
        }
    }
    check_values(large, dense_value, report);
    report.samples("default_s", &norm_s);
    report.samples("reference_s", &dense_s);
    report.value("slow_s", summarize(&norm_s).q3);
    report.value("rate_per_s", 1.0 / median(&small_s));
}

/// The traced run: parse / plan / eval under spans on both tables, the
/// interpreter and the dense-bound run for reference, plan-cache
/// counters, and the kernel probes on the large table.
fn traced(cfg: &RunCfg, large: &Dataset, tiny: &Dataset, tm: &Matrix, report: &mut Report) {
    let dense = tm.as_dense().expect("a dense PK-FK join output is dense");
    let program: Program = parse(SOURCE).expect("the benchmark script parses");
    let traced_script = |ds: &Dataset| {
        let mut env = env_for(ds, Binding::Normalized(None));
        timed(|| {
            in_span("script", || {
                let program = in_span("lang.parse", || parse(SOURCE)).expect("script parses");
                let plan = in_span("lang.plan", || plan_program(&program, &env));
                scalar(in_span("lang.eval", || eval_plan(&plan, &mut env)))
            })
        })
    };
    // Large table: traced vs untraced runs interleaved.
    let min_rounds = 2;
    let deadline = Deadline::new(cfg.budget_s() * 0.35);
    let (mut traced_s, mut plain_s) = (Vec::new(), Vec::new());
    for round in 0.. {
        if round > min_rounds && deadline.expired() {
            break;
        }
        trace::set_enabled(round > 0);
        let (t_s, _) = traced_script(large);
        trace::set_enabled(false);
        let (u_s, _) = run_script(env_for(large, Binding::Normalized(None)));
        if round > 0 {
            traced_s.push(t_s);
            plain_s.push(u_s);
        }
    }
    trace::set_enabled(true);
    let spans = trace::snapshot();
    let evals: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "lang.eval")
        .map(|s| s.duration_ns() as f64 / 1e9)
        .collect();
    report.samples("lang.eval_s", &evals);
    report.value(
        "trace.overhead_frac",
        median(&traced_s) / median(&plain_s) - 1.0,
    );

    // The tree-walking interpreter and the dense-bound run, same script.
    let (interp_s, interp_v) = timed(|| {
        scalar(eval_program(
            &program,
            &mut env_for(large, Binding::Normalized(None)),
        ))
    });
    report.value("lang.interp_s", interp_s);
    report.value("lang.planned_speedup", interp_s / median(&traced_s));
    let (dense_s, dense_v) = run_script(env_for(large, Binding::Dense(dense)));
    report.value("lang.dense_bound_s", dense_s);
    report.check(
        close(interp_v, dense_v, DENSE_TOL),
        "interpreted script value disagrees with the dense-bound run",
    );
    check_values(large, dense_v, report);

    // Fixed per-script costs, on the tiny table.
    let env = env_for(tiny, Binding::Normalized(None));
    let parse_us: Vec<f64> = (0..200)
        .map(|_| timed(|| std::hint::black_box(parse(SOURCE))).0 * 1e6)
        .collect();
    report.samples("lang.parse_us", &parse_us);
    let cold_us: Vec<f64> = (0..20)
        .map(|_| {
            plan_cache_reset();
            timed(|| plan_program(&program, &env)).0 * 1e6
        })
        .collect();
    report.samples("lang.plan_cold_us", &cold_us);
    let warm_us: Vec<f64> = (0..200)
        .map(|_| timed(|| plan_program(&program, &env)).0 * 1e6)
        .collect();
    report.samples("lang.plan_warm_us", &warm_us);
    let plan = plan_program(&program, &env);
    report.value("lang.plan_nodes", plan.node_count() as f64);
    report.value("lang.fused_chains", plan.fused_chain_count() as f64);

    // Tiny scripts back to back: a plan-cache miss per run would be a bug.
    let before = plan_cache_stats();
    let min_small = if cfg.quick { 10 } else { 50 };
    let deadline = Deadline::new(cfg.budget_s() * 0.15);
    let mut small = 0usize;
    while small < min_small || !deadline.expired() {
        let (_, v) = traced_script(tiny);
        report.check(v.is_finite(), "tiny script value is not finite");
        small += 1;
    }
    let after = plan_cache_stats();
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    report.value(
        "lang.plan_cache_hit_frac",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    trace::set_enabled(false);

    let spans = trace::snapshot();
    report.value("data.generate_s", trace::named_s(&spans, "data.generate"));
    report.value(
        "core.materialize_s",
        trace::named_s(&spans, "core.materialize"),
    );
    let reps = if cfg.quick { 2 } else { 3 };
    probes::all(report, &large.tn, tm, reps);
}
