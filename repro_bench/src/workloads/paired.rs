//! What the five paired training workloads (the four in-memory ones and
//! `ooc`) share: the alternating end-to-end pair loop, the traced rounds,
//! and the span split of a pass.

use crate::decisions::DecisionLog;
use crate::harness::{timed, Deadline, Report};
use crate::pass::{model_delta, models_agree, Models};
use crate::stats::{median, summarize};
use crate::trace::{self, in_span, Span, OP_PREFIX};

/// Model agreement bound between the planned and the reference pass.
pub const MODEL_TOL: f64 = 1e-8;

/// Times alternating (planned, reference) pairs until `budget_s` is spent
/// and fills the four timing slots. `planned` and `reference` each run one
/// pass and return its seconds and models, so a caller can keep work that
/// is not the pass's (handing over a fresh table) outside the clock.
///
/// Pair 0 warms caches, the pool and the allocator and is not reported.
/// The loop stops once `min_pairs` are timed, the budget is spent, and
/// the timed pairs are even in number: the two orders of a pair leave the
/// caches in different states, and an odd count would let the median sit
/// in whichever order ran once more. Returns the last planned models.
pub fn end_to_end_pairs(
    budget_s: f64,
    min_pairs: usize,
    report: &mut Report,
    mut planned: impl FnMut() -> (f64, Models),
    mut reference: impl FnMut() -> (f64, Models),
) -> Models {
    let deadline = Deadline::new(budget_s);
    let (mut planned_s, mut reference_s) = (Vec::new(), Vec::new());
    let mut last_planned = Models::new();
    for pair in 0.. {
        let timed_pairs = planned_s.len();
        if timed_pairs >= min_pairs && timed_pairs.is_multiple_of(2) && deadline.expired() {
            break;
        }
        let ((p_s, p_models), (r_s, r_models)) = if pair % 2 == 0 {
            let p = planned();
            (p, reference())
        } else {
            let r = reference();
            (planned(), r)
        };
        if pair > 0 {
            planned_s.push(p_s);
            reference_s.push(r_s);
            report.check(
                models_agree(&p_models, &r_models, MODEL_TOL),
                "planned pass disagrees with the reference pass",
            );
        }
        last_planned = p_models;
    }
    report.samples("default_s", &planned_s);
    report.samples("reference_s", &reference_s);
    report.value("slow_s", summarize(&planned_s).q3);
    let pair_s: Vec<f64> = planned_s
        .iter()
        .zip(&reference_s)
        .map(|(p, r)| p + r)
        .collect();
    report.value("rate_per_s", 2.0 / median(&pair_s));
    last_planned
}

/// Medians of the traced rounds, for the workload's own ratios.
pub struct RoundMedians {
    /// Planned pass, traced.
    pub planned_s: f64,
    /// Reference pass, traced.
    pub reference_s: f64,
    /// Always-factorize pass, traced.
    pub fact_s: f64,
    /// Timed rounds.
    pub rounds: usize,
}

/// The span names of the three traced passes, in `passes` order.
const PASS_SPANS: [&str; 3] = ["pass.planned", "pass.mat", "pass.fact"];

/// Rounds of the three traced passes `[planned, reference, fact]` — each
/// under its `pass.*` span, operand construction included, their order
/// rotating round to round so none always inherits another's cache state
/// — plus one untraced planned pass (`plain`), for `budget_s` seconds (at
/// least two timed rounds after a warm-up round). The decision `log` is
/// cleared after the warm-up so it holds the timed planned passes only.
///
/// Fills the span split of the planned pass, `core.fact_train_s`,
/// `core.speedup_fm`, `ml.model_delta` and `trace.overhead_frac`.
pub fn traced_rounds(
    budget_s: f64,
    report: &mut Report,
    log: &DecisionLog,
    passes: [&mut dyn FnMut() -> Models; 3],
    plain: &mut dyn FnMut() -> Models,
) -> RoundMedians {
    let min_rounds = 2;
    let deadline = Deadline::new(budget_s);
    let mut secs: [Vec<f64>; 3] = Default::default();
    let mut plain_s = Vec::new();
    let mut delta = 0.0f64;
    for round in 0.. {
        if round > min_rounds && deadline.expired() {
            break;
        }
        let warm = round == 0;
        trace::set_enabled(!warm);
        let mut round_s = [0.0; 3];
        let mut models: [Models; 3] = Default::default();
        for turn in 0..3 {
            let which = (round + turn) % 3;
            (round_s[which], models[which]) =
                timed(|| in_span(PASS_SPANS[which], &mut *passes[which]));
        }
        trace::set_enabled(false);
        let (untraced_s, _) = timed(&mut *plain);
        if warm {
            log.clear();
            continue;
        }
        for (all, s) in secs.iter_mut().zip(round_s) {
            all.push(s);
        }
        plain_s.push(untraced_s);
        delta = delta.max(model_delta(&models[0], &models[1]));
        report.check(
            models_agree(&models[0], &models[1], MODEL_TOL),
            "planned pass disagrees with the reference pass",
        );
    }
    let [planned_s, reference_s, fact_s] = secs;
    pass_split(&trace::snapshot(), PASS_SPANS[0], report);
    let medians = RoundMedians {
        planned_s: median(&planned_s),
        reference_s: median(&reference_s),
        fact_s: median(&fact_s),
        rounds: planned_s.len(),
    };
    report.value("core.fact_train_s", medians.fact_s);
    let ratios: Vec<f64> = reference_s
        .iter()
        .zip(&fact_s)
        .map(|(r, f)| r / f)
        .collect();
    report.samples("core.speedup_fm", &ratios);
    report.value("ml.model_delta", delta);
    report.value(
        "trace.overhead_frac",
        medians.planned_s / median(&plain_s) - 1.0,
    );
    medians
}

/// Fills the `core.op.*` and `ml.*` splits of the pass rooted at `root`:
/// mean seconds per pass in each group of spans under it.
fn pass_split(spans: &[Span], root: &str, report: &mut Report) {
    let passes = spans.iter().filter(|s| s.name == root).count().max(1) as f64;
    let under: Vec<&Span> = spans
        .iter()
        .filter(|s| trace::is_under(spans, s, root))
        .collect();
    let per_pass_s = |keep: &dyn Fn(&Span) -> bool| {
        under
            .iter()
            .filter(|s| keep(s))
            .map(|s| s.duration_ns())
            .sum::<u64>() as f64
            / 1e9
            / passes
    };
    let op = |names: &[&str]| {
        per_pass_s(&|s| {
            s.name
                .strip_prefix(OP_PREFIX)
                .is_some_and(|n| names.contains(&n))
        })
    };
    report.value("core.op.lmm_s", op(&["lmm"]));
    report.value("core.op.t_lmm_s", op(&["t_lmm"]));
    report.value("core.op.crossprod_s", op(&["crossprod"]));
    report.value("core.op.agg_s", op(&["row_sums", "col_sums", "sum"]));
    report.value("core.op.ew_s", op(&["scale", "squared"]));
    report.value("core.op.other_s", op(&["rmm", "ginv", "materialize"]));
    let calls = under
        .iter()
        .filter(|s| s.name.starts_with(OP_PREFIX))
        .count();
    report.value("core.op.calls", calls as f64 / passes);
    for (metric, span) in [
        ("ml.logreg_s", "ml.logreg"),
        ("ml.linreg_ne_s", "ml.linreg_ne"),
        ("ml.kmeans_s", "ml.kmeans"),
        ("ml.gnmf_s", "ml.gnmf"),
    ] {
        report.value(metric, per_pass_s(&|s| s.name == span));
    }
    // The algorithms' own dense parameter math: fit spans minus the
    // operand calls under them.
    let own = trace::self_times_ns(spans);
    let fits = || under.iter().filter(|s| s.name.starts_with("ml."));
    let fit_ns: u64 = fits().map(|s| s.duration_ns()).sum();
    let fit_self_ns: u64 = fits().map(|s| own[s.id as usize]).sum();
    report.value("ml.self_frac", fit_self_ns as f64 / fit_ns.max(1) as f64);
}
