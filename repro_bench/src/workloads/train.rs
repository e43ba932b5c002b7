//! The four in-memory training workloads (`pkfk_hi`, `pkfk_lo`,
//! `star_sparse`, `mn_join`): the same pass on the default planned route
//! and on the pre-materialized join, timed in alternating pairs.

use super::paired::{end_to_end_pairs, traced_rounds};
use super::Workload;
use crate::data::{self, Dataset};
use crate::decisions::DecisionLog;
use crate::harness::{calibrate, peak_rss_mib, repeat_setup, timed, Report, RunCfg};
use crate::pass::{models_bitwise_equal, run_pass, Algo};
use crate::probes;
use crate::trace::{self, in_span, Traced};
use morpheus_core::{Matrix, PlannedMatrix, Strategy};

/// The algorithm suite of one pass.
pub fn algos(w: Workload) -> Vec<Algo> {
    match w {
        Workload::StarSparse => vec![Algo::LogReg(20), Algo::KMeans(10, 5), Algo::Gnmf(5, 5)],
        Workload::MnJoin => vec![Algo::LogReg(20), Algo::LinRegNe, Algo::KMeans(10, 5)],
        _ => vec![
            Algo::LogReg(20),
            Algo::LinRegNe,
            Algo::KMeans(10, 5),
            Algo::Gnmf(5, 5),
        ],
    }
}

/// The table of a training workload.
pub fn generate(w: Workload, cfg: &RunCfg) -> Dataset {
    match w {
        Workload::PkfkHi => data::pkfk(cfg, 20.0, 4.0, 2_500, 20),
        Workload::PkfkLo => data::pkfk(cfg, 2.0, 0.5, 25_000, 40),
        Workload::StarSparse => data::movies(cfg, 0.05),
        Workload::MnJoin => data::mn_join(cfg, 7_000, 40, 700),
        other => unreachable!("{} is not a training workload", other.name()),
    }
}

/// Runs the workload and fills the end-to-end or the per-layer metrics.
pub fn run(w: Workload, cfg: &RunCfg) -> Report {
    let algos = algos(w);
    let mut report = Report::default();
    let ((ds, tm), setup_s) = repeat_setup(cfg.setup_reps(), |rep| {
        let ds = in_span("data.generate", || generate(w, cfg));
        calibrate(rep);
        let tm = in_span("core.materialize", || ds.tn.materialize());
        (ds, tm)
    });
    if cfg.trace {
        traced(cfg, &algos, &ds, &tm, &mut report);
    } else {
        report.samples("setup_s", &setup_s);
        end_to_end(cfg, &algos, &ds, &tm, &mut report);
        report.value("peak_rss_mb", peak_rss_mib());
    }
    report
}

fn end_to_end(cfg: &RunCfg, algos: &[Algo], ds: &Dataset, tm: &Matrix, report: &mut Report) {
    end_to_end_pairs(
        cfg.budget_s(),
        if cfg.quick { 2 } else { 6 },
        report,
        || {
            // A fresh planner per pass: a one-off materialization verdict
            // is charged to the pass that pays it. The clone is the caller
            // handing its table over, not part of the pass.
            let fresh = ds.tn.clone();
            timed(|| run_pass(algos, &PlannedMatrix::new(fresh), ds))
        },
        || timed(|| run_pass(algos, tm, ds)),
    );
    // Once, outside the timed units: under identical routes the planner
    // must not change a single bit relative to the plain rewrite.
    let log = DecisionLog::default();
    let planned = PlannedMatrix::new(ds.tn.clone()).with_hook(log.hook());
    let planned = run_pass(algos, &planned, ds);
    if log.all_factorized() {
        let fact = PlannedMatrix::with_strategy(ds.tn.clone(), Strategy::AlwaysFactorize);
        report.check(
            models_bitwise_equal(&planned, &run_pass(algos, &fact, ds)),
            "planned pass differs bitwise from always-factorize under identical routes",
        );
    }
}

/// The traced run: span-wrapped rounds (planned, materialized,
/// always-factorize, and an untraced planned pass for the tracing
/// overhead), then the kernel probes.
fn traced(cfg: &RunCfg, algos: &[Algo], ds: &Dataset, tm: &Matrix, report: &mut Report) {
    let log = DecisionLog::default();
    let m = traced_rounds(
        cfg.budget_s() * 0.6,
        report,
        &log,
        [
            &mut || {
                let planned = PlannedMatrix::new(ds.tn.clone()).with_hook(log.hook());
                run_pass(algos, &Traced(planned), ds)
            },
            &mut || run_pass(algos, &Traced(tm.clone()), ds),
            &mut || {
                let fact = PlannedMatrix::with_strategy(ds.tn.clone(), Strategy::AlwaysFactorize);
                run_pass(algos, &Traced(fact), ds)
            },
        ],
        &mut || run_pass(algos, &PlannedMatrix::new(ds.tn.clone()), ds),
    );
    let spans = trace::snapshot();
    log.report_core(&spans, m.rounds, report);
    let materialize_s = trace::named_s(&spans, "core.materialize");
    report.value(
        "core.planner.regret",
        m.planned_s / m.fact_s.min(m.reference_s + materialize_s / 10.0),
    );
    report.value("core.materialize_s", materialize_s);
    report.value("data.generate_s", trace::named_s(&spans, "data.generate"));
    probes::all(report, &ds.tn, tm, if cfg.quick { 2 } else { 5 });
}
