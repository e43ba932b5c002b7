//! The `ooc` workload: a join output about five times the resident chunk
//! budget, trained on through the chunked planner (default route) and on
//! the spilled materialized chunks (reference route).
//!
//! Spill reads come from the OS page cache in this sandbox: I/O rates
//! reported here are the sandbox's, not a device's.

use super::paired::{end_to_end_pairs, traced_rounds, MODEL_TOL};
use crate::data::{self, Dataset};
use crate::decisions::DecisionLog;
use crate::harness::{calibrate, peak_rss_mib, repeat_setup, timed, Report, RunCfg};
use crate::pass::{models_agree, run_pass, Algo};
use crate::probes;
use crate::stats::median;
use crate::trace::{self, in_span, Traced};
use morpheus_chunked::spill::{self, SpillFile};
use morpheus_chunked::{ChunkedMatrix, PlannedChunkedMatrix};
use morpheus_core::{PlannedMatrix, Strategy};
use morpheus_dense::DenseMatrix;
use morpheus_runtime::faults;

/// Rows per chunk.
const CHUNK_ROWS: usize = 8_192;
/// Attribute-table rows (`TR = 20`, `FR = 4`, `d_S = 20`: 120 000 × 100,
/// about 92 MiB as a join output).
const N_R: usize = 6_000;
/// Resident chunk budget: about a fifth of the join output.
const BUDGET_BYTES: u64 = 18 << 20;

const ALGOS: [Algo; 2] = [Algo::LogReg(10), Algo::LinRegNe];

/// The budget for this run: the fixed one, or a fifth of the (smaller)
/// quick table so a quick run still spills.
fn budget(cfg: &RunCfg, ds: &Dataset) -> u64 {
    if cfg.quick {
        ds.join_bytes() / 5
    } else {
        BUDGET_BYTES
    }
}

fn chunk_rows(cfg: &RunCfg) -> usize {
    cfg.scaled(CHUNK_ROWS, 256)
}

/// Sets the two `MORPHEUS_*` variables this workload owns, for its own
/// process, before the chunked backend reads them (once) — and returns
/// the spill directory it created.
fn own_env(cfg: &RunCfg, budget: u64) -> std::path::PathBuf {
    let dir = cfg.out_dir.join(format!("spill-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the spill directory under out/");
    std::env::set_var(spill::CHUNK_BYTES_ENV, budget.to_string());
    std::env::set_var(spill::SPILL_DIR_ENV, &dir);
    assert_eq!(
        spill::resident_budget_bytes(),
        budget,
        "chunk budget was read before ooc set it"
    );
    dir
}

/// Runs the workload and fills the end-to-end or the per-layer metrics.
pub fn run(cfg: &RunCfg) -> Report {
    let mut report = Report::default();
    let rows = chunk_rows(cfg);
    let mut spill_dir = None;
    let ((ds, spilled), setup_s) = repeat_setup(cfg.setup_reps(), |rep| {
        let ds = in_span("data.generate", || data::pkfk(cfg, 20.0, 4.0, N_R, 20));
        let budget = budget(cfg, &ds);
        if rep == 0 {
            spill_dir = Some(own_env(cfg, budget));
        }
        calibrate(rep);
        let spilled = in_span("chunked.build", || {
            ChunkedMatrix::from_normalized_with_budget(&ds.tn, rows, budget)
        });
        (ds, spilled)
    });
    // Zero spilled chunks would mean the workload is not out of core.
    report.check(
        spilled.n_spilled() > 0,
        "no chunk spilled: the run is not out of core",
    );
    if cfg.trace {
        traced(cfg, &ds, &spilled, &mut report);
    } else {
        report.samples("setup_s", &setup_s);
        end_to_end(cfg, &ds, &spilled, &mut report);
    }
    drop(spilled);
    if let Some(dir) = spill_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    report
}

fn end_to_end(cfg: &RunCfg, ds: &Dataset, spilled: &ChunkedMatrix, report: &mut Report) {
    let rows = chunk_rows(cfg);
    let last_planned = end_to_end_pairs(
        cfg.budget_s(),
        if cfg.quick { 2 } else { 4 },
        report,
        || {
            let fresh = ds.tn.clone();
            timed(|| run_pass(&ALGOS, &PlannedChunkedMatrix::new(fresh, rows), ds))
        },
        || timed(|| run_pass(&ALGOS, spilled, ds)),
    );
    // Read before the in-memory reference below, which may hold the whole
    // join resident — exactly what this workload's user cannot afford.
    report.value("peak_rss_mb", peak_rss_mib());
    // Once, outside the timed units: the streamed model against the
    // in-memory planner's.
    let in_memory = run_pass(&ALGOS, &PlannedMatrix::new(ds.tn.clone()), ds);
    report.check(
        models_agree(&last_planned, &in_memory, MODEL_TOL),
        "planned chunked pass disagrees with the in-memory planned pass",
    );
}

fn traced(cfg: &RunCfg, ds: &Dataset, spilled: &ChunkedMatrix, report: &mut Report) {
    let rows = chunk_rows(cfg);
    let log = DecisionLog::default();
    let m = traced_rounds(
        cfg.budget_s() * 0.6,
        report,
        &log,
        [
            &mut || {
                let planned = PlannedChunkedMatrix::new(ds.tn.clone(), rows).with_hook(log.hook());
                run_pass(&ALGOS, &Traced(planned), ds)
            },
            &mut || run_pass(&ALGOS, &Traced(spilled.clone()), ds),
            &mut || {
                let fact = PlannedChunkedMatrix::with_strategy(
                    ds.tn.clone(),
                    rows,
                    Strategy::AlwaysFactorize,
                );
                run_pass(&ALGOS, &Traced(fact), ds)
            },
        ],
        &mut || run_pass(&ALGOS, &PlannedChunkedMatrix::new(ds.tn.clone(), rows), ds),
    );
    let spans = trace::snapshot();
    let build_s = trace::named_s(&spans, "chunked.build");
    report.value("chunked.planner.factorized_frac", log.factorized_frac());
    report.value(
        "chunked.planner.regret",
        m.planned_s / m.fact_s.min(m.reference_s + build_s / 10.0),
    );
    report.value("chunked.build_s", build_s);
    report.value("data.generate_s", trace::named_s(&spans, "data.generate"));
    report.value("chunked.chunks", spilled.n_chunks() as f64);
    report.value("chunked.spilled_chunks", spilled.n_spilled() as f64);
    let chunk_mib = (rows * ds.tn.cols() * 8) as f64 / (1 << 20) as f64;
    report.value("chunked.spill_mb", spilled.n_spilled() as f64 * chunk_mib);
    report.value(
        "chunked.spill_fallbacks",
        faults::stats().spill_fallbacks as f64,
    );

    // One chunk through SpillFile::write / load.
    let chunk = DenseMatrix::from_fn(rows, ds.tn.cols(), |i, j| (i * 131 + j * 17) as f64);
    let reps = if cfg.quick { 2 } else { 5 };
    let write_s = probes::time_median(reps, || SpillFile::write(&chunk).expect("spill probe"));
    report.value("chunked.spill_write_mbps", chunk_mib / write_s);
    let file = SpillFile::write(&chunk).expect("spill probe");
    let load_s = probes::time_median(reps, || file.load());
    report.value("chunked.spill_load_mbps", chunk_mib / load_s);
    drop(file);

    // How much of the fault-in the prefetch does not hide: the same
    // materialized pass with every chunk resident.
    let resident = ChunkedMatrix::from_normalized_with_budget(&ds.tn, rows, u64::MAX);
    let resident_s = probes::time_median(2, || run_pass(&ALGOS, &resident, ds));
    report.value("chunked.spilled_over_resident", m.reference_s / resident_s);
    drop(resident);

    // Chunking + per-chunk dispatch overhead: the in-memory planner on
    // the same table, its verdicts feeding the core.planner.* rows.
    let inmem_log = DecisionLog::default();
    trace::set_enabled(true);
    let mut inmem_s = Vec::new();
    for _ in 0..2 {
        let p = PlannedMatrix::new(ds.tn.clone()).with_hook(inmem_log.hook());
        inmem_s.push(timed(|| in_span("pass.inmem", || run_pass(&ALGOS, &Traced(p), ds))).0);
    }
    let (materialize_s, tm) = timed(|| in_span("core.materialize", || ds.tn.materialize()));
    trace::set_enabled(false);
    report.value("chunked.over_inmem", m.planned_s / median(&inmem_s));
    report.value("core.materialize_s", materialize_s);
    inmem_log.report_core(&trace::snapshot(), inmem_s.len(), report);

    let reps = if cfg.quick { 2 } else { 3 };
    probes::all(report, &ds.tn, &tm, reps);
}
