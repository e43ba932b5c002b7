//! The `serve` workload: a resident `ScoringService` driven by one
//! closed-loop client thread through three phases — depth-256 point
//! traffic, depth-1 single-row round trips, depth-1 4096-row bulk
//! requests.
//!
//! Closed loop because the service is an in-process library whose
//! callers are threads that wait for their reply; client count (1) and
//! depth are fixed per phase.

use crate::data::{self, Dataset};
use crate::harness::{calibrate, peak_rss_mib, repeat_setup, timed, Deadline, Report, RunCfg};
use crate::probes;
use crate::stats::{median, percentile, percentiles};
use crate::trace::{self, in_span};
use morpheus_core::{LinearOperand, Matrix};
use morpheus_dense::DenseMatrix;
use morpheus_ml::linreg;
use morpheus_serve::{ScoringModel, ScoringService, ServeConfig, ServeMode, ServeStats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Point requests kept in flight during the saturation phase.
const DEPTH: usize = 256;
/// Rows per bulk request.
const BULK_ROWS: usize = 4096;
/// Attribute-table rows of the served table (`TR = 20`, `FR = 4`,
/// `d_S = 20`: 200 000 × 100).
const N_R: usize = 10_000;

fn scorers() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get().saturating_sub(1))
        .max(1)
}

fn weights(d: usize) -> DenseMatrix {
    DenseMatrix::from_fn(d, 1, |i, _| (i as f64 * 0.17).sin())
}

fn service(ds: &Dataset, config: ServeConfig) -> ScoringService {
    ScoringService::new(
        ds.tn.clone(),
        ScoringModel::Linear(weights(ds.tn.cols())),
        config.with_scorers(scorers()),
    )
}

/// A point request: 1–3 row ids.
#[derive(Clone, Copy)]
struct Point {
    rows: [usize; 3],
    len: usize,
}

impl Point {
    fn draw(rng: &mut StdRng, n_rows: usize) -> Point {
        let len = rng.gen_range(1..=3usize);
        let mut rows = [0; 3];
        for r in rows.iter_mut().take(len) {
            *r = rng.gen_range(0..n_rows);
        }
        Point { rows, len }
    }

    fn ids(&self) -> &[usize] {
        &self.rows[..self.len]
    }
}

/// Whether `got` is, bit for bit, the full-table scores of `rows`.
fn exact(got: &[f64], rows: &[usize], expected: &DenseMatrix) -> bool {
    got.len() == rows.len()
        && got
            .iter()
            .zip(rows)
            .all(|(g, &r)| g.to_bits() == expected.get(r, 0).to_bits())
}

/// Outcome of the saturation phase.
struct Saturation {
    completed: u64,
    wrong: u64,
    wall_s: f64,
    /// Seconds each window of [`DEPTH`] completions took.
    window_s: Vec<f64>,
    stats: ServeStats,
}

impl Saturation {
    /// Requests per second from the median window, so a co-tenant's
    /// stall does not set the rate.
    fn rps(&self) -> f64 {
        DEPTH as f64 / median(&self.window_s)
    }
}

/// Keeps [`DEPTH`] point requests in flight for `budget_s` seconds (at
/// least `min_windows` windows of `DEPTH` completions): wait for the
/// oldest reply, check it, submit the next. Any `Shed` / `BatchAborted` /
/// wrong answer counts as a failed request.
fn saturate(
    svc: &ScoringService,
    expected: &DenseMatrix,
    rng: &mut StdRng,
    budget_s: f64,
    min_windows: usize,
) -> Saturation {
    let n_rows = svc.n_rows();
    let before = svc.stats();
    let mut in_flight = VecDeque::with_capacity(DEPTH);
    let (mut completed, mut wrong) = (0u64, 0u64);
    let mut submit = |in_flight: &mut VecDeque<_>, wrong: &mut u64| {
        let p = Point::draw(rng, n_rows);
        match svc.submit(p.ids().to_vec()) {
            Ok(ticket) => in_flight.push_back((p, ticket)),
            Err(_) => *wrong += 1,
        }
    };
    let deadline = Deadline::new(budget_s);
    while in_flight.len() < DEPTH {
        submit(&mut in_flight, &mut wrong);
    }
    let mut window_s = Vec::new();
    while window_s.len() < min_windows || !deadline.expired() {
        let _g = trace::span("serve.window");
        let t0 = Instant::now();
        for _ in 0..DEPTH {
            if let Some((p, ticket)) = in_flight.pop_front() {
                match ticket.wait() {
                    Ok(got) if exact(&got, p.ids(), expected) => {}
                    _ => wrong += 1,
                }
                completed += 1;
            }
            submit(&mut in_flight, &mut wrong);
        }
        window_s.push(t0.elapsed().as_secs_f64());
    }
    let wall_s = deadline.elapsed_s();
    // Drain: replies still owed are checked but not counted in the rate.
    for (p, ticket) in in_flight {
        if !matches!(ticket.wait(), Ok(got) if exact(&got, p.ids(), expected)) {
            wrong += 1;
        }
    }
    let after = svc.stats();
    Saturation {
        completed,
        wrong,
        wall_s,
        window_s,
        stats: ServeStats {
            requests: after.requests - before.requests,
            shed: after.shed - before.shed,
            batches: after.batches - before.batches,
            batched_requests: after.batched_requests - before.batched_requests,
            rows_scored: after.rows_scored - before.rows_scored,
            batch_aborts: after.batch_aborts - before.batch_aborts,
            ..after
        },
    }
}

/// Blocking `score` calls of `rows_per_request` rows for `budget_s`
/// seconds (at least `min_requests`): per-request seconds and the number
/// of failed or wrong replies.
fn round_trips(
    svc: &ScoringService,
    expected: &DenseMatrix,
    rng: &mut StdRng,
    rows_per_request: usize,
    budget_s: f64,
    min_requests: usize,
) -> (Vec<f64>, u64) {
    let n_rows = svc.n_rows();
    let mut latencies = Vec::new();
    let mut wrong = 0;
    let deadline = Deadline::new(budget_s);
    while latencies.len() < min_requests || !deadline.expired() {
        let rows: Vec<usize> = (0..rows_per_request)
            .map(|_| rng.gen_range(0..n_rows))
            .collect();
        let check = rows.clone();
        let _g = trace::span("serve.request");
        let t0 = Instant::now();
        let reply = svc.score(rows);
        latencies.push(t0.elapsed().as_secs_f64());
        if !matches!(reply, Ok(got) if exact(&got, &check, expected)) {
            wrong += 1;
        }
    }
    (latencies, wrong)
}

/// Runs the workload and fills the end-to-end or the per-layer metrics.
pub fn run(cfg: &RunCfg) -> Report {
    let mut report = Report::default();
    let reps = cfg.setup_reps();
    let ((ds, svc), setup_s) = repeat_setup(reps, |rep| {
        let ds = in_span("data.generate", || data::pkfk(cfg, 20.0, 4.0, N_R, 20));
        calibrate(rep);
        let svc = in_span("serve.new", || service(&ds, ServeConfig::default()));
        (ds, svc)
    });
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5EED_5E27E);
    if cfg.trace {
        traced(cfg, &ds, &svc, &mut rng, &mut report);
    } else {
        report.samples("setup_s", &setup_s);
        // The reference answers are the harness's, not the service's set-up.
        let tm = (svc.mode() == ServeMode::Resident).then(|| ds.tn.materialize());
        let expected = Expected::new(&ds, tm.as_ref());
        end_to_end(cfg, &svc, expected.of(&svc), &mut rng, &mut report);
        report.value("peak_rss_mb", peak_rss_mib());
    }
    report
}

/// One full-table `linreg::predict` per scoring mode: a factorized
/// service sums partial products in the rewrite's order, a resident one
/// in the materialized row's, so each is bit-identical to its own.
struct Expected {
    factorized: DenseMatrix,
    resident: Option<DenseMatrix>,
}

impl Expected {
    fn new(ds: &Dataset, tm: Option<&Matrix>) -> Expected {
        let w = weights(ds.tn.cols());
        Expected {
            factorized: linreg::predict(&ds.tn, &w),
            resident: tm.map(|tm| linreg::predict(tm, &w)),
        }
    }

    fn of(&self, svc: &ScoringService) -> &DenseMatrix {
        match (svc.mode(), &self.resident) {
            (ServeMode::Resident, Some(r)) => r,
            _ => &self.factorized,
        }
    }
}

fn min_counts(cfg: &RunCfg) -> (usize, usize, usize) {
    if cfg.quick {
        (8, 200, 5)
    } else {
        (200, 2_000, 50)
    }
}

fn end_to_end(
    cfg: &RunCfg,
    svc: &ScoringService,
    expected: &DenseMatrix,
    rng: &mut StdRng,
    report: &mut Report,
) {
    let (min_windows, min_rt, min_bulk) = min_counts(cfg);
    let budget = cfg.budget_s();
    // Warm the scorers, the pool and the allocator on every path.
    saturate(svc, expected, rng, 0.0, 8);
    round_trips(svc, expected, rng, 1, 0.0, 50);
    round_trips(svc, expected, rng, BULK_ROWS, 0.0, 3);

    // One phase after the other, not interleaved: a round trip that
    // follows saturation closely finds the cores still awake and reads
    // ~50 µs faster, which made the depth-1 median bimodal run to run.
    let sat = saturate(svc, expected, rng, budget * 0.3, min_windows);
    let (rt, rt_wrong) = round_trips(svc, expected, rng, 1, budget * 0.45, min_rt);
    let (bulk, bulk_wrong) = round_trips(svc, expected, rng, BULK_ROWS, budget * 0.25, min_bulk);
    report.attempted += sat.completed + (rt.len() + bulk.len()) as u64;
    report.failed += sat.wrong + sat.stats.shed + rt_wrong + bulk_wrong;
    report.value("default_s", median(&rt));
    report.samples("reference_s", &bulk);
    report.value("slow_s", percentile(&rt, 0.99));
    report.value("rate_per_s", sat.rps());
    let tail = percentiles(&rt);
    report.notes.push(format!(
        "sat: {} windows of {DEPTH}, coalesce {:.1}; rt: {} samples, highest supported tail {:?}; \
         bulk: {} requests, {:.0} rows/s",
        sat.window_s.len(),
        sat.stats.batched_requests as f64 / sat.stats.batches.max(1) as f64,
        tail.samples,
        tail.tail,
        bulk.len(),
        BULK_ROWS as f64 / median(&bulk),
    ));
}

/// Median µs to build one batch's slice and to score it — the scorer's
/// own work on a batch, replayed from outside.
fn batch_probe<M: LinearOperand>(
    slice: impl Fn() -> M,
    model: &ScoringModel,
    reps: usize,
) -> (f64, f64) {
    let rows = slice();
    let mut out = vec![0.0; rows.nrows()];
    (
        probes::time_median(reps, &slice) * 1e6,
        probes::time_median(reps, || model.score_into(&rows, &mut out)) * 1e6,
    )
}

fn traced(cfg: &RunCfg, ds: &Dataset, svc: &ScoringService, rng: &mut StdRng, report: &mut Report) {
    let (materialize_s, tm) = timed(|| ds.tn.materialize());
    let tm = &tm;
    let all_expected = Expected::new(ds, Some(tm));
    let expected = all_expected.of(svc);
    let (min_windows, min_rt, min_bulk) = min_counts(cfg);
    let budget = cfg.budget_s();
    trace::set_enabled(false);
    saturate(svc, expected, rng, 0.0, 8);
    round_trips(svc, expected, rng, 1, 0.0, 50);

    // Saturation, untraced and traced slices alternating: the difference
    // is the tracing overhead. ServeStats deltas come from the last
    // traced slice.
    let (mut plain, mut sat) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        trace::set_enabled(false);
        plain.push(saturate(svc, expected, rng, budget * 0.04, min_windows / 6));
        trace::set_enabled(true);
        sat.push(saturate(svc, expected, rng, budget * 0.04, min_windows / 6));
    }
    let rps =
        |slices: &[Saturation]| median(&slices.iter().map(Saturation::rps).collect::<Vec<_>>());
    let (plain_rps, traced_rps) = (rps(&plain), rps(&sat));
    for s in plain.iter().chain(&sat) {
        report.attempted += s.completed;
        report.failed += s.wrong + s.stats.shed;
    }
    let sat = sat.pop().expect("three traced slices ran");
    let (rt, rt_wrong) = round_trips(svc, expected, rng, 1, budget * 0.25, min_rt);
    let (bulk, bulk_wrong) = round_trips(svc, expected, rng, BULK_ROWS, budget * 0.08, min_bulk);
    trace::set_enabled(false);
    report.attempted += (rt.len() + bulk.len()) as u64;
    report.failed += rt_wrong + bulk_wrong;
    report.value("trace.overhead_frac", plain_rps / traced_rps - 1.0);
    report.value(
        "serve.mode",
        f64::from(u8::from(svc.mode() == ServeMode::Resident)),
    );
    report.value(
        "serve.coalesce_ratio",
        sat.stats.batched_requests as f64 / sat.stats.batches.max(1) as f64,
    );
    report.value("serve.batches", sat.stats.batches as f64);
    report.value("serve.shed", sat.stats.shed as f64);
    report.value("serve.batch_aborts", sat.stats.batch_aborts as f64);
    report.value("serve.max_queue_depth", sat.stats.max_queue_depth as f64);
    report.value("serve.rt_p999_us", percentile(&rt, 0.999) * 1e6);

    // The scorer's own work on one full batch, replayed from outside.
    let ids: Vec<usize> = (0..ServeConfig::DEFAULT_BATCH_MAX)
        .map(|_| rng.gen_range(0..ds.tn.rows()))
        .collect();
    let model = ScoringModel::Linear(weights(ds.tn.cols()));
    let reps = if cfg.quick { 20 } else { 200 };
    let (slice_us, score_us) = match svc.mode() {
        ServeMode::Factorized => batch_probe(|| ds.tn.select_rows(&ids), &model, reps),
        ServeMode::Resident => batch_probe(|| tm.gather_rows(&ids), &model, reps),
    };
    report.value("serve.slice_build_us", slice_us);
    report.value("serve.score_batch_us", score_us);
    let ns_per_row = (slice_us + score_us) * 1e3 / ids.len() as f64;
    report.value("serve.score_ns_per_row", ns_per_row);
    // Share of scorer time not spent producing scores: queue, tickets,
    // wakes, allocation.
    let scorer_ns = sat.wall_s * 1e9 * scorers() as f64;
    report.value(
        "serve.overhead_frac",
        1.0 - sat.stats.rows_scored as f64 * ns_per_row / scorer_ns,
    );

    // Ablations on services of their own: no batching, no window.
    {
        let one = service(ds, ServeConfig::default().with_batch_max(1));
        let expected = all_expected.of(&one);
        saturate(&one, expected, rng, 0.0, 4);
        let unbatched = saturate(&one, expected, rng, budget * 0.1, min_windows / 4);
        report.attempted += unbatched.completed;
        report.failed += unbatched.wrong + unbatched.stats.shed;
        report.value("serve.batch1_rps", unbatched.rps());
        report.value("serve.batching_speedup", plain_rps / unbatched.rps());
    }
    {
        let eager = service(ds, ServeConfig::default().with_batch_window(Duration::ZERO));
        let expected = all_expected.of(&eager);
        round_trips(&eager, expected, rng, 1, 0.0, 50);
        let (lat, wrong) = round_trips(&eager, expected, rng, 1, budget * 0.08, min_rt / 2);
        report.attempted += lat.len() as u64;
        report.failed += wrong;
        report.value("serve.rt_window0_p50_us", median(&lat) * 1e6);
    }

    report.value(
        "data.generate_s",
        trace::named_s(&trace::snapshot(), "data.generate"),
    );
    report.value("core.materialize_s", materialize_s);
    probes::all(report, &ds.tn, tm, if cfg.quick { 2 } else { 3 });
}
