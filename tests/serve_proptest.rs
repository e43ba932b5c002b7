//! Property suite for the micro-batched scoring service: coalescing must
//! be *invisible* except in throughput.
//!
//! 1. **Batching equivalence** — for random schemas (dense PK-FK, a star
//!    with a sparse attribute table, an M:N join), models, and request
//!    mixes, scores from a micro-batched service are bit-identical to
//!    batch-size-1 scoring and to one full-table scoring pass, across
//!    scorer thread counts {1, 8}, coalescing windows {0, 500 µs} and
//!    every routing strategy (always-materialize keeps the resident
//!    oracle covered).
//! 2. **Chaos** — with a seeded `serve.batch` panic schedule injected,
//!    every request either returns those same bit-identical scores or the
//!    structured [`ServeError::BatchAborted`] — never a partial or wrong
//!    answer — and the service keeps serving afterwards.
//!
//! Both properties hold the failpoint registry's exclusive guard:
//! failpoints are process-global, so schedules must not leak between
//! concurrently running tests.

mod common;

use morpheus::core::Strategy; // disambiguate from proptest's Strategy trait
use morpheus::prelude::*;
use morpheus::runtime::faults;
use morpheus::serve::{ScoringModel, ScoringService, ServeConfig, ServeError, ServeMode};
use morpheus::sparse::CsrMatrix;
use proptest::prelude::*;
use proptest::Strategy as PropStrategy;
use std::time::Duration;

/// A random serving scenario: schema, model, and a mix of requests.
#[derive(Debug, Clone)]
struct Scenario {
    tn: NormalizedMatrix,
    model: ScoringModel,
    requests: Vec<Vec<usize>>,
}

fn arb_scenario() -> impl PropStrategy<Value = Scenario> {
    (
        2usize..40,
        1usize..8,
        1usize..24,
        any::<u64>(),
        any::<bool>(),
        0usize..3,
    )
        .prop_map(|(n_s, n_r, n_req, seed, logistic, schema)| {
            let mut state = seed;
            let mut next = move || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
            };
            let s = DenseMatrix::from_fn(n_s, 3, |_, _| next());
            let r = DenseMatrix::from_fn(n_r, 5, |_, _| next());
            let mut keys = |len: usize, into: usize| -> Vec<usize> {
                (0..len)
                    .map(|i| ((next().abs() * into as f64) as usize + i) % into)
                    .collect()
            };
            let tn = match schema {
                0 => NormalizedMatrix::pk_fk(s.into(), &keys(n_s, n_r), r.into()),
                1 => {
                    // Star: a dense and a sparse (one entry per row)
                    // attribute table.
                    let n_r2 = n_r + 2;
                    let triplets: Vec<_> = (0..n_r2).map(|i| (i, (i * 3) % 4, 1.5)).collect();
                    let r2 = CsrMatrix::from_triplets(n_r2, 4, &triplets).unwrap();
                    let (fk1, fk2) = (keys(n_s, n_r), keys(n_s, n_r2));
                    NormalizedMatrix::star(s.into(), vec![(fk1, r.into()), (fk2, r2.into())])
                }
                _ => {
                    // M:N: no identity part, both tables behind indicators.
                    let n_t = n_s + n_r;
                    let (is, ir) = (keys(n_t, n_s), keys(n_t, n_r));
                    NormalizedMatrix::mn_join(s.into(), &is, r.into(), &ir)
                }
            };
            let n = tn.rows();
            let w = DenseMatrix::from_fn(tn.cols(), 1, |_, _| next());
            let model = if logistic {
                ScoringModel::Logistic(w)
            } else {
                ScoringModel::Linear(w)
            };
            let requests: Vec<Vec<usize>> = (0..n_req)
                .map(|_| {
                    let len = 1 + (next().abs() * 6.0) as usize;
                    (0..len)
                        .map(|_| (next().abs() * n as f64) as usize % n)
                        .collect()
                })
                .collect();
            Scenario {
                tn,
                model,
                requests,
            }
        })
}

/// Full-table scores for each serving mode — the per-row ground truth any
/// batch composition must reproduce bitwise.
fn ground_truth(sc: &Scenario, mode: ServeMode) -> DenseMatrix {
    let w = sc.model.weights();
    match (&sc.model, mode) {
        (ScoringModel::Linear(_), ServeMode::Factorized) => {
            morpheus::ml::linreg::predict(&sc.tn, w)
        }
        (ScoringModel::Linear(_), ServeMode::Resident) => {
            morpheus::ml::linreg::predict(&sc.tn.materialize(), w)
        }
        (ScoringModel::Logistic(_), ServeMode::Factorized) => {
            morpheus::ml::logreg::predict_proba(&sc.tn, w)
        }
        (ScoringModel::Logistic(_), ServeMode::Resident) => {
            morpheus::ml::logreg::predict_proba(&sc.tn.materialize(), w)
        }
    }
}

/// Submits every request concurrently and returns the answers in request
/// order.
fn drive(svc: &ScoringService, requests: &[Vec<usize>]) -> Vec<Result<Vec<f64>, ServeError>> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = requests
            .iter()
            .map(|rows| scope.spawn(move || svc.score(rows.clone())))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

fn check_bitwise(rows: &[usize], got: &[f64], truth: &DenseMatrix) {
    assert_eq!(got.len(), rows.len());
    for (j, &r) in rows.iter().enumerate() {
        assert_eq!(
            common::bits(&[got[j]]),
            common::bits(&[truth.get(r, 0)]),
            "row {r} differs from the full-table score"
        );
    }
}

fn serve_config(
    strategy: Strategy,
    scorers: usize,
    batch_max: usize,
    window_us: u64,
) -> ServeConfig {
    ServeConfig::default()
        .with_strategy(strategy)
        .with_scorers(scorers)
        .with_batch_max(batch_max)
        .with_batch_window(Duration::from_micros(window_us))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn batched_scoring_is_bit_identical_to_per_request(sc in arb_scenario()) {
        let _guard = faults::exclusive();
        for strategy in [
            Strategy::AlwaysFactorize,
            Strategy::Heuristic(DecisionRule::default()),
            Strategy::CostBased,
            Strategy::AlwaysMaterialize,
        ] {
            for (scorers, window_us) in [(1usize, 0u64), (1, 500), (8, 0), (8, 500)] {
                let batched = ScoringService::new(
                    sc.tn.clone(),
                    sc.model.clone(),
                    serve_config(strategy, scorers, 32, window_us),
                );
                let single = ScoringService::new(
                    sc.tn.clone(),
                    sc.model.clone(),
                    serve_config(strategy, scorers, 1, window_us),
                );
                // The mode follows the strategy alone, never the data.
                let mode = if strategy == Strategy::AlwaysMaterialize {
                    ServeMode::Resident
                } else {
                    ServeMode::Factorized
                };
                prop_assert_eq!(batched.mode(), mode);
                prop_assert_eq!(single.mode(), mode);
                let truth = ground_truth(&sc, mode);
                let got_b = drive(&batched, &sc.requests);
                let got_s = drive(&single, &sc.requests);
                for (rows, (b, s)) in sc.requests.iter().zip(got_b.iter().zip(&got_s)) {
                    let b = b.as_ref().expect("no faults configured");
                    let s = s.as_ref().expect("no faults configured");
                    // The headline property: coalescing is invisible —
                    // batched ≡ unbatched ≡ the full-table pass.
                    check_bitwise(rows, b, &truth);
                    check_bitwise(rows, s, &truth);
                }
                // Batch-size-1 must not coalesce; the batched side never
                // sheds (queue cap far above the request count).
                let (sb, ss) = (batched.stats(), single.stats());
                prop_assert_eq!(ss.batches, ss.batched_requests);
                prop_assert_eq!(sb.shed, 0);
                prop_assert_eq!(sb.requests as usize, sc.requests.len());
            }
        }
    }

    #[test]
    fn chaos_never_corrupts_a_response(sc in arb_scenario(), fault_seed in any::<u64>()) {
        let _guard = faults::exclusive();
        let spec = format!("serve.batch=panic(0.4,seed={fault_seed})");
        faults::configure(&spec).unwrap();
        let svc = ScoringService::new(
            sc.tn.clone(),
            sc.model.clone(),
            serve_config(Strategy::Heuristic(DecisionRule::default()), 2, 16, 500),
        );
        let truth = ground_truth(&sc, svc.mode());
        let outcomes = drive(&svc, &sc.requests);
        let mut aborted = 0usize;
        for (rows, outcome) in sc.requests.iter().zip(&outcomes) {
            match outcome {
                Ok(got) => check_bitwise(rows, got, &truth),
                Err(ServeError::BatchAborted) => aborted += 1,
                Err(other) => prop_assert!(false, "unexpected error under chaos: {other}"),
            }
        }
        // Heal: disarm the schedule and re-drive every request — the
        // service must answer all of them, bit-identically.
        faults::clear();
        for (rows, retried) in sc.requests.iter().zip(drive(&svc, &sc.requests)) {
            check_bitwise(rows, &retried.expect("post-chaos request failed"), &truth);
        }
        let stats = svc.stats();
        prop_assert!(stats.batch_aborts >= 1 || aborted == 0);
        prop_assert_eq!(stats.requests as usize, 2 * sc.requests.len());
    }
}
