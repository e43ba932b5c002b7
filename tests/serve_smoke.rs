//! Serving smoke test: an actual [`ScoringService`] over a known PK-FK
//! fixture, driven by concurrent clients, with the full [`ServeStats`]
//! snapshot asserted — correctness, coalescing, admission control, and
//! the zero-fault baseline in one pass.

mod common;

use morpheus::prelude::*;
use morpheus::serve::{ScoringModel, ScoringService, ServeConfig, ServeMode};
use std::time::Duration;

/// The known fixture: 64 orders over 8 customers, linear model.
fn fixture() -> (NormalizedMatrix, DenseMatrix) {
    let s = DenseMatrix::from_fn(64, 3, |i, j| ((i * 3 + j) % 13) as f64 * 0.25 - 1.5);
    let r = DenseMatrix::from_fn(8, 5, |i, j| ((i * 5 + j) % 7) as f64 * 0.5 - 1.0);
    let fk: Vec<usize> = (0..64).map(|i| (i * 5 + 2) % 8).collect();
    let tn = NormalizedMatrix::pk_fk(s.into(), &fk, r.into());
    let w = DenseMatrix::from_fn(tn.cols(), 1, |i, _| (i as f64 - 4.0) * 0.3);
    (tn, w)
}

#[test]
fn serve_smoke() {
    let (tn, w) = fixture();
    let expected = morpheus::ml::linreg::predict(&tn, &w);
    let svc = ScoringService::new(
        tn,
        ScoringModel::Linear(w),
        ServeConfig::default()
            .with_strategy(Strategy::AlwaysFactorize)
            .with_batch_max(64)
            .with_batch_window(Duration::from_millis(1))
            .with_scorers(2),
    );
    assert_eq!(svc.mode(), ServeMode::Factorized);
    assert_eq!(svc.n_rows(), 64);

    let clients = 8usize;
    let per_client = 25usize;
    std::thread::scope(|scope| {
        for c in 0..clients {
            let svc = &svc;
            let expected = &expected;
            scope.spawn(move || {
                for k in 0..per_client {
                    let rows = vec![(c * 11 + k) % 64, (c + k * 7) % 64, (k * 3) % 64];
                    let got = svc.score(rows.clone()).expect("smoke request failed");
                    for (j, &r) in rows.iter().enumerate() {
                        assert_eq!(
                            common::bits(&[got[j]]),
                            common::bits(&[expected.get(r, 0)]),
                            "served score differs from full-table prediction at row {r}"
                        );
                    }
                }
            });
        }
    });

    let stats = svc.stats();
    let requests = (clients * per_client) as u64;
    assert_eq!(stats.requests, requests, "every request admitted");
    assert_eq!(stats.batched_requests, requests, "every request scored");
    assert_eq!(stats.rows_scored, 3 * requests, "every row scored");
    assert_eq!(stats.shed, 0, "no load shedding at this rate");
    assert_eq!(stats.batch_aborts, 0, "no aborted batches");
    assert_eq!(stats.queue_depth, 0, "queue drained");
    assert!(stats.batches >= 1 && stats.batches <= requests);
    assert!(stats.coalesce_ratio >= 1.0);
    assert!(stats.max_queue_depth >= 1);
    // Zero-fault baseline: an unfaulted serving run must not trip any
    // self-healing path.
    assert_eq!(stats.faults.injected, 0);
    assert_eq!(stats.faults.serve_batch_aborts, 0);
    assert_eq!(stats.faults.lock_recoveries, 0);
}

/// The same fixture served through a builder-tuned config — a 100 µs
/// window (the scorer's non-default timed-wait branch), at most 32 rows
/// per batch and a 256-request queue — proving the tuned service still
/// honors the coalescing contract: a pipelined burst (coalesced into
/// batches) is bit-identical to the same requests scored one at a time
/// under the same config. Both services use the default strategy, so the
/// comparison is coalescing-only by construction.
#[test]
fn serve_smoke_tuned_config() {
    let (tn, w) = fixture();
    let mut cfg = ServeConfig::default()
        .with_batch_window(Duration::from_micros(100))
        .with_batch_max(32);
    cfg.queue_cap = 256;
    let batched = ScoringService::new(tn.clone(), ScoringModel::Linear(w.clone()), cfg.clone());
    let one_by_one = ScoringService::new(tn, ScoringModel::Linear(w), cfg.with_batch_max(1));
    let requests: Vec<Vec<usize>> = (0..48usize)
        .map(|k| vec![(k * 13 + 5) % 64, (k * 29 + 1) % 64])
        .collect();
    let tickets: Vec<_> = requests
        .iter()
        .map(|rows| {
            batched
                .submit(rows.clone())
                .expect("tuned-config submit failed")
        })
        .collect();
    for (rows, ticket) in requests.iter().zip(tickets) {
        let got = ticket.wait().expect("tuned-config request failed");
        let reference = one_by_one
            .score(rows.clone())
            .expect("tuned-config reference request failed");
        for (j, (&g, &e)) in got.iter().zip(&reference).enumerate() {
            assert_eq!(
                common::bits(&[g]),
                common::bits(&[e]),
                "tuned coalesced response differs from batch-size-1 at offset {j}"
            );
        }
    }
    let stats = batched.stats();
    assert_eq!(stats.requests, 48);
    assert_eq!(stats.shed, 0);
    assert_eq!(stats.batch_aborts, 0);
}
