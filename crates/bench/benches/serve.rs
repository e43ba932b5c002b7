//! Criterion benches for the serving hot path: the per-table partial
//! scores a model load computes once, finishing a coalesced batch of rows
//! from them, and the per-request (batch-size-1) baseline the
//! micro-batcher amortizes away.
//!
//! These keys are committed to `baselines.json`, so they deliberately
//! exercise the deterministic compute path (the two core entry points the
//! service calls) rather than the queue/thread machinery, whose timing is
//! scheduler noise. The end-to-end service roundtrip is measured in the
//! `serve` experiment (`repro serve`) and the standing benchmark's `serve`
//! workload instead.

use criterion::{criterion_group, criterion_main, Criterion};
use morpheus_data::synth::PkFkSpec;
use morpheus_dense::DenseMatrix;
use morpheus_ml::linreg;
use std::hint::black_box;

fn bench_serve(c: &mut Criterion) {
    let ds = PkFkSpec::from_ratios(10.0, 2.0, 500, 20, 42).generate();
    let tn = ds.tn;
    let w = DenseMatrix::from_fn(tn.cols(), 1, |i, _| (i as f64 * 0.17).sin());
    let batch: Vec<usize> = (0..64).map(|k| (k * 37 + 11) % tn.rows()).collect();

    // Sanity before timing: rows from partials are bit-identical to
    // full-table scoring.
    let full = linreg::predict(&tn, &w);
    let partials = tn.lmm_partials(&w);
    let mut out = vec![0.0f64; batch.len()];
    tn.lmm_rows_from_partials(&partials, &batch, &mut out);
    for (j, &r) in batch.iter().enumerate() {
        assert_eq!(out[j].to_bits(), full.get(r, 0).to_bits());
    }

    let mut g = c.benchmark_group("serve");
    g.bench_function("partials/load", |b| {
        b.iter(|| black_box(tn.lmm_partials(black_box(&w))))
    });
    g.bench_function("score/batch-64", |b| {
        b.iter(|| {
            tn.lmm_rows_from_partials(&partials, black_box(&batch), &mut out);
            black_box(out[0])
        })
    });
    g.bench_function("score/batch-1", |b| {
        b.iter(|| {
            tn.lmm_rows_from_partials(&partials, black_box(&batch[..1]), &mut out[..1]);
            black_box(out[0])
        })
    });
    g.bench_function("score/64-unbatched", |b| {
        b.iter(|| {
            for (r, o) in batch.chunks(1).zip(out.chunks_mut(1)) {
                tn.lmm_rows_from_partials(&partials, r, o);
            }
            black_box(out[0])
        })
    });
    g.finish();
}

criterion_group! {
    name = serve;
    config = Criterion::default().sample_size(10);
    targets = bench_serve
}
criterion_main!(serve);
