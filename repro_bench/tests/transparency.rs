//! `Traced<M>` must be invisible in the numbers: every `LinearOperand`
//! method returns the wrapped operand's result bit for bit, and the
//! closure operators stay wrapped (and stay identical) one level down.

use morpheus_core::{LinearOperand, Matrix, NormalizedMatrix, PlannedMatrix, Strategy};
use morpheus_dense::DenseMatrix;
use repro_bench::trace::{self, Traced};

fn fixture() -> NormalizedMatrix {
    let s = DenseMatrix::from_fn(40, 3, |i, j| ((i * 3 + j * 5) % 11) as f64 * 0.25 - 1.0);
    let r = DenseMatrix::from_fn(7, 4, |i, j| ((i * 7 + j * 2) % 13) as f64 * 0.2 - 0.9);
    let fk: Vec<usize> = (0..40).map(|i| (i * 5 + 3) % 7).collect();
    NormalizedMatrix::pk_fk(Matrix::Dense(s), &fk, Matrix::Dense(r))
}

fn bits(m: &DenseMatrix) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Every trait method on `plain` and on `Traced(plain)`, compared bitwise.
fn assert_transparent<M: LinearOperand + Clone>(plain: &M) {
    let traced = Traced(plain.clone());
    let (n, d) = (plain.nrows(), plain.ncols());
    assert_eq!((traced.nrows(), traced.ncols()), (n, d));
    let x = DenseMatrix::from_fn(d, 3, |i, j| (i as f64 - j as f64) * 0.3);
    let xn = DenseMatrix::from_fn(n, 2, |i, j| ((i + 2 * j) % 5) as f64 - 2.0);
    let xr = DenseMatrix::from_fn(2, n, |i, j| ((3 * i + j) % 7) as f64 * 0.5);
    assert_eq!(bits(&traced.lmm(&x)), bits(&plain.lmm(&x)));
    let (mut a, mut b) = (vec![0.0; n * 3], vec![0.0; n * 3]);
    traced.lmm_into(&x, &mut a);
    plain.lmm_into(&x, &mut b);
    assert_eq!(
        a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        b.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
    );
    assert_eq!(bits(&traced.t_lmm(&xn)), bits(&plain.t_lmm(&xn)));
    assert_eq!(bits(&traced.rmm(&xr)), bits(&plain.rmm(&xr)));
    assert_eq!(bits(&traced.crossprod()), bits(&plain.crossprod()));
    assert_eq!(bits(&traced.row_sums()), bits(&plain.row_sums()));
    assert_eq!(bits(&traced.col_sums()), bits(&plain.col_sums()));
    assert_eq!(traced.sum().to_bits(), plain.sum().to_bits());
    assert_eq!(bits(&traced.ginv()), bits(&plain.ginv()));
    assert_eq!(
        bits(&traced.materialize().to_dense()),
        bits(&plain.materialize().to_dense())
    );
    // Closure: the derived operand is still traced and still identical.
    let (ts, ps) = (traced.scale(-1.5), plain.scale(-1.5));
    assert_eq!(bits(&ts.lmm(&x)), bits(&ps.lmm(&x)));
    let (tq, pq) = (traced.squared(), plain.squared());
    assert_eq!(bits(&tq.row_sums()), bits(&pq.row_sums()));
    assert_eq!(
        bits(&tq.scale(2.0).t_lmm(&xn)),
        bits(&pq.scale(2.0).t_lmm(&xn))
    );
}

fn bit_transparent_on_every_operand_kind_with_tracing_on_and_off() {
    let tn = fixture();
    for on in [false, true] {
        trace::set_enabled(on);
        assert_transparent(&tn);
        assert_transparent(&tn.materialize());
        assert_transparent(&PlannedMatrix::with_strategy(
            tn.clone(),
            Strategy::AlwaysFactorize,
        ));
        assert_transparent(&PlannedMatrix::with_strategy(
            tn.clone(),
            Strategy::AlwaysMaterialize,
        ));
    }
    trace::set_enabled(false);
}

fn calls_record_nested_named_spans_only_while_enabled() {
    let tn = fixture();
    let x = DenseMatrix::from_fn(tn.cols(), 1, |i, _| i as f64);
    trace::set_enabled(false);
    let before = trace::snapshot().len();
    let _ = Traced(tn.clone()).lmm(&x);
    assert_eq!(
        trace::snapshot().len(),
        before,
        "no span while tracing is off"
    );

    trace::set_enabled(true);
    trace::in_span("ml.fit", || {
        let t = Traced(tn.clone());
        let _ = t.lmm(&x);
        let _ = t.squared().row_sums();
    });
    trace::set_enabled(false);
    let spans = trace::snapshot();
    let new = &spans[before..];
    let names: Vec<&str> = new.iter().map(|s| s.name).collect();
    assert_eq!(
        names,
        [
            "ml.fit",
            "core.op.lmm",
            "core.op.squared",
            "core.op.row_sums"
        ]
    );
    let fit = new[0];
    assert_eq!(fit.parent, trace::NO_PARENT);
    for child in &new[1..] {
        assert_eq!(child.parent, fit.id);
        assert!(fit.start_ns <= child.start_ns && child.end_ns <= fit.end_ns);
    }
}

/// One test, two parts: both flip the process-wide tracing switch, so
/// they must not run on parallel test threads.
#[test]
fn traced_wrapper() {
    bit_transparent_on_every_operand_kind_with_tracing_on_and_off();
    calls_record_nested_named_spans_only_while_enabled();
}
