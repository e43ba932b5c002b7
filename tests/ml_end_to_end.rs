//! End-to-end ML integration: the same algorithm code must produce the
//! same model on every backend — materialized `Matrix`, factorized
//! `NormalizedMatrix`, the per-operator `PlannedMatrix`, and the chunked
//! (ORE-analog) backends — across all four paper algorithms.

use morpheus::chunked::{ChunkedMatrix, PlannedChunkedMatrix};
use morpheus::data::synth::{MnJoinSpec, PkFkSpec, StarSpec};
use morpheus::ml::gnmf::Gnmf;
use morpheus::ml::kmeans::KMeans;
use morpheus::ml::linreg::{LinearRegressionCofactor, LinearRegressionGd, LinearRegressionNe};
use morpheus::ml::logreg::LogisticRegressionGd;
use morpheus::ml::orion::OrionLogisticRegression;
use morpheus::prelude::*;

/// Cost-based planner with deterministic reference rates, so the routing
/// tested here does not depend on the machine running the tests.
fn planned(tn: &NormalizedMatrix) -> PlannedMatrix {
    PlannedMatrix::with_strategy(tn.clone(), Strategy::CostBased)
        .with_profile(MachineProfile::REFERENCE)
}

fn backends(tn: &NormalizedMatrix) -> (Matrix, PlannedMatrix, PlannedChunkedMatrix, ChunkedMatrix) {
    let tm = tn.materialize();
    let cn = PlannedChunkedMatrix::with_strategy(tn.clone(), 64, Strategy::AlwaysFactorize);
    let cm = ChunkedMatrix::new(&tm, 64);
    (tm, planned(tn), cn, cm)
}

#[test]
fn logistic_regression_identical_on_all_backends() {
    let ds = PkFkSpec::from_ratios(8.0, 2.0, 40, 4, 1).generate();
    let y = ds.labels();
    let trainer = LogisticRegressionGd::new(1e-3, 8);
    let (tm, adaptive, cn, cm) = backends(&ds.tn);

    let w_ref = trainer.fit(&ds.tn, &y).w;
    for w in [
        trainer.fit(&tm, &y).w,
        trainer.fit(&adaptive, &y).w,
        trainer.fit(&cn, &y).w,
        trainer.fit(&cm, &y).w,
    ] {
        assert!(w.approx_eq(&w_ref, 1e-9), "backend diverged");
    }
}

#[test]
fn linear_regression_identical_on_all_backends() {
    let ds = PkFkSpec::from_ratios(8.0, 2.0, 40, 4, 2).generate();
    let (tm, adaptive, cn, cm) = backends(&ds.tn);
    let ne = LinearRegressionNe::new();
    let w_ref = ne.fit(&ds.tn, &ds.y);
    for w in [
        ne.fit(&tm, &ds.y),
        ne.fit(&adaptive, &ds.y),
        ne.fit(&cn, &ds.y),
        ne.fit(&cm, &ds.y),
    ] {
        assert!(w.approx_eq(&w_ref, 1e-6));
    }
    // GD and co-factor agree between factorized and materialized.
    let gd = LinearRegressionGd::new(1e-4, 10);
    let (wf, _) = gd.fit(&ds.tn, &ds.y);
    let (wm, _) = gd.fit(&tm, &ds.y);
    assert!(wf.approx_eq(&wm, 1e-9));
    let cof = LinearRegressionCofactor::new(0.05, 10);
    assert!(cof.fit(&ds.tn, &ds.y).approx_eq(&cof.fit(&tm, &ds.y), 1e-9));
}

#[test]
fn kmeans_identical_on_all_backends() {
    let ds = PkFkSpec::from_ratios(6.0, 2.0, 30, 3, 3).generate();
    let (tm, adaptive, cn, cm) = backends(&ds.tn);
    let km = KMeans::new(3, 6);
    let m_ref = km.fit(&ds.tn);
    for m in [km.fit(&tm), km.fit(&adaptive), km.fit(&cn), km.fit(&cm)] {
        assert_eq!(m.assignments, m_ref.assignments);
        assert!(m.centroids.approx_eq(&m_ref.centroids, 1e-8));
    }
}

#[test]
fn kmeans_identical_on_all_backends_for_sparse_star_and_mn() {
    let star = morpheus::data::realsim::by_name("Movies")
        .unwrap()
        .generate(0.0005, 9)
        .tn;
    let mn = MnJoinSpec {
        n_s: 60,
        n_r: 50,
        d_s: 3,
        d_r: 4,
        n_u: 8,
        seed: 10,
    }
    .generate()
    .tn;
    assert!(star.parts().iter().all(|p| p.table().is_sparse()));
    let km = KMeans::new(4, 6);
    for tn in [star, mn] {
        let (tm, adaptive, cn, cm) = backends(&tn);
        let m_ref = km.fit(&tn);
        for m in [km.fit(&tm), km.fit(&adaptive), km.fit(&cn), km.fit(&cm)] {
            assert_eq!(m.assignments, m_ref.assignments);
            assert!(m.centroids.approx_eq(&m_ref.centroids, 1e-8));
        }
    }
}

#[test]
fn gnmf_identical_on_factorized_and_materialized() {
    // GNMF needs non-negative data: use the star generator output shifted.
    let ds = StarSpec {
        n_s: 60,
        d_s: 2,
        tables: vec![(5, 3), (4, 2)],
        seed: 4,
    }
    .generate();
    let nonneg = ds.tn.apply(ScalarOp::Add(2.0)); // stays normalized
    let tm = nonneg.materialize();
    let g = Gnmf::new(2, 8);
    let mf = g.fit(&nonneg);
    let mm = g.fit(&tm);
    assert!(mf.w.approx_eq(&mm.w, 1e-7));
    assert!(mf.h.approx_eq(&mm.h, 1e-7));
}

#[test]
fn mn_join_training_matches() {
    let ds = MnJoinSpec {
        n_s: 60,
        n_r: 60,
        d_s: 3,
        d_r: 3,
        n_u: 12,
        seed: 5,
    }
    .generate();
    let y = ds.labels();
    let tm = ds.tn.materialize();
    let trainer = LogisticRegressionGd::new(1e-3, 6);
    assert!(trainer
        .fit(&ds.tn, &y)
        .w
        .approx_eq(&trainer.fit(&tm, &y).w, 1e-9));
}

#[test]
fn orion_and_morpheus_agree_and_beat_chance() {
    let ds = PkFkSpec::from_ratios(10.0, 2.0, 50, 4, 6).generate();
    let y = ds.labels();
    let parts = ds.tn.parts();
    let s = parts[0].table().to_dense();
    let r = parts[1].table().to_dense();
    let k = parts[1].indicator().as_rows().unwrap();
    let fk: Vec<usize> = k.keys().iter().map(|&c| c as usize).collect();

    let w_orion = OrionLogisticRegression::new(1e-2, 60).fit(&s, &fk, &r, &y);
    let w_morpheus = LogisticRegressionGd::new(1e-2, 60).fit(&ds.tn, &y).w;
    assert!(w_orion.approx_eq(&w_morpheus, 1e-8));

    let proba = morpheus::ml::logreg::predict_proba(&ds.tn, &w_morpheus);
    assert!(morpheus::ml::metrics::accuracy(&proba, &y) > 0.7);
}

#[test]
fn heuristic_strategy_controls_routing_without_changing_results() {
    // Low-redundancy join: under the paper's τ/ρ rule the planner must
    // route every operator to materialized and still train the same model.
    let ds = PkFkSpec::from_ratios(2.0, 0.5, 40, 8, 7).generate();
    let heuristic =
        PlannedMatrix::with_strategy(ds.tn.clone(), Strategy::Heuristic(DecisionRule::default()));
    let routing = heuristic.plan(OpKind::Lmm { m: 1 }).unwrap();
    assert!(!routing.factorized, "rule must reject TR=2/FR=0.5");
    let y = ds.labels();
    let trainer = LogisticRegressionGd::new(1e-3, 5);
    assert!(trainer
        .fit(&heuristic, &y)
        .w
        .approx_eq(&trainer.fit(&ds.tn, &y).w, 1e-9));
    // The materialized route was taken: the join is memoized.
    assert!(heuristic.is_memoized());
}

#[test]
fn training_on_transposed_data_uses_appendix_rules() {
    // Fit on Tᵀ treated as a data matrix (features <-> examples swap):
    // the transposed rewrites must agree with materialized training.
    let ds = PkFkSpec::from_ratios(4.0, 1.0, 20, 3, 8).generate();
    let tt = ds.tn.transpose();
    let tm = tt.materialize();
    let y = DenseMatrix::from_fn(tt.rows(), 1, |i, _| if i % 2 == 0 { 1.0 } else { -1.0 });
    let trainer = LogisticRegressionGd::new(1e-3, 5);
    assert!(trainer
        .fit(&tt, &y)
        .w
        .approx_eq(&trainer.fit(&tm, &y).w, 1e-9));
}
