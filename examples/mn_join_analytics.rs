//! Linear algebra over a many-to-many join (paper §3.6): two tables joined
//! on a non-key attribute, where the join output can explode to many times
//! the base-table sizes.
//!
//! Here: `Transactions ⋈ Promotions` on `store_region` — every transaction
//! joins with every promotion active in its region. Linear regression and
//! K-Means over the joined features run factorized through
//! `(S, I_S, I_R, R)` without building the blown-up output; each is
//! checked against the materialized join, and the example exits non-zero
//! if they disagree.
//!
//! ```sh
//! cargo run --release --example mn_join_analytics
//! ```

use morpheus::ml::linreg::LinearRegressionNe;
use morpheus::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

fn main() {
    let mut rng = StdRng::seed_from_u64(7);
    let n_tx = 3_000;
    let n_promo = 3_000;
    let n_regions = 60; // uniqueness degree 0.02 → heavy blow-up

    let tx = DenseMatrix::from_fn(n_tx, 10, |_, _| rng.gen_range(-1.0..1.0));
    let promos = DenseMatrix::from_fn(n_promo, 10, |_, _| rng.gen_range(-1.0..1.0));
    let tx_region: Vec<u64> = (0..n_tx)
        .map(|i| {
            if i < n_regions {
                i as u64
            } else {
                rng.gen_range(0..n_regions as u64)
            }
        })
        .collect();
    let promo_region: Vec<u64> = (0..n_promo)
        .map(|i| {
            if i < n_regions {
                i as u64
            } else {
                rng.gen_range(0..n_regions as u64)
            }
        })
        .collect();

    let t0 = Instant::now();
    let tn = NormalizedMatrix::mn_join_on_keys(tx.into(), &tx_region, promos.into(), &promo_region);
    let build = t0.elapsed().as_secs_f64();
    println!(
        "M:N join: {} transactions x {} promotions over {} regions → |T| = {} rows ({}x blow-up), built in {build:.3}s",
        n_tx,
        n_promo,
        n_regions,
        tn.rows(),
        tn.rows() / n_tx
    );

    // Response: promotion lift, a linear function of the joined features.
    let w_truth = DenseMatrix::from_fn(tn.cols(), 1, |i, _| ((i % 7) as f64 - 3.0) * 0.1);
    let y = tn.lmm(&w_truth);

    let solver = LinearRegressionNe::new();
    let t1 = Instant::now();
    let w_f = solver.fit(&tn, &y);
    let time_f = t1.elapsed().as_secs_f64();

    let t2 = Instant::now();
    let tm = tn.materialize();
    let w_m = solver.fit(&tm, &y);
    let time_m = t2.elapsed().as_secs_f64();

    assert!(w_f.approx_eq(&w_m, 1e-6));
    assert!(w_f.approx_eq(&w_truth, 1e-5), "planted model recovered");
    println!("linear regression (normal equations):");
    println!("  factorized   : {time_f:.3}s");
    println!("  materialized : {time_m:.3}s (incl. join)");
    println!(
        "  speedup      : {:.1}x — identical coefficients",
        time_m / time_f
    );

    // K-Means over the join: every part carries an M:N indicator, so the
    // centroid update `Tᵀ A` runs as pair counts `I_Sᵀ A`, `I_Rᵀ A`
    // times the base tables instead of summing the blown-up rows.
    let km = KMeans::new(6, 8);
    let t4 = Instant::now();
    let seg_f = km.fit(&tn);
    let time_kf = t4.elapsed().as_secs_f64();
    let t5 = Instant::now();
    let seg_m = km.fit(&tm);
    let time_km = t5.elapsed().as_secs_f64();
    if seg_f.assignments != seg_m.assignments || !seg_f.centroids.approx_eq(&seg_m.centroids, 1e-8)
    {
        eprintln!("k-means: factorized and materialized models differ");
        std::process::exit(1);
    }
    println!("k-means (k = 6, 8 iterations):");
    println!("  factorized   : {time_kf:.3}s");
    println!("  materialized : {time_km:.3}s — same assignments, centroids within 1e-8");

    // The same data through the planner over the chunked (ORE-analog)
    // backend: a materialized verdict would stream row chunks of the join
    // (spilling past MORPHEUS_CHUNK_BYTES); a factorized verdict runs the
    // rewrites above on the resident base tables.
    let chunk_rows = 16_384;
    let planned = morpheus::chunked::PlannedChunkedMatrix::new(tn, chunk_rows);
    let t3 = Instant::now();
    let w_c = solver.fit(&planned, &y);
    let time_c = t3.elapsed().as_secs_f64();
    assert!(w_c.approx_eq(&w_f, 1e-6));
    println!(
        "  chunked planner ({chunk_rows}-row chunks): {time_c:.3}s — same model, no code changes"
    );
}
