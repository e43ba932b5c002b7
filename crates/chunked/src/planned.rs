//! The chunked [`Store`]: [`PlannedChunkedMatrix`] is core's per-operator
//! planner with the materialized join held as a [`ChunkedMatrix`].
//!
//! The in-memory planner compares calibrated time estimates of the
//! factorized and materialized routes. Out of core the same comparison
//! holds, but the materialized route's price changes: it flattens to the
//! profile's DRAM tier (a chunked working set never stays in a cache tier
//! across chunks), pays a per-chunk dispatch overhead, and pays spill I/O
//! — writing the materialized join's chunks past the resident budget
//! once, and reading them back on every pass. The factorized route is the
//! in-memory route, at the in-memory price: it runs the
//! [`NormalizedMatrix`] rewrites directly on the base tables, because the
//! rewrites close over plain LA operators and need no second
//! implementation to run beside a chunked backend — the ORE argument of
//! the paper. The spill rates are calibrated against the actual spill
//! directory ([`spill::io_rates`]).
//!
//! Residency: the factorized route keeps **all** base tables resident —
//! the entity table included — and outside `MORPHEUS_CHUNK_BYTES`. Only
//! the materialized route's chunks are admitted against that budget and
//! spill. Streaming the entity table `S` by chunk is not implemented.
//!
//! Routing, the memo and the [`morpheus_core::DecisionHook`] are core's
//! [`Planned`], so the strategies and the tie-break behave identically —
//! only the estimates differ, and a factorized verdict is bit-identical
//! to the in-memory planner's, at any budget.

use crate::{spill, ChunkedMatrix};
use morpheus_core::cost::{estimate_op, stored_entries, OpKind, PlanEstimate};
use morpheus_core::{MachineProfile, NormalizedMatrix, Planned, RowChunked, Store};

/// A chunked data matrix that plans factorized-vs-materialized execution
/// per operator call, pricing the materialized route's spill traffic.
/// ML algorithms are oblivious both to the routing *and* to chunks
/// spilling to disk.
pub type PlannedChunkedMatrix = Planned<ChunkedMatrix>;

/// The chunked store's context: how its materialized join is chunked,
/// admitted and priced. All of it bears on the materialized route only —
/// the factorized route keeps every base table resident outside the
/// budget and is not chunked.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChunkedCostCtx {
    /// Logical rows per chunk.
    pub chunk_rows: usize,
    /// Overrides of the resident budget and spill rates (tests, benches).
    /// `None` takes the process-wide ones, resolved at first use: the
    /// budget when the join is built or priced, the calibrated rates at
    /// the first cost-based decision.
    pub spill: Option<SpillCosts>,
}

/// The spill environment of a chunked join.
///
/// The rates live here rather than in [`MachineProfile`] deliberately:
/// spill throughput depends on the spill *directory* (tmpfs vs disk), not
/// the machine, so the chunked backend calibrates it lazily per process,
/// apart from the machine profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpillCosts {
    /// Resident budget in bytes (`MORPHEUS_CHUNK_BYTES`); materialized
    /// bytes beyond it stream through spill files on every access.
    pub resident_budget_bytes: f64,
    /// Calibrated ns per byte to fault a spilled chunk back in (mmap +
    /// copy).
    pub read_ns_per_byte: f64,
    /// Calibrated ns per byte to write + rename + map a spill file.
    pub write_ns_per_byte: f64,
}

impl Store for ChunkedMatrix {
    type Ctx = ChunkedCostCtx;

    /// Builds the join by *streaming* row bands of `t` — the whole join
    /// is never resident at once; chunks past the budget spill as they
    /// are built.
    fn materialize_join(t: &NormalizedMatrix, ctx: &ChunkedCostCtx) -> Self {
        let budget = ctx.spill.map_or_else(spill::resident_budget_bytes, |s| {
            s.resident_budget_bytes as u64
        });
        ChunkedMatrix::from_normalized_with_budget(t, ctx.chunk_rows, budget)
    }

    /// The **factorized** route is not chunked at all: it runs the
    /// in-memory rewrites on the base tables, which all stay resident, so
    /// its price is exactly [`estimate_op`]'s `factorized_ns`, independent
    /// of `ctx`.
    ///
    /// The **materialized** route pays three terms on top of the
    /// in-memory model:
    ///
    /// * every dense kernel is priced at the profile's **DRAM tier** —
    ///   chunk-at-a-time execution streams each chunk through the cache
    ///   once, so the L2/L3 rates the in-memory model picks for small
    ///   shapes never materialize;
    /// * the spill traffic: the bytes of the chunked join beyond the
    ///   resident budget are faulted in from spill files on every
    ///   operator pass (`read_ns_per_byte`), and `materialize_ns`
    ///   additionally pays writing them out once (`write_ns_per_byte`) —
    ///   the asymmetry the paper's ORE experiments exploit;
    /// * one dispatch overhead per chunk.
    fn estimate(
        profile: &MachineProfile,
        t: &NormalizedMatrix,
        op: OpKind,
        ctx: &ChunkedCostCtx,
    ) -> PlanEstimate {
        let costs = ctx.spill.unwrap_or_else(|| {
            let (read, write) = spill::io_rates();
            SpillCosts {
                resident_budget_bytes: spill::resident_budget_bytes() as f64,
                read_ns_per_byte: read,
                write_ns_per_byte: write,
            }
        });
        let streamed = estimate_op(&dram_clamped(profile), t, op);
        let n_chunks = ((t.logical_rows() as f64 / ctx.chunk_rows.max(1) as f64).ceil()).max(1.0);
        let spilled_bytes = (8.0 * stored_entries(t) - costs.resident_budget_bytes).max(0.0);
        PlanEstimate {
            factorized_ns: estimate_op(profile, t, op).factorized_ns,
            materialized_op_ns: streamed.materialized_op_ns
                + spilled_bytes * costs.read_ns_per_byte
                + n_chunks * profile.op_overhead_ns,
            materialize_ns: streamed.materialize_ns + spilled_bytes * costs.write_ns_per_byte,
        }
    }
}

impl RowChunked for ChunkedMatrix {
    fn chunk_ctx(chunk_rows: usize) -> ChunkedCostCtx {
        ChunkedCostCtx {
            chunk_rows,
            spill: None,
        }
    }
}

/// `profile` with every dense tier clamped to the DRAM rate.
fn dram_clamped(p: &MachineProfile) -> MachineProfile {
    let mut q = *p;
    let dram = q.dense_tiers[2].ns;
    for tier in &mut q.dense_tiers {
        tier.ns = dram;
    }
    q
}

#[cfg(test)]
mod tests {
    use super::*;
    use morpheus_core::{Decision, LinearOperand, PlannedMatrix, Strategy};
    use morpheus_dense::DenseMatrix;
    use std::sync::{Arc, Mutex};

    fn pkfk(n_s: usize, d_s: usize, n_r: usize, d_r: usize) -> NormalizedMatrix {
        let s = DenseMatrix::from_fn(n_s, d_s, |i, j| ((i * 3 + j) % 7) as f64 - 2.5);
        let r = DenseMatrix::from_fn(n_r, d_r, |i, j| ((i * d_r + j) % 5) as f64 * 0.5 + 0.1);
        let fk: Vec<usize> = (0..n_s).map(|i| (i * 7 + 1) % n_r).collect();
        NormalizedMatrix::pk_fk(s.into(), &fk, r.into())
    }

    /// A context with fixed spill rates at the given budget.
    fn ctx(chunk_rows: usize, budget: f64, read: f64) -> ChunkedCostCtx {
        ChunkedCostCtx {
            chunk_rows,
            spill: Some(SpillCosts {
                resident_budget_bytes: budget,
                read_ns_per_byte: read,
                write_ns_per_byte: 1.0,
            }),
        }
    }

    fn resident_ctx(chunk_rows: usize) -> ChunkedCostCtx {
        ctx(chunk_rows, f64::INFINITY, 0.5)
    }

    fn logged(
        t: NormalizedMatrix,
        chunk_rows: usize,
        strategy: Strategy,
    ) -> (PlannedChunkedMatrix, Arc<Mutex<Vec<Decision>>>) {
        let log = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&log);
        let planned = PlannedChunkedMatrix::with_strategy(t, chunk_rows, strategy)
            .with_profile(MachineProfile::REFERENCE)
            .with_ctx(resident_ctx(chunk_rows))
            .with_hook(move |d| sink.lock().unwrap().push(*d));
        (planned, log)
    }

    #[test]
    fn always_arms_agree_and_route_unconditionally() {
        let tn = pkfk(60, 3, 8, 4);
        let x = DenseMatrix::from_fn(tn.cols(), 2, |i, j| (i + 2 * j) as f64 * 0.3);
        let (f, f_log) = logged(tn.clone(), 16, Strategy::AlwaysFactorize);
        let (m, m_log) = logged(tn.clone(), 16, Strategy::AlwaysMaterialize);
        assert!(f.lmm(&x).approx_eq(&tn.lmm(&x), 1e-11));
        assert!(m
            .lmm(&x)
            .approx_eq(&tn.materialize().matmul_dense(&x), 1e-11));
        assert!(f_log.lock().unwrap().iter().all(|d| d.factorized));
        assert!(m_log.lock().unwrap().iter().all(|d| !d.factorized));
        assert!(!f.is_memoized());
        assert!(m.is_memoized());
        assert!(LinearOperand::crossprod(&f).approx_eq(&LinearOperand::crossprod(&m), 1e-9));
    }

    #[test]
    fn routed_results_match_the_in_memory_planner() {
        let tn = pkfk(120, 3, 10, 5);
        for strategy in [
            Strategy::CostBased,
            Strategy::AlwaysFactorize,
            Strategy::AlwaysMaterialize,
        ] {
            let chunked = PlannedChunkedMatrix::with_strategy(tn.clone(), 32, strategy)
                .with_profile(MachineProfile::REFERENCE)
                .with_ctx(resident_ctx(32));
            let planned = PlannedMatrix::with_strategy(tn.clone(), strategy)
                .with_profile(MachineProfile::REFERENCE);
            let x = DenseMatrix::from_fn(tn.cols(), 2, |i, j| (i + j) as f64 * 0.2);
            assert!(chunked.lmm(&x).approx_eq(&planned.lmm(&x), 1e-10));
            assert!(LinearOperand::row_sums(&chunked)
                .approx_eq(&LinearOperand::row_sums(&planned), 1e-10));
            assert!(LinearOperand::crossprod(&chunked)
                .approx_eq(&LinearOperand::crossprod(&planned), 1e-9));
            assert!(
                (LinearOperand::sum(&chunked) - LinearOperand::sum(&planned)).abs() < 1e-8,
                "{strategy:?}"
            );
        }
    }

    #[test]
    fn decisions_match_brute_force_chunked_estimates() {
        let tn = pkfk(300, 3, 20, 6);
        let profile = MachineProfile::REFERENCE;
        let ctx = ctx(64, 0.0, 0.5);
        let planned = PlannedChunkedMatrix::with_strategy(tn.clone(), 64, Strategy::CostBased)
            .with_profile(profile)
            .with_ctx(ctx);
        for op in OpKind::ALL {
            let d = planned.plan(op).unwrap();
            let est = ChunkedMatrix::estimate(&profile, &tn, op, &ctx);
            assert_eq!(
                d.factorized,
                est.factorized_ns < est.materialized_total_ns(false),
                "chunked planner disagrees with brute force on {op:?}"
            );
        }
    }

    #[test]
    fn spilled_memo_keeps_results_identical() {
        let tn = pkfk(90, 4, 9, 3);
        // Budget 0: every materialized chunk spills.
        let planned =
            PlannedChunkedMatrix::with_strategy(tn.clone(), 16, Strategy::AlwaysMaterialize)
                .with_ctx(ctx(16, 0.0, 0.5));
        let x = DenseMatrix::from_fn(tn.cols(), 1, |i, _| i as f64 * 0.5);
        let via_spill = planned.lmm(&x);
        let n_spilled = |p: &PlannedChunkedMatrix| p.memo().map_or(0, ChunkedMatrix::n_spilled);
        assert!(n_spilled(&planned) > 0, "budget 0 must spill the memo");
        // The spilled materialized route is bit-identical to the fully
        // resident one.
        let resident =
            PlannedChunkedMatrix::with_strategy(tn.clone(), 16, Strategy::AlwaysMaterialize)
                .with_ctx(resident_ctx(16));
        assert_eq!(via_spill.as_slice(), resident.lmm(&x).as_slice());
        assert_eq!(n_spilled(&resident), 0);
    }

    #[test]
    fn the_priced_chunk_height_is_the_built_one() {
        // Constructed with 16-row chunks, then given a 64-row context: the
        // memo must be chunked the way the verdict was priced.
        let tn = pkfk(300, 3, 20, 6);
        let planned =
            PlannedChunkedMatrix::with_strategy(tn.clone(), 16, Strategy::AlwaysMaterialize)
                .with_ctx(ctx(64, 0.0, 0.5));
        let _ = LinearOperand::sum(&planned);
        assert_eq!(
            planned.memo().map(ChunkedMatrix::n_chunks),
            Some(tn.rows().div_ceil(64))
        );
    }

    #[test]
    fn closure_ops_preserve_or_spend_the_representation() {
        let tn = pkfk(48, 2, 6, 3);
        let f = PlannedChunkedMatrix::with_strategy(tn.clone(), 12, Strategy::AlwaysFactorize);
        let f2 = f.scale(2.0);
        assert!(f2.normalized().is_some());
        assert!((LinearOperand::sum(&f2) - tn.scalar_mul(2.0).sum()).abs() < 1e-9);
        let m = PlannedChunkedMatrix::with_strategy(tn.clone(), 12, Strategy::AlwaysMaterialize);
        let m2 = m.squared();
        assert!(m2.normalized().is_none());
        assert!((LinearOperand::sum(&m2) - tn.materialize().scalar_pow(2.0).sum()).abs() < 1e-9);
    }

    #[test]
    fn ml_training_is_oblivious_to_the_planned_chunked_backend() {
        let tn = pkfk(80, 3, 8, 4);
        let y = DenseMatrix::from_fn(tn.rows(), 1, |i, _| if i % 3 == 0 { 1.0 } else { -1.0 });
        let trainer = morpheus_ml::logreg::LogisticRegressionGd::new(1e-2, 5);
        let w_plain = trainer.fit(&tn, &y);
        for strategy in [Strategy::AlwaysFactorize, Strategy::AlwaysMaterialize] {
            let planned = PlannedChunkedMatrix::with_strategy(tn.clone(), 16, strategy)
                .with_ctx(resident_ctx(16));
            let w = trainer.fit(&planned, &y);
            assert!(w.w.approx_eq(&w_plain.w, 1e-9), "{strategy:?}");
        }
    }

    #[test]
    fn chunked_estimates_price_spill_traffic_on_the_materialized_route() {
        let p = MachineProfile::REFERENCE;
        let t = pkfk(10_000, 4, 100, 40);
        let resident = resident_ctx(512);
        let spilled = ctx(512, 0.0, 0.5);
        for op in OpKind::ALL {
            let base = estimate_op(&p, &t, op);
            let res = ChunkedMatrix::estimate(&p, &t, op, &resident);
            let spl = ChunkedMatrix::estimate(&p, &t, op, &spilled);
            for e in [&res, &spl] {
                assert!(
                    e.factorized_ns.is_finite() && e.factorized_ns > 0.0,
                    "{op:?}"
                );
                assert!(e.materialized_op_ns.is_finite() && e.materialized_op_ns > 0.0);
            }
            // The factorized route is the in-memory route at the in-memory
            // price; the materialized one is never priced cheaper than
            // in-memory (DRAM-clamped tiers plus per-chunk dispatch only
            // add cost).
            assert_eq!(res.factorized_ns, base.factorized_ns, "{op:?}");
            assert!(res.materialized_op_ns >= base.materialized_op_ns, "{op:?}");
            // Spilling charges the materialized route, not the factorized
            // one — every base table stays resident.
            assert_eq!(spl.factorized_ns, res.factorized_ns, "{op:?}");
            assert!(spl.materialized_op_ns > res.materialized_op_ns, "{op:?}");
            assert!(spl.materialize_ns > res.materialize_ns, "{op:?}");
        }
        // The spill charge equals bytes x rate when everything spills.
        let mat_bytes = 8.0 * t.rows() as f64 * t.cols() as f64;
        let res = ChunkedMatrix::estimate(&p, &t, OpKind::Sum, &resident);
        let spl = ChunkedMatrix::estimate(&p, &t, OpKind::Sum, &spilled);
        assert!((spl.materialized_op_ns - res.materialized_op_ns - mat_bytes * 0.5).abs() < 1e-6);
        assert!((spl.materialize_ns - res.materialize_ns - mat_bytes * 1.0).abs() < 1e-6);
    }

    #[test]
    fn spill_pricing_flips_decisions_toward_factorized() {
        // At TR = 2, FR = 0.5 the in-memory model picks the materialized
        // route for LMM once the join is memoized; with the join spilled
        // to disk at a realistic read rate, every pass pays the spill
        // traffic and the factorized route must win.
        let p = MachineProfile::REFERENCE;
        let t = pkfk(2_000, 20, 1_000, 10);
        let op = OpKind::Lmm { m: 2 };
        let chunked = ChunkedMatrix::estimate(&p, &t, op, &ctx(256, 0.0, 1.0));
        assert!(
            chunked.factorized_ns < chunked.materialized_total_ns(true),
            "spilled join must favor factorized: {chunked:?}"
        );
    }
}
