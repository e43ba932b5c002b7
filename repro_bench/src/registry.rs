//! The metrics the benchmark registers: name, unit, direction, bound —
//! the one table `BENCHMARK.json`, the run output and the `aa` check are
//! all derived from.

use crate::workloads::Workload;

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: reported by every workload with tracing off.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// The end-to-end metrics. What the three generic timing slots hold on
/// each workload is tabulated in `README.md`.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "default_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "reference_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "slow_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "rate_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.20,
    },
];

/// A per-layer metric: reported by every workload's traced run; 0 where
/// the layer is not on the workload's path.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Metric name, prefixed with its layer.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// The per-layer metrics, layer by layer.
pub const PER_LAYER: [PerLayer; 77] = [
    higher("runtime.threads", "count"),
    lower("runtime.dispatch_us", "us"),
    lower("runtime.degradations", "count"),
    higher("dense.gemm_tall_gflops", "GFLOP/s"),
    higher("dense.gemm_part_gflops", "GFLOP/s"),
    higher("dense.crossprod_gflops", "GFLOP/s"),
    higher("dense.roofline_frac", "ratio"),
    higher("dense.reduce_gbps", "GB/s"),
    lower("sparse.gather_ns_per_elem", "ns"),
    lower("sparse.scatter_ns_per_elem", "ns"),
    higher("sparse.gather_roofline_frac", "ratio"),
    lower("sparse.spmm_ns_per_nnz", "ns"),
    lower("sparse.t_spmm_ns_per_nnz", "ns"),
    lower("sparse.mat_spmm_ns_per_nnz", "ns"),
    lower("linalg.ginv_s", "s"),
    lower("core.op.lmm_s", "s"),
    lower("core.op.t_lmm_s", "s"),
    lower("core.op.crossprod_s", "s"),
    lower("core.op.agg_s", "s"),
    lower("core.op.ew_s", "s"),
    lower("core.op.other_s", "s"),
    lower("core.op.calls", "count"),
    lower("core.rewrite_self_frac", "ratio"),
    lower("core.fact_train_s", "s"),
    higher("core.speedup_fm", "ratio"),
    lower("core.planner.regret", "ratio"),
    lower("core.planner.decisions", "count"),
    higher("core.planner.factorized_frac", "ratio"),
    lower("core.planner.residual_log2", "log2"),
    lower("core.planner.overhead_us", "us"),
    lower("core.materialize_s", "s"),
    higher("core.redundancy_ratio", "ratio"),
    lower("core.profile.dense_l2_ns", "ns"),
    lower("core.profile.gather_ns", "ns"),
    lower("ml.logreg_s", "s"),
    lower("ml.linreg_ne_s", "s"),
    lower("ml.kmeans_s", "s"),
    lower("ml.gnmf_s", "s"),
    lower("ml.self_frac", "ratio"),
    lower("ml.model_delta", "abs"),
    lower("data.generate_s", "s"),
    lower("lang.parse_us", "us"),
    lower("lang.plan_cold_us", "us"),
    lower("lang.plan_warm_us", "us"),
    lower("lang.eval_s", "s"),
    lower("lang.interp_s", "s"),
    higher("lang.planned_speedup", "ratio"),
    lower("lang.plan_nodes", "count"),
    higher("lang.fused_chains", "count"),
    higher("lang.plan_cache_hit_frac", "ratio"),
    lower("lang.dense_bound_s", "s"),
    lower("chunked.chunks", "count"),
    lower("chunked.spilled_chunks", "count"),
    lower("chunked.spill_mb", "MiB"),
    lower("chunked.spill_fallbacks", "count"),
    lower("chunked.build_s", "s"),
    higher("chunked.spill_write_mbps", "MiB/s"),
    higher("chunked.spill_load_mbps", "MiB/s"),
    lower("chunked.spilled_over_resident", "ratio"),
    lower("chunked.over_inmem", "ratio"),
    higher("chunked.planner.factorized_frac", "ratio"),
    lower("chunked.planner.regret", "ratio"),
    lower("serve.mode", "count"),
    higher("serve.coalesce_ratio", "ratio"),
    lower("serve.batches", "count"),
    lower("serve.shed", "count"),
    lower("serve.batch_aborts", "count"),
    lower("serve.max_queue_depth", "count"),
    lower("serve.slice_build_us", "us"),
    lower("serve.score_batch_us", "us"),
    lower("serve.score_ns_per_row", "ns"),
    lower("serve.overhead_frac", "ratio"),
    higher("serve.batch1_rps", "1/s"),
    higher("serve.batching_speedup", "ratio"),
    lower("serve.rt_p999_us", "us"),
    lower("serve.rt_window0_p50_us", "us"),
    lower("trace.overhead_frac", "ratio"),
];

/// Unit of a registered metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, u)| u)
}

/// Seconds one run measures (`--seconds` as the driver passes it).
pub const RUN_SECONDS: u32 = 10;

/// The text of `BENCHMARK.json`, generated from the tables above so the
/// manifest can never drift from what the binary prints.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \
         \"repro_bench/Cargo.toml\", \"--\", \"run\"],\n",
    );
    s.push_str("  \"paths\": [\"repro_bench\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name(),
                w.why()
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        let first = name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric());
        first
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    /// The limits the driver checks before a single run.
    #[test]
    fn registry_is_inside_the_contract_limits() {
        let mut names = BTreeSet::new();
        for w in Workload::ALL {
            assert!(name_ok(w.name()), "{}", w.name());
            assert!(w.why().len() <= 200, "{}: why too long", w.name());
            assert!(!w.why().contains('\n') && !w.why().contains('"'));
            assert!(names.insert(w.name()), "{} used twice", w.name());
        }
        assert!((2..=8).contains(&Workload::ALL.len()));
        for m in END_TO_END {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(names.insert(m.name), "{} used twice", m.name);
        }
        for m in PER_LAYER {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(names.insert(m.name), "{} used twice", m.name);
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(benchmark_json().len() <= 64 * 1024);
    }
}
