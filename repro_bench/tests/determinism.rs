//! The seed decides the data and nothing else: equal seeds give equal
//! tables and equal exact-repeat counts, different seeds different tables.

use morpheus_chunked::ChunkedMatrix;
use morpheus_core::{MachineProfile, PlannedMatrix};
use repro_bench::data::fingerprint;
use repro_bench::harness::RunCfg;
use repro_bench::pass::run_pass;
use repro_bench::workloads::{script, train, Workload};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn quick(seed: u64) -> RunCfg {
    RunCfg {
        seed,
        seconds: 1.0,
        trace: false,
        quick: true,
        out_dir: std::env::temp_dir(),
    }
}

const TRAINING: [Workload; 4] = [
    Workload::PkfkHi,
    Workload::PkfkLo,
    Workload::StarSparse,
    Workload::MnJoin,
];

#[test]
fn same_seed_same_table_different_seed_different_table() {
    for w in TRAINING {
        let a = fingerprint(&train::generate(w, &quick(7)));
        let b = fingerprint(&train::generate(w, &quick(7)));
        let c = fingerprint(&train::generate(w, &quick(8)));
        assert_eq!(a, b, "{}: same seed, different table", w.name());
        assert_ne!(a, c, "{}: different seed, same table", w.name());
    }
}

/// `core.planner.decisions` of one pass under the frozen reference profile.
fn decisions(w: Workload, seed: u64) -> usize {
    let ds = train::generate(w, &quick(seed));
    let count = Arc::new(AtomicUsize::new(0));
    let hook_count = Arc::clone(&count);
    let planned = PlannedMatrix::new(ds.tn.clone())
        .with_profile(MachineProfile::REFERENCE)
        .with_hook(move |_| {
            hook_count.fetch_add(1, Ordering::Relaxed);
        });
    run_pass(&train::algos(w), &planned, &ds);
    count.load(Ordering::Relaxed)
}

#[test]
fn exact_repeat_counts_repeat_exactly() {
    for w in TRAINING {
        let n = decisions(w, 7);
        assert!(n > 0, "{}: the pass made no planner decision", w.name());
        assert_eq!(n, decisions(w, 7), "{}: core.planner.decisions", w.name());
    }
    assert_eq!(
        script::plan_counts(&quick(7)),
        script::plan_counts(&quick(7))
    );
    assert!(script::plan_counts(&quick(7)).0 > 0);
    let chunks = |seed| {
        let ds = train::generate(Workload::PkfkHi, &quick(seed));
        ChunkedMatrix::from_normalized_with_budget(&ds.tn, 256, u64::MAX).n_chunks()
    };
    assert_eq!(chunks(7), chunks(7));
    // The chunk count is a function of the shape, which the seed does not touch.
    assert_eq!(chunks(7), chunks(8));
}
