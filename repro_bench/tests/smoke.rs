//! Every workload completes under `--quick`, end to end and traced, and
//! prints exactly the registered metrics; the command line refuses what it
//! must refuse.

use repro_bench::json::{self, Json};
use repro_bench::registry::{self, END_TO_END, PER_LAYER};
use repro_bench::workloads::Workload;
use std::process::{Command, Output};

fn bench(args: &[&str]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro-bench"));
    // The harness refuses to start under MORPHEUS_* overrides (CI sets some).
    for (k, _) in std::env::vars_os() {
        if k.to_string_lossy().starts_with("MORPHEUS_") {
            cmd.env_remove(k);
        }
    }
    cmd.args(args).output().expect("spawn repro-bench")
}

fn quick_run(w: Workload, trace: bool) {
    let out = bench(&[
        "run",
        "--workload",
        w.name(),
        "--seed",
        "11",
        "--quick",
        "--trace",
        if trace { "1" } else { "0" },
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{} failed:\n{stderr}", w.name());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().rev();
    let result = json::parse(lines.next().expect("a result line")).expect("result line is JSON");
    let detailed = json::parse(lines.next().expect("a detailed line")).expect("detailed JSON");

    let keys: Vec<&str> = result
        .as_obj()
        .unwrap()
        .keys()
        .map(String::as_str)
        .collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{stderr}");
    assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
    assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);

    let want: Vec<(&str, &str)> = if trace {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    let metrics = result.get("metrics").and_then(Json::as_obj).unwrap();
    assert_eq!(metrics.len(), want.len(), "{}: metric count", w.name());
    for (name, unit) in want {
        let m = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{}: no {name}", w.name()));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit));
        let v = m.get("value").and_then(Json::as_f64).unwrap();
        assert!(v.is_finite(), "{}: {name} = {v}", w.name());
        if !trace {
            assert!(
                v > 0.0,
                "{}: end-to-end metric {name} must never be 0",
                w.name()
            );
        }
    }
    // A quick run is flagged as not comparable with a full one.
    assert_eq!(detailed.get("comparable"), Some(&Json::Bool(false)));
    assert_eq!(
        detailed.get("workload").and_then(Json::as_str),
        Some(w.name())
    );
    if trace {
        let spans = repro_bench::cli::out_dir().join(format!("spans-{}.jsonl", w.name()));
        let text = std::fs::read_to_string(&spans).expect("the traced run wrote its spans");
        assert!(text.lines().count() > 0);
        json::parse(text.lines().next().unwrap()).expect("span lines are JSON");
    }
}

// One test per workload so they run as parallel processes.
macro_rules! smoke {
    ($($name:ident => $w:expr),*) => {$(
        #[test]
        fn $name() {
            quick_run($w, false);
            quick_run($w, true);
        }
    )*};
}

smoke! {
    pkfk_hi_quick => Workload::PkfkHi,
    pkfk_lo_quick => Workload::PkfkLo,
    star_sparse_quick => Workload::StarSparse,
    mn_join_quick => Workload::MnJoin,
    script_quick => Workload::Script,
    serve_quick => Workload::Serve,
    ooc_quick => Workload::Ooc
}

#[test]
fn refuses_morpheus_overrides_unknown_workloads_and_bad_flags() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro-bench"))
        .args(["run", "--workload", "pkfk_hi", "--quick"])
        .env("MORPHEUS_NUM_THREADS", "1")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "a refused run prints no result");
    assert!(String::from_utf8_lossy(&out.stderr).contains("MORPHEUS_NUM_THREADS"));
    assert_eq!(bench(&["run", "--workload", "nope"]).status.code(), Some(2));
    assert_eq!(bench(&["run"]).status.code(), Some(2));
    assert_eq!(
        bench(&["run", "--workload", "serve", "--bogus"])
            .status
            .code(),
        Some(2)
    );
    assert_eq!(bench(&[]).status.code(), Some(2));
}

#[test]
fn committed_manifest_is_the_generated_one() {
    let out = bench(&["manifest"]);
    assert!(out.status.success());
    let generated = String::from_utf8(out.stdout).unwrap();
    assert_eq!(generated, registry::benchmark_json());
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    assert_eq!(
        committed, generated,
        "regenerate with `repro-bench manifest > BENCHMARK.json`"
    );
    let parsed = json::parse(&committed).expect("BENCHMARK.json is JSON");
    let keys: Vec<&str> = parsed
        .as_obj()
        .unwrap()
        .keys()
        .map(String::as_str)
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
}
