//! The `repro-bench` command line: `run`, `all`, `aa`, `manifest`.

use crate::harness::{degradations, Report, RunCfg};
use crate::json::{self, Json};
use crate::registry::{self, Better, END_TO_END, PER_LAYER, RUN_SECONDS};
use crate::trace;
use crate::workloads::Workload;
use std::path::PathBuf;
use std::process::{Command, Stdio};

const USAGE: &str = "\
usage: repro-bench run --workload <name> [--seed N] [--seconds S] [--trace [0|1]] [--quick]
       repro-bench all [--seed N] [--seconds S] [--trace [0|1]] [--quick]
       repro-bench aa  [--seed N] [--seconds S]
       repro-bench manifest
workloads: pkfk_hi pkfk_lo star_sparse mn_join script serve ooc";

/// The seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 7;

#[derive(Debug, Clone)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
        quick: false,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                out.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => {
                let v = value("an unsigned integer")?;
                out.seed = v.parse().map_err(|_| format!("bad --seed `{v}`"))?;
            }
            "--seconds" => {
                let v = value("a number of seconds")?;
                out.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or(format!("bad --seconds `{v}`"))?;
            }
            "--trace" => {
                // Bare `--trace` means on; the driver passes `--trace <0|1>`.
                out.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--quick" => out.quick = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(out)
}

/// Where span files and spill files go: `out/` beside this crate's
/// manifest, inside the checkout the binary was built in.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Refuses to measure under any `MORPHEUS_*` override: the numbers would
/// describe the override, not the defaults a user gets.
fn refuse_morpheus_env() -> Result<(), String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("MORPHEUS_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to start with {} set: the benchmark measures the defaults",
            set.join(", ")
        ))
    }
}

/// Entry point of the binary; returns the process exit code.
pub fn main(args: &[String]) -> i32 {
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return 2;
    };
    if cmd == "manifest" {
        print!("{}", registry::benchmark_json());
        return 0;
    }
    let parsed = match parse_args(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("repro-bench: {e}\n{USAGE}");
            return 2;
        }
    };
    if let Err(e) = refuse_morpheus_env() {
        eprintln!("repro-bench: {e}");
        return 2;
    }
    match cmd.as_str() {
        "run" => match parsed.workload {
            Some(w) => run(w, &parsed),
            None => {
                eprintln!("repro-bench: run needs --workload\n{USAGE}");
                2
            }
        },
        "all" => match all(&parsed) {
            Ok(results) => i32::from(results.iter().any(|r| r.failed > 0)),
            Err(e) => {
                eprintln!("repro-bench: {e}");
                1
            }
        },
        "aa" => aa(&parsed),
        other => {
            eprintln!("repro-bench: unknown command `{other}`\n{USAGE}");
            2
        }
    }
}

/// Runs one workload in this process and prints its result.
fn run(w: Workload, args: &Args) -> i32 {
    let cfg = RunCfg {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        quick: args.quick,
        out_dir: out_dir(),
    };
    if let Err(e) = std::fs::create_dir_all(&cfg.out_dir) {
        eprintln!("repro-bench: cannot create {}: {e}", cfg.out_dir.display());
        return 1;
    }
    trace::set_enabled(cfg.trace);
    let mut report = w.run(&cfg);
    trace::set_enabled(false);
    if cfg.trace {
        report.value("runtime.degradations", degradations() as f64);
        let path = cfg.out_dir.join(format!("spans-{}.jsonl", w.name()));
        if let Err(e) = trace::write_jsonl(&path, &trace::snapshot()) {
            eprintln!("repro-bench: cannot write {}: {e}", path.display());
            return 1;
        }
    }
    complete(&mut report, cfg.trace);
    report.finish();
    print_report(w, &cfg, &report);
    0
}

/// `v` to six significant digits, in plain decimal notation.
fn sig6(v: f64) -> String {
    if v == 0.0 || !v.is_finite() {
        return format!("{v}");
    }
    let decimals = (5 - v.abs().log10().floor() as i32).clamp(0, 12) as usize;
    format!("{v:.decimals$}")
}

/// The registered metric names for this kind of run, in registry order.
fn registered(trace: bool) -> Vec<&'static str> {
    if trace {
        PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    }
}

/// Makes the report hold exactly the registered set: a per-layer metric
/// the workload does not exercise reads 0; a missing end-to-end metric or
/// a non-finite value is a failed operation.
fn complete(report: &mut Report, trace: bool) {
    for name in registered(trace) {
        match report.get(name) {
            None if trace => report.value(name, 0.0),
            None => report.check(false, &format!("end-to-end metric {name} was not measured")),
            Some(v) if !v.is_finite() => {
                report.check(false, &format!("metric {name} is not finite"));
            }
            Some(_) => {}
        }
    }
}

/// Prints the human table on stderr, the detailed object and then the
/// result line on stdout.
fn print_report(w: Workload, cfg: &RunCfg, report: &Report) {
    let names = registered(cfg.trace);
    eprintln!(
        "== {} (seed {}, {} s, {}{}) ==",
        w.name(),
        cfg.seed,
        cfg.seconds,
        if cfg.trace { "traced" } else { "end to end" },
        if cfg.quick {
            ", quick — not comparable"
        } else {
            ""
        },
    );
    eprintln!(
        "{:<32} {:>16} {:>14} {:>14} {:>8}  unit",
        "metric", "value", "q1", "q3", "samples"
    );
    let mut detailed = Vec::new();
    let mut line = Vec::new();
    for name in &names {
        let unit = registry::unit_of(name).expect("registered metric");
        let s = report
            .metrics
            .iter()
            .find(|m| m.name == *name)
            .map(|m| m.summary);
        let Some(s) = s else { continue };
        let fin = |v: f64| if v.is_finite() { v } else { 0.0 };
        eprintln!(
            "{:<32} {:>16} {:>14} {:>14} {:>8}  {}",
            name,
            sig6(s.median),
            sig6(s.q1),
            sig6(s.q3),
            s.samples,
            unit
        );
        detailed.push(format!(
            "{{\"name\":\"{name}\",\"unit\":\"{unit}\",\"value\":{},\"q1\":{},\"q3\":{},\"samples\":{}}}",
            fin(s.median),
            fin(s.q1),
            fin(s.q3),
            s.samples
        ));
        line.push(format!(
            "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
            fin(s.median)
        ));
    }
    eprintln!(
        "attempted {}  failed {}  fail_frac {}",
        report.attempted,
        report.failed,
        report.failed as f64 / report.attempted as f64
    );
    for note in &report.notes {
        eprintln!("  {note}");
    }
    let notes: Vec<String> = report
        .notes
        .iter()
        .map(|n| format!("\"{}\"", json::escape(n)))
        .collect();
    println!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"comparable\":{},\
         \"attempted\":{},\"failed\":{},\"metrics\":[{}],\"notes\":[{}]}}",
        w.name(),
        cfg.seed,
        cfg.seconds,
        cfg.trace,
        !cfg.quick,
        report.attempted,
        report.failed,
        detailed.join(","),
        notes.join(",")
    );
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        line.join(",")
    );
}

/// One child's result line, parsed.
struct ChildResult {
    workload: Workload,
    failed: u64,
    metrics: Vec<(String, f64)>,
}

/// Spawns one child process per workload — so read-once env vars, the
/// global profile, the plan cache and the pool start cold each time —
/// forwards what they print and returns their result lines.
fn all(args: &Args) -> Result<Vec<ChildResult>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut results = Vec::new();
    for w in Workload::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args(["run", "--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if args.quick {
            cmd.arg("--quick");
        }
        let out = cmd
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot spawn {}: {e}", w.name()))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        print!("{stdout}");
        if !out.status.success() {
            return Err(format!("workload {} exited with {}", w.name(), out.status));
        }
        let last = stdout.lines().last().unwrap_or_default();
        let parsed =
            json::parse(last).map_err(|e| format!("{}: bad result line: {e}", w.name()))?;
        let metrics = parsed
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or(format!("{}: result line has no metrics", w.name()))?
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect();
        results.push(ChildResult {
            workload: w,
            failed: parsed.get("failed").and_then(Json::as_f64).unwrap_or(1.0) as u64,
            metrics,
        });
    }
    Ok(results)
}

/// Runs `all` twice on the same code and checks that every end-to-end
/// metric × workload agrees within the metric's own bound.
fn aa(args: &Args) -> i32 {
    let args = Args {
        trace: false,
        quick: false,
        ..args.clone()
    };
    let (first, second) = match (all(&args), all(&args)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("repro-bench: {e}");
            return 1;
        }
    };
    let mut violations = 0;
    eprintln!(
        "{:<12} {:<14} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "worse by", "bound"
    );
    for (a, b) in first.iter().zip(&second) {
        for m in END_TO_END {
            let value = |r: &ChildResult| {
                r.metrics
                    .iter()
                    .find(|(n, _)| n == m.name)
                    .map_or(f64::NAN, |(_, v)| *v)
            };
            let (x, y) = (value(a), value(b));
            // How much worse the worse of the two reads than the better.
            let (good, bad) = match m.better {
                Better::Lower => (x.min(y), x.max(y)),
                Better::Higher => (x.max(y), x.min(y)),
            };
            let worse_by = (bad - good).abs() / good.abs();
            let ok = worse_by <= m.bound;
            if !ok {
                violations += 1;
            }
            eprintln!(
                "{:<12} {:<14} {:>14.6} {:>14.6} {:>8.1}% {:>6.0}%{}",
                a.workload.name(),
                m.name,
                x,
                y,
                worse_by * 100.0,
                m.bound * 100.0,
                if ok { "" } else { "  VIOLATION" }
            );
        }
        if a.failed + b.failed > 0 {
            violations += 1;
            eprintln!(
                "{:<12} failed operations: {} then {}  VIOLATION",
                a.workload.name(),
                a.failed,
                b.failed
            );
        }
    }
    eprintln!("{violations} violations");
    i32::from(violations > 0)
}
