//! `repro` — regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! repro [--quick] <experiment>...
//! repro all              # everything
//! repro list             # show available experiment ids
//! ```
//!
//! Experiment ids follow the paper: `table3`, `fig3`, `fig4`, `fig5a`,
//! `fig5b`, `fig5c`, `fig5d`, `table6`, `table7`, `table8`, `table9`,
//! `table10`, `table12`, `fig6`, `fig7`, `fig8`, `fig9`, `fig10`, `fig11`,
//! `fig12`, `ablation-crossprod`, `ablation-order`, `ablation-decision`,
//! plus `ablation-crossover`, the cost model's predicted-vs-measured
//! crossover per operator, which exits non-zero when the two disagree by
//! more than 2x.

use morpheus_bench::experiments::{ablation, algorithms, mn, operators, ore, tables};
use std::time::Instant;

const ALL: &[&str] = &[
    "table3",
    "fig3",
    "fig6",
    "fig7",
    "fig4",
    "fig11",
    "fig12",
    "fig5a",
    "fig5b",
    "fig5c",
    "fig5d",
    "fig8",
    "fig9",
    "fig10",
    "table6",
    "table7",
    "table8",
    "table9",
    "table10",
    "table12",
    "ablation-crossprod",
    "ablation-order",
    "ablation-decision",
    "ablation-crossover",
];

fn run(name: &str, quick: bool) -> bool {
    let start = Instant::now();
    let known = match name {
        "table3" => {
            tables::table3();
            true
        }
        "fig3" => {
            operators::fig3(quick);
            true
        }
        "fig6" => {
            operators::fig6(quick);
            true
        }
        "fig7" => {
            operators::fig7(quick);
            true
        }
        "fig4" => {
            mn::fig4(quick);
            true
        }
        "fig11" => {
            mn::fig11(quick);
            true
        }
        "fig12" => {
            mn::fig12(quick);
            true
        }
        "fig5a" => {
            algorithms::fig5a(quick);
            true
        }
        "fig5b" => {
            algorithms::fig5b(quick);
            true
        }
        "fig5c" => {
            algorithms::fig5c(quick);
            true
        }
        "fig5d" => {
            algorithms::fig5d(quick);
            true
        }
        "fig8" => {
            algorithms::fig8(quick);
            true
        }
        "fig9" => {
            algorithms::fig9(quick);
            true
        }
        "fig10" => {
            algorithms::fig10(quick);
            true
        }
        "table6" => {
            tables::table6(if quick { 0.002 } else { tables::REAL_SCALE });
            true
        }
        "table7" => {
            tables::table7(quick);
            true
        }
        "table8" => {
            tables::table8(quick);
            true
        }
        "table9" => {
            ore::table9(quick);
            true
        }
        "table10" => {
            ore::table10(quick);
            true
        }
        "table12" => {
            tables::table12(quick);
            true
        }
        "ablation-crossprod" => {
            ablation::ablation_crossprod(quick);
            true
        }
        "ablation-order" => {
            ablation::ablation_order(quick);
            true
        }
        "ablation-decision" => {
            ablation::ablation_decision(quick);
            ablation::print_adaptive_demo();
            true
        }
        "ablation-crossover" => {
            ablation::ablation_crossover();
            true
        }
        _ => false,
    };
    if known {
        println!("[{name} finished in {:.1}s]", start.elapsed().as_secs_f64());
    }
    known
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let names: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(|a| a.as_str())
        .collect();

    if names.is_empty() || names.contains(&"list") {
        println!("usage: repro [--quick] <experiment>... | all | list");
        println!("experiments:");
        for n in ALL {
            println!("  {n}");
        }
        return;
    }

    let start = Instant::now();
    let to_run: Vec<&str> = if names.contains(&"all") {
        ALL.to_vec()
    } else {
        names
    };
    for name in to_run {
        if !run(name, quick) {
            eprintln!("unknown experiment '{name}' — run `repro list`");
            std::process::exit(2);
        }
    }
    println!(
        "\nAll requested experiments finished in {:.1}s",
        start.elapsed().as_secs_f64()
    );
}
