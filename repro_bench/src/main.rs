//! The `repro-bench` binary; everything lives in the library so the
//! integration tests can reach it.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(repro_bench::cli::main(&args));
}
