//! Benchmark harness regenerating every table and figure of the paper's
//! evaluation (§5 + appendices).
//!
//! The [`experiments`] module + the `repro` binary print paper-style text
//! tables for **every** table and figure, sized down (ratios preserved) to
//! run on a small CI machine. `cargo run --release -p morpheus-bench --bin
//! repro -- all` regenerates everything. One experiment is also a check:
//! `repro ablation-crossover` fails when the cost model's predicted
//! factorized/materialized crossover strays from the measured one.
//! End-to-end workload timing lives in the standalone `repro_bench`
//! package.
//!
//! Absolute numbers differ from the paper's 20-core Xeon + R/BLAS setup by
//! construction; the reproduction targets are the *shapes*: who wins, how
//! speedups scale with the tuple ratio, feature ratio, and join-attribute
//! uniqueness degree, and where the slow-down region sits.

pub mod experiments;
pub mod timing;
