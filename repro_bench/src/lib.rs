//! `repro_bench` — the standing end-to-end + per-layer benchmark of the
//! Morpheus workspace.
//!
//! Seven workloads, each run in a fresh process by the `repro-bench`
//! binary; end-to-end metrics measured with tracing off, per-layer
//! metrics from a separate traced run that records spans and counters
//! *from outside*, around the calls into each layer's public functions.
//! See `README.md` for the metric and workload tables and how the
//! per-layer numbers are expected to move the end-to-end ones.

#![warn(missing_docs)]

pub mod cli;
pub mod data;
pub mod decisions;
pub mod harness;
pub mod json;
pub mod pass;
pub mod probes;
pub mod registry;
pub mod stats;
pub mod trace;
pub mod workloads;
