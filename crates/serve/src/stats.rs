//! One observable snapshot of the whole serving stack.

use crate::ServeMode;
use morpheus_runtime::faults::FaultStats;

/// Point-in-time counters of a [`crate::ScoringService`], folded together
/// with the process-wide fault/degradation counters so one snapshot
/// answers "how is serving doing" — throughput, admission control and
/// self-healing in a single place.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeStats {
    /// Scoring mode the service locked in at startup.
    pub mode: ServeMode,
    /// Requests admitted into the queue.
    pub requests: u64,
    /// Requests refused by admission control (queue at capacity).
    pub shed: u64,
    /// Scoring batches executed (including aborted ones).
    pub batches: u64,
    /// Requests carried by those batches.
    pub batched_requests: u64,
    /// Entity rows scored successfully.
    pub rows_scored: u64,
    /// Batches aborted by a panic and converted into per-request errors.
    pub batch_aborts: u64,
    /// Requests waiting in the queue right now.
    pub queue_depth: u64,
    /// High-water mark of the queue depth.
    pub max_queue_depth: u64,
    /// Mean requests per batch (`batched_requests / batches`; 0 before
    /// the first batch). 1.0 means no coalescing is happening.
    pub coalesce_ratio: f64,
    /// Process-wide fault-injection and degradation counters
    /// ([`morpheus_runtime::faults::stats`]).
    pub faults: FaultStats,
}
