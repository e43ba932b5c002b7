//! Service tuning knobs.

use morpheus_core::Strategy;
use std::time::Duration;

/// Tuning parameters of a [`crate::ScoringService`].
///
/// [`ServeConfig::default`] gives the built-in defaults, with
/// [`Strategy::CostBased`] routing; every field can be overridden with the
/// `with_*` builders or by assignment.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Latency budget for coalescing a batch after its first request.
    pub batch_window: Duration,
    /// Maximum entity rows per scoring batch (≥ 1; an oversized single
    /// request still runs, alone).
    pub batch_max: usize,
    /// Maximum queued requests before load shedding (≥ 1).
    pub queue_cap: usize,
    /// Number of scorer threads draining the queue (≥ 1). They share the
    /// one resident runtime pool via
    /// [`morpheus_runtime::Runtime::with_pool_share`].
    pub scorers: usize,
    /// Routing policy mapped to the service's scoring mode once at
    /// startup: [`Strategy::AlwaysMaterialize`] serves from a resident
    /// join, every other strategy from the factorized form (per-batch
    /// re-routing would change floating-point summation order between
    /// batch sizes and break the bit-identity guarantee).
    pub strategy: Strategy,
}

impl ServeConfig {
    /// Default coalescing window, in microseconds. Zero: a batch's fixed
    /// cost is about a microsecond, so there is nothing for a timed wait
    /// to amortize, and under load batches fill from the queue anyway.
    pub const DEFAULT_BATCH_WINDOW_US: u64 = 0;
    /// Default maximum rows per batch.
    pub const DEFAULT_BATCH_MAX: usize = 256;
    /// Default queue capacity (requests) before shedding.
    pub const DEFAULT_BATCH_QUEUE: usize = 1024;

    /// Returns the config with `batch_max` replaced (builder style).
    pub fn with_batch_max(mut self, batch_max: usize) -> ServeConfig {
        self.batch_max = batch_max.max(1);
        self
    }

    /// Returns the config with `batch_window` replaced (builder style).
    pub fn with_batch_window(mut self, window: Duration) -> ServeConfig {
        self.batch_window = window;
        self
    }

    /// Returns the config with `scorers` replaced (builder style).
    pub fn with_scorers(mut self, scorers: usize) -> ServeConfig {
        self.scorers = scorers.max(1);
        self
    }

    /// Returns the config with `strategy` replaced (builder style).
    pub fn with_strategy(mut self, strategy: Strategy) -> ServeConfig {
        self.strategy = strategy;
        self
    }
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            batch_window: Duration::from_micros(Self::DEFAULT_BATCH_WINDOW_US),
            batch_max: Self::DEFAULT_BATCH_MAX,
            queue_cap: Self::DEFAULT_BATCH_QUEUE,
            scorers: 1,
            strategy: Strategy::default(),
        }
    }
}
