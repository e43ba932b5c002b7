//! Service tuning knobs and their `MORPHEUS_*` environment variables.

use morpheus_core::Strategy;
use std::time::Duration;

/// Environment variable holding the micro-batch latency budget in
/// microseconds: how long a scorer waits for more requests to coalesce
/// after the first one arrives (default
/// [`ServeConfig::DEFAULT_BATCH_WINDOW_US`]). `0`, the default, disables
/// waiting — every batch is whatever is already queued.
pub const BATCH_WINDOW_ENV: &str = "MORPHEUS_BATCH_WINDOW_US";

/// Environment variable holding the maximum number of entity rows
/// coalesced into one scoring batch (default
/// [`ServeConfig::DEFAULT_BATCH_MAX`]).
pub const BATCH_MAX_ENV: &str = "MORPHEUS_BATCH_MAX";

/// Environment variable holding the admission-control bound: the maximum
/// number of queued requests before new submissions are shed (default
/// [`ServeConfig::DEFAULT_BATCH_QUEUE`]).
pub const BATCH_QUEUE_ENV: &str = "MORPHEUS_BATCH_QUEUE";

/// Tuning parameters of a [`crate::ScoringService`].
///
/// [`ServeConfig::default`] gives the built-in defaults with the routing
/// strategy read from `MORPHEUS_STRATEGY`; [`ServeConfig::from_env`]
/// additionally applies the `MORPHEUS_BATCH_*` variables. All fields can
/// be overridden programmatically afterwards.
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

    /// Built-in defaults plus every `MORPHEUS_BATCH_*` override.
    /// Malformed or zero values fall back to the defaults — tuning
    /// variables must never take the service down.
    pub fn from_env() -> ServeConfig {
        let mut cfg = ServeConfig::default();
        if let Some(us) = parse_env(BATCH_WINDOW_ENV) {
            // 0 is meaningful here: "never wait".
            cfg.batch_window = Duration::from_micros(us);
        }
        if let Some(n) = parse_env(BATCH_MAX_ENV) {
            if n > 0 {
                cfg.batch_max = n as usize;
            }
        }
        if let Some(n) = parse_env(BATCH_QUEUE_ENV) {
            if n > 0 {
                cfg.queue_cap = n as usize;
            }
        }
        cfg
    }

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
            strategy: Strategy::from_env(),
        }
    }
}

fn parse_env(name: &str) -> Option<u64> {
    std::env::var(name).ok()?.trim().parse().ok()
}
