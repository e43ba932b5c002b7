//! Helpers shared by the integration test binaries (`mod common;`).

// Each test binary uses a subset of these helpers.
#![allow(dead_code)]

use morpheus::runtime::Runtime;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Bit patterns for the bitwise determinism contract (README,
/// *Determinism*): every non-NaN element keeps its exact bits — so
/// `-0.0` and `0.0` differ, as does any change of rounding — and every
/// NaN maps to one canonical pattern. Rust leaves the sign and payload of
/// a NaN produced by arithmetic unspecified, so two equal vectors under
/// this map are bitwise equal off NaN and NaN in the same places.
pub fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter()
        .map(|v| if v.is_nan() { f64::NAN } else { *v }.to_bits())
        .collect()
}

static SETTINGS: Mutex<()> = Mutex::new(());

/// Exclusive hold on the process-wide runtime settings a test toggles —
/// the worker count and the SIMD gate — that puts both back when it is
/// dropped, also when the test returns early on a failed `prop_assert!`
/// or panics.
///
/// Tests of one binary run concurrently. Two unserialized "save, set,
/// restore" sequences can interleave so that the second restores the
/// first one's temporary value — SIMD then stays off, or the worker count
/// stays pinned, for the rest of the binary. Every toggle therefore goes
/// through this guard's setters, and a test reads its "before" results
/// while holding it, so they really run on the default settings.
pub struct RuntimeSettings {
    threads: usize,
    simd: bool,
    _lock: MutexGuard<'static, ()>,
}

impl RuntimeSettings {
    /// Waits until no other test holds the settings, then takes them.
    pub fn hold() -> RuntimeSettings {
        // A test that panicked while holding the guard has already had its
        // settings restored by the drop below.
        let lock = SETTINGS.lock().unwrap_or_else(PoisonError::into_inner);
        RuntimeSettings {
            threads: Runtime::threads(),
            simd: Runtime::simd_enabled(),
            _lock: lock,
        }
    }

    /// [`Runtime::set_threads`] until the guard drops.
    pub fn set_threads(&self, n: usize) {
        Runtime::set_threads(n);
    }

    /// [`Runtime::set_simd`] until the guard drops.
    pub fn set_simd(&self, enabled: bool) {
        Runtime::set_simd(enabled);
    }
}

impl Drop for RuntimeSettings {
    fn drop(&mut self) {
        Runtime::set_threads(self.threads);
        Runtime::set_simd(self.simd);
    }
}
