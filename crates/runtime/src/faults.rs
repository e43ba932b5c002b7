//! Deterministic failpoint registry and degradation counters: the
//! engineered failure model of the runtime.
//!
//! A **failpoint** is a named site in production code where a fault can be
//! injected on demand — a panic, a simulated I/O error, a feature probe
//! reporting "unavailable", or an artificial delay. With no failpoints
//! configured the registry is *disarmed* and every check is a single
//! relaxed atomic load (measurably free on the hot paths it guards).
//! Configuration
//! comes from the `MORPHEUS_FAILPOINTS` environment variable (read once,
//! at first check) or programmatically via [`configure`] / [`clear`] —
//! the test hooks the chaos suite uses, callable only while holding
//! [`exclusive`].
//!
//! ## Spec grammar
//!
//! ```text
//! MORPHEUS_FAILPOINTS="pool.dispatch=panic(0.01,seed=42);spill.write=io_error;simd.detect=off"
//!
//! spec    := point (';' point)*
//! point   := name '=' kind [ '(' arg (',' arg)* ')' ]
//! kind    := panic | error | io_error | off | sleep
//! arg     := <float in [0,1]>      probability (default 1.0; sleep: the
//!                                  first bare number is milliseconds)
//!          | seed '=' <u64>        decision-sequence seed (default 0)
//!          | times '=' <u64>       stop firing after this many fires
//!          | ms '=' <u64>          sleep duration (sleep only)
//! ```
//!
//! Firing is **deterministic**: each failpoint keeps a hit counter, and
//! hit `i` fires iff `splitmix64(seed, i)` maps below the probability —
//! the same schedule every run, independent of wall clock (there is no
//! entropy anywhere in this module).
//!
//! ## Named failpoints
//!
//! | name | site | kinds honored |
//! |---|---|---|
//! | `pool.dispatch` | `pool` job dispatch | `panic` unwinds on the submitter before anything is published; any other kind makes dispatch report "unavailable", degrading the section to inline serial execution (bit-identical results) |
//! | `pool.worker` | worker loop, after claiming a job | `panic` kills the resident worker, which the pool detects and heals (see the `pool` module) |
//! | `pool.spawn` | worker spawn in `set_threads` growth | any kind makes the spawn fail, exercising the degraded (fewer-helpers / inline-serial) pool |
//! | `exec.stride` | every executor stride body | `panic` (contained like any stride panic and re-thrown on the submitter), `sleep` |
//! | `profile.calibrate` | start of `MachineProfile::calibrate` | `sleep` simulates a hostile machine (trips the calibration watchdog), `panic` a crashing calibration |
//! | `simd.detect` | AVX2 probe of the GEMM/reduction dispatch | any kind makes the probe report "no AVX2", demoting to the bit-identical scalar-FMA tier |
//! | `plan.cache.lookup` / `plan.cache.insert` | inside the plan-cache lock | `panic` poisons the cache mutex; the next access recovers by clearing |
//! | `planner.memo` | join-memo materialization closure | `panic` aborts the memoized join; the `OnceLock` stays empty and the next call recomputes |
//! | `spill.write` | after a chunk's values are written to its (already unlinked) spill file | `io_error`/`error` fail the spill; the handle closes and the chunk stays resident in memory (results unchanged, budget overrun) |
//!
//! Alongside the failpoints, this module owns the process-wide
//! **degradation counters** ([`stats`]): every self-healing or fallback
//! event anywhere in the workspace — worker deaths and respawns, inline
//! serial fallbacks, calibration timeouts, poisoned-lock recoveries,
//! SIMD demotions — is [`note`]d here so
//! operators can observe exactly which ladders the runtime walked down.

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Environment variable holding the failpoint spec (read once, at the
/// first check; [`configure`]/[`clear`] override it afterwards).
pub const FAILPOINTS_ENV: &str = "MORPHEUS_FAILPOINTS";

/// The fault a fired failpoint injects. How each kind is honored is up to
/// the site (see the module docs table); sites ignore kinds that make no
/// sense for them, so a misconfigured kind degrades to "no fault", never
/// to undefined behavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Unwind at the site (delivered hook-silently via
    /// [`std::panic::resume_unwind`] with an [`InjectedPanic`] payload).
    Panic,
    /// A generic structured failure the site maps to its error channel.
    Error,
    /// A simulated I/O failure.
    IoError,
    /// A feature probe reports "unavailable".
    Off,
    /// Delay the site by this many milliseconds, then proceed normally.
    Sleep(u64),
}

/// Panic payload of injected panics, so tests can tell an injected fault
/// from a genuine bug ([`is_injected_panic`]).
#[derive(Debug)]
pub struct InjectedPanic {
    /// Name of the failpoint that fired.
    pub failpoint: String,
}

/// Downcasts a caught panic payload to the injected-fault marker,
/// returning the failpoint name when it is one.
pub fn is_injected_panic(payload: &(dyn std::any::Any + Send)) -> Option<&str> {
    payload
        .downcast_ref::<InjectedPanic>()
        .map(|p| p.failpoint.as_str())
}

/// One configured failpoint.
struct FailPoint {
    kind: FaultKind,
    /// Fire probability per hit, in `[0, 1]`.
    prob: f64,
    /// Seed mixed into the per-hit decision.
    seed: u64,
    /// Stop firing after this many fires (`None` = unlimited).
    times: Option<u64>,
    /// Checks observed (the deterministic decision-sequence index).
    hits: AtomicU64,
    /// Fires delivered.
    fired: AtomicU64,
}

/// Armed state: `0` unresolved (env not read yet), `1` armed, `2`
/// disarmed. Disarmed is the steady state of production processes, and
/// the only cost a disarmed check pays is this one load.
static STATE: AtomicU8 = AtomicU8::new(0);

fn registry() -> &'static Mutex<HashMap<String, FailPoint>> {
    static REGISTRY: OnceLock<Mutex<HashMap<String, FailPoint>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Locks the registry, recovering from poisoning. The map is only
/// mutated wholesale under [`configure`]/[`clear`] and its entries only
/// through atomics, so a poisoned guard cannot carry a torn update.
fn lock_registry() -> MutexGuard<'static, HashMap<String, FailPoint>> {
    let m = registry();
    m.lock().unwrap_or_else(|e| {
        m.clear_poison();
        e.into_inner()
    })
}

/// `splitmix64`: a fixed, high-quality mix of (seed, hit index) into a
/// uniform u64 — the entire source of "randomness" in firing decisions,
/// chosen so a given spec fires on the exact same hit indices every run.
fn mix(seed: u64, hit: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(hit.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FailPoint {
    /// Decides (and records) whether this check fires.
    fn decide(&self) -> Option<FaultKind> {
        let hit = self.hits.fetch_add(1, Ordering::Relaxed);
        if let Some(limit) = self.times {
            if self.fired.load(Ordering::Relaxed) >= limit {
                return None;
            }
        }
        let fire = if self.prob >= 1.0 {
            true
        } else if self.prob <= 0.0 {
            false
        } else {
            // Upper 53 bits as a uniform fraction in [0, 1).
            ((mix(self.seed, hit) >> 11) as f64) / ((1u64 << 53) as f64) < self.prob
        };
        if fire {
            self.fired.fetch_add(1, Ordering::Relaxed);
            INJECTED.fetch_add(1, Ordering::Relaxed);
            Some(self.kind)
        } else {
            None
        }
    }
}

/// Checks the failpoint `name`, returning the fault to inject if it fires
/// this hit. Pure decision — no side effect beyond the counters; the call
/// site translates the kind into its own failure channel. Disarmed cost:
/// one relaxed atomic load.
#[inline]
pub fn check(name: &str) -> Option<FaultKind> {
    match STATE.load(Ordering::Relaxed) {
        2 => None,
        1 => check_armed(name),
        _ => {
            resolve_env();
            check(name)
        }
    }
}

#[cold]
fn check_armed(name: &str) -> Option<FaultKind> {
    lock_registry().get(name).and_then(FailPoint::decide)
}

/// Checks `name` and *applies* the generic kinds: `panic` unwinds with an
/// [`InjectedPanic`] payload (hook-silent, like a re-thrown panic),
/// `sleep` blocks for its duration and then proceeds (returns `None`).
/// `error` / `io_error` / `off` are returned for the site to translate.
#[inline]
pub fn fire(name: &str) -> Option<FaultKind> {
    match check(name)? {
        FaultKind::Panic => inject_panic(name),
        FaultKind::Sleep(ms) => {
            std::thread::sleep(std::time::Duration::from_millis(ms));
            None
        }
        other => Some(other),
    }
}

/// [`fire`]s `name` for its panic/sleep effects only, ignoring error
/// kinds — for infallible sites whose only injectable fault is death.
#[inline]
pub fn maybe_panic(name: &str) {
    let _ = fire(name);
}

/// Unwinds with the injected-fault payload. `resume_unwind` skips the
/// panic hook, so injected faults do not spam stderr with backtraces —
/// the unwind itself behaves exactly like any stride panic.
fn inject_panic(name: &str) -> ! {
    std::panic::resume_unwind(Box::new(InjectedPanic {
        failpoint: name.to_string(),
    }))
}

/// Resolves the env spec exactly once. A malformed spec warns and
/// disarms — fault injection must never take a process down by itself.
fn resolve_env() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let spec = std::env::var(FAILPOINTS_ENV).unwrap_or_default();
        if spec.trim().is_empty() {
            STATE.store(2, Ordering::Relaxed);
            return;
        }
        if let Err(e) = apply(&spec) {
            eprintln!("morpheus: ignoring {FAILPOINTS_ENV}: {e}");
            STATE.store(2, Ordering::Relaxed);
        }
    });
    // A racing thread that lost call_once still needs a resolved STATE.
    if STATE.load(Ordering::Relaxed) == 0 {
        STATE.store(2, Ordering::Relaxed);
    }
}

/// Replaces the whole failpoint configuration (the programmatic test
/// hook). An empty spec disarms. On a parse error nothing changes and
/// the previous configuration stays in force.
///
/// # Panics
///
/// Unless the calling thread holds [`exclusive`]: an unguarded
/// reconfiguration would arm faults under a sibling test mid-run.
pub fn configure(spec: &str) -> Result<(), String> {
    assert_exclusive("configure");
    apply(spec)
}

/// [`configure`] without the guard check, for its one unguarded caller:
/// the [`FAILPOINTS_ENV`] first-use path, which whichever thread checks a
/// failpoint first runs.
fn apply(spec: &str) -> Result<(), String> {
    let parsed = parse_spec(spec)?;
    let mut map = lock_registry();
    map.clear();
    let armed = !parsed.is_empty();
    for (name, point) in parsed {
        map.insert(name, point);
    }
    STATE.store(if armed { 1 } else { 2 }, Ordering::Relaxed);
    Ok(())
}

/// Disarms every failpoint (the registry is emptied; degradation
/// counters are kept — use [`reset_stats`] for those). After `clear`,
/// checks cost one atomic load again.
///
/// # Panics
///
/// Unless the calling thread holds [`exclusive`] (see [`configure`]).
pub fn clear() {
    assert_exclusive("clear");
    lock_registry().clear();
    STATE.store(2, Ordering::Relaxed);
}

/// Fires delivered by the failpoint `name` so far (0 when unknown).
pub fn fired_count(name: &str) -> u64 {
    lock_registry()
        .get(name)
        .map(|p| p.fired.load(Ordering::Relaxed))
        .unwrap_or(0)
}

fn parse_spec(spec: &str) -> Result<Vec<(String, FailPoint)>, String> {
    let mut out = Vec::new();
    for point in spec.split(';') {
        let point = point.trim();
        if point.is_empty() {
            continue;
        }
        let (name, action) = point
            .split_once('=')
            .ok_or_else(|| format!("failpoint {point:?}: expected name=action"))?;
        let (name, action) = (name.trim(), action.trim());
        if name.is_empty() {
            return Err(format!("failpoint {point:?}: empty name"));
        }
        let (kind_str, args) = match action.split_once('(') {
            None => (action, ""),
            Some((k, rest)) => (
                k.trim(),
                rest.strip_suffix(')')
                    .ok_or_else(|| format!("failpoint {name}: unclosed '(' in {action:?}"))?,
            ),
        };
        let mut prob = 1.0f64;
        let mut seed = 0u64;
        let mut times = None;
        let mut sleep_ms: Option<u64> = None;
        let mut bare_seen = 0usize;
        for arg in args.split(',') {
            let arg = arg.trim();
            if arg.is_empty() {
                continue;
            }
            if let Some((key, value)) = arg.split_once('=') {
                let (key, value) = (key.trim(), value.trim());
                let parse_u64 = |v: &str| {
                    v.parse::<u64>()
                        .map_err(|_| format!("failpoint {name}: non-integer {key}={v:?}"))
                };
                match key {
                    "seed" => seed = parse_u64(value)?,
                    "times" => times = Some(parse_u64(value)?),
                    "ms" => sleep_ms = Some(parse_u64(value)?),
                    "p" | "prob" => {
                        prob = value
                            .parse::<f64>()
                            .map_err(|_| format!("failpoint {name}: non-numeric prob {value:?}"))?
                    }
                    other => return Err(format!("failpoint {name}: unknown arg {other:?}")),
                }
            } else {
                // Bare number: milliseconds first for sleep, probability
                // otherwise (sleep's second bare number is a probability).
                bare_seen += 1;
                if kind_str == "sleep" && bare_seen == 1 {
                    sleep_ms = Some(
                        arg.parse::<u64>()
                            .map_err(|_| format!("failpoint {name}: non-integer ms {arg:?}"))?,
                    );
                } else {
                    prob = arg
                        .parse::<f64>()
                        .map_err(|_| format!("failpoint {name}: non-numeric prob {arg:?}"))?;
                }
            }
        }
        if !(0.0..=1.0).contains(&prob) {
            return Err(format!(
                "failpoint {name}: probability {prob} outside [0, 1]"
            ));
        }
        let kind = match kind_str {
            "panic" => FaultKind::Panic,
            "error" => FaultKind::Error,
            "io_error" => FaultKind::IoError,
            "off" => FaultKind::Off,
            "sleep" => FaultKind::Sleep(sleep_ms.unwrap_or(0)),
            other => {
                return Err(format!(
                    "failpoint {name}: unknown kind {other:?} \
                     (expected panic|error|io_error|off|sleep)"
                ))
            }
        };
        out.push((
            name.to_string(),
            FailPoint {
                kind,
                prob,
                seed,
                times,
                hits: AtomicU64::new(0),
                fired: AtomicU64::new(0),
            },
        ));
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Degradation counters
// ---------------------------------------------------------------------

static INJECTED: AtomicU64 = AtomicU64::new(0);
static WORKER_DEATHS: AtomicU64 = AtomicU64::new(0);
static WORKER_RESPAWNS: AtomicU64 = AtomicU64::new(0);
static POOL_SPAWN_FAILURES: AtomicU64 = AtomicU64::new(0);
static POOL_SERIAL_FALLBACKS: AtomicU64 = AtomicU64::new(0);
static LOCK_RECOVERIES: AtomicU64 = AtomicU64::new(0);
static CALIBRATION_TIMEOUTS: AtomicU64 = AtomicU64::new(0);
static SIMD_FALLBACKS: AtomicU64 = AtomicU64::new(0);
static SERVE_BATCH_ABORTS: AtomicU64 = AtomicU64::new(0);
static SPILL_FALLBACKS: AtomicU64 = AtomicU64::new(0);

/// A self-healing or fallback event somewhere in the workspace, recorded
/// via [`note`]. Rung names match the degradation ladder documented in
/// the README's "Failure model" section.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Degradation {
    /// A resident pool worker died (a panic escaped past the job level).
    WorkerDeath,
    /// A dead worker was healed (the pool runs at full strength again).
    WorkerRespawn,
    /// Spawning a pool worker failed; the pool runs with fewer helpers.
    PoolSpawnFailure,
    /// A parallel section ran inline on the caller because dispatch was
    /// unavailable (no live workers while some were requested, or an
    /// injected dispatch fault). Results are identical, only slower.
    PoolSerialFallback,
    /// A poisoned lock was recovered (cleared/recomputed) instead of
    /// propagating the poison.
    LockRecovery,
    /// Calibration missed its watchdog deadline (or died); the built-in
    /// reference rates are in use for the rest of the process.
    CalibrationTimeout,
    /// The SIMD feature probe reported unavailable; kernels run on the
    /// scalar tier.
    SimdFallback,
    /// A scoring-service batch evaluation panicked; every request in the
    /// batch received a structured error (never a partial or corrupted
    /// response) and the scorer kept serving.
    ServeBatchAbort,
    /// Spilling a chunk to disk failed (create, unlink or write); the
    /// chunk stays resident in memory. Results are identical — the
    /// resident budget is simply overrun.
    SpillFallback,
}

/// Records a degradation event (called by the layers as they fall back).
pub fn note(d: Degradation) {
    let counter = match d {
        Degradation::WorkerDeath => &WORKER_DEATHS,
        Degradation::WorkerRespawn => &WORKER_RESPAWNS,
        Degradation::PoolSpawnFailure => &POOL_SPAWN_FAILURES,
        Degradation::PoolSerialFallback => &POOL_SERIAL_FALLBACKS,
        Degradation::LockRecovery => &LOCK_RECOVERIES,
        Degradation::CalibrationTimeout => &CALIBRATION_TIMEOUTS,
        Degradation::SimdFallback => &SIMD_FALLBACKS,
        Degradation::ServeBatchAbort => &SERVE_BATCH_ABORTS,
        Degradation::SpillFallback => &SPILL_FALLBACKS,
    };
    counter.fetch_add(1, Ordering::Relaxed);
}

/// Snapshot of the process-wide fault/degradation counters. All zeros in
/// a fault-free, healthy process — CI asserts exactly that on unfaulted
/// runs, which also catches accidentally always-on failpoints.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Faults delivered by fired failpoints (all kinds, all points).
    pub injected: u64,
    /// Resident workers that died with a panic escaping the job level.
    pub worker_deaths: u64,
    /// Dead workers healed back to service.
    pub worker_respawns: u64,
    /// Failed worker spawns (pool running under strength).
    pub pool_spawn_failures: u64,
    /// Parallel sections executed inline because dispatch was down.
    pub pool_serial_fallbacks: u64,
    /// Poisoned locks recovered by clearing/recomputing.
    pub lock_recoveries: u64,
    /// Calibrations abandoned to the built-in fallback rates.
    pub calibration_timeouts: u64,
    /// Retired: the machine profile is no longer persisted, so this is
    /// always zero. Kept only because existing readers still sum it.
    pub profile_write_failures: u64,
    /// SIMD probes that reported unavailable (scalar-tier execution).
    pub simd_fallbacks: u64,
    /// Scoring-service batches aborted by a panic and converted into
    /// structured per-request errors.
    pub serve_batch_aborts: u64,
    /// Chunk spills that failed and fell back to resident in-memory
    /// chunks (results unchanged, budget overrun).
    pub spill_fallbacks: u64,
}

/// Reads the process-wide fault/degradation counters.
pub fn stats() -> FaultStats {
    FaultStats {
        injected: INJECTED.load(Ordering::Relaxed),
        worker_deaths: WORKER_DEATHS.load(Ordering::Relaxed),
        worker_respawns: WORKER_RESPAWNS.load(Ordering::Relaxed),
        pool_spawn_failures: POOL_SPAWN_FAILURES.load(Ordering::Relaxed),
        pool_serial_fallbacks: POOL_SERIAL_FALLBACKS.load(Ordering::Relaxed),
        lock_recoveries: LOCK_RECOVERIES.load(Ordering::Relaxed),
        calibration_timeouts: CALIBRATION_TIMEOUTS.load(Ordering::Relaxed),
        profile_write_failures: 0,
        simd_fallbacks: SIMD_FALLBACKS.load(Ordering::Relaxed),
        serve_batch_aborts: SERVE_BATCH_ABORTS.load(Ordering::Relaxed),
        spill_fallbacks: SPILL_FALLBACKS.load(Ordering::Relaxed),
    }
}

/// Zeroes the fault/degradation counters (test hook).
pub fn reset_stats() {
    for c in [
        &INJECTED,
        &WORKER_DEATHS,
        &WORKER_RESPAWNS,
        &POOL_SPAWN_FAILURES,
        &POOL_SERIAL_FALLBACKS,
        &LOCK_RECOVERIES,
        &CALIBRATION_TIMEOUTS,
        &SIMD_FALLBACKS,
        &SERVE_BATCH_ABORTS,
        &SPILL_FALLBACKS,
    ] {
        c.store(0, Ordering::Relaxed);
    }
}

/// Serializes tests that [`configure`]/[`clear`] failpoints. The
/// registry and the counters are process-global, so concurrent `#[test]`s
/// in one binary would otherwise reconfigure each other mid-run; every
/// fault-injecting test holds this guard for its duration.
///
/// The guard only excludes tests that take it. An armed failpoint fires
/// in whichever test reaches its site first, and a sibling that arms
/// nothing but runs the same code path without the guard can take the
/// fault meant for another test. Hence the rule: a test that arms a
/// failpoint lives in an integration-test binary (`tests/*.rs`) in which
/// every test holds this guard. A test that needs crate-private items
/// stays in its crate's lib tests instead, and then every test in that
/// binary that reaches the armed failpoint takes the guard too.
///
/// The guard marks its holding thread: [`configure`] and [`clear`] panic
/// on any other.
pub fn exclusive() -> Exclusive {
    static GATE: Mutex<()> = Mutex::new(());
    let gate = GATE.lock().unwrap_or_else(|e| {
        GATE.clear_poison();
        e.into_inner()
    });
    HOLDS_EXCLUSIVE.with(|h| h.set(true));
    Exclusive { _gate: gate }
}

/// The held [`exclusive`] gate. Not `Send` (it wraps a `MutexGuard`), so
/// the thread it marks is the thread that drops it.
#[must_use = "the failpoint registry is exclusive only while the guard lives"]
pub struct Exclusive {
    _gate: MutexGuard<'static, ()>,
}

impl Drop for Exclusive {
    fn drop(&mut self) {
        // `try_with`: a guard dropped during thread teardown must not panic.
        let _ = HOLDS_EXCLUSIVE.try_with(|h| h.set(false));
    }
}

thread_local! {
    /// Whether this thread holds the [`exclusive`] gate.
    static HOLDS_EXCLUSIVE: Cell<bool> = const { Cell::new(false) };
}

fn assert_exclusive(what: &str) {
    assert!(
        HOLDS_EXCLUSIVE.with(Cell::get),
        "faults::{what} called without holding faults::exclusive()"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_checks_are_none_and_cheap() {
        let _guard = exclusive();
        clear();
        assert_eq!(check("pool.dispatch"), None);
        assert_eq!(check("anything.else"), None);
    }

    #[test]
    fn parse_accepts_the_documented_grammar() {
        let points = parse_spec(
            "pool.dispatch=panic(0.01,seed=42); spill.write=io_error; \
             simd.detect=off;exec.stride=sleep(25,0.5,seed=7);x=error(times=3)",
        )
        .unwrap();
        assert_eq!(points.len(), 5);
        let by_name: HashMap<_, _> = points.into_iter().collect();
        let p = &by_name["pool.dispatch"];
        assert_eq!(p.kind, FaultKind::Panic);
        assert!((p.prob - 0.01).abs() < 1e-12);
        assert_eq!(p.seed, 42);
        assert_eq!(by_name["spill.write"].kind, FaultKind::IoError);
        assert_eq!(by_name["simd.detect"].kind, FaultKind::Off);
        let s = &by_name["exec.stride"];
        assert_eq!(s.kind, FaultKind::Sleep(25));
        assert!((s.prob - 0.5).abs() < 1e-12);
        assert_eq!(s.seed, 7);
        assert_eq!(by_name["x"].times, Some(3));
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "noequals",
            "=panic",
            "a=explode",
            "a=panic(1.5)",
            "a=panic(-0.1)",
            "a=panic(0.5",
            "a=panic(speed=9)",
            "a=panic(seed=fast)",
        ] {
            assert!(parse_spec(bad).is_err(), "spec {bad:?} must be rejected");
        }
    }

    #[test]
    fn firing_is_deterministic_and_seeded() {
        let _guard = exclusive();
        configure("det=error(0.3,seed=42)").unwrap();
        let run: Vec<bool> = (0..64).map(|_| check("det").is_some()).collect();
        // Same spec, fresh counters: the exact same schedule.
        configure("det=error(0.3,seed=42)").unwrap();
        let rerun: Vec<bool> = (0..64).map(|_| check("det").is_some()).collect();
        assert_eq!(run, rerun);
        let fired = run.iter().filter(|&&f| f).count();
        assert!(
            fired > 4 && fired < 40,
            "p=0.3 over 64 hits fired {fired} times"
        );
        // A different seed produces a different schedule.
        configure("det=error(0.3,seed=43)").unwrap();
        let other: Vec<bool> = (0..64).map(|_| check("det").is_some()).collect();
        assert_ne!(run, other);
        clear();
    }

    #[test]
    fn times_bounds_total_fires() {
        let _guard = exclusive();
        configure("bounded=error(times=2)").unwrap();
        let fired = (0..10).filter(|_| check("bounded").is_some()).count();
        assert_eq!(fired, 2);
        assert_eq!(fired_count("bounded"), 2);
        clear();
    }

    #[test]
    fn fire_panics_with_injected_payload() {
        let _guard = exclusive();
        configure("die=panic").unwrap();
        let payload = std::panic::catch_unwind(|| fire("die")).unwrap_err();
        assert_eq!(is_injected_panic(payload.as_ref()), Some("die"));
        clear();
        // Unknown and disarmed points never panic.
        fire("die");
        maybe_panic("die");
    }

    #[test]
    fn counters_note_and_reset() {
        let _guard = exclusive();
        reset_stats();
        assert_eq!(stats(), FaultStats::default());
        note(Degradation::WorkerDeath);
        note(Degradation::WorkerRespawn);
        note(Degradation::PoolSerialFallback);
        let s = stats();
        assert_eq!(s.worker_deaths, 1);
        assert_eq!(s.worker_respawns, 1);
        assert_eq!(s.pool_serial_fallbacks, 1);
        reset_stats();
        assert_eq!(stats(), FaultStats::default());
    }

    #[test]
    #[should_panic(expected = "without holding faults::exclusive()")]
    fn configure_without_the_guard_panics() {
        let _ = configure("unguarded=error");
    }

    #[test]
    fn configure_error_keeps_previous_config() {
        let _guard = exclusive();
        configure("keep=error").unwrap();
        assert!(configure("broken=wat").is_err());
        assert_eq!(check("keep"), Some(FaultKind::Error));
        clear();
    }
}
