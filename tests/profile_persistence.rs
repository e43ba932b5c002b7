//! Integration test for `MachineProfile` persistence through the real
//! `MORPHEUS_PROFILE_PATH` environment hook: first use calibrates and
//! writes the versioned file, later processes (simulated here through the
//! injectable loader) read it back bit-for-bit and never recalibrate.
//!
//! Exactly one test here touches `MachineProfile::global` (it resolves
//! once per process, so the env var must be set before any other code in
//! the binary reads it); every other test drives the injectable
//! `load_else_calibrate_with` seam, where calibration is a closure and
//! the path is explicit. The crash-safety tests inject faults through
//! `morpheus::runtime::faults` — persistence goes through a
//! same-directory temp file and an atomic rename, so a failed or crashed
//! write must always leave the previous file intact. Every test persists
//! through the `profile.write` failpoint those tests arm, so every test
//! holds the registry's exclusive guard.

use morpheus::prelude::*;
use morpheus::runtime::faults;

fn temp_profile_path(name: &str) -> std::path::PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!(
        "morpheus-persist-test-{name}-{}.txt",
        std::process::id()
    ));
    path
}

/// A distinctive, valid profile (not `REFERENCE`) so tests can tell a
/// fresh "calibration" from anything loaded or left behind.
fn fresh_rates() -> MachineProfile {
    let mut p = MachineProfile::REFERENCE;
    p.ew_ns = 1.0625;
    p.op_overhead_ns = 775.0;
    p
}

#[test]
fn global_profile_round_trips_through_the_env_path() {
    let _guard = faults::exclusive();
    let mut path = std::env::temp_dir();
    path.push(format!(
        "morpheus-global-profile-{}.txt",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    std::env::set_var(morpheus::core::PROFILE_PATH_ENV, &path);

    // First use: no file exists, so this calibrates and persists.
    let calibrated = *MachineProfile::global();
    let text = std::fs::read_to_string(&path).expect("calibration must write the profile file");
    assert_eq!(
        MachineProfile::from_text(&text).expect("persisted profile must parse"),
        calibrated,
        "the persisted rates must round-trip exactly"
    );
    assert!(
        text.contains(&format!(
            "format_version = {}",
            morpheus::core::PROFILE_FORMAT_VERSION
        )),
        "persisted profile must carry the current format version"
    );

    // What the *next* process does: load the file, never calibrate. The
    // injectable-loader seam makes the "never" observable in-process.
    let reloaded = MachineProfile::load_else_calibrate_with(path.to_str(), || {
        panic!("a current-version profile file must be loaded, not recalibrated")
    });
    assert_eq!(reloaded, calibrated);

    let _ = std::fs::remove_file(&path);
}

/// `.tmp.<pid>` siblings of `path` (the atomic-rename staging files).
fn tmp_droppings(path: &std::path::Path) -> Vec<std::path::PathBuf> {
    let dir = path.parent().expect("temp paths have a parent");
    let prefix = format!(
        "{}.tmp.",
        path.file_name().expect("named file").to_string_lossy()
    );
    std::fs::read_dir(dir)
        .expect("temp dir must be readable")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .map(|n| n.to_string_lossy().starts_with(&prefix))
                .unwrap_or(false)
        })
        .collect()
}

#[test]
fn truncated_or_garbage_file_recalibrates_and_rewrites_atomically() {
    let _guard = faults::exclusive();
    for (name, junk) in [
        ("garbage", "!!! not a profile at all !!!".to_string()),
        (
            "truncated",
            MachineProfile::REFERENCE.to_text()[..70].to_string(),
        ),
    ] {
        let path = temp_profile_path(name);
        std::fs::write(&path, &junk).unwrap();
        let out = MachineProfile::load_else_calibrate_with(path.to_str(), fresh_rates);
        assert_eq!(out, fresh_rates(), "case {name}: must recalibrate");
        // The unusable file was replaced — through a temp file and a
        // rename, so no staging droppings survive a successful persist.
        let rewritten = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            MachineProfile::from_text(&rewritten).unwrap(),
            fresh_rates(),
            "case {name}: must rewrite the file"
        );
        assert!(
            tmp_droppings(&path).is_empty(),
            "case {name}: no temp files may remain"
        );
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn injected_write_failure_leaves_the_previous_profile_intact() {
    let _guard = faults::exclusive();
    let path = temp_profile_path("io-error");
    // A healthy process persisted its rates earlier...
    let old = MachineProfile::REFERENCE;
    std::fs::write(&path, old.to_text()).unwrap();
    // ...then the file goes stale (simulated by deleting it here and
    // re-persisting under an injected I/O failure: same code path).
    let failures_before = faults::stats().profile_write_failures;
    faults::configure("profile.write=io_error").unwrap();
    let out = MachineProfile::load_else_calibrate_with(
        // A path whose load fails so the calibrator runs and persistence
        // is attempted over the *existing* stale-format file.
        path.to_str(),
        fresh_rates,
    );
    faults::clear();
    // Planning proceeds on the fresh in-memory rates regardless.
    assert_eq!(out, old, "existing valid file loads before any write");
    // Force the write path: unusable file + injected failure.
    std::fs::write(&path, "corrupt").unwrap();
    faults::configure("profile.write=io_error").unwrap();
    let out = MachineProfile::load_else_calibrate_with(path.to_str(), fresh_rates);
    faults::clear();
    assert_eq!(out, fresh_rates(), "planning must proceed on fresh rates");
    // The failed write is counted, the garbage file is untouched (the
    // injected failure struck before the rename), and no temp staging
    // file leaked.
    assert!(faults::stats().profile_write_failures > failures_before);
    assert_eq!(std::fs::read_to_string(&path).unwrap(), "corrupt");
    assert!(tmp_droppings(&path).is_empty());
    let _ = std::fs::remove_file(&path);
}

#[test]
fn crash_during_persist_window_cannot_corrupt_the_target() {
    let _guard = faults::exclusive();
    let path = temp_profile_path("crash-window");
    // The target currently holds an unusable file — the worst case: a
    // crash mid-rewrite must not leave it half-written.
    std::fs::write(&path, "stale contents").unwrap();
    let failures_before = faults::stats().profile_write_failures;
    faults::configure("profile.write=panic").unwrap();
    // The panic strikes between the temp-file write and the rename; the
    // loader contains it (persistence is best-effort) and still returns
    // the fresh rates.
    let out = MachineProfile::load_else_calibrate_with(path.to_str(), fresh_rates);
    faults::clear();
    assert_eq!(out, fresh_rates());
    assert!(faults::stats().profile_write_failures > failures_before);
    // The target was never touched — only the staging file existed in
    // the crash window.
    assert_eq!(std::fs::read_to_string(&path).unwrap(), "stale contents");
    for dropping in tmp_droppings(&path) {
        let _ = std::fs::remove_file(dropping);
    }
    let _ = std::fs::remove_file(&path);
}
