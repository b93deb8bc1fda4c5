//! Store-file robustness (ISSUE 8): a damaged or future-versioned store
//! must *never* take the job down — the runtime falls back to catalog
//! estimates, arms a named counter, and otherwise behaves byte-for-byte
//! like a runtime that never had measured history.
//!
//! Covered here:
//! * truncation and single-bit flips → `LoadStatus::Corrupt`, the
//!   `efind.statstore.corrupt` counter, plans identical to the cold path;
//! * a schema-version bump (`v1` → `v2`) → `LoadStatus::VersionMismatch`,
//!   the `efind.statstore.version.mismatch` counter, same clean fallback.

mod common;

use common::file_fingerprint;
use std::fs;
use std::path::{Path, PathBuf};

use efind_repro::cluster::SimDuration;
use efind_repro::core::{EFindRuntime, LoadStatus, Mode};
use efind_repro::workloads::log;

fn config() -> log::LogConfig {
    log::LogConfig {
        num_events: 8_000,
        num_ips: 300,
        num_urls: 100,
        chunks: 240,
        extra_delay: SimDuration::from_millis(5),
        ..log::LogConfig::default()
    }
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("efind-reopt-rob-{}", std::process::id()));
    fs::create_dir_all(&dir).expect("scratch dir");
    dir.join(name)
}

/// Writes a valid warm store for the LOG workload to `path` and returns
/// its bytes.
fn seed_store(path: &Path) -> Vec<u8> {
    let _ = fs::remove_file(path);
    let mut s = log::scenario(&config());
    let mut rt = EFindRuntime::new(&s.cluster, &mut s.dfs);
    rt.attach_store_file(path);
    rt.run(&s.ijob, Mode::Dynamic).unwrap();
    rt.save_store(path).unwrap();
    fs::read(path).expect("seed store written")
}

/// Runs the workload with the store at `path` attached, returning the
/// load status, the result, and the output fingerprint.
fn run_with_store(path: &Path) -> (LoadStatus, efind_repro::core::EFindJobResult, u64) {
    let mut s = log::scenario(&config());
    let mut rt = EFindRuntime::new(&s.cluster, &mut s.dfs);
    let status = rt.attach_store_file(path);
    let res = rt.run(&s.ijob, Mode::Dynamic).unwrap();
    let out_fp = file_fingerprint(rt.dfs, "log.topk");
    (status, res, out_fp)
}

#[test]
fn corrupt_store_falls_back_to_estimates_with_a_named_counter() {
    let good_path = scratch("good.store");
    let bytes = seed_store(&good_path);

    // Reference: the cold (storeless) adaptive run.
    let mut s = log::scenario(&config());
    let mut rt = EFindRuntime::new(&s.cluster, &mut s.dfs);
    let cold = rt.run(&s.ijob, Mode::Dynamic).unwrap();
    let cold_out = file_fingerprint(rt.dfs, "log.topk");

    // Damage variants: hard truncation, mid-file truncation, and a
    // single bit flipped in the body.
    let mut flipped = bytes.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x01;
    let variants: Vec<(&str, Vec<u8>)> = vec![
        ("truncated-head", bytes[..16.min(bytes.len())].to_vec()),
        ("truncated-half", bytes[..bytes.len() / 2].to_vec()),
        ("bit-flipped", flipped),
        ("garbage", b"not a store at all\n".to_vec()),
    ];

    for (label, damaged) in variants {
        let path = scratch(&format!("{label}.store"));
        fs::write(&path, &damaged).unwrap();
        let (status, res, out_fp) = run_with_store(&path);
        assert_eq!(status, LoadStatus::Corrupt, "{label}: load status");
        // The fallback is the cold adaptive path, bit for bit…
        assert_eq!(
            res.total_time, cold.total_time,
            "{label}: corrupt store must not change the plan"
        );
        assert_eq!(res.replanned, cold.replanned, "{label}: replan decision");
        assert_eq!(res.jobs.len(), cold.jobs.len(), "{label}: pipeline shape");
        assert_eq!(out_fp, cold_out, "{label}: output");
        // …except for the one named counter that says what happened.
        assert_eq!(
            res.jobs[0].counters.get("efind.statstore.corrupt"),
            1,
            "{label}: corruption counter"
        );
        assert_eq!(
            res.jobs[0].counters.get("efind.statstore.version.mismatch"),
            0,
            "{label}: no version counter"
        );
    }
}

#[test]
fn version_bump_is_rejected_cleanly() {
    let good_path = scratch("versioned.store");
    let bytes = seed_store(&good_path);

    // Bump the schema version in the header: "efind-statstore v1 …" →
    // "… v2 …". The store must be rejected as a version mismatch (not
    // corruption — the CRC is fine for the bytes that follow).
    let text = String::from_utf8(bytes).expect("store is ASCII");
    assert!(text.starts_with("efind-statstore v1 "), "header format");
    let bumped = text.replacen("efind-statstore v1 ", "efind-statstore v2 ", 1);
    let path = scratch("bumped.store");
    fs::write(&path, bumped).unwrap();

    let (status, res, _) = run_with_store(&path);
    assert_eq!(status, LoadStatus::VersionMismatch);
    assert_eq!(
        res.jobs[0].counters.get("efind.statstore.version.mismatch"),
        1
    );
    assert_eq!(res.jobs[0].counters.get("efind.statstore.corrupt"), 0);
    // The run itself proceeded on estimates: same cold behavior.
    assert!(res.replanned, "fallback runs the cold adaptive path");
}
