//! Cross-job re-optimization: the persistent statistics store (ISSUE 8).
//!
//! The paper's adaptive runtime (§4) pays a baseline statistics wave and a
//! mid-job replan on *every* execution of a workload, even when the same
//! job ran a minute ago. The `StatStore` removes that tax: a run records
//! observed per-operator statistics keyed by a plan-neutral fingerprint,
//! and the next run over the same shapes plans the measured winner at
//! *compile time* — zero mid-job replans, no baseline wave.
//!
//! These tests drive the LOG workload (Fig. 11(a), the 5 ms lookup point
//! whose winner is the shuffle/re-partitioning plan) through a shared
//! store file and pin the contract:
//!
//! 1. run 1 (cold store) replans mid-job, exactly as without a store;
//! 2. run 2 (warm store) starts on the winning shuffle plan, never
//!    replans, beats the cold run's makespan, and produces the same
//!    answer;
//! 3. run 2's virtual observables are bit-identical across double runs,
//!    and the store file written after run 2 is byte-identical too.

mod common;

use common::{counter_fingerprint, file_fingerprint, Observables};
use std::fs;
use std::path::PathBuf;

use efind_repro::cluster::SimDuration;
use efind_repro::core::{EFindRuntime, LoadStatus, Mode};
use efind_repro::workloads::log;

/// The Fig. 11(a) 5 ms-lookup configuration: expensive enough that the
/// adaptive runtime replans from baseline to the shuffle plan mid-job.
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

/// A per-test scratch path under the target-adjacent temp dir; unique per
/// test name so parallel tests never collide.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("efind-reopt-{}", std::process::id()));
    fs::create_dir_all(&dir).expect("scratch dir");
    dir.join(name)
}

/// E18 table generator (EXPERIMENTS.md): the repeated-workload sweep.
/// Regenerate with
/// `cargo test --release --test reopt_persistence -- --ignored e18 --nocapture`.
#[test]
#[ignore]
fn e18_table() {
    println!("| extra delay | run 1 (cold store) | run 2 (warm store) |");
    println!("|---|---|---|");
    for extra_ms in [0u64, 2, 5] {
        let cfg = log::LogConfig {
            extra_delay: SimDuration::from_millis(extra_ms),
            ..config()
        };
        let store_path = scratch(&format!("e18-{extra_ms}ms.store"));
        let _ = fs::remove_file(&store_path);

        let mut s1 = log::scenario(&cfg);
        let mut rt1 = EFindRuntime::new(&s1.cluster, &mut s1.dfs);
        rt1.attach_store_file(&store_path);
        let cold = rt1.run(&s1.ijob, Mode::Dynamic).unwrap();
        rt1.save_store(&store_path).unwrap();
        let cold_label = if cold.replanned {
            "base→repart"
        } else {
            "base"
        };

        let mut s2 = log::scenario(&cfg);
        let mut rt2 = EFindRuntime::new(&s2.cluster, &mut s2.dfs);
        rt2.attach_store_file(&store_path);
        let warm = rt2.run(&s2.ijob, Mode::Dynamic).unwrap();
        let plans = rt2.plans_for(&s2.ijob, &Mode::Optimized).unwrap();
        let warm_label = plans["geoip"].choices[0].strategy.label();

        println!(
            "| {} ms | {} ({} replan{}), {} | {} ({} replans), {} |",
            extra_ms,
            cold_label,
            cold.replanned as u32,
            if cold.replanned { "" } else { "s" },
            cold.total_time,
            warm_label,
            warm.replanned as u32,
            warm.total_time,
        );
        assert!(!warm.replanned, "warm run must plan up front");
    }
}

#[test]
fn warm_store_plans_the_winner_up_front_without_replanning() {
    let store_path = scratch("persistence.store");
    let _ = fs::remove_file(&store_path);

    // Run 1: cold store. The job behaves exactly like the storeless
    // adaptive runtime — baseline wave, then a mid-job replan to shuffle.
    let mut s1 = log::scenario(&config());
    let mut rt1 = EFindRuntime::new(&s1.cluster, &mut s1.dfs);
    assert_eq!(rt1.attach_store_file(&store_path), LoadStatus::Created);
    let cold = rt1.run(&s1.ijob, Mode::Dynamic).unwrap();
    assert!(cold.replanned, "cold 5 ms lookups must replan mid-job");
    rt1.save_store(&store_path).unwrap();
    let mut expected_answer = rt1.dfs.read_file("log.topk").unwrap();
    expected_answer.sort();

    // Run 2: warm store. The measured statistics match the operator
    // fingerprint, so the winning shuffle plan is compiled up front and
    // the adaptive machinery has nothing left to discover.
    let mut s2 = log::scenario(&config());
    let mut rt2 = EFindRuntime::new(&s2.cluster, &mut s2.dfs);
    assert_eq!(rt2.attach_store_file(&store_path), LoadStatus::Loaded);
    let warm = rt2.run(&s2.ijob, Mode::Dynamic).unwrap();
    assert!(!warm.replanned, "warm run must not replan mid-job");
    assert!(
        warm.jobs.len() > 1,
        "the warm plan is the shuffle pipeline (repartition job + main job), got {} job(s)",
        warm.jobs.len()
    );
    assert!(
        warm.total_time < cold.total_time,
        "warm {} must beat cold {} (no baseline wave, no replan)",
        warm.total_time,
        cold.total_time
    );

    // The compile-time plan the warm store produces is the shuffle winner.
    let plans = rt2.plans_for(&s2.ijob, &Mode::Optimized).unwrap();
    assert!(
        plans["geoip"].has_shuffle(),
        "measured stats must pick the shuffle strategy, got {:?}",
        plans["geoip"]
    );

    // Same answer, replanned or not.
    let mut got = rt2.dfs.read_file("log.topk").unwrap();
    got.sort();
    assert_eq!(got, expected_answer, "warm plan must not alter the answer");
}

#[test]
fn warm_run_observables_and_store_file_are_bit_identical() {
    let seed_path = scratch("identity-seed.store");
    let _ = fs::remove_file(&seed_path);

    // Seed the store with one cold run.
    let mut s = log::scenario(&config());
    let mut rt = EFindRuntime::new(&s.cluster, &mut s.dfs);
    rt.attach_store_file(&seed_path);
    rt.run(&s.ijob, Mode::Dynamic).unwrap();
    rt.save_store(&seed_path).unwrap();

    // Two warm passes from the same seed store: every virtual observable
    // and the re-saved store file must be byte-identical.
    let warm_pass = |out_name: &str| -> (Observables, Vec<u8>) {
        let out_path = scratch(out_name);
        let _ = fs::remove_file(&out_path);
        let mut s = log::scenario(&config());
        let mut rt = EFindRuntime::new(&s.cluster, &mut s.dfs);
        assert_eq!(rt.attach_store_file(&seed_path), LoadStatus::Loaded);
        let res = rt.run(&s.ijob, Mode::Dynamic).unwrap();
        assert!(!res.replanned);
        rt.save_store(&out_path).unwrap();
        let mut obs: Observables = vec![
            ("total.nanos".into(), res.total_time.as_nanos()),
            ("jobs".into(), res.jobs.len() as u64),
            ("replanned".into(), res.replanned as u64),
            (
                "output.fingerprint".into(),
                file_fingerprint(rt.dfs, "log.topk"),
            ),
        ];
        for (i, job) in res.jobs.iter().enumerate() {
            obs.push((
                format!("job{i}.counters.fingerprint"),
                counter_fingerprint(job),
            ));
            obs.push((format!("job{i}.shuffle.bytes"), job.shuffle_bytes));
        }
        let bytes = fs::read(&out_path).expect("saved store readable");
        (obs, bytes)
    };

    let (obs_a, store_a) = warm_pass("identity-a.store");
    let (obs_b, store_b) = warm_pass("identity-b.store");
    assert_eq!(obs_a, obs_b, "warm-run observables must be bit-identical");
    assert_eq!(
        store_a, store_b,
        "re-saved store files must be byte-identical"
    );
    assert!(!store_a.is_empty(), "store file must not be empty");
    assert!(
        store_a.starts_with(b"efind-statstore v1 crc="),
        "store header format"
    );
}
