//! Deterministic end-to-end data-integrity suite.
//!
//! A [`CorruptionPlan`] flips bytes in DFS chunk replicas, shuffle
//! payloads, lookup-cache entries, and index responses as a pure function
//! of its seed; CRC-32 verification at every read boundary detects each
//! flip and takes the repair path (alternate replica, refetch,
//! invalidation, re-transfer). These tests pin the contract end to end:
//!
//! * Per `(seed, rate, strategy)` cell, two complete runs agree on every
//!   virtual observable — or fail with the *same* fail-fast error. A
//!   corrupted run is never a wrong answer and never a hang.
//! * The zero-corruption cell matches the `tests/hotpath_golden.rs`
//!   constants exactly — a quiet plan is byte-for-byte the plain path.
//! * Chunk corruption under replication 3 changes neither the output nor
//!   any non-ledger counter, only virtual time (wasted fetches, repair).
//! * When every replica of a chunk is corrupt the job fails fast with
//!   [`Error::DataCorruption`] naming the file, chunk, and replica set.
//! * Corruption composes with node crashes and index faults: one job
//!   carrying all three plans still produces the clean answer,
//!   bit-identically across reruns.
//!
//! The seed matrix is pinned but overridable: set `EFIND_CORRUPT_SEEDS`
//! to a comma-separated list of integers (decimal or 0x-hex) to sweep
//! other seeds, as `scripts/ci.sh` does.

mod common;

use common::{
    counter_fingerprint, file_fingerprint, golden_config, multi_index_goldens, obs, seeds_from_env,
    Observables,
};
use efind::{EFindRuntime, FaultConfig, FaultPlan, Mode, RetryPolicy, Strategy};
use efind_cluster::{ChaosPlan, CorruptionPlan, SimDuration, SimTime};
use efind_common::{fx_hash_bytes, Error};
use efind_mapreduce::JobStats;
use efind_workloads::multi::{self, MultiConfig};

/// Counter fingerprint with every integrity counter stripped — the
/// job-level `mr.integrity.*` ledger mirror and the per-operator
/// `efind.<op>.<j>.integrity.*` detection counters. Everything else must
/// be bit-identical between a clean run and a repaired one.
fn invariant_counter_fingerprint(stats: &JobStats) -> u64 {
    use std::fmt::Write as _;
    let mut text = String::new();
    for (k, v) in stats.counters.iter_sorted() {
        if k.starts_with("mr.integrity.") || k.contains(".integrity.") {
            continue;
        }
        let _ = writeln!(text, "{k}={v}");
    }
    fx_hash_bytes(text.as_bytes())
}

/// The pinned seed matrix, overridable via `EFIND_CORRUPT_SEEDS`.
fn corrupt_seeds() -> Vec<u64> {
    seeds_from_env("EFIND_CORRUPT_SEEDS", &[0xEF1D_0004, 0xC0FF_EE01])
}

/// Runs the multi-index workload under one strategy and corruption plan.
/// `Ok` carries every virtual observable; `Err` carries the fail-fast
/// error text (the legitimate outcome when a plan kills every replica of
/// some chunk — by contract the only alternative to the clean answer).
fn run_multi_corrupt(
    config: &MultiConfig,
    strategy: Strategy,
    plan: CorruptionPlan,
) -> Result<Observables, String> {
    let mut s = multi::scenario(config);
    s.efind_config.corruption = plan;
    let mut rt = EFindRuntime::with_config(&s.cluster, &mut s.dfs, s.efind_config.clone());
    let res = match rt.run(&s.ijob, Mode::Uniform(strategy)) {
        Ok(res) => res,
        Err(err) => return Err(err.to_string()),
    };
    let mut captured: Observables = vec![
        obs("total.nanos", res.total_time.as_nanos()),
        obs("jobs", res.jobs.len() as u64),
    ];
    for (i, job) in res.jobs.iter().enumerate() {
        captured.push(obs(
            format!("job{i}.makespan.nanos"),
            job.makespan().as_nanos(),
        ));
        captured.push(obs(format!("job{i}.shuffle.bytes"), job.shuffle_bytes));
        captured.push(obs(
            format!("job{i}.counters.fingerprint"),
            counter_fingerprint(job),
        ));
        captured.push(obs(
            format!("job{i}.counters.invariant.fingerprint"),
            invariant_counter_fingerprint(job),
        ));
        let integ = &job.integrity;
        captured.push(obs(
            format!("job{i}.integrity.corrupt.chunks"),
            integ.corrupt_chunks.len() as u64,
        ));
        captured.push(obs(
            format!("job{i}.integrity.rereads"),
            integ.chunk_rereads,
        ));
        captured.push(obs(
            format!("job{i}.integrity.shuffle.refetches"),
            integ.shuffle_refetches,
        ));
        captured.push(obs(
            format!("job{i}.integrity.cache.invalidations"),
            integ.cache_invalidations,
        ));
        captured.push(obs(
            format!("job{i}.integrity.lookup.refetches"),
            integ.lookup_refetches,
        ));
        captured.push(obs(
            format!("job{i}.integrity.repaired.chunks"),
            integ.repaired_chunks as u64,
        ));
    }
    captured.push(obs("output.records", res.output.total_records() as u64));
    captured.push(obs(
        "output.fingerprint",
        file_fingerprint(&s.dfs, "ads.enriched"),
    ));
    Ok(captured)
}

/// A smaller configuration for the corruption sweep cells (repairs
/// multiply virtual work; the sweep covers many cells).
fn sweep_config() -> MultiConfig {
    MultiConfig {
        num_events: 1_200,
        num_users: 120,
        num_ads: 200,
        num_sites: 60,
        site_value_bytes: 128,
        chunks: 12,
        ..MultiConfig::default()
    }
}

const STRATEGIES: [Strategy; 4] = [
    Strategy::Baseline,
    Strategy::Cache,
    Strategy::Repartition,
    Strategy::IndexLocality,
];

/// The projection of an observable vector onto the job output.
fn output_of(o: &Observables) -> Observables {
    o.iter()
        .filter(|(k, _)| k.starts_with("output."))
        .cloned()
        .collect()
}

/// The headline sweep: per `(seed, rate, strategy)` cell, two complete
/// runs agree on every virtual observable — or fail identically with the
/// fail-fast corruption error. Every successful cell produces the exact
/// clean output and never finishes earlier than the clean run (repair
/// only ever costs virtual time).
#[test]
fn corrupted_runs_are_bit_identical_and_output_preserving() {
    let config = sweep_config();
    let clean: Vec<Observables> = STRATEGIES
        .iter()
        .map(|&s| {
            run_multi_corrupt(&config, s, CorruptionPlan::none()).expect("clean run must succeed")
        })
        .collect();
    let mut events_seen = 0u64;
    for seed in corrupt_seeds() {
        for rate in [0.05f64, 0.15] {
            // Every surface armed at once; the chunk rate is halved so a
            // cell losing all three replicas of a chunk stays rare (and a
            // cell that does lose them is asserted to fail fast, not to
            // hang or answer wrong).
            let plan = CorruptionPlan::new(seed)
                .chunks(rate * 0.5)
                .shuffle(rate)
                .cache(rate)
                .responses(rate);
            for (si, &strategy) in STRATEGIES.iter().enumerate() {
                let first = run_multi_corrupt(&config, strategy, plan.clone());
                let second = run_multi_corrupt(&config, strategy, plan.clone());
                assert_eq!(
                    first, second,
                    "nondeterminism: seed={seed:#x} rate={rate} strategy={strategy:?}"
                );
                match first {
                    Ok(observed) => {
                        assert_eq!(
                            output_of(&observed),
                            output_of(&clean[si]),
                            "output changed: seed={seed:#x} rate={rate} strategy={strategy:?}"
                        );
                        // Detection and repair can only cost virtual
                        // time, never win it.
                        assert!(
                            observed[0].1 >= clean[si][0].1,
                            "corrupted run finished early: seed={seed:#x} rate={rate} \
                             strategy={strategy:?}"
                        );
                        events_seen += observed
                            .iter()
                            .filter(|(k, _)| k.contains(".integrity."))
                            .map(|(_, v)| *v)
                            .sum::<u64>();
                    }
                    Err(msg) => {
                        assert!(
                            msg.contains("chunk") && msg.contains("checksum"),
                            "unexpected failure: seed={seed:#x} rate={rate} \
                             strategy={strategy:?}: {msg}"
                        );
                    }
                }
            }
        }
    }
    // The matrix must actually exercise the integrity machinery: planned
    // corruption lands inside the jobs, not past them.
    assert!(
        events_seen > 0,
        "no corruption event registered in any sweep cell"
    );
}

/// The zero-corruption cell matches the `hotpath_golden.rs` constants
/// exactly: a quiet plan — `none()` or seeded with zero rates — does not
/// move a single bit of any observable, even with verification armed.
#[test]
fn zero_corruption_cells_match_hotpath_goldens() {
    for (strategy, expected) in multi_index_goldens() {
        for (label, plan) in [
            ("none", CorruptionPlan::none()),
            // A *seeded but quiet* plan: checksum machinery consulted at
            // every boundary, yet nothing may change.
            ("zero-rate", CorruptionPlan::new(7)),
        ] {
            let captured = run_multi_corrupt(&golden_config(), strategy, plan)
                .expect("quiet plan must never fail");
            let kept: Observables = captured
                .into_iter()
                .filter(|(k, _)| expected.iter().any(|(e, _)| e == k))
                .collect();
            assert_eq!(kept, expected, "strategy {strategy:?}, plan {label}");
        }
    }
}

/// Chunk corruption under replication 3 is fully transparent to the job:
/// the output and every non-integrity counter are bit-identical to the
/// clean run under all four strategies — only virtual time and the
/// `mr.integrity.*` ledger move.
#[test]
fn chunk_corruption_at_replication_3_preserves_output_and_counters() {
    let config = sweep_config();
    let clean: Vec<Observables> = STRATEGIES
        .iter()
        .map(|&s| {
            run_multi_corrupt(&config, s, CorruptionPlan::none()).expect("clean run must succeed")
        })
        .collect();
    // Candidate chunk-only plans pre-screened against the *input* file:
    // at least one replica corrupt, never a whole chunk. Intermediate
    // files (Repartition stages) draw independently, so a candidate that
    // happens to kill an intermediate chunk fails fast with the
    // corruption error and the deterministic scan moves to the next seed
    // — the recoverable regime replication exists for.
    let s0 = multi::scenario(&config);
    let meta = s0.dfs.stat("ads.events").unwrap();
    let candidates = (0..5_000u64)
        .map(|seed| CorruptionPlan::new(seed).chunks(0.2))
        .filter(|plan| {
            let mut any = false;
            for c in &meta.chunks {
                let bad = c
                    .hosts
                    .iter()
                    .filter(|h| plan.chunk_replica_corrupt("ads.events", c.index, **h))
                    .count();
                if bad == c.hosts.len() {
                    return false;
                }
                any |= bad > 0;
            }
            any
        })
        .take(20);
    'candidate: for plan in candidates {
        let mut cells: Vec<(Strategy, Observables)> = Vec::new();
        for &strategy in &STRATEGIES {
            match run_multi_corrupt(&config, strategy, plan.clone()) {
                Ok(hit) => cells.push((strategy, hit)),
                // An intermediate chunk lost all its replicas under this
                // seed: a correct fail-fast, but not the recoverable
                // regime this test pins. Next candidate.
                Err(_) => continue 'candidate,
            }
        }
        let mut rereads_seen = 0u64;
        for ((strategy, hit), clean) in cells.into_iter().zip(&clean) {
            assert_eq!(
                output_of(&hit),
                output_of(clean),
                "output changed under {strategy:?}"
            );
            let invariant = |o: &Observables| {
                o.iter()
                    .filter(|(k, _)| k.ends_with(".counters.invariant.fingerprint"))
                    .cloned()
                    .collect::<Vec<_>>()
            };
            assert_eq!(
                invariant(&hit),
                invariant(clean),
                "a non-integrity counter moved under {strategy:?}"
            );
            assert!(
                hit[0].1 >= clean[0].1,
                "repair made the run faster under {strategy:?}"
            );
            rereads_seen += hit
                .iter()
                .filter(|(k, _)| k.ends_with(".integrity.rereads"))
                .map(|(_, v)| *v)
                .sum::<u64>();
        }
        assert!(
            rereads_seen > 0,
            "the plan corrupted nothing any strategy read"
        );
        return;
    }
    panic!("no candidate seed was recoverable under every strategy");
}

/// Corrupting every replica of the input is a diagnosable
/// `DataCorruption` error naming the file, the chunk, and the replica
/// set — not a hang, not a retry loop, not a wrong answer.
#[test]
fn total_corruption_fails_fast_naming_file_and_chunk() {
    let config = sweep_config();
    let mut s = multi::scenario(&config);
    s.efind_config.corruption = CorruptionPlan::new(1).chunks(1.0);
    let mut rt = EFindRuntime::with_config(&s.cluster, &mut s.dfs, s.efind_config.clone());
    let err = rt
        .run(&s.ijob, Mode::Uniform(Strategy::Baseline))
        .unwrap_err();
    match err {
        Error::DataCorruption(msg) => {
            assert!(
                msg.contains("ads.events"),
                "error must name the file: {msg}"
            );
            assert!(msg.contains("chunk"), "error must name the chunk: {msg}");
            assert!(
                msg.contains("replica"),
                "error must describe the replica set: {msg}"
            );
        }
        other => panic!("expected DataCorruption, got {other:?}"),
    }
}

/// Prints the EXPERIMENTS.md E16 "replica repair cost" table: the
/// lookup-heavy synthetic join with chunk corruption dialed so the worst
/// chunk loses 0, 1, or 2 of its 3 replicas. Run with
/// `cargo test --release --test integrity -- --ignored --nocapture fig_integrity`.
#[test]
#[ignore = "table generator, run with --ignored --nocapture"]
fn fig_integrity_repair_table() {
    use efind_workloads::synthetic::{self, SyntheticConfig};
    let config = SyntheticConfig {
        num_records: 24_000,
        key_space: 2_400,
        record_pad: 16,
        index_value_size: 64,
        chunks: 48,
        ..SyntheticConfig::default()
    };
    // A plan whose worst input chunk has exactly `k` corrupt replicas
    // (and at least one chunk reaches `k`), found by scanning seeds.
    let plan_for = |k: usize| -> CorruptionPlan {
        if k == 0 {
            return CorruptionPlan::none();
        }
        let s = synthetic::scenario(&config);
        let meta = s.dfs.stat("syn.input").unwrap();
        let rate = 0.15 * k as f64;
        (0..10_000u64)
            .map(|seed| CorruptionPlan::new(seed).chunks(rate))
            .find(|plan| {
                let counts: Vec<usize> = meta
                    .chunks
                    .iter()
                    .map(|c| {
                        c.hosts
                            .iter()
                            .filter(|h| plan.chunk_replica_corrupt("syn.input", c.index, **h))
                            .count()
                    })
                    .collect();
                counts.iter().max() == Some(&k)
            })
            .expect("no seed reaches the target replica loss")
    };
    println!("| worst-chunk replicas corrupt | total (virtual) | corrupt chunks | wasted rereads | reread time | replicas quarantined | chunks repaired | repair time |");
    println!("|---|---|---|---|---|---|---|---|");
    for k in [0usize, 1, 2] {
        let mut s = synthetic::scenario(&config);
        s.efind_config.corruption = plan_for(k);
        let mut rt = EFindRuntime::with_config(&s.cluster, &mut s.dfs, s.efind_config.clone());
        let res = rt.run(&s.ijob, Mode::Uniform(Strategy::Cache)).unwrap();
        let sum = |f: fn(&JobStats) -> u64| res.jobs.iter().map(f).sum::<u64>();
        println!(
            "| {} | {} | {} | {} | {} | {} | {} | {} |",
            k,
            res.total_time,
            sum(|j| j.integrity.corrupt_chunks.len() as u64),
            sum(|j| j.integrity.chunk_rereads),
            res.jobs
                .iter()
                .map(|j| j.integrity.reread_time)
                .fold(SimDuration::ZERO, |a, b| a + b),
            sum(|j| j.integrity.quarantined_replicas as u64),
            sum(|j| j.integrity.repaired_chunks as u64),
            res.jobs
                .iter()
                .map(|j| j.integrity.repair_time)
                .fold(SimDuration::ZERO, |a, b| a + b),
        );
    }
}

/// The combined-chaos cell: one job carrying a corruption plan, a node
/// crash, and transient index faults at once. The answer still matches
/// the clean run bit for bit, two runs at the same seeds are identical,
/// and both the recovery and integrity machinery register work.
#[test]
fn combined_corruption_crash_and_faults_preserve_the_answer() {
    let config = sweep_config();
    let clean = run_multi_corrupt(&config, Strategy::Cache, CorruptionPlan::none())
        .expect("clean run must succeed");
    let total = clean[0].1;
    let num_nodes = multi::scenario(&config).cluster.num_nodes();
    let run = || {
        let mut s = multi::scenario(&config);
        s.efind_config.corruption = CorruptionPlan::new(0xC0DE)
            .chunks(0.05)
            .shuffle(0.3)
            .cache(0.2)
            .responses(0.1);
        s.efind_config.chaos = ChaosPlan::seeded(
            0xEF1D_0004,
            num_nodes,
            1,
            SimTime::from_nanos(total / 8),
            SimDuration::from_nanos(total / 2),
        );
        let mut faults = FaultConfig::disabled().with_plan(
            FaultPlan::new(0xFA17)
                .failures(0.06)
                .timeouts(0.02)
                .slowdowns(0.02, 4.0),
        );
        faults.retry = RetryPolicy::bounded(
            16,
            SimDuration::from_micros(50),
            SimDuration::from_millis(5),
        );
        faults.timeout = Some(SimDuration::from_millis(50));
        s.efind_config.faults = faults;
        let mut rt = EFindRuntime::with_config(&s.cluster, &mut s.dfs, s.efind_config.clone());
        let res = rt.run(&s.ijob, Mode::Uniform(Strategy::Cache)).unwrap();
        let crashes: u64 = res
            .jobs
            .iter()
            .map(|j| j.recovery.crashes.len() as u64)
            .sum();
        let integrity: u64 = res
            .jobs
            .iter()
            .map(|j| {
                j.integrity.chunk_rereads
                    + j.integrity.shuffle_refetches
                    + j.integrity.cache_invalidations
                    + j.integrity.lookup_refetches
            })
            .sum();
        let records = res.output.total_records() as u64;
        let fp = file_fingerprint(&s.dfs, "ads.enriched");
        (res.total_time.as_nanos(), crashes, integrity, records, fp)
    };
    let (nanos, crashes, integrity, records, fp) = run();
    let clean_output = output_of(&clean);
    assert_eq!(
        vec![
            obs("output.records", records),
            obs("output.fingerprint", fp)
        ],
        clean_output,
        "combined chaos changed the answer"
    );
    assert!(nanos >= total, "combined chaos finished early");
    assert!(crashes > 0, "the planned crash never landed");
    assert!(integrity > 0, "the corruption plan never fired");
    let second = run();
    assert_eq!(
        (nanos, crashes, integrity, records, fp),
        second,
        "combined-chaos run is nondeterministic"
    );
}
