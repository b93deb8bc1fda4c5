//! End-to-end gray-failure suite at the `EFindConfig` level.
//!
//! The runner-level mechanics (suspicion, re-placement, rejoin, fail-fast)
//! are pinned in `crates/mapreduce/src/runner.rs::partition_tests`; this
//! suite pins the *configuration surface*: a partition plan, detector, and
//! hedge threshold installed on [`EFindConfig`] flow through compilation
//! into every job of the pipeline, and
//!
//! * configured-but-quiet partition and hedge layers are byte-identical
//!   to the plain runner (the quiet-path guarantee of PR 7, extended to
//!   the two new layers);
//! * hedged lookups race backups and *win time, never bytes* — the output
//!   fingerprint is bit-identical to the unhedged run (§3.2 idempotence);
//! * a partition healing mid-job completes bit-identically to the
//!   unpartitioned run, leaving only `mr.partition.*` counters behind;
//! * the full gray stack (partition + hedge + chaos) replays
//!   bit-identically across runs.
//!
//! The seed matrix is pinned but overridable: set `EFIND_NETSPLIT_SEEDS`
//! to a comma-separated list of integers (decimal or 0x-hex), as
//! `scripts/ci.sh` does.

mod common;

use common::{counter_fingerprint, file_fingerprint, obs, seeds_from_env, Observables};
use efind::{EFindConfig, EFindRuntime, HedgeConfig, HedgePolicy, Mode, Strategy};
use efind_cluster::{ChaosPlan, DetectorConfig, NodeId, PartitionPlan, SimDuration, SimTime};
use efind_workloads::multi::{self, MultiConfig};

/// The pinned seed matrix, overridable via `EFIND_NETSPLIT_SEEDS`.
fn netsplit_seeds() -> Vec<u64> {
    seeds_from_env("EFIND_NETSPLIT_SEEDS", &[0xEF1D_0010, 0x5EED_5EED])
}

/// A small multi-index workload: three indices, every strategy viable.
fn small_config() -> MultiConfig {
    MultiConfig {
        num_events: 600,
        num_users: 60,
        num_ads: 100,
        num_sites: 40,
        site_value_bytes: 64,
        chunks: 8,
        ..MultiConfig::default()
    }
}

/// Runs the workload under one strategy with `mutate` applied to the
/// scenario's [`EFindConfig`], capturing every virtual observable plus
/// the summed `hedge.fired` and `mr.partition.*`-presence facts.
fn run_with(strategy: Strategy, mutate: impl FnOnce(&mut EFindConfig)) -> (Observables, u64, bool) {
    let (captured, hedges_fired, partition_counters, _) =
        run_mode_with(Mode::Uniform(strategy), mutate);
    (captured, hedges_fired, partition_counters)
}

/// [`run_with`] under any mode; the extra fact is whether some job's
/// `PartitionLog` recorded anything.
fn run_mode_with(
    mode: Mode,
    mutate: impl FnOnce(&mut EFindConfig),
) -> (Observables, u64, bool, bool) {
    let mut s = multi::scenario(&small_config());
    mutate(&mut s.efind_config);
    let mut rt = EFindRuntime::with_config(&s.cluster, &mut s.dfs, s.efind_config.clone());
    let res = rt.run(&s.ijob, mode).unwrap();
    let mut captured: Observables = vec![
        obs("total.nanos", res.total_time.as_nanos()),
        obs("jobs", res.jobs.len() as u64),
    ];
    let mut hedges_fired = 0u64;
    let mut partition_counters = false;
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
        for (name, v) in job.counters.iter_sorted() {
            if name.ends_with(".hedge.fired") {
                hedges_fired += v as u64;
            }
            if name.starts_with("mr.partition.") && v != 0 {
                partition_counters = true;
            }
        }
    }
    captured.push(obs("output.records", res.output.total_records() as u64));
    captured.push(obs(
        "output.fingerprint",
        file_fingerprint(&s.dfs, "ads.enriched"),
    ));
    let partition_ledger = res.jobs.iter().any(|j| !j.partition.is_empty());
    (captured, hedges_fired, partition_counters, partition_ledger)
}

/// Only the output rows of an observable vector.
fn output_of(observables: &Observables) -> Vec<(String, u64)> {
    observables
        .iter()
        .filter(|(k, _)| k.starts_with("output."))
        .cloned()
        .collect()
}

/// A transient single-node cut plus a slow link, both healing inside the
/// job window, drawn from `seed`.
fn transient_split(seed: u64) -> PartitionPlan {
    let node = NodeId((seed % 12) as u16);
    let other = NodeId(((seed % 12) as u16 + 1) % 12);
    PartitionPlan::new(seed)
        .split(
            &[node],
            SimTime::from_nanos(1_000),
            Some(SimTime::from_nanos(50_000_000)),
        )
        .slow_link(
            other,
            SimTime::ZERO,
            Some(SimTime::from_nanos(80_000_000)),
            3.0,
        )
}

/// Configured-but-quiet partition and hedge layers take byte-for-byte the
/// plain path: a seeded-but-empty plan, an explicit detector, and a
/// disabled hedge change no virtual observable under any strategy.
#[test]
fn quiet_partition_and_hedge_config_matches_plain_exactly() {
    for strategy in [Strategy::Baseline, Strategy::Cache, Strategy::Repartition] {
        let (plain, _, _) = run_with(strategy, |_| {});
        let (quiet, fired, partitioned) = run_with(strategy, |cfg| {
            cfg.netsplit = PartitionPlan::new(0xD0_0D); // seeded, no events
            cfg.detector = DetectorConfig::default();
            cfg.hedge = HedgeConfig::disabled();
        });
        assert_eq!(fired, 0);
        assert!(!partitioned);
        assert_eq!(quiet, plain, "quiet layers perturbed {strategy:?}");
    }
}

/// Hedged lookups win time, never bytes: with a hair-trigger threshold
/// every remote lookup hedges, the `hedge.*` counters record the races,
/// and the output fingerprint is bit-identical to the unhedged run —
/// under both charging policies, deterministically across runs.
#[test]
fn hedging_changes_charged_time_but_never_output() {
    for seed in netsplit_seeds() {
        let (plain, _, _) = run_with(Strategy::Baseline, |_| {});
        for policy in [HedgePolicy::ChargeWinner, HedgePolicy::ChargeBoth] {
            let hedge = |cfg: &mut EFindConfig| {
                cfg.hedge = HedgeConfig {
                    seed,
                    threshold: Some(SimDuration::from_nanos(1)),
                    policy,
                };
            };
            let (hedged, fired, _) = run_with(Strategy::Baseline, hedge);
            assert!(fired > 0, "seed {seed:#x}: no hedge fired");
            assert_eq!(
                output_of(&hedged),
                output_of(&plain),
                "seed {seed:#x} {policy:?}: hedging moved the output"
            );
            let (again, fired_again, _) = run_with(Strategy::Baseline, hedge);
            assert_eq!(hedged, again, "seed {seed:#x} {policy:?}: nondeterministic");
            assert_eq!(fired, fired_again);
        }
    }
}

/// A partition healing mid-job completes bit-identically to the
/// unpartitioned run: only timing and the `mr.partition.*` ledger move,
/// never the output.
#[test]
fn partition_healing_mid_job_completes_bit_identically() {
    for seed in netsplit_seeds() {
        let (plain, _, _) = run_with(Strategy::Cache, |_| {});
        let split = |cfg: &mut EFindConfig| {
            cfg.netsplit = transient_split(seed);
        };
        let (cut, _, partitioned) = run_with(Strategy::Cache, split);
        assert!(partitioned, "seed {seed:#x}: the cut left no trace");
        assert_eq!(
            output_of(&cut),
            output_of(&plain),
            "seed {seed:#x}: the partition moved the output"
        );
        let (again, _, _) = run_with(Strategy::Cache, split);
        assert_eq!(cut, again, "seed {seed:#x}: nondeterministic replay");
    }
}

/// A cold `Mode::Dynamic` run sees the partition layer exactly as a
/// `Uniform` run does: every adaptive sub-step runs on the runtime's one
/// runner, so the cut lands in the ledger and the `mr.partition.*`
/// counters, the answer equals the unpartitioned `Dynamic` run's, and the
/// run replays bit-identically.
#[test]
fn cold_dynamic_run_records_the_partition_and_keeps_the_answer() {
    for seed in netsplit_seeds() {
        let (plain, _, plain_counters, plain_ledger) = run_mode_with(Mode::Dynamic, |_| {});
        assert!(!plain_counters && !plain_ledger);
        let split = |cfg: &mut EFindConfig| {
            cfg.netsplit = transient_split(seed);
        };
        let (cut, _, counters, ledger) = run_mode_with(Mode::Dynamic, split);
        assert!(ledger, "seed {seed:#x}: the cut left an empty PartitionLog");
        assert!(counters, "seed {seed:#x}: no mr.partition.* counter");
        assert_eq!(
            output_of(&cut),
            output_of(&plain),
            "seed {seed:#x}: the partition moved the Dynamic output"
        );
        let (again, _, _, _) = run_mode_with(Mode::Dynamic, split);
        assert_eq!(cut, again, "seed {seed:#x}: nondeterministic replay");
    }
}

/// Tentpole acceptance: the full gray stack — an armed partition plan,
/// hedged lookups, and a chaos node kill in one run — replays
/// bit-identically, and the output still matches the failure-free run.
#[test]
fn armed_partition_hedge_and_chaos_replay_bit_identically() {
    for seed in netsplit_seeds() {
        let (plain, _, _) = run_with(Strategy::Cache, |_| {});
        let gray = |cfg: &mut EFindConfig| {
            cfg.netsplit = transient_split(seed);
            cfg.hedge = HedgeConfig {
                seed,
                threshold: Some(SimDuration::from_micros(1)),
                policy: HedgePolicy::ChargeBoth,
            };
            // Kill a node far from the partitioned pair, late enough that
            // replicas and recompute keep the run survivable.
            cfg.chaos = ChaosPlan::new(seed).kill(
                NodeId(((seed % 12) as u16 + 6) % 12),
                SimTime::from_nanos(40_000_000),
            );
        };
        let (a, _, _) = run_with(Strategy::Cache, gray);
        let (b, _, _) = run_with(Strategy::Cache, gray);
        assert_eq!(a, b, "seed {seed:#x}: gray stack replay diverged");
        assert_eq!(
            output_of(&a),
            output_of(&plain),
            "seed {seed:#x}: gray failures moved the output"
        );
    }
}
