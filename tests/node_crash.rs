//! Deterministic node-crash recovery suite.
//!
//! A [`ChaosPlan`] kills worker nodes at planned points of the *virtual*
//! clock, mid-job: completed map outputs on the dead node are recomputed
//! on survivors, reducers retry their shuffle fetches with backoff, the
//! DFS re-replicates under-replicated chunks in the background, and the
//! adaptive optimizer's mid-job re-plan reuses exactly the first-wave
//! results that survived. These tests pin the contract end to end:
//!
//! * Per `(seed, crash count, strategy)` cell, two complete runs produce
//!   bit-identical virtual observables (total time, per-job makespans,
//!   shuffle bytes, counter maps, output files).
//! * The zero-crash cell matches the `tests/hotpath_golden.rs` constants
//!   exactly — a quiet chaos plan is byte-for-byte the plain path.
//! * One or two crashes under replication ≥ 2 never change the job
//!   *output*, only its makespan and recovery counters.
//! * Losing the sole replica of an input chunk (replication = 1) is a
//!   diagnosable `DataLoss` error, not a hang.
//! * A crash that lands during an adaptive re-plan loses exactly the dead
//!   node's first-wave results; the ledger proves only survivors were
//!   reused and the re-mapped splits restore the full output.
//!
//! The seed matrix is pinned but overridable: set `EFIND_CRASH_SEEDS` to
//! a comma-separated list of integers (decimal or 0x-hex) to sweep other
//! seeds, as `scripts/ci.sh` does.

mod common;

use common::{
    counter_fingerprint, file_fingerprint, golden_config, multi_index_goldens, obs, seeds_from_env,
    Observables,
};
use efind::{EFindRuntime, Mode, Strategy};
use efind_cluster::{ChaosPlan, SimDuration, SimTime};
use efind_dfs::Dfs;
use efind_mapreduce::JobStats;
use efind_workloads::multi::{self, MultiConfig};

/// The pinned seed matrix, overridable via `EFIND_CRASH_SEEDS`.
fn crash_seeds() -> Vec<u64> {
    seeds_from_env("EFIND_CRASH_SEEDS", &[0xEF1D_0003, 0xDEAD_BEE5])
}

/// Runs the multi-index workload under one strategy and chaos plan,
/// capturing every virtual observable.
fn run_multi_chaos(config: &MultiConfig, strategy: Strategy, chaos: ChaosPlan) -> Observables {
    let mut s = multi::scenario(config);
    s.efind_config.chaos = chaos;
    let mut rt = EFindRuntime::with_config(&s.cluster, &mut s.dfs, s.efind_config.clone());
    let res = rt.run(&s.ijob, Mode::Uniform(strategy)).unwrap();
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
            format!("job{i}.recovery.crashes"),
            job.recovery.crashes.len() as u64,
        ));
        captured.push(obs(
            format!("job{i}.recovery.recomputed"),
            job.recovery.recomputed_map_tasks.len() as u64,
        ));
    }
    captured.push(obs("output.records", res.output.total_records() as u64));
    captured.push(obs(
        "output.fingerprint",
        file_fingerprint(&s.dfs, "ads.enriched"),
    ));
    captured
}

/// A smaller configuration for the crash sweep cells (recompute waves
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

/// A seeded chaos plan whose crash window sits inside `total_nanos` of
/// virtual job time: deaths start an eighth of the way in and spread over
/// the next half of the run.
fn chaos_in_window(seed: u64, num_nodes: u16, crashes: usize, total_nanos: u64) -> ChaosPlan {
    ChaosPlan::seeded(
        seed,
        num_nodes,
        crashes,
        SimTime::from_nanos(total_nanos / 8),
        SimDuration::from_nanos(total_nanos / 2),
    )
}

/// The headline sweep: per `(seed, crash count, strategy)` cell, two
/// complete runs agree on every virtual observable, recovery only ever
/// *adds* virtual time, and — with replication 3 — the job output stays
/// bit-identical to the crash-free run.
#[test]
fn crashed_runs_are_bit_identical_and_output_preserving() {
    let config = sweep_config();
    let crash_free: Vec<Observables> = STRATEGIES
        .iter()
        .map(|&s| run_multi_chaos(&config, s, ChaosPlan::none()))
        .collect();
    let num_nodes = multi::scenario(&config).cluster.num_nodes();
    let mut crashes_seen = 0u64;
    for seed in crash_seeds() {
        for crashes in [1usize, 2] {
            for (si, &strategy) in STRATEGIES.iter().enumerate() {
                let total = crash_free[si][0].1;
                let plan = chaos_in_window(seed, num_nodes, crashes, total);
                let first = run_multi_chaos(&config, strategy, plan.clone());
                let second = run_multi_chaos(&config, strategy, plan);
                assert_eq!(
                    first, second,
                    "nondeterminism: seed={seed:#x} crashes={crashes} strategy={strategy:?}"
                );
                let output = |o: &Observables| {
                    o.iter()
                        .filter(|(k, _)| k.starts_with("output."))
                        .cloned()
                        .collect::<Vec<_>>()
                };
                assert_eq!(
                    output(&first),
                    output(&crash_free[si]),
                    "output changed: seed={seed:#x} crashes={crashes} strategy={strategy:?}"
                );
                // Recovery can only cost virtual time, never win it.
                assert!(
                    first[0].1 >= crash_free[si][0].1,
                    "crashed run finished early: seed={seed:#x} crashes={crashes} \
                     strategy={strategy:?}"
                );
                crashes_seen += first
                    .iter()
                    .filter(|(k, _)| k.ends_with(".recovery.crashes"))
                    .map(|(_, v)| *v)
                    .sum::<u64>();
            }
        }
    }
    // The matrix must actually exercise the recovery machinery: planned
    // deaths land inside the job windows, not past them.
    assert!(
        crashes_seen > 0,
        "no chaos event registered in any sweep cell"
    );
}

/// The zero-crash cell matches the `hotpath_golden.rs` constants exactly:
/// a quiet plan — `none()` or seeded with zero crashes — does not move a
/// single bit of any observable.
#[test]
fn zero_crash_cells_match_hotpath_goldens() {
    let num_nodes = multi::scenario(&golden_config()).cluster.num_nodes();
    for (strategy, expected) in multi_index_goldens() {
        for (label, chaos) in [
            ("none", ChaosPlan::none()),
            // A *seeded but empty* plan: the chaos machinery is armed in
            // every schedule and every finish, yet nothing may change.
            (
                "zero-crash",
                ChaosPlan::seeded(
                    7,
                    num_nodes,
                    0,
                    SimTime::ZERO,
                    SimDuration::from_millis(100),
                ),
            ),
        ] {
            let captured = run_multi_chaos(&golden_config(), strategy, chaos);
            let kept: Observables = captured
                .into_iter()
                .filter(|(k, _)| expected.iter().any(|(e, _)| e == k))
                .collect();
            assert_eq!(kept, expected, "strategy {strategy:?}, chaos {label}");
        }
    }
}

/// Replication 1 + the sole replica of an input chunk dying with its node
/// = a diagnosable `DataLoss` error naming the file, not a hang and not a
/// silently truncated output.
#[test]
fn sole_replica_loss_is_a_diagnosable_error() {
    use efind_cluster::Cluster;
    use efind_common::{Error, Record};
    use efind_dfs::DfsConfig;
    use efind_mapreduce::{mapper_fn, reducer_fn, JobConf, Runner};

    let cluster = Cluster::builder()
        .nodes(4)
        .map_slots(2)
        .reduce_slots(2)
        .build();
    let mut dfs = Dfs::new(
        cluster.clone(),
        DfsConfig {
            chunk_size_bytes: 512,
            replication: 1,
            seed: 21,
        },
    );
    let records: Vec<Record> = (0..400i64).map(|i| Record::new(i, i % 7)).collect();
    dfs.write_file("events", records);

    // Kill the single host of chunk 0 before anything can run.
    let victim = dfs.stat("events").unwrap().chunks[0].hosts[0];
    let plan = ChaosPlan::new(13).kill(victim, SimTime::ZERO);

    let conf = JobConf::new("groupby", "events", "grouped")
        .add_mapper(mapper_fn(|rec, out, _| {
            out.collect(Record::new(rec.value.clone(), 1i64));
        }))
        .with_reducer(
            reducer_fn(|key, values, out, _| {
                out.collect(Record::new(key, values.len() as i64));
            }),
            3,
        );
    let err = Runner::with_chaos(&cluster, &mut dfs, plan)
        .run(&conf, SimTime::ZERO)
        .unwrap_err();
    match err {
        Error::DataLoss(msg) => {
            assert!(msg.contains("events"), "error must name the file: {msg}");
            assert!(
                msg.contains("replica"),
                "error must explain the loss: {msg}"
            );
        }
        other => panic!("expected DataLoss, got {other:?}"),
    }
}

/// Prints the EXPERIMENTS.md "adaptive re-plan under node crashes" table
/// (Figs. 8–10 with 0/1/2 deaths): run with
/// `cargo test --release --test node_crash -- --ignored --nocapture fig_adaptive`.
#[test]
#[ignore = "table generator, run with --ignored --nocapture"]
fn fig_adaptive_reuse_under_crashes_table() {
    use efind_workloads::log::{self, LogConfig};
    let config = LogConfig {
        num_events: 8_000,
        num_ips: 300,
        num_urls: 100,
        chunks: 240,
        extra_delay: SimDuration::from_millis(5),
        ..LogConfig::default()
    };
    let probe = {
        let mut s = log::scenario(&config);
        let mut rt = EFindRuntime::new(&s.cluster, &mut s.dfs);
        rt.run(&s.ijob, Mode::Dynamic)
            .unwrap()
            .total_time
            .as_nanos()
    };
    let num_nodes = log::scenario(&config).cluster.num_nodes();
    println!("| crashes | total (virtual) | re-planned | wave-1 reused | wave-1 re-mapped | recompute waves | fetch retries | chunks re-replicated |");
    println!("|---------|-----------------|------------|---------------|------------------|-----------------|---------------|----------------------|");
    for crashes in [0usize, 1, 2] {
        let mut s = log::scenario(&config);
        s.efind_config.chaos = chaos_in_window(0xEF1D_1234, num_nodes, crashes, probe);
        let mut rt = EFindRuntime::with_config(&s.cluster, &mut s.dfs, s.efind_config.clone());
        let res = rt.run(&s.ijob, Mode::Dynamic).unwrap();
        let sum = |f: fn(&JobStats) -> u64| res.jobs.iter().map(f).sum::<u64>();
        println!(
            "| {} | {} | {} | {} | {} | {} | {} | {} |",
            crashes,
            res.total_time,
            if res.replanned { "yes" } else { "no" },
            sum(|j| j.recovery.surviving_tasks.len() as u64),
            sum(|j| j.recovery.lost_tasks.len() as u64),
            sum(|j| j.recovery.recompute_waves as u64),
            sum(|j| j.recovery.fetch_retries),
            sum(|j| j.recovery.rereplicated_chunks as u64),
        );
    }
}

/// Crash-surviving adaptive re-plan (Figs. 8–10 under node loss): with a
/// node death planned mid-job, `Mode::Dynamic` still re-plans, its ledger
/// partitions the first wave into surviving and lost tasks, only the
/// survivors are reused, and the re-mapped lost splits restore an output
/// identical to the crash-free run. Two runs at the same seed are
/// bit-identical.
#[test]
fn adaptive_replan_reuses_only_surviving_results() {
    use efind_workloads::log::{self, LogConfig};

    let config = LogConfig {
        num_events: 8_000,
        num_ips: 300,
        num_urls: 100,
        chunks: 240,
        extra_delay: SimDuration::from_millis(5),
        ..LogConfig::default()
    };

    // Crash-free dynamic run: the reference output and job window.
    let mut s0 = log::scenario(&config);
    let mut rt0 = EFindRuntime::new(&s0.cluster, &mut s0.dfs);
    let clean = rt0.run(&s0.ijob, Mode::Dynamic).unwrap();
    assert!(clean.replanned, "the 5 ms lookups must trigger a re-plan");
    let mut expected = rt0.dfs.read_file("log.topk").unwrap();
    expected.sort();
    let clean_ledgers: usize = clean.jobs.iter().filter(|j| !j.recovery.is_empty()).count();
    assert_eq!(clean_ledgers, 0, "crash-free run must keep empty ledgers");

    let num_nodes = s0.cluster.num_nodes();
    let total = clean.total_time.as_nanos();
    for crashes in [1usize, 2] {
        let run = || {
            let mut s = log::scenario(&config);
            s.efind_config.chaos = chaos_in_window(0xEF1D_1234, num_nodes, crashes, total);
            let mut rt = EFindRuntime::with_config(&s.cluster, &mut s.dfs, s.efind_config.clone());
            let res = rt.run(&s.ijob, Mode::Dynamic).unwrap();
            let mut got = rt.dfs.read_file("log.topk").unwrap();
            got.sort();
            let fp = file_fingerprint(&s.dfs, "log.topk");
            (res, got, fp)
        };
        let (res, got, fp) = run();
        assert!(res.replanned, "crashes must not suppress the re-plan");
        assert_eq!(got, expected, "{crashes} crash(es) changed the answer");

        // The ledger proves the reuse was exact: wave-1 splits are
        // partitioned into disjoint surviving and lost sets, the lost set
        // is non-empty (every node ran wave-1 tasks), and the reuse
        // counter equals the surviving count.
        let ledger = res
            .jobs
            .iter()
            .find(|j| !j.recovery.surviving_tasks.is_empty())
            .expect("no job carries the re-plan ledger");
        let rec = &ledger.recovery;
        assert!(
            !rec.lost_tasks.is_empty(),
            "a planned death must lose that node's wave-1 results"
        );
        assert!(
            rec.surviving_tasks
                .iter()
                .all(|t| !rec.lost_tasks.contains(t)),
            "surviving and lost sets overlap: {rec:?}"
        );
        assert_eq!(
            ledger.counters.get("mr.recovery.reused.tasks"),
            rec.surviving_tasks.len() as i64,
            "reuse counter disagrees with the ledger"
        );

        // Bit-identical double run at the pinned seed.
        let (res2, _, fp2) = run();
        assert_eq!(fp, fp2, "{crashes} crash(es): output fingerprint differs");
        assert_eq!(
            res.total_time, res2.total_time,
            "{crashes} crash(es): virtual time differs"
        );
    }
}
