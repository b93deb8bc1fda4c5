//! Node crashes: recompute, data loss and the adaptive re-plan.
//!
//! Through the shared harness of `common/layers.rs`:
//!
//! * The crash layer alone (one or two deaths inside the plain run's
//!   window) holds the injection contract in every pinned cell: two runs
//!   are bit-identical, recovery only adds virtual time, and with
//!   replication 3 the output is the plain one. `Mode::Dynamic` records
//!   the deaths in its ledger.
//! * A configured but quiet crash layer reproduces the hotpath goldens.
//! * Losing a chunk's sole replica is a named `DataLoss`; the adaptive
//!   re-plan reuses only the results that survived.
//!
//! Set `EFIND_SEEDS` to sweep other seeds, as `scripts/ci.sh` does.

mod common;

use common::layers::{
    assert_quiet_matches_goldens, chaos_in_window, check_cells, num_nodes, observe, pinned_cells,
    Composition, CORRUPTION, CRASHES, EVERY_MODE, TAIL_DYNAMIC,
};
use efind::Mode;
use efind_cluster::{ChaosPlan, Cluster, SimDuration, SimTime};
use efind_common::{Error, Record};
use efind_mapreduce::JobStats;
use efind_workloads::log::{self, LogConfig};

/// The headline sweep: every pinned cell with the crash layer armed alone
/// holds the contract and, with replication 3, answers; the planned deaths
/// land inside the jobs, and a `Mode::Dynamic` cell records them.
#[test]
fn crashed_runs_are_bit_identical_and_output_preserving() {
    let checked = check_cells(pinned_cells(|_| vec![CRASHES], EVERY_MODE));
    checked.assert_all_answered();
    checked.assert_work(&["work.crashes"]);
    assert!(
        checked.dynamic_records(|j| !j.recovery.is_empty()),
        "no Dynamic cell recorded a crash"
    );
}

/// A crash is listed by exactly one job of a result, inside that job's
/// window unless a map-side re-plan applied it up front: across the
/// columns whose runs are pipelines of jobs — re-partitioning, the
/// map-side re-plan and the reduce-phase re-plan — with crashes and
/// corruption armed. `check_cell` holds every cell to it; here the cells
/// must include pipelines whose later jobs ran after a crash.
#[test]
fn each_crash_is_listed_by_exactly_one_job() {
    let columns = [2, 4, TAIL_DYNAMIC[0]];
    let checked = check_cells(pinned_cells(|_| vec![CRASHES | CORRUPTION], &columns));
    let mut after_a_crash = 0;
    for (_, run) in checked.answered() {
        let first_crash = run
            .jobs
            .iter()
            .flat_map(|j| &j.recovery.crashes)
            .map(|c| c.at)
            .min();
        after_a_crash += run
            .jobs
            .iter()
            .filter(|j| first_crash.is_some_and(|at| j.started > at))
            .count();
    }
    assert!(after_a_crash > 0, "no job of a pipeline ran after a crash");
}

/// The zero-crash cell: a configured but quiet crash layer (a seeded plan
/// with no deaths) reproduces the hotpath goldens exactly.
#[test]
fn zero_crash_cells_match_hotpath_goldens() {
    assert_quiet_matches_goldens(&Composition::quiet(7, num_nodes()).only(CRASHES));
}

/// Replication 1 + the sole replica of an input chunk dying with its node
/// = a diagnosable `DataLoss` error naming the file, not a hang and not a
/// silently truncated output. A runner-level job: no index, no EFind
/// runtime.
#[test]
fn sole_replica_loss_is_a_diagnosable_error() {
    use efind_dfs::{Dfs, DfsConfig};
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

/// The LOG workload of the adaptive re-plan scenarios: 5 ms lookups make
/// `Mode::Dynamic` re-plan after its first wave.
fn replan_config() -> LogConfig {
    LogConfig {
        num_events: 8_000,
        num_ips: 300,
        num_urls: 100,
        chunks: 240,
        extra_delay: SimDuration::from_millis(5),
        ..LogConfig::default()
    }
}

/// Crash-surviving adaptive re-plan (Figs. 8–10 under node loss): with a
/// node death planned mid-job, `Mode::Dynamic` still re-plans, its ledger
/// splits the first wave into surviving and lost tasks, only survivors
/// are reused, and the re-mapped lost splits restore the crash-free
/// answer. Two runs at the same seed are bit-identical.
#[test]
fn adaptive_replan_reuses_only_surviving_results() {
    let clean = observe(
        log::scenario(&replan_config()),
        &Mode::Dynamic,
        &Composition::plain(),
    )
    .unwrap();
    assert!(clean.replanned, "the 5 ms lookups must trigger a re-plan");
    assert!(
        clean.jobs.iter().all(|j| j.recovery.is_empty()),
        "crash-free run must keep empty ledgers"
    );

    for crashes in [1usize, 2] {
        let layers = Composition {
            chaos: chaos_in_window(0xEF1D_1234, num_nodes(), crashes, clean.total_nanos()),
            ..Composition::plain()
        };
        let run = || observe(log::scenario(&replan_config()), &Mode::Dynamic, &layers).unwrap();
        let res = run();
        assert!(res.replanned, "crashes must not suppress the re-plan");
        assert_eq!(
            res.answer, clean.answer,
            "{crashes} crash(es) changed the answer"
        );

        // The ledger proves the reuse was exact: wave-1 splits fall into
        // disjoint surviving and lost sets, the lost set is non-empty
        // (every node ran wave-1 tasks), and the reuse counter equals the
        // surviving count.
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
        assert_eq!(
            res.observed,
            run().observed,
            "{crashes} crash(es): the double run differs"
        );
    }
}

/// Prints the EXPERIMENTS.md "adaptive re-plan under node crashes" table
/// (Figs. 8–10 with 0/1/2 deaths): run with
/// `cargo test --release --test node_crash -- --ignored --nocapture fig_adaptive`.
#[test]
#[ignore = "table generator, run with --ignored --nocapture"]
fn fig_adaptive_reuse_under_crashes_table() {
    let probe = observe(
        log::scenario(&replan_config()),
        &Mode::Dynamic,
        &Composition::plain(),
    )
    .unwrap()
    .total_nanos();
    println!("| crashes | total (virtual) | re-planned | wave-1 reused | wave-1 re-mapped | recompute waves | fetch retries | chunks re-replicated |");
    println!("|---------|-----------------|------------|---------------|------------------|-----------------|---------------|----------------------|");
    for crashes in [0usize, 1, 2] {
        let layers = Composition {
            chaos: chaos_in_window(0xEF1D_1234, num_nodes(), crashes, probe),
            ..Composition::plain()
        };
        let res = observe(log::scenario(&replan_config()), &Mode::Dynamic, &layers).unwrap();
        let sum = |f: fn(&JobStats) -> u64| res.jobs.iter().map(f).sum::<u64>();
        println!(
            "| {} | {} | {} | {} | {} | {} | {} | {} |",
            crashes,
            SimDuration::from_nanos(res.total_nanos()),
            if res.replanned { "yes" } else { "no" },
            sum(|j| j.recovery.surviving_tasks.len() as u64),
            sum(|j| j.recovery.lost_tasks.len() as u64),
            sum(|j| j.recovery.recompute_waves as u64),
            sum(|j| j.recovery.fetch_retries),
            sum(|j| j.recovery.rereplicated_chunks as u64),
        );
    }
}
