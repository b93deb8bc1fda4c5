//! Gray failures at the `EFindConfig` level: partitions, slow links and
//! hedged lookups.
//!
//! The runner-level mechanics (suspicion, re-placement, rejoin, fail-fast)
//! are pinned in `crates/mapreduce/src/runner.rs::partition_tests`; this
//! suite pins the configuration surface, through the shared harness of
//! `common/layers.rs`:
//!
//! * configured-but-quiet partition and hedge layers equal the plain run;
//! * hedged lookups race backups and win time, never bytes (§3.2
//!   idempotence), under either charge policy;
//! * a transient split plus a slow link, healing mid-job, keeps the plain
//!   output and leaves its trace in every cell, and a cold `Mode::Dynamic`
//!   run records it in its ledger like a `Uniform` run does;
//! * the full gray stack (partition, hedge and node crashes) replays
//!   bit-identically and keeps the answer.
//!
//! Set `EFIND_SEEDS` to sweep other seeds, as `scripts/ci.sh` does.

mod common;

use common::layers::{
    check_cells, equals_plain, num_nodes, pinned_cells, plain_run, seeds, Composition, CRASHES,
    DYNAMIC_MODE, EVERY_MODE, HEDGING, MODES, PARTITIONS, UNIFORM_MODES,
};

/// Configured-but-quiet partition and hedge layers take byte for byte the
/// plain path: a seeded but empty plan, the default detector and a
/// disabled hedge change no observable under any mode.
#[test]
fn quiet_partition_and_hedge_config_matches_plain_exactly() {
    for seed in seeds() {
        let quiet = Composition::quiet(seed, num_nodes()).only(PARTITIONS | HEDGING);
        if let Err(e) = equals_plain(&quiet, EVERY_MODE) {
            panic!("seed={seed:#x}: {e}");
        }
    }
}

/// Hedged lookups win time, never bytes: every pinned cell with the hedge
/// layer armed alone holds the contract, hedges fire, and they move some
/// cell's charged time.
#[test]
fn hedging_changes_charged_time_but_never_output() {
    let checked = check_cells(pinned_cells(|_| vec![HEDGING], EVERY_MODE));
    checked.assert_all_answered();
    checked.assert_work(&["work.hedging"]);
    assert!(
        checked
            .answered()
            .any(|((_, _, m), run)| run.total_nanos() != plain_run(m).total_nanos()),
        "no hedge moved any cell's charged time"
    );
}

/// A partition healing mid-job completes with the unpartitioned output
/// under every uniform strategy: only timing and the `mr.partition.*`
/// ledger move, and every cell's cut leaves its trace.
#[test]
fn partition_healing_mid_job_completes_bit_identically() {
    let checked = check_cells(pinned_cells(|_| vec![PARTITIONS], UNIFORM_MODES));
    checked.assert_all_answered();
    for ((seed, _, m), run) in checked.answered() {
        assert!(
            run.get("work.partitions") > 0,
            "seed={seed:#x} mode={:?}: the cut left no trace",
            MODES[m]
        );
    }
    checked.assert_work(&["work.partitions.refuted", "work.partitions.replaced"]);
}

/// A cold `Mode::Dynamic` run sees the partition layer exactly as a
/// `Uniform` run does: every adaptive sub-step runs on the runtime's one
/// runner, so the cut lands in the ledger and the `mr.partition.*`
/// counters, and the answer equals the unpartitioned `Dynamic` run's.
#[test]
fn cold_dynamic_run_records_the_partition_and_keeps_the_answer() {
    let checked = check_cells(pinned_cells(|_| vec![PARTITIONS], DYNAMIC_MODE));
    checked.assert_all_answered();
    for ((seed, _, _), run) in checked.answered() {
        assert!(
            run.jobs.iter().any(|j| !j.partition.is_empty()),
            "seed={seed:#x}: the cut left an empty PartitionLog"
        );
        assert!(
            run.jobs.iter().any(|j| j
                .counters
                .iter_sorted()
                .into_iter()
                .any(|(k, v)| k.starts_with("mr.partition.") && v != 0)),
            "seed={seed:#x}: no mr.partition.* counter"
        );
    }
}

/// The full gray stack: a partition plan, hedged lookups and node crashes
/// in one run replay bit-identically and keep the failure-free answer in
/// every cell, and each of the three layers registers work.
#[test]
fn armed_partition_hedge_and_chaos_replay_bit_identically() {
    let checked = check_cells(pinned_cells(
        |_| vec![PARTITIONS | HEDGING | CRASHES],
        EVERY_MODE,
    ));
    checked.assert_all_answered();
    checked.assert_work(&["work.partitions", "work.hedging", "work.crashes"]);
}
