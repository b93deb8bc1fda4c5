//! Silent data corruption: checksums, replica repair and fail-fast.
//!
//! Through the shared harness of `common/layers.rs`:
//!
//! * The corruption layer alone (every surface armed: chunks, shuffle,
//!   cache, index responses) holds the injection contract in every pinned
//!   cell: two runs are bit-identical, the output is the plain one or the
//!   job fails fast with a named error, and repair only adds virtual time.
//! * Corruption, crashes and faults armed together keep the answer.
//! * A configured but quiet corruption layer reproduces the hotpath
//!   goldens.
//! * Chunk corruption at replication 3 moves only time and the integrity
//!   ledger; corrupting every replica fails fast, naming file and chunk.
//!
//! Set `EFIND_SEEDS` to sweep other seeds, as `scripts/ci.sh` does.

mod common;

use common::layers::{
    assert_quiet_matches_goldens, check_cells, lookup_heavy_config, num_nodes, observe,
    pinned_cells, scenario_config, Composition, Run, CORRUPTION, CRASHES, EVERY_MODE, FAULTS,
};
use efind::{Mode, Strategy};
use efind_cluster::{CorruptionPlan, SimDuration};
use efind_common::Error;
use efind_mapreduce::JobStats;
use efind_workloads::multi;
use efind_workloads::synthetic;

/// The work rows of the corruption layer: corruption caught on each of
/// its four surfaces.
const CORRUPTION_WORK: [&str; 4] = [
    "work.corruption.chunks",
    "work.corruption.shuffle",
    "work.corruption.cache",
    "work.corruption.responses",
];

/// The headline sweep: every pinned cell with the corruption layer armed
/// alone holds the contract, and corruption is caught on every surface.
#[test]
fn corrupted_runs_are_bit_identical_and_output_preserving() {
    let checked = check_cells(pinned_cells(|_| vec![CORRUPTION], EVERY_MODE));
    checked.assert_work(&CORRUPTION_WORK);
}

/// The zero-corruption cell: a configured but quiet corruption layer (a
/// seeded zero-rate plan, verification armed at every boundary)
/// reproduces the hotpath goldens exactly.
#[test]
fn zero_corruption_cells_match_hotpath_goldens() {
    assert_quiet_matches_goldens(&Composition::quiet(7, num_nodes()).only(CORRUPTION));
}

/// The combined-chaos cells: corruption, crashes and transient faults in
/// one job hold the contract, and the recovery, integrity and fault
/// machinery all register work.
#[test]
fn combined_corruption_crash_and_faults_preserve_the_answer() {
    let checked = check_cells(pinned_cells(
        |_| vec![CORRUPTION | CRASHES | FAULTS],
        EVERY_MODE,
    ));
    checked.assert_work(&["work.crashes", "work.faults"]);
    assert!(
        CORRUPTION_WORK.iter().map(|w| checked.work(w)).sum::<u64>() > 0,
        "the corruption plan never fired"
    );
}

/// Chunk corruption under replication 3 is transparent to the job: the
/// output and every non-integrity counter equal the clean run's under all
/// four strategies; only virtual time and the integrity ledger move.
#[test]
fn chunk_corruption_at_replication_3_preserves_output_and_counters() {
    let strategies = [
        Strategy::Baseline,
        Strategy::Cache,
        Strategy::Repartition,
        Strategy::IndexLocality,
    ];
    let run = |strategy: Strategy, corruption: CorruptionPlan| {
        observe(
            multi::scenario(&scenario_config()),
            &Mode::Uniform(strategy),
            &Composition {
                corruption,
                ..Composition::plain()
            },
        )
    };
    let clean: Vec<Run> = strategies
        .iter()
        .map(|&s| run(s, CorruptionPlan::none()).expect("clean run must succeed"))
        .collect();
    // Candidate chunk-only plans pre-screened against the input file: at
    // least one replica corrupt, never a whole chunk. Intermediate files
    // (Repartition stages) draw independently, so a candidate that kills
    // an intermediate chunk fails fast and the scan moves on.
    let meta = multi::scenario(&scenario_config())
        .dfs
        .stat("ads.events")
        .unwrap();
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
        let mut hits = Vec::new();
        for &strategy in &strategies {
            match run(strategy, plan.clone()) {
                Ok(hit) => hits.push((strategy, hit)),
                Err(_) => continue 'candidate,
            }
        }
        let mut rereads = 0;
        for ((strategy, hit), clean) in hits.iter().zip(&clean) {
            assert_eq!(
                hit.output(),
                clean.output(),
                "output changed under {strategy:?}"
            );
            let invariant = |r: &Run| r.rows(|k| k.ends_with(".counters.invariant"));
            assert_eq!(
                invariant(hit),
                invariant(clean),
                "a non-integrity counter moved under {strategy:?}"
            );
            assert!(
                hit.total_nanos() >= clean.total_nanos(),
                "repair made the run faster under {strategy:?}"
            );
            rereads += hit.get("work.corruption.chunks");
        }
        assert!(rereads > 0, "the plan corrupted nothing any strategy read");
        return;
    }
    panic!("no candidate seed was recoverable under every strategy");
}

/// Corrupting every replica of the input is a diagnosable
/// `DataCorruption` error naming the file, the chunk and the replica set
/// — not a hang, not a retry loop, not a wrong answer.
#[test]
fn total_corruption_fails_fast_naming_file_and_chunk() {
    let err = observe(
        multi::scenario(&scenario_config()),
        &Mode::Uniform(Strategy::Baseline),
        &Composition {
            corruption: CorruptionPlan::new(1).chunks(1.0),
            ..Composition::plain()
        },
    )
    .err()
    .expect("every replica corrupt must fail the job");
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
/// chunk loses 0, 1 or 2 of its 3 replicas. Run with
/// `cargo test --release --test integrity -- --ignored --nocapture fig_integrity`.
#[test]
#[ignore = "table generator, run with --ignored --nocapture"]
fn fig_integrity_repair_table() {
    // A plan whose worst input chunk has exactly `k` corrupt replicas,
    // found by scanning seeds.
    let plan_for = |k: usize| -> CorruptionPlan {
        if k == 0 {
            return CorruptionPlan::none();
        }
        let meta = synthetic::scenario(&lookup_heavy_config())
            .dfs
            .stat("syn.input")
            .unwrap();
        let rate = 0.15 * k as f64;
        (0..10_000u64)
            .map(|seed| CorruptionPlan::new(seed).chunks(rate))
            .find(|plan| {
                let worst = meta.chunks.iter().map(|c| {
                    c.hosts
                        .iter()
                        .filter(|h| plan.chunk_replica_corrupt("syn.input", c.index, **h))
                        .count()
                });
                worst.max() == Some(k)
            })
            .expect("no seed reaches the target replica loss")
    };
    println!("| worst-chunk replicas corrupt | total (virtual) | corrupt chunks | wasted rereads | reread time | replicas quarantined | chunks repaired | repair time |");
    println!("|---|---|---|---|---|---|---|---|");
    for k in [0usize, 1, 2] {
        let res = observe(
            synthetic::scenario(&lookup_heavy_config()),
            &Mode::Uniform(Strategy::Cache),
            &Composition {
                corruption: plan_for(k),
                ..Composition::plain()
            },
        )
        .unwrap();
        let sum = |f: fn(&JobStats) -> u64| res.jobs.iter().map(f).sum::<u64>();
        let time = |f: fn(&JobStats) -> SimDuration| {
            res.jobs.iter().map(f).fold(SimDuration::ZERO, |a, b| a + b)
        };
        println!(
            "| {} | {} | {} | {} | {} | {} | {} | {} |",
            k,
            SimDuration::from_nanos(res.total_nanos()),
            sum(|j| j.integrity.corrupt_chunks.len() as u64),
            sum(|j| j.integrity.chunk_rereads),
            time(|j| j.integrity.reread_time),
            sum(|j| j.integrity.quarantined_replicas as u64),
            sum(|j| j.integrity.repaired_chunks as u64),
            time(|j| j.integrity.repair_time),
        );
    }
}
