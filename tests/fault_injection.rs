//! Transient index faults: retries, breakers and miss policies.
//!
//! Every fault the layer injects is a pure function of
//! `(seed, index scope, key, attempt)` on the *virtual* clock. These tests
//! pin that end to end, through the shared harness of `common/layers.rs`:
//!
//! * The fault layer alone holds the injection contract in every pinned
//!   cell: two runs are bit-identical, the output is the plain one, and
//!   the injection is real — virtual time moves.
//! * A configured but quiet fault layer reproduces the hotpath goldens.
//! * A lookup-heavy join at a 5 % failure rate keeps its output and
//!   reports its retries; breakers degrade, re-probe and recover; the
//!   `FailJob` policy fails the job.
//!
//! Set `EFIND_SEEDS` to sweep other seeds, as `scripts/ci.sh` does.

mod common;

use common::layers::{
    assert_quiet_matches_goldens, check_cells, faults_at, lookup_heavy_config, num_nodes, observe,
    pinned_cells, plain_run, scenario_config, Composition, Run, EVERY_MODE, FAULTS, MODES,
};
use efind::{FaultConfig, FaultPlan, MissPolicy, Mode, RetryPolicy, Strategy};
use efind_cluster::SimDuration;
use efind_mapreduce::JobStats;
use efind_workloads::log::{self, LogConfig};
use efind_workloads::multi;
use efind_workloads::synthetic;

/// The headline sweep: every pinned cell with the fault layer armed alone
/// holds the contract, and in every one the faults cost virtual time.
#[test]
fn faulty_runs_are_bit_identical_per_seed() {
    let checked = check_cells(pinned_cells(|_| vec![FAULTS], EVERY_MODE));
    checked.assert_all_answered();
    for ((seed, _, m), run) in checked.answered() {
        assert!(
            run.total_nanos() > plain_run(m).total_nanos(),
            "no fault overhead observed: seed={seed:#x} mode={:?}",
            MODES[m]
        );
    }
    checked.assert_work(&["work.faults"]);
}

/// The zero-fault cell: a configured but quiet fault layer (a zero-rate
/// plan with a timeout) reproduces the hotpath goldens exactly.
#[test]
fn zero_fault_cell_matches_hotpath_goldens() {
    assert_quiet_matches_goldens(&Composition::quiet(7, num_nodes()).only(FAULTS));
}

/// A lookup-heavy join at a 5 % transient failure rate completes with the
/// exact fault-free output and reports its retries in the job report.
#[test]
fn lookup_heavy_survives_five_percent_failures() {
    let run = |layers: &Composition| {
        observe(
            synthetic::scenario(&lookup_heavy_config()),
            &Mode::Uniform(Strategy::Cache),
            layers,
        )
        .unwrap()
    };
    let clean = run(&Composition::plain());
    let faulty = run(&Composition {
        faults: faults_at(0xEF1D_0001, 0.05, MissPolicy::Skip),
        ..Composition::plain()
    });

    assert_eq!(
        faulty.output(),
        clean.output(),
        "5% transient failures changed the output"
    );
    assert!(
        faulty.total_nanos() > clean.total_nanos(),
        "retries cost no virtual time?"
    );

    let stats = &faulty.jobs[0];
    let failures = stats.counters.get("efind.synjoin.0.fault.failures");
    let retries = stats.counters.get("efind.synjoin.0.fault.retries");
    let exhausted = stats.counters.get("efind.synjoin.0.fault.exhausted");
    assert!(failures > 0, "no transient failures injected");
    assert!(retries >= failures, "every failed attempt must be retried");
    assert_eq!(exhausted, 0, "no lookup may exhaust its retries at 5%");

    let summary = efind_mapreduce::report::render_summary(stats);
    assert!(
        summary.contains("fault tolerance:"),
        "job report lacks the fault summary line:\n{summary}"
    );
    assert!(
        summary.contains("efind.synjoin.0.fault.retries"),
        "job report lacks the retry counter:\n{summary}"
    );
    // The clean run's report must not mention faults at all.
    let clean_summary = efind_mapreduce::report::render_summary(&clean.jobs[0]);
    assert!(!clean_summary.contains("fault tolerance"));
}

/// The sum of one per-index counter over the three indices of the
/// multi-index job's operator.
fn enrich_sum(stats: &JobStats, leaf: &str) -> i64 {
    (0..3)
        .map(|j| stats.counters.get(&format!("efind.enrich3.{j}.{leaf}")))
        .sum()
}

/// A black-holed index (100 % failures, no retries, hair-trigger
/// breaker) still completes under the `Skip` policy — records simply
/// miss — and reports the degradation.
#[test]
fn black_holed_index_degrades_instead_of_failing() {
    let mut faults = FaultConfig::disabled().with_plan(FaultPlan::new(3).failures(1.0));
    faults.retry = RetryPolicy::none();
    faults.breaker_threshold_x1000 = 500;
    faults.breaker_min_samples = 4;
    let run = observe(
        multi::scenario(&scenario_config()),
        &Mode::Uniform(Strategy::Cache),
        &Composition {
            faults,
            ..Composition::plain()
        },
    )
    .unwrap();
    assert!(run.get("output.records") > 0);
    assert!(
        enrich_sum(&run.jobs[0], "fault.degraded") > 0,
        "breaker never opened under 100% failures"
    );
}

/// Half-open breakers on the virtual clock: with a cooldown, a tripped
/// breaker admits probe lookups once the task's charged time passes it; a
/// probe success closes the breaker and real lookups resume until the
/// ratio trips it again. The whole cycle replays bit-identically.
#[test]
fn breaker_cooldown_reprobes_and_recovers_deterministically() {
    let run = |cooldown: Option<SimDuration>| {
        let mut faults = FaultConfig::disabled().with_plan(FaultPlan::new(11).failures(0.9));
        faults.retry = RetryPolicy::none();
        faults.breaker_threshold_x1000 = 200;
        faults.breaker_min_samples = 4;
        faults.breaker_cooldown = cooldown;
        observe(
            multi::scenario(&scenario_config()),
            &Mode::Uniform(Strategy::Cache),
            &Composition {
                faults,
                ..Composition::plain()
            },
        )
        .unwrap()
    };
    let cooldown = Some(SimDuration::from_micros(200));
    let trip_only = run(None);
    let half_open = run(cooldown);
    let sum = |r: &Run, leaf: &str| enrich_sum(&r.jobs[0], leaf);
    // Trip-only: breakers open early and stay open for the task's life.
    assert!(
        sum(&trip_only, "fault.degraded") > 0,
        "breakers never tripped at 90% failures"
    );
    // Probes turn short-circuited lookups back into real attempts.
    assert!(
        sum(&half_open, "fault.degraded") < sum(&trip_only, "fault.degraded"),
        "cooldown probes never fired"
    );
    assert!(
        sum(&half_open, "fault.failures") > sum(&trip_only, "fault.failures"),
        "probes observed no real outcomes"
    );
    // Successful probes close breakers: completed lookups keep accruing.
    assert!(
        sum(&half_open, "lookups") > sum(&trip_only, "lookups"),
        "no probe ever closed a breaker"
    );
    assert_eq!(
        half_open.observed,
        run(cooldown).observed,
        "half-open breaker cycle is nondeterministic"
    );
}

/// The `FailJob` miss policy turns exhaustion into a job error instead
/// of silent degradation.
#[test]
fn fail_job_policy_aborts_on_exhaustion() {
    let mut faults = FaultConfig::disabled().with_plan(FaultPlan::new(3).failures(1.0));
    faults.retry = RetryPolicy::none();
    faults.miss_policy = MissPolicy::FailJob;
    let err = observe(
        multi::scenario(&scenario_config()),
        &Mode::Uniform(Strategy::Cache),
        &Composition {
            faults,
            ..Composition::plain()
        },
    )
    .err()
    .expect("exhaustion under FailJob must fail the job");
    let msg = err.to_string();
    assert!(msg.contains("lookup"), "unexpected error: {msg}");
}

/// Regenerates the EXPERIMENTS.md "Fig. 11(a) with failures" table: the
/// LOG geo-IP delay sweep with the fault layer armed at a 5 % mixed rate.
/// Run with `cargo test --release --test fault_injection -- --ignored fig11a
/// --nocapture`.
#[test]
#[ignore = "table printer for EXPERIMENTS.md"]
fn fig11a_delay_sweep_with_failures() {
    use efind_workloads::harness::run_mode;

    println!("| extra delay | base | cache | repart |");
    println!("|---|---|---|---|");
    for delay_ms in 0..=5u64 {
        let mut row = format!("| {delay_ms} ms |");
        for (label, mode) in [
            ("base", Mode::Uniform(Strategy::Baseline)),
            ("cache", Mode::Uniform(Strategy::Cache)),
            ("repart", Mode::Uniform(Strategy::Repartition)),
        ] {
            let mut s = log::scenario(&LogConfig {
                extra_delay: SimDuration::from_millis(delay_ms),
                ..LogConfig::default()
            });
            s.efind_config.faults = faults_at(0xEF1D_0001, 0.05, MissPolicy::Skip);
            let m = run_mode(&mut s, label, mode).unwrap();
            row.push_str(&format!(" {:.2} s |", m.secs));
        }
        println!("{row}");
    }
}
