//! Deterministic chaos suite for the fault-tolerant index-access path.
//!
//! Every fault the layer injects is a pure function of
//! `(seed, index scope, key, attempt)` on the *virtual* clock — no wall
//! time, no shared RNG. These tests pin that determinism end to end:
//!
//! * Per `(seed, failure rate, strategy)` cell, two complete runs must
//!   produce bit-identical virtual observables (total time, per-job
//!   makespans, shuffle bytes, counter maps, output files).
//! * The zero-fault cell must match the `tests/hotpath_golden.rs`
//!   constants exactly — arming the fault layer with a quiet plan is
//!   byte-for-byte the plain lookup path.
//! * Transient failures with enough retries never change the job
//!   *output*, only its makespan and counters (exactly-once-effective
//!   lookups).
//! * The acceptance workload (`lookup_heavy` at a 5% transient failure
//!   rate) completes with correct output and reports its retries in the
//!   job summary.
//!
//! The seed matrix is pinned but overridable: set `EFIND_FAULT_SEEDS` to
//! a comma-separated list of integers (decimal or 0x-hex) to sweep other
//! seeds, as `scripts/ci.sh` does.

mod common;

use common::{
    counter_fingerprint, file_fingerprint, golden_config, multi_index_goldens, obs, seeds_from_env,
    Observables,
};
use efind::{EFindRuntime, FaultConfig, FaultPlan, Mode, RetryPolicy, Strategy};
use efind_cluster::SimDuration;
use efind_mapreduce::JobStats;
use efind_workloads::multi::{self, MultiConfig};
use efind_workloads::synthetic::{self, SyntheticConfig};

/// The pinned seed matrix, overridable via `EFIND_FAULT_SEEDS`.
fn fault_seeds() -> Vec<u64> {
    seeds_from_env("EFIND_FAULT_SEEDS", &[0xEF1D_0001, 0xC0FF_EE42])
}

/// A fault configuration injecting a mixed failure profile at `rate`:
/// 60% outright failures, 20% hangs, 20% slowdowns. Retries are generous
/// enough (16) that exhaustion is unreachable for rates ≤ 0.2, so the
/// output stays byte-identical to a fault-free run.
fn faults_at(seed: u64, rate: f64) -> FaultConfig {
    let mut config = FaultConfig::disabled().with_plan(
        FaultPlan::new(seed)
            .failures(rate * 0.6)
            .timeouts(rate * 0.2)
            .slowdowns(rate * 0.2, 4.0),
    );
    config.retry = RetryPolicy::bounded(
        16,
        SimDuration::from_micros(50),
        SimDuration::from_millis(5),
    );
    config.timeout = Some(SimDuration::from_millis(50));
    config
}

/// Runs the multi-index workload under one strategy and fault config,
/// capturing every virtual observable.
fn run_multi(config: &MultiConfig, strategy: Strategy, faults: FaultConfig) -> Observables {
    let mut s = multi::scenario(config);
    s.efind_config.faults = faults;
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
    }
    captured.push(obs("output.records", res.output.total_records() as u64));
    captured.push(obs(
        "output.fingerprint",
        file_fingerprint(&s.dfs, "ads.enriched"),
    ));
    captured
}

/// A smaller configuration for the faulty sweep cells (the injected
/// retries multiply virtual work; the sweep covers many cells).
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

/// The headline sweep: per `(seed, failure rate, strategy)` cell, two
/// complete runs must agree on every virtual observable, and the fault
/// counters must actually register injected faults.
#[test]
fn faulty_runs_are_bit_identical_per_seed() {
    let config = sweep_config();
    let fault_free: Vec<Observables> = STRATEGIES
        .iter()
        .map(|&s| run_multi(&config, s, FaultConfig::disabled()))
        .collect();
    for seed in fault_seeds() {
        for rate in [0.05, 0.2] {
            for (si, &strategy) in STRATEGIES.iter().enumerate() {
                let first = run_multi(&config, strategy, faults_at(seed, rate));
                let second = run_multi(&config, strategy, faults_at(seed, rate));
                assert_eq!(
                    first, second,
                    "nondeterminism: seed={seed:#x} rate={rate} strategy={strategy:?}"
                );
                // Transient faults with 16 retries never reach exhaustion
                // at these rates: the job *output* matches the fault-free
                // run exactly (exactly-once-effective lookups).
                let output = |o: &Observables| {
                    o.iter()
                        .filter(|(k, _)| k.starts_with("output."))
                        .cloned()
                        .collect::<Vec<_>>()
                };
                assert_eq!(
                    output(&first),
                    output(&fault_free[si]),
                    "output changed: seed={seed:#x} rate={rate} strategy={strategy:?}"
                );
                // And the injection is real: virtual time moved.
                let total = |o: &Observables| o[0].1;
                assert!(
                    total(&first) > total(&fault_free[si]),
                    "no fault overhead observed: seed={seed:#x} rate={rate} strategy={strategy:?}"
                );
            }
        }
    }
}

/// The zero-fault cell of the sweep matches the `hotpath_golden.rs`
/// constants exactly: arming the fault layer with a quiet plan (or a
/// disabled config) does not move a single bit of any observable.
#[test]
fn zero_fault_cell_matches_hotpath_goldens() {
    for (strategy, expected) in multi_index_goldens() {
        for (label, faults) in [
            ("disabled", FaultConfig::disabled()),
            // An *armed but quiet* plan: the fault state is installed in
            // every charged lookup, yet nothing may change.
            ("quiet", faults_at(7, 0.0)),
        ] {
            let captured = run_multi(&golden_config(), strategy, faults);
            let kept: Observables = captured
                .into_iter()
                .filter(|(k, _)| expected.iter().any(|(e, _)| e == k))
                .collect();
            assert_eq!(kept, expected, "strategy {strategy:?}, faults {label}");
        }
    }
}

/// Acceptance: a lookup-heavy synthetic join at a 5% transient
/// failure rate with retries completes with the exact fault-free output
/// and reports its retries and failures in the job report.
#[test]
fn lookup_heavy_survives_five_percent_failures() {
    let config = SyntheticConfig {
        num_records: 24_000,
        key_space: 2_400,
        record_pad: 16,
        index_value_size: 64,
        chunks: 48,
        ..SyntheticConfig::default()
    };

    let run = |faults: FaultConfig| {
        let mut s = synthetic::scenario(&config);
        s.efind_config.faults = faults;
        let mut rt = EFindRuntime::with_config(&s.cluster, &mut s.dfs, s.efind_config.clone());
        let res = rt.run(&s.ijob, Mode::Uniform(Strategy::Cache)).unwrap();
        let fp = file_fingerprint(&s.dfs, "syn.joined");
        (res, fp)
    };

    let (clean, clean_fp) = run(FaultConfig::disabled());
    let (faulty, faulty_fp) = run(faults_at(0xEF1D_0001, 0.05));

    assert_eq!(
        faulty_fp, clean_fp,
        "5% transient failures changed the output"
    );
    assert!(
        faulty.total_time > clean.total_time,
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

/// Degradation end to end: a black-holed index (100% failures, no
/// retries, hair-trigger breaker) still completes the job under the
/// `Skip` policy — records simply miss — and reports the degradation.
#[test]
fn black_holed_index_degrades_instead_of_failing() {
    let config = sweep_config();
    let mut s = multi::scenario(&config);
    let mut faults = FaultConfig::disabled().with_plan(FaultPlan::new(3).failures(1.0));
    faults.retry = RetryPolicy::none();
    faults.breaker_threshold_x1000 = 500;
    faults.breaker_min_samples = 4;
    s.efind_config.faults = faults;
    let mut rt = EFindRuntime::with_config(&s.cluster, &mut s.dfs, s.efind_config.clone());
    let res = rt.run(&s.ijob, Mode::Uniform(Strategy::Cache)).unwrap();

    // Every record survives (postProcess sees misses), and the breaker
    // actually opened somewhere.
    assert!(res.output.total_records() > 0);
    let stats = &res.jobs[0];
    let degraded: i64 = (0..3)
        .map(|j| {
            stats
                .counters
                .get(&format!("efind.enrich3.{j}.fault.degraded"))
        })
        .sum();
    assert!(degraded > 0, "breaker never opened under 100% failures");
}

/// Half-open breakers on the virtual clock: with a cooldown configured,
/// a tripped breaker admits deterministic probe lookups once the task's
/// charged time passes the cooldown; a probe success closes the breaker
/// (resetting its counters) and real lookups resume until the ratio
/// trips it again. The whole trip → cooldown → probe → close cycle is
/// bit-identical across runs.
#[test]
fn breaker_cooldown_reprobes_and_recovers_deterministically() {
    let config = sweep_config();
    let faults_with = |cooldown: Option<SimDuration>| {
        let mut f = FaultConfig::disabled().with_plan(FaultPlan::new(11).failures(0.9));
        f.retry = RetryPolicy::none();
        f.breaker_threshold_x1000 = 200;
        f.breaker_min_samples = 4;
        f.breaker_cooldown = cooldown;
        f
    };
    let cooldown = Some(SimDuration::from_micros(200));
    let run = |faults: FaultConfig| {
        let mut s = multi::scenario(&config);
        s.efind_config.faults = faults;
        let mut rt = EFindRuntime::with_config(&s.cluster, &mut s.dfs, s.efind_config.clone());
        rt.run(&s.ijob, Mode::Uniform(Strategy::Cache))
            .unwrap()
            .jobs[0]
            .clone()
    };
    let trip_only = run(faults_with(None));
    let half_open = run(faults_with(cooldown));

    let sum = |stats: &JobStats, leaf: &str| -> i64 {
        (0..3)
            .map(|j| stats.counters.get(&format!("efind.enrich3.{j}.{leaf}")))
            .sum()
    };
    // Trip-only: breakers open early and stay open for the task's life.
    assert!(
        sum(&trip_only, "fault.degraded") > 0,
        "breakers never tripped at 90% failures"
    );
    // Probes convert short-circuited lookups back into real attempts, so
    // fewer lookups degrade and more failures are actually observed.
    assert!(
        sum(&half_open, "fault.degraded") < sum(&trip_only, "fault.degraded"),
        "cooldown probes never fired"
    );
    assert!(
        sum(&half_open, "fault.failures") > sum(&trip_only, "fault.failures"),
        "probes observed no real outcomes"
    );
    // Recovery is real: successful probes close breakers, so completed
    // lookups keep accruing after the first trip.
    assert!(
        sum(&half_open, "lookups") > sum(&trip_only, "lookups"),
        "no probe ever closed a breaker"
    );
    // And the whole cycle is deterministic per seed.
    let first = run_multi(&config, Strategy::Cache, faults_with(cooldown));
    let second = run_multi(&config, Strategy::Cache, faults_with(cooldown));
    assert_eq!(first, second, "half-open breaker cycle is nondeterministic");
}

/// Regenerates the EXPERIMENTS.md "Fig. 11(a) with failures" table: the
/// LOG geo-IP delay sweep with the fault layer armed at a 5% mixed rate.
/// Ignored by default (it is a table printer, not an assertion suite);
/// run with `cargo test --release --test fault_injection -- --ignored
/// fig11a --nocapture`.
#[test]
#[ignore = "table printer for EXPERIMENTS.md"]
fn fig11a_delay_sweep_with_failures() {
    use efind_workloads::harness::run_mode;
    use efind_workloads::log::{self, LogConfig};

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
            s.efind_config.faults = faults_at(0xEF1D_0001, 0.05);
            let m = run_mode(&mut s, label, mode).unwrap();
            row.push_str(&format!(" {:.2} s |", m.secs));
        }
        println!("{row}");
    }
}

/// The `FailJob` miss policy turns exhaustion into a job error instead
/// of silent degradation.
#[test]
fn fail_job_policy_aborts_on_exhaustion() {
    let config = sweep_config();
    let mut s = multi::scenario(&config);
    let mut faults = FaultConfig::disabled().with_plan(FaultPlan::new(3).failures(1.0));
    faults.retry = RetryPolicy::none();
    faults.miss_policy = efind::MissPolicy::FailJob;
    s.efind_config.faults = faults;
    let mut rt = EFindRuntime::with_config(&s.cluster, &mut s.dfs, s.efind_config.clone());
    let err = rt.run(&s.ijob, Mode::Uniform(Strategy::Cache)).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("lookup"), "unexpected error: {msg}");
}
