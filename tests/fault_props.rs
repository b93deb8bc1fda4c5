//! Property-based pins for the injection layers' core guarantees:
//!
//! 1. **Quiet-plan transparency** — arming the fault layer with a
//!    zero-rate plan changes *nothing*: every virtual observable
//!    (makespans, shuffle bytes, counter maps, output fingerprints) is
//!    bit-identical to a run without the fault layer, whatever the seed
//!    and strategy.
//! 2. **Exactly-once-effective retries** — transient failures never
//!    change the job *output* (only makespan and counters), for any
//!    seed and rate up to 0.2, under each miss policy. The real accessor
//!    is only invoked on attempts the plan lets through, and with 16
//!    retries exhaustion is unreachable at these rates.
//! 3. **Quiet corruption transparency** — a seeded but zero-rate
//!    [`CorruptionPlan`] arms CRC verification at every read boundary
//!    yet changes nothing: the checksum machinery is free until a byte
//!    actually flips, whatever the seed and strategy.
//!
//! Each case spins up a full simulated cluster, so the case counts stay
//! small; the deterministic sweep in `tests/fault_injection.rs` covers
//! the pinned seed matrix densely.

mod common;

use common::{counter_fingerprint, file_fingerprint, Observables};
use efind::{EFindRuntime, FaultConfig, FaultPlan, MissPolicy, Mode, RetryPolicy, Strategy};
use efind_cluster::{CorruptionPlan, NodeId, PartitionPlan, SimDuration, SimTime};
use efind_common::Datum;
use efind_workloads::multi::{self, MultiConfig};
use proptest::prelude::*;

/// A small multi-index workload: three indices, every strategy viable.
fn tiny_config() -> MultiConfig {
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

const STRATEGIES: [Strategy; 4] = [
    Strategy::Baseline,
    Strategy::Cache,
    Strategy::Repartition,
    Strategy::IndexLocality,
];

/// Runs the workload and captures every virtual observable.
fn run_observed(strategy: Strategy, faults: FaultConfig) -> Observables {
    let mut s = multi::scenario(&tiny_config());
    s.efind_config.faults = faults;
    let mut rt = EFindRuntime::with_config(&s.cluster, &mut s.dfs, s.efind_config.clone());
    let res = rt.run(&s.ijob, Mode::Uniform(strategy)).unwrap();
    let mut captured: Observables = vec![
        ("total.nanos".into(), res.total_time.as_nanos()),
        ("jobs".into(), res.jobs.len() as u64),
    ];
    for (i, job) in res.jobs.iter().enumerate() {
        captured.push((format!("job{i}.makespan.nanos"), job.makespan().as_nanos()));
        captured.push((format!("job{i}.shuffle.bytes"), job.shuffle_bytes));
        captured.push((
            format!("job{i}.counters.fingerprint"),
            counter_fingerprint(job),
        ));
    }
    captured.push((
        "output.fingerprint".into(),
        file_fingerprint(&s.dfs, "ads.enriched"),
    ));
    captured
}

/// Runs the workload with a corruption plan armed (fault layer off),
/// capturing the same observables as [`run_observed`].
fn run_observed_corrupt(strategy: Strategy, corruption: CorruptionPlan) -> Observables {
    let mut s = multi::scenario(&tiny_config());
    s.efind_config.corruption = corruption;
    let mut rt = EFindRuntime::with_config(&s.cluster, &mut s.dfs, s.efind_config.clone());
    let res = rt.run(&s.ijob, Mode::Uniform(strategy)).unwrap();
    let mut captured: Observables = vec![
        ("total.nanos".into(), res.total_time.as_nanos()),
        ("jobs".into(), res.jobs.len() as u64),
    ];
    for (i, job) in res.jobs.iter().enumerate() {
        captured.push((format!("job{i}.makespan.nanos"), job.makespan().as_nanos()));
        captured.push((format!("job{i}.shuffle.bytes"), job.shuffle_bytes));
        captured.push((
            format!("job{i}.counters.fingerprint"),
            counter_fingerprint(job),
        ));
    }
    captured.push((
        "output.fingerprint".into(),
        file_fingerprint(&s.dfs, "ads.enriched"),
    ));
    captured
}

/// Runs the workload with a partition plan armed (everything else off),
/// capturing the same observables as [`run_observed`].
fn run_observed_split(strategy: Strategy, netsplit: PartitionPlan) -> Observables {
    let mut s = multi::scenario(&tiny_config());
    s.efind_config.netsplit = netsplit;
    let mut rt = EFindRuntime::with_config(&s.cluster, &mut s.dfs, s.efind_config.clone());
    let res = rt.run(&s.ijob, Mode::Uniform(strategy)).unwrap();
    let mut captured: Observables = vec![
        ("total.nanos".into(), res.total_time.as_nanos()),
        ("jobs".into(), res.jobs.len() as u64),
    ];
    for (i, job) in res.jobs.iter().enumerate() {
        captured.push((format!("job{i}.makespan.nanos"), job.makespan().as_nanos()));
        captured.push((format!("job{i}.shuffle.bytes"), job.shuffle_bytes));
        captured.push((
            format!("job{i}.counters.fingerprint"),
            counter_fingerprint(job),
        ));
    }
    captured.push((
        "output.fingerprint".into(),
        file_fingerprint(&s.dfs, "ads.enriched"),
    ));
    captured
}

/// Only the output rows of an observable vector.
fn output_of(observables: &Observables) -> Vec<(String, u64)> {
    observables
        .iter()
        .filter(|(k, _)| k.starts_with("output."))
        .cloned()
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Satellite 1: a zero-fault plan is observably absent. All four
    /// strategies run per case so a strategy-specific leak cannot hide.
    #[test]
    fn quiet_fault_plan_changes_no_observable(seed in any::<u64>()) {
        for &strategy in &STRATEGIES {
            let without = run_observed(strategy, FaultConfig::disabled());
            // Armed with a quiet plan: fault state installed everywhere,
            // zero injection probability.
            let mut armed = FaultConfig::disabled().with_plan(FaultPlan::new(seed));
            armed.timeout = Some(SimDuration::from_secs(1));
            let with = run_observed(strategy, armed);
            prop_assert_eq!(
                &with, &without,
                "quiet plan perturbed observables: seed={} strategy={:?}",
                seed, strategy
            );
        }
    }

    /// Satellite 2: transient failures are exactly-once-effective. The
    /// output fingerprint never moves, whatever the seed, rate (≤ 0.2),
    /// strategy, or miss policy; only makespan and counters may change.
    #[test]
    fn transient_failures_never_change_output(
        seed in any::<u64>(),
        rate in 0.0f64..0.2,
        strategy_pick in 0usize..4,
        policy_pick in 0usize..3,
    ) {
        let strategy = STRATEGIES[strategy_pick];
        let clean = run_observed(strategy, FaultConfig::disabled());

        let policy = [
            MissPolicy::Skip,
            MissPolicy::Default(Datum::Text("fallback".into())),
            MissPolicy::FailJob,
        ][policy_pick].clone();
        let mut faults = FaultConfig::disabled().with_plan(
            FaultPlan::new(seed)
                .failures(rate * 0.7)
                .timeouts(rate * 0.3),
        );
        faults.retry = RetryPolicy::bounded(
            16,
            SimDuration::from_micros(20),
            SimDuration::from_millis(2),
        );
        faults.miss_policy = policy;
        let faulty = run_observed(strategy, faults);

        prop_assert_eq!(
            output_of(&faulty),
            output_of(&clean),
            "output moved: seed={} rate={} strategy={:?}",
            seed, rate, strategy
        );
        // At meaningful rates faults were certainly injected (≥ 1 in
        // ~1800 attempts bumps a fault counter), so the equality above
        // is not vacuous: some non-output observable must have moved.
        if rate > 0.05 {
            prop_assert_ne!(faulty, clean);
        }
    }

    /// A partition that heals entirely before the job starts never
    /// existed: jobs start at virtual zero and windows are half-open
    /// `[start, heal)`, so a window closing at-or-before its own start
    /// (the only way to close by time zero) is dropped at insertion, the
    /// plan is quiet, and the run is byte-identical to one with
    /// no plan at all — whatever the seed, node, window, or strategy.
    #[test]
    fn partition_healed_before_job_start_changes_no_observable(
        seed in any::<u64>(),
        node in 0u16..4,
        start_nanos in 0u64..10_000,
        shrink in 0u64..10_000,
        factor in 0.0f64..=1.0,
    ) {
        let start = SimTime::from_nanos(start_nanos + shrink);
        let heal = SimTime::from_nanos(start_nanos); // heal <= start
        let plan = PartitionPlan::new(seed)
            .split(&[NodeId(node)], start, Some(heal))
            .slow_link(NodeId(node), start, Some(heal), 4.0)
            .slow_link(NodeId((node + 1) % 4), SimTime::ZERO, None, factor);
        prop_assert!(plan.is_quiet(), "a pre-start heal must be dropped");
        for &strategy in &STRATEGIES {
            let without = run_observed_split(strategy, PartitionPlan::none());
            let with = run_observed_split(strategy, plan.clone());
            prop_assert_eq!(
                &with, &without,
                "healed-before-start plan perturbed observables: seed={} strategy={:?}",
                seed, strategy
            );
        }
    }

    /// Satellite 3 (PR 5): a *quiet* corruption plan — seeded, zero
    /// rates, checksum verification armed at every read boundary — is
    /// observably absent: neither output nor counter fingerprint nor a
    /// single nanosecond of virtual time moves, under every strategy.
    #[test]
    fn quiet_corruption_plan_changes_no_observable(seed in any::<u64>()) {
        for &strategy in &STRATEGIES {
            let without = run_observed_corrupt(strategy, CorruptionPlan::none());
            let with = run_observed_corrupt(strategy, CorruptionPlan::new(seed));
            prop_assert_eq!(
                &with, &without,
                "quiet corruption plan perturbed observables: seed={} strategy={:?}",
                seed, strategy
            );
        }
    }
}
