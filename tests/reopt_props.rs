//! Property pins for the cross-job re-optimization store (ISSUE 8):
//!
//! 1. **Fingerprint stability** — the plan-neutral operator fingerprint
//!    depends only on the job's *shape* (operator names, arity, key
//!    kinds, accessor declarations, placement). Rebuilding the same job,
//!    or perturbing workload knobs that leave the shape alone (data
//!    volume, lookup latency, RNG seed), never moves the fingerprint —
//!    otherwise a store written yesterday could not match today's run.
//! 2. **Plan-fingerprint distinctness** — the four strategies of Table 1
//!    hash to four different plan fingerprints under the same shape, so
//!    store history can attribute observations to the plan that produced
//!    them.
//! 3. **Quiet-store transparency** (PR 7 discipline) — an *empty* or
//!    *absent* store compiles to exactly the pre-store plan: every
//!    virtual observable is bit-identical to a runtime that never heard
//!    of the store, in both uniform and adaptive modes.
//!
//! Each quiet-store case spins up a full simulated cluster, so the case
//! counts stay small; `tests/reopt_persistence.rs` covers the warm path
//! densely.

mod common;

use common::{counter_fingerprint, file_fingerprint, Observables};
use efind_repro::cluster::SimDuration;
use efind_repro::core::{
    fingerprint_operator, fingerprint_plan, forced_plan, EFindRuntime, Mode, StatStore, Strategy,
};
use efind_repro::workloads::log;
use proptest::prelude::*;

/// A small LOG configuration; cheap enough for proptest cases.
fn tiny_config() -> log::LogConfig {
    log::LogConfig {
        num_events: 3_000,
        num_ips: 100,
        num_urls: 50,
        chunks: 24,
        ..log::LogConfig::default()
    }
}

/// The shape fingerprints of every operator of a job, in placement order.
fn shape_fingerprints(ijob: &efind_repro::core::IndexJobConf) -> Vec<u64> {
    ijob.operators()
        .map(|(bound, placement)| fingerprint_operator(bound, placement).0)
        .collect()
}

/// How the store is (not) attached in the quiet-transparency property.
#[derive(Clone, Copy, Debug)]
enum StoreSetup {
    /// Pre-store behavior: the runtime never hears of a store.
    None,
    /// An explicitly attached, empty in-memory store.
    Empty,
    /// A store loaded from a path that does not exist.
    AbsentFile,
}

fn run_observed(mode: Mode, setup: StoreSetup) -> Observables {
    let mut s = log::scenario(&tiny_config());
    let mut rt = EFindRuntime::new(&s.cluster, &mut s.dfs);
    match setup {
        StoreSetup::None => {}
        StoreSetup::Empty => rt.attach_store(StatStore::new(8)),
        StoreSetup::AbsentFile => {
            let missing = std::env::temp_dir()
                .join(format!("efind-reopt-absent-{}", std::process::id()))
                .join("never-written.store");
            rt.attach_store_file(&missing);
        }
    }
    let res = rt.run(&s.ijob, mode).unwrap();
    let mut captured: Observables = vec![
        ("total.nanos".into(), res.total_time.as_nanos()),
        ("jobs".into(), res.jobs.len() as u64),
        ("replanned".into(), res.replanned as u64),
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
        file_fingerprint(rt.dfs, "log.topk"),
    ));
    captured
}

const STRATEGIES: [Strategy; 4] = [
    Strategy::Baseline,
    Strategy::Cache,
    Strategy::Repartition,
    Strategy::IndexLocality,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Rebuilding a job — and perturbing every shape-preserving workload
    /// knob — leaves the operator fingerprints untouched.
    #[test]
    fn fingerprints_are_invariant_under_reconstruction(
        num_events in 500usize..5_000,
        num_ips in 50usize..500,
        extra_ms in 0u64..6,
        seed in any::<u64>(),
    ) {
        let reference = shape_fingerprints(&log::scenario(&tiny_config()).ijob);
        let perturbed = log::LogConfig {
            num_events,
            num_ips,
            extra_delay: SimDuration::from_millis(extra_ms),
            seed,
            ..tiny_config()
        };
        let got = shape_fingerprints(&log::scenario(&perturbed).ijob);
        prop_assert_eq!(
            got, reference,
            "shape-preserving knobs must not move the fingerprint"
        );
        // And a literal re-construction of the *same* config matches too.
        let again = shape_fingerprints(&log::scenario(&tiny_config()).ijob);
        prop_assert_eq!(again, shape_fingerprints(&log::scenario(&tiny_config()).ijob));
    }
}

#[test]
fn plan_fingerprints_are_distinct_across_the_four_strategies() {
    let s = log::scenario(&tiny_config());
    for (bound, placement) in s.ijob.operators() {
        let shape = fingerprint_operator(bound, placement);
        // A fully capable accessor (shuffleable, partition scheme) keeps
        // all four strategies representable without degradation.
        let caps = vec![(true, true); bound.indices.len()];
        let mut fps: Vec<u64> = STRATEGIES
            .iter()
            .map(|&st| fingerprint_plan(shape, &forced_plan(&caps, st)))
            .collect();
        fps.sort_unstable();
        fps.dedup();
        assert_eq!(fps.len(), 4, "strategies must hash to distinct plan fps");
    }
}

#[test]
fn empty_or_absent_store_is_observably_absent() {
    // Uniform and adaptive modes, each under all three quiet setups: the
    // store may not perturb a single virtual observable until it has
    // measured history to offer.
    for mode in [
        Mode::Uniform(Strategy::Baseline),
        Mode::Uniform(Strategy::Cache),
        Mode::Dynamic,
    ] {
        let without = run_observed(mode.clone(), StoreSetup::None);
        for setup in [StoreSetup::Empty, StoreSetup::AbsentFile] {
            let with = run_observed(mode.clone(), setup);
            assert_eq!(
                with, without,
                "quiet store perturbed observables: mode={mode:?} setup={setup:?}"
            );
        }
    }
}
