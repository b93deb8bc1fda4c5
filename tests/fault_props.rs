//! Property pins for the injection layers' core guarantees, over random
//! seeds, through the shared harness of `common/layers.rs`:
//!
//! 1. **Quiet-plan transparency:** a seeded but zero-rate fault plan, or
//!    a seeded but zero-rate corruption plan (CRC verification armed at
//!    every read boundary), changes no observable under any mode.
//! 2. **Exactly-once-effective retries:** transient faults at rates
//!    0.05–0.2, under any miss policy, hold the injection contract (plain
//!    output, bit-identical double run) and are really injected.
//! 3. **Pre-start heals:** a partition window that heals before the job
//!    starts never existed.
//!
//! Each case spins up a full simulated cluster, so the case counts stay
//! small; the pinned matrix of each layer's suite covers the pinned seeds.

mod common;

use common::layers::{
    check_cell, equals_plain, num_nodes, Composition, Outcome, CORRUPTION, EVERY_MODE, FAULTS,
    MODES, UNIFORM_MODES,
};
use efind_cluster::{NodeId, PartitionPlan, SimTime};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A zero-rate fault plan, with the fault state installed in every
    /// charged lookup, is observably absent under every mode.
    #[test]
    fn quiet_fault_plan_changes_no_observable(seed in any::<u64>()) {
        equals_plain(&Composition::quiet(seed, num_nodes()).only(FAULTS), EVERY_MODE)
            .map_err(|e| TestCaseError::fail(format!("seed={seed:#x}: {e}")))?;
    }

    /// Transient failures are exactly-once-effective: whatever the seed,
    /// the drawn rate and miss policy, and the mode, the cell holds the
    /// contract and faults were really injected.
    #[test]
    fn transient_failures_never_change_output(
        seed in any::<u64>(),
        m in 0usize..MODES.len(),
    ) {
        match check_cell(seed, FAULTS, m).map_err(TestCaseError::fail)? {
            Outcome::Answered(run) => prop_assert!(
                run.get("work.faults") > 0,
                "seed={:#x} mode={:?}: no fault injected", seed, MODES[m]
            ),
            Outcome::FailedFast(e) => {
                return Err(TestCaseError::fail(format!("transient faults failed the job: {e}")));
            }
        }
    }

    /// A seeded but zero-rate corruption plan, checksum verification
    /// armed at every read boundary, is observably absent under every
    /// mode.
    #[test]
    fn quiet_corruption_plan_changes_no_observable(seed in any::<u64>()) {
        equals_plain(&Composition::quiet(seed, num_nodes()).only(CORRUPTION), EVERY_MODE)
            .map_err(|e| TestCaseError::fail(format!("seed={seed:#x}: {e}")))?;
    }

    /// A partition that heals before the job starts never existed: jobs
    /// start at virtual zero and windows are half-open `[start, heal)`,
    /// so a window closing at or before its own start is dropped at
    /// insertion, the plan is quiet, and the run equals the plain one —
    /// whatever the seed, node, window or strategy.
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
        let netsplit = PartitionPlan::new(seed)
            .split(&[NodeId(node)], start, Some(heal))
            .slow_link(NodeId(node), start, Some(heal), 4.0)
            .slow_link(NodeId((node + 1) % 4), SimTime::ZERO, None, factor);
        prop_assert!(netsplit.is_quiet(), "a pre-start heal must be dropped");
        let layers = Composition { netsplit, ..Composition::plain() };
        equals_plain(&layers, UNIFORM_MODES)
            .map_err(|e| TestCaseError::fail(format!("seed={seed}: {e}")))?;
    }
}
