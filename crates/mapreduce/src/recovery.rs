//! Job-level crash-recovery ledger.
//!
//! When a [`ChaosPlan`](efind_cluster::ChaosPlan) kills nodes during a job,
//! the runner records every recovery action here: which crashes fell inside
//! the job's window, which completed map tasks lost their (node-local)
//! outputs and were recomputed, how often reducers retried their shuffle
//! fetches and how long they backed off, and what the DFS re-replicated in
//! the background. The adaptive runtime reads the ledger to reuse exactly
//! the completed-task results that *survived* a crash when it re-plans
//! (the paper's Figs. 8–10 reuse claim, under real node loss).
//!
//! Under the quiet plan the ledger stays [`RecoveryLog::default`] and
//! contributes nothing — no counters, no report lines — so crash-free runs
//! are bit-identical to a build that never heard of crashes. The ledger
//! is completed and mirrored in exactly one place, the chaos block of the
//! runner's `seal`, behind [`Runner::end_job`](crate::Runner::end_job);
//! the runner asks the plan's `is_quiet()` once per job and skips that
//! whole block when it is quiet, which is observably identical because
//! only nonzero fields ever become counters.

use efind_cluster::{CrashEvent, SimDuration};

use crate::counters::Counters;

/// Everything that happened to keep one job alive through node crashes.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RecoveryLog {
    /// Crash events that fell inside this job's window, in time order;
    /// no other job of a run lists them. The exception is a map-side
    /// re-plan's: it applies every planned crash up front, and the
    /// re-planned pipeline's last job — the one whose ledger records the
    /// re-plan's reuse — lists them wherever they fall.
    pub crashes: Vec<CrashEvent>,
    /// Recompute waves scheduled (at most one per crash that lost
    /// completed map outputs).
    pub recompute_waves: usize,
    /// Map tasks whose completed outputs died with a node and were
    /// recomputed, sorted by task id.
    pub recomputed_map_tasks: Vec<usize>,
    /// Task attempts killed mid-run by a crash and re-executed elsewhere
    /// (map, recompute, and reduce attempts combined).
    pub crashed_attempts: usize,
    /// Shuffle fetches that failed against a dead host and were retried.
    pub fetch_retries: u64,
    /// Virtual time reducers spent in fetch backoff before the recomputed
    /// outputs became available.
    pub fetch_backoff: SimDuration,
    /// Chunks the DFS re-replicated in the background after crashes.
    pub rereplicated_chunks: usize,
    /// Bytes those background copies moved.
    pub rereplicated_bytes: u64,
    /// Virtual time of the background copies (priced on the network and
    /// disk models; not part of the job makespan).
    pub rereplication_time: SimDuration,
    /// Completed first-wave tasks whose results survived every crash —
    /// exactly the set the adaptive re-plan may reuse. Empty unless the
    /// adaptive runtime filled it in during a re-plan.
    pub surviving_tasks: Vec<usize>,
    /// Completed first-wave tasks whose results were lost to a crash and
    /// therefore re-mapped by the re-planned job. Empty unless the
    /// adaptive runtime filled it in during a re-plan.
    pub lost_tasks: Vec<usize>,
}

impl RecoveryLog {
    /// True when no recovery action of any kind was taken.
    pub fn is_empty(&self) -> bool {
        *self == RecoveryLog::default()
    }

    /// Mirrors the ledger into `mr.recovery.*` counters. Only nonzero
    /// values are written, so a quiet run's counter set (and its
    /// fingerprint) is untouched.
    pub fn add_counters(&self, counters: &mut Counters) {
        counters.add_nonzero(&[
            ("mr.recovery.crashes", self.crashes.len() as i64),
            ("mr.recovery.recompute.waves", self.recompute_waves as i64),
            (
                "mr.recovery.recompute.tasks",
                self.recomputed_map_tasks.len() as i64,
            ),
            ("mr.recovery.crashed.attempts", self.crashed_attempts as i64),
            ("mr.recovery.fetch.retries", self.fetch_retries as i64),
            (
                "mr.recovery.fetch.backoff.nanos",
                self.fetch_backoff.as_nanos() as i64,
            ),
            (
                "mr.recovery.rereplicated.chunks",
                self.rereplicated_chunks as i64,
            ),
            (
                "mr.recovery.rereplicated.bytes",
                self.rereplicated_bytes as i64,
            ),
            (
                "mr.recovery.rereplication.nanos",
                self.rereplication_time.as_nanos() as i64,
            ),
            (
                "mr.recovery.reused.tasks",
                self.surviving_tasks.len() as i64,
            ),
        ]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use efind_cluster::{NodeId, SimTime};

    #[test]
    fn default_ledger_is_empty_and_counter_free() {
        let log = RecoveryLog::default();
        assert!(log.is_empty());
        let mut counters = Counters::new();
        log.add_counters(&mut counters);
        assert!(counters.iter_sorted().is_empty());
    }

    #[test]
    fn nonzero_fields_become_counters() {
        let log = RecoveryLog {
            crashes: vec![CrashEvent {
                node: NodeId(3),
                at: SimTime::from_nanos(10),
            }],
            recompute_waves: 1,
            recomputed_map_tasks: vec![2, 5],
            crashed_attempts: 1,
            fetch_retries: 8,
            fetch_backoff: SimDuration::from_millis(300),
            rereplicated_chunks: 4,
            rereplicated_bytes: 4096,
            rereplication_time: SimDuration::from_millis(1),
            surviving_tasks: vec![0, 1, 3],
            lost_tasks: vec![2],
        };
        assert!(!log.is_empty());
        let mut counters = Counters::new();
        log.add_counters(&mut counters);
        assert_eq!(counters.get("mr.recovery.crashes"), 1);
        assert_eq!(counters.get("mr.recovery.recompute.tasks"), 2);
        assert_eq!(counters.get("mr.recovery.fetch.retries"), 8);
        assert_eq!(counters.get("mr.recovery.reused.tasks"), 3);
        assert_eq!(
            counters.get("mr.recovery.fetch.backoff.nanos"),
            SimDuration::from_millis(300).as_nanos() as i64
        );
    }
}
