//! Job-level gray-failure ledger.
//!
//! When a [`PartitionPlan`](efind_cluster::PartitionPlan) cuts or degrades
//! links during a job, the runner records every detection and recovery
//! action here: which partitions and slow links fell inside the job's
//! window, which nodes the heartbeat detector suspected and how each
//! suspicion resolved (confirmed / refuted / false positive), which task
//! attempts were re-placed and which duplicate results were reconciled
//! exactly-once, how long results stalled waiting for heals, how long
//! reducers waited to fetch map outputs back from a healing node, and
//! what re-replication the detector scheduled — including the copies it
//! *cancelled* when a suspected node rejoined.
//!
//! Under the quiet plan the ledger stays [`PartitionLog::default`] and
//! contributes nothing — no counters, no report lines — so partition-free
//! runs are bit-identical to a build that never heard of partitions. Like
//! its siblings ([`RecoveryLog`](crate::RecoveryLog),
//! [`IntegrityLog`](crate::IntegrityLog)) it is completed and mirrored in
//! exactly one place, the partition block of the runner's `seal`, behind
//! [`Runner::end_job`](crate::Runner::end_job), which the runner skips as a
//! whole when the layer is Quiet — observably identical because only
//! nonzero fields ever become counters.

use efind_cluster::SimDuration;

use crate::counters::Counters;

/// Everything that happened to keep one job alive through gray failures.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PartitionLog {
    /// Partition events overlapping this job's window.
    pub events: usize,
    /// Link slowdowns overlapping this job's window.
    pub slow_links: usize,
    /// Nodes the heartbeat detector suspected.
    pub suspected: usize,
    /// Suspicions withdrawn because the node rejoined (heal or late
    /// heartbeat) — its pending re-replication was cancelled and its
    /// in-flight results reconciled.
    pub refuted: usize,
    /// Suspicions confirmed: the partition never healed and the node is
    /// treated as gone for the rest of the job.
    pub confirmed: usize,
    /// Suspicions of nodes that were reachable all along (slow links
    /// starving heartbeats past the threshold).
    pub false_positives: usize,
    /// Task attempts re-placed onto reachable nodes after suspicion.
    pub replaced_tasks: u64,
    /// Tasks whose results waited for a heal the detector never saw.
    pub stalled_tasks: u64,
    /// Virtual time results spent waiting on heals.
    pub stall: SimDuration,
    /// Duplicate results discarded during exactly-once reconciliation
    /// (a rejoined node's late answers, or losing redundant copies).
    pub orphan_results: u64,
    /// Shuffle fetches that waited out an isolation window instead of
    /// triggering a recompute (the partition healed).
    pub failover_fetches: u64,
    /// Virtual time reducers spent waiting for those heals.
    pub failover_wait: SimDuration,
    /// Re-replications the detector scheduled on suspicion.
    pub rereplication_pending: usize,
    /// Of those, cancelled because the node rejoined before they ran.
    pub rereplication_cancelled: usize,
    /// Chunks actually re-replicated for confirmed-gone nodes. The DFS
    /// state is *not* mutated — the isolated replicas still exist — so
    /// this is pure background cost, never a data change.
    pub rereplicated_chunks: usize,
    /// Bytes those background copies moved.
    pub rereplicated_bytes: u64,
    /// Virtual time of the background copies (priced on the network and
    /// disk models; not part of the job makespan).
    pub rereplication_time: SimDuration,
}

impl PartitionLog {
    /// True when no gray failure touched the job in any way.
    pub fn is_empty(&self) -> bool {
        *self == PartitionLog::default()
    }

    /// Mirrors the ledger into `mr.partition.*` counters. Only nonzero
    /// values are written, so a quiet run's counter set (and its
    /// fingerprint) is untouched.
    pub fn add_counters(&self, counters: &mut Counters) {
        counters.add_nonzero(&[
            ("mr.partition.events", self.events as i64),
            ("mr.partition.slow.links", self.slow_links as i64),
            ("mr.partition.suspected", self.suspected as i64),
            ("mr.partition.refuted", self.refuted as i64),
            ("mr.partition.confirmed", self.confirmed as i64),
            ("mr.partition.false.positives", self.false_positives as i64),
            ("mr.partition.replaced.tasks", self.replaced_tasks as i64),
            ("mr.partition.stalled.tasks", self.stalled_tasks as i64),
            ("mr.partition.stall.nanos", self.stall.as_nanos() as i64),
            ("mr.partition.orphan.results", self.orphan_results as i64),
            (
                "mr.partition.failover.fetches",
                self.failover_fetches as i64,
            ),
            (
                "mr.partition.failover.nanos",
                self.failover_wait.as_nanos() as i64,
            ),
            (
                "mr.partition.rereplication.pending",
                self.rereplication_pending as i64,
            ),
            (
                "mr.partition.rereplication.cancelled",
                self.rereplication_cancelled as i64,
            ),
            (
                "mr.partition.rereplicated.chunks",
                self.rereplicated_chunks as i64,
            ),
            (
                "mr.partition.rereplicated.bytes",
                self.rereplicated_bytes as i64,
            ),
            (
                "mr.partition.rereplication.nanos",
                self.rereplication_time.as_nanos() as i64,
            ),
        ]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_ledger_is_empty_and_counter_free() {
        let log = PartitionLog::default();
        assert!(log.is_empty());
        let mut counters = Counters::new();
        log.add_counters(&mut counters);
        assert!(counters.iter_sorted().is_empty());
    }

    #[test]
    fn nonzero_fields_become_counters() {
        let log = PartitionLog {
            events: 2,
            slow_links: 1,
            suspected: 3,
            refuted: 2,
            confirmed: 1,
            false_positives: 1,
            replaced_tasks: 5,
            stalled_tasks: 2,
            stall: SimDuration::from_millis(4),
            orphan_results: 3,
            failover_fetches: 6,
            failover_wait: SimDuration::from_millis(2),
            rereplication_pending: 3,
            rereplication_cancelled: 2,
            rereplicated_chunks: 7,
            rereplicated_bytes: 7168,
            rereplication_time: SimDuration::from_millis(1),
        };
        assert!(!log.is_empty());
        let mut counters = Counters::new();
        log.add_counters(&mut counters);
        assert_eq!(counters.get("mr.partition.events"), 2);
        assert_eq!(counters.get("mr.partition.suspected"), 3);
        assert_eq!(counters.get("mr.partition.refuted"), 2);
        assert_eq!(counters.get("mr.partition.false.positives"), 1);
        assert_eq!(counters.get("mr.partition.replaced.tasks"), 5);
        assert_eq!(counters.get("mr.partition.orphan.results"), 3);
        assert_eq!(counters.get("mr.partition.rereplication.cancelled"), 2);
        assert_eq!(
            counters.get("mr.partition.stall.nanos"),
            SimDuration::from_millis(4).as_nanos() as i64
        );
    }
}
