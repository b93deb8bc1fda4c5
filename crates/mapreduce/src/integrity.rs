//! Job-level data-integrity ledger.
//!
//! When a [`CorruptionPlan`](efind_cluster::CorruptionPlan) flips bytes in
//! DFS chunk replicas, shuffle payloads, lookup-cache entries, or index
//! responses, every read boundary verifies a CRC-32 and takes a repair
//! path on mismatch: re-read from an alternate replica, refetch the
//! shuffle payload, invalidate the poisoned cache entry, or re-transfer
//! the index response. The runner records each of those actions here —
//! corruption costs virtual time, never answers.
//!
//! Under the quiet plan the ledger stays [`IntegrityLog::default`] and
//! contributes nothing — no counters, no report lines — so
//! corruption-free runs are bit-identical to a build that never heard of
//! checksums (the hotpath golden fingerprints stay pinned). The ledger is
//! completed and mirrored in exactly one place, the corruption block of
//! the runner's `seal`, behind [`Runner::end_job`](crate::Runner::end_job)
//! — end-of-job sweep, the
//! counter-map scan of [`IntegrityLog::collect_lookup_counters`], the
//! mirror. The runner asks the plan's `is_quiet()` once per job and skips
//! that whole block when it is quiet — observably identical, since a quiet
//! layer's ledger is all zeros and zeros are never written.

use efind_cluster::SimDuration;

use crate::counters::Counters;

/// Everything that happened to keep one job's data trustworthy.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct IntegrityLog {
    /// Input chunks with at least one corrupt replica discovered at a
    /// read boundary, as `(file, chunk index)` sorted for determinism.
    pub corrupt_chunks: Vec<(String, usize)>,
    /// Replicas quarantined after failing CRC verification (removed from
    /// their chunk's host set so they are never served again).
    pub quarantined_replicas: usize,
    /// Wasted replica fetches: a reader pulled a copy, saw the CRC
    /// mismatch, and re-read from an alternate replica.
    pub chunk_rereads: u64,
    /// Virtual time those wasted fetches and re-reads cost (charged into
    /// the affected map tasks).
    pub reread_time: SimDuration,
    /// Shuffle payloads that failed verification at the reducer and were
    /// refetched from the source map output.
    pub shuffle_refetches: u64,
    /// Virtual time the shuffle refetches cost (charged into the
    /// affected reduce tasks).
    pub shuffle_refetch_time: SimDuration,
    /// Poisoned lookup-cache entries detected on a cache hit, evicted,
    /// and re-fetched from the index.
    pub cache_invalidations: u64,
    /// Index responses that failed verification on the wire and were
    /// re-transferred.
    pub lookup_refetches: u64,
    /// Chunks re-replicated from a clean copy after quarantine dropped
    /// them below their replication target.
    pub repaired_chunks: usize,
    /// Bytes those repair copies moved.
    pub repaired_bytes: u64,
    /// Virtual time of the repair copies (priced on the network and disk
    /// models; background work, not part of the job makespan).
    pub repair_time: SimDuration,
}

impl IntegrityLog {
    /// True when no integrity action of any kind was taken.
    pub fn is_empty(&self) -> bool {
        *self == IntegrityLog::default()
    }

    /// Sums the per-operator integrity counters the lookup layer wrote
    /// (`efind.<op>.<j>.integrity.cache.invalid` and
    /// `efind.<op>.<j>.integrity.refetch`) into the ledger's cache and
    /// lookup fields, so the job-level view aggregates every operator.
    pub fn collect_lookup_counters(&mut self, counters: &Counters) {
        for (name, v) in counters.iter_sorted() {
            if name.ends_with(".integrity.cache.invalid") {
                self.cache_invalidations += v.max(0) as u64;
            } else if name.ends_with(".integrity.refetch") {
                self.lookup_refetches += v.max(0) as u64;
            }
        }
    }

    /// Mirrors the ledger into `mr.integrity.*` counters. Only nonzero
    /// values are written, so a corruption-free run's counter set (and
    /// its fingerprint) is untouched.
    pub fn add_counters(&self, counters: &mut Counters) {
        counters.add_nonzero(&[
            (
                "mr.integrity.chunks.corrupt",
                self.corrupt_chunks.len() as i64,
            ),
            (
                "mr.integrity.replicas.quarantined",
                self.quarantined_replicas as i64,
            ),
            ("mr.integrity.chunk.rereads", self.chunk_rereads as i64),
            (
                "mr.integrity.reread.nanos",
                self.reread_time.as_nanos() as i64,
            ),
            (
                "mr.integrity.shuffle.refetches",
                self.shuffle_refetches as i64,
            ),
            (
                "mr.integrity.shuffle.refetch.nanos",
                self.shuffle_refetch_time.as_nanos() as i64,
            ),
            (
                "mr.integrity.cache.invalidations",
                self.cache_invalidations as i64,
            ),
            (
                "mr.integrity.lookup.refetches",
                self.lookup_refetches as i64,
            ),
            ("mr.integrity.repaired.chunks", self.repaired_chunks as i64),
            ("mr.integrity.repaired.bytes", self.repaired_bytes as i64),
            (
                "mr.integrity.repair.nanos",
                self.repair_time.as_nanos() as i64,
            ),
        ]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_ledger_is_empty_and_counter_free() {
        let log = IntegrityLog::default();
        assert!(log.is_empty());
        let mut counters = Counters::new();
        log.add_counters(&mut counters);
        assert!(counters.iter_sorted().is_empty());
    }

    #[test]
    fn nonzero_fields_become_counters() {
        let log = IntegrityLog {
            corrupt_chunks: vec![("input".into(), 3), ("input".into(), 7)],
            quarantined_replicas: 2,
            chunk_rereads: 2,
            reread_time: SimDuration::from_millis(4),
            shuffle_refetches: 5,
            shuffle_refetch_time: SimDuration::from_millis(1),
            cache_invalidations: 9,
            lookup_refetches: 3,
            repaired_chunks: 2,
            repaired_bytes: 2048,
            repair_time: SimDuration::from_millis(2),
        };
        assert!(!log.is_empty());
        let mut counters = Counters::new();
        log.add_counters(&mut counters);
        assert_eq!(counters.get("mr.integrity.chunks.corrupt"), 2);
        assert_eq!(counters.get("mr.integrity.replicas.quarantined"), 2);
        assert_eq!(counters.get("mr.integrity.shuffle.refetches"), 5);
        assert_eq!(counters.get("mr.integrity.cache.invalidations"), 9);
        assert_eq!(counters.get("mr.integrity.repaired.bytes"), 2048);
        assert_eq!(
            counters.get("mr.integrity.reread.nanos"),
            SimDuration::from_millis(4).as_nanos() as i64
        );
    }
}
