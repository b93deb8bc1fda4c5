//! Deterministic data-corruption plans.
//!
//! A [`CorruptionPlan`] decides — as a pure function of a seed and the
//! payload's identity — which stored or transferred payloads have a byte
//! flipped in them: DFS chunk *replicas* (each replica independently),
//! shuffle partitions in flight, lookup-cache entries at insertion, and
//! index responses on the wire. It is the third seeded plan in the family
//! of `FaultPlan` (index faults) and [`ChaosPlan`](crate::ChaosPlan)
//! (node crashes), built on the same shared draw helper
//! ([`efind_common::det`]); the quiet plan short-circuits everywhere and
//! changes no virtual observable.
//!
//! Like `ChaosPlan`, the plan is *descriptive*: it does not flip bytes by
//! itself. The DFS, the shuffle path, the lookup cache, and the accessor
//! consult it at their read/write boundaries, compare checksums, and take
//! the repair path on a mismatch. A corrupted copy is always *detected*
//! (CRC verification is on by default) and never served, so corruption
//! only ever costs time — unless every replica of a chunk is hit, in
//! which case the job fails fast with `Error::DataCorruption`.

use crate::node::NodeId;
use efind_common::det::draw_with;
use efind_common::Datum;

/// A deterministic schedule of data corruption for one run.
///
/// Rates are per-payload probabilities; each decision is an independent
/// hash draw namespaced by surface (`corrupt.chunk`, `corrupt.shuffle`,
/// `corrupt.cache`, `corrupt.response`), so the surfaces never correlate.
#[derive(Clone, Debug, PartialEq)]
pub struct CorruptionPlan {
    seed: u64,
    /// Probability an individual DFS chunk *replica* is corrupted at rest.
    chunk_rate: f64,
    /// Probability a (map source, reduce partition) shuffle payload is
    /// corrupted in flight.
    shuffle_rate: f64,
    /// Probability a lookup-cache entry is poisoned at insertion.
    cache_rate: f64,
    /// Probability one index-response transfer is corrupted on the wire.
    response_rate: f64,
    /// Whether read boundaries verify checksums. On by default; turning
    /// it off models a deployment that skips verification (the analyzer
    /// warns: corruption then goes undetected).
    verify: bool,
}

impl Default for CorruptionPlan {
    fn default() -> Self {
        CorruptionPlan {
            seed: 0,
            chunk_rate: 0.0,
            shuffle_rate: 0.0,
            cache_rate: 0.0,
            response_rate: 0.0,
            verify: true,
        }
    }
}

impl CorruptionPlan {
    /// The quiet plan: nothing is ever corrupted.
    pub fn none() -> Self {
        Self::default()
    }

    /// A quiet plan carrying a seed, to be armed with the rate builders.
    pub fn new(seed: u64) -> Self {
        CorruptionPlan {
            seed,
            ..Self::default()
        }
    }

    /// Sets the per-replica DFS chunk corruption probability.
    pub fn chunks(mut self, rate: f64) -> Self {
        self.chunk_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Sets the per-(source, partition) shuffle corruption probability.
    pub fn shuffle(mut self, rate: f64) -> Self {
        self.shuffle_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Sets the per-insertion cache poisoning probability.
    pub fn cache(mut self, rate: f64) -> Self {
        self.cache_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Sets the per-transfer index-response corruption probability.
    pub fn responses(mut self, rate: f64) -> Self {
        self.response_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Disables checksum verification at read boundaries (corruption then
    /// goes undetected; the analyzer flags this as EF018).
    pub fn without_verification(mut self) -> Self {
        self.verify = false;
        self
    }

    /// Seed the plan was built from (0 for the quiet plan).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// True when no payload can ever be corrupted. The quiet plan must
    /// never change any virtual observable; any nonzero surface rate arms
    /// the layer, and hot paths ask this outside their loops.
    pub fn is_quiet(&self) -> bool {
        self.chunk_rate == 0.0
            && self.shuffle_rate == 0.0
            && self.cache_rate == 0.0
            && self.response_rate == 0.0
    }

    /// True when read boundaries verify checksums.
    pub fn verification_enabled(&self) -> bool {
        self.verify
    }

    /// True when the plan can corrupt DFS chunk replicas.
    pub fn corrupts_chunks(&self) -> bool {
        self.chunk_rate > 0.0
    }

    /// True when the plan can corrupt shuffle payloads in flight.
    pub fn corrupts_shuffle(&self) -> bool {
        self.shuffle_rate > 0.0
    }

    /// True when the plan can poison lookup-cache entries.
    pub fn corrupts_cache(&self) -> bool {
        self.cache_rate > 0.0
    }

    /// True when the plan can corrupt index responses on the wire.
    pub fn corrupts_responses(&self) -> bool {
        self.response_rate > 0.0
    }

    /// True when DFS chunk reads both can be corrupted *and* verify
    /// CRCs — the only combination where the chunk sub-layer does work.
    pub fn verifies_chunks(&self) -> bool {
        self.corrupts_chunks() && self.verification_enabled()
    }

    /// True when shuffle payloads are CRC-verified at the reducer.
    pub fn verifies_shuffle(&self) -> bool {
        self.corrupts_shuffle() && self.verification_enabled()
    }

    /// True when lookup-cache entries carry and check entry CRCs.
    pub fn verifies_cache(&self) -> bool {
        self.corrupts_cache() && self.verification_enabled()
    }

    /// True when index responses are verified (and re-fetched) on the
    /// accessor path.
    pub fn verifies_responses(&self) -> bool {
        self.corrupts_responses() && self.verification_enabled()
    }

    /// Whether the replica of chunk `chunk` of `file` stored on `host` is
    /// corrupt. Pure in `(seed, file, chunk, host)`: every reader of the
    /// same replica sees the same answer, and distinct replicas of the
    /// same chunk draw independently.
    pub fn chunk_replica_corrupt(&self, file: &str, chunk: usize, host: NodeId) -> bool {
        if self.chunk_rate == 0.0 {
            return false;
        }
        let u = draw_with(self.seed, "corrupt.chunk", |payload| {
            payload.extend_from_slice(file.as_bytes());
            payload.extend_from_slice(&(chunk as u64).to_le_bytes());
            payload.extend_from_slice(&host.0.to_le_bytes());
        });
        u < self.chunk_rate
    }

    /// Whether the shuffle payload from map source `source` to reduce
    /// partition `partition` of job `job` is corrupted in flight. Map
    /// outputs remain in memory at the source, so a corrupted transfer is
    /// always recoverable by refetching.
    pub fn shuffle_corrupt(&self, job: &str, source: usize, partition: usize) -> bool {
        if self.shuffle_rate == 0.0 {
            return false;
        }
        let u = draw_with(self.seed, "corrupt.shuffle", |payload| {
            payload.extend_from_slice(job.as_bytes());
            payload.extend_from_slice(&(source as u64).to_le_bytes());
            payload.extend_from_slice(&(partition as u64).to_le_bytes());
        });
        u < self.shuffle_rate
    }

    /// Whether a cache entry inserted under `scope` (the per-index counter
    /// prefix) for `key` is poisoned. `generation` is the insertion
    /// ordinal for that key within the task, so re-inserted entries draw
    /// fresh.
    pub fn cache_corrupt(&self, scope: &str, key: &Datum, generation: u64) -> bool {
        if self.cache_rate == 0.0 {
            return false;
        }
        let u = draw_with(self.seed, "corrupt.cache", |payload| {
            payload.extend_from_slice(scope.as_bytes());
            key.encode_into(payload);
            payload.extend_from_slice(&generation.to_le_bytes());
        });
        u < self.cache_rate
    }

    /// Whether transfer number `attempt` of the index response for `key`
    /// under `scope` is corrupted on the wire. Retried transfers draw
    /// fresh, so a corrupted response is recoverable by re-fetching
    /// (attempt + 1).
    pub fn response_corrupt(&self, scope: &str, key: &Datum, attempt: u32) -> bool {
        if self.response_rate == 0.0 {
            return false;
        }
        let u = draw_with(self.seed, "corrupt.response", |payload| {
            payload.extend_from_slice(scope.as_bytes());
            key.encode_into(payload);
            payload.extend_from_slice(&attempt.to_le_bytes());
        });
        u < self.response_rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_plan_is_quiet() {
        assert!(CorruptionPlan::none().is_quiet());
        assert!(CorruptionPlan::new(42).is_quiet());
        assert!(!CorruptionPlan::new(42).chunk_replica_corrupt("f", 0, NodeId(0)));
        assert!(!CorruptionPlan::new(42).shuffle_corrupt("j", 0, 0));
        assert!(CorruptionPlan::none().verification_enabled());
    }

    #[test]
    fn quiet_classification_and_verify_gates() {
        // Configured-but-quiet stays quiet; any one surface's rate arms
        // the layer on its own.
        assert!(CorruptionPlan::new(42).is_quiet());
        assert!(!CorruptionPlan::new(42).cache(0.1).is_quiet());
        assert!(!CorruptionPlan::new(1).chunks(0.1).is_quiet());
        assert!(!CorruptionPlan::new(1).shuffle(0.1).is_quiet());
        assert!(!CorruptionPlan::new(1).responses(0.1).is_quiet());
        // A sub-layer verifies only when it can corrupt AND verification
        // is on — disabling verification silences every verify gate.
        let armed = CorruptionPlan::new(1).chunks(0.1).shuffle(0.1);
        assert!(armed.verifies_chunks() && armed.verifies_shuffle());
        assert!(!armed.verifies_cache() && !armed.verifies_responses());
        let blind = armed.without_verification();
        assert!(!blind.is_quiet());
        assert!(!blind.verifies_chunks() && !blind.verifies_shuffle());
    }

    #[test]
    fn armed_plan_is_deterministic() {
        let plan = CorruptionPlan::new(7).chunks(0.3).shuffle(0.3);
        for chunk in 0..50 {
            for host in 0..4 {
                assert_eq!(
                    plan.chunk_replica_corrupt("f", chunk, NodeId(host)),
                    plan.chunk_replica_corrupt("f", chunk, NodeId(host)),
                );
            }
        }
        assert_eq!(
            plan.shuffle_corrupt("job", 3, 1),
            plan.shuffle_corrupt("job", 3, 1)
        );
    }

    #[test]
    fn replicas_draw_independently() {
        // At a 50% rate some chunk must differ across its replicas —
        // that independence is what makes replication a repair path.
        let plan = CorruptionPlan::new(11).chunks(0.5);
        let split = (0..100).any(|c| {
            plan.chunk_replica_corrupt("f", c, NodeId(0))
                != plan.chunk_replica_corrupt("f", c, NodeId(1))
        });
        assert!(split);
    }

    #[test]
    fn rates_are_roughly_honored() {
        let plan = CorruptionPlan::new(3).chunks(0.25);
        let hits = (0..4000)
            .filter(|&c| plan.chunk_replica_corrupt("f", c, NodeId(0)))
            .count();
        let rate = hits as f64 / 4000.0;
        assert!((0.20..=0.30).contains(&rate), "rate={rate}");
    }

    #[test]
    fn surfaces_and_seeds_are_independent() {
        let a = CorruptionPlan::new(1).chunks(0.5).shuffle(0.5);
        let b = CorruptionPlan::new(2).chunks(0.5).shuffle(0.5);
        let seed_diverges = (0..200).any(|c| {
            a.chunk_replica_corrupt("f", c, NodeId(0)) != b.chunk_replica_corrupt("f", c, NodeId(0))
        });
        assert!(seed_diverges);
        let surface_diverges = (0..200)
            .any(|c| a.chunk_replica_corrupt("f", c, NodeId(0)) != a.shuffle_corrupt("f", c, 0));
        assert!(surface_diverges);
    }

    #[test]
    fn response_attempts_draw_fresh() {
        // A corrupted response must eventually verify on a refetch.
        let plan = CorruptionPlan::new(5).responses(0.5);
        let recovered = (0..100i64).any(|k| {
            let key = Datum::Int(k);
            plan.response_corrupt("s.", &key, 0) && !plan.response_corrupt("s.", &key, 1)
        });
        assert!(recovered);
    }

    #[test]
    fn verification_toggle() {
        let plan = CorruptionPlan::new(9).cache(0.1).without_verification();
        assert!(!plan.verification_enabled());
        assert!(plan.corrupts_cache());
        assert!(!plan.corrupts_chunks());
    }
}
