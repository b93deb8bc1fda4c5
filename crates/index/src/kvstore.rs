//! A Cassandra-like distributed key-value store.
//!
//! The paper's experiments run "Apache Cassandra to provide index services
//! … divided into 32 partitions using the HashPartitioner of Apache
//! Hadoop. One index partition is replicated to three data nodes." This
//! module reproduces exactly that structure: hash partitioning over the
//! same `fx_hash_datum` the MapReduce shuffle uses (so EFind can
//! co-partition shuffles with the index), deterministic replica placement,
//! and a service-time model of `base + bytes/scan_bandwidth`.

use std::sync::Arc;

use efind::{IndexAccessor, LookupResult, PartitionScheme};
use efind_cluster::{Cluster, NodeId, SimDuration};
use efind_common::{fx_hash_bytes, fx_hash_datum, Datum, FxHashMap};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Configuration of a [`KvStore`].
#[derive(Clone, Debug)]
pub struct KvStoreConfig {
    /// Number of hash partitions (paper: 32).
    pub num_partitions: usize,
    /// Replicas per partition (paper: 3).
    pub replication: usize,
    /// Fixed per-lookup service time (request handling, hash probe).
    pub base_serve: SimDuration,
    /// Additional service seconds per result byte (storage scan).
    pub serve_secs_per_byte: f64,
    /// Placement seed.
    pub seed: u64,
}

impl Default for KvStoreConfig {
    fn default() -> Self {
        KvStoreConfig {
            num_partitions: 32,
            replication: 3,
            base_serve: SimDuration::from_micros(500),
            serve_secs_per_byte: 5.0e-9, // ~200 MB/s storage scan
            seed: 0xCA55,
        }
    }
}

/// Hash partition scheme shared with EFind's shuffle.
pub struct HashScheme {
    hosts: Vec<Vec<NodeId>>,
}

impl PartitionScheme for HashScheme {
    fn num_partitions(&self) -> usize {
        self.hosts.len()
    }

    fn partition_of(&self, key: &Datum) -> usize {
        (fx_hash_datum(key) % self.hosts.len() as u64) as usize
    }

    fn hosts(&self, partition: usize) -> Vec<NodeId> {
        self.hosts[partition].clone()
    }
}

/// The distributed key-value store.
///
/// Each key's value list is stored as one `Arc<[Datum]>`, created in
/// [`build`](Self::build); [`try_lookup`](IndexAccessor::try_lookup) hands
/// out a refcount bump of that block, never a copy.
pub struct KvStore {
    name: String,
    partitions: Vec<FxHashMap<Datum, Arc<[Datum]>>>,
    /// The answer for a key the store does not hold.
    empty: Arc<[Datum]>,
    scheme: Arc<HashScheme>,
    config: KvStoreConfig,
}

impl KvStore {
    /// Builds a store over `cluster` from `(key, values)` pairs. A key that
    /// occurs more than once keeps the value list of its *last* pair.
    pub fn build(
        name: impl Into<String>,
        cluster: &Cluster,
        config: KvStoreConfig,
        pairs: impl IntoIterator<Item = (Datum, Vec<Datum>)>,
    ) -> Self {
        let name = name.into();
        let num_p = config.num_partitions.max(1);
        let mut rng = SmallRng::seed_from_u64(config.seed ^ fx_hash_bytes(name.as_bytes()));
        let n_nodes = cluster.num_nodes();
        let replication = config.replication.clamp(1, n_nodes as usize);
        let hosts: Vec<Vec<NodeId>> = (0..num_p)
            .map(|p| {
                let mut hs = vec![NodeId((p % n_nodes as usize) as u16)];
                while hs.len() < replication {
                    let cand = NodeId(rng.gen_range(0..n_nodes));
                    if !hs.contains(&cand) {
                        hs.push(cand);
                    }
                }
                hs
            })
            .collect();
        let scheme = Arc::new(HashScheme { hosts });

        let mut partitions: Vec<FxHashMap<Datum, Arc<[Datum]>>> =
            (0..num_p).map(|_| FxHashMap::default()).collect();
        for (k, v) in pairs {
            partitions[scheme.partition_of(&k)].insert(k, v.into());
        }
        KvStore {
            name,
            partitions,
            empty: Arc::new([]),
            scheme,
            config,
        }
    }

    fn stored(&self, key: &Datum) -> Option<&Arc<[Datum]>> {
        self.partitions[self.scheme.partition_of(key)].get(key)
    }

    /// Number of stored keys.
    pub fn len(&self) -> usize {
        self.partitions.iter().map(FxHashMap::len).sum()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The partition scheme (also returned through the accessor trait).
    pub fn scheme(&self) -> Arc<HashScheme> {
        self.scheme.clone()
    }
}

impl IndexAccessor for KvStore {
    fn name(&self) -> &str {
        &self.name
    }

    fn lookup(&self, key: &Datum) -> Vec<Datum> {
        self.stored(key).map_or_else(Vec::new, |v| v.to_vec())
    }

    /// An absent key answers an empty `Hit`, as the provided `try_lookup`
    /// did for this store.
    fn try_lookup(&self, key: &Datum) -> LookupResult {
        LookupResult::Hit(self.stored(key).unwrap_or(&self.empty).clone())
    }

    /// Finds `key`'s entry and reads the header of its value block — the
    /// two memory misses a lookup waits on, one after the other — so that
    /// a window of keys hinted back to back waits on them side by side.
    fn prefetch(&self, key: &Datum) {
        if let Some(values) = self.stored(key) {
            std::hint::black_box(Arc::strong_count(values));
        }
    }

    fn serve_time(&self, _key: &Datum, result_bytes: u64) -> SimDuration {
        self.config.base_serve
            + SimDuration::from_secs_f64(result_bytes as f64 * self.config.serve_secs_per_byte)
    }

    fn partition_scheme(&self) -> Option<Arc<dyn PartitionScheme>> {
        Some(self.scheme.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(n: i64) -> KvStore {
        KvStore::build(
            "kv",
            &Cluster::edbt_testbed(),
            KvStoreConfig::default(),
            (0..n).map(|i| (Datum::Int(i), vec![Datum::Text(format!("v{i}"))])),
        )
    }

    #[test]
    fn lookup_roundtrip() {
        let s = store(1000);
        assert_eq!(s.len(), 1000);
        for i in [0i64, 1, 500, 999] {
            assert_eq!(s.lookup(&Datum::Int(i)), vec![Datum::Text(format!("v{i}"))]);
        }
        assert!(s.lookup(&Datum::Int(5000)).is_empty());
    }

    #[test]
    fn a_duplicated_build_key_keeps_its_last_list() {
        let s = KvStore::build(
            "kv",
            &Cluster::edbt_testbed(),
            KvStoreConfig::default(),
            vec![
                (Datum::Int(1), vec![Datum::Int(10)]),
                (Datum::Int(1), vec![Datum::Int(20)]),
            ],
        );
        assert_eq!(s.len(), 1);
        assert_eq!(s.lookup(&Datum::Int(1)), vec![Datum::Int(20)]);
    }

    #[test]
    fn a_prefetch_changes_nothing_a_lookup_or_the_store_shows() {
        let s = store(100);
        let keys = [
            Datum::Int(5),
            Datum::Int(5_000),
            Datum::Text("absent".into()),
        ];
        let answers = |s: &KvStore| -> Vec<(Vec<Datum>, usize)> {
            keys.iter()
                .map(|k| match s.try_lookup(k) {
                    LookupResult::Hit(v) => (v.to_vec(), Arc::strong_count(&v)),
                    other => panic!("{other:?}"),
                })
                .collect()
        };
        let before = answers(&s);
        for k in &keys {
            s.prefetch(k);
        }
        assert_eq!(answers(&s), before);
        assert_eq!(s.len(), 100);
        assert_eq!(before[0].0, vec![Datum::Text("v5".into())]);
        assert!(before[1].0.is_empty() && before[2].0.is_empty());
    }

    #[test]
    fn partitions_spread_keys() {
        let s = store(10_000);
        let sizes: Vec<usize> = s.partitions.iter().map(FxHashMap::len).collect();
        assert_eq!(sizes.len(), 32);
        assert!(sizes.iter().all(|&n| n > 150), "{sizes:?}");
    }

    #[test]
    fn scheme_matches_storage() {
        let s = store(100);
        let scheme = s.scheme();
        for i in 0..100i64 {
            let k = Datum::Int(i);
            let p = scheme.partition_of(&k);
            assert!(s.partitions[p].contains_key(&k));
        }
    }

    #[test]
    fn replicas_distinct_and_sized() {
        let s = store(10);
        let scheme = s.scheme();
        for p in 0..scheme.num_partitions() {
            let hosts = scheme.hosts(p);
            assert_eq!(hosts.len(), 3);
            let mut sorted = hosts.clone();
            sorted.sort();
            sorted.dedup();
            assert_eq!(sorted.len(), 3);
        }
    }

    #[test]
    fn serve_time_grows_with_result_size() {
        let s = store(1);
        let small = s.serve_time(&Datum::Int(0), 10);
        let large = s.serve_time(&Datum::Int(0), 30_000);
        assert!(large > small);
        assert!(small >= SimDuration::from_micros(100));
    }

    #[test]
    fn accessor_exposes_scheme() {
        let s = store(1);
        assert!(s.partition_scheme().is_some());
    }
}
