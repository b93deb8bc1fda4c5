//! A range-partitioned distributed B-tree.
//!
//! Models the "practical scalable distributed B-tree" the paper cites
//! \[Aguilera et al., VLDB 2008\]: a root node describes the range
//! partition scheme of the second-level nodes (the paper uses exactly this
//! as the example of obtaining a partition scheme in §3.4). Each partition
//! holds a contiguous key range in a local B-tree; point lookups route
//! through the root, and range scans visit the covered partitions.

use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::Arc;

use efind::{IndexAccessor, LookupResult, PartitionScheme};
use efind_cluster::{Cluster, NodeId, SimDuration};
use efind_common::{fx_hash_bytes, Datum};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The root router: partition `p` owns keys in
/// `(separators[p-1], separators[p]]`-style contiguous ranges.
pub struct RangeScheme {
    /// Upper-boundary key of each partition except the last (which is
    /// unbounded above).
    separators: Vec<Datum>,
    hosts: Vec<Vec<NodeId>>,
}

impl RangeScheme {
    fn route(&self, key: &Datum) -> usize {
        // First partition whose separator is >= key.
        self.separators.partition_point(|s| s < key)
    }
}

impl PartitionScheme for RangeScheme {
    fn num_partitions(&self) -> usize {
        self.hosts.len()
    }

    fn partition_of(&self, key: &Datum) -> usize {
        self.route(key)
    }

    fn hosts(&self, partition: usize) -> Vec<NodeId> {
        self.hosts[partition].clone()
    }
}

/// The distributed B-tree.
///
/// Each key's value list is stored as one `Arc<[Datum]>`, created in
/// [`build`](Self::build); [`try_lookup`](IndexAccessor::try_lookup) hands
/// out a refcount bump of that block, never a copy.
pub struct DistBTree {
    name: String,
    partitions: Vec<BTreeMap<Datum, Arc<[Datum]>>>,
    /// The answer for a key the tree does not hold.
    empty: Arc<[Datum]>,
    scheme: Arc<RangeScheme>,
    base_serve: SimDuration,
    serve_secs_per_byte: f64,
}

impl DistBTree {
    /// Builds a tree from `(key, values)` pairs split into `num_partitions`
    /// contiguous ranges of roughly equal cardinality. A key that occurs
    /// more than once keeps the value list of its *first* pair.
    pub fn build(
        name: impl Into<String>,
        cluster: &Cluster,
        num_partitions: usize,
        replication: usize,
        pairs: impl IntoIterator<Item = (Datum, Vec<Datum>)>,
    ) -> Self {
        let name = name.into();
        let mut sorted: Vec<(Datum, Vec<Datum>)> = pairs.into_iter().collect();
        sorted.sort_by(|a, b| a.0.cmp(&b.0));
        sorted.dedup_by(|a, b| a.0 == b.0);

        let num_p = num_partitions.max(1).min(sorted.len().max(1));
        let per = sorted.len().div_ceil(num_p).max(1);
        let mut partitions: Vec<BTreeMap<Datum, Arc<[Datum]>>> = Vec::with_capacity(num_p);
        let mut separators = Vec::with_capacity(num_p.saturating_sub(1));
        let mut rest = sorted.into_iter().peekable();
        while rest.peek().is_some() {
            let part: BTreeMap<Datum, Arc<[Datum]>> = rest
                .by_ref()
                .take(per)
                .map(|(k, v)| (k, v.into()))
                .collect();
            if rest.peek().is_some() {
                let (last, _) = part.last_key_value().expect("non-empty chunk");
                separators.push(last.clone());
            }
            partitions.push(part);
        }
        while partitions.len() < num_p {
            partitions.push(BTreeMap::new());
        }

        let n_nodes = cluster.num_nodes();
        let replication = replication.clamp(1, n_nodes as usize);
        let mut rng = SmallRng::seed_from_u64(0xB7EE ^ fx_hash_bytes(name.as_bytes()));
        let hosts: Vec<Vec<NodeId>> = (0..partitions.len())
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

        DistBTree {
            name,
            partitions,
            empty: Arc::new([]),
            scheme: Arc::new(RangeScheme { separators, hosts }),
            base_serve: SimDuration::from_micros(120),
            serve_secs_per_byte: 5.0e-9,
        }
    }

    /// Number of stored keys.
    pub fn len(&self) -> usize {
        self.partitions.iter().map(BTreeMap::len).sum()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Inclusive range scan across partitions, in key order.
    pub fn range(&self, lo: &Datum, hi: &Datum) -> Vec<(Datum, Vec<Datum>)> {
        if lo > hi {
            return Vec::new();
        }
        let first = self.scheme.route(lo);
        let last = self.scheme.route(hi);
        let mut out = Vec::new();
        for p in first..=last.min(self.partitions.len() - 1) {
            for (k, v) in
                self.partitions[p].range((Bound::Included(lo.clone()), Bound::Included(hi.clone())))
            {
                out.push((k.clone(), v.to_vec()));
            }
        }
        out
    }

    /// The range partition scheme.
    pub fn scheme(&self) -> Arc<RangeScheme> {
        self.scheme.clone()
    }

    fn stored(&self, key: &Datum) -> Option<&Arc<[Datum]>> {
        let p = self.scheme.route(key).min(self.partitions.len() - 1);
        self.partitions[p].get(key)
    }
}

impl IndexAccessor for DistBTree {
    fn name(&self) -> &str {
        &self.name
    }

    fn lookup(&self, key: &Datum) -> Vec<Datum> {
        self.stored(key).map_or_else(Vec::new, |v| v.to_vec())
    }

    /// An absent key answers an empty `Hit`, as the provided `try_lookup`
    /// did for this tree.
    fn try_lookup(&self, key: &Datum) -> LookupResult {
        LookupResult::Hit(self.stored(key).unwrap_or(&self.empty).clone())
    }

    fn serve_time(&self, _key: &Datum, result_bytes: u64) -> SimDuration {
        self.base_serve + SimDuration::from_secs_f64(result_bytes as f64 * self.serve_secs_per_byte)
    }

    fn partition_scheme(&self) -> Option<Arc<dyn PartitionScheme>> {
        Some(self.scheme.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree(n: i64, parts: usize) -> DistBTree {
        DistBTree::build(
            "bt",
            &Cluster::edbt_testbed(),
            parts,
            3,
            (0..n).map(|i| (Datum::Int(i), vec![Datum::Int(i * 10)])),
        )
    }

    #[test]
    fn point_lookups() {
        let t = tree(1000, 8);
        assert_eq!(t.len(), 1000);
        for i in [0i64, 499, 999] {
            assert_eq!(t.lookup(&Datum::Int(i)), vec![Datum::Int(i * 10)]);
        }
        assert!(t.lookup(&Datum::Int(-1)).is_empty());
        assert!(t.lookup(&Datum::Int(1000)).is_empty());
    }

    #[test]
    fn routing_matches_storage() {
        let t = tree(500, 7);
        for i in 0..500i64 {
            let k = Datum::Int(i);
            let p = t.scheme.partition_of(&k);
            assert!(t.partitions[p].contains_key(&k), "key {i} routed to {p}");
        }
    }

    #[test]
    fn ranges_are_contiguous() {
        let t = tree(100, 4);
        let mut last_max: Option<Datum> = None;
        for p in &t.partitions {
            if let (Some(min), Some(prev)) = (p.keys().next(), &last_max) {
                assert!(min > prev);
            }
            if let Some(max) = p.keys().next_back() {
                last_max = Some(max.clone());
            }
        }
    }

    #[test]
    fn range_scan_across_partitions() {
        let t = tree(100, 5);
        let out = t.range(&Datum::Int(15), &Datum::Int(45));
        assert_eq!(out.len(), 31);
        assert_eq!(out[0].0, Datum::Int(15));
        assert_eq!(out.last().unwrap().0, Datum::Int(45));
        // Sorted output.
        for w in out.windows(2) {
            assert!(w[0].0 < w[1].0);
        }
    }

    #[test]
    fn empty_and_inverted_ranges() {
        let t = tree(10, 2);
        assert!(t.range(&Datum::Int(5), &Datum::Int(4)).is_empty());
        assert!(t.range(&Datum::Int(100), &Datum::Int(200)).is_empty());
    }

    #[test]
    fn more_partitions_than_keys() {
        let t = tree(3, 10);
        assert_eq!(t.lookup(&Datum::Int(2)), vec![Datum::Int(20)]);
        assert_eq!(t.scheme().num_partitions(), 3);
    }

    #[test]
    fn a_duplicated_build_key_keeps_its_first_list() {
        let t = DistBTree::build(
            "d",
            &Cluster::edbt_testbed(),
            2,
            1,
            vec![
                (Datum::Int(1), vec![Datum::Int(10)]),
                (Datum::Int(1), vec![Datum::Int(20)]),
            ],
        );
        assert_eq!(t.len(), 1);
        assert_eq!(t.lookup(&Datum::Int(1)), vec![Datum::Int(10)]);
    }
}
