//! An inverted text index.
//!
//! The paper's first motivating application is unstructured text
//! analysis: *"Text analysis often requires accessing indices, e.g.,
//! inverted indices, precomputed acronym dictionaries, and knowledge
//! bases"* (§1, citing Zobel et al.'s inverted files). This substrate is
//! a term → postings index with document frequencies, partitioned by
//! term hash across the cluster like a distributed search index.

use std::collections::BTreeMap;
use std::sync::Arc;

use efind::{IndexAccessor, PartitionScheme};
use efind_cluster::{Cluster, NodeId, SimDuration};
use efind_common::{fx_hash_datum, Datum, FxHashMap};

/// One posting: `(document id, term frequency)`.
pub type Posting = (u64, u32);

/// Term-hash partition scheme.
pub struct TermScheme {
    hosts: Vec<Vec<NodeId>>,
}

impl PartitionScheme for TermScheme {
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

/// The inverted index: term → posting list.
pub struct InvertedIndex {
    name: String,
    partitions: Vec<FxHashMap<String, Vec<Posting>>>,
    scheme: Arc<TermScheme>,
    base_serve: SimDuration,
    serve_secs_per_posting: f64,
}

impl InvertedIndex {
    /// Builds the index from a corpus of `(doc id, text)` documents,
    /// tokenizing on whitespace and lower-casing.
    pub fn build<'a>(
        name: impl Into<String>,
        cluster: &Cluster,
        num_partitions: usize,
        docs: impl IntoIterator<Item = (u64, &'a str)>,
    ) -> Self {
        let name = name.into();
        let n_nodes = cluster.num_nodes();
        let num_p = num_partitions.max(1);
        let hosts: Vec<Vec<NodeId>> = (0..num_p)
            .map(|p| {
                // Primary + two deterministic replicas.
                (0..3.min(n_nodes as usize))
                    .map(|r| NodeId(((p + r * 5 + r) % n_nodes as usize) as u16))
                    .collect::<Vec<_>>()
                    .into_iter()
                    .fold(Vec::new(), |mut acc, h| {
                        if !acc.contains(&h) {
                            acc.push(h);
                        }
                        acc
                    })
            })
            .collect();
        let scheme = Arc::new(TermScheme { hosts });

        let mut partitions: Vec<BTreeMap<String, Vec<Posting>>> =
            (0..num_p).map(|_| BTreeMap::new()).collect();
        for (doc, text) in docs {
            let mut counts: BTreeMap<String, u32> = BTreeMap::new();
            for token in text.split_whitespace() {
                *counts.entry(token.to_lowercase()).or_insert(0) += 1;
            }
            for (term, tf) in counts {
                let p = scheme.partition_of(&Datum::Text(term.clone()));
                partitions[p].entry(term).or_default().push((doc, tf));
            }
        }
        for part in &mut partitions {
            for postings in part.values_mut() {
                postings.sort_unstable();
            }
        }
        InvertedIndex {
            name,
            partitions: partitions
                .into_iter()
                .map(|part| part.into_iter().collect())
                .collect(),
            scheme,
            base_serve: SimDuration::from_micros(200),
            serve_secs_per_posting: 2.0e-7,
        }
    }

    /// The posting list of a term (empty if absent).
    pub fn postings(&self, term: &str) -> &[Posting] {
        let key = Datum::Text(term.to_lowercase());
        let p = self.scheme.partition_of(&key);
        self.partitions[p]
            .get(term.to_lowercase().as_str())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }
}

impl IndexAccessor for InvertedIndex {
    fn name(&self) -> &str {
        &self.name
    }

    /// Lookup key: `Text term`. Result: one `List[Int doc, Int tf]` per
    /// posting.
    fn lookup(&self, key: &Datum) -> Vec<Datum> {
        let Some(term) = key.as_text() else {
            return Vec::new();
        };
        self.postings(term)
            .iter()
            .map(|(doc, tf)| Datum::List(vec![Datum::Int(*doc as i64), Datum::Int(*tf as i64)]))
            .collect()
    }

    fn serve_time(&self, key: &Datum, _result_bytes: u64) -> SimDuration {
        let postings = key.as_text().map(|t| self.postings(t).len()).unwrap_or(0);
        self.base_serve + SimDuration::from_secs_f64(postings as f64 * self.serve_secs_per_posting)
    }

    fn partition_scheme(&self) -> Option<Arc<dyn PartitionScheme>> {
        Some(self.scheme.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index() -> InvertedIndex {
        InvertedIndex::build(
            "inv",
            &Cluster::edbt_testbed(),
            8,
            vec![
                (1, "the quick brown fox"),
                (2, "the lazy dog"),
                (3, "The quick dog barks"),
            ],
        )
    }

    #[test]
    fn postings_are_complete_and_sorted() {
        let idx = index();
        assert_eq!(idx.postings("the"), &[(1, 1), (2, 1), (3, 1)]);
        assert_eq!(idx.postings("quick"), &[(1, 1), (3, 1)]);
        assert_eq!(idx.postings("dog").len(), 2);
        assert!(idx.postings("missing").is_empty());
    }

    #[test]
    fn tokenization_is_case_insensitive() {
        let idx = index();
        assert_eq!(idx.postings("THE"), idx.postings("the"));
    }

    #[test]
    fn term_frequencies_counted() {
        let idx = InvertedIndex::build(
            "inv",
            &Cluster::edbt_testbed(),
            4,
            vec![(7, "spam spam spam eggs")],
        );
        assert_eq!(idx.postings("spam"), &[(7, 3)]);
        assert_eq!(idx.postings("eggs"), &[(7, 1)]);
    }

    #[test]
    fn accessor_interface_roundtrip() {
        let idx = index();
        let values = idx.lookup(&Datum::Text("dog".into()));
        assert_eq!(values.len(), 2);
        assert_eq!(values[0], Datum::List(vec![Datum::Int(2), Datum::Int(1)]));
        assert!(idx.lookup(&Datum::Int(3)).is_empty());
        assert!(idx.partition_scheme().is_some());
        // Longer posting lists take longer to serve.
        let t_the = idx.serve_time(&Datum::Text("the".into()), 0);
        let t_fox = idx.serve_time(&Datum::Text("fox".into()), 0);
        assert!(t_the > t_fox);
    }

    #[test]
    fn scheme_routes_terms_to_their_partition() {
        let idx = index();
        let scheme = idx.scheme.clone();
        for term in ["the", "quick", "dog"] {
            let key = Datum::Text(term.into());
            let p = scheme.partition_of(&key);
            assert!(idx.partitions[p].contains_key(term));
            assert!(!scheme.hosts(p).is_empty());
        }
    }
}
