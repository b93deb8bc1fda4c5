//! A plain in-memory table accessor.

use std::sync::Arc;

use efind::{IndexAccessor, LookupResult, PartitionScheme};
use efind_cluster::SimDuration;
use efind_common::{Datum, FxHashMap};

/// An unpartitioned in-memory key → values table.
///
/// The simplest possible index: useful in tests, examples, and as the
/// storage behind quick experiments. Exposes no partition scheme, so index
/// locality does not apply (like the paper's single-host services).
///
/// Each key's value list is stored as one `Arc<[Datum]>`, created in
/// [`new`](Self::new); [`try_lookup`](IndexAccessor::try_lookup) hands out
/// a refcount bump of that block, never a copy.
pub struct MemTable {
    name: String,
    data: FxHashMap<Datum, Arc<[Datum]>>,
    /// The answer for a key the table does not hold.
    empty: Arc<[Datum]>,
    serve: SimDuration,
}

impl MemTable {
    /// Builds a table from `(key, values)` pairs with a fixed service time.
    /// A key that occurs more than once keeps the value list of its *last*
    /// pair.
    pub fn new(
        name: impl Into<String>,
        pairs: impl IntoIterator<Item = (Datum, Vec<Datum>)>,
        serve: SimDuration,
    ) -> Self {
        MemTable {
            name: name.into(),
            data: pairs.into_iter().map(|(k, v)| (k, v.into())).collect(),
            empty: Arc::new([]),
            serve,
        }
    }

    /// Number of distinct keys.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the table holds no keys.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

impl IndexAccessor for MemTable {
    fn name(&self) -> &str {
        &self.name
    }

    fn lookup(&self, key: &Datum) -> Vec<Datum> {
        self.data.get(key).map_or_else(Vec::new, |v| v.to_vec())
    }

    /// An absent key answers an empty `Hit`, as the provided `try_lookup`
    /// did for this table.
    fn try_lookup(&self, key: &Datum) -> LookupResult {
        LookupResult::Hit(self.data.get(key).unwrap_or(&self.empty).clone())
    }

    fn serve_time(&self, _key: &Datum, _result_bytes: u64) -> SimDuration {
        self.serve
    }

    fn partition_scheme(&self) -> Option<Arc<dyn PartitionScheme>> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_hits_and_misses() {
        let t = MemTable::new(
            "t",
            vec![(Datum::Int(1), vec![Datum::Text("a".into())])],
            SimDuration::from_micros(10),
        );
        assert_eq!(t.lookup(&Datum::Int(1)), vec![Datum::Text("a".into())]);
        assert!(t.lookup(&Datum::Int(2)).is_empty());
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
        assert!(t.partition_scheme().is_none());
        assert_eq!(
            t.serve_time(&Datum::Int(1), 0),
            SimDuration::from_micros(10)
        );
    }

    #[test]
    fn a_duplicated_build_key_keeps_its_last_list() {
        let t = MemTable::new(
            "t",
            vec![
                (Datum::Int(1), vec![Datum::Int(10)]),
                (Datum::Int(1), vec![Datum::Int(20)]),
            ],
            SimDuration::from_micros(10),
        );
        assert_eq!(t.len(), 1);
        assert_eq!(t.lookup(&Datum::Int(1)), vec![Datum::Int(20)]);
    }
}
