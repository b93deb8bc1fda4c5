//! The EFind-enhanced job configuration (`IndexJobConf`, Fig. 5).

use std::sync::Arc;

use efind_cluster::SimDuration;
use efind_common::{KeyKind, Result};
use efind_mapreduce::{HashPartitioner, MapperFactory, Partitioner, ReducerFactory};

use crate::accessor::IndexAccessor;
use crate::operator::IndexOperator;
use crate::statsx::OpDescriptor;

/// An [`IndexOperator`] bound to its concrete [`IndexAccessor`]s (the
/// paper's `I1.addIndex("indexaccessor.UserProfileAccessor", …)`).
#[derive(Clone)]
pub struct BoundOperator {
    /// The job-specific operator.
    pub op: Arc<dyn IndexOperator>,
    /// One accessor per index the operator declares, in index order.
    pub indices: Vec<Arc<dyn IndexAccessor>>,
    /// §3.2 escape hatch: the strategies assume lookups are idempotent
    /// ("an index lookup with the same key returns the same result during
    /// an EFind enhanced job"). When that is false, mark the operator
    /// volatile and every mode pins it to the baseline strategy.
    pub volatile: bool,
    /// Key kinds the operator's `preProcess` emits, one per index slot.
    /// Empty (the default) means undeclared — every slot is treated as
    /// [`KeyKind::Any`] and skips static key-type checking.
    pub key_kinds: Vec<KeyKind>,
}

impl BoundOperator {
    /// Starts binding an operator.
    pub fn new(op: Arc<dyn IndexOperator>) -> Self {
        BoundOperator {
            op,
            indices: Vec::new(),
            volatile: false,
            key_kinds: Vec::new(),
        }
    }

    /// Binds the next index accessor (the paper's `addIndex`).
    pub fn add_index(mut self, accessor: Arc<dyn IndexAccessor>) -> Self {
        self.indices.push(accessor);
        self
    }

    /// Declares the operator's lookups non-idempotent: EFind will use the
    /// baseline strategy for it in every mode (§3.2, footnote 2).
    pub fn volatile(mut self) -> Self {
        self.volatile = true;
        self
    }

    /// Declares the key kinds `preProcess` emits, one per index slot, so
    /// the static analyzer can verify them against each accessor's
    /// declared key kind (`EF007`).
    pub fn key_kinds(mut self, kinds: Vec<KeyKind>) -> Self {
        self.key_kinds = kinds;
        self
    }

    /// The structural descriptor used for statistics extraction.
    pub fn descriptor(&self) -> OpDescriptor {
        OpDescriptor {
            name: self.op.name().to_owned(),
            num_indices: self.indices.len(),
            schemes: self
                .indices
                .iter()
                .map(|a| a.partition_scheme().is_some())
                .collect(),
            partition_counts: self
                .indices
                .iter()
                .map(|a| {
                    a.partition_scheme()
                        .map(|s| s.num_partitions())
                        .unwrap_or(0)
                })
                .collect(),
        }
    }

    /// Capability tuples `(shuffleable, has_partition_scheme)` for forced
    /// plans. Shuffleability is a runtime property (exactly one key per
    /// record), unknowable statically, so it is assumed and enforced
    /// during execution.
    pub fn caps(&self) -> Vec<(bool, bool)> {
        self.indices
            .iter()
            .map(|a| (true, a.partition_scheme().is_some()))
            .collect()
    }
}

/// An EFind-enhanced MapReduce job: a vanilla job plus index operators
/// placed before Map (*head*), between Map and Reduce (*body*), and after
/// Reduce (*tail*).
#[derive(Clone)]
pub struct IndexJobConf {
    /// Job name.
    pub name: String,
    /// DFS input file.
    pub input: String,
    /// DFS output file.
    pub output: String,
    /// The original Map chain (empty = identity).
    pub map: Vec<MapperFactory>,
    /// The original Reduce function (`None` with `num_reducers > 0` =
    /// identity group-by).
    pub reducer: Option<ReducerFactory>,
    /// Reduce task count (0 = map-only job).
    pub num_reducers: usize,
    /// Shuffle partitioner for the job's own Reduce.
    pub partitioner: Arc<dyn Partitioner>,
    /// Operators before Map.
    pub head: Vec<BoundOperator>,
    /// Operators between Map and Reduce.
    pub body: Vec<BoundOperator>,
    /// Operators after Reduce.
    pub tail: Vec<BoundOperator>,
    /// Modeled CPU cost per record.
    pub cpu_per_record: SimDuration,
}

impl IndexJobConf {
    /// Creates an enhanced job configuration.
    pub fn new(
        name: impl Into<String>,
        input: impl Into<String>,
        output: impl Into<String>,
    ) -> Self {
        IndexJobConf {
            name: name.into(),
            input: input.into(),
            output: output.into(),
            map: Vec::new(),
            reducer: None,
            num_reducers: 0,
            partitioner: Arc::new(HashPartitioner),
            head: Vec::new(),
            body: Vec::new(),
            tail: Vec::new(),
            cpu_per_record: SimDuration::from_micros(1),
        }
    }

    /// Sets the Map function(s).
    pub fn set_mapper(mut self, m: MapperFactory) -> Self {
        self.map.push(m);
        self
    }

    /// Sets the Reduce function and task count.
    pub fn set_reducer(mut self, r: ReducerFactory, num_reducers: usize) -> Self {
        self.reducer = Some(r);
        self.num_reducers = num_reducers.max(1);
        self
    }

    /// Enables an identity group-by Reduce.
    pub fn set_identity_reducer(mut self, num_reducers: usize) -> Self {
        self.reducer = None;
        self.num_reducers = num_reducers.max(1);
        self
    }

    /// Inserts an operator before Map (the paper's
    /// `addHeadIndexOperator`).
    pub fn add_head_index_operator(mut self, op: BoundOperator) -> Self {
        self.head.push(op);
        self
    }

    /// Inserts an operator between Map and Reduce (`addBodyIndexOperator`).
    pub fn add_body_index_operator(mut self, op: BoundOperator) -> Self {
        self.body.push(op);
        self
    }

    /// Inserts an operator after Reduce (`addTailIndexOperator`).
    pub fn add_tail_index_operator(mut self, op: BoundOperator) -> Self {
        self.tail.push(op);
        self
    }

    /// True if the job has a reduce phase.
    pub fn has_reduce(&self) -> bool {
        self.num_reducers > 0
    }

    /// All operators with their placement, in data-flow order.
    pub fn operators(&self) -> impl Iterator<Item = (&BoundOperator, crate::cost::Placement)> {
        use crate::cost::Placement;
        self.head
            .iter()
            .map(|b| (b, Placement::Head))
            .chain(self.body.iter().map(|b| (b, Placement::Body)))
            .chain(self.tail.iter().map(|b| (b, Placement::Tail)))
    }

    /// Structural descriptors of all operators.
    pub fn descriptors(&self) -> Vec<OpDescriptor> {
        self.operators().map(|(b, _)| b.descriptor()).collect()
    }

    /// Checks the job's shape: each operator binds as many accessors as it
    /// declares (`EF001`), operator names are unique (`EF002`) and tail
    /// operators have a reduce phase (`EF003`). These are the analyzer's
    /// own checks, run without a plan.
    pub fn validate(&self) -> Result<()> {
        crate::analysis::check_shape(self).into_result().map(drop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accessor::testutil::MemIndex;
    use crate::operator::operator_fn;

    fn noop_op(name: &str, m: usize) -> Arc<dyn IndexOperator> {
        operator_fn(name, m, |_rec, _keys| {}, |_rec, _vals, _out| {})
    }

    fn mem() -> Arc<dyn IndexAccessor> {
        Arc::new(MemIndex::new("mem", vec![]))
    }

    #[test]
    fn builder_places_operators() {
        let conf = IndexJobConf::new("j", "in", "out")
            .set_identity_reducer(2)
            .add_head_index_operator(BoundOperator::new(noop_op("a", 1)).add_index(mem()))
            .add_body_index_operator(BoundOperator::new(noop_op("b", 1)).add_index(mem()))
            .add_tail_index_operator(BoundOperator::new(noop_op("c", 1)).add_index(mem()));
        conf.validate().unwrap();
        let placements: Vec<_> = conf
            .operators()
            .map(|(b, p)| (b.op.name().to_owned(), p))
            .collect();
        assert_eq!(placements.len(), 3);
        assert_eq!(placements[0].0, "a");
        assert_eq!(placements[2].1, crate::cost::Placement::Tail);
    }

    #[test]
    fn arity_mismatch_rejected() {
        let conf = IndexJobConf::new("j", "in", "out")
            .add_head_index_operator(BoundOperator::new(noop_op("a", 2)).add_index(mem()));
        assert!(conf.validate().is_err());
    }

    #[test]
    fn duplicate_names_rejected() {
        let conf = IndexJobConf::new("j", "in", "out")
            .add_head_index_operator(BoundOperator::new(noop_op("a", 1)).add_index(mem()))
            .add_body_index_operator(BoundOperator::new(noop_op("a", 1)).add_index(mem()))
            .set_identity_reducer(1);
        assert!(conf.validate().is_err());
    }

    #[test]
    fn tail_without_reduce_rejected() {
        let conf = IndexJobConf::new("j", "in", "out")
            .add_tail_index_operator(BoundOperator::new(noop_op("t", 1)).add_index(mem()));
        assert!(conf.validate().is_err());
    }

    #[test]
    fn descriptor_reflects_schemes() {
        let bound = BoundOperator::new(noop_op("a", 1)).add_index(mem());
        let d = bound.descriptor();
        assert_eq!(d.name, "a");
        assert_eq!(d.schemes, vec![false]);
        assert_eq!(bound.caps(), vec![(true, false)]);
    }
}
