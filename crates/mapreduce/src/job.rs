//! Job configuration.

use std::sync::Arc;

use efind_cluster::SimDuration;

use crate::api::{MapperFactory, ReducerFactory};
use crate::partition::{HashPartitioner, Partitioner};

/// Configuration of one MapReduce job (the vanilla `JobConf` of Fig. 5;
/// EFind wraps it with its `IndexJobConf` in the core crate).
///
/// The map computation is a chain of mappers; the reduce computation is an
/// optional reducer followed by a chain of post-reduce mappers. EFind's
/// baseline strategy places `preProcess → lookup → postProcess` inside
/// these chains exactly as in Fig. 6.
#[derive(Clone)]
pub struct JobConf {
    /// Job name (used in reports and derived file names).
    pub name: String,
    /// DFS input file.
    pub input: String,
    /// Chained map functions, applied in order.
    pub map_chain: Vec<MapperFactory>,
    /// The reduce function; `None` with `num_reducers > 0` groups keys and
    /// re-emits `(key, value)` pairs unchanged (identity reduce).
    pub reducer: Option<ReducerFactory>,
    /// Optional combiner, run over each map task's output before the
    /// shuffle (Hadoop's combiner): must be semantically idempotent with
    /// the reducer for associative aggregations. Cuts shuffle volume.
    pub combiner: Option<ReducerFactory>,
    /// Chained functions applied after the reducer within reduce tasks
    /// (where EFind places tail operators in the baseline strategy).
    pub reduce_post: Vec<MapperFactory>,
    /// Number of reduce tasks; 0 makes the job map-only.
    pub num_reducers: usize,
    /// Shuffle partitioner.
    pub partitioner: Arc<dyn Partitioner>,
    /// DFS output file.
    pub output: String,
    /// Modeled CPU time charged per record at every processing step.
    pub cpu_per_record: SimDuration,
    /// Target chunk count for the output file (`None` = DFS default).
    /// Chained jobs set this so the next job's map phase parallelizes.
    pub output_chunks: Option<usize>,
}

impl JobConf {
    /// Creates a job with defaults: hash partitioning, identity reduce
    /// disabled (map-only), 1 µs of CPU per record.
    pub fn new(
        name: impl Into<String>,
        input: impl Into<String>,
        output: impl Into<String>,
    ) -> Self {
        JobConf {
            name: name.into(),
            input: input.into(),
            map_chain: Vec::new(),
            reducer: None,
            combiner: None,
            reduce_post: Vec::new(),
            num_reducers: 0,
            partitioner: Arc::new(HashPartitioner),
            output: output.into(),
            cpu_per_record: SimDuration::from_micros(1),
            output_chunks: None,
        }
    }

    /// Appends a map chain element.
    pub fn add_mapper(mut self, m: MapperFactory) -> Self {
        self.map_chain.push(m);
        self
    }

    /// Sets the reducer and reduce-task count.
    pub fn with_reducer(mut self, r: ReducerFactory, num_reducers: usize) -> Self {
        self.reducer = Some(r);
        self.num_reducers = num_reducers.max(1);
        self
    }

    /// Sets the combiner.
    pub fn with_combiner(mut self, c: ReducerFactory) -> Self {
        self.combiner = Some(c);
        self
    }

    /// Enables an identity group-by with `num_reducers` tasks.
    pub fn with_identity_reduce(mut self, num_reducers: usize) -> Self {
        self.reducer = None;
        self.num_reducers = num_reducers.max(1);
        self
    }

    /// Appends a post-reduce chain element.
    pub fn add_reduce_post(mut self, m: MapperFactory) -> Self {
        self.reduce_post.push(m);
        self
    }

    /// Overrides the partitioner.
    pub fn with_partitioner(mut self, p: Arc<dyn Partitioner>) -> Self {
        self.partitioner = p;
        self
    }

    /// Overrides the modeled per-record CPU cost.
    pub fn with_cpu_per_record(mut self, d: SimDuration) -> Self {
        self.cpu_per_record = d;
        self
    }

    /// True if the job has a reduce phase.
    pub fn has_reduce(&self) -> bool {
        self.num_reducers > 0
    }

    /// True when `self` and `other` route every key to the same reduce
    /// partition — the same reducer count and the same partitioner
    /// instance — so the map outputs of one can feed the other's reduce.
    pub fn shuffles_like(&self, other: &JobConf) -> bool {
        self.num_reducers == other.num_reducers
            && Arc::ptr_eq(&self.partitioner, &other.partitioner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::identity_mapper;

    #[test]
    fn builder_defaults() {
        let j = JobConf::new("j", "in", "out");
        assert!(!j.has_reduce());
        assert!(j.map_chain.is_empty());
        assert_eq!(j.cpu_per_record, SimDuration::from_micros(1));
    }

    #[test]
    fn builder_composition() {
        let j = JobConf::new("j", "in", "out")
            .add_mapper(identity_mapper())
            .with_identity_reduce(4)
            .add_reduce_post(identity_mapper());
        assert!(j.has_reduce());
        assert_eq!(j.num_reducers, 4);
        assert_eq!(j.map_chain.len(), 1);
        assert_eq!(j.reduce_post.len(), 1);
    }

    #[test]
    fn reducer_count_clamped() {
        let j = JobConf::new("j", "in", "out").with_identity_reduce(0);
        assert_eq!(j.num_reducers, 1);
    }
}
