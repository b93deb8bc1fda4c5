//! Shuffle partitioners.
//!
//! The default is Hadoop's hash partitioner. The trait is public because
//! EFind's index-locality strategy (§3.4) replaces it with the *index's*
//! partition scheme so the shuffled lookup keys are co-partitioned with the
//! index.

use std::sync::Arc;

use efind_common::{fx_hash_datum, Datum};

/// Routes a record key to one of `num_partitions` reducers.
pub trait Partitioner: Send + Sync {
    /// Returns the partition of `key` in `[0, num_partitions)`. The runner
    /// takes an answer outside that range as the last partition.
    fn partition(&self, key: &Datum, num_partitions: usize) -> usize;
}

/// Hash partitioning (Hadoop's `HashPartitioner`).
#[derive(Debug, Default, Clone, Copy)]
pub struct HashPartitioner;

impl Partitioner for HashPartitioner {
    fn partition(&self, key: &Datum, num_partitions: usize) -> usize {
        (fx_hash_datum(key) % num_partitions.max(1) as u64) as usize
    }
}

/// A partitioner backed by a closure, for index co-partitioning.
pub struct FnPartitioner<F>(pub F);

impl<F> Partitioner for FnPartitioner<F>
where
    F: Fn(&Datum, usize) -> usize + Send + Sync,
{
    fn partition(&self, key: &Datum, num_partitions: usize) -> usize {
        (self.0)(key, num_partitions)
    }
}

/// Convenience constructor for [`FnPartitioner`].
pub fn partitioner_fn<F>(f: F) -> Arc<dyn Partitioner>
where
    F: Fn(&Datum, usize) -> usize + Send + Sync + 'static,
{
    Arc::new(FnPartitioner(f))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_partition_in_range_and_deterministic() {
        let p = HashPartitioner;
        for i in 0..1_000i64 {
            let k = Datum::Int(i);
            let a = p.partition(&k, 7);
            assert!(a < 7);
            assert_eq!(a, p.partition(&k, 7));
        }
    }

    #[test]
    fn hash_partition_spreads() {
        let p = HashPartitioner;
        let mut counts = [0usize; 4];
        for i in 0..4_000i64 {
            counts[p.partition(&Datum::Int(i), 4)] += 1;
        }
        assert!(counts.iter().all(|&c| c > 700), "{counts:?}");
    }

    #[test]
    fn single_partition_degenerate() {
        let p = HashPartitioner;
        assert_eq!(p.partition(&Datum::Int(5), 1), 0);
        assert_eq!(p.partition(&Datum::Int(5), 0), 0);
    }
}
