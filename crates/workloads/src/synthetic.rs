//! The Synthetic workload (§5.1, Fig. 11(f)) and the lookup-latency
//! microbenchmark (Fig. 12).
//!
//! *"The synthetic data set contains 10 million records. Each record
//! consists of an integer key and a 1KB-sized value. The keys are
//! uniformly randomly generated from [0, 5,000,000]. We build an index
//! that maps each distinct key to an index value of size l, and run a job
//! to join the data set with the index. We vary the parameter l."*
//!
//! Uniform keys over half the record count give Θ ≈ 2 with no locality —
//! the regime where the cache is useless, re-partitioning halves the
//! lookups, and index locality starts winning once `l` outgrows the
//! shuffled record size.

use std::borrow::Cow;
use std::sync::Arc;

use efind::{BoundOperator, EFindConfig, IndexInput, IndexJobConf, IndexOperator, IndexOutput};
use efind_cluster::Cluster;
use efind_common::{Datum, FxHashMap, Record};
use efind_dfs::{Dfs, DfsConfig};
use efind_index::{KvStore, KvStoreConfig};
use efind_mapreduce::{mapper_fn, Collector};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::harness::Scenario;

/// Synthetic workload configuration.
#[derive(Clone, Debug)]
pub struct SyntheticConfig {
    /// Records in the main input (paper: 10 M; scaled default 40 k).
    pub num_records: usize,
    /// Join keys drawn uniformly from `[0, key_space)`; the paper uses
    /// `num_records / 2` so every key occurs twice on average.
    pub key_space: usize,
    /// Record payload bytes (paper: 1 KB).
    pub record_pad: usize,
    /// Index result size `l` — the Fig. 11(f) sweep parameter.
    pub index_value_size: usize,
    /// Key skew exponent: 0 = uniform (the paper's Fig. 11(f) setting);
    /// larger values draw keys as `⌊u^skew · key_space⌋`, concentrating
    /// mass on low ids (used by the cache-capacity sweep).
    pub key_skew: f64,
    /// Input chunks.
    pub chunks: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SyntheticConfig {
    fn default() -> Self {
        SyntheticConfig {
            num_records: 40_000,
            key_space: 20_000,
            record_pad: 1024,
            index_value_size: 1024,
            key_skew: 0.0,
            chunks: 200,
            seed: 0x517,
        }
    }
}

/// Generates the main input: `key = record id`,
/// `value = [join_key, padding]`.
pub fn generate(config: &SyntheticConfig) -> Vec<Record> {
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let space = config.key_space.max(1);
    (0..config.num_records)
        .map(|i| {
            let key = if config.key_skew > 0.0 {
                let u: f64 = rng.gen_range(0.0..1.0);
                ((u.powf(config.key_skew) * space as f64) as usize).min(space - 1)
            } else {
                rng.gen_range(0..space)
            };
            Record::new(
                i as i64,
                Datum::List(vec![
                    Datum::Int(key as i64),
                    Datum::Bytes(vec![0xAB; config.record_pad]),
                ]),
            )
        })
        .collect()
}

/// Builds the index: every key in the key space maps to `l` bytes.
///
/// The service-time profile is memory-resident-store-like (300 µs base,
/// ~1 GB/s scan), putting the 30 KB point in the regime the paper's
/// Fig. 12 shows: remote ≈ 2× local — which is what makes index locality
/// overtake re-partitioning for large results in Fig. 11(f).
pub fn build_index(config: &SyntheticConfig, cluster: &Cluster) -> Arc<KvStore> {
    Arc::new(KvStore::build(
        "synidx",
        cluster,
        KvStoreConfig {
            base_serve: efind_cluster::SimDuration::from_micros(300),
            serve_secs_per_byte: 1.0e-9,
            ..KvStoreConfig::default()
        },
        (0..config.key_space as i64).map(|k| {
            (
                Datum::Int(k),
                vec![Datum::Bytes(vec![0xCD; config.index_value_size])],
            )
        }),
    ))
}

/// The join's index operator: looks each record's join key up and records
/// the size of what it finds.
struct SynJoin;

impl IndexOperator for SynJoin {
    fn name(&self) -> &str {
        "synjoin"
    }

    fn num_indices(&self) -> usize {
        1
    }

    fn pre_process<'r>(&self, rec: Cow<'r, Record>, keys: &mut IndexInput) -> Cow<'r, Record> {
        let Some(fields) = rec.value.as_list() else {
            keys.put(0, Datum::Null);
            return rec;
        };
        keys.put(0, fields[0].clone());
        // The padding has served its purpose (input volume); project it
        // away — without copying it out of the input row — so downstream
        // sizes reflect the join result.
        Cow::Owned(Record {
            key: rec.key.clone(),
            value: fields[0].clone(),
        })
    }

    fn post_process(&self, rec: Cow<'_, Record>, values: &IndexOutput, out: &mut dyn Collector) {
        // Only the joined value's size is recorded; an absent value counts
        // as a `Null`.
        let joined = values
            .first(0)
            .first()
            .map_or(Datum::Null.size_bytes(), Datum::size_bytes);
        // Key and value are both emitted, so a lent record is copied whole.
        let Record { key, value } = rec.into_owned();
        out.collect(Record {
            key,
            value: Datum::List(vec![value, Datum::Int(joined as i64)]),
        });
    }
}

/// Builds the join job: a head operator joins each record with the index;
/// the job is map-only (the paper's job is a pure join).
pub fn build_job(index: Arc<KvStore>) -> IndexJobConf {
    IndexJobConf::new("synthetic-join", "syn.input", "syn.joined")
        .add_head_index_operator(BoundOperator::new(Arc::new(SynJoin)).add_index(index))
        .set_mapper(mapper_fn(|rec, out, _| out.collect(rec)))
}

/// Builds the full scenario.
pub fn scenario(config: &SyntheticConfig) -> Scenario {
    let cluster = Cluster::edbt_testbed();
    let mut dfs = Dfs::new(cluster.clone(), DfsConfig::default());
    dfs.write_file_with_chunks("syn.input", generate(config), config.chunks);
    let index = build_index(config, &cluster);
    let ijob = build_job(index);
    Scenario {
        cluster,
        dfs,
        ijob,
        repart_overrides: FxHashMap::default(),
        idxloc_applicable: true,
        efind_config: EFindConfig::default(),
    }
}

/// One row of Fig. 12: `(result_bytes, local_ms, remote_ms)` — the
/// elapsed time of a single local vs remote index lookup as the result
/// size grows.
pub fn fig12_row(cluster: &Cluster, index: &KvStore, result_bytes: usize) -> (usize, f64, f64) {
    use efind::IndexAccessor;
    let key = Datum::Int(0);
    let serve = index.serve_time(&key, result_bytes as u64);
    let transfer = cluster
        .network
        .transfer(key.size_bytes() + result_bytes as u64);
    (
        result_bytes,
        serve.as_millis_f64(),
        (serve + transfer).as_millis_f64(),
    )
}

/// The Fig. 12 sweep over the paper's result sizes (10 B – 30 KB).
pub fn fig12_rows() -> Vec<(usize, f64, f64)> {
    let cluster = Cluster::edbt_testbed();
    let config = SyntheticConfig {
        key_space: 16,
        num_records: 16,
        ..SyntheticConfig::default()
    };
    let index = build_index(&config, &cluster);
    [10, 100, 1_000, 10_000, 30_000]
        .iter()
        .map(|&l| fig12_row(&cluster, &index, l))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::run_mode;
    use efind::{Mode, Strategy};

    fn tiny() -> SyntheticConfig {
        SyntheticConfig {
            num_records: 2_000,
            key_space: 1_000,
            record_pad: 64,
            index_value_size: 128,
            chunks: 20,
            ..SyntheticConfig::default()
        }
    }

    #[test]
    fn keys_are_uniform_over_space() {
        let config = tiny();
        let recs = generate(&config);
        let mut seen = std::collections::HashSet::new();
        for r in &recs {
            let k = r.value.as_list().unwrap()[0].as_int().unwrap();
            assert!((0..config.key_space as i64).contains(&k));
            seen.insert(k);
        }
        // ~2 records per key: a large fraction of the space is covered.
        assert!(seen.len() > config.key_space / 2);
    }

    #[test]
    fn join_attaches_index_values_under_all_strategies() {
        for strategy in [
            Strategy::Baseline,
            Strategy::Repartition,
            Strategy::IndexLocality,
        ] {
            let mut s = scenario(&tiny());
            run_mode(&mut s, "x", Mode::Uniform(strategy)).unwrap();
            let out = s.dfs.read_file("syn.joined").unwrap();
            assert_eq!(out.len(), 2_000, "{strategy:?}");
            for r in out.iter().take(20) {
                let v = r.value.as_list().unwrap();
                // Joined size recorded: 128-byte payload + datum header.
                assert!(v[1].as_int().unwrap() > 128, "{strategy:?}");
            }
        }
    }

    #[test]
    fn fig12_remote_gap_grows_with_result_size() {
        let rows = fig12_rows();
        assert_eq!(rows.len(), 5);
        let gap_small = rows[0].2 - rows[0].1;
        let gap_large = rows[4].2 - rows[4].1;
        assert!(gap_large > gap_small * 2.0, "{rows:?}");
        // Both curves increase.
        for w in rows.windows(2) {
            assert!(w[1].1 >= w[0].1);
            assert!(w[1].2 >= w[0].2);
        }
    }

    /// Rows of the generator's shape — a join key, in the index's key space
    /// or not, and padding — and now and then a value that is not a list.
    fn arb_rows() -> impl proptest::strategy::Strategy<Value = Vec<Record>> {
        use proptest::prelude::{any, prop_oneof};
        use proptest::strategy::Strategy as _;
        let value = prop_oneof![
            9 => (-5..1_200i64, 0..80usize).prop_map(|(key, pad)| {
                Datum::List(vec![Datum::Int(key), Datum::Bytes(vec![0xAB; pad])])
            }),
            1 => any::<i64>().prop_map(Datum::Int),
        ];
        let row = (any::<i64>(), value).prop_map(|(id, value)| Record::new(id, value));
        proptest::collection::vec(row, 1..6)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// `SynJoin` takes a lent head row and its copy to the same carrier,
        /// counters and output, with the workload's own index.
        #[test]
        fn a_lent_and_an_owned_row_give_the_join_the_same_output(rows in arb_rows()) {
            static BOUND: std::sync::OnceLock<BoundOperator> = std::sync::OnceLock::new();
            let bound = BOUND.get_or_init(|| {
                let index = build_index(&tiny(), &Cluster::edbt_testbed());
                build_job(index).head[0].clone()
            });
            crate::lending::lent_and_owned_agree(bound, &rows)?;
        }
    }
}
