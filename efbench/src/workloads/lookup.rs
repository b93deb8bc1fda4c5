//! The four synthetic-join workloads: one join, four regimes of the
//! lookup path (cache hits, cache misses, a shuffle instead of a cache,
//! every injection layer armed).

use std::sync::Arc;

use efind::{
    ChargedLookup, EFindConfig, EFindRuntime, FaultConfig, FaultPlan, HedgeConfig, HedgePolicy,
    IndexAccessor, IndexJobConf, LookupCache, LookupMode, Mode, RetryPolicy, Strategy,
};
use efind_cluster::{
    ChaosPlan, Cluster, CorruptionPlan, DetectorConfig, PartitionPlan, SimDuration, SimTime,
};
use efind_common::{crc32, Datum, FxHashSet, Record, Result};
use efind_dfs::{Dfs, DfsConfig};
use efind_index::KvStore;
use efind_mapreduce::TaskCtx;
use efind_workloads::synthetic::{self, SyntheticConfig};

use super::{timed, Ran, Scale, SetupTimes, Workload};
use crate::digest::Digest;
use crate::pipeline::{install_timed_accessors, run_enhanced_traced, Layers};
use crate::trace::{AccessorClock, Tracer};

const INPUT: &str = "syn.input";

/// Which regime of the lookup path a workload sits in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Variant {
    /// Working set inside the 1024-entry cache.
    Hot,
    /// Working set a hundred times the cache.
    Cold,
    /// The hot input, looked up through a shuffle job.
    Repart,
    /// The hot input under the cache, every injection layer armed.
    Armed,
}

impl Variant {
    fn input(self, seed: u64, scale: Scale) -> SyntheticConfig {
        match self {
            // syn_cold: uniform keys over 100 k, 1 KB index values.
            Variant::Cold => SyntheticConfig {
                num_records: scale.pick(240_000, 2_400),
                key_space: scale.pick(100_000, 20_000),
                record_pad: 16,
                index_value_size: 1024,
                chunks: scale.pick(48, 4),
                key_skew: 0.0,
                seed,
            },
            // syn_hot: 5 000 records a task over 1 000 keys. A task then
            // misses a handful of keys (which ones depends on the seed), so
            // the virtual makespan is not one constant for every seed, as
            // it is with 800 keys that every task sees all of.
            _ => SyntheticConfig {
                num_records: scale.pick(120_000, 2_400),
                key_space: 1_000,
                record_pad: 16,
                index_value_size: 64,
                chunks: scale.pick(24, 4),
                key_skew: 0.0,
                seed,
            },
        }
    }

    fn strategy(self) -> Strategy {
        match self {
            Variant::Repart => Strategy::Repartition,
            _ => Strategy::Cache,
        }
    }
}

/// Every injection layer armed with the seeds `hotpath --faults` uses,
/// the event windows placed inside a job of virtual length `makespan`.
fn armed_config(cluster: &Cluster, makespan: SimDuration) -> EFindConfig {
    let mut faults = FaultConfig::disabled().with_plan(
        FaultPlan::new(0xEF1D_0001)
            .failures(0.03)
            .timeouts(0.01)
            .slowdowns(0.01, 4.0),
    );
    faults.retry = RetryPolicy::bounded(
        16,
        SimDuration::from_micros(50),
        SimDuration::from_millis(5),
    );
    faults.timeout = Some(SimDuration::from_millis(50));
    let window_start = SimTime::ZERO + makespan.mul_f64(0.2);
    let window = makespan.mul_f64(0.5);
    EFindConfig {
        faults,
        chaos: ChaosPlan::seeded(0xEF1D_0002, cluster.num_nodes(), 1, window_start, window),
        corruption: CorruptionPlan::new(0xEF1D_0004)
            .chunks(0.02)
            .shuffle(0.05)
            .cache(0.05)
            .responses(0.02),
        netsplit: PartitionPlan::seeded(0xEF1D_0005, cluster.num_nodes(), 2, window_start, window),
        detector: DetectorConfig::default(),
        hedge: HedgeConfig {
            seed: 0xEF1D_0006,
            threshold: Some(SimDuration::from_micros(400)),
            policy: HedgePolicy::ChargeWinner,
        },
        ..EFindConfig::default()
    }
}

pub struct Lookup {
    variant: Variant,
    cluster: Cluster,
    dfs: Dfs,
    input: SyntheticConfig,
    /// The generated input, kept for the oracle and for reloading the DFS.
    records: Vec<Record>,
    index: Arc<KvStore>,
    ijob: IndexJobConf,
    /// `ijob` with a `TimedAccessor` around the index, for traced runs.
    traced_ijob: IndexJobConf,
    clock: Arc<AccessorClock>,
    config: EFindConfig,
}

fn join_key(rec: &Record) -> Datum {
    rec.value.as_list().map_or(Datum::Null, |l| l[0].clone())
}

impl Lookup {
    pub fn setup(
        variant: Variant,
        seed: u64,
        scale: Scale,
        times: &mut SetupTimes,
    ) -> Result<Self> {
        let input = variant.input(seed, scale);
        let cluster = Cluster::edbt_testbed();
        let records = timed(&mut times.generate_ns, || synthetic::generate(&input));
        let mut dfs = Dfs::new(cluster.clone(), DfsConfig::default());
        timed(&mut times.dfs_load_ns, || {
            dfs.write_file_with_chunks(INPUT, records.clone(), input.chunks)
        });
        let index = timed(&mut times.index_build_ns, || {
            synthetic::build_index(&input, &cluster)
        });
        let ijob = synthetic::build_job(index.clone());
        let clock = Arc::new(AccessorClock::default());
        let mut traced_ijob = ijob.clone();
        install_timed_accessors(&mut traced_ijob, &clock);

        let mut workload = Lookup {
            variant,
            cluster,
            dfs,
            input,
            records,
            index,
            ijob,
            traced_ijob,
            clock,
            config: EFindConfig::default(),
        };
        if variant == Variant::Armed {
            // The quiet job's makespan places the crash and the partitions
            // inside the run.
            let quiet = workload.run()?;
            workload.config = armed_config(
                &workload.cluster,
                SimDuration::from_secs_f64(quiet.virtual_s),
            );
        }
        Ok(workload)
    }

    fn mode(&self) -> Mode {
        Mode::Uniform(self.variant.strategy())
    }

    /// The keys the framework asks the index for, per task: under the
    /// cache strategy what misses a fresh 1024-entry cache per chunk;
    /// under re-partitioning every distinct key once (equal keys meet in
    /// one reducer).
    fn replay_lookup_path(&self, tracer: &mut Tracer, layers: &mut Layers) -> Result<()> {
        let chunks = self.dfs.stat(INPUT)?.chunks;
        let streams: Vec<Vec<Datum>> = chunks
            .iter()
            .map(|c| {
                self.dfs
                    .read_chunk(INPUT, c.index)
                    .map(|recs| recs.iter().map(join_key).collect())
            })
            .collect::<Result<_>>()?;
        let charged = ChargedLookup::new(
            self.traced_ijob.head[0].indices[0].clone(),
            self.cluster.network,
            "efind.synjoin.0.".to_owned(),
        );

        // Counters and sketches: what every requested key pays.
        let ((), ns) = tracer.replay("mapreduce.counters", || {
            for (task, keys) in streams.iter().enumerate() {
                let mut ctx = TaskCtx::new(task);
                for key in keys {
                    charged.note_key(key, &mut ctx);
                }
                std::hint::black_box(ctx);
            }
        });
        layers.add_ns("mapreduce.counters_ms", ns);
        let mut inside_maps_ns = ns;

        // The cache: probe, and insert on a miss.
        let mut evictions = 0u64;
        let misses: Vec<Vec<Datum>> = if self.variant.strategy() == Strategy::Cache {
            let empty: Arc<[Datum]> = Vec::new().into();
            let (misses, ns) = tracer.replay("core.cache", || {
                streams
                    .iter()
                    .map(|keys| {
                        let mut cache = LookupCache::new(self.config.cache_capacity);
                        let mut missed = Vec::new();
                        for key in keys {
                            if cache.probe(key).is_none() {
                                cache.insert(key.clone(), empty.clone());
                                missed.push(key.clone());
                            }
                        }
                        evictions += cache.evictions();
                        missed
                    })
                    .collect()
            });
            layers.add_ns("core.cache_ms", ns);
            inside_maps_ns += ns;
            misses
        } else {
            let mut seen = FxHashSet::default();
            vec![streams
                .iter()
                .flatten()
                .filter(|k| seen.insert((*k).clone()))
                .cloned()
                .collect()]
        };
        layers.add("core.cache.evictions", evictions as f64);

        // The charging wrapper around the index, minus the index itself.
        self.clock.take();
        let ((), ns) = tracer.replay("core.charged_lookup", || {
            for (task, keys) in misses.iter().enumerate() {
                let mut ctx = TaskCtx::new(task);
                for key in keys {
                    std::hint::black_box(charged.lookup(key, LookupMode::Remote, &mut ctx));
                }
            }
        });
        let charged_ns = ns.saturating_sub(self.clock.take().busy_ns);
        layers.add_ns("core.charged_lookup_ms", charged_ns);
        // Under the cache strategy all three ran inside the map phase
        // (under re-partitioning the lookups sit in the replayed reduce).
        if self.variant.strategy() == Strategy::Cache {
            inside_maps_ns += charged_ns;
        }
        layers.take_off("mapreduce.map_self_ms", inside_maps_ns as f64 / 1e6);

        // What an armed run checksums: every chunk it reads and every
        // index response it verifies.
        if self.variant == Variant::Armed {
            let mut payloads: Vec<Vec<u8>> = Vec::with_capacity(chunks.len() + 1);
            for c in &chunks {
                let mut buf = Vec::new();
                for rec in self.dfs.read_chunk(INPUT, c.index)? {
                    rec.key.encode_into(&mut buf);
                    rec.value.encode_into(&mut buf);
                }
                payloads.push(buf);
            }
            let mut responses = Vec::new();
            for key in misses.iter().flatten() {
                for value in self.index.lookup(key) {
                    value.encode_into(&mut responses);
                }
            }
            payloads.push(responses);
            let ((), ns) = tracer.replay("common.crc", || {
                for buf in &payloads {
                    std::hint::black_box(crc32(buf));
                }
            });
            layers.add_ns("common.crc_ms", ns);
        }
        Ok(())
    }
}

impl Workload for Lookup {
    fn prepare(&mut self) {
        // Crashes and quarantines of the last iteration took replicas
        // with them; an armed iteration starts from a full DFS.
        if self.variant == Variant::Armed {
            self.dfs = Dfs::new(self.cluster.clone(), DfsConfig::default());
            self.dfs
                .write_file_with_chunks(INPUT, self.records.clone(), self.input.chunks);
        }
    }

    fn run(&mut self) -> Result<Ran> {
        let mode = self.mode();
        let mut rt = EFindRuntime::with_config(&self.cluster, &mut self.dfs, self.config.clone());
        let res = rt.run(&self.ijob, mode)?;
        Ok(Ran {
            virtual_s: res.total_time.as_secs_f64(),
            jobs: res.jobs,
            replans: res.replanned as u32,
        })
    }

    fn run_traced(&mut self, tracer: &mut Tracer, layers: &mut Layers) -> Result<Ran> {
        let mode = self.mode();
        let mut rt = EFindRuntime::with_config(&self.cluster, &mut self.dfs, self.config.clone());
        let run = run_enhanced_traced(
            &mut rt,
            &self.traced_ijob,
            &mode,
            &self.clock,
            tracer,
            layers,
        )?;
        tracer.pause();
        self.replay_lookup_path(tracer, layers)?;
        tracer.resume();
        Ok(Ran {
            virtual_s: run.total_time.as_secs_f64(),
            jobs: run.jobs,
            replans: 0,
        })
    }

    fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    fn dfs(&self) -> &Dfs {
        &self.dfs
    }

    fn output_file(&self) -> &str {
        &self.ijob.output
    }

    fn reference(&self) -> Digest {
        let mut digest = Digest::default();
        for rec in &self.records {
            let key = join_key(rec);
            let joined = self
                .index
                .lookup(&key)
                .into_iter()
                .next()
                .unwrap_or(Datum::Null);
            digest.add(&Record {
                key: rec.key.clone(),
                value: Datum::List(vec![key, Datum::Int(joined.size_bytes() as i64)]),
            });
        }
        digest
    }
}
