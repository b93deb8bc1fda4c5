//! `wc_shuffle`: word count over a Zipf(1.0) token stream, with no index
//! anywhere: DFS read, map, partition, sort/group, reduce.

use std::sync::Arc;

use efind::EFindConfig;
use efind_cluster::{Cluster, SimTime};
use efind_common::det::draw_unit_u64;
use efind_common::hash::mix64;
use efind_common::{Datum, Record, Result};
use efind_dfs::{Dfs, DfsConfig};
use efind_mapreduce::{mapper_fn, reducer_fn, JobConf, Runner, TaskCtx};

use super::{timed, Ran, Scale, SetupTimes, Workload};
use crate::digest::Digest;
use crate::pipeline::{run_jobs_traced, Layers};
use crate::trace::{AccessorClock, Tracer};

const INPUT: &str = "wc.input";
const OUTPUT: &str = "wc.out";
const REDUCERS: usize = 8;

pub struct WordCount {
    cluster: Cluster,
    dfs: Dfs,
    conf: JobConf,
    vocabulary: Vec<Arc<str>>,
    /// Occurrences of each vocabulary word in the token stream.
    counts: Vec<i64>,
}

/// Seed of the vocabulary. The run's `--seed` draws the token stream, not
/// the words: which reducer the few heaviest Zipf words hash to decides
/// the reduce skew, and with a per-run vocabulary that lottery moved the
/// virtual makespan by 19 % and the wall time by 14 % from seed to seed.
const VOCABULARY_SEED: u64 = 0xEFB0_C0DE;

/// A vocabulary of distinct words, 4 to 12 characters long.
fn vocabulary(words: usize) -> Vec<Arc<str>> {
    (0..words as u64)
        .map(|i| {
            let h = mix64(VOCABULARY_SEED ^ mix64(i));
            let stem = format!("{h:016x}");
            // The index suffix keeps words distinct whatever the stem.
            format!("{}{i:x}", &stem[..3 + (h % 5) as usize]).into()
        })
        .collect()
}

impl WordCount {
    pub fn setup(seed: u64, scale: Scale, times: &mut SetupTimes) -> Self {
        let tokens = scale.pick(1_200_000, 6_000);
        let words = scale.pick(20_000, 200);
        let chunks = scale.pick(96, 6);

        let (vocabulary, counts, records) = timed(&mut times.generate_ns, || {
            let vocabulary = vocabulary(words);
            // Zipf(1.0): rank r is drawn with weight 1/r.
            let mut cumulative = Vec::with_capacity(words);
            let mut total = 0.0f64;
            for rank in 1..=words {
                total += 1.0 / rank as f64;
                cumulative.push(total);
            }
            let mut counts = vec![0i64; words];
            let records: Vec<Record> = (0..tokens as u64)
                .map(|i| {
                    let u = draw_unit_u64(seed, "efbench.word", i) * total;
                    let w = cumulative.partition_point(|c| *c <= u).min(words - 1);
                    counts[w] += 1;
                    Record::new(i as i64, &*vocabulary[w])
                })
                .collect();
            (vocabulary, counts, records)
        });

        let cluster = Cluster::builder()
            .nodes(8)
            .map_slots(2)
            .reduce_slots(2)
            .build();
        let mut dfs = Dfs::new(
            cluster.clone(),
            DfsConfig {
                replication: 2,
                ..DfsConfig::default()
            },
        );
        timed(&mut times.dfs_load_ns, || {
            dfs.write_file_with_chunks(INPUT, records, chunks)
        });

        let conf = JobConf::new("wc_shuffle", INPUT, OUTPUT)
            .add_mapper(mapper_fn(|rec, out, _| {
                out.collect(Record::new(rec.value, 1i64));
            }))
            .with_reducer(
                reducer_fn(|key, values, out, _| {
                    let total: i64 = values.iter().filter_map(Datum::as_int).sum();
                    out.collect(Record::new(key, total));
                }),
                REDUCERS,
            );
        WordCount {
            cluster,
            dfs,
            conf,
            vocabulary,
            counts,
        }
    }

    /// Times the user's map and reduce functions alone, on the records
    /// and groups the job fed them.
    fn replay_user_fns(&self, tracer: &mut Tracer, layers: &mut Layers) -> Result<()> {
        let chunks = self.dfs.stat(INPUT)?.chunks;
        let mut map_ns = 0u64;
        for chunk in &chunks {
            let records = self.dfs.read_chunk(INPUT, chunk.index)?.to_vec();
            let ((), ns) = tracer.replay("mapreduce.user_fn", || {
                let mut mapper = (self.conf.map_chain[0])();
                let mut ctx = TaskCtx::new(chunk.index);
                let mut out: Vec<Record> = Vec::with_capacity(records.len());
                for rec in records {
                    mapper.map(rec, &mut out, &mut ctx);
                }
                std::hint::black_box(out);
            });
            map_ns += ns;
        }
        let groups: Vec<(Datum, Vec<Datum>)> = self
            .vocabulary
            .iter()
            .zip(&self.counts)
            .filter(|(_, n)| **n > 0)
            .map(|(w, n)| (Datum::Text(w.to_string()), vec![Datum::Int(1); *n as usize]))
            .collect();
        let ((), reduce_ns) = tracer.replay("mapreduce.user_fn", || {
            if let Some(factory) = &self.conf.reducer {
                let mut reducer = factory();
                let mut ctx = TaskCtx::new(0);
                let mut out: Vec<Record> = Vec::with_capacity(groups.len());
                for (key, values) in groups {
                    reducer.reduce(key, values, &mut out, &mut ctx);
                }
                std::hint::black_box(out);
            }
        });
        layers.add_ns("mapreduce.user_fn_ms", map_ns + reduce_ns);
        // The user's map ran inside the map phase, the user's reduce inside
        // the replayed reduce phase.
        layers.take_off("mapreduce.map_self_ms", map_ns as f64 / 1e6);
        layers.take_off("mapreduce.reduce_ms", reduce_ns as f64 / 1e6);
        Ok(())
    }
}

impl Workload for WordCount {
    fn run(&mut self) -> Result<Ran> {
        let res = Runner::new(&self.cluster, &mut self.dfs).run(&self.conf, SimTime::ZERO)?;
        Ok(Ran {
            virtual_s: res.stats.makespan().as_secs_f64(),
            jobs: vec![res.stats],
            replans: 0,
        })
    }

    fn run_traced(&mut self, tracer: &mut Tracer, layers: &mut Layers) -> Result<Ran> {
        let run = run_jobs_traced(
            &self.cluster,
            &mut self.dfs,
            &EFindConfig::default(),
            std::slice::from_ref(&self.conf),
            &AccessorClock::default(),
            tracer,
            layers,
        )?;
        tracer.pause();
        self.replay_user_fns(tracer, layers)?;
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
        OUTPUT
    }

    fn reference(&self) -> Digest {
        let mut digest = Digest::default();
        for (word, n) in self.vocabulary.iter().zip(&self.counts) {
            if *n > 0 {
                digest.add(&Record::new(&**word, *n));
            }
        }
        digest
    }
}
