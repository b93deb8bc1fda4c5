//! Golden output-equivalence tests for the real-time hot path.
//!
//! The hot-path work (interned counters, `Arc`-shared cache results,
//! allocation-free shuffle/reduce, shared DFS chunks) is a *real-time*
//! optimization only: every virtual-time observable — makespans, counter
//! maps, shuffle bytes, and DFS file contents — must stay bit-identical
//! to the seed implementation. The constants below were captured from the
//! seed revision (before the rewrite) and pin that equivalence across a
//! plain MapReduce job, the scan join, and a multi-index EFind workload.

mod common;

use common::{
    counter_fingerprint, file_fingerprint, golden_config, multi_index_goldens, obs as golden,
    Observables as Goldens,
};
use efind::{EFindRuntime, Mode, Strategy};
use efind_cluster::Cluster;
use efind_common::{fx_hash_bytes, Datum, Record};
use efind_dfs::{Dfs, DfsConfig};
use efind_mapreduce::{mapper_fn, reducer_fn, run_job, JobConf};
use efind_workloads::multi::{self, MultiConfig};
use efind_workloads::scanjoin::run_scan_join;
use efind_workloads::tpch::{self, TpchConfig};

#[test]
fn wordcount_virtual_results_match_seed() {
    let cluster = Cluster::builder()
        .nodes(4)
        .map_slots(2)
        .reduce_slots(2)
        .build();
    let mut dfs = Dfs::new(
        cluster.clone(),
        DfsConfig {
            chunk_size_bytes: 512,
            replication: 2,
            seed: 9,
        },
    );
    let text = ["the", "quick", "fox", "the", "lazy", "dog", "the", "fox"];
    let records: Vec<Record> = text
        .iter()
        .cycle()
        .take(200)
        .enumerate()
        .map(|(i, w)| Record::new(i as i64, *w))
        .collect();
    dfs.write_file("input", records);
    let conf = JobConf::new("wordcount", "input", "out")
        .add_mapper(mapper_fn(|rec, out, _| {
            out.collect(Record::new(rec.value.clone(), 1i64));
        }))
        .with_reducer(
            reducer_fn(|key, values, out, _| {
                let total: i64 = values.iter().filter_map(Datum::as_int).sum();
                out.collect(Record::new(key, total));
            }),
            3,
        );
    let res = run_job(&cluster, &mut dfs, &conf).unwrap();

    let captured: Goldens = vec![
        golden("makespan.nanos", res.stats.makespan().as_nanos()),
        golden("shuffle.bytes", res.stats.shuffle_bytes),
        golden("counters.fingerprint", counter_fingerprint(&res.stats)),
        golden("output.records", res.output.total_records() as u64),
        golden("output.fingerprint", file_fingerprint(&dfs, "out")),
    ];
    let expected: Goldens = vec![
        golden("makespan.nanos", common::WORDCOUNT_MAKESPAN_NANOS),
        golden("shuffle.bytes", common::WORDCOUNT_SHUFFLE_BYTES),
        golden("counters.fingerprint", common::WORDCOUNT_COUNTER_FP),
        golden("output.records", 5),
        golden("output.fingerprint", common::WORDCOUNT_OUTPUT_FP),
    ];
    assert_eq!(captured, expected);
}

#[test]
fn scanjoin_virtual_results_match_seed() {
    let cluster = Cluster::edbt_testbed();
    let mut dfs = Dfs::new(cluster.clone(), DfsConfig::default());
    let data = tpch::generate(&TpchConfig {
        scale: 0.002,
        chunks: 30,
        seed: 3,
        ..TpchConfig::default()
    });
    let (makespan, joined) = run_scan_join(&cluster, &mut dfs, &data, 1_200, 30).unwrap();

    let captured: Goldens = vec![
        golden("makespan.nanos", makespan.as_nanos()),
        golden("joined.rows", joined),
        golden("output.fingerprint", file_fingerprint(&dfs, "scanjoin.out")),
    ];
    let expected: Goldens = vec![
        golden("makespan.nanos", 47_634_460),
        golden("joined.rows", 5_723),
        golden("output.fingerprint", 1_402_658_617_768_828_488),
    ];
    assert_eq!(captured, expected);
}

/// Quiet-profile monomorphization golden: every workload in this file,
/// run with all three injection layers *configured but quiet* (a seeded
/// fault plan with zero rates and no timeout, a seeded chaos plan with
/// zero kills, a seeded corruption plan with zero rates), must produce
/// byte-identical virtual observables to the plain run. Because the
/// plain runs are pinned against the seed above, this transitively pins
/// the quiet-profile runs to the seed too.
#[test]
fn quiet_profile_is_byte_identical_to_plain() {
    use efind::{FaultConfig, FaultPlan};
    use efind_cluster::{ChaosPlan, CorruptionPlan, SimTime};
    use efind_mapreduce::Runner;
    use efind_workloads::scanjoin::run_scan_join_with;

    const SEED: u64 = 0xEF1D_0007;

    // --- wordcount: plain runner vs configured-but-quiet runner.
    let run_wordcount = |quiet: bool| -> Goldens {
        let cluster = Cluster::builder()
            .nodes(4)
            .map_slots(2)
            .reduce_slots(2)
            .build();
        let mut dfs = Dfs::new(
            cluster.clone(),
            DfsConfig {
                chunk_size_bytes: 512,
                replication: 2,
                seed: 9,
            },
        );
        let text = ["the", "quick", "fox", "the", "lazy", "dog", "the", "fox"];
        let records: Vec<Record> = text
            .iter()
            .cycle()
            .take(200)
            .enumerate()
            .map(|(i, w)| Record::new(i as i64, *w))
            .collect();
        dfs.write_file("input", records);
        let conf = JobConf::new("wordcount", "input", "out")
            .add_mapper(mapper_fn(|rec, out, _| {
                out.collect(Record::new(rec.value.clone(), 1i64));
            }))
            .with_reducer(
                reducer_fn(|key, values, out, _| {
                    let total: i64 = values.iter().filter_map(Datum::as_int).sum();
                    out.collect(Record::new(key, total));
                }),
                3,
            );
        let res = if quiet {
            Runner::with_chaos(&cluster, &mut dfs, ChaosPlan::new(SEED))
                .with_corruption(CorruptionPlan::new(SEED))
                .run(&conf, SimTime::ZERO)
        } else {
            run_job(&cluster, &mut dfs, &conf)
        }
        .unwrap();
        vec![
            golden("makespan.nanos", res.stats.makespan().as_nanos()),
            golden("shuffle.bytes", res.stats.shuffle_bytes),
            golden("counters.fingerprint", counter_fingerprint(&res.stats)),
            golden("output.records", res.output.total_records() as u64),
            golden("output.fingerprint", file_fingerprint(&dfs, "out")),
        ]
    };
    assert_eq!(run_wordcount(false), run_wordcount(true), "wordcount");

    // --- scanjoin: plain join vs configured-but-quiet plans on the runner.
    let run_scanjoin = |quiet: bool| -> Goldens {
        let cluster = Cluster::edbt_testbed();
        let mut dfs = Dfs::new(cluster.clone(), DfsConfig::default());
        let data = tpch::generate(&TpchConfig {
            scale: 0.002,
            chunks: 30,
            seed: 3,
            ..TpchConfig::default()
        });
        let (chaos, corruption) = if quiet {
            (ChaosPlan::new(SEED), CorruptionPlan::new(SEED))
        } else {
            (ChaosPlan::none(), CorruptionPlan::none())
        };
        let (makespan, joined) =
            run_scan_join_with(&cluster, &mut dfs, &data, 1_200, 30, chaos, corruption).unwrap();
        vec![
            golden("makespan.nanos", makespan.as_nanos()),
            golden("joined.rows", joined),
            golden("output.fingerprint", file_fingerprint(&dfs, "scanjoin.out")),
        ]
    };
    assert_eq!(run_scanjoin(false), run_scanjoin(true), "scanjoin");

    // --- multi-index EFind workload: quiet plans on all three layers of
    // the runtime config, including the fault layer on every lookup.
    let run_multi = |quiet: bool| -> Goldens {
        let mut s = multi::scenario(&golden_config());
        let mut efind_config = s.efind_config.clone();
        if quiet {
            efind_config.faults = FaultConfig::disabled().with_plan(FaultPlan::new(SEED));
            efind_config.chaos = ChaosPlan::new(SEED);
            efind_config.corruption = CorruptionPlan::new(SEED);
        }
        let mut rt = EFindRuntime::with_config(&s.cluster, &mut s.dfs, efind_config);
        let res = rt.run(&s.ijob, Mode::Uniform(Strategy::Cache)).unwrap();
        vec![
            golden("total.nanos", res.total_time.as_nanos()),
            golden("jobs", res.jobs.len() as u64),
            golden(
                "job0.counters.fingerprint",
                counter_fingerprint(&res.jobs[0]),
            ),
            golden("output.records", res.output.total_records() as u64),
            golden(
                "output.fingerprint",
                file_fingerprint(&s.dfs, "ads.enriched"),
            ),
        ]
    };
    assert_eq!(run_multi(false), run_multi(true), "multi_index");
}

/// One multi-index workload (three independent indices in one operator)
/// under both a chained strategy (cache) and a shuffle strategy
/// (re-partitioning), pinning per-job makespans, shuffle bytes, counter
/// maps, and the output file.
#[test]
fn multi_index_virtual_results_match_seed() {
    for (strategy, expected) in multi_index_goldens() {
        let mut s = multi::scenario(&golden_config());
        let mut rt = EFindRuntime::with_config(&s.cluster, &mut s.dfs, s.efind_config.clone());
        let res = rt.run(&s.ijob, Mode::Uniform(strategy)).unwrap();

        let mut captured: Goldens = vec![
            golden("total.nanos", res.total_time.as_nanos()),
            golden("jobs", res.jobs.len() as u64),
            golden("job0.makespan.nanos", res.jobs[0].makespan().as_nanos()),
            golden("job0.shuffle.bytes", res.jobs[0].shuffle_bytes),
            golden(
                "job0.counters.fingerprint",
                counter_fingerprint(&res.jobs[0]),
            ),
        ];
        captured.push(golden("output.records", res.output.total_records() as u64));
        captured.push(golden(
            "output.fingerprint",
            file_fingerprint(&s.dfs, "ads.enriched"),
        ));
        assert_eq!(captured, expected, "strategy {strategy:?}");
    }
}

/// Every virtual observable of a finished EFind run: job count, then per
/// constituent job its makespan, shuffle bytes, and full counter map, then
/// the output file.
fn pipeline_goldens(res: &efind::EFindJobResult, dfs: &Dfs, output: &str) -> Goldens {
    let mut captured = vec![
        golden("total.nanos", res.total_time.as_nanos()),
        golden("jobs", res.jobs.len() as u64),
    ];
    for (i, job) in res.jobs.iter().enumerate() {
        captured.push(golden(
            format!("job{i}.makespan.nanos"),
            job.makespan().as_nanos(),
        ));
        captured.push(golden(format!("job{i}.shuffle.bytes"), job.shuffle_bytes));
        captured.push(golden(
            format!("job{i}.counters.fingerprint"),
            counter_fingerprint(job),
        ));
    }
    captured.push(golden("output.records", res.output.total_records() as u64));
    captured.push(golden("output.fingerprint", file_fingerprint(dfs, output)));
    captured
}

/// The single-index shuffle operator (pre and rekey in the map, group
/// lookup and post in the reduce) under both shuffle strategies. Captured
/// on the commit before carrier steps were fused into segments.
#[test]
fn synthetic_shuffle_strategies_match_pre_fusion_goldens() {
    use efind_workloads::synthetic::{self, SyntheticConfig};

    let expected_by_mode: [(Strategy, Goldens); 2] = [
        (
            Strategy::Repartition,
            vec![
                golden("total.nanos", 11_346_156),
                golden("jobs", 1),
                golden("job0.makespan.nanos", 11_346_156),
                golden("job0.shuffle.bytes", 342_000),
                golden("job0.counters.fingerprint", 10_416_361_766_625_681_195),
                golden("output.records", 6_000),
                golden("output.fingerprint", 17_291_732_468_960_446_239),
            ],
        ),
        (
            Strategy::IndexLocality,
            vec![
                golden("total.nanos", 11_002_892),
                golden("jobs", 1),
                golden("job0.makespan.nanos", 11_002_892),
                golden("job0.shuffle.bytes", 342_000),
                golden("job0.counters.fingerprint", 10_416_361_766_625_681_195),
                golden("output.records", 6_000),
                golden("output.fingerprint", 17_845_844_088_557_605_302),
            ],
        ),
    ];
    for (strategy, expected) in expected_by_mode {
        let mut s = synthetic::scenario(&SyntheticConfig {
            num_records: 6_000,
            key_space: 700,
            record_pad: 48,
            index_value_size: 96,
            chunks: 24,
            ..SyntheticConfig::default()
        });
        let mut rt = EFindRuntime::with_config(&s.cluster, &mut s.dfs, s.efind_config.clone());
        let res = rt.run(&s.ijob, Mode::Uniform(strategy)).unwrap();
        let captured = pipeline_goldens(&res, &s.dfs, "syn.joined");
        assert_eq!(captured, expected, "strategy {strategy:?}");
    }
}

/// TPC-H Q9 (five indices, head/body/tail placements, mixed plans chosen
/// by the optimizer from a baseline run's statistics). Captured on the
/// commit before carrier steps were fused into segments.
#[test]
fn q9_optimized_matches_pre_fusion_goldens() {
    let mut s = tpch::q9_scenario(&TpchConfig {
        scale: 0.002,
        chunks: 30,
        seed: 3,
        ..TpchConfig::default()
    });
    let output = s.ijob.output.clone();
    let mut rt = EFindRuntime::with_config(&s.cluster, &mut s.dfs, s.efind_config.clone());
    rt.run(&s.ijob, Mode::Uniform(Strategy::Baseline)).unwrap();
    let res = rt.run(&s.ijob, Mode::Optimized).unwrap();
    let captured = pipeline_goldens(&res, &s.dfs, &output);
    let expected: Goldens = vec![
        golden("total.nanos", 162_818_340),
        golden("jobs", 2),
        golden("job0.makespan.nanos", 55_127_851),
        golden("job0.shuffle.bytes", 1_378_196),
        golden("job0.counters.fingerprint", 4_866_184_493_601_449_483),
        golden("job1.makespan.nanos", 107_690_489),
        golden("job1.shuffle.bytes", 42_192),
        golden("job1.counters.fingerprint", 8_643_627_041_836_133_243),
        golden("output.records", 174),
        golden("output.fingerprint", 1_127_085_123_377_833_606),
    ];
    assert_eq!(captured, expected);
}

/// A two-index head operator planned repart + repart: job 0's reduce fills
/// slot 0 and re-keys for slot 1, so the *filled* carrier is stored in the
/// job-boundary file `pair.tmp0` and parsed back by job 1's group lookup.
/// Pins every job's virtual observables and the temp file's chunking, which
/// is cut on the stored carrier records' sizes (the file's bytes are not
/// pinned: the payload's header changed kind, not length). Captured on the
/// commit before the carrier payload became one flat buffer.
#[test]
fn repart_repart_carrier_file_matches_pre_flat_goldens() {
    use efind::{operator_fn, BoundOperator, EFindConfig, IndexJobConf};
    use efind_mapreduce::Collector;

    let config = MultiConfig {
        num_events: 3_000,
        num_users: 200,
        num_ads: 500,
        num_sites: 100,
        site_value_bytes: 200,
        chunks: 30,
        ..MultiConfig::default()
    };
    let cluster = Cluster::edbt_testbed();
    let mut dfs = Dfs::new(cluster.clone(), DfsConfig::default());
    dfs.write_file_with_chunks("ads.events", multi::generate(&config), config.chunks);
    let (users, _ads, sites) = multi::build_indices(&config, &cluster);
    let pair = operator_fn(
        "pair",
        2,
        |rec: &mut Record, keys: &mut efind::IndexInput| {
            if let Some(f) = rec.value.as_list() {
                keys.put(0, f[0].clone());
                keys.put(1, f[2].clone());
            }
        },
        |rec: Record, values: &efind::IndexOutput, out: &mut dyn Collector| {
            let segment = values.first(0).first().cloned().unwrap_or(Datum::Null);
            let reputation = values.first(1).first().map_or(0, Datum::size_bytes);
            out.collect(Record::new(
                segment,
                Datum::List(vec![rec.key, Datum::Int(reputation as i64)]),
            ));
        },
    );
    let ijob = IndexJobConf::new("pair", "ads.events", "pair.out")
        .add_head_index_operator(BoundOperator::new(pair).add_index(users).add_index(sites))
        .set_mapper(mapper_fn(|rec, out, _| out.collect(rec)))
        .set_reducer(
            reducer_fn(|key, values, out, _| {
                out.collect(Record::new(key, values.len() as i64));
            }),
            24,
        );
    let efind_config = EFindConfig {
        keep_intermediates: true,
        ..EFindConfig::default()
    };
    let mut rt = EFindRuntime::with_config(&cluster, &mut dfs, efind_config);
    let res = rt.run(&ijob, Mode::Uniform(Strategy::Repartition)).unwrap();

    let mut captured = pipeline_goldens(&res, &dfs, "pair.out");
    let tmp = dfs.stat("pair.tmp0").unwrap();
    captured.push(golden("tmp0.chunks", tmp.chunks.len() as u64));
    captured.push(golden("tmp0.bytes", tmp.total_bytes()));
    let per_chunk: Vec<String> = tmp.chunks.iter().map(|c| c.bytes.to_string()).collect();
    captured.push(golden(
        "tmp0.chunk_bytes.fingerprint",
        fx_hash_bytes(per_chunk.join(",").as_bytes()),
    ));
    let expected: Goldens = vec![
        golden("total.nanos", 12_604_807),
        golden("jobs", 3),
        golden("job0.makespan.nanos", 7_381_276),
        golden("job0.shuffle.bytes", 285_000),
        golden("job0.counters.fingerprint", 4_394_460_984_117_328_309),
        golden("job1.makespan.nanos", 4_174_236),
        golden("job1.shuffle.bytes", 352_080),
        golden("job1.counters.fingerprint", 4_722_328_376_407_806_545),
        golden("job2.makespan.nanos", 1_049_295),
        golden("job2.shuffle.bytes", 109_080),
        golden("job2.counters.fingerprint", 2_067_570_947_657_507_227),
        golden("output.records", 16),
        golden("output.fingerprint", 16_955_538_386_857_333_311),
        golden("tmp0.chunks", 200),
        golden("tmp0.bytes", 352_080),
        golden("tmp0.chunk_bytes.fingerprint", 1_279_660_794_181_110_078),
    ];
    assert_eq!(captured, expected);
}
