//! The counters a segment bumps once a record (`n1`, `s1.bytes`,
//! `spre.bytes`, `nik.irregular`, `sidx.bytes`, `spost.bytes`, `post.out`)
//! are tallied in the task and written at `flush`. A task's `Counters` must
//! come out as per-record bumping left them — the values *and* the set of
//! entries, which `tests/hotpath_golden.rs` fingerprints. Every literal
//! below was captured on the commit that still bumped per record
//! (`ae00e6f`), with this file unchanged.
//!
//! The wave-by-wave reduce of the adaptive runtime is pinned by
//! `tests/adaptive_golden.rs`, whose counter fingerprints cover all five
//! exits of a cold `Mode::Dynamic` run.

use std::sync::Arc;

use efind::compile::{compile_pipeline, CompiledPipeline, RuntimeEnv};
use efind::{
    forced_plan, operator_fn, BoundOperator, EFindConfig, IndexAccessor, IndexInput, IndexJobConf,
    IndexOperator, IndexOutput, Strategy,
};
use efind_cluster::{Cluster, SimDuration, SimTime};
use efind_common::{Datum, FxHashMap, Record};
use efind_dfs::{Dfs, DfsConfig};
use efind_mapreduce::api::run_chain;
use efind_mapreduce::{Collector, Counters, JobConf, Runner, TaskCtx};

fn env() -> RuntimeEnv {
    RuntimeEnv {
        cache_capacity: 64,
        shuffle_reducers: 2,
        intermediate_chunks: 4,
        ..RuntimeEnv::new(
            &Cluster::builder().nodes(3).build(),
            2,
            &EFindConfig::default(),
        )
    }
}

/// `key → ["v<key>"]` for keys 0..8, nothing beyond.
struct Table;

impl IndexAccessor for Table {
    fn name(&self) -> &str {
        "table"
    }
    fn lookup(&self, key: &Datum) -> Vec<Datum> {
        match key.as_int() {
            Some(k) if (0..8).contains(&k) => vec![Datum::Text(format!("v{k}"))],
            _ => vec![],
        }
    }
    fn serve_time(&self, _key: &Datum, _result_bytes: u64) -> SimDuration {
        SimDuration::from_micros(100)
    }
}

/// Puts `keys_of(k1)` lookup keys (`k1`, `k1 + 1`, …) and emits one record
/// per result found — none when `mute`.
fn op(name: &str, keys_of: fn(i64) -> i64, mute: bool) -> Arc<dyn IndexOperator> {
    operator_fn(
        name,
        1,
        move |rec: &mut Record, keys: &mut IndexInput| {
            let k = rec.key.as_int().expect("int key");
            for i in 0..keys_of(k) {
                keys.put(0, (k + i) % 10);
            }
        },
        move |rec: Record, values: &IndexOutput, out: &mut dyn Collector| {
            if mute {
                return;
            }
            for list in values.get(0) {
                for v in list.iter() {
                    out.collect(Record::new(rec.key.clone(), v.clone()));
                }
            }
        },
    )
}

/// A map-only job with `op` as its head operator under `strategy`.
fn compiled(op: Arc<dyn IndexOperator>, strategy: Strategy) -> CompiledPipeline {
    let name = op.name().to_owned();
    let bound = BoundOperator::new(op).add_index(Arc::new(Table));
    let mut plans = FxHashMap::default();
    plans.insert(name, forced_plan(&bound.caps(), strategy));
    let ijob = IndexJobConf::new("tally", "in", "out").add_head_index_operator(bound);
    compile_pipeline(&ijob, &plans, &env()).expect("the pipeline compiles")
}

fn records(keys: impl IntoIterator<Item = i64>) -> Vec<Record> {
    keys.into_iter()
        .map(|k| Record::new(k, format!("pad-{k}")))
        .collect()
}

fn listed(counters: &Counters) -> String {
    counters
        .iter_sorted()
        .iter()
        .map(|(name, v)| format!("{name}={v}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// One map task over `input`: its output, counters and failure.
fn map_task(job: &JobConf, input: Vec<Record>) -> (Vec<Record>, String, Option<String>) {
    let mut ctx = TaskCtx::new(0);
    let out = run_chain(&job.map_chain, input, &mut ctx);
    (out, listed(&ctx.counters), ctx.error().map(str::to_owned))
}

/// One reduce task over the groups of `shuffled`, `reduce_post` included.
fn reduce_task(job: &JobConf, mut shuffled: Vec<Record>) -> (Vec<Record>, String) {
    shuffled.sort_by(|a, b| a.key.cmp(&b.key));
    let mut groups: Vec<(Datum, Vec<Datum>)> = Vec::new();
    for rec in shuffled {
        match groups.last_mut() {
            Some((key, values)) if *key == rec.key => values.push(rec.value),
            _ => groups.push((rec.key, vec![rec.value])),
        }
    }
    let mut ctx = TaskCtx::new(0);
    let mut reducer = (job.reducer.as_ref().expect("a shuffling job reduces"))();
    let mut reduced: Vec<Record> = Vec::new();
    for (key, values) in groups {
        reducer.reduce(key, values, &mut reduced, &mut ctx);
    }
    reducer.flush(&mut reduced, &mut ctx);
    let out = run_chain(&job.reduce_post, reduced, &mut ctx);
    assert_eq!(ctx.error(), None);
    (out, listed(&ctx.counters))
}

/// Every job of `pipeline` through the real runner; the counters of all
/// its tasks merged, job by job.
fn full_run(pipeline: &CompiledPipeline, input: Vec<Record>) -> Vec<String> {
    let cluster = Cluster::builder()
        .nodes(3)
        .map_slots(2)
        .reduce_slots(2)
        .build();
    let mut dfs = Dfs::new(
        cluster.clone(),
        DfsConfig {
            chunk_size_bytes: 256,
            replication: 2,
            seed: 3,
        },
    );
    dfs.write_file("in", input);
    let mut t = SimTime::ZERO;
    let mut per_job = Vec::new();
    for job in &pipeline.jobs {
        let res = Runner::new(&cluster, &mut dfs).run(job, t).expect("job");
        t = res.stats.finished;
        per_job.push(listed(&res.stats.counters));
    }
    per_job
}

const VARY: fn(i64) -> i64 = |k| k % 3;
const ONE: fn(i64) -> i64 = |_| 1;

#[test]
fn a_tasks_counters_equal_what_per_record_bumping_left() {
    let mut seen: Vec<(&str, String)> = Vec::new();

    // Cache, 0/1/2 keys a record: every entry, `nik.irregular` included.
    let vary = compiled(op("vary", VARY, false), Strategy::Cache);
    let (out, counters, error) = map_task(&vary.jobs[0], records(0..12));
    assert_eq!((out.len(), error), (10, None));
    seen.push(("cache vary", counters));
    // No input: none of the seven, only what `flush` always writes.
    seen.push(("cache empty", map_task(&vary.jobs[0], Vec::new()).1));
    // One key every record: no `nik.irregular`.
    let one = compiled(op("one", ONE, false), Strategy::Cache);
    seen.push((
        "cache one",
        map_task(&one.jobs[0], records([1, 4, 7, 1, 9])).1,
    ));

    // Baseline, a `post_process` that emits nothing: the `Spost` pair is
    // there, at zero.
    let mute = compiled(op("mute", ONE, true), Strategy::Baseline);
    let (out, counters, error) = map_task(&mute.jobs[0], records(0..5));
    assert_eq!((out.len(), error), (0, None));
    seen.push(("baseline mute", counters));
    seen.push((
        "baseline vary",
        map_task(
            &compiled(op("vary", VARY, false), Strategy::Baseline).jobs[0],
            records(0..12),
        )
        .1,
    ));

    // Repartition: the map side opens, the reduce side closes.
    let repart = compiled(op("one", ONE, false), Strategy::Repartition);
    assert_eq!(repart.jobs.len(), 1);
    let (shuffled, counters, error) = map_task(&repart.jobs[0], records([1, 4, 7, 1, 9, 4, 4]));
    assert_eq!((shuffled.len(), error), (7, None));
    seen.push(("repart map", counters));
    let (out, counters) = reduce_task(&repart.jobs[0], shuffled);
    assert_eq!(out.len(), 6);
    seen.push(("repart reduce", counters));
    seen.push((
        "repart reduce empty",
        reduce_task(&repart.jobs[0], Vec::new()).1,
    ));
    let muted = compiled(op("mute", ONE, true), Strategy::Repartition);
    let (shuffled, ..) = map_task(&muted.jobs[0], records(0..4));
    seen.push((
        "repart reduce mute",
        reduce_task(&muted.jobs[0], shuffled).1,
    ));

    let expected: &[(&str, &str)] = &[
        (
            "cache vary",
            "efind.mapout.bytes=160 efind.mapout.records=10 \
             efind.vary.0.cache.hits=2 efind.vary.0.cache.probes=12 \
             efind.vary.0.key.bytes=108 efind.vary.0.lookups=10 efind.vary.0.nik=12 \
             efind.vary.0.nik.irregular=8 efind.vary.0.shadow.hits=2 \
             efind.vary.0.shadow.probes=12 efind.vary.0.sik.bytes=90 \
             efind.vary.0.siv.bytes=56 efind.vary.0.tj.nanos=1000000 \
             efind.vary.n1=12 efind.vary.post.out=10 efind.vary.s1.bytes=230 \
             efind.vary.sidx.bytes=876 efind.vary.spost.bytes=160 \
             efind.vary.spre.bytes=698",
        ),
        (
            "cache empty",
            "efind.vary.0.cache.hits=0 efind.vary.0.cache.probes=0 \
             efind.vary.0.shadow.hits=0 efind.vary.0.shadow.probes=0",
        ),
        (
            "cache one",
            "efind.mapout.bytes=64 efind.mapout.records=4 efind.one.0.cache.hits=1 \
             efind.one.0.cache.probes=5 efind.one.0.key.bytes=45 \
             efind.one.0.lookups=4 efind.one.0.nik=5 efind.one.0.shadow.hits=1 \
             efind.one.0.shadow.probes=5 efind.one.0.sik.bytes=36 \
             efind.one.0.siv.bytes=21 efind.one.0.tj.nanos=400000 efind.one.n1=5 \
             efind.one.post.out=4 efind.one.s1.bytes=95 efind.one.sidx.bytes=363 \
             efind.one.spost.bytes=64 efind.one.spre.bytes=290",
        ),
        (
            "baseline mute",
            "efind.mute.0.key.bytes=45 efind.mute.0.lookups=5 efind.mute.0.nik=5 \
             efind.mute.0.shadow.hits=0 efind.mute.0.shadow.probes=5 \
             efind.mute.0.sik.bytes=45 efind.mute.0.siv.bytes=35 \
             efind.mute.0.tj.nanos=500000 efind.mute.n1=5 efind.mute.post.out=0 \
             efind.mute.s1.bytes=95 efind.mute.sidx.bytes=370 \
             efind.mute.spost.bytes=0 efind.mute.spre.bytes=290",
        ),
        (
            "baseline vary",
            "efind.mapout.bytes=160 efind.mapout.records=10 \
             efind.vary.0.key.bytes=108 efind.vary.0.lookups=12 efind.vary.0.nik=12 \
             efind.vary.0.nik.irregular=8 efind.vary.0.shadow.hits=2 \
             efind.vary.0.shadow.probes=12 efind.vary.0.sik.bytes=108 \
             efind.vary.0.siv.bytes=70 efind.vary.0.tj.nanos=1200000 \
             efind.vary.n1=12 efind.vary.post.out=10 efind.vary.s1.bytes=230 \
             efind.vary.sidx.bytes=876 efind.vary.spost.bytes=160 \
             efind.vary.spre.bytes=698",
        ),
        (
            "repart map",
            "efind.one.0.key.bytes=63 efind.one.0.nik=7 efind.one.0.shadow.hits=3 \
             efind.one.0.shadow.probes=7 efind.one.n1=7 efind.one.s1.bytes=133 \
             efind.one.spre.bytes=406",
        ),
        (
            "repart reduce",
            "efind.mapout.bytes=96 efind.mapout.records=6 efind.one.0.lookups=4 \
             efind.one.0.sik.bytes=36 efind.one.0.siv.bytes=21 \
             efind.one.0.tj.nanos=400000 efind.one.post.out=6 \
             efind.one.sidx.bytes=511 efind.one.spost.bytes=96",
        ),
        ("repart reduce empty", ""),
        (
            "repart reduce mute",
            "efind.mute.0.lookups=4 efind.mute.0.sik.bytes=36 \
             efind.mute.0.siv.bytes=28 efind.mute.0.tj.nanos=400000 \
             efind.mute.post.out=0 efind.mute.sidx.bytes=296 \
             efind.mute.spost.bytes=0",
        ),
    ];
    let expected: Vec<(&str, String)> = expected
        .iter()
        .map(|(label, counters)| (*label, (*counters).to_owned()))
        .collect();
    assert_eq!(seen, expected, "\n{seen:#?}");
}

/// A stored carrier whose index 0 was never looked up reaches `close`:
/// `sidx.bytes` is bumped, the `Spost` pair is not.
#[test]
fn a_record_that_fails_in_close_bumps_sidx_and_not_the_spost_pair() {
    let two = operator_fn(
        "two",
        2,
        |rec: &mut Record, keys: &mut IndexInput| {
            keys.put(0, rec.key.clone());
            keys.put(1, rec.key.clone());
        },
        |rec: Record, _: &IndexOutput, out: &mut dyn Collector| out.collect(rec),
    );
    let bound = BoundOperator::new(two)
        .add_index(Arc::new(Table))
        .add_index(Arc::new(Table));
    let mut plan = forced_plan(&bound.caps(), Strategy::Cache);
    plan.choices[0].strategy = Strategy::Repartition;
    let mut plans = FxHashMap::default();
    plans.insert("two".to_owned(), plan);
    let ijob = IndexJobConf::new("tally", "in", "out").add_head_index_operator(bound);
    let pipeline = compile_pipeline(&ijob, &plans, &env()).expect("the pipeline compiles");
    assert_eq!(pipeline.jobs.len(), 2);

    // `(k1, v1, [[3], [3]], [Null, Null])` as job 0 would have stored it
    // had its group lookup not run.
    let key_lists = Datum::List(vec![Datum::List(vec![Datum::Int(3)]); 2]);
    let mut payload = Vec::new();
    for part in [
        Datum::Int(3),
        Datum::Text("pad".into()),
        key_lists,
        Datum::List(vec![Datum::Null; 2]),
    ] {
        part.encode_into(&mut payload);
    }
    let stored = Record::new(3i64, Datum::Bytes(payload));
    let (out, counters, error) = map_task(&pipeline.jobs[1], vec![stored]);
    assert!(out.is_empty());
    let error = error.expect("the task fails");
    assert!(
        error.starts_with("post stage: ") && error.contains("index 0 not looked up"),
        "{error}"
    );
    assert_eq!(
        counters,
        "efind.two.1.cache.hits=0 efind.two.1.cache.probes=1 efind.two.1.lookups=1 \
         efind.two.1.sik.bytes=9 efind.two.1.siv.bytes=7 efind.two.1.tj.nanos=100000 \
         efind.two.sidx.bytes=87"
    );
}

/// Whole jobs through the runner: every task of every phase flushes once.
#[test]
fn job_counters_equal_what_per_record_bumping_left() {
    let mut seen: Vec<(String, Vec<String>)> = Vec::new();
    for strategy in [Strategy::Cache, Strategy::Baseline, Strategy::Repartition] {
        let pipeline = compiled(op("one", ONE, false), strategy);
        seen.push((
            format!("{strategy:?} one"),
            full_run(&pipeline, records(0..60)),
        ));
    }
    for strategy in [Strategy::Cache, Strategy::Baseline] {
        let pipeline = compiled(op("vary", VARY, false), strategy);
        seen.push((
            format!("{strategy:?} vary"),
            full_run(&pipeline, records(0..60)),
        ));
    }
    let expected: &[(&str, &str)] = &[
        (
            "Cache one",
            "efind.mapout.bytes=768 efind.mapout.records=48 \
             efind.one.0.cache.hits=10 efind.one.0.cache.probes=60 \
             efind.one.0.key.bytes=540 efind.one.0.lookups=50 efind.one.0.nik=60 \
             efind.one.0.shadow.hits=10 efind.one.0.shadow.probes=60 \
             efind.one.0.sik.bytes=450 efind.one.0.siv.bytes=280 \
             efind.one.0.tj.nanos=5000000 efind.one.n1=60 efind.one.post.out=48 \
             efind.one.s1.bytes=1190 efind.one.sidx.bytes=4406 \
             efind.one.spost.bytes=768 efind.one.spre.bytes=3530 \
             mr.map.input.bytes=1190 mr.map.input.records=60 \
             mr.map.output.bytes=768 mr.map.output.records=48",
        ),
        (
            "Baseline one",
            "efind.mapout.bytes=768 efind.mapout.records=48 \
             efind.one.0.key.bytes=540 efind.one.0.lookups=60 efind.one.0.nik=60 \
             efind.one.0.shadow.hits=10 efind.one.0.shadow.probes=60 \
             efind.one.0.sik.bytes=540 efind.one.0.siv.bytes=336 \
             efind.one.0.tj.nanos=6000000 efind.one.n1=60 efind.one.post.out=48 \
             efind.one.s1.bytes=1190 efind.one.sidx.bytes=4406 \
             efind.one.spost.bytes=768 efind.one.spre.bytes=3530 \
             mr.map.input.bytes=1190 mr.map.input.records=60 \
             mr.map.output.bytes=768 mr.map.output.records=48",
        ),
        (
            "Repartition one",
            "efind.mapout.bytes=768 efind.mapout.records=48 \
             efind.one.0.key.bytes=540 efind.one.0.lookups=10 efind.one.0.nik=60 \
             efind.one.0.shadow.hits=10 efind.one.0.shadow.probes=60 \
             efind.one.0.sik.bytes=90 efind.one.0.siv.bytes=56 \
             efind.one.0.tj.nanos=1000000 efind.one.n1=60 efind.one.post.out=48 \
             efind.one.s1.bytes=1190 efind.one.sidx.bytes=4406 \
             efind.one.spost.bytes=768 efind.one.spre.bytes=3530 \
             mr.map.input.bytes=1190 mr.map.input.records=60 \
             mr.map.output.bytes=3530 mr.map.output.records=60 \
             mr.reduce.input.bytes=3530 mr.reduce.input.records=60 \
             mr.reduce.output.bytes=768 mr.reduce.output.records=48",
        ),
        (
            "Cache vary",
            "efind.mapout.bytes=768 efind.mapout.records=48 \
             efind.vary.0.cache.hits=10 efind.vary.0.cache.probes=60 \
             efind.vary.0.key.bytes=540 efind.vary.0.lookups=50 efind.vary.0.nik=60 \
             efind.vary.0.nik.irregular=40 efind.vary.0.shadow.hits=10 \
             efind.vary.0.shadow.probes=60 efind.vary.0.sik.bytes=450 \
             efind.vary.0.siv.bytes=280 efind.vary.0.tj.nanos=5000000 \
             efind.vary.n1=60 efind.vary.post.out=48 efind.vary.s1.bytes=1190 \
             efind.vary.sidx.bytes=4406 efind.vary.spost.bytes=768 \
             efind.vary.spre.bytes=3530 mr.map.input.bytes=1190 \
             mr.map.input.records=60 mr.map.output.bytes=768 \
             mr.map.output.records=48",
        ),
        (
            "Baseline vary",
            "efind.mapout.bytes=768 efind.mapout.records=48 \
             efind.vary.0.key.bytes=540 efind.vary.0.lookups=60 efind.vary.0.nik=60 \
             efind.vary.0.nik.irregular=40 efind.vary.0.shadow.hits=10 \
             efind.vary.0.shadow.probes=60 efind.vary.0.sik.bytes=540 \
             efind.vary.0.siv.bytes=336 efind.vary.0.tj.nanos=6000000 \
             efind.vary.n1=60 efind.vary.post.out=48 efind.vary.s1.bytes=1190 \
             efind.vary.sidx.bytes=4406 efind.vary.spost.bytes=768 \
             efind.vary.spre.bytes=3530 mr.map.input.bytes=1190 \
             mr.map.input.records=60 mr.map.output.bytes=768 \
             mr.map.output.records=48",
        ),
    ];
    let expected: Vec<(String, Vec<String>)> = expected
        .iter()
        .map(|(label, counters)| ((*label).to_owned(), vec![(*counters).to_owned()]))
        .collect();
    assert_eq!(seen, expected, "\n{seen:#?}");
}
