//! Bit-level goldens for the five exits of a cold `Mode::Dynamic` run.
//!
//! `tests/adaptive_behavior.rs` and the unit tests in
//! `crates/core/src/adaptive.rs` are behavioural (did it re-plan, is the
//! answer right, is it faster). These pin the virtual observables of each
//! way a cold adaptive run can end, once quiet and once with a node kill
//! inside the job window plus a seeded corruption plan armed:
//!
//! 1. no re-plan, the job completes through the plain `finish` path;
//! 2. map-side re-plan whose last job has a reduce (Fig. 10(a));
//! 3. map-side re-plan of a map-only job whose last job is map-only too
//!    (a cache plan: the index is too cheap to be worth a shuffle job);
//! 4. reduce-phase pass that evaluates the tail operators and keeps the plan;
//! 5. reduce-phase plan change (Fig. 10(b)).
//!
//! The constants were captured on the commit *before* the job tail was
//! folded into `Runner::seal` and the adaptive runtime stopped assembling
//! `JobStats` by hand; they must hold under any worker count
//! (`scripts/ci.sh` reruns this binary under `taskset -c 0`). Every quiet
//! constant still is. Three armed sets were re-captured when both
//! re-plans began to finish their jobs through the runner's own steps
//! and each crash came to be listed by one job only:
//!
//! * exit 2, job 0: the re-planned pipeline's first job no longer lists
//!   the 580 ms crash the re-plan applied and its last job lists (crashes
//!   1 → 0, and its `mr.recovery.crashes` counter goes);
//! * exit 4: the pass that keeps the plan ends the job as `finish` does,
//!   so it is the baseline plan's run — 58 shuffle refetches priced
//!   (274 204 910 → 274 255 454 ns);
//! * exit 5: job 0 verifies its shuffle (64 refetches, makespan
//!   5 299 809 069 → 5 299 869 261 ns) and lists the 1 s crash inside its
//!   window; job 1, the tail pipeline, lists none, and since the crash now
//!   reaches the DFS when job 0 ends, job 1's tasks read their input from
//!   the replicas that outlived it (104 467 480 → 124 886 442 ns).
//!
//! Exits 1 and 3 and exit 2's job 1 kept every armed constant.

mod common;

use common::{counter_fingerprint, file_fingerprint, obs as golden, Observables as Goldens};
use std::sync::Arc;

use efind::{
    operator_fn, BoundOperator, EFindConfig, EFindRuntime, IndexAccessor, IndexInput, IndexJobConf,
    IndexOutput, Mode, Strategy,
};
use efind_cluster::{ChaosPlan, Cluster, CorruptionPlan, NodeId, SimDuration, SimTime};
use efind_common::{Datum, FxHashMap, Record};
use efind_dfs::{Dfs, DfsConfig};
use efind_mapreduce::{mapper_fn, reducer_fn, Collector};

/// A set of first-wave task ids (one per map slot, so all below 64) as a
/// bit mask: `[0, 2, 3, 5]` is `0b101101`.
fn id_mask(ids: &[usize]) -> u64 {
    ids.iter().fold(0, |mask, id| mask | 1 << id)
}

/// An in-memory index with a fixed serve time.
struct MemIndex {
    name: &'static str,
    data: FxHashMap<Datum, Vec<Datum>>,
    serve: SimDuration,
}

impl MemIndex {
    fn new(name: &'static str, serve: SimDuration, pairs: Vec<(Datum, Vec<Datum>)>) -> Arc<Self> {
        Arc::new(MemIndex {
            name,
            data: pairs.into_iter().collect(),
            serve,
        })
    }
}

impl IndexAccessor for MemIndex {
    fn name(&self) -> &str {
        self.name
    }
    fn lookup(&self, key: &Datum) -> Vec<Datum> {
        self.data.get(key).cloned().unwrap_or_default()
    }
    fn serve_time(&self, _key: &Datum, _result_bytes: u64) -> SimDuration {
        self.serve
    }
}

fn cluster_and_dfs(reduce_slots: u16, seed: u64, records: Vec<Record>) -> (Cluster, Dfs) {
    let cluster = Cluster::builder()
        .nodes(3)
        .map_slots(2)
        .reduce_slots(reduce_slots)
        .build();
    let mut dfs = Dfs::new(
        cluster.clone(),
        DfsConfig {
            chunk_size_bytes: 2048,
            replication: 3,
            seed,
        },
    );
    dfs.write_file("in", records);
    (cluster, dfs)
}

/// A head join with `distinct` keys over `n` records and an index that
/// takes `serve` per lookup; heavy duplication plus an expensive index makes the map-side
/// pass switch to a shuffle strategy. `reduce` selects whether the job
/// (and so the re-planned pipeline's last job) has a reduce phase.
fn head_join(
    n: i64,
    distinct: i64,
    serve: SimDuration,
    reduce: bool,
) -> (Cluster, Dfs, IndexJobConf) {
    let records: Vec<Record> = (0..n)
        .map(|i| Record::new(i, Datum::Int((i * 7919) % distinct)))
        .collect();
    let (cluster, dfs) = cluster_and_dfs(2, 11, records);
    let index = MemIndex::new(
        "vals",
        serve,
        (0..distinct.min(64))
            .map(|i| (Datum::Int(i), vec![Datum::Bytes(vec![7u8; 256])]))
            .collect(),
    );
    let op = operator_fn(
        "join",
        1,
        |rec: &mut Record, keys: &mut IndexInput| keys.put(0, rec.value.clone()),
        |rec: Record, values: &IndexOutput, out: &mut dyn Collector| {
            let hit = !values.first(0).is_empty();
            out.collect(Record::new(rec.value, i64::from(hit)));
        },
    );
    let mut ijob = IndexJobConf::new("dyn", "in", "out")
        .add_head_index_operator(BoundOperator::new(op).add_index(index))
        .set_mapper(mapper_fn(|rec, out, _| out.collect(rec)));
    if reduce {
        ijob = ijob.set_reducer(
            reducer_fn(|key, values, out, _| {
                out.collect(Record::new(key, values.len() as i64));
            }),
            2,
        );
    }
    (cluster, dfs, ijob)
}

/// A job whose only expensive index is a *tail* operator with eight
/// distinct keys, and more reducers than reduce slots: the map-side pass
/// finds nothing, the reduce-phase branch of Algorithm 1 gets its turn.
fn tail_heavy(n: i64, tail_serve: SimDuration) -> (Cluster, Dfs, IndexJobConf) {
    let records: Vec<Record> = (0..n)
        .map(|i| Record::new(i, Datum::Int((i * 31) % 500)))
        .collect();
    let (cluster, dfs) = cluster_and_dfs(1, 13, records);
    let index = MemIndex::new(
        "enrichment",
        tail_serve,
        (0..8i64)
            .map(|i| (Datum::Int(i), vec![Datum::Text(format!("e{i}"))]))
            .collect(),
    );
    let tail_op = operator_fn(
        "tail-enrich",
        1,
        |rec: &mut Record, keys: &mut IndexInput| {
            keys.put(0, rec.key.as_int().unwrap_or(0) % 8);
        },
        |rec: Record, values: &IndexOutput, out: &mut dyn Collector| {
            let v = values.first(0).first().cloned().unwrap_or(Datum::Null);
            out.collect(Record {
                key: rec.key,
                value: Datum::List(vec![rec.value, v]),
            });
        },
    );
    let head_op = operator_fn(
        "cheap-head",
        1,
        |rec: &mut Record, keys: &mut IndexInput| keys.put(0, rec.key.clone()),
        |rec: Record, _values: &IndexOutput, out: &mut dyn Collector| out.collect(rec),
    );
    let noop = MemIndex::new("noop", SimDuration::from_micros(100), vec![]);
    let ijob = IndexJobConf::new("tailjob", "in", "out")
        .add_head_index_operator(BoundOperator::new(head_op).add_index(noop))
        .set_mapper(mapper_fn(|rec, out, _| out.collect(rec)))
        .set_reducer(
            reducer_fn(|key, values, out, _| {
                out.collect(Record::new(key, values.len() as i64));
            }),
            // Nine reducers over three reduce slots: three reduce waves.
            9,
        )
        .add_tail_index_operator(BoundOperator::new(tail_op).add_index(index));
    (cluster, dfs, ijob)
}

/// The five exits, by name.
#[derive(Clone, Copy, Debug)]
enum Exit {
    PlainFinish,
    MapSideReduce,
    MapSideMapOnly,
    TailNoChange,
    TailChange,
}

fn fixture(exit: Exit) -> (Cluster, Dfs, IndexJobConf) {
    match exit {
        Exit::PlainFinish => head_join(500, 1_000_000, SimDuration::ZERO, true),
        Exit::MapSideReduce => head_join(2000, 10, SimDuration::from_millis(5), true),
        Exit::MapSideMapOnly => head_join(2000, 10, SimDuration::from_micros(200), false),
        Exit::TailNoChange => tail_heavy(2500, SimDuration::ZERO),
        Exit::TailChange => tail_heavy(3000, SimDuration::from_millis(5)),
    }
}

/// A kill of node 1 inside the exit's job window (`kill_ms` after the
/// start) plus corruption at all four boundaries, recoverable at
/// replication 3.
fn armed(config: &mut EFindConfig, kill_ms: u64) {
    config.chaos = ChaosPlan::new(0xEF1D_0011)
        .kill(NodeId(1), SimTime::ZERO + SimDuration::from_millis(kill_ms));
    config.corruption = CorruptionPlan::new(0xEF1D_0012)
        .chunks(0.05)
        .shuffle(0.25)
        .cache(0.1)
        .responses(0.05);
}

fn observe(exit: Exit, kill_ms: Option<u64>, mode: Mode) -> Goldens {
    let (cluster, mut dfs, ijob) = fixture(exit);
    let mut config = EFindConfig {
        // Cheap enough that every profitable re-plan fires; the tail
        // operator of `TailNoChange` is evaluated and not worth even that.
        plan_change_cost_secs: match exit {
            Exit::TailNoChange => 0.5,
            _ => 0.01,
        },
        variance_threshold: 5.0,
        ..EFindConfig::default()
    };
    if let Some(kill_ms) = kill_ms {
        armed(&mut config, kill_ms);
    }
    let mut rt = EFindRuntime::with_config(&cluster, &mut dfs, config);
    let res = rt.run(&ijob, mode).expect("the run failed");
    let mut captured: Goldens = vec![
        golden("total.nanos", res.total_time.as_nanos()),
        golden("replanned", u64::from(res.replanned)),
        golden("jobs", res.jobs.len() as u64),
    ];
    for (i, job) in res.jobs.iter().enumerate() {
        let mut put = |what: &str, v: u64| captured.push(golden(format!("job{i}.{what}"), v));
        put("makespan.nanos", job.makespan().as_nanos());
        put("shuffle.bytes", job.shuffle_bytes);
        put("counters.fingerprint", counter_fingerprint(job));
        put("recovery.crashes", job.recovery.crashes.len() as u64);
        put(
            "recovery.crashed.attempts",
            job.recovery.crashed_attempts as u64,
        );
        put("recovery.surviving", id_mask(&job.recovery.surviving_tasks));
        put("recovery.lost", id_mask(&job.recovery.lost_tasks));
        put("integrity.chunk.rereads", job.integrity.chunk_rereads);
        put(
            "integrity.shuffle.refetches",
            job.integrity.shuffle_refetches,
        );
        put(
            "integrity.cache.invalidations",
            job.integrity.cache_invalidations,
        );
    }
    // The output is read back for its fingerprint, not as part of the job:
    // no corruption draw applies to that read.
    dfs.set_corruption(CorruptionPlan::none());
    captured.push(golden("output.fingerprint", file_fingerprint(&dfs, "out")));
    captured
}

/// Runs `exit` quiet (`None`) or armed with the kill `kill_ms` after the
/// start, and compares every observable with its parent-commit value.
fn expect(exit: Exit, kill_ms: Option<u64>, expected: &[(&str, u64)]) {
    let captured = observe(exit, kill_ms, Mode::Dynamic);
    let expected: Goldens = expected.iter().map(|(k, v)| golden(*k, *v)).collect();
    assert_eq!(captured, expected, "{exit:?} kill_ms={kill_ms:?}");
}

/// Exit 1 — no re-plan: the remaining splits run under the baseline plan and the job
/// completes through `Runner::finish`.
#[test]
fn no_replan_through_plain_finish() {
    expect(
        Exit::PlainFinish,
        None,
        &[
            ("total.nanos", 12_418_877),
            ("replanned", 0),
            ("jobs", 1),
            ("job0.makespan.nanos", 12_418_877),
            ("job0.shuffle.bytes", 9_000),
            ("job0.counters.fingerprint", 17_968_907_717_084_441_800),
            ("job0.recovery.crashes", 0),
            ("job0.recovery.crashed.attempts", 0),
            ("job0.recovery.surviving", 0),
            ("job0.recovery.lost", 0),
            ("job0.integrity.chunk.rereads", 0),
            ("job0.integrity.shuffle.refetches", 0),
            ("job0.integrity.cache.invalidations", 0),
            ("output.fingerprint", 4_188_024_504_578_256_742),
        ],
    );
    expect(
        Exit::PlainFinish,
        Some(2),
        &[
            ("total.nanos", 26_588_647),
            ("replanned", 0),
            ("jobs", 1),
            ("job0.makespan.nanos", 26_588_647),
            ("job0.shuffle.bytes", 9_000),
            ("job0.counters.fingerprint", 12_108_800_096_409_746_498),
            ("job0.recovery.crashes", 1),
            ("job0.recovery.crashed.attempts", 2),
            ("job0.recovery.surviving", 0),
            ("job0.recovery.lost", 0),
            ("job0.integrity.chunk.rereads", 0),
            ("job0.integrity.shuffle.refetches", 1),
            ("job0.integrity.cache.invalidations", 0),
            ("output.fingerprint", 4_188_024_504_578_256_742),
        ],
    );
}

/// Exit 2 — map-side re-plan whose last job has a reduce (Fig. 10(a)): the new plan's
/// map outputs and the surviving wave-1 outputs meet in one reduce.
#[test]
fn map_side_replan_with_a_reduce() {
    expect(
        Exit::MapSideReduce,
        None,
        &[
            ("total.nanos", 607_823_184),
            ("replanned", 1),
            ("jobs", 2),
            ("job0.makespan.nanos", 17_578_405),
            ("job0.shuffle.bytes", 75_354),
            ("job0.counters.fingerprint", 2_707_010_968_837_893_387),
            ("job0.recovery.crashes", 0),
            ("job0.recovery.crashed.attempts", 0),
            ("job0.recovery.surviving", 0),
            ("job0.recovery.lost", 0),
            ("job0.integrity.chunk.rereads", 0),
            ("job0.integrity.shuffle.refetches", 0),
            ("job0.integrity.cache.invalidations", 0),
            ("job1.makespan.nanos", 3_437_409),
            ("job1.shuffle.bytes", 36_000),
            ("job1.counters.fingerprint", 3_647_162_453_102_415_046),
            ("job1.recovery.crashes", 0),
            ("job1.recovery.crashed.attempts", 0),
            ("job1.recovery.surviving", 0),
            ("job1.recovery.lost", 0),
            ("job1.integrity.chunk.rereads", 0),
            ("job1.integrity.shuffle.refetches", 0),
            ("job1.integrity.cache.invalidations", 0),
            ("output.fingerprint", 8_157_084_456_237_859_670),
        ],
    );
    expect(
        Exit::MapSideReduce,
        Some(580),
        &[
            ("total.nanos", 615_137_819),
            ("replanned", 1),
            ("jobs", 2),
            ("job0.makespan.nanos", 24_296_072),
            ("job0.shuffle.bytes", 88_236),
            ("job0.counters.fingerprint", 5_387_496_453_042_675_601),
            ("job0.recovery.crashes", 0),
            ("job0.recovery.crashed.attempts", 0),
            ("job0.recovery.surviving", 0),
            ("job0.recovery.lost", 0),
            ("job0.integrity.chunk.rereads", 0),
            ("job0.integrity.shuffle.refetches", 18),
            ("job0.integrity.cache.invalidations", 0),
            ("job1.makespan.nanos", 4_034_377),
            ("job1.shuffle.bytes", 36_000),
            ("job1.counters.fingerprint", 1_717_170_147_705_122_463),
            ("job1.recovery.crashes", 1),
            ("job1.recovery.crashed.attempts", 0),
            ("job1.recovery.surviving", 45),
            ("job1.recovery.lost", 18),
            ("job1.integrity.chunk.rereads", 2),
            ("job1.integrity.shuffle.refetches", 7),
            ("job1.integrity.cache.invalidations", 0),
            ("output.fingerprint", 8_157_084_456_237_859_670),
        ],
    );
}

/// Exit 3 — map-side re-plan whose last job is map-only: the surviving wave-1 outputs
/// are appended to the new plan's output.
#[test]
fn map_side_replan_of_a_map_only_job() {
    expect(
        Exit::MapSideMapOnly,
        None,
        &[
            ("total.nanos", 51_805_778),
            ("replanned", 1),
            ("jobs", 1),
            ("job0.makespan.nanos", 7_418_748),
            ("job0.shuffle.bytes", 0),
            ("job0.counters.fingerprint", 15_072_580_905_374_438_092),
            ("job0.recovery.crashes", 0),
            ("job0.recovery.crashed.attempts", 0),
            ("job0.recovery.surviving", 0),
            ("job0.recovery.lost", 0),
            ("job0.integrity.chunk.rereads", 0),
            ("job0.integrity.shuffle.refetches", 0),
            ("job0.integrity.cache.invalidations", 0),
            ("output.fingerprint", 9_889_134_045_252_249_161),
        ],
    );
    expect(
        Exit::MapSideMapOnly,
        Some(40),
        &[
            ("total.nanos", 59_210_630),
            ("replanned", 1),
            ("jobs", 1),
            ("job0.makespan.nanos", 14_823_600),
            ("job0.shuffle.bytes", 0),
            ("job0.counters.fingerprint", 13_401_604_876_254_764_918),
            ("job0.recovery.crashes", 1),
            ("job0.recovery.crashed.attempts", 0),
            ("job0.recovery.surviving", 45),
            ("job0.recovery.lost", 18),
            ("job0.integrity.chunk.rereads", 0),
            ("job0.integrity.shuffle.refetches", 0),
            ("job0.integrity.cache.invalidations", 14),
            ("output.fingerprint", 8_182_213_194_140_689_667),
        ],
    );
}

/// Exit 4 — reduce-phase pass that evaluates the tail operator after the first reduce
/// wave and keeps the plan.
#[test]
fn reduce_phase_pass_that_keeps_the_plan() {
    expect(
        Exit::TailNoChange,
        None,
        &[
            ("total.nanos", 180_377_933),
            ("replanned", 0),
            ("jobs", 1),
            ("job0.makespan.nanos", 180_377_933),
            ("job0.shuffle.bytes", 45_000),
            ("job0.counters.fingerprint", 1_617_587_585_119_778_287),
            ("job0.recovery.crashes", 0),
            ("job0.recovery.crashed.attempts", 0),
            ("job0.recovery.surviving", 0),
            ("job0.recovery.lost", 0),
            ("job0.integrity.chunk.rereads", 0),
            ("job0.integrity.shuffle.refetches", 0),
            ("job0.integrity.cache.invalidations", 0),
            ("output.fingerprint", 6_126_272_245_637_769_961),
        ],
    );
    expect(
        Exit::TailNoChange,
        Some(100),
        &[
            ("total.nanos", 274_255_454),
            ("replanned", 0),
            ("jobs", 1),
            ("job0.makespan.nanos", 274_255_454),
            ("job0.shuffle.bytes", 45_000),
            ("job0.counters.fingerprint", 12_870_482_854_070_142_336),
            ("job0.recovery.crashes", 1),
            ("job0.recovery.crashed.attempts", 1),
            ("job0.recovery.surviving", 0),
            ("job0.recovery.lost", 0),
            ("job0.integrity.chunk.rereads", 1),
            ("job0.integrity.shuffle.refetches", 58),
            ("job0.integrity.cache.invalidations", 0),
            ("output.fingerprint", 6_126_272_245_637_769_961),
        ],
    );
}

/// A reduce-phase pass that keeps the plan ends the job as `finish` ends
/// it, so the run is the baseline plan's run — quiet, and with the node
/// kill and the corruption armed: shuffle refetches, crashes and all.
#[test]
fn reduce_phase_pass_that_keeps_the_plan_is_the_baseline_run() {
    for kill_ms in [None, Some(100)] {
        let dynamic = observe(Exit::TailNoChange, kill_ms, Mode::Dynamic);
        let baseline = observe(
            Exit::TailNoChange,
            kill_ms,
            Mode::Uniform(Strategy::Baseline),
        );
        assert_eq!(dynamic, baseline, "kill_ms={kill_ms:?}");
    }
}

/// Exit 5 — reduce-phase plan change (Fig. 10(b)): the remaining reduce tasks run
/// stripped and a re-planned tail pipeline finishes the job.
#[test]
fn reduce_phase_plan_change() {
    expect(
        Exit::TailChange,
        None,
        &[
            ("total.nanos", 1_960_040_962),
            ("replanned", 1),
            ("jobs", 2),
            ("job0.makespan.nanos", 1_902_688_644),
            ("job0.shuffle.bytes", 54_000),
            ("job0.counters.fingerprint", 12_785_559_118_025_044_681),
            ("job0.recovery.crashes", 0),
            ("job0.recovery.crashed.attempts", 0),
            ("job0.recovery.surviving", 0),
            ("job0.recovery.lost", 0),
            ("job0.integrity.chunk.rereads", 0),
            ("job0.integrity.shuffle.refetches", 0),
            ("job0.integrity.cache.invalidations", 0),
            ("job1.makespan.nanos", 57_352_318),
            ("job1.shuffle.bytes", 0),
            ("job1.counters.fingerprint", 17_342_379_940_163_234_240),
            ("job1.recovery.crashes", 0),
            ("job1.recovery.crashed.attempts", 0),
            ("job1.recovery.surviving", 0),
            ("job1.recovery.lost", 0),
            ("job1.integrity.chunk.rereads", 0),
            ("job1.integrity.shuffle.refetches", 0),
            ("job1.integrity.cache.invalidations", 0),
            ("output.fingerprint", 3_599_501_938_511_983_888),
        ],
    );
    expect(
        Exit::TailChange,
        Some(1000),
        &[
            ("total.nanos", 5_424_755_703),
            ("replanned", 1),
            ("jobs", 2),
            ("job0.makespan.nanos", 5_299_869_261),
            ("job0.shuffle.bytes", 54_000),
            ("job0.counters.fingerprint", 8_648_442_508_634_312_732),
            ("job0.recovery.crashes", 1),
            ("job0.recovery.crashed.attempts", 1),
            ("job0.recovery.surviving", 0),
            ("job0.recovery.lost", 0),
            ("job0.integrity.chunk.rereads", 2),
            ("job0.integrity.shuffle.refetches", 64),
            ("job0.integrity.cache.invalidations", 0),
            ("job1.makespan.nanos", 124_886_442),
            ("job1.shuffle.bytes", 0),
            ("job1.counters.fingerprint", 13_184_967_193_695_360_282),
            ("job1.recovery.crashes", 0),
            ("job1.recovery.crashed.attempts", 0),
            ("job1.recovery.surviving", 0),
            ("job1.recovery.lost", 0),
            ("job1.integrity.chunk.rereads", 0),
            ("job1.integrity.shuffle.refetches", 0),
            ("job1.integrity.cache.invalidations", 0),
            ("output.fingerprint", 3_599_501_938_511_983_888),
        ],
    );
}
