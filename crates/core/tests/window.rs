//! A head segment lent its rows a window at a time opens every row's
//! carrier first and hints the window's lookup keys to the index, then
//! takes the rows through the run in row order. Whatever the window — one
//! row, two, three, or the runner's own [`ROW_WINDOW`] — a job must come
//! out as one whose chain takes each record through every stage before the
//! next: the same output, counters, sketches, task statistics, virtual
//! time and failure, and the same number of lookups asked of the index.

use std::borrow::Cow;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use efind::carrier::Carrier;
use efind::compile::{compile_pipeline, CompiledPipeline, RuntimeEnv};
use efind::plan::IndexChoice;
use efind::{
    forced_plan, operator_fn, BoundOperator, EFindConfig, FaultConfig, FaultPlan, HedgeConfig,
    HedgePolicy, IndexAccessor, IndexInput, IndexJobConf, IndexOutput, LookupResult, OperatorPlan,
    RetryPolicy, Strategy as Access,
};
use efind_cluster::{Cluster, SimDuration, SimTime};
use efind_common::{Datum, FxHashMap, Record};
use efind_dfs::{Dfs, DfsConfig};
use efind_mapreduce::{
    mapper_fn, Collector, JobConf, Mapper, MapperFactory, PhaseStats, RowSink, Runner, TaskCtx,
    ROW_WINDOW,
};
use proptest::prelude::*;

/// Keys the index holds: the even ones below this.
const HELD: i64 = 40;

/// `key → [key * 3]` for the even keys below [`HELD`], nothing for the
/// rest; counts the lookups and hints it is asked for.
#[derive(Default)]
struct Counted {
    lookups: AtomicUsize,
    hints: AtomicUsize,
}

impl IndexAccessor for Counted {
    fn name(&self) -> &str {
        "counted"
    }
    fn lookup(&self, key: &Datum) -> Vec<Datum> {
        match key.as_int() {
            Some(k) if k % 2 == 0 && k < HELD => vec![Datum::Int(k * 3)],
            _ => Vec::new(),
        }
    }
    fn try_lookup(&self, key: &Datum) -> LookupResult {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        LookupResult::hit(self.lookup(key))
    }
    fn prefetch(&self, _key: &Datum) {
        self.hints.fetch_add(1, Ordering::Relaxed);
    }
    fn serve_time(&self, key: &Datum, result_bytes: u64) -> SimDuration {
        let k = key.as_int().unwrap_or(0).unsigned_abs();
        SimDuration::from_micros(50 + 10 * k + result_bytes)
    }
}

fn env(cache_capacity: usize, armed: bool) -> RuntimeEnv {
    let (faults, hedge) = if armed {
        // Failures trip the breaker, whose cooldown runs on the task's
        // charged time; hedges race slow lookups.
        let mut faults =
            FaultConfig::disabled().with_plan(FaultPlan::new(7).failures(0.4).slowdowns(0.2, 4.0));
        faults.retry = RetryPolicy::bounded(
            2,
            SimDuration::from_micros(20),
            SimDuration::from_micros(80),
        );
        faults.breaker_threshold_x1000 = 300;
        faults.breaker_min_samples = 4;
        faults.breaker_cooldown = Some(SimDuration::from_micros(700));
        let hedge = HedgeConfig {
            seed: 9,
            threshold: Some(SimDuration::from_micros(300)),
            policy: HedgePolicy::ChargeBoth,
        };
        (faults, hedge)
    } else {
        (FaultConfig::disabled(), HedgeConfig::disabled())
    };
    RuntimeEnv {
        cache_capacity,
        shuffle_reducers: 3,
        intermediate_chunks: 2,
        faults,
        hedge,
        ..RuntimeEnv::new(
            &Cluster::builder().nodes(3).build(),
            2,
            &EFindConfig::default(),
        )
    }
}

/// Looks up, in each index, the key a row's value names (plus the index's
/// position), and emits the row's key with every value found; bound to a
/// [`Counted`] index, returned to read its counts.
fn join(num_indices: usize) -> (BoundOperator, Arc<Counted>) {
    let op = operator_fn(
        "join",
        num_indices,
        move |rec: &mut Record, keys: &mut IndexInput| {
            let k = rec.value.as_int().expect("int value");
            for j in 0..num_indices {
                keys.put(j, k + j as i64);
            }
        },
        move |rec: Record, values: &IndexOutput, out: &mut dyn Collector| {
            let found = (0..num_indices)
                .flat_map(|j| values.get(j).iter().flat_map(|list| list.iter()))
                .cloned();
            out.collect(Record::new(rec.key, Datum::List(found.collect())));
        },
    );
    let index = Arc::new(Counted::default());
    let mut bound = BoundOperator::new(op);
    for _ in 0..num_indices {
        bound = bound.add_index(index.clone());
    }
    (bound, index)
}

fn compiled(bound: &BoundOperator, plan: OperatorPlan, env: &RuntimeEnv) -> CompiledPipeline {
    let mut plans = FxHashMap::default();
    plans.insert("join".to_owned(), plan);
    let ijob = IndexJobConf::new("window", "in", "out").add_head_index_operator(bound.clone());
    compile_pipeline(&ijob, &plans, env).expect("the pipeline compiles")
}

/// Lends stage 0 its rows `w` at a time, whatever window it is handed.
struct Windowed {
    inner: Box<dyn Mapper>,
    w: usize,
}

impl Mapper for Windowed {
    fn map(&mut self, rec: Record, out: &mut dyn Collector, ctx: &mut TaskCtx) {
        self.inner.map(rec, out, ctx);
    }
    fn map_rows(&mut self, rows: &[Record], out: &mut RowSink<'_>, ctx: &mut TaskCtx) {
        for window in rows.chunks(self.w) {
            self.inner.map_rows(window, out, ctx);
        }
    }
    fn flush(&mut self, out: &mut dyn Collector, ctx: &mut TaskCtx) {
        self.inner.flush(out, ctx);
    }
}

/// A whole chain as one stage that takes each record, owned, through
/// every stage before it maps the next, and then flushes the stages in
/// order: the record-at-a-time chain, with no window anywhere.
struct Serial(Vec<Box<dyn Mapper>>);

fn feed(stages: &mut [Box<dyn Mapper>], rec: Record, out: &mut dyn Collector, ctx: &mut TaskCtx) {
    let Some((stage, rest)) = stages.split_first_mut() else {
        return out.collect(rec);
    };
    let mut emitted = Vec::new();
    stage.map(rec, &mut emitted, ctx);
    for rec in emitted {
        feed(rest, rec, out, ctx);
    }
}

impl Mapper for Serial {
    fn map(&mut self, rec: Record, out: &mut dyn Collector, ctx: &mut TaskCtx) {
        feed(&mut self.0, rec, out, ctx);
    }
    fn flush(&mut self, out: &mut dyn Collector, ctx: &mut TaskCtx) {
        for i in 0..self.0.len() {
            let (stage, rest) = self.0[i..].split_first_mut().expect("stage i");
            let mut flushed = Vec::new();
            stage.flush(&mut flushed, ctx);
            for rec in flushed {
                feed(rest, rec, out, ctx);
            }
        }
    }
}

/// How the head job's map chain is driven.
#[derive(Clone, Copy, Debug)]
enum Drive {
    /// As one [`Serial`] stage.
    Serial,
    /// Stage 0 lent windows of this many rows.
    Window(usize),
}

fn driven(chain: &[MapperFactory], drive: Drive) -> Vec<MapperFactory> {
    match drive {
        Drive::Serial => {
            let chain = chain.to_vec();
            vec![Arc::new(move || {
                Box::new(Serial(chain.iter().map(|f| f()).collect())) as Box<dyn Mapper>
            })]
        }
        Drive::Window(ROW_WINDOW) => chain.to_vec(),
        Drive::Window(w) => {
            let mut chain = chain.to_vec();
            let head = chain[0].clone();
            chain[0] = Arc::new(move || Box::new(Windowed { inner: head(), w }));
            chain
        }
    }
}

/// A task's statistics, counters in name order, sketches as printed.
type Task = (usize, u64, u64, u64, u64, SimDuration, String, String);

fn tasks(phase: &PhaseStats) -> Vec<Task> {
    phase
        .tasks
        .iter()
        .map(|t| {
            (
                t.task_id,
                t.input_records,
                t.input_bytes,
                t.output_records,
                t.output_bytes,
                t.compute_cost,
                format!("{:?}", t.counters.iter_sorted()),
                format!("{:?}", t.sketches),
            )
        })
        .collect()
}

/// What a job of a pipeline showed.
#[derive(Debug, PartialEq)]
struct Job {
    counters: String,
    shuffle_bytes: u64,
    maps: Vec<Task>,
    reduces: Option<Vec<Task>>,
    started: SimTime,
    finished: SimTime,
}

/// Everything a run of a pipeline shows, and the lookups it asked of the
/// index.
#[derive(Debug, PartialEq)]
struct Observed {
    jobs: Vec<Job>,
    output: Result<Vec<Record>, String>,
    lookups: usize,
}

/// Runs `jobs` in order over `input` in `chunks` chunks, the first job's
/// map chain driven as `drive` with a stage behind it that charges the
/// task `charge` a record.
fn observe(
    jobs: &[JobConf],
    counted: &Counted,
    input: &[Record],
    chunks: usize,
    drive: Drive,
    charge: Option<SimDuration>,
) -> Observed {
    let cluster = Cluster::builder()
        .nodes(3)
        .map_slots(2)
        .reduce_slots(2)
        .build();
    let mut dfs = Dfs::new(cluster.clone(), DfsConfig::default());
    dfs.write_file_with_chunks(&jobs[0].input, input.to_vec(), chunks);
    let before = counted.lookups.load(Ordering::Relaxed);
    let lookups = || counted.lookups.load(Ordering::Relaxed) - before;
    let mut t = SimTime::ZERO;
    let mut seen = Vec::new();
    for (i, job) in jobs.iter().enumerate() {
        let mut conf: JobConf = job.clone();
        if i == 0 {
            if let Some(d) = charge {
                conf.map_chain.push(mapper_fn(
                    move |rec: Record, out: &mut dyn Collector, ctx: &mut TaskCtx| {
                        ctx.charge(d);
                        out.collect(rec);
                    },
                ));
            }
            conf.map_chain = driven(&conf.map_chain, drive);
        }
        let stats = match Runner::new(&cluster, &mut dfs).run(&conf, t) {
            Ok(res) => res.stats,
            Err(e) => {
                return Observed {
                    jobs: seen,
                    output: Err(e.to_string()),
                    lookups: lookups(),
                }
            }
        };
        t = stats.finished;
        seen.push(Job {
            counters: format!("{:?}", stats.counters.iter_sorted()),
            shuffle_bytes: stats.shuffle_bytes,
            maps: tasks(&stats.map),
            reduces: stats.reduce.as_ref().map(tasks),
            started: stats.started,
            finished: stats.finished,
        });
    }
    let last = jobs.last().expect("a job");
    Observed {
        jobs: seen,
        output: Ok(dfs.read_file(&last.output).expect("the output file")),
        lookups: lookups(),
    }
}

fn access() -> impl Strategy<Value = Access> {
    prop_oneof![
        Just(Access::Baseline),
        Just(Access::Cache),
        Just(Access::Repartition),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Baseline, Cache and Repartition heads, quiet or with faults and
    /// hedging armed behind a stage that charges time: every window length
    /// runs as the record-at-a-time chain does, over chunks whose lengths
    /// are rarely a multiple of the window.
    #[test]
    fn a_windowed_head_runs_as_row_at_a_time_does(
        values in prop::collection::vec(-3i64..60, 0..150),
        chunks in 1usize..5,
        strategy in access(),
        cache in 1usize..12,
        armed in any::<bool>(),
    ) {
        let env = env(cache, armed);
        let (bound, counted) = join(1);
        let pipeline = compiled(&bound, forced_plan(&bound.caps(), strategy), &env);
        let input: Vec<Record> = values
            .iter()
            .enumerate()
            .map(|(i, &v)| Record::new(i as i64, v))
            .collect();
        let charge = armed.then_some(SimDuration::from_micros(130));
        let want = observe(&pipeline.jobs, &counted, &input, chunks, Drive::Serial, charge);
        prop_assert!(want.output.is_ok(), "{:?}", want.output);
        for w in [1, 2, 3, ROW_WINDOW] {
            let got = observe(&pipeline.jobs, &counted, &input, chunks, Drive::Window(w), charge);
            prop_assert_eq!(&got, &want, "window of {}", w);
        }
    }

    /// A head that continues carriers stored by an earlier job decodes
    /// them a window ahead, but reports a row that does not decode at its
    /// turn: of a carrier of the wrong arity, which fails at its lookup,
    /// and a malformed one, the first in row order names the task's error.
    #[test]
    fn a_stored_carriers_first_failure_in_row_order_wins(
        rows in 0usize..70,
        wrong in proptest::option::of(0usize..70),
        malformed in proptest::option::of(0usize..70),
        chunks in 1usize..3,
        w in prop_oneof![Just(1usize), Just(2), Just(3), Just(ROW_WINDOW)],
    ) {
        let env = env(4, false);
        let (bound, counted) = join(2);
        let plan = OperatorPlan {
            choices: vec![
                IndexChoice { index: 0, strategy: Access::Repartition, est_cost_secs: 0.0 },
                IndexChoice { index: 1, strategy: Access::Cache, est_cost_secs: 0.0 },
            ],
            est_cost_secs: 0.0,
        };
        let pipeline = compiled(&bound, plan, &env);
        // The cache lookup runs map-side in a job of its own, on the
        // carriers the shuffling job stored.
        prop_assert_eq!(pipeline.jobs.len(), 2);
        let tail = &pipeline.jobs[1..];

        let mut input: Vec<Record> = (0..rows as i64).map(|k| carrier(k, 2)).collect();
        if let Some(at) = wrong.filter(|&at| at <= input.len()) {
            input.insert(at, carrier(7, 1));
        }
        if let Some(at) = malformed.filter(|&at| at <= input.len()) {
            input.insert(at, Record::new(3i64, 3i64));
        }
        let want = observe(tail, &counted, &input, chunks, Drive::Serial, None);
        let got = observe(tail, &counted, &input, chunks, Drive::Window(w), None);
        prop_assert_eq!(&got, &want);
        // One task reports the first bad row of its chunk.
        let first_bad = input.iter().find_map(|rec| match &rec.value {
            Datum::Int(_) => Some("not a byte buffer"),
            _ if rec.key == Datum::Int(-7) => Some("no slot 1"),
            _ => None,
        });
        match (&want.output, first_bad) {
            (Ok(_), None) => {}
            (Err(e), Some(bad)) if chunks > 1 || e.contains(bad) => {}
            (output, bad) => prop_assert!(false, "{:?} for a first bad row of {:?}", output, bad),
        }
    }
}

/// A stored carrier of `join(indices)` for the row `(k, k)`, its first
/// index looked up; one of a single index is keyed `-7`, to tell it apart.
fn carrier(k: i64, indices: usize) -> Record {
    let mut c = Carrier::default();
    c.open(Cow::Owned(Record::new(k, k)), indices, |rec, keys| {
        for j in 0..indices {
            keys.put(j, k + j as i64);
        }
        rec
    });
    c.fill(0, |keys, results| {
        for key in keys {
            results.push(vec![key.clone()].into());
        }
    })
    .expect("slot 0");
    c.encode(Datum::Int(if indices == 1 { -7 } else { k }))
}

/// A direct lookup hints each key its cache does not hold when the window
/// opens: a cache that holds all four keys after the first window hints
/// nothing after it, the baseline hints every row's key, and a head that
/// re-partitions looks nothing up map-side and hints nothing.
#[test]
fn a_head_hints_the_keys_its_cache_does_not_hold() {
    let (bound, counted) = join(1);
    let input: Vec<Record> = (0..1_000i64).map(|i| Record::new(i, i % 4)).collect();
    for (strategy, hints, lookups) in [
        (Access::Cache, ROW_WINDOW, 4),
        (Access::Baseline, 1_000, 1_000),
        (Access::Repartition, 0, 4),
    ] {
        counted.hints.store(0, Ordering::Relaxed);
        let pipeline = compiled(
            &bound,
            forced_plan(&bound.caps(), strategy),
            &env(64, false),
        );
        let ran = observe(
            &pipeline.jobs,
            &counted,
            &input,
            1,
            Drive::Window(ROW_WINDOW),
            None,
        );
        assert_eq!(ran.output.map(|out| out.len()), Ok(1_000), "{strategy:?}");
        assert_eq!(ran.lookups, lookups, "{strategy:?}");
        assert_eq!(counted.hints.load(Ordering::Relaxed), hints, "{strategy:?}");
    }
}
