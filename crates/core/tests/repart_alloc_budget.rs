//! A re-partitioned carrier crosses the shuffle as bytes in its map task's
//! run: the map task writes every payload into the run's value blocks
//! without an allocator call a record, and the reduce tasks read the
//! payloads where the run holds them, so the job's reduce phase frees no
//! block a record. Its own test binary:
//! the checks need a `#[global_allocator]` that counts calls on this thread
//! and frees on every thread the runner fans out to.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use efind::compile::{compile_pipeline, RuntimeEnv};
use efind::{
    forced_plan, operator_fn, BoundOperator, EFindConfig, IndexAccessor, IndexInput, IndexJobConf,
    IndexOutput, LookupResult, Strategy,
};
use efind_cluster::{Cluster, SimDuration, SimTime};
use efind_common::{Datum, FxHashMap, Record};
use efind_dfs::{Dfs, DfsConfig};
use efind_mapreduce::{Collector, JobConf, Runner};

/// Blocks handed back to the allocator, all threads. A statistic: it
/// publishes nothing, and the test reads it only after the job's threads
/// are joined.
static FREED: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Requests this thread has made of the allocator.
    static CALLS: Cell<usize> = const { Cell::new(0) };
}

/// The free counter is process-wide, so the tests take turns.
static SERIAL: Mutex<()> = Mutex::new(());

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the bookkeeping is an atomic add and a
// const-initialised, destructor-free thread-local `Cell`, which neither
// allocate nor unwind. `realloc` is the provided one, which goes through
// `alloc` and `dealloc` and is counted.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.with(|c| c.set(c.get() + 1));
        // SAFETY: `layout` is the caller's, passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREED.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` was returned by `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const KEYS: i64 = 1_000;
const RECORDS: i64 = 20_000;

/// `key → [key * 2]`, stored as the blocks a lookup hands out.
struct Stored(Vec<Arc<[Datum]>>);

impl IndexAccessor for Stored {
    fn name(&self) -> &str {
        "stored"
    }
    fn lookup(&self, key: &Datum) -> Vec<Datum> {
        self.0[key.as_int().expect("int key") as usize].to_vec()
    }
    fn try_lookup(&self, key: &Datum) -> LookupResult {
        LookupResult::Hit(self.0[key.as_int().expect("int key") as usize].clone())
    }
    fn serve_time(&self, _key: &Datum, _result_bytes: u64) -> SimDuration {
        SimDuration::from_micros(100)
    }
}

/// The shuffling job of a join re-partitioned by its lookup key over
/// `RECORDS` records of `KEYS` keys in `chunks` chunks: an `Int` key, the
/// value projected to `Null`, one `(k1, Int)` record out.
fn repartitioned_join(chunks: usize) -> (Cluster, Dfs, JobConf) {
    let cluster = Cluster::builder()
        .nodes(4)
        .map_slots(2)
        .reduce_slots(2)
        .build();
    let mut dfs = Dfs::new(cluster.clone(), DfsConfig::default());
    let input: Vec<Record> = (0..RECORDS)
        .map(|i| Record::new(i % KEYS, Datum::Int(i)))
        .collect();
    dfs.write_file_with_chunks("in", input, chunks);

    let op = operator_fn(
        "join",
        1,
        |rec: &mut Record, keys: &mut IndexInput| {
            keys.put(0, rec.key.clone());
            rec.value = Datum::Null;
        },
        |rec: Record, values: &IndexOutput, out: &mut dyn Collector| {
            out.collect(Record {
                key: rec.key,
                value: values.first(0)[0].clone(),
            });
        },
    );
    let blocks = (0..KEYS).map(|k| vec![Datum::Int(k * 2)].into()).collect();
    let bound = BoundOperator::new(op).add_index(Arc::new(Stored(blocks)));
    let mut plans = FxHashMap::default();
    plans.insert(
        "join".to_owned(),
        forced_plan(&bound.caps(), Strategy::Repartition),
    );
    let ijob = IndexJobConf::new("budget", "in", "out").add_head_index_operator(bound);
    let env = RuntimeEnv {
        shuffle_reducers: 4,
        intermediate_chunks: 1,
        ..RuntimeEnv::new(
            &Cluster::builder().nodes(4).build(),
            2,
            &EFindConfig::default(),
        )
    };
    let mut pipeline = compile_pipeline(&ijob, &plans, &env).expect("the pipeline compiles");
    assert_eq!(pipeline.jobs.len(), 1, "one shuffling job");
    let conf = pipeline.jobs.remove(0);
    assert!(conf.has_reduce());
    (cluster, dfs, conf)
}

/// Every key joined once a record: key `k` to `2k`.
fn check_joined(dfs: &Dfs) {
    let out = dfs.read_file("out").expect("the job wrote its output");
    assert_eq!(out.len(), RECORDS as usize);
    assert!(out
        .iter()
        .all(|r| r.value.as_int() == r.key.as_int().map(|k| 2 * k)));
}

/// One chunk, so the map task runs on this thread: its allocator calls do
/// not grow with the records it shuffles — 33, where a payload buffer a
/// record made 20 030.
#[test]
fn a_map_task_writes_its_carriers_without_an_allocator_call_a_record() {
    let _turn = SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let (cluster, mut dfs, conf) = repartitioned_join(1);
    let mut runner = Runner::new(&cluster, &mut dfs);
    let chunks = runner.chunks(&conf).unwrap();
    // A first run interns the task's counter names.
    runner.execute_maps(&conf, &chunks, 0).unwrap();
    let before = CALLS.with(Cell::get);
    let mut exec = runner.execute_maps(&conf, &chunks, 0).unwrap();
    let calls = CALLS.with(Cell::get) - before;
    assert_eq!(exec.tasks.len(), 1);
    assert_eq!(exec.tasks[0].stats.output_records, RECORDS as u64);
    assert!(
        calls < 100,
        "{calls} allocator calls for a map task shuffling {RECORDS} carriers"
    );
    runner.finish(&conf, &mut exec, SimTime::ZERO).unwrap();
    check_joined(&dfs);
}

/// The reduce tasks read each payload in place, so what the job tail frees
/// does not grow with the records: 296 blocks for 4 reduce tasks of 1 000
/// key groups, where freeing every record's payload buffer made 21 811.
#[test]
fn the_reduce_phase_frees_no_block_a_record() {
    let _turn = SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let (cluster, mut dfs, conf) = repartitioned_join(8);
    let mut runner = Runner::new(&cluster, &mut dfs);
    let chunks = runner.chunks(&conf).unwrap();
    let mut exec = runner.execute_maps(&conf, &chunks, 0).unwrap();

    let before = FREED.load(Ordering::Relaxed);
    runner.finish(&conf, &mut exec, SimTime::ZERO).unwrap();
    let freed = FREED.load(Ordering::Relaxed) - before;

    check_joined(&dfs);
    assert!(
        freed < KEYS as usize,
        "{freed} blocks freed for {KEYS} key groups of {RECORDS} records"
    );
}
