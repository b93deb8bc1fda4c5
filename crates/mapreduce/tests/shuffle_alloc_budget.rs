//! A shuffled record is moved, not copied, and a map task frees what it
//! allocated: word count over 100 000 records asks the allocator for fewer
//! bytes per input record than a map task's output collected into a vector
//! before it is spilled (166), buckets grown by doubling, a merged second
//! copy or a merge sort's scratch buffer need; the job tail frees a block
//! per key group, not one per record; and a map task's spill makes as many
//! allocator calls for 240 reducers as for 8. Its own test binary: the
//! checks need a `#[global_allocator]` that counts, on every thread the
//! runner fans out to.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use efind_cluster::{Cluster, SimTime};
use efind_common::{Datum, Record};
use efind_dfs::{Dfs, DfsConfig};
use efind_mapreduce::{mapper_fn, reducer_fn, JobConf, Runner};

/// Bytes asked of the allocator, all threads. A statistic: it publishes
/// nothing, and the tests read it only after the job's threads are joined.
static REQUESTED: AtomicUsize = AtomicUsize::new(0);
/// Blocks handed back to the allocator, all threads; a statistic as well.
static FREED: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Requests this thread has made of the allocator.
    static CALLS: Cell<usize> = const { Cell::new(0) };
}

/// The counters are process-wide, so the tests take turns.
static SERIAL: Mutex<()> = Mutex::new(());

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the bookkeeping is atomic adds and a
// const-initialised, destructor-free thread-local `Cell`, which neither
// allocate nor unwind. `realloc` is the provided one, which goes through
// `alloc` and `dealloc` and is counted.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        REQUESTED.fetch_add(layout.size(), Ordering::Relaxed);
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

const RECORDS: usize = 100_000;
const WORDS: usize = 1_000;

/// Word count over `RECORDS` records of `WORDS` words in `chunks` chunks,
/// with `reducers` reducers.
fn word_count(chunks: usize, reducers: usize) -> (Cluster, Dfs, JobConf) {
    let cluster = Cluster::builder()
        .nodes(4)
        .map_slots(2)
        .reduce_slots(2)
        .build();
    let mut dfs = Dfs::new(cluster.clone(), DfsConfig::default());
    let input: Vec<Record> = (0..RECORDS)
        .map(|i| Record::new(i as i64, format!("word{:04}", (i * 7919) % WORDS)))
        .collect();
    dfs.write_file_with_chunks("in", input, chunks);
    let conf = JobConf::new("wc", "in", "out")
        .add_mapper(mapper_fn(|rec, out, _| {
            out.collect(Record::new(rec.value, 1i64));
        }))
        .with_reducer(
            reducer_fn(|key, values, out, _| {
                let total: i64 = values.iter().filter_map(Datum::as_int).sum();
                out.collect(Record::new(key, total));
            }),
            reducers,
        );
    (cluster, dfs, conf)
}

fn counted_words(dfs: &Dfs) -> i64 {
    let out = dfs.read_file("out").unwrap();
    assert_eq!(out.len(), WORDS);
    out.iter().filter_map(|r| r.value.as_int()).sum()
}

#[test]
fn word_count_requests_under_150_bytes_per_input_record() {
    let _turn = SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let (cluster, mut dfs, conf) = word_count(8, 4);

    let before = REQUESTED.load(Ordering::Relaxed);
    let res = Runner::new(&cluster, &mut dfs)
        .run(&conf, SimTime::ZERO)
        .unwrap();
    let requested = REQUESTED.load(Ordering::Relaxed) - before;

    assert_eq!(res.stats.map.tasks.len(), 8);
    assert_eq!(counted_words(&dfs), RECORDS as i64);
    println!("{} bytes per input record", requested / RECORDS);
    assert!(
        requested < 150 * RECORDS,
        "{requested} bytes requested for {RECORDS} input records"
    );
}

/// The shuffled keys are encoded into their map task's run and freed by
/// the map task that made them, so what the job tail frees is one value
/// vector per key group and a handful of buffers per task — not the key of
/// every record, which a reduce worker freed when records crossed the
/// shuffle whole.
#[test]
fn the_job_tail_frees_a_block_per_group_not_per_record() {
    let _turn = SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let (cluster, mut dfs, conf) = word_count(8, 4);
    let mut runner = Runner::new(&cluster, &mut dfs);
    let chunks = runner.chunks(&conf).unwrap();
    let mut exec = runner.execute_maps(&conf, &chunks, 0).unwrap();

    let before = FREED.load(Ordering::Relaxed);
    runner.finish(&conf, &mut exec, SimTime::ZERO).unwrap();
    let freed = FREED.load(Ordering::Relaxed) - before;

    assert_eq!(counted_words(&dfs), RECORDS as i64);
    println!("{freed} blocks freed by the job tail");
    assert!(
        freed < 2 * WORDS,
        "{freed} blocks freed for {WORDS} key groups of {RECORDS} records"
    );
}

/// A run is the same few buffers whatever the reducer count: one chunk, so
/// the map task runs on this thread, under 8 and under 240 reducers (after
/// a first run that interns the task's counter names).
#[test]
fn a_map_tasks_spill_makes_as_many_allocator_calls_for_240_reducers_as_for_8() {
    let _turn = SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let calls = |reducers: usize| {
        let (cluster, mut dfs, conf) = word_count(1, reducers);
        let runner = Runner::new(&cluster, &mut dfs);
        let chunks = runner.chunks(&conf).unwrap();
        let before = CALLS.with(Cell::get);
        let exec = runner.execute_maps(&conf, &chunks, 0).unwrap();
        let calls = CALLS.with(Cell::get) - before;
        assert_eq!(exec.tasks.len(), 1);
        calls
    };
    calls(8);
    assert_eq!(calls(8), calls(240));
}

/// A map task of a job with no map function hands each input row to its
/// shuffle run as it is: a row whose value is stored bytes is copied into
/// the run's own storage, never cloned into a buffer of its own, so the
/// task's allocator calls are the run's blocks — about one for 200 rows
/// here — not one a row. One chunk, so the map task runs on this thread.
#[test]
fn an_identity_map_task_shuffles_stored_bytes_without_a_buffer_a_row() {
    let _turn = SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let cluster = Cluster::builder()
        .nodes(4)
        .map_slots(2)
        .reduce_slots(2)
        .build();
    let mut dfs = Dfs::new(cluster.clone(), DfsConfig::default());
    let input: Vec<Record> = (0..RECORDS)
        .map(|i| Record::new((i % WORDS) as i64, Datum::Bytes(vec![i as u8; 64])))
        .collect();
    dfs.write_file_with_chunks("in", input, 1);
    let conf = JobConf::new("carry", "in", "out").with_identity_reduce(8);
    let runner = Runner::new(&cluster, &mut dfs);
    let chunks = runner.chunks(&conf).unwrap();
    let before = CALLS.with(Cell::get);
    let exec = runner.execute_maps(&conf, &chunks, 0).unwrap();
    let calls = CALLS.with(Cell::get) - before;
    assert_eq!(exec.tasks.len(), 1);
    assert_eq!(exec.tasks[0].stats.output_records, RECORDS as u64);
    println!("{calls} allocator calls for {RECORDS} rows");
    assert!(
        calls < RECORDS / 100,
        "{calls} allocator calls for {RECORDS} rows"
    );
}
