//! A map task's chain hands records on one at a time, and the DFS keeps
//! the job's output in the blocks the tasks filled: a map-only job whose
//! chain is three identity stages asks the allocator for one output-sized
//! block per task and nothing record-sized after — not a vector per stage,
//! a concatenation of every task's output or a copy of the records into
//! each output chunk — and a reduce task's output blocks are allocated
//! once each, not grown by doubling. Its own test binary: the checks need a
//! `#[global_allocator]` that counts, on every thread the runner fans out
//! to.

use std::alloc::{GlobalAlloc, Layout, System};
use std::mem::size_of;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use efind_cluster::{Cluster, SimTime};
use efind_common::Record;
use efind_dfs::{Dfs, DfsConfig};
use efind_mapreduce::{identity_mapper, JobConf, Runner};

/// Bytes asked of the allocator, all threads. A statistic: it publishes
/// nothing, and the tests read it only after the job's threads are joined.
static REQUESTED: AtomicUsize = AtomicUsize::new(0);

/// The counter is process-wide, so the tests take turns.
static SERIAL: Mutex<()> = Mutex::new(());

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the bookkeeping is one atomic add, which neither
// allocates nor unwinds. `realloc` is the provided one, which goes through
// `alloc` and `dealloc` and is counted.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        REQUESTED.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const RECORDS: usize = 100_000;

/// The bytes of one vector holding every record of the job.
const VECTOR: usize = RECORDS * size_of::<Record>();

/// Three identity stages over `RECORDS` integer records (whose clones own
/// no heap) in 8 chunks, written back as 5 chunks that do not line up with
/// the 8 tasks' outputs.
fn identity_job() -> (Cluster, Dfs, JobConf) {
    let cluster = Cluster::builder()
        .nodes(4)
        .map_slots(2)
        .reduce_slots(2)
        .build();
    let mut dfs = Dfs::new(cluster.clone(), DfsConfig::default());
    let input: Vec<Record> = (0..RECORDS as i64).map(|i| Record::new(i, i * 3)).collect();
    dfs.write_file_with_chunks("in", input, 8);
    let mut conf = JobConf::new("ids", "in", "out")
        .add_mapper(identity_mapper())
        .add_mapper(identity_mapper())
        .add_mapper(identity_mapper());
    conf.output_chunks = Some(5);
    (cluster, dfs, conf)
}

/// An identity reduce with 4 reducers over the same records.
fn identity_reduce_job() -> (Cluster, Dfs, JobConf) {
    let (cluster, dfs, _) = identity_job();
    let conf = JobConf::new("idr", "in", "out").with_identity_reduce(4);
    (cluster, dfs, conf)
}

fn check_output(dfs: &Dfs) {
    let out = dfs.read_file("out").unwrap();
    assert_eq!(out.len(), RECORDS);
    assert!(out
        .iter()
        .enumerate()
        .all(|(i, r)| *r == Record::new(i as i64, i as i64 * 3)));
}

#[test]
fn a_three_stage_map_only_job_requests_one_output_vector() {
    let _turn = SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let (cluster, mut dfs, conf) = identity_job();

    let before = REQUESTED.load(Ordering::Relaxed);
    let res = Runner::new(&cluster, &mut dfs)
        .run(&conf, SimTime::ZERO)
        .unwrap();
    let requested = REQUESTED.load(Ordering::Relaxed) - before;

    assert_eq!(res.stats.map.tasks.len(), 8);
    assert_eq!(res.output.chunks.len(), 5);
    check_output(&dfs);
    println!("{requested} bytes requested, {VECTOR} bytes a vector");
    // The tasks' output vectors are one vector's bytes; chunks that copy
    // the records add another, a vector per stage and the concatenation
    // three more.
    assert!(
        requested < VECTOR + VECTOR / 4,
        "{requested} bytes requested; one vector of the job's records is {VECTOR}"
    );
}

#[test]
fn the_job_tail_requests_under_an_eighth_of_the_records_bytes() {
    let _turn = SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let (cluster, mut dfs, conf) = identity_job();
    let mut runner = Runner::new(&cluster, &mut dfs);
    let chunks = runner.chunks(&conf).unwrap();
    let mut exec = runner.execute_maps(&conf, &chunks, 0).unwrap();

    let before = REQUESTED.load(Ordering::Relaxed);
    runner.finish(&conf, &mut exec, SimTime::ZERO).unwrap();
    let requested = REQUESTED.load(Ordering::Relaxed) - before;

    check_output(&dfs);
    println!("{requested} bytes requested by the job tail, {VECTOR} bytes a vector");
    // The output chunks view the tasks' vectors: the tail asks for piece
    // lists and schedule state, while chunks that copy the records ask for
    // a whole vector.
    assert!(
        requested < VECTOR / 8,
        "{requested} bytes requested by the job tail; the records take {VECTOR}"
    );
}

/// A reduce task writes its output into blocks the output file keeps, each
/// allocated once at its full size. The tail of the identity reduce asks
/// for 29 855 701 bytes: the grouping, and one block's worth of bytes per
/// output record. Output vectors grown by doubling and then trimmed by the
/// file write made it 46 337 229 bytes; the bound lies between.
#[test]
fn an_identity_reduce_writes_its_output_where_it_emitted_it() {
    let _turn = SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let (cluster, mut dfs, conf) = identity_reduce_job();
    let mut runner = Runner::new(&cluster, &mut dfs);
    let chunks = runner.chunks(&conf).unwrap();
    let mut exec = runner.execute_maps(&conf, &chunks, 0).unwrap();

    let before = REQUESTED.load(Ordering::Relaxed);
    runner.finish(&conf, &mut exec, SimTime::ZERO).unwrap();
    let requested = REQUESTED.load(Ordering::Relaxed) - before;

    let mut out = dfs.read_file("out").unwrap();
    out.sort_by(|a, b| a.key.cmp(&b.key));
    assert_eq!(out.len(), RECORDS);
    assert!(out
        .iter()
        .enumerate()
        .all(|(i, r)| *r == Record::new(i as i64, i as i64 * 3)));
    println!("{requested} bytes requested by the reduce job's tail, {VECTOR} bytes a vector");
    assert!(
        requested < 6 * VECTOR,
        "{requested} bytes requested by the reduce job's tail; the records take {VECTOR}"
    );
}
