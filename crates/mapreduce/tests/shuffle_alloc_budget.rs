//! A shuffled record is moved, not copied: word count over 100 000 records
//! asks the allocator for fewer bytes per input record than buckets grown
//! by doubling, a merged second copy and a merge sort's scratch buffer
//! need. Its own test binary: the check needs a `#[global_allocator]` that
//! adds up request sizes, on every thread the runner fans out to.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use efind_cluster::{Cluster, SimTime};
use efind_common::{Datum, Record};
use efind_dfs::{Dfs, DfsConfig};
use efind_mapreduce::{mapper_fn, reducer_fn, JobConf, Runner};

/// Bytes asked of the allocator, all threads. A statistic: it publishes
/// nothing, and the test reads it only after the job's threads are joined.
static REQUESTED: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the bookkeeping is one atomic add, which neither
// allocates nor unwinds. `realloc` is the provided one, which goes through
// `alloc` and is counted.
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

#[test]
fn word_count_requests_under_300_bytes_per_input_record() {
    const RECORDS: usize = 100_000;
    const WORDS: usize = 1_000;
    let cluster = Cluster::builder()
        .nodes(4)
        .map_slots(2)
        .reduce_slots(2)
        .build();
    let mut dfs = Dfs::new(cluster.clone(), DfsConfig::default());
    let input: Vec<Record> = (0..RECORDS)
        .map(|i| Record::new(i as i64, format!("word{:04}", (i * 7919) % WORDS)))
        .collect();
    dfs.write_file_with_chunks("in", input, 8);
    let conf = JobConf::new("wc", "in", "out")
        .add_mapper(mapper_fn(|rec, out, _| {
            out.collect(Record::new(rec.value, 1i64));
        }))
        .with_reducer(
            reducer_fn(|key, values, out, _| {
                let total: i64 = values.iter().filter_map(Datum::as_int).sum();
                out.collect(Record::new(key, total));
            }),
            4,
        );

    let before = REQUESTED.load(Ordering::Relaxed);
    let res = Runner::new(&cluster, &mut dfs)
        .run(&conf, SimTime::ZERO)
        .unwrap();
    let requested = REQUESTED.load(Ordering::Relaxed) - before;

    assert_eq!(res.stats.map.tasks.len(), 8);
    assert_eq!(res.output.total_records(), WORDS);
    let counted: i64 = dfs
        .read_file("out")
        .unwrap()
        .iter()
        .filter_map(|r| r.value.as_int())
        .sum();
    assert_eq!(counted, RECORDS as i64);
    println!("{} bytes per input record", requested / RECORDS);
    assert!(
        requested < 300 * RECORDS,
        "{requested} bytes requested for {RECORDS} input records"
    );
}
