//! The synthetic join's head operator projects each input row to its join
//! key, and a map task lends it the rows of its chunk, so a row's padding
//! is never copied: the job asks the allocator for the same bytes whatever
//! the padding. Its own test binary: the check needs a `#[global_allocator]`
//! that counts what each thread asks for.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use efind::{Mode, Strategy};
use efind_common::Record;
use efind_workloads::harness::run_mode;
use efind_workloads::synthetic::{self, SyntheticConfig};

thread_local! {
    /// Calls this thread has made of the allocator, and the bytes asked for.
    static CALLS: Cell<usize> = const { Cell::new(0) };
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the bookkeeping touches only const-initialised,
// destructor-free thread-local `Cell`s, which neither allocate nor unwind.
// `realloc` is the provided one, which goes through `alloc` and is counted.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.with(|c| c.set(c.get() + 1));
        BYTES.with(|b| b.set(b.get() + layout.size()));
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

const ROWS: usize = 400;

/// Allocator calls and bytes this thread made for one run of the join
/// under `strategy`, over `ROWS` rows of `pad` padding bytes in one chunk
/// (so its one map task runs on this thread), after a first run that warmed
/// every per-thread and per-process table; and what the run wrote.
fn counted_run(pad: usize, strategy: Strategy) -> (usize, usize, Vec<Record>) {
    let config = SyntheticConfig {
        num_records: ROWS,
        key_space: ROWS / 2,
        record_pad: pad,
        index_value_size: 64,
        chunks: 1,
        ..SyntheticConfig::default()
    };
    let mut scenario = synthetic::scenario(&config);
    let mode = Mode::Uniform(strategy);
    run_mode(&mut scenario, "warm", mode.clone()).expect("the warm-up run");
    let before = (CALLS.with(Cell::get), BYTES.with(Cell::get));
    run_mode(&mut scenario, "counted", mode).expect("the counted run");
    let calls = CALLS.with(Cell::get) - before.0;
    let bytes = BYTES.with(Cell::get) - before.1;
    let out = scenario
        .dfs
        .read_file("syn.joined")
        .expect("the join's output");
    (calls, bytes, out)
}

#[test]
fn the_join_never_copies_a_rows_padding() {
    for strategy in [Strategy::Cache, Strategy::Repartition] {
        let (thin_calls, thin_bytes, thin_out) = counted_run(16, strategy);
        let (padded_calls, padded_bytes, padded_out) = counted_run(1_040, strategy);
        assert_eq!(thin_out.len(), ROWS, "{strategy:?}");
        assert_eq!(thin_out, padded_out, "{strategy:?}");
        assert_eq!(
            (padded_calls, padded_bytes),
            (thin_calls, thin_bytes),
            "{strategy:?}: 1 024 more padding bytes a row cost {} more bytes over {ROWS} rows",
            padded_bytes as i64 - thin_bytes as i64
        );
    }
}
