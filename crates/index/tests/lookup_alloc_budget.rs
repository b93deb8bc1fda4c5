//! A lookup that reaches the index costs a refcount bump, not a copy of the
//! result: 10 000 lookups of 1 KB values must ask the allocator for fewer
//! than 64 bytes each. Its own test binary: the check needs a
//! `#[global_allocator]` that adds up request sizes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use efind::{ChargedLookup, LookupMode};
use efind_cluster::{Cluster, NetworkModel};
use efind_common::Datum;
use efind_index::{KvStore, KvStoreConfig};
use efind_mapreduce::TaskCtx;

thread_local! {
    /// Bytes this thread has asked of the allocator.
    static REQUESTED: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the bookkeeping touches only a const-initialised,
// destructor-free thread-local `Cell`, which neither allocates nor unwinds.
// `realloc` is the provided one, which goes through `alloc` and is counted.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        REQUESTED.with(|r| r.set(r.get() + layout.size()));
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
fn ten_thousand_lookups_of_1kb_values_stay_under_64_bytes_each() {
    const LOOKUPS: usize = 10_000;
    let store = KvStore::build(
        "kv",
        &Cluster::edbt_testbed(),
        KvStoreConfig::default(),
        (0..LOOKUPS as i64).map(|k| (Datum::Int(k), vec![Datum::Bytes(vec![0xCD; 1024])])),
    );
    let charged = ChargedLookup::new(
        Arc::new(store),
        NetworkModel::gigabit(),
        "efind.op.0.".into(),
    );
    let mut ctx = TaskCtx::new(0);

    REQUESTED.with(|r| r.set(0));
    let mut bytes_seen = 0;
    for k in 0..LOOKUPS as i64 {
        let values = charged.lookup(&Datum::Int(k), LookupMode::Remote, &mut ctx);
        bytes_seen += values.iter().map(Datum::size_bytes).sum::<u64>();
    }
    let requested = REQUESTED.with(Cell::get);

    assert_eq!(bytes_seen, LOOKUPS as u64 * (5 + 1024));
    assert_eq!(ctx.counters.get("efind.op.0.lookups"), LOOKUPS as i64);
    assert!(
        requested < 64 * LOOKUPS,
        "{requested} bytes requested for {LOOKUPS} lookups"
    );
}
