//! A lookup that reaches the index costs a refcount bump, not a copy of the
//! result: 10 000 lookups of 1 KB values must ask the allocator for fewer
//! than 64 bytes each, and with faults, hedging and response corruption
//! armed, the draws build their payloads without asking it at all. Its own
//! test binary: the check needs a `#[global_allocator]` that adds up
//! requests.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use efind::{
    ChargedLookup, FaultConfig, FaultPlan, HedgeConfig, HedgePolicy, LookupMode, RetryPolicy,
};
use efind_cluster::{Cluster, CorruptionPlan, NetworkModel, SimDuration};
use efind_common::Datum;
use efind_index::{KvStore, KvStoreConfig};
use efind_mapreduce::TaskCtx;

thread_local! {
    /// Bytes this thread has asked of the allocator.
    static REQUESTED: Cell<usize> = const { Cell::new(0) };
    /// Calls this thread has made to the allocator.
    static CALLS: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the bookkeeping touches only a const-initialised,
// destructor-free thread-local `Cell`, which neither allocates nor unwinds.
// `realloc` is the provided one, which goes through `alloc` and is counted.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        REQUESTED.with(|r| r.set(r.get() + layout.size()));
        CALLS.with(|c| c.set(c.get() + 1));
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

/// A store of `n` keys, each holding one 1 KB value.
fn store_of_1kb_values(n: usize) -> KvStore {
    KvStore::build(
        "kv",
        &Cluster::edbt_testbed(),
        KvStoreConfig::default(),
        (0..n as i64).map(|k| (Datum::Int(k), vec![Datum::Bytes(vec![0xCD; 1024])])),
    )
}

#[test]
fn ten_thousand_lookups_of_1kb_values_stay_under_64_bytes_each() {
    const LOOKUPS: usize = 10_000;
    let charged = ChargedLookup::new(
        Arc::new(store_of_1kb_values(LOOKUPS)),
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

#[test]
fn armed_lookups_draw_without_an_allocator_call() {
    const KEYS: i64 = 2_000;
    let mut faults = FaultConfig::disabled().with_plan(
        FaultPlan::new(3)
            .failures(0.2)
            .timeouts(0.1)
            .slowdowns(0.2, 3.0),
    );
    faults.retry = RetryPolicy::bounded(
        4,
        SimDuration::from_micros(100),
        SimDuration::from_millis(2),
    );
    let charged = ChargedLookup::new(
        Arc::new(store_of_1kb_values(KEYS as usize)),
        NetworkModel::gigabit(),
        "efind.op.0.".into(),
    )
    .with_faults(&faults)
    .with_hedging(&HedgeConfig {
        seed: 5,
        threshold: Some(SimDuration::ZERO),
        policy: HedgePolicy::ChargeBoth,
    })
    .with_corruption(&CorruptionPlan::new(7).responses(0.3));
    let mut ctx = TaskCtx::new(0);
    let pass = |ctx: &mut TaskCtx| {
        for k in 0..KEYS {
            charged.lookup(&Datum::Int(k), LookupMode::Remote, ctx);
        }
    };
    // The first pass grows the draw buffer and gives every counter the
    // keys' draws will touch its entry; the second replays the same draws.
    pass(&mut ctx);
    CALLS.with(|c| c.set(0));
    pass(&mut ctx);
    let calls = CALLS.with(Cell::get);

    for armed in [
        "fault.failures",
        "fault.retries",
        "hedge.fired",
        "integrity.refetch",
    ] {
        assert!(
            ctx.counters.get(&format!("efind.op.0.{armed}")) > 0,
            "{armed}"
        );
    }
    assert_eq!(calls, 0, "allocator calls over {KEYS} armed lookups");
}
