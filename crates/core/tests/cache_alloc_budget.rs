//! A lookup or shadow cache costs what it holds: on a thread of its own,
//! one that sees a few keys asks the allocator for a few entries, not for
//! its whole capacity, and one that fills up and keeps evicting asks for no
//! more than the cache that reserved its whole slab up front and stored
//! every key twice. A cache that holds no more keys than one its thread
//! dropped asks for nothing: it takes that cache's storage, and an armed
//! one the map of key generations it drew poison with too. Its own test
//! binary: the check needs a `#[global_allocator]` that counts bytes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use efind::cache::{LookupCache, ShadowCache};
use efind_cluster::CorruptionPlan;
use efind_common::Datum;

thread_local! {
    /// Bytes this thread has asked the allocator for.
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the bookkeeping touches only a const-initialised,
// destructor-free thread-local `Cell`, which neither allocates nor unwinds.
// `realloc` is the provided one, which goes through `alloc` and is counted.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
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

/// Bytes `f` asked for on this thread.
fn counted(f: impl FnOnce()) -> usize {
    let before = BYTES.with(Cell::get);
    f();
    BYTES.with(Cell::get) - before
}

/// Runs `f` on a thread of its own, which starts with no spare cache
/// storage.
fn on_a_new_thread<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|s| s.spawn(f).join().expect("the measured caches panicked"))
}

/// The paper's capacity.
const CAPACITY: usize = 1024;

/// Text keys, each owning a heap block, as a task's join keys do.
fn keys(n: usize) -> Vec<Datum> {
    (0..n)
        .map(|i| Datum::Text(format!("customer#{i:09}")))
        .collect()
}

/// Runs `keys` through a shadow cache as a task observes its lookups.
fn shadow_bytes(keys: &[Datum]) -> usize {
    counted(|| {
        let mut shadow = ShadowCache::new(CAPACITY);
        for key in keys {
            shadow.observe(key);
        }
        assert_eq!(shadow.probes(), keys.len() as u64);
    })
}

/// Runs `keys` through a lookup cache as a task does: probe, and on a miss
/// insert the key it owns with the result list the index handed out.
fn lookup_bytes(keys: Vec<Datum>) -> usize {
    let values: Arc<[Datum]> = vec![Datum::Int(1)].into();
    counted(|| {
        let mut cache = LookupCache::new(CAPACITY);
        for key in keys {
            if cache.probe(&key).is_none() {
                cache.insert(key, values.clone());
            }
        }
        assert_eq!(cache.hits(), 0);
    })
}

#[test]
fn a_cache_that_sees_ten_keys_asks_for_ten_keys_worth() {
    // Reserving the whole slab up front asked for 50 708 and 75 104 bytes.
    let (shadow, lookup) = on_a_new_thread(|| {
        let keys = keys(10);
        (shadow_bytes(&keys), lookup_bytes(keys))
    });
    assert!(
        shadow < 4096,
        "a shadow cache of 10 keys asked for {shadow} B"
    );
    assert!(
        lookup < 4096,
        "a lookup cache of 10 keys asked for {lookup} B"
    );
}

#[test]
fn a_full_cache_evicting_asks_for_no_more_than_the_eager_one() {
    // Filling to capacity and evicting through 10 000 more keys, as
    // measured with the slab reserved up front and a second clone of every
    // key in a `Datum`-keyed index: 613 948 bytes for the shadow cache,
    // 440 092 for the lookup cache.
    let (shadow, lookup) = on_a_new_thread(|| {
        let keys = keys(CAPACITY + 10_000);
        (shadow_bytes(&keys), lookup_bytes(keys))
    });
    assert!(shadow <= 613_948, "the shadow cache asked for {shadow} B");
    assert!(lookup <= 440_092, "the lookup cache asked for {lookup} B");
}

#[test]
fn a_cache_no_fuller_than_its_dropped_predecessor_asks_for_nothing() {
    // Integer keys, so the shadow cache's own copy of a key owns no heap
    // block: what is left to count is the caches' storage.
    let (shadow, lookup) = on_a_new_thread(|| {
        let first: Vec<Datum> = (0..600).map(Datum::Int).collect();
        let second: Vec<Datum> = (1_000..1_600).map(Datum::Int).collect();
        assert!(shadow_bytes(&first) > 0 && lookup_bytes(first) > 0);
        (shadow_bytes(&second), lookup_bytes(second))
    });
    assert_eq!(shadow, 0, "the shadow cache asked for {shadow} B");
    assert_eq!(lookup, 0, "the lookup cache asked for {lookup} B");
}

/// Runs `keys` through a lookup cache armed to poison a tenth of its
/// insertions, as a task of a job with cache corruption armed does.
fn armed_bytes(keys: Vec<Datum>) -> usize {
    let plan = CorruptionPlan::new(0xEF1D_0004).cache(0.1);
    let values: Arc<[Datum]> = vec![Datum::Int(1)].into();
    counted(|| {
        let mut cache = LookupCache::new(CAPACITY).with_corruption(&plan, "efind.join.0.");
        for key in keys {
            if cache.probe(&key).is_none() {
                cache.insert(key, values.clone());
            }
        }
        assert_eq!(cache.hits(), 0);
    })
}

#[test]
fn an_armed_cache_no_fuller_than_its_dropped_predecessor_asks_only_for_its_scope_and_buffer() {
    let (first, second) = on_a_new_thread(|| {
        let first: Vec<Datum> = (0..600).map(Datum::Int).collect();
        let second: Vec<Datum> = (1_000..1_600).map(Datum::Int).collect();
        (armed_bytes(first), armed_bytes(second))
    });
    assert!(first > 0, "the first armed cache grew no storage");
    // What is left is the cache's draw scope and the buffer it encodes a
    // result list into: 37 bytes. With its generation map grown afresh in
    // every cache, the second cache asked for 83 985.
    assert!(second < 256, "the second armed cache asked for {second} B");
}
