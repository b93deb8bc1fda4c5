//! A counting global allocator: heap bytes and calls requested while
//! counting is switched on.
//!
//! The binary installs [`Counting`] as its `#[global_allocator]`. With
//! counting off an allocation pays one relaxed load on top of the system
//! allocator, so the timed sections are measured with it off and a
//! separate pinned iteration is run with it on (`alloc_mb`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

// Statistics only: nothing is published through these, so `Relaxed`.
static ON: AtomicBool = AtomicBool::new(false);
static BYTES: AtomicU64 = AtomicU64::new(0);
static CALLS: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus request counting.
pub struct Counting;

#[inline]
fn note(bytes: usize) {
    if ON.load(Ordering::Relaxed) {
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
        CALLS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters are
// side tables that never touch the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A growing `Vec` requests the new size; count what was asked for.
        note(new_size);
        // SAFETY: `ptr`/`layout` come from this allocator, i.e. `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` come from this allocator, i.e. `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Heap requests observed while counting was on.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocCount {
    /// Bytes requested.
    pub bytes: u64,
    /// Allocator calls (`alloc`, `alloc_zeroed`, `realloc`).
    pub calls: u64,
}

/// Runs `f` with counting on and returns what it requested. Zero when
/// [`Counting`] is not the process's global allocator.
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, AllocCount) {
    let before = AllocCount {
        bytes: BYTES.load(Ordering::Relaxed),
        calls: CALLS.load(Ordering::Relaxed),
    };
    ON.store(true, Ordering::Relaxed);
    let out = f();
    ON.store(false, Ordering::Relaxed);
    let count = AllocCount {
        bytes: BYTES.load(Ordering::Relaxed) - before.bytes,
        calls: CALLS.load(Ordering::Relaxed) - before.calls,
    };
    (out, count)
}
