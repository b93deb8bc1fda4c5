//! A list's element count is read from the input, so decoding must not
//! reserve for it beyond what the input can back. Its own test binary: the
//! check needs a `#[global_allocator]` that watches request sizes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use efind_common::{Datum, Error};

thread_local! {
    /// Largest single request this thread has made of the allocator.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

struct Watching;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the bookkeeping touches only a const-initialised,
// destructor-free thread-local `Cell`, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Watching {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.with(|l| l.set(l.get().max(layout.size())));
        // SAFETY: `layout` is the caller's, passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Watching = Watching;

#[test]
fn a_claimed_element_count_reserves_no_more_than_the_buffer_holds() {
    // A list claiming u32::MAX elements, then four bytes: nine in all,
    // room for four one-byte datums at most.
    let mut buf = vec![6u8];
    buf.extend_from_slice(&u32::MAX.to_le_bytes());
    buf.extend_from_slice(&[0, 0, 0, 0]);
    assert_eq!(buf.len(), 9);

    LARGEST.with(|l| l.set(0));
    let flat = Datum::decode(&buf);
    let nested = Datum::decode_list_with(&buf, |b| Datum::decode_list_with(b, Datum::decode_from));
    let largest = LARGEST.with(Cell::get);

    assert!(matches!(flat, Err(Error::Decode(_))), "{flat:?}");
    assert!(matches!(nested, Err(Error::Decode(_))), "{nested:?}");
    // The error strings are the only other allocations, and they are short.
    let four_elements = 4 * std::mem::size_of::<Datum>();
    assert!(
        largest <= four_elements,
        "a {largest}-byte reservation for a 9-byte input"
    );
}
