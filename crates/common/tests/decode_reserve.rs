//! A list's element count is read from the input, so decoding must not
//! reserve for it beyond what the input can back, and measuring an encoding
//! must not allocate at all. Its own test binary: the checks need a
//! `#[global_allocator]` that watches requests.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use efind_common::{Datum, Error};

thread_local! {
    /// Largest single request this thread has made of the allocator.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
    /// Requests this thread has made of the allocator.
    static CALLS: Cell<usize> = const { Cell::new(0) };
}

struct Watching;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the bookkeeping touches only const-initialised,
// destructor-free thread-local `Cell`s, which neither allocate nor unwind.
unsafe impl GlobalAlloc for Watching {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.with(|l| l.set(l.get().max(layout.size())));
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
    let len = Datum::encoded_len(&buf);
    let largest = LARGEST.with(Cell::get);

    assert!(matches!(flat, Err(Error::Decode(_))), "{flat:?}");
    assert!(matches!(nested, Err(Error::Decode(_))), "{nested:?}");
    assert!(matches!(len, Err(Error::Decode(_))), "{len:?}");
    // The error strings are the only other allocations, and they are short.
    let four_elements = 4 * std::mem::size_of::<Datum>();
    assert!(
        largest <= four_elements,
        "a {largest}-byte reservation for a 9-byte input"
    );
}

/// The element-by-element reader, on the shape a carrier payload has: the
/// list of per-index key lists claims one list, and that list 2³² − 1 keys.
#[test]
fn a_key_list_claiming_u32_max_keys_grows_storage_by_what_it_holds() {
    let mut buf = Vec::new();
    for claimed in [1, u32::MAX] {
        buf.push(6u8);
        buf.extend_from_slice(&claimed.to_le_bytes());
    }
    buf.extend_from_slice(&[0, 0, 0, 0]);
    let datum = |d: &mut Datum, b| {
        let (v, rest) = Datum::decode_from(b)?;
        *d = v;
        Ok(rest)
    };

    // Into empty storage, and into storage that already holds more.
    for mut keys in [Vec::new(), vec![vec![Datum::Int(7); 6]; 3]] {
        LARGEST.with(|l| l.set(0));
        let parsed = Datum::decode_list_in_place(&buf, &mut keys, |list, b| {
            Datum::decode_list_in_place(b, list, datum)
        });
        let largest = LARGEST.with(Cell::get);
        assert!(matches!(parsed, Err(Error::Decode(_))), "{parsed:?}");
        let four_elements = 4 * std::mem::size_of::<Datum>();
        assert!(
            largest <= four_elements,
            "a {largest}-byte reservation for a 14-byte input"
        );
    }
}

/// In place, over a slot of every kind — a list holding more elements
/// than the input backs, and fewer — a claimed element count reserves no
/// more than the input holds, and a claimed text or byte length is
/// checked against the input before anything is reserved.
#[test]
fn an_in_place_decode_reserves_no_more_than_the_buffer_holds() {
    let claiming = |tag: u8, body: &[u8]| {
        let mut buf = vec![tag];
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(body);
        buf
    };
    let inputs = [
        claiming(6, &[0, 0, 0, 0]),
        claiming(4, b"abcd"),
        claiming(5, b"abcd"),
    ];
    let slots = [
        Datum::Null,
        Datum::Text("x".into()),
        Datum::Bytes(vec![1]),
        Datum::List(Vec::new()),
        Datum::List(vec![Datum::Text("held".into()); 6]),
    ];
    for buf in &inputs {
        for held in &slots {
            let mut slot = held.clone();
            LARGEST.with(|l| l.set(0));
            let parsed = Datum::decode_in_place(&mut slot, buf);
            let largest = LARGEST.with(Cell::get);
            assert!(matches!(parsed, Err(Error::Decode(_))), "{parsed:?}");
            let four_elements = 4 * std::mem::size_of::<Datum>();
            assert!(
                largest <= four_elements,
                "a {largest}-byte reservation for a 9-byte input over {held:?}"
            );
        }
    }
}

/// Decoded in place over a value of its own shape — a row of text, bytes
/// and a nested list, each no longer than before — a datum reuses every
/// buffer and asks the allocator for nothing.
#[test]
fn an_in_place_decode_over_its_own_shape_makes_no_allocator_call() {
    let row = |name: &str, tags: &[i64]| {
        Datum::List(vec![
            Datum::Int(1),
            Datum::Text(name.into()),
            Datum::Bytes(name.as_bytes().to_vec()),
            Datum::List(tags.iter().map(|t| Datum::Int(*t)).collect()),
        ])
    };
    let mut slot = row("a longer name", &[1, 2, 3]);
    let next = row("short", &[4]).encode();

    CALLS.with(|c| c.set(0));
    let rest = Datum::decode_in_place(&mut slot, &next).expect("a valid encoding");
    let calls = CALLS.with(Cell::get);

    assert!(rest.is_empty());
    assert_eq!(slot, row("short", &[4]));
    assert_eq!(calls, 0, "the in-place decode allocated");
}

/// `Datum::encoded_len` reads tags and length prefixes: over encodings of
/// every variant, nested lists included, it asks the allocator for nothing.
#[test]
fn encoded_len_makes_no_allocator_call() {
    let leaves = vec![
        Datum::Null,
        Datum::Bool(true),
        Datum::Int(-3),
        Datum::Float(f64::NAN),
        Datum::Text("abcdefghi".into()),
        Datum::Bytes(vec![0; 300]),
    ];
    let nested = Datum::List(vec![
        Datum::List(leaves.clone()),
        Datum::List(Vec::new()),
        Datum::List(vec![Datum::List(leaves.clone())]),
    ]);
    let mut run = Vec::new();
    for d in leaves.iter().chain([&nested]) {
        d.encode_into(&mut run);
    }

    CALLS.with(|c| c.set(0));
    let mut at = 0;
    let mut lengths = 0;
    while at < run.len() {
        let len = Datum::encoded_len(&run[at..]).expect("a valid encoding");
        at += len;
        lengths += 1;
    }
    let calls = CALLS.with(Cell::get);

    assert_eq!((at, lengths), (run.len(), leaves.len() + 1));
    assert_eq!(calls, 0, "encoded_len allocated");
}
