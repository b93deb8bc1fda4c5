//! The counting allocator, installed the way the binary installs it.

use efbench::alloc::{counted, AllocCount, Counting};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn counts_only_while_switched_on() {
    // Other tests of this binary do not exist, so nothing else allocates
    // on another thread while counting is on.
    let (v, on) = counted(|| std::hint::black_box(vec![7u8; 4096]));
    assert!(on.bytes >= 4096 && on.calls >= 1, "{on:?}");
    drop(v);
    let before = counted(|| ()).1;
    assert_eq!(before, AllocCount::default());
    // Allocations made with counting off leave the next reading at zero.
    let w = std::hint::black_box(vec![1u64; 1024]);
    assert_eq!(counted(|| ()).1, AllocCount::default());
    drop(w);
    // A growing vector's reallocations are requests too.
    let (_, grown) = counted(|| {
        let mut v = Vec::new();
        for i in 0..10_000u32 {
            v.push(i);
        }
        std::hint::black_box(v)
    });
    assert!(grown.bytes >= 40_000 && grown.calls >= 2, "{grown:?}");
}
