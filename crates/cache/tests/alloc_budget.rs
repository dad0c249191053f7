//! Encoding a block allocates nothing once its scratch has grown: the
//! match finder's tables live in the caller's `EncodeScratch` and the
//! container is appended to the caller's buffer, which is how the LSM
//! seals a table block and the hash log a segment. A per-call table or
//! staging buffer would read the same in every virtual metric and cost
//! host time on every sealed block. Counted, not timed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use ptsbench_cache::{Compression, EncodeScratch};
use ptsbench_workload::fill_value;

/// Calls to the allocator so far that handed out memory. A regrown
/// allocation counts: it may have been moved.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a relaxed statistic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const BLOCK: usize = 8 << 10;

// One test: the counter is process-wide.
#[test]
fn encoding_into_a_reused_scratch_allocates_nothing() {
    // Incompressible (stored mode, like every benchmark block) and
    // text-like (LZ mode, a match token every few bytes).
    let mut noise = Vec::new();
    fill_value(7, 0, BLOCK, &mut noise);
    let text: Vec<u8> = b"the quick brown fox jumps over the lazy dog "
        .iter()
        .cycle()
        .take(BLOCK)
        .copied()
        .collect();
    let mut scratch = EncodeScratch::default();
    // Room for the worst container: header, all-literal body.
    let mut out = Vec::with_capacity(2 * BLOCK);
    let capacity = out.capacity();
    // Warm-up: one block at a level that chains grows both tables.
    Compression::from_level(9).encode_into(&noise, &mut scratch, &mut out);
    for level in 1..=9 {
        let codec = Compression::from_level(level);
        for (name, raw) in [("noise", &noise), ("text", &text)] {
            out.clear();
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            codec.encode_into(raw, &mut scratch, &mut out);
            let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
            assert_eq!(
                allocations, 0,
                "encoding 8 KiB of {name} at level {level} allocated {allocations} times"
            );
            assert_eq!(Compression::decode(&out).as_deref(), Some(&raw[..]));
        }
    }
    assert_eq!(out.capacity(), capacity, "the container outgrew `out`");
}
