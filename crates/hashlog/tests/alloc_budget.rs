//! A get of the active segment costs a value, never the segment: the
//! value is copied out of a range of the segment file's own buffer and
//! the range is gone before `get` returns. A range that outlived the
//! call would be silent in every virtual metric — and would make the
//! next put copy the whole segment file (`Arc::make_mut` on a shared
//! buffer). Counted, not timed: gets of the active segment interleaved
//! with puts may allocate far less than one copy of the file.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use ptsbench_hashlog::{HashLogDb, HashLogOptions};
use ptsbench_ssd::{DeviceConfig, DeviceProfile, Ssd};
use ptsbench_vfs::{Vfs, VfsOptions};

/// Bytes requested from the allocator so far. A regrown allocation
/// counts in full: it may have been moved.
static REQUESTED: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set on the thread under test. Only its allocations count: the
    /// test harness's own threads allocate while a test runs.
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

/// Adds `n` to [`REQUESTED`] if the calling thread is under test.
fn count(n: u64) {
    if COUNTED.with(Cell::get) {
        REQUESTED.fetch_add(n, Ordering::Relaxed);
    }
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a relaxed statistic and
// the flag a `const` thread-local, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as u64);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as u64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

fn key(i: u32) -> Vec<u8> {
    format!("user{i:012}").into_bytes()
}

// One test: every thread under test adds to the one counter.
#[test]
fn gets_of_the_active_segment_beside_puts_never_copy_it() {
    COUNTED.set(true);
    let ssd = Ssd::new(DeviceConfig::from_profile(DeviceProfile::ssd1(), 64 << 20));
    let fs = Vfs::whole_device(ssd.into_shared(), VfsOptions::default());
    // One 16 MiB segment, uncompressed: every record of the run lands in
    // the active segment's file and every get reads that file.
    let opts = HashLogOptions {
        segment_bytes: 16 << 20,
        ..HashLogOptions::default()
    };
    let mut db = HashLogDb::open(fs.clone(), opts).expect("open");
    let mut next = 0u32;
    while db.vfs().stats().data_bytes < 6 << 20 {
        db.put(&key(next), &[next as u8; 4000]).expect("load");
        next += 1;
    }
    assert_eq!(db.segment_count(), 1, "still the first segment");
    let file_bytes = db.vfs().stats().data_bytes;

    // Fresh keys only: no garbage, so no GC, and 100 KiB of appends stay
    // inside the capacity the file's buffer already has.
    let before = REQUESTED.load(Ordering::Relaxed);
    for round in 0..100u32 {
        db.put(&key(next + round), &[round as u8; 1000])
            .expect("put");
        let fresh = db.get(&key(next + round)).expect("get");
        assert_eq!(fresh, Some(vec![round as u8; 1000]));
        let old = round.wrapping_mul(2_654_435_761) % next;
        assert_eq!(db.get(&key(old)).expect("get"), Some(vec![old as u8; 4000]));
    }
    let allocated = REQUESTED.load(Ordering::Relaxed) - before;
    assert_eq!(db.segment_count(), 1, "all of it in the active segment");
    assert!(
        allocated < file_bytes / 2,
        "{allocated} bytes allocated beside a segment file of {file_bytes}"
    );
}
