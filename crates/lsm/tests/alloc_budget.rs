//! A table's bytes are allocated once and written where they stay:
//! building a table may allocate little more than the finished file,
//! and the file's buffer may carry little spare capacity (which is
//! resident memory for as long as the table lives). Counted, not timed —
//! the guard against a staging copy or an over-reservation coming back.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use ptsbench_lsm::sstable::SstableBuilder;
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

/// Builds one table the way compaction does — told its target, fed
/// 4 000-byte values until it reaches it — and returns (bytes allocated
/// meanwhile, file bytes, capacity of the file's buffer).
fn build(fs: &Vfs, name: &str, target: u64) -> (u64, u64, u64) {
    let value = vec![0x5au8; 4000];
    let before = REQUESTED.load(Ordering::Relaxed);
    let mut b = SstableBuilder::create_bg(fs.clone(), name, 4096, 10, target).expect("create");
    let mut i = 0u32;
    while b.estimated_bytes() < target {
        b.add(format!("user{i:012}").as_bytes(), Some(&value))
            .expect("add");
        i += 1;
    }
    let meta = b.finish().expect("finish");
    let allocated = REQUESTED.load(Ordering::Relaxed) - before;
    // The buffer's capacity shows to whoever checks it out next.
    let id = fs.open(name).expect("open");
    let capacity = fs.appender(id, 0).expect("appender").buf.capacity();
    (allocated, meta.file_bytes, capacity as u64)
}

// One test: every thread under test adds to the one counter.
#[test]
fn a_table_is_allocated_once_with_little_to_spare() {
    COUNTED.set(true);
    let ssd = Ssd::new(DeviceConfig::from_profile(DeviceProfile::ssd1(), 32 << 20));
    let fs = Vfs::whole_device(ssd.into_shared(), VfsOptions::default());
    for (name, target) in [("sst-1m", 1u64 << 20), ("sst-128k", 128 << 10)] {
        let (allocated, file_bytes, capacity) = build(&fs, name, target);
        assert!(file_bytes >= target);
        assert!(
            allocated * 100 <= file_bytes * 110,
            "{name}: {allocated} bytes allocated for a file of {file_bytes}"
        );
        assert!(
            (capacity - file_bytes) * 100 <= file_bytes * 3,
            "{name}: buffer of {capacity} bytes for a file of {file_bytes}"
        );
    }
}
