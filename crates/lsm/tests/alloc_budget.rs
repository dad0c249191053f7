//! What the LSM asks the allocator for, counted, not timed:
//!
//! * A table's bytes are allocated once and written where they stay:
//!   building a table may allocate little more than the finished file,
//!   and the file's buffer may carry little spare capacity (which is
//!   resident memory for as long as the table lives) — the guard
//!   against a staging copy or an over-reservation coming back.
//! * A lent point read copies nothing: `get_with` lends a memtable
//!   value where the memtable holds it and a table value as a range of
//!   the block it loaded, cache off or on. The copying lookup requested
//!   the value's length, 4 000 bytes, per read.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ptsbench_lsm::sstable::SstableBuilder;
use ptsbench_lsm::{LsmDb, LsmOptions};
use ptsbench_ssd::{DeviceConfig, DeviceProfile, Ssd};
use ptsbench_vfs::{EngineTuning, Vfs, VfsOptions};

thread_local! {
    /// Set on the thread under test. Only its allocations count: the
    /// test harness's own threads allocate while a test runs.
    static COUNTED: Cell<bool> = const { Cell::new(false) };
    /// Bytes this thread requested from the allocator so far. A regrown
    /// allocation counts in full: it may have been moved.
    static REQUESTED: Cell<u64> = const { Cell::new(0) };
}

/// Adds `n` to [`REQUESTED`] if the calling thread is under test.
fn count(n: u64) {
    if COUNTED.with(Cell::get) {
        REQUESTED.set(REQUESTED.get() + n);
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
    let before = REQUESTED.get();
    let mut b = SstableBuilder::create_bg(fs.clone(), name, 4096, 10, target).expect("create");
    let mut i = 0u32;
    while b.estimated_bytes() < target {
        b.add(format!("user{i:012}").as_bytes(), Some(&value))
            .expect("add");
        i += 1;
    }
    let meta = b.finish().expect("finish");
    let allocated = REQUESTED.get() - before;
    // The buffer's capacity shows to whoever checks it out next.
    let id = fs.open(name).expect("open");
    let capacity = fs.appender(id, 0).expect("appender").buf.capacity();
    (allocated, meta.file_bytes, capacity as u64)
}

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

/// Bytes requested while one lent get of `key` runs, which must find a
/// 4 000-byte value.
fn lent_get(db: &mut LsmDb, key: &[u8]) -> u64 {
    let before = REQUESTED.get();
    let len = db.get_with(key, |v| v.map(<[u8]>::len)).expect("get");
    let requested = REQUESTED.get() - before;
    assert_eq!(len, Some(4000), "{key:?}");
    requested
}

#[test]
fn a_lent_point_read_copies_no_value() {
    COUNTED.set(true);
    for cache_bytes in [0, 256 << 10] {
        let ssd = Ssd::new(DeviceConfig::from_profile(DeviceProfile::ssd1(), 32 << 20));
        let fs = Vfs::whole_device(ssd.into_shared(), VfsOptions::default());
        let opts = LsmOptions {
            tuning: EngineTuning::for_device(0).with_cache_bytes(cache_bytes),
            ..LsmOptions::small()
        };
        let mut db = LsmDb::open(fs, opts).expect("open");
        for i in 0..40u8 {
            db.put(&[b't', i], &[i; 4000]).expect("put");
        }
        db.flush().expect("flush");
        db.put(b"m", &[1; 4000]).expect("put");
        // A table hit warms the cache first: the miss that admits the
        // block requests the cache's own copy of it.
        let hits = |db: &LsmDb| db.cache_stats().map_or(0, |c| c.hits);
        for _ in 0..3 {
            lent_get(&mut db, b"t\x07");
        }
        let hits_before = hits(&db);
        let memtable = lent_get(&mut db, b"m");
        let table = lent_get(&mut db, b"t\x07");
        if cache_bytes > 0 {
            assert_eq!(hits(&db), hits_before + 1, "the table hit was a cache hit");
        }
        assert!(
            memtable < 1024 && table < 1024,
            "cache {cache_bytes}: a lent memtable hit requested {memtable} bytes, a table hit {table}"
        );
    }
}
