//! A page load costs a page, never the file: the pager decodes a page
//! from a range of the tree file's own buffer and lets the range go
//! before it returns. A range that outlived the load would be silent in
//! every virtual metric — and would make the next write-back copy the
//! whole tree file (`Arc::make_mut` on a shared buffer). Counted, not
//! timed: a run that interleaves page loads with write-backs and
//! checkpoints may allocate far less than one copy of the file.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use ptsbench_btree::{BTreeDb, BTreeOptions};
use ptsbench_ssd::{DeviceConfig, DeviceProfile, Ssd};
use ptsbench_vfs::{Vfs, VfsOptions};

/// Bytes requested from the allocator so far. A regrown allocation
/// counts in full: it may have been moved.
static REQUESTED: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a relaxed statistic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        REQUESTED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REQUESTED.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const KEYS: u32 = 6000;

fn key(i: u32) -> Vec<u8> {
    format!("user{i:012}").into_bytes()
}

// One test: the counter is process-wide.
#[test]
fn page_loads_beside_write_backs_never_copy_the_tree_file() {
    let ssd = Ssd::new(DeviceConfig::from_profile(DeviceProfile::ssd1(), 64 << 20));
    let fs = Vfs::whole_device(ssd.into_shared(), VfsOptions::default());
    // Sixteen pages of cache over a tree of a few thousand: nearly every
    // op loads a page and evicts (writes back) another.
    let mut db = BTreeDb::open(fs.clone(), BTreeOptions::small()).expect("open");
    for i in 0..KEYS {
        db.put(&key(i), &[i as u8; 1000]).expect("load");
    }
    db.checkpoint().expect("checkpoint");
    let file_bytes = fs.size(fs.open("btree.db").expect("open")).expect("size");
    assert!(file_bytes > 4 << 20, "a tree of {file_bytes} bytes");

    // Same-size overwrites: no split, so the file does not grow and the
    // only way to allocate a file's worth is to copy it.
    let loads_before = db.pager_stats().cache.misses;
    let writebacks_before = db.pager_stats().writebacks;
    let before = REQUESTED.load(Ordering::Relaxed);
    for round in 0..100u32 {
        let i = round.wrapping_mul(2_654_435_761) % KEYS;
        assert!(db.get(&key(i)).expect("get").is_some());
        db.put(&key((i + KEYS / 2) % KEYS), &[round as u8; 1000])
            .expect("put");
        if round % 20 == 19 {
            db.checkpoint().expect("checkpoint");
        }
    }
    let allocated = REQUESTED.load(Ordering::Relaxed) - before;
    let stats = db.pager_stats();
    assert!(
        stats.cache.misses - loads_before >= 100,
        "pages were loaded"
    );
    assert!(
        stats.writebacks - writebacks_before >= 50,
        "and written back"
    );
    assert!(
        allocated < file_bytes / 2,
        "{allocated} bytes allocated beside a tree file of {file_bytes}"
    );
}
