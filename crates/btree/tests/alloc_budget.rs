//! What the B+Tree's page cache asks the allocator for, counted, not
//! timed:
//!
//! * A page load costs a page at most, never the file: a write-back
//!   beside the pages the cache holds replaces one page of the tree
//!   file, it does not copy the file (`Arc::make_mut` on a buffer that
//!   held every page would). A run that interleaves page loads with
//!   write-backs and checkpoints allocates far less than one copy of
//!   the file.
//! * A clean page load allocates no page: a leaf keeps the tree file's
//!   own page, shared, and only walks its record headers. On the pager
//!   that copied every page it loaded into a page-long buffer of its
//!   own, the read-only churn below requested 4 116 bytes per load on
//!   average, a page and a record-offset table; sharing the page, 343.
//! * A lent point read of a resident leaf copies nothing: `get_with`
//!   lends the value from the leaf the pager holds. The copying lookup
//!   requested the value's length, 4 000 bytes, per read.
//! * A same-length overwrite of a leaf loaded from the file copies no
//!   page: the value is kept pending beside the shared page, and the
//!   write-back puts it in the file's own page. The pager that copied
//!   the page at the first edit after every load requested 32 928
//!   bytes per overwrite below (a page and the record offsets); keeping
//!   it pending, 4 288 (the value and the offsets).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ptsbench_btree::{BTreeDb, BTreeOptions};
use ptsbench_ssd::{DeviceConfig, DeviceProfile, Ssd};
use ptsbench_vfs::{Vfs, VfsOptions};

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

const KEYS: u32 = 6000;

fn key(i: u32) -> Vec<u8> {
    format!("user{i:012}").into_bytes()
}

#[test]
fn page_loads_beside_write_backs_never_copy_the_tree_file() {
    COUNTED.set(true);
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
    let before = REQUESTED.get();
    for round in 0..100u32 {
        let i = round.wrapping_mul(2_654_435_761) % KEYS;
        assert!(db.get(&key(i)).expect("get").is_some());
        db.put(&key((i + KEYS / 2) % KEYS), &[round as u8; 1000])
            .expect("put");
        if round % 20 == 19 {
            db.checkpoint().expect("checkpoint");
        }
    }
    let allocated = REQUESTED.get() - before;
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

#[test]
fn a_clean_page_load_allocates_no_page() {
    COUNTED.set(true);
    let ssd = Ssd::new(DeviceConfig::from_profile(DeviceProfile::ssd1(), 64 << 20));
    let fs = Vfs::whole_device(ssd.into_shared(), VfsOptions::default());
    // Sixteen 4 KiB pages of cache over ~800 leaves of ~40 entries: a
    // get of a random key nearly always loads its leaf.
    let opts = BTreeOptions::small();
    let page_bytes = opts.page_bytes as u64;
    let mut db = BTreeDb::open(fs, opts).expect("open");
    for i in 0..KEYS * 5 {
        db.put(&key(i), &[i as u8; 64]).expect("load");
    }
    db.checkpoint().expect("checkpoint");
    let churn = |db: &mut BTreeDb, rounds: u32| {
        for round in 0..rounds {
            let i = round.wrapping_mul(2_654_435_761) % (KEYS * 5);
            assert!(db.get(&key(i)).expect("get").is_some());
        }
    };
    // Warm: the internal pages resident, the cache full.
    churn(&mut db, 2000);
    let (stats, before) = (db.pager_stats(), REQUESTED.get());
    churn(&mut db, 2000);
    let allocated = REQUESTED.get() - before;
    let loads = db.pager_stats().cache.misses - stats.cache.misses;
    assert_eq!(
        db.pager_stats().writebacks,
        stats.writebacks,
        "nothing was written"
    );
    assert!(loads >= 1500, "pages were loaded: {loads}");
    assert!(
        allocated < loads * page_bytes / 4,
        "{loads} clean page loads requested {allocated} bytes, {} per load",
        allocated / loads
    );
}

#[test]
fn a_lent_read_of_a_resident_leaf_copies_no_value() {
    COUNTED.set(true);
    let ssd = Ssd::new(DeviceConfig::from_profile(DeviceProfile::ssd1(), 64 << 20));
    let fs = Vfs::whole_device(ssd.into_shared(), VfsOptions::default());
    // 32 KiB pages: a leaf holds several 4 000-byte values.
    let mut db = BTreeDb::open(fs, BTreeOptions::default()).expect("open");
    for i in 0..40 {
        db.put(&key(i), &[i as u8; 4000]).expect("load");
    }
    db.checkpoint().expect("checkpoint");
    assert!(db.get(&key(7)).expect("warm").is_some());
    let misses = db.pager_stats().cache.misses;
    let before = REQUESTED.get();
    let len = db.get_with(&key(7), |v| v.map(<[u8]>::len)).expect("get");
    let requested = REQUESTED.get() - before;
    assert_eq!(len, Some(4000));
    assert_eq!(
        db.pager_stats().cache.misses,
        misses,
        "the leaf was resident"
    );
    assert!(
        requested < 1024,
        "a lent read of a resident leaf requested {requested} bytes"
    );
}

#[test]
fn a_same_length_overwrite_of_a_loaded_leaf_requests_no_page() {
    COUNTED.set(true);
    let ssd = Ssd::new(DeviceConfig::from_profile(DeviceProfile::ssd1(), 64 << 20));
    let fs = Vfs::whole_device(ssd.into_shared(), VfsOptions::default());
    // 32 KiB pages, eight 4 000-byte values each, under a cache of four
    // pages: an overwrite of a random key nearly always loads its leaf
    // from the file and evicts (writes back) a dirty one.
    let opts = BTreeOptions::default();
    let page_bytes = opts.page_bytes as u64;
    let opts = BTreeOptions {
        pager_bytes: 4 * page_bytes,
        ..opts
    };
    let mut db = BTreeDb::open(fs, opts).expect("open");
    const LEAF_KEYS: u32 = 400;
    for i in 0..LEAF_KEYS {
        db.put(&key(i), &[i as u8; 4000]).expect("load");
    }
    db.checkpoint().expect("checkpoint");
    let churn = |db: &mut BTreeDb, rounds: u32| {
        for round in 0..rounds {
            let i = round.wrapping_mul(2_654_435_761) % LEAF_KEYS;
            db.put(&key(i), &[round as u8; 4000]).expect("overwrite");
        }
    };
    // Warm: the journal grown to hold the measured overwrites (a
    // checkpoint recycles it, keeping its buffer), the internal pages
    // resident, the cache full of dirty leaves.
    churn(&mut db, 600);
    db.checkpoint().expect("checkpoint");
    churn(&mut db, 100);
    let (stats, before) = (db.pager_stats(), REQUESTED.get());
    const OVERWRITES: u32 = 400;
    churn(&mut db, OVERWRITES);
    let allocated = REQUESTED.get() - before;
    let stats_after = db.pager_stats();
    let loads = stats_after.cache.misses - stats.cache.misses;
    let writebacks = stats_after.writebacks - stats.writebacks;
    assert!(loads >= 300, "leaves were loaded: {loads}");
    assert!(writebacks >= 300, "and written back: {writebacks}");
    assert_eq!(stats_after.checkpoints, stats.checkpoints, "no checkpoint");
    let per_overwrite = allocated / u64::from(OVERWRITES);
    assert!(
        per_overwrite < page_bytes / 4,
        "{OVERWRITES} overwrites requested {allocated} bytes, {per_overwrite} per overwrite"
    );
}
