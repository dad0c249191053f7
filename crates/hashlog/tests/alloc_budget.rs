//! What the hash log asks the allocator for, counted, not timed:
//!
//! * A get of the active segment costs a value, never the segment: the
//!   value is copied out of a range of the segment file's own buffer
//!   and the range is gone before `get` returns. A range that outlived
//!   the call would be silent in every virtual metric — and would make
//!   the next put copy the whole segment file (`Arc::make_mut` on a
//!   shared buffer).
//! * Records are encoded once, into the active segment's own buffer: an
//!   inline GC relocating R bytes asks for keys and index entries, not
//!   for a buffer of R bytes to relocate them through.
//! * A collected victim's buffer is the next segment's: filling that
//!   segment does not regrow a buffer a put at a time.
//! * A lent point read copies nothing: `get_with` lends a range of the
//!   pending buffer, of the cached unit or of the read. The copying
//!   lookup requested the value's length, 4 000 bytes, per read.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use ptsbench_hashlog::{HashLogDb, HashLogOptions};
use ptsbench_ssd::{DeviceConfig, DeviceProfile, Ssd};
use ptsbench_vfs::{EngineTuning, Vfs, VfsOptions};

thread_local! {
    /// Set on the thread under test. Only its allocations count: the
    /// test harness's own threads allocate while a test runs.
    static COUNTED: Cell<bool> = const { Cell::new(false) };
    /// Bytes this thread requested from the allocator so far. A regrown
    /// allocation counts in full: it may have been moved.
    static REQUESTED: Cell<u64> = const { Cell::new(0) };
    /// How many of those requests were for a segment's worth or more.
    static SEGMENT_SIZED: Cell<u64> = const { Cell::new(0) };
}

/// Adds `n` to [`REQUESTED`] if the calling thread is under test.
fn count(n: u64) {
    if COUNTED.with(Cell::get) {
        REQUESTED.set(REQUESTED.get() + n);
        if n >= SEGMENT / 2 {
            SEGMENT_SIZED.set(SEGMENT_SIZED.get() + 1);
        }
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
    let before = REQUESTED.get();
    for round in 0..100u32 {
        db.put(&key(next + round), &[round as u8; 1000])
            .expect("put");
        let fresh = db.get(&key(next + round)).expect("get");
        assert_eq!(fresh, Some(vec![round as u8; 1000]));
        let old = round.wrapping_mul(2_654_435_761) % next;
        assert_eq!(db.get(&key(old)).expect("get"), Some(vec![old as u8; 4000]));
    }
    let allocated = REQUESTED.get() - before;
    assert_eq!(db.segment_count(), 1, "all of it in the active segment");
    assert!(
        allocated < file_bytes / 2,
        "{allocated} bytes allocated beside a segment file of {file_bytes}"
    );
}

/// The `serve_fanin_fifo` shape: 256 KiB segments, codec off, inline
/// GC, 4 000-byte values under fixed-length keys.
const SEGMENT: u64 = 256 << 10;
const VALUE: [u8; 4000] = [7; 4000];

fn fanin_log() -> HashLogDb {
    let ssd = Ssd::new(DeviceConfig::from_profile(DeviceProfile::ssd1(), 64 << 20));
    let fs = Vfs::whole_device(ssd.into_shared(), VfsOptions::default());
    let opts = HashLogOptions {
        segment_bytes: SEGMENT,
        ..HashLogOptions::default()
    };
    HashLogDb::open(fs, opts).expect("open")
}

/// An overwrite of a skewed key set: three in four of 128 hot keys.
fn churn(db: &mut HashLogDb, rng: &mut SmallRng) {
    let i = if rng.gen_range(0..4) == 0 {
        rng.gen_range(128..1024)
    } else {
        rng.gen_range(0..128)
    };
    db.put(&key(i), &VALUE).expect("churn");
}

#[test]
fn inline_gc_requests_a_fraction_of_what_it_relocates() {
    COUNTED.set(true);
    let mut db = fanin_log();
    let mut rng = SmallRng::seed_from_u64(41);
    while db.stats().gc_runs < 20 {
        churn(&mut db, &mut rng);
    }
    let (mut requested, mut relocated, mut runs) = (0, 0, 0);
    while runs < 200 {
        let (before, stats) = (REQUESTED.get(), db.stats());
        churn(&mut db, &mut rng);
        let after = db.stats();
        if after.gc_runs > stats.gc_runs {
            requested += REQUESTED.get() - before;
            relocated += after.gc_bytes_rewritten - stats.gc_bytes_rewritten;
            runs += 1;
        }
    }
    assert!(
        relocated > 200 * 4000,
        "the runs relocate records: {relocated}"
    );
    assert!(
        requested < relocated / 4,
        "{runs} puts that ran an inline GC relocated {relocated} bytes and requested {requested}"
    );
}

#[test]
fn a_reclaimed_victims_buffer_is_the_next_segments() {
    COUNTED.set(true);
    let mut db = fanin_log();
    let mut rng = SmallRng::seed_from_u64(42);
    while db.stats().gc_runs < 20 {
        churn(&mut db, &mut rng);
    }
    let newest_segment_is_empty = |db: &HashLogDb| {
        let fs = db.vfs();
        let newest = fs.list().into_iter().max().expect("a segment");
        fs.size(fs.open(&newest).expect("open")).expect("size") == 0
    };
    let mut segments = 0;
    while segments < 100 {
        // A put that collected a victim and left a new, empty segment
        // active: the victim's buffer is the spare.
        let stats = db.stats();
        churn(&mut db, &mut rng);
        let after = db.stats();
        if after.gc_runs == stats.gc_runs
            || after.segments_created == stats.segments_created
            || !newest_segment_is_empty(&db)
        {
            continue;
        }
        // That segment, from its first put up to the one that seals it
        // (whose own collection may relocate into the segment after).
        let (before, opened) = (SEGMENT_SIZED.get(), after.segments_created);
        let mut requests = 0;
        while db.stats().segments_created == opened {
            requests = SEGMENT_SIZED.get() - before;
            churn(&mut db, &mut rng);
        }
        assert_eq!(
            requests, 0,
            "filling segment {segments} after a collection made segment-sized requests"
        );
        segments += 1;
    }
}

#[test]
fn a_lent_point_read_copies_no_value() {
    COUNTED.set(true);
    // (cache bytes, codec level, what serves the read).
    for (cache_bytes, level, tier) in [
        (0, 1, "pending buffer"),
        (256 << 10, 0, "cache hit"),
        (0, 0, "device read"),
    ] {
        let ssd = Ssd::new(DeviceConfig::from_profile(DeviceProfile::ssd1(), 64 << 20));
        let fs = Vfs::whole_device(ssd.into_shared(), VfsOptions::default());
        let opts = HashLogOptions {
            tuning: EngineTuning::for_device(0)
                .with_cache_bytes(cache_bytes)
                .with_compression_level(level),
            ..HashLogOptions::default()
        };
        let mut db = HashLogDb::open(fs, opts).expect("open");
        for i in 0..8 {
            db.put(&key(i), &[i as u8; 4000]).expect("put");
        }
        // A cache hit needs the miss that admitted the unit first.
        let get = |db: &mut HashLogDb| {
            let before = (
                REQUESTED.get(),
                db.vfs().ssd().lock().smart().host_pages_read,
            );
            let len = db.get_with(&key(3), |v| v.map(<[u8]>::len)).expect("get");
            assert_eq!(len, Some(4000), "{tier}");
            let read = db.vfs().ssd().lock().smart().host_pages_read > before.1;
            (REQUESTED.get() - before.0, read)
        };
        get(&mut db);
        let (requested, read) = get(&mut db);
        assert_eq!(
            read,
            tier == "device read",
            "{tier}: whether the device was read"
        );
        assert!(
            requested < 1024,
            "{tier}: a lent point read requested {requested} bytes"
        );
    }
}
