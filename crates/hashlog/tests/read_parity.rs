//! Byte and counter parity across refactors of the hash log's read
//! path: one fixed seeded script — a bulk `apply_batch` load, then puts,
//! deletes (live, absent, repeated), gets (live, tombstoned, absent, of
//! the active segment and of sealed ones) and scans (limits 1 / 7 / 200
//! and a cursor dropped early), a `flush`, a `drop` + `recover`, and the
//! same gets and scans again — over {cache off, 256 KiB} × {codec off,
//! level 1} × {queue depth 1, 8} × {maintenance off, on}. Each run
//! renders, at four points, the engine and cache counters, the device's
//! read/write and queue-depth counters, the virtual clock and an FNV-1a
//! over everything the reads returned, and (before the `drop` and at the
//! end) one FNV-1a per segment file. The constants were recorded while
//! `get`, a batched lookup nothing called and the scan cursor were
//! three hand copies of the read tiers and `put` / `delete` /
//! `apply_batch` three copies of the record encoder; a change that only
//! reshapes the code must not move any of them.
//!
//! Two things the rendering leaves out on purpose. Segment files of
//! zero length are not listed, and after the `recover` the segment
//! count and `segments_created` are not rendered: under compression
//! every `recover` used to adopt the previous incarnation's empty
//! active segment as a sealed one and open another beside it — a leak,
//! not a contract (`repeated_recoveries_leave_the_segment_set_alone` in
//! `db.rs` pins what holds there). Segment bytes are looked at through
//! a checked-out `Vfs::appender`, which costs no device traffic.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use ptsbench_core::engine::WriteBatch;
use ptsbench_hashlog::{HashLogDb, HashLogOptions};
use ptsbench_maint::MaintConfig;
use ptsbench_ssd::{DeviceConfig, DeviceProfile, Ssd};
use ptsbench_testkit::{assert_golden, Fnv};
use ptsbench_vfs::{EngineTuning, Vfs, VfsOptions};

mod common;
use common::{feed_get, key, segment_files};

const KEYS: u32 = 400;

/// A value the codec can shrink, different for every `(i, version)`.
fn value(rng: &mut SmallRng, tag: u32) -> Vec<u8> {
    let len = rng.gen_range(100..2400);
    let word = rng.gen::<u64>().to_le_bytes();
    (0..len)
        .map(|b| word[b % 8] ^ (tag as u8) ^ ((b / 64) as u8))
        .collect()
}

/// Folds a scan's entries into `reads`, then an end marker.
fn feed_scan(reads: &mut Fnv, items: impl IntoIterator<Item = (Vec<u8>, Vec<u8>)>) {
    for (k, v) in items {
        reads.feed(&k).feed(&v);
    }
    reads.feed(b"<end of scan>");
}

fn pump(db: &mut HashLogDb) {
    while db.run_maintenance_slice().expect("slice") {}
}

/// The read-only part of the script, run once before the `drop` and
/// once after the `recover`: every key and a few absent ones, then the
/// three scan limits from three starts, then a limit-200 cursor that is
/// dropped after four entries (with a depth-8 queue the ramp has
/// fetched seven by then).
fn read_everything(db: &mut HashLogDb, reads: &mut Fnv) {
    for i in (0..KEYS + 20).rev() {
        feed_get(reads, db.get(&key(i)).expect("get"));
    }
    for start in [0, 137, KEYS - 3] {
        for limit in [1, 7, 200] {
            feed_scan(reads, db.scan(&key(start), None, limit).expect("scan"));
        }
    }
    feed_scan(
        reads,
        db.scan(&key(40), Some(&key(90)), 200)
            .expect("bounded scan"),
    );
    let early: Vec<_> = db
        .scan_iter(&key(200), None, 200)
        .take(4)
        .collect::<Result<_, _>>()
        .expect("cursor");
    feed_scan(reads, early);
}

/// Every number that must not move, as one line per group.
fn counters(db: &HashLogDb, reads: &Fnv, recovered: bool) -> String {
    let (smart, depth) = {
        let ssd = db.vfs().ssd();
        let dev = ssd.lock();
        (dev.smart(), dev.io_depth_stats())
    };
    let s = db.stats();
    let shape = if recovered {
        String::new()
    } else {
        format!(
            " segments_created={} segments={}",
            s.segments_created,
            db.segment_count()
        )
    };
    format!(
        "puts={} gets={} deletes={} app={} gc_runs={} gc_bytes={}{shape} entries={} garbage={}\n\
         cache={:?}\nmaint={:?}\n\
         hpw={} hpr={} qd={}/{}/{} clock={} reads={:016x}\n",
        s.puts,
        s.gets,
        s.deletes,
        s.app_bytes_written,
        s.gc_runs,
        s.gc_bytes_rewritten,
        db.len(),
        db.garbage_bytes(),
        db.cache_stats(),
        db.maint_stats(),
        smart.host_pages_written,
        smart.host_pages_read,
        depth.submitted,
        depth.depth_sum,
        depth.max_in_flight,
        db.vfs().clock().now(),
        reads.0,
    )
}

fn run_script(cache_bytes: u64, codec: u8, queue_depth: usize, maint: bool) -> String {
    let ssd = Ssd::new(DeviceConfig::from_profile(DeviceProfile::ssd1(), 64 << 20));
    let vfs = Vfs::whole_device(ssd.into_shared(), VfsOptions::default());
    let opts = HashLogOptions {
        tuning: EngineTuning::for_device(0)
            .with_cache_bytes(cache_bytes)
            .with_compression_level(codec)
            .with_queue_depth(queue_depth)
            .with_maint(if maint {
                MaintConfig::enabled()
            } else {
                MaintConfig::default()
            }),
        ..HashLogOptions::small()
    };
    let mut db = HashLogDb::open(vfs.clone(), opts).expect("open");
    let mut rng = SmallRng::seed_from_u64(24);
    let mut reads = Fnv::new();
    let mut out = String::new();

    // Bulk load: ten batches of forty puts, each with a delete of a key
    // the same batch put, of a key an earlier batch put, of a key
    // nothing ever put, and that last delete again.
    for b in 0..KEYS / 40 {
        let mut batch = WriteBatch::new();
        for i in b * 40..(b + 1) * 40 {
            batch.put(&key(i), &value(&mut rng, i));
        }
        batch.delete(&key(b * 40 + 7));
        if b > 0 {
            batch.delete(&key(b * 40 - 9));
        }
        batch.delete(&key(KEYS + 5));
        batch.delete(&key(KEYS + 5));
        db.apply_batch(&batch).expect("batch");
        pump(&mut db);
    }
    out.push_str("-- loaded\n");
    out.push_str(&counters(&db, &reads, false));

    // The mix. A put is often followed by a get of the same key (the
    // active segment); the other gets fall on sealed segments,
    // tombstones and keys that never existed.
    for step in 0..1500u32 {
        let i: u32 = rng.gen_range(0..KEYS);
        match rng.gen_range(0..20) {
            0..=8 => {
                db.put(&key(i), &value(&mut rng, step)).expect("put");
                if step % 3 == 0 {
                    feed_get(&mut reads, db.get(&key(i)).expect("get"));
                }
            }
            9..=10 => {
                db.delete(&key(i)).expect("delete");
                if step % 2 == 0 {
                    db.delete(&key(i)).expect("repeated delete");
                    feed_get(&mut reads, db.get(&key(i)).expect("get"));
                }
            }
            11 => db.delete(&key(KEYS + i)).expect("absent delete"),
            12..=16 => feed_get(&mut reads, db.get(&key(i)).expect("get")),
            17 => feed_get(&mut reads, db.get(&key(KEYS + i)).expect("absent get")),
            _ => {
                let limit = [1, 7, 200][step as usize % 3];
                feed_scan(&mut reads, db.scan(&key(i), None, limit).expect("scan"));
            }
        }
        pump(&mut db);
    }
    db.flush().expect("flush");
    db.drain_maintenance().expect("drain");
    db.quiesce();
    out.push_str("-- mixed and flushed\n");
    out.push_str(&counters(&db, &reads, false));
    out.push_str(&segment_files(&vfs));

    read_everything(&mut db, &mut reads);
    db.quiesce();
    out.push_str("-- read back\n");
    out.push_str(&counters(&db, &reads, false));

    drop(db);
    let mut db = HashLogDb::recover(vfs.clone(), opts).expect("recover");
    read_everything(&mut db, &mut reads);
    db.quiesce();
    out.push_str("-- recovered and read back\n");
    out.push_str(&counters(&db, &reads, true));
    out.push_str(&segment_files(&vfs));
    out
}

const CACHE: u64 = 256 << 10;

#[test]
fn codec_off_depth_1_inline() {
    let got = run_script(0, 0, 1, false);
    assert_golden("parity/hashlog/read_parity/RAW_QD1_INLINE.txt", &got);
}

#[test]
fn codec_off_depth_1_background() {
    let got = run_script(0, 0, 1, true);
    assert_golden("parity/hashlog/read_parity/RAW_QD1_BG.txt", &got);
}

#[test]
fn codec_off_depth_8_inline() {
    let got = run_script(0, 0, 8, false);
    assert_golden("parity/hashlog/read_parity/RAW_QD8_INLINE.txt", &got);
}

#[test]
fn codec_off_depth_8_background() {
    let got = run_script(0, 0, 8, true);
    assert_golden("parity/hashlog/read_parity/RAW_QD8_BG.txt", &got);
}

#[test]
fn codec_on_depth_1_inline() {
    let got = run_script(0, 1, 1, false);
    assert_golden("parity/hashlog/read_parity/LZ_QD1_INLINE.txt", &got);
}

#[test]
fn codec_on_depth_1_background() {
    let got = run_script(0, 1, 1, true);
    assert_golden("parity/hashlog/read_parity/LZ_QD1_BG.txt", &got);
}

#[test]
fn codec_on_depth_8_inline() {
    let got = run_script(0, 1, 8, false);
    assert_golden("parity/hashlog/read_parity/LZ_QD8_INLINE.txt", &got);
}

#[test]
fn codec_on_depth_8_background() {
    let got = run_script(0, 1, 8, true);
    assert_golden("parity/hashlog/read_parity/LZ_QD8_BG.txt", &got);
}

#[test]
fn cached_codec_off_depth_1_inline() {
    let got = run_script(CACHE, 0, 1, false);
    assert_golden("parity/hashlog/read_parity/CACHED_RAW_QD1_INLINE.txt", &got);
}

#[test]
fn cached_codec_off_depth_1_background() {
    let got = run_script(CACHE, 0, 1, true);
    assert_golden("parity/hashlog/read_parity/CACHED_RAW_QD1_BG.txt", &got);
}

#[test]
fn cached_codec_off_depth_8_inline() {
    let got = run_script(CACHE, 0, 8, false);
    assert_golden("parity/hashlog/read_parity/CACHED_RAW_QD8_INLINE.txt", &got);
}

#[test]
fn cached_codec_off_depth_8_background() {
    let got = run_script(CACHE, 0, 8, true);
    assert_golden("parity/hashlog/read_parity/CACHED_RAW_QD8_BG.txt", &got);
}

#[test]
fn cached_codec_on_depth_1_inline() {
    let got = run_script(CACHE, 1, 1, false);
    assert_golden("parity/hashlog/read_parity/CACHED_LZ_QD1_INLINE.txt", &got);
}

#[test]
fn cached_codec_on_depth_1_background() {
    let got = run_script(CACHE, 1, 1, true);
    assert_golden("parity/hashlog/read_parity/CACHED_LZ_QD1_BG.txt", &got);
}

#[test]
fn cached_codec_on_depth_8_inline() {
    let got = run_script(CACHE, 1, 8, false);
    assert_golden("parity/hashlog/read_parity/CACHED_LZ_QD8_INLINE.txt", &got);
}

#[test]
fn cached_codec_on_depth_8_background() {
    let got = run_script(CACHE, 1, 8, true);
    assert_golden("parity/hashlog/read_parity/CACHED_LZ_QD8_BG.txt", &got);
}
