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
use ptsbench_vfs::{EngineTuning, Vfs, VfsOptions};

const KEYS: u32 = 400;

fn key(i: u32) -> Vec<u8> {
    format!("key{i:08}").into_bytes()
}

/// A value the codec can shrink, different for every `(i, version)`.
fn value(rng: &mut SmallRng, tag: u32) -> Vec<u8> {
    let len = rng.gen_range(100..2400);
    let word = rng.gen::<u64>().to_le_bytes();
    (0..len)
        .map(|b| word[b % 8] ^ (tag as u8) ^ ((b / 64) as u8))
        .collect()
}

/// FNV-1a, folded over everything a read returned or a segment holds.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn feed(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        // Length-delimit so ("ab", "c") and ("a", "bc") differ.
        self.0 ^= bytes.len() as u64;
        self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
    }

    fn feed_get(&mut self, value: Option<Vec<u8>>) {
        match value {
            Some(v) => self.feed(&v),
            None => self.feed(b"<absent>"),
        }
    }

    fn feed_scan(&mut self, items: impl IntoIterator<Item = (Vec<u8>, Vec<u8>)>) {
        for (k, v) in items {
            self.feed(&k);
            self.feed(&v);
        }
        self.feed(b"<end of scan>");
    }
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
        reads.feed_get(db.get(&key(i)).expect("get"));
    }
    for start in [0, 137, KEYS - 3] {
        for limit in [1, 7, 200] {
            reads.feed_scan(db.scan(&key(start), None, limit).expect("scan"));
        }
    }
    reads.feed_scan(
        db.scan(&key(40), Some(&key(90)), 200)
            .expect("bounded scan"),
    );
    let early: Vec<_> = db
        .scan_iter(&key(200), None, 200)
        .take(4)
        .collect::<Result<_, _>>()
        .expect("cursor");
    reads.feed_scan(early);
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

/// One line per non-empty segment file: name, size, FNV of its bytes.
fn segment_files(fs: &Vfs) -> String {
    let mut names: Vec<String> = fs
        .list()
        .into_iter()
        .filter(|n| n.starts_with("hlog-"))
        .collect();
    names.sort();
    let mut out = String::new();
    for name in names {
        let id = fs.open(&name).expect("open");
        let bytes = fs.appender(id, 0).expect("checkout");
        if bytes.buf.is_empty() {
            continue;
        }
        let mut sum = Fnv::new();
        sum.feed(&bytes.buf);
        out.push_str(&format!("{name} {} {:016x}\n", bytes.buf.len(), sum.0));
    }
    out
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
                    reads.feed_get(db.get(&key(i)).expect("get"));
                }
            }
            9..=10 => {
                db.delete(&key(i)).expect("delete");
                if step % 2 == 0 {
                    db.delete(&key(i)).expect("repeated delete");
                    reads.feed_get(db.get(&key(i)).expect("get"));
                }
            }
            11 => db.delete(&key(KEYS + i)).expect("absent delete"),
            12..=16 => reads.feed_get(db.get(&key(i)).expect("get")),
            17 => reads.feed_get(db.get(&key(KEYS + i)).expect("absent get")),
            _ => {
                let limit = [1, 7, 200][step as usize % 3];
                reads.feed_scan(db.scan(&key(i), None, limit).expect("scan"));
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

fn assert_parity(actual: &str, expected: &str) {
    assert!(
        actual == expected,
        "the run drifted from the recorded constants; it now renders:\n{actual}"
    );
}

const CACHE: u64 = 256 << 10;

const RAW_QD1_INLINE: &str = "\
-- loaded\n\
puts=400 gets=0 deletes=39 app=504341 gc_runs=0 gc_bytes=0 segments_created=11 segments=11 entries=381 garbage=24176\n\
cache=None\n\
maint=None\n\
hpw=131 hpr=0 qd=0/0/0 clock=6550000000 reads=cbf29ce484222325\n\
-- mixed and flushed\n\
puts=1095 gets=745 deletes=333 app=1375712 gc_runs=33 gc_bytes=683094 segments_created=50 segments=17 entries=335 garbage=177053\n\
cache=None\n\
maint=None\n\
hpw=1362 hpr=9380 qd=0/0/0 clock=5073974905680 reads=e1f5d35959131afe\n\
hlog-00000027.log 33589 1b070e57a1893a0c\n\
hlog-00000029.log 40735 e93692f3466ace4a\n\
hlog-00000031.log 53600 42602fdc984c4a80\n\
hlog-00000033.log 33449 c00dc7fa5ee8d367\n\
hlog-00000036.log 36977 f014bd431cdcaddf\n\
hlog-00000037.log 45284 8aa5524bef2178c2\n\
hlog-00000039.log 33113 c4641b7e2640fa43\n\
hlog-00000040.log 32959 ffeccf1f5d3da81e\n\
hlog-00000041.log 43970 251b855885685ba6\n\
hlog-00000042.log 32861 35941044f3bbc51c\n\
hlog-00000043.log 34029 ad9c3b05766807d9\n\
hlog-00000044.log 33615 b77c96bb862e81b5\n\
hlog-00000045.log 33161 f6d1105b775f7bc8\n\
hlog-00000046.log 33616 edfc5e26259ae32a\n\
hlog-00000047.log 35795 241bc0f9e8659c6a\n\
hlog-00000048.log 43387 63ee79d965bbd8d5\n\
hlog-00000049.log 14420 8e6c17f002a71e30\n\
-- read back\n\
puts=1095 gets=1165 deletes=333 app=1375712 gc_runs=33 gc_bytes=683094 segments_created=50 segments=17 entries=335 garbage=177053\n\
cache=None\n\
maint=None\n\
hpw=1362 hpr=10395 qd=0/0/0 clock=5617156996220 reads=2ab755f23cec6a3a\n\
-- recovered and read back\n\
puts=0 gets=420 deletes=0 app=0 gc_runs=0 gc_bytes=0 entries=335 garbage=177053\n\
cache=None\n\
maint=None\n\
hpw=1362 hpr=11572 qd=0/0/0 clock=6224387995792 reads=39f5f81676c3f28e\n\
hlog-00000027.log 33589 1b070e57a1893a0c\n\
hlog-00000029.log 40735 e93692f3466ace4a\n\
hlog-00000031.log 53600 42602fdc984c4a80\n\
hlog-00000033.log 33449 c00dc7fa5ee8d367\n\
hlog-00000036.log 36977 f014bd431cdcaddf\n\
hlog-00000037.log 45284 8aa5524bef2178c2\n\
hlog-00000039.log 33113 c4641b7e2640fa43\n\
hlog-00000040.log 32959 ffeccf1f5d3da81e\n\
hlog-00000041.log 43970 251b855885685ba6\n\
hlog-00000042.log 32861 35941044f3bbc51c\n\
hlog-00000043.log 34029 ad9c3b05766807d9\n\
hlog-00000044.log 33615 b77c96bb862e81b5\n\
hlog-00000045.log 33161 f6d1105b775f7bc8\n\
hlog-00000046.log 33616 edfc5e26259ae32a\n\
hlog-00000047.log 35795 241bc0f9e8659c6a\n\
hlog-00000048.log 43387 63ee79d965bbd8d5\n\
hlog-00000049.log 14420 8e6c17f002a71e30\n\
";
const RAW_QD1_BG: &str = "\
-- loaded\n\
puts=400 gets=0 deletes=39 app=504341 gc_runs=0 gc_bytes=0 segments_created=11 segments=11 entries=381 garbage=24176\n\
cache=None\n\
maint=Some(MaintStats { jobs: 0, slices: 0, installs: 0, bytes_read: 0, bytes_written: 0, stall_ns: 0, app_bytes: 0, host_bytes: 0, live_bytes: 0, used_bytes: 0 })\n\
hpw=131 hpr=0 qd=0/0/0 clock=6550000000 reads=cbf29ce484222325\n\
-- mixed and flushed\n\
puts=1095 gets=745 deletes=333 app=1375712 gc_runs=33 gc_bytes=683094 segments_created=50 segments=17 entries=335 garbage=177053\n\
cache=None\n\
maint=Some(MaintStats { jobs: 33, slices: 33, installs: 33, bytes_read: 1463538, bytes_written: 683094, stall_ns: 0, app_bytes: 0, host_bytes: 0, live_bytes: 0, used_bytes: 0 })\n\
hpw=1362 hpr=9380 qd=0/0/0 clock=4948899360260 reads=e1f5d35959131afe\n\
hlog-00000027.log 33589 1b070e57a1893a0c\n\
hlog-00000029.log 40735 e93692f3466ace4a\n\
hlog-00000031.log 53600 42602fdc984c4a80\n\
hlog-00000033.log 33449 c00dc7fa5ee8d367\n\
hlog-00000036.log 36977 f014bd431cdcaddf\n\
hlog-00000037.log 45284 8aa5524bef2178c2\n\
hlog-00000039.log 33113 c4641b7e2640fa43\n\
hlog-00000040.log 32959 ffeccf1f5d3da81e\n\
hlog-00000041.log 43970 251b855885685ba6\n\
hlog-00000042.log 32861 35941044f3bbc51c\n\
hlog-00000043.log 34029 ad9c3b05766807d9\n\
hlog-00000044.log 33615 b77c96bb862e81b5\n\
hlog-00000045.log 33161 f6d1105b775f7bc8\n\
hlog-00000046.log 33616 edfc5e26259ae32a\n\
hlog-00000047.log 35795 241bc0f9e8659c6a\n\
hlog-00000048.log 43387 63ee79d965bbd8d5\n\
hlog-00000049.log 14420 8e6c17f002a71e30\n\
-- read back\n\
puts=1095 gets=1165 deletes=333 app=1375712 gc_runs=33 gc_bytes=683094 segments_created=50 segments=17 entries=335 garbage=177053\n\
cache=None\n\
maint=Some(MaintStats { jobs: 33, slices: 33, installs: 33, bytes_read: 1463538, bytes_written: 683094, stall_ns: 0, app_bytes: 0, host_bytes: 0, live_bytes: 0, used_bytes: 0 })\n\
hpw=1362 hpr=10395 qd=0/0/0 clock=5492081450800 reads=2ab755f23cec6a3a\n\
-- recovered and read back\n\
puts=0 gets=420 deletes=0 app=0 gc_runs=0 gc_bytes=0 entries=335 garbage=177053\n\
cache=None\n\
maint=Some(MaintStats { jobs: 0, slices: 0, installs: 0, bytes_read: 0, bytes_written: 0, stall_ns: 0, app_bytes: 0, host_bytes: 0, live_bytes: 0, used_bytes: 0 })\n\
hpw=1362 hpr=11572 qd=0/0/0 clock=6099312450372 reads=39f5f81676c3f28e\n\
hlog-00000027.log 33589 1b070e57a1893a0c\n\
hlog-00000029.log 40735 e93692f3466ace4a\n\
hlog-00000031.log 53600 42602fdc984c4a80\n\
hlog-00000033.log 33449 c00dc7fa5ee8d367\n\
hlog-00000036.log 36977 f014bd431cdcaddf\n\
hlog-00000037.log 45284 8aa5524bef2178c2\n\
hlog-00000039.log 33113 c4641b7e2640fa43\n\
hlog-00000040.log 32959 ffeccf1f5d3da81e\n\
hlog-00000041.log 43970 251b855885685ba6\n\
hlog-00000042.log 32861 35941044f3bbc51c\n\
hlog-00000043.log 34029 ad9c3b05766807d9\n\
hlog-00000044.log 33615 b77c96bb862e81b5\n\
hlog-00000045.log 33161 f6d1105b775f7bc8\n\
hlog-00000046.log 33616 edfc5e26259ae32a\n\
hlog-00000047.log 35795 241bc0f9e8659c6a\n\
hlog-00000048.log 43387 63ee79d965bbd8d5\n\
hlog-00000049.log 14420 8e6c17f002a71e30\n\
";
const RAW_QD8_INLINE: &str = "\
-- loaded\n\
puts=400 gets=0 deletes=39 app=504341 gc_runs=0 gc_bytes=0 segments_created=11 segments=11 entries=381 garbage=24176\n\
cache=None\n\
maint=None\n\
hpw=131 hpr=0 qd=0/0/0 clock=6550000000 reads=cbf29ce484222325\n\
-- mixed and flushed\n\
puts=1095 gets=745 deletes=333 app=1375712 gc_runs=33 gc_bytes=683094 segments_created=50 segments=17 entries=335 garbage=177053\n\
cache=None\n\
maint=None\n\
hpw=1362 hpr=9380 qd=6657/30393/8 clock=2039638543296 reads=e1f5d35959131afe\n\
hlog-00000027.log 33589 1b070e57a1893a0c\n\
hlog-00000029.log 40735 e93692f3466ace4a\n\
hlog-00000031.log 53600 42602fdc984c4a80\n\
hlog-00000033.log 33449 c00dc7fa5ee8d367\n\
hlog-00000036.log 36977 f014bd431cdcaddf\n\
hlog-00000037.log 45284 8aa5524bef2178c2\n\
hlog-00000039.log 33113 c4641b7e2640fa43\n\
hlog-00000040.log 32959 ffeccf1f5d3da81e\n\
hlog-00000041.log 43970 251b855885685ba6\n\
hlog-00000042.log 32861 35941044f3bbc51c\n\
hlog-00000043.log 34029 ad9c3b05766807d9\n\
hlog-00000044.log 33615 b77c96bb862e81b5\n\
hlog-00000045.log 33161 f6d1105b775f7bc8\n\
hlog-00000046.log 33616 edfc5e26259ae32a\n\
hlog-00000047.log 35795 241bc0f9e8659c6a\n\
hlog-00000048.log 43387 63ee79d965bbd8d5\n\
hlog-00000049.log 14420 8e6c17f002a71e30\n\
-- read back\n\
puts=1095 gets=1165 deletes=333 app=1375712 gc_runs=33 gc_bytes=683094 segments_created=50 segments=17 entries=335 garbage=177053\n\
cache=None\n\
maint=None\n\
hpw=1362 hpr=10399 qd=7192/32863/8 clock=2340045543028 reads=2ab755f23cec6a3a\n\
-- recovered and read back\n\
puts=0 gets=420 deletes=0 app=0 gc_runs=0 gc_bytes=0 entries=335 garbage=177053\n\
cache=None\n\
maint=None\n\
hpw=1362 hpr=11580 qd=7727/35333/8 clock=2704501451792 reads=39f5f81676c3f28e\n\
hlog-00000027.log 33589 1b070e57a1893a0c\n\
hlog-00000029.log 40735 e93692f3466ace4a\n\
hlog-00000031.log 53600 42602fdc984c4a80\n\
hlog-00000033.log 33449 c00dc7fa5ee8d367\n\
hlog-00000036.log 36977 f014bd431cdcaddf\n\
hlog-00000037.log 45284 8aa5524bef2178c2\n\
hlog-00000039.log 33113 c4641b7e2640fa43\n\
hlog-00000040.log 32959 ffeccf1f5d3da81e\n\
hlog-00000041.log 43970 251b855885685ba6\n\
hlog-00000042.log 32861 35941044f3bbc51c\n\
hlog-00000043.log 34029 ad9c3b05766807d9\n\
hlog-00000044.log 33615 b77c96bb862e81b5\n\
hlog-00000045.log 33161 f6d1105b775f7bc8\n\
hlog-00000046.log 33616 edfc5e26259ae32a\n\
hlog-00000047.log 35795 241bc0f9e8659c6a\n\
hlog-00000048.log 43387 63ee79d965bbd8d5\n\
hlog-00000049.log 14420 8e6c17f002a71e30\n\
";
const RAW_QD8_BG: &str = "\
-- loaded\n\
puts=400 gets=0 deletes=39 app=504341 gc_runs=0 gc_bytes=0 segments_created=11 segments=11 entries=381 garbage=24176\n\
cache=None\n\
maint=Some(MaintStats { jobs: 0, slices: 0, installs: 0, bytes_read: 0, bytes_written: 0, stall_ns: 0, app_bytes: 0, host_bytes: 0, live_bytes: 0, used_bytes: 0 })\n\
hpw=131 hpr=0 qd=0/0/0 clock=6550000000 reads=cbf29ce484222325\n\
-- mixed and flushed\n\
puts=1095 gets=745 deletes=333 app=1375712 gc_runs=33 gc_bytes=683094 segments_created=50 segments=17 entries=335 garbage=177053\n\
cache=None\n\
maint=Some(MaintStats { jobs: 33, slices: 33, installs: 33, bytes_read: 1463538, bytes_written: 683094, stall_ns: 0, app_bytes: 0, host_bytes: 0, live_bytes: 0, used_bytes: 0 })\n\
hpw=1362 hpr=9380 qd=6657/30393/8 clock=1914562997876 reads=e1f5d35959131afe\n\
hlog-00000027.log 33589 1b070e57a1893a0c\n\
hlog-00000029.log 40735 e93692f3466ace4a\n\
hlog-00000031.log 53600 42602fdc984c4a80\n\
hlog-00000033.log 33449 c00dc7fa5ee8d367\n\
hlog-00000036.log 36977 f014bd431cdcaddf\n\
hlog-00000037.log 45284 8aa5524bef2178c2\n\
hlog-00000039.log 33113 c4641b7e2640fa43\n\
hlog-00000040.log 32959 ffeccf1f5d3da81e\n\
hlog-00000041.log 43970 251b855885685ba6\n\
hlog-00000042.log 32861 35941044f3bbc51c\n\
hlog-00000043.log 34029 ad9c3b05766807d9\n\
hlog-00000044.log 33615 b77c96bb862e81b5\n\
hlog-00000045.log 33161 f6d1105b775f7bc8\n\
hlog-00000046.log 33616 edfc5e26259ae32a\n\
hlog-00000047.log 35795 241bc0f9e8659c6a\n\
hlog-00000048.log 43387 63ee79d965bbd8d5\n\
hlog-00000049.log 14420 8e6c17f002a71e30\n\
-- read back\n\
puts=1095 gets=1165 deletes=333 app=1375712 gc_runs=33 gc_bytes=683094 segments_created=50 segments=17 entries=335 garbage=177053\n\
cache=None\n\
maint=Some(MaintStats { jobs: 33, slices: 33, installs: 33, bytes_read: 1463538, bytes_written: 683094, stall_ns: 0, app_bytes: 0, host_bytes: 0, live_bytes: 0, used_bytes: 0 })\n\
hpw=1362 hpr=10399 qd=7192/32863/8 clock=2214969997608 reads=2ab755f23cec6a3a\n\
-- recovered and read back\n\
puts=0 gets=420 deletes=0 app=0 gc_runs=0 gc_bytes=0 entries=335 garbage=177053\n\
cache=None\n\
maint=Some(MaintStats { jobs: 0, slices: 0, installs: 0, bytes_read: 0, bytes_written: 0, stall_ns: 0, app_bytes: 0, host_bytes: 0, live_bytes: 0, used_bytes: 0 })\n\
hpw=1362 hpr=11580 qd=7727/35333/8 clock=2579425906372 reads=39f5f81676c3f28e\n\
hlog-00000027.log 33589 1b070e57a1893a0c\n\
hlog-00000029.log 40735 e93692f3466ace4a\n\
hlog-00000031.log 53600 42602fdc984c4a80\n\
hlog-00000033.log 33449 c00dc7fa5ee8d367\n\
hlog-00000036.log 36977 f014bd431cdcaddf\n\
hlog-00000037.log 45284 8aa5524bef2178c2\n\
hlog-00000039.log 33113 c4641b7e2640fa43\n\
hlog-00000040.log 32959 ffeccf1f5d3da81e\n\
hlog-00000041.log 43970 251b855885685ba6\n\
hlog-00000042.log 32861 35941044f3bbc51c\n\
hlog-00000043.log 34029 ad9c3b05766807d9\n\
hlog-00000044.log 33615 b77c96bb862e81b5\n\
hlog-00000045.log 33161 f6d1105b775f7bc8\n\
hlog-00000046.log 33616 edfc5e26259ae32a\n\
hlog-00000047.log 35795 241bc0f9e8659c6a\n\
hlog-00000048.log 43387 63ee79d965bbd8d5\n\
hlog-00000049.log 14420 8e6c17f002a71e30\n\
";
const LZ_QD1_INLINE: &str = "\
-- loaded\n\
puts=400 gets=0 deletes=39 app=504341 gc_runs=0 gc_bytes=0 segments_created=11 segments=11 entries=381 garbage=24176\n\
cache=None\n\
maint=None\n\
hpw=30 hpr=0 qd=0/0/0 clock=1601022488 reads=cbf29ce484222325\n\
-- mixed and flushed\n\
puts=1095 gets=745 deletes=333 app=1375712 gc_runs=33 gc_bytes=683094 segments_created=51 segments=18 entries=335 garbage=177053\n\
cache=None\n\
maint=None\n\
hpw=124 hpr=15602 qd=0/0/0 clock=3648920740719 reads=e1f5d35959131afe\n\
hlog-00000027.log 6692 2d2a1ca19990351d\n\
hlog-00000029.log 8163 601cf8242c12c09f\n\
hlog-00000031.log 10681 4b134486f929e65e\n\
hlog-00000033.log 6697 a9fe0a0b2ed79a78\n\
hlog-00000036.log 7426 0f23c576bc54cd11\n\
hlog-00000037.log 9052 1f2cd303dcf62109\n\
hlog-00000039.log 6623 affadd5ab5f735fd\n\
hlog-00000040.log 6613 818488aeb7eefc5d\n\
hlog-00000041.log 8814 3e30d426453ef6ba\n\
hlog-00000042.log 6509 e36aa4d54aad9ac4\n\
hlog-00000043.log 6764 b82a3bcd0a65b04f\n\
hlog-00000044.log 6754 d98428ac2de20181\n\
hlog-00000045.log 6602 d1fbe1ff52a7bb3d\n\
hlog-00000046.log 6697 3574e04e35fa3f43\n\
hlog-00000047.log 7141 e18082f2d5b77657\n\
hlog-00000048.log 8731 a03f37c221ce959f\n\
hlog-00000049.log 2910 0a591f7d6a745dfa\n\
-- read back\n\
puts=1095 gets=1165 deletes=333 app=1375712 gc_runs=33 gc_bytes=683094 segments_created=51 segments=18 entries=335 garbage=177053\n\
cache=None\n\
maint=None\n\
hpw=124 hpr=17389 qd=0/0/0 clock=4128890319619 reads=2ab755f23cec6a3a\n\
-- recovered and read back\n\
puts=0 gets=420 deletes=0 app=0 gc_runs=0 gc_bytes=0 entries=335 garbage=177053\n\
cache=None\n\
maint=None\n\
hpw=124 hpr=19213 qd=0/0/0 clock=4619072660325 reads=39f5f81676c3f28e\n\
hlog-00000027.log 6692 2d2a1ca19990351d\n\
hlog-00000029.log 8163 601cf8242c12c09f\n\
hlog-00000031.log 10681 4b134486f929e65e\n\
hlog-00000033.log 6697 a9fe0a0b2ed79a78\n\
hlog-00000036.log 7426 0f23c576bc54cd11\n\
hlog-00000037.log 9052 1f2cd303dcf62109\n\
hlog-00000039.log 6623 affadd5ab5f735fd\n\
hlog-00000040.log 6613 818488aeb7eefc5d\n\
hlog-00000041.log 8814 3e30d426453ef6ba\n\
hlog-00000042.log 6509 e36aa4d54aad9ac4\n\
hlog-00000043.log 6764 b82a3bcd0a65b04f\n\
hlog-00000044.log 6754 d98428ac2de20181\n\
hlog-00000045.log 6602 d1fbe1ff52a7bb3d\n\
hlog-00000046.log 6697 3574e04e35fa3f43\n\
hlog-00000047.log 7141 e18082f2d5b77657\n\
hlog-00000048.log 8731 a03f37c221ce959f\n\
hlog-00000049.log 2910 0a591f7d6a745dfa\n\
";
const LZ_QD1_BG: &str = "\
-- loaded\n\
puts=400 gets=0 deletes=39 app=504341 gc_runs=0 gc_bytes=0 segments_created=11 segments=11 entries=381 garbage=24176\n\
cache=None\n\
maint=Some(MaintStats { jobs: 0, slices: 0, installs: 0, bytes_read: 0, bytes_written: 0, stall_ns: 0, app_bytes: 0, host_bytes: 0, live_bytes: 0, used_bytes: 0 })\n\
hpw=30 hpr=0 qd=0/0/0 clock=1601022488 reads=cbf29ce484222325\n\
-- mixed and flushed\n\
puts=1095 gets=745 deletes=333 app=1375712 gc_runs=33 gc_bytes=683094 segments_created=51 segments=18 entries=335 garbage=177053\n\
cache=None\n\
maint=Some(MaintStats { jobs: 33, slices: 33, installs: 33, bytes_read: 292778, bytes_written: 683094, stall_ns: 0, app_bytes: 0, host_bytes: 0, live_bytes: 0, used_bytes: 0 })\n\
hpw=124 hpr=15587 qd=0/0/0 clock=3625645353649 reads=e1f5d35959131afe\n\
hlog-00000027.log 6692 2d2a1ca19990351d\n\
hlog-00000029.log 8163 601cf8242c12c09f\n\
hlog-00000031.log 10681 4b134486f929e65e\n\
hlog-00000033.log 6697 a9fe0a0b2ed79a78\n\
hlog-00000036.log 7426 0f23c576bc54cd11\n\
hlog-00000037.log 9052 1f2cd303dcf62109\n\
hlog-00000039.log 6623 affadd5ab5f735fd\n\
hlog-00000040.log 6613 818488aeb7eefc5d\n\
hlog-00000041.log 8814 3e30d426453ef6ba\n\
hlog-00000042.log 6509 e36aa4d54aad9ac4\n\
hlog-00000043.log 6764 b82a3bcd0a65b04f\n\
hlog-00000044.log 6754 d98428ac2de20181\n\
hlog-00000045.log 6602 d1fbe1ff52a7bb3d\n\
hlog-00000046.log 6697 3574e04e35fa3f43\n\
hlog-00000047.log 7141 e18082f2d5b77657\n\
hlog-00000048.log 8731 a03f37c221ce959f\n\
hlog-00000049.log 2910 0a591f7d6a745dfa\n\
-- read back\n\
puts=1095 gets=1165 deletes=333 app=1375712 gc_runs=33 gc_bytes=683094 segments_created=51 segments=18 entries=335 garbage=177053\n\
cache=None\n\
maint=Some(MaintStats { jobs: 33, slices: 33, installs: 33, bytes_read: 292778, bytes_written: 683094, stall_ns: 0, app_bytes: 0, host_bytes: 0, live_bytes: 0, used_bytes: 0 })\n\
hpw=124 hpr=17374 qd=0/0/0 clock=4105614932549 reads=2ab755f23cec6a3a\n\
-- recovered and read back\n\
puts=0 gets=420 deletes=0 app=0 gc_runs=0 gc_bytes=0 entries=335 garbage=177053\n\
cache=None\n\
maint=Some(MaintStats { jobs: 0, slices: 0, installs: 0, bytes_read: 0, bytes_written: 0, stall_ns: 0, app_bytes: 0, host_bytes: 0, live_bytes: 0, used_bytes: 0 })\n\
hpw=124 hpr=19198 qd=0/0/0 clock=4595797273255 reads=39f5f81676c3f28e\n\
hlog-00000027.log 6692 2d2a1ca19990351d\n\
hlog-00000029.log 8163 601cf8242c12c09f\n\
hlog-00000031.log 10681 4b134486f929e65e\n\
hlog-00000033.log 6697 a9fe0a0b2ed79a78\n\
hlog-00000036.log 7426 0f23c576bc54cd11\n\
hlog-00000037.log 9052 1f2cd303dcf62109\n\
hlog-00000039.log 6623 affadd5ab5f735fd\n\
hlog-00000040.log 6613 818488aeb7eefc5d\n\
hlog-00000041.log 8814 3e30d426453ef6ba\n\
hlog-00000042.log 6509 e36aa4d54aad9ac4\n\
hlog-00000043.log 6764 b82a3bcd0a65b04f\n\
hlog-00000044.log 6754 d98428ac2de20181\n\
hlog-00000045.log 6602 d1fbe1ff52a7bb3d\n\
hlog-00000046.log 6697 3574e04e35fa3f43\n\
hlog-00000047.log 7141 e18082f2d5b77657\n\
hlog-00000048.log 8731 a03f37c221ce959f\n\
hlog-00000049.log 2910 0a591f7d6a745dfa\n\
";
const LZ_QD8_INLINE: &str = "\
-- loaded\n\
puts=400 gets=0 deletes=39 app=504341 gc_runs=0 gc_bytes=0 segments_created=11 segments=11 entries=381 garbage=24176\n\
cache=None\n\
maint=None\n\
hpw=30 hpr=0 qd=0/0/0 clock=1601022488 reads=cbf29ce484222325\n\
-- mixed and flushed\n\
puts=1095 gets=745 deletes=333 app=1375712 gc_runs=33 gc_bytes=683094 segments_created=51 segments=18 entries=335 garbage=177053\n\
cache=None\n\
maint=None\n\
hpw=124 hpr=15602 qd=0/0/0 clock=3648920740719 reads=e1f5d35959131afe\n\
hlog-00000027.log 6692 2d2a1ca19990351d\n\
hlog-00000029.log 8163 601cf8242c12c09f\n\
hlog-00000031.log 10681 4b134486f929e65e\n\
hlog-00000033.log 6697 a9fe0a0b2ed79a78\n\
hlog-00000036.log 7426 0f23c576bc54cd11\n\
hlog-00000037.log 9052 1f2cd303dcf62109\n\
hlog-00000039.log 6623 affadd5ab5f735fd\n\
hlog-00000040.log 6613 818488aeb7eefc5d\n\
hlog-00000041.log 8814 3e30d426453ef6ba\n\
hlog-00000042.log 6509 e36aa4d54aad9ac4\n\
hlog-00000043.log 6764 b82a3bcd0a65b04f\n\
hlog-00000044.log 6754 d98428ac2de20181\n\
hlog-00000045.log 6602 d1fbe1ff52a7bb3d\n\
hlog-00000046.log 6697 3574e04e35fa3f43\n\
hlog-00000047.log 7141 e18082f2d5b77657\n\
hlog-00000048.log 8731 a03f37c221ce959f\n\
hlog-00000049.log 2910 0a591f7d6a745dfa\n\
-- read back\n\
puts=1095 gets=1165 deletes=333 app=1375712 gc_runs=33 gc_bytes=683094 segments_created=51 segments=18 entries=335 garbage=177053\n\
cache=None\n\
maint=None\n\
hpw=124 hpr=17389 qd=0/0/0 clock=4128890319619 reads=2ab755f23cec6a3a\n\
-- recovered and read back\n\
puts=0 gets=420 deletes=0 app=0 gc_runs=0 gc_bytes=0 entries=335 garbage=177053\n\
cache=None\n\
maint=None\n\
hpw=124 hpr=19213 qd=0/0/0 clock=4619072660325 reads=39f5f81676c3f28e\n\
hlog-00000027.log 6692 2d2a1ca19990351d\n\
hlog-00000029.log 8163 601cf8242c12c09f\n\
hlog-00000031.log 10681 4b134486f929e65e\n\
hlog-00000033.log 6697 a9fe0a0b2ed79a78\n\
hlog-00000036.log 7426 0f23c576bc54cd11\n\
hlog-00000037.log 9052 1f2cd303dcf62109\n\
hlog-00000039.log 6623 affadd5ab5f735fd\n\
hlog-00000040.log 6613 818488aeb7eefc5d\n\
hlog-00000041.log 8814 3e30d426453ef6ba\n\
hlog-00000042.log 6509 e36aa4d54aad9ac4\n\
hlog-00000043.log 6764 b82a3bcd0a65b04f\n\
hlog-00000044.log 6754 d98428ac2de20181\n\
hlog-00000045.log 6602 d1fbe1ff52a7bb3d\n\
hlog-00000046.log 6697 3574e04e35fa3f43\n\
hlog-00000047.log 7141 e18082f2d5b77657\n\
hlog-00000048.log 8731 a03f37c221ce959f\n\
hlog-00000049.log 2910 0a591f7d6a745dfa\n\
";
const LZ_QD8_BG: &str = "\
-- loaded\n\
puts=400 gets=0 deletes=39 app=504341 gc_runs=0 gc_bytes=0 segments_created=11 segments=11 entries=381 garbage=24176\n\
cache=None\n\
maint=Some(MaintStats { jobs: 0, slices: 0, installs: 0, bytes_read: 0, bytes_written: 0, stall_ns: 0, app_bytes: 0, host_bytes: 0, live_bytes: 0, used_bytes: 0 })\n\
hpw=30 hpr=0 qd=0/0/0 clock=1601022488 reads=cbf29ce484222325\n\
-- mixed and flushed\n\
puts=1095 gets=745 deletes=333 app=1375712 gc_runs=33 gc_bytes=683094 segments_created=51 segments=18 entries=335 garbage=177053\n\
cache=None\n\
maint=Some(MaintStats { jobs: 33, slices: 33, installs: 33, bytes_read: 292778, bytes_written: 683094, stall_ns: 0, app_bytes: 0, host_bytes: 0, live_bytes: 0, used_bytes: 0 })\n\
hpw=124 hpr=15587 qd=0/0/0 clock=3625645353649 reads=e1f5d35959131afe\n\
hlog-00000027.log 6692 2d2a1ca19990351d\n\
hlog-00000029.log 8163 601cf8242c12c09f\n\
hlog-00000031.log 10681 4b134486f929e65e\n\
hlog-00000033.log 6697 a9fe0a0b2ed79a78\n\
hlog-00000036.log 7426 0f23c576bc54cd11\n\
hlog-00000037.log 9052 1f2cd303dcf62109\n\
hlog-00000039.log 6623 affadd5ab5f735fd\n\
hlog-00000040.log 6613 818488aeb7eefc5d\n\
hlog-00000041.log 8814 3e30d426453ef6ba\n\
hlog-00000042.log 6509 e36aa4d54aad9ac4\n\
hlog-00000043.log 6764 b82a3bcd0a65b04f\n\
hlog-00000044.log 6754 d98428ac2de20181\n\
hlog-00000045.log 6602 d1fbe1ff52a7bb3d\n\
hlog-00000046.log 6697 3574e04e35fa3f43\n\
hlog-00000047.log 7141 e18082f2d5b77657\n\
hlog-00000048.log 8731 a03f37c221ce959f\n\
hlog-00000049.log 2910 0a591f7d6a745dfa\n\
-- read back\n\
puts=1095 gets=1165 deletes=333 app=1375712 gc_runs=33 gc_bytes=683094 segments_created=51 segments=18 entries=335 garbage=177053\n\
cache=None\n\
maint=Some(MaintStats { jobs: 33, slices: 33, installs: 33, bytes_read: 292778, bytes_written: 683094, stall_ns: 0, app_bytes: 0, host_bytes: 0, live_bytes: 0, used_bytes: 0 })\n\
hpw=124 hpr=17374 qd=0/0/0 clock=4105614932549 reads=2ab755f23cec6a3a\n\
-- recovered and read back\n\
puts=0 gets=420 deletes=0 app=0 gc_runs=0 gc_bytes=0 entries=335 garbage=177053\n\
cache=None\n\
maint=Some(MaintStats { jobs: 0, slices: 0, installs: 0, bytes_read: 0, bytes_written: 0, stall_ns: 0, app_bytes: 0, host_bytes: 0, live_bytes: 0, used_bytes: 0 })\n\
hpw=124 hpr=19198 qd=0/0/0 clock=4595797273255 reads=39f5f81676c3f28e\n\
hlog-00000027.log 6692 2d2a1ca19990351d\n\
hlog-00000029.log 8163 601cf8242c12c09f\n\
hlog-00000031.log 10681 4b134486f929e65e\n\
hlog-00000033.log 6697 a9fe0a0b2ed79a78\n\
hlog-00000036.log 7426 0f23c576bc54cd11\n\
hlog-00000037.log 9052 1f2cd303dcf62109\n\
hlog-00000039.log 6623 affadd5ab5f735fd\n\
hlog-00000040.log 6613 818488aeb7eefc5d\n\
hlog-00000041.log 8814 3e30d426453ef6ba\n\
hlog-00000042.log 6509 e36aa4d54aad9ac4\n\
hlog-00000043.log 6764 b82a3bcd0a65b04f\n\
hlog-00000044.log 6754 d98428ac2de20181\n\
hlog-00000045.log 6602 d1fbe1ff52a7bb3d\n\
hlog-00000046.log 6697 3574e04e35fa3f43\n\
hlog-00000047.log 7141 e18082f2d5b77657\n\
hlog-00000048.log 8731 a03f37c221ce959f\n\
hlog-00000049.log 2910 0a591f7d6a745dfa\n\
";
const CACHED_RAW_QD1_INLINE: &str = "\
-- loaded\n\
puts=400 gets=0 deletes=39 app=504341 gc_runs=0 gc_bytes=0 segments_created=11 segments=11 entries=381 garbage=24176\n\
cache=Some(CacheStats { hits: 0, misses: 0, admissions: 0, rejections: 0, evictions: 0, bytes_saved: 0 })\n\
maint=None\n\
hpw=131 hpr=0 qd=0/0/0 clock=6550000000 reads=cbf29ce484222325\n\
-- mixed and flushed\n\
puts=1095 gets=745 deletes=333 app=1375712 gc_runs=33 gc_bytes=683094 segments_created=50 segments=17 entries=335 garbage=177053\n\
cache=Some(CacheStats { hits: 2720, misses: 3630, admissions: 949, rejections: 2681, evictions: 710, bytes_saved: 3124616 })\n\
maint=None\n\
hpw=1362 hpr=5853 qd=0/0/0 clock=3262119361508 reads=e1f5d35959131afe\n\
hlog-00000027.log 33589 1b070e57a1893a0c\n\
hlog-00000029.log 40735 e93692f3466ace4a\n\
hlog-00000031.log 53600 42602fdc984c4a80\n\
hlog-00000033.log 33449 c00dc7fa5ee8d367\n\
hlog-00000036.log 36977 f014bd431cdcaddf\n\
hlog-00000037.log 45284 8aa5524bef2178c2\n\
hlog-00000039.log 33113 c4641b7e2640fa43\n\
hlog-00000040.log 32959 ffeccf1f5d3da81e\n\
hlog-00000041.log 43970 251b855885685ba6\n\
hlog-00000042.log 32861 35941044f3bbc51c\n\
hlog-00000043.log 34029 ad9c3b05766807d9\n\
hlog-00000044.log 33615 b77c96bb862e81b5\n\
hlog-00000045.log 33161 f6d1105b775f7bc8\n\
hlog-00000046.log 33616 edfc5e26259ae32a\n\
hlog-00000047.log 35795 241bc0f9e8659c6a\n\
hlog-00000048.log 43387 63ee79d965bbd8d5\n\
hlog-00000049.log 14420 8e6c17f002a71e30\n\
-- read back\n\
puts=1095 gets=1165 deletes=333 app=1375712 gc_runs=33 gc_bytes=683094 segments_created=50 segments=17 entries=335 garbage=177053\n\
cache=Some(CacheStats { hits: 2981, misses: 4167, admissions: 1069, rejections: 3098, evictions: 832, bytes_saved: 3400665 })\n\
maint=None\n\
hpw=1362 hpr=6538 qd=0/0/0 clock=3629903452168 reads=2ab755f23cec6a3a\n\
-- recovered and read back\n\
puts=0 gets=420 deletes=0 app=0 gc_runs=0 gc_bytes=0 entries=335 garbage=177053\n\
cache=Some(CacheStats { hits: 292, misses: 506, admissions: 312, rejections: 194, evictions: 97, bytes_saved: 351709 })\n\
maint=None\n\
hpw=1362 hpr=7354 qd=0/0/0 clock=4041224179144 reads=39f5f81676c3f28e\n\
hlog-00000027.log 33589 1b070e57a1893a0c\n\
hlog-00000029.log 40735 e93692f3466ace4a\n\
hlog-00000031.log 53600 42602fdc984c4a80\n\
hlog-00000033.log 33449 c00dc7fa5ee8d367\n\
hlog-00000036.log 36977 f014bd431cdcaddf\n\
hlog-00000037.log 45284 8aa5524bef2178c2\n\
hlog-00000039.log 33113 c4641b7e2640fa43\n\
hlog-00000040.log 32959 ffeccf1f5d3da81e\n\
hlog-00000041.log 43970 251b855885685ba6\n\
hlog-00000042.log 32861 35941044f3bbc51c\n\
hlog-00000043.log 34029 ad9c3b05766807d9\n\
hlog-00000044.log 33615 b77c96bb862e81b5\n\
hlog-00000045.log 33161 f6d1105b775f7bc8\n\
hlog-00000046.log 33616 edfc5e26259ae32a\n\
hlog-00000047.log 35795 241bc0f9e8659c6a\n\
hlog-00000048.log 43387 63ee79d965bbd8d5\n\
hlog-00000049.log 14420 8e6c17f002a71e30\n\
";
const CACHED_RAW_QD1_BG: &str = "\
-- loaded\n\
puts=400 gets=0 deletes=39 app=504341 gc_runs=0 gc_bytes=0 segments_created=11 segments=11 entries=381 garbage=24176\n\
cache=Some(CacheStats { hits: 0, misses: 0, admissions: 0, rejections: 0, evictions: 0, bytes_saved: 0 })\n\
maint=Some(MaintStats { jobs: 0, slices: 0, installs: 0, bytes_read: 0, bytes_written: 0, stall_ns: 0, app_bytes: 0, host_bytes: 0, live_bytes: 0, used_bytes: 0 })\n\
hpw=131 hpr=0 qd=0/0/0 clock=6550000000 reads=cbf29ce484222325\n\
-- mixed and flushed\n\
puts=1095 gets=745 deletes=333 app=1375712 gc_runs=33 gc_bytes=683094 segments_created=50 segments=17 entries=335 garbage=177053\n\
cache=Some(CacheStats { hits: 2720, misses: 3630, admissions: 949, rejections: 2681, evictions: 710, bytes_saved: 3124616 })\n\
maint=Some(MaintStats { jobs: 33, slices: 33, installs: 33, bytes_read: 1463538, bytes_written: 683094, stall_ns: 0, app_bytes: 0, host_bytes: 0, live_bytes: 0, used_bytes: 0 })\n\
hpw=1362 hpr=5853 qd=0/0/0 clock=3137043816088 reads=e1f5d35959131afe\n\
hlog-00000027.log 33589 1b070e57a1893a0c\n\
hlog-00000029.log 40735 e93692f3466ace4a\n\
hlog-00000031.log 53600 42602fdc984c4a80\n\
hlog-00000033.log 33449 c00dc7fa5ee8d367\n\
hlog-00000036.log 36977 f014bd431cdcaddf\n\
hlog-00000037.log 45284 8aa5524bef2178c2\n\
hlog-00000039.log 33113 c4641b7e2640fa43\n\
hlog-00000040.log 32959 ffeccf1f5d3da81e\n\
hlog-00000041.log 43970 251b855885685ba6\n\
hlog-00000042.log 32861 35941044f3bbc51c\n\
hlog-00000043.log 34029 ad9c3b05766807d9\n\
hlog-00000044.log 33615 b77c96bb862e81b5\n\
hlog-00000045.log 33161 f6d1105b775f7bc8\n\
hlog-00000046.log 33616 edfc5e26259ae32a\n\
hlog-00000047.log 35795 241bc0f9e8659c6a\n\
hlog-00000048.log 43387 63ee79d965bbd8d5\n\
hlog-00000049.log 14420 8e6c17f002a71e30\n\
-- read back\n\
puts=1095 gets=1165 deletes=333 app=1375712 gc_runs=33 gc_bytes=683094 segments_created=50 segments=17 entries=335 garbage=177053\n\
cache=Some(CacheStats { hits: 2981, misses: 4167, admissions: 1069, rejections: 3098, evictions: 832, bytes_saved: 3400665 })\n\
maint=Some(MaintStats { jobs: 33, slices: 33, installs: 33, bytes_read: 1463538, bytes_written: 683094, stall_ns: 0, app_bytes: 0, host_bytes: 0, live_bytes: 0, used_bytes: 0 })\n\
hpw=1362 hpr=6538 qd=0/0/0 clock=3504827906748 reads=2ab755f23cec6a3a\n\
-- recovered and read back\n\
puts=0 gets=420 deletes=0 app=0 gc_runs=0 gc_bytes=0 entries=335 garbage=177053\n\
cache=Some(CacheStats { hits: 292, misses: 506, admissions: 312, rejections: 194, evictions: 97, bytes_saved: 351709 })\n\
maint=Some(MaintStats { jobs: 0, slices: 0, installs: 0, bytes_read: 0, bytes_written: 0, stall_ns: 0, app_bytes: 0, host_bytes: 0, live_bytes: 0, used_bytes: 0 })\n\
hpw=1362 hpr=7354 qd=0/0/0 clock=3916148633724 reads=39f5f81676c3f28e\n\
hlog-00000027.log 33589 1b070e57a1893a0c\n\
hlog-00000029.log 40735 e93692f3466ace4a\n\
hlog-00000031.log 53600 42602fdc984c4a80\n\
hlog-00000033.log 33449 c00dc7fa5ee8d367\n\
hlog-00000036.log 36977 f014bd431cdcaddf\n\
hlog-00000037.log 45284 8aa5524bef2178c2\n\
hlog-00000039.log 33113 c4641b7e2640fa43\n\
hlog-00000040.log 32959 ffeccf1f5d3da81e\n\
hlog-00000041.log 43970 251b855885685ba6\n\
hlog-00000042.log 32861 35941044f3bbc51c\n\
hlog-00000043.log 34029 ad9c3b05766807d9\n\
hlog-00000044.log 33615 b77c96bb862e81b5\n\
hlog-00000045.log 33161 f6d1105b775f7bc8\n\
hlog-00000046.log 33616 edfc5e26259ae32a\n\
hlog-00000047.log 35795 241bc0f9e8659c6a\n\
hlog-00000048.log 43387 63ee79d965bbd8d5\n\
hlog-00000049.log 14420 8e6c17f002a71e30\n\
";
const CACHED_RAW_QD8_INLINE: &str = "\
-- loaded\n\
puts=400 gets=0 deletes=39 app=504341 gc_runs=0 gc_bytes=0 segments_created=11 segments=11 entries=381 garbage=24176\n\
cache=Some(CacheStats { hits: 0, misses: 0, admissions: 0, rejections: 0, evictions: 0, bytes_saved: 0 })\n\
maint=None\n\
hpw=131 hpr=0 qd=0/0/0 clock=6550000000 reads=cbf29ce484222325\n\
-- mixed and flushed\n\
puts=1095 gets=745 deletes=333 app=1375712 gc_runs=33 gc_bytes=683094 segments_created=50 segments=17 entries=335 garbage=177053\n\
cache=Some(CacheStats { hits: 2736, misses: 3614, admissions: 911, rejections: 2703, evictions: 675, bytes_saved: 3093377 })\n\
maint=None\n\
hpw=1362 hpr=5910 qd=3725/13177/8 clock=1654858543536 reads=e1f5d35959131afe\n\
hlog-00000027.log 33589 1b070e57a1893a0c\n\
hlog-00000029.log 40735 e93692f3466ace4a\n\
hlog-00000031.log 53600 42602fdc984c4a80\n\
hlog-00000033.log 33449 c00dc7fa5ee8d367\n\
hlog-00000036.log 36977 f014bd431cdcaddf\n\
hlog-00000037.log 45284 8aa5524bef2178c2\n\
hlog-00000039.log 33113 c4641b7e2640fa43\n\
hlog-00000040.log 32959 ffeccf1f5d3da81e\n\
hlog-00000041.log 43970 251b855885685ba6\n\
hlog-00000042.log 32861 35941044f3bbc51c\n\
hlog-00000043.log 34029 ad9c3b05766807d9\n\
hlog-00000044.log 33615 b77c96bb862e81b5\n\
hlog-00000045.log 33161 f6d1105b775f7bc8\n\
hlog-00000046.log 33616 edfc5e26259ae32a\n\
hlog-00000047.log 35795 241bc0f9e8659c6a\n\
hlog-00000048.log 43387 63ee79d965bbd8d5\n\
hlog-00000049.log 14420 8e6c17f002a71e30\n\
-- read back\n\
puts=1095 gets=1165 deletes=333 app=1375712 gc_runs=33 gc_bytes=683094 segments_created=50 segments=17 entries=335 garbage=177053\n\
cache=Some(CacheStats { hits: 3028, misses: 4123, admissions: 1025, rejections: 3098, evictions: 794, bytes_saved: 3419375 })\n\
maint=None\n\
hpw=1362 hpr=6570 qd=4056/14408/8 clock=1856952088772 reads=2ab755f23cec6a3a\n\
-- recovered and read back\n\
puts=0 gets=420 deletes=0 app=0 gc_runs=0 gc_bytes=0 entries=335 garbage=177053\n\
cache=Some(CacheStats { hits: 295, misses: 506, admissions: 312, rejections: 194, evictions: 97, bytes_saved: 357486 })\n\
maint=None\n\
hpw=1362 hpr=7386 qd=4255/15175/8 clock=2182308906680 reads=39f5f81676c3f28e\n\
hlog-00000027.log 33589 1b070e57a1893a0c\n\
hlog-00000029.log 40735 e93692f3466ace4a\n\
hlog-00000031.log 53600 42602fdc984c4a80\n\
hlog-00000033.log 33449 c00dc7fa5ee8d367\n\
hlog-00000036.log 36977 f014bd431cdcaddf\n\
hlog-00000037.log 45284 8aa5524bef2178c2\n\
hlog-00000039.log 33113 c4641b7e2640fa43\n\
hlog-00000040.log 32959 ffeccf1f5d3da81e\n\
hlog-00000041.log 43970 251b855885685ba6\n\
hlog-00000042.log 32861 35941044f3bbc51c\n\
hlog-00000043.log 34029 ad9c3b05766807d9\n\
hlog-00000044.log 33615 b77c96bb862e81b5\n\
hlog-00000045.log 33161 f6d1105b775f7bc8\n\
hlog-00000046.log 33616 edfc5e26259ae32a\n\
hlog-00000047.log 35795 241bc0f9e8659c6a\n\
hlog-00000048.log 43387 63ee79d965bbd8d5\n\
hlog-00000049.log 14420 8e6c17f002a71e30\n\
";
const CACHED_RAW_QD8_BG: &str = "\
-- loaded\n\
puts=400 gets=0 deletes=39 app=504341 gc_runs=0 gc_bytes=0 segments_created=11 segments=11 entries=381 garbage=24176\n\
cache=Some(CacheStats { hits: 0, misses: 0, admissions: 0, rejections: 0, evictions: 0, bytes_saved: 0 })\n\
maint=Some(MaintStats { jobs: 0, slices: 0, installs: 0, bytes_read: 0, bytes_written: 0, stall_ns: 0, app_bytes: 0, host_bytes: 0, live_bytes: 0, used_bytes: 0 })\n\
hpw=131 hpr=0 qd=0/0/0 clock=6550000000 reads=cbf29ce484222325\n\
-- mixed and flushed\n\
puts=1095 gets=745 deletes=333 app=1375712 gc_runs=33 gc_bytes=683094 segments_created=50 segments=17 entries=335 garbage=177053\n\
cache=Some(CacheStats { hits: 2736, misses: 3614, admissions: 911, rejections: 2703, evictions: 675, bytes_saved: 3093377 })\n\
maint=Some(MaintStats { jobs: 33, slices: 33, installs: 33, bytes_read: 1463538, bytes_written: 683094, stall_ns: 0, app_bytes: 0, host_bytes: 0, live_bytes: 0, used_bytes: 0 })\n\
hpw=1362 hpr=5910 qd=3725/13177/8 clock=1529782998116 reads=e1f5d35959131afe\n\
hlog-00000027.log 33589 1b070e57a1893a0c\n\
hlog-00000029.log 40735 e93692f3466ace4a\n\
hlog-00000031.log 53600 42602fdc984c4a80\n\
hlog-00000033.log 33449 c00dc7fa5ee8d367\n\
hlog-00000036.log 36977 f014bd431cdcaddf\n\
hlog-00000037.log 45284 8aa5524bef2178c2\n\
hlog-00000039.log 33113 c4641b7e2640fa43\n\
hlog-00000040.log 32959 ffeccf1f5d3da81e\n\
hlog-00000041.log 43970 251b855885685ba6\n\
hlog-00000042.log 32861 35941044f3bbc51c\n\
hlog-00000043.log 34029 ad9c3b05766807d9\n\
hlog-00000044.log 33615 b77c96bb862e81b5\n\
hlog-00000045.log 33161 f6d1105b775f7bc8\n\
hlog-00000046.log 33616 edfc5e26259ae32a\n\
hlog-00000047.log 35795 241bc0f9e8659c6a\n\
hlog-00000048.log 43387 63ee79d965bbd8d5\n\
hlog-00000049.log 14420 8e6c17f002a71e30\n\
-- read back\n\
puts=1095 gets=1165 deletes=333 app=1375712 gc_runs=33 gc_bytes=683094 segments_created=50 segments=17 entries=335 garbage=177053\n\
cache=Some(CacheStats { hits: 3028, misses: 4123, admissions: 1025, rejections: 3098, evictions: 794, bytes_saved: 3419375 })\n\
maint=Some(MaintStats { jobs: 33, slices: 33, installs: 33, bytes_read: 1463538, bytes_written: 683094, stall_ns: 0, app_bytes: 0, host_bytes: 0, live_bytes: 0, used_bytes: 0 })\n\
hpw=1362 hpr=6570 qd=4056/14408/8 clock=1731876543352 reads=2ab755f23cec6a3a\n\
-- recovered and read back\n\
puts=0 gets=420 deletes=0 app=0 gc_runs=0 gc_bytes=0 entries=335 garbage=177053\n\
cache=Some(CacheStats { hits: 295, misses: 506, admissions: 312, rejections: 194, evictions: 97, bytes_saved: 357486 })\n\
maint=Some(MaintStats { jobs: 0, slices: 0, installs: 0, bytes_read: 0, bytes_written: 0, stall_ns: 0, app_bytes: 0, host_bytes: 0, live_bytes: 0, used_bytes: 0 })\n\
hpw=1362 hpr=7386 qd=4255/15175/8 clock=2057233361260 reads=39f5f81676c3f28e\n\
hlog-00000027.log 33589 1b070e57a1893a0c\n\
hlog-00000029.log 40735 e93692f3466ace4a\n\
hlog-00000031.log 53600 42602fdc984c4a80\n\
hlog-00000033.log 33449 c00dc7fa5ee8d367\n\
hlog-00000036.log 36977 f014bd431cdcaddf\n\
hlog-00000037.log 45284 8aa5524bef2178c2\n\
hlog-00000039.log 33113 c4641b7e2640fa43\n\
hlog-00000040.log 32959 ffeccf1f5d3da81e\n\
hlog-00000041.log 43970 251b855885685ba6\n\
hlog-00000042.log 32861 35941044f3bbc51c\n\
hlog-00000043.log 34029 ad9c3b05766807d9\n\
hlog-00000044.log 33615 b77c96bb862e81b5\n\
hlog-00000045.log 33161 f6d1105b775f7bc8\n\
hlog-00000046.log 33616 edfc5e26259ae32a\n\
hlog-00000047.log 35795 241bc0f9e8659c6a\n\
hlog-00000048.log 43387 63ee79d965bbd8d5\n\
hlog-00000049.log 14420 8e6c17f002a71e30\n\
";
const CACHED_LZ_QD1_INLINE: &str = "\
-- loaded\n\
puts=400 gets=0 deletes=39 app=504341 gc_runs=0 gc_bytes=0 segments_created=11 segments=11 entries=381 garbage=24176\n\
cache=Some(CacheStats { hits: 0, misses: 0, admissions: 0, rejections: 0, evictions: 0, bytes_saved: 0 })\n\
maint=None\n\
hpw=30 hpr=0 qd=0/0/0 clock=1601022488 reads=cbf29ce484222325\n\
-- mixed and flushed\n\
puts=1095 gets=745 deletes=333 app=1375712 gc_runs=33 gc_bytes=683094 segments_created=51 segments=18 entries=335 garbage=177053\n\
cache=Some(CacheStats { hits: 2942, misses: 3038, admissions: 158, rejections: 2880, evictions: 152, bytes_saved: 27093812 })\n\
maint=None\n\
hpw=124 hpr=7670 qd=0/0/0 clock=1864124405571 reads=e1f5d35959131afe\n\
hlog-00000027.log 6692 2d2a1ca19990351d\n\
hlog-00000029.log 8163 601cf8242c12c09f\n\
hlog-00000031.log 10681 4b134486f929e65e\n\
hlog-00000033.log 6697 a9fe0a0b2ed79a78\n\
hlog-00000036.log 7426 0f23c576bc54cd11\n\
hlog-00000037.log 9052 1f2cd303dcf62109\n\
hlog-00000039.log 6623 affadd5ab5f735fd\n\
hlog-00000040.log 6613 818488aeb7eefc5d\n\
hlog-00000041.log 8814 3e30d426453ef6ba\n\
hlog-00000042.log 6509 e36aa4d54aad9ac4\n\
hlog-00000043.log 6764 b82a3bcd0a65b04f\n\
hlog-00000044.log 6754 d98428ac2de20181\n\
hlog-00000045.log 6602 d1fbe1ff52a7bb3d\n\
hlog-00000046.log 6697 3574e04e35fa3f43\n\
hlog-00000047.log 7141 e18082f2d5b77657\n\
hlog-00000048.log 8731 a03f37c221ce959f\n\
hlog-00000049.log 2910 0a591f7d6a745dfa\n\
-- read back\n\
puts=1095 gets=1165 deletes=333 app=1375712 gc_runs=33 gc_bytes=683094 segments_created=51 segments=18 entries=335 garbage=177053\n\
cache=Some(CacheStats { hits: 3264, misses: 3514, admissions: 196, rejections: 3318, evictions: 189, bytes_saved: 29538668 })\n\
maint=None\n\
hpw=124 hpr=8707 qd=0/0/0 clock=2150093147938 reads=2ab755f23cec6a3a\n\
-- recovered and read back\n\
puts=0 gets=420 deletes=0 app=0 gc_runs=0 gc_bytes=0 entries=335 garbage=177053\n\
cache=Some(CacheStats { hits: 335, misses: 463, admissions: 40, rejections: 423, evictions: 34, bytes_saved: 2551706 })\n\
maint=None\n\
hpw=124 hpr=9739 qd=0/0/0 clock=2438309110297 reads=39f5f81676c3f28e\n\
hlog-00000027.log 6692 2d2a1ca19990351d\n\
hlog-00000029.log 8163 601cf8242c12c09f\n\
hlog-00000031.log 10681 4b134486f929e65e\n\
hlog-00000033.log 6697 a9fe0a0b2ed79a78\n\
hlog-00000036.log 7426 0f23c576bc54cd11\n\
hlog-00000037.log 9052 1f2cd303dcf62109\n\
hlog-00000039.log 6623 affadd5ab5f735fd\n\
hlog-00000040.log 6613 818488aeb7eefc5d\n\
hlog-00000041.log 8814 3e30d426453ef6ba\n\
hlog-00000042.log 6509 e36aa4d54aad9ac4\n\
hlog-00000043.log 6764 b82a3bcd0a65b04f\n\
hlog-00000044.log 6754 d98428ac2de20181\n\
hlog-00000045.log 6602 d1fbe1ff52a7bb3d\n\
hlog-00000046.log 6697 3574e04e35fa3f43\n\
hlog-00000047.log 7141 e18082f2d5b77657\n\
hlog-00000048.log 8731 a03f37c221ce959f\n\
hlog-00000049.log 2910 0a591f7d6a745dfa\n\
";
const CACHED_LZ_QD1_BG: &str = "\
-- loaded\n\
puts=400 gets=0 deletes=39 app=504341 gc_runs=0 gc_bytes=0 segments_created=11 segments=11 entries=381 garbage=24176\n\
cache=Some(CacheStats { hits: 0, misses: 0, admissions: 0, rejections: 0, evictions: 0, bytes_saved: 0 })\n\
maint=Some(MaintStats { jobs: 0, slices: 0, installs: 0, bytes_read: 0, bytes_written: 0, stall_ns: 0, app_bytes: 0, host_bytes: 0, live_bytes: 0, used_bytes: 0 })\n\
hpw=30 hpr=0 qd=0/0/0 clock=1601022488 reads=cbf29ce484222325\n\
-- mixed and flushed\n\
puts=1095 gets=745 deletes=333 app=1375712 gc_runs=33 gc_bytes=683094 segments_created=51 segments=18 entries=335 garbage=177053\n\
cache=Some(CacheStats { hits: 2938, misses: 3036, admissions: 169, rejections: 2867, evictions: 163, bytes_saved: 27000454 })\n\
maint=Some(MaintStats { jobs: 33, slices: 33, installs: 33, bytes_read: 292778, bytes_written: 683094, stall_ns: 0, app_bytes: 0, host_bytes: 0, live_bytes: 0, used_bytes: 0 })\n\
hpw=124 hpr=7693 qd=0/0/0 clock=1843585056467 reads=e1f5d35959131afe\n\
hlog-00000027.log 6692 2d2a1ca19990351d\n\
hlog-00000029.log 8163 601cf8242c12c09f\n\
hlog-00000031.log 10681 4b134486f929e65e\n\
hlog-00000033.log 6697 a9fe0a0b2ed79a78\n\
hlog-00000036.log 7426 0f23c576bc54cd11\n\
hlog-00000037.log 9052 1f2cd303dcf62109\n\
hlog-00000039.log 6623 affadd5ab5f735fd\n\
hlog-00000040.log 6613 818488aeb7eefc5d\n\
hlog-00000041.log 8814 3e30d426453ef6ba\n\
hlog-00000042.log 6509 e36aa4d54aad9ac4\n\
hlog-00000043.log 6764 b82a3bcd0a65b04f\n\
hlog-00000044.log 6754 d98428ac2de20181\n\
hlog-00000045.log 6602 d1fbe1ff52a7bb3d\n\
hlog-00000046.log 6697 3574e04e35fa3f43\n\
hlog-00000047.log 7141 e18082f2d5b77657\n\
hlog-00000048.log 8731 a03f37c221ce959f\n\
hlog-00000049.log 2910 0a591f7d6a745dfa\n\
-- read back\n\
puts=1095 gets=1165 deletes=333 app=1375712 gc_runs=33 gc_bytes=683094 segments_created=51 segments=18 entries=335 garbage=177053\n\
cache=Some(CacheStats { hits: 3283, misses: 3489, admissions: 205, rejections: 3284, evictions: 198, bytes_saved: 29506863 })\n\
maint=Some(MaintStats { jobs: 33, slices: 33, installs: 33, bytes_read: 292778, bytes_written: 683094, stall_ns: 0, app_bytes: 0, host_bytes: 0, live_bytes: 0, used_bytes: 0 })\n\
hpw=124 hpr=8704 qd=0/0/0 clock=2116010191012 reads=2ab755f23cec6a3a\n\
-- recovered and read back\n\
puts=0 gets=420 deletes=0 app=0 gc_runs=0 gc_bytes=0 entries=335 garbage=177053\n\
cache=Some(CacheStats { hits: 335, misses: 463, admissions: 40, rejections: 423, evictions: 34, bytes_saved: 2551706 })\n\
maint=Some(MaintStats { jobs: 0, slices: 0, installs: 0, bytes_read: 0, bytes_written: 0, stall_ns: 0, app_bytes: 0, host_bytes: 0, live_bytes: 0, used_bytes: 0 })\n\
hpw=124 hpr=9736 qd=0/0/0 clock=2404226153371 reads=39f5f81676c3f28e\n\
hlog-00000027.log 6692 2d2a1ca19990351d\n\
hlog-00000029.log 8163 601cf8242c12c09f\n\
hlog-00000031.log 10681 4b134486f929e65e\n\
hlog-00000033.log 6697 a9fe0a0b2ed79a78\n\
hlog-00000036.log 7426 0f23c576bc54cd11\n\
hlog-00000037.log 9052 1f2cd303dcf62109\n\
hlog-00000039.log 6623 affadd5ab5f735fd\n\
hlog-00000040.log 6613 818488aeb7eefc5d\n\
hlog-00000041.log 8814 3e30d426453ef6ba\n\
hlog-00000042.log 6509 e36aa4d54aad9ac4\n\
hlog-00000043.log 6764 b82a3bcd0a65b04f\n\
hlog-00000044.log 6754 d98428ac2de20181\n\
hlog-00000045.log 6602 d1fbe1ff52a7bb3d\n\
hlog-00000046.log 6697 3574e04e35fa3f43\n\
hlog-00000047.log 7141 e18082f2d5b77657\n\
hlog-00000048.log 8731 a03f37c221ce959f\n\
hlog-00000049.log 2910 0a591f7d6a745dfa\n\
";
const CACHED_LZ_QD8_INLINE: &str = "\
-- loaded\n\
puts=400 gets=0 deletes=39 app=504341 gc_runs=0 gc_bytes=0 segments_created=11 segments=11 entries=381 garbage=24176\n\
cache=Some(CacheStats { hits: 0, misses: 0, admissions: 0, rejections: 0, evictions: 0, bytes_saved: 0 })\n\
maint=None\n\
hpw=30 hpr=0 qd=0/0/0 clock=1601022488 reads=cbf29ce484222325\n\
-- mixed and flushed\n\
puts=1095 gets=745 deletes=333 app=1375712 gc_runs=33 gc_bytes=683094 segments_created=51 segments=18 entries=335 garbage=177053\n\
cache=Some(CacheStats { hits: 2942, misses: 3038, admissions: 158, rejections: 2880, evictions: 152, bytes_saved: 27093812 })\n\
maint=None\n\
hpw=124 hpr=7670 qd=0/0/0 clock=1864124405571 reads=e1f5d35959131afe\n\
hlog-00000027.log 6692 2d2a1ca19990351d\n\
hlog-00000029.log 8163 601cf8242c12c09f\n\
hlog-00000031.log 10681 4b134486f929e65e\n\
hlog-00000033.log 6697 a9fe0a0b2ed79a78\n\
hlog-00000036.log 7426 0f23c576bc54cd11\n\
hlog-00000037.log 9052 1f2cd303dcf62109\n\
hlog-00000039.log 6623 affadd5ab5f735fd\n\
hlog-00000040.log 6613 818488aeb7eefc5d\n\
hlog-00000041.log 8814 3e30d426453ef6ba\n\
hlog-00000042.log 6509 e36aa4d54aad9ac4\n\
hlog-00000043.log 6764 b82a3bcd0a65b04f\n\
hlog-00000044.log 6754 d98428ac2de20181\n\
hlog-00000045.log 6602 d1fbe1ff52a7bb3d\n\
hlog-00000046.log 6697 3574e04e35fa3f43\n\
hlog-00000047.log 7141 e18082f2d5b77657\n\
hlog-00000048.log 8731 a03f37c221ce959f\n\
hlog-00000049.log 2910 0a591f7d6a745dfa\n\
-- read back\n\
puts=1095 gets=1165 deletes=333 app=1375712 gc_runs=33 gc_bytes=683094 segments_created=51 segments=18 entries=335 garbage=177053\n\
cache=Some(CacheStats { hits: 3264, misses: 3514, admissions: 196, rejections: 3318, evictions: 189, bytes_saved: 29538668 })\n\
maint=None\n\
hpw=124 hpr=8707 qd=0/0/0 clock=2150093147938 reads=2ab755f23cec6a3a\n\
-- recovered and read back\n\
puts=0 gets=420 deletes=0 app=0 gc_runs=0 gc_bytes=0 entries=335 garbage=177053\n\
cache=Some(CacheStats { hits: 335, misses: 463, admissions: 40, rejections: 423, evictions: 34, bytes_saved: 2551706 })\n\
maint=None\n\
hpw=124 hpr=9739 qd=0/0/0 clock=2438309110297 reads=39f5f81676c3f28e\n\
hlog-00000027.log 6692 2d2a1ca19990351d\n\
hlog-00000029.log 8163 601cf8242c12c09f\n\
hlog-00000031.log 10681 4b134486f929e65e\n\
hlog-00000033.log 6697 a9fe0a0b2ed79a78\n\
hlog-00000036.log 7426 0f23c576bc54cd11\n\
hlog-00000037.log 9052 1f2cd303dcf62109\n\
hlog-00000039.log 6623 affadd5ab5f735fd\n\
hlog-00000040.log 6613 818488aeb7eefc5d\n\
hlog-00000041.log 8814 3e30d426453ef6ba\n\
hlog-00000042.log 6509 e36aa4d54aad9ac4\n\
hlog-00000043.log 6764 b82a3bcd0a65b04f\n\
hlog-00000044.log 6754 d98428ac2de20181\n\
hlog-00000045.log 6602 d1fbe1ff52a7bb3d\n\
hlog-00000046.log 6697 3574e04e35fa3f43\n\
hlog-00000047.log 7141 e18082f2d5b77657\n\
hlog-00000048.log 8731 a03f37c221ce959f\n\
hlog-00000049.log 2910 0a591f7d6a745dfa\n\
";
const CACHED_LZ_QD8_BG: &str = "\
-- loaded\n\
puts=400 gets=0 deletes=39 app=504341 gc_runs=0 gc_bytes=0 segments_created=11 segments=11 entries=381 garbage=24176\n\
cache=Some(CacheStats { hits: 0, misses: 0, admissions: 0, rejections: 0, evictions: 0, bytes_saved: 0 })\n\
maint=Some(MaintStats { jobs: 0, slices: 0, installs: 0, bytes_read: 0, bytes_written: 0, stall_ns: 0, app_bytes: 0, host_bytes: 0, live_bytes: 0, used_bytes: 0 })\n\
hpw=30 hpr=0 qd=0/0/0 clock=1601022488 reads=cbf29ce484222325\n\
-- mixed and flushed\n\
puts=1095 gets=745 deletes=333 app=1375712 gc_runs=33 gc_bytes=683094 segments_created=51 segments=18 entries=335 garbage=177053\n\
cache=Some(CacheStats { hits: 2938, misses: 3036, admissions: 169, rejections: 2867, evictions: 163, bytes_saved: 27000454 })\n\
maint=Some(MaintStats { jobs: 33, slices: 33, installs: 33, bytes_read: 292778, bytes_written: 683094, stall_ns: 0, app_bytes: 0, host_bytes: 0, live_bytes: 0, used_bytes: 0 })\n\
hpw=124 hpr=7693 qd=0/0/0 clock=1843585056467 reads=e1f5d35959131afe\n\
hlog-00000027.log 6692 2d2a1ca19990351d\n\
hlog-00000029.log 8163 601cf8242c12c09f\n\
hlog-00000031.log 10681 4b134486f929e65e\n\
hlog-00000033.log 6697 a9fe0a0b2ed79a78\n\
hlog-00000036.log 7426 0f23c576bc54cd11\n\
hlog-00000037.log 9052 1f2cd303dcf62109\n\
hlog-00000039.log 6623 affadd5ab5f735fd\n\
hlog-00000040.log 6613 818488aeb7eefc5d\n\
hlog-00000041.log 8814 3e30d426453ef6ba\n\
hlog-00000042.log 6509 e36aa4d54aad9ac4\n\
hlog-00000043.log 6764 b82a3bcd0a65b04f\n\
hlog-00000044.log 6754 d98428ac2de20181\n\
hlog-00000045.log 6602 d1fbe1ff52a7bb3d\n\
hlog-00000046.log 6697 3574e04e35fa3f43\n\
hlog-00000047.log 7141 e18082f2d5b77657\n\
hlog-00000048.log 8731 a03f37c221ce959f\n\
hlog-00000049.log 2910 0a591f7d6a745dfa\n\
-- read back\n\
puts=1095 gets=1165 deletes=333 app=1375712 gc_runs=33 gc_bytes=683094 segments_created=51 segments=18 entries=335 garbage=177053\n\
cache=Some(CacheStats { hits: 3283, misses: 3489, admissions: 205, rejections: 3284, evictions: 198, bytes_saved: 29506863 })\n\
maint=Some(MaintStats { jobs: 33, slices: 33, installs: 33, bytes_read: 292778, bytes_written: 683094, stall_ns: 0, app_bytes: 0, host_bytes: 0, live_bytes: 0, used_bytes: 0 })\n\
hpw=124 hpr=8704 qd=0/0/0 clock=2116010191012 reads=2ab755f23cec6a3a\n\
-- recovered and read back\n\
puts=0 gets=420 deletes=0 app=0 gc_runs=0 gc_bytes=0 entries=335 garbage=177053\n\
cache=Some(CacheStats { hits: 335, misses: 463, admissions: 40, rejections: 423, evictions: 34, bytes_saved: 2551706 })\n\
maint=Some(MaintStats { jobs: 0, slices: 0, installs: 0, bytes_read: 0, bytes_written: 0, stall_ns: 0, app_bytes: 0, host_bytes: 0, live_bytes: 0, used_bytes: 0 })\n\
hpw=124 hpr=9736 qd=0/0/0 clock=2404226153371 reads=39f5f81676c3f28e\n\
hlog-00000027.log 6692 2d2a1ca19990351d\n\
hlog-00000029.log 8163 601cf8242c12c09f\n\
hlog-00000031.log 10681 4b134486f929e65e\n\
hlog-00000033.log 6697 a9fe0a0b2ed79a78\n\
hlog-00000036.log 7426 0f23c576bc54cd11\n\
hlog-00000037.log 9052 1f2cd303dcf62109\n\
hlog-00000039.log 6623 affadd5ab5f735fd\n\
hlog-00000040.log 6613 818488aeb7eefc5d\n\
hlog-00000041.log 8814 3e30d426453ef6ba\n\
hlog-00000042.log 6509 e36aa4d54aad9ac4\n\
hlog-00000043.log 6764 b82a3bcd0a65b04f\n\
hlog-00000044.log 6754 d98428ac2de20181\n\
hlog-00000045.log 6602 d1fbe1ff52a7bb3d\n\
hlog-00000046.log 6697 3574e04e35fa3f43\n\
hlog-00000047.log 7141 e18082f2d5b77657\n\
hlog-00000048.log 8731 a03f37c221ce959f\n\
hlog-00000049.log 2910 0a591f7d6a745dfa\n\
";

#[test]
fn codec_off_depth_1_inline() {
    assert_parity(&run_script(0, 0, 1, false), RAW_QD1_INLINE);
}

#[test]
fn codec_off_depth_1_background() {
    assert_parity(&run_script(0, 0, 1, true), RAW_QD1_BG);
}

#[test]
fn codec_off_depth_8_inline() {
    assert_parity(&run_script(0, 0, 8, false), RAW_QD8_INLINE);
}

#[test]
fn codec_off_depth_8_background() {
    assert_parity(&run_script(0, 0, 8, true), RAW_QD8_BG);
}

#[test]
fn codec_on_depth_1_inline() {
    assert_parity(&run_script(0, 1, 1, false), LZ_QD1_INLINE);
}

#[test]
fn codec_on_depth_1_background() {
    assert_parity(&run_script(0, 1, 1, true), LZ_QD1_BG);
}

#[test]
fn codec_on_depth_8_inline() {
    assert_parity(&run_script(0, 1, 8, false), LZ_QD8_INLINE);
}

#[test]
fn codec_on_depth_8_background() {
    assert_parity(&run_script(0, 1, 8, true), LZ_QD8_BG);
}

#[test]
fn cached_codec_off_depth_1_inline() {
    assert_parity(&run_script(CACHE, 0, 1, false), CACHED_RAW_QD1_INLINE);
}

#[test]
fn cached_codec_off_depth_1_background() {
    assert_parity(&run_script(CACHE, 0, 1, true), CACHED_RAW_QD1_BG);
}

#[test]
fn cached_codec_off_depth_8_inline() {
    assert_parity(&run_script(CACHE, 0, 8, false), CACHED_RAW_QD8_INLINE);
}

#[test]
fn cached_codec_off_depth_8_background() {
    assert_parity(&run_script(CACHE, 0, 8, true), CACHED_RAW_QD8_BG);
}

#[test]
fn cached_codec_on_depth_1_inline() {
    assert_parity(&run_script(CACHE, 1, 1, false), CACHED_LZ_QD1_INLINE);
}

#[test]
fn cached_codec_on_depth_1_background() {
    assert_parity(&run_script(CACHE, 1, 1, true), CACHED_LZ_QD1_BG);
}

#[test]
fn cached_codec_on_depth_8_inline() {
    assert_parity(&run_script(CACHE, 1, 8, false), CACHED_LZ_QD8_INLINE);
}

#[test]
fn cached_codec_on_depth_8_background() {
    assert_parity(&run_script(CACHE, 1, 8, true), CACHED_LZ_QD8_BG);
}
