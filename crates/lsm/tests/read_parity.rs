//! Byte and counter parity across refactors of the LSM's point-read
//! path: one fixed seeded script — a shuffled load with deletes, a mix
//! of puts, deletes and gets under sparse background maintenance (so a
//! frozen memtable lingers between slices), a flush, and a full
//! compaction, with every key and an absent key beside each one read
//! back after the last two — over {cache off, 256 KiB} × {codec off,
//! level 1}. The gets land in every tier: the memtable (a key just put
//! or deleted), the frozen memtable (a recently put key while its flush
//! waits for a slice), L0 and L1 tables (dynamic level sizing keeps
//! this data set in two levels), tombstones in both memtables and in
//! L0, keys above every table, and keys inside every table's range that
//! no table holds (bloom negatives and false positives). Each run renders,
//! at four points, the engine, cache and maintenance counters (the
//! bloom's probes, negatives and false positives among them), the
//! tables per level, the device's read and write counters, the virtual
//! clock and an FNV-1a over everything the gets returned. The constants
//! were recorded while every `get` copied its value out of the tier
//! that held it; a change that only reshapes how the value leaves the
//! engine must not move any of them.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use ptsbench_lsm::{LsmDb, LsmOptions};
use ptsbench_maint::MaintConfig;
use ptsbench_ssd::{DeviceConfig, DeviceProfile, Ssd};
use ptsbench_vfs::{EngineTuning, Vfs, VfsOptions};

const KEYS: u32 = 600;

fn key(i: u32) -> Vec<u8> {
    format!("key{i:08}").into_bytes()
}

/// A key no script writes that sorts between `key(i)` and `key(i + 1)`:
/// inside the range of every table that holds both, so only the bloom
/// filter (or the block) can turn it away.
fn gap_key(i: u32) -> Vec<u8> {
    format!("key{i:08}~").into_bytes()
}

/// A value the codec can shrink, different for every `(i, version)`.
fn value(rng: &mut SmallRng, tag: u32) -> Vec<u8> {
    let len = rng.gen_range(100..2400);
    let word = rng.gen::<u64>().to_le_bytes();
    (0..len)
        .map(|b| word[b % 8] ^ (tag as u8) ^ ((b / 64) as u8))
        .collect()
}

/// FNV-1a, folded over everything a get returned.
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

    fn get(&mut self, db: &mut LsmDb, key: &[u8]) {
        match db.get(key).expect("get") {
            Some(v) => self.feed(&v),
            None => self.feed(b"<absent>"),
        }
    }
}

fn pump(db: &mut LsmDb) {
    while db.run_maintenance_slice().expect("slice") {}
}

/// Every key, newest index first, each followed by the absent key
/// just above it, and a few keys above every table.
fn read_everything(db: &mut LsmDb, reads: &mut Fnv) {
    for i in (0..KEYS + 10).rev() {
        reads.get(db, &key(i));
        reads.get(db, &gap_key(i));
    }
}

/// Every number that must not move, one line per group.
fn counters(db: &LsmDb, reads: &Fnv) -> String {
    let smart = db.vfs().ssd().lock().smart();
    format!(
        "{:?}\ncache={:?}\nmaint={:?}\nlevels={:?}\nhpw={} hpr={} clock={} reads={:016x}\n",
        db.stats(),
        db.cache_stats(),
        db.maint_stats(),
        db.level_summary(),
        smart.host_pages_written,
        smart.host_pages_read,
        db.vfs().clock().now(),
        reads.0,
    )
}

fn run_script(cache_bytes: u64, codec: u8) -> String {
    let ssd = Ssd::new(DeviceConfig::from_profile(DeviceProfile::ssd1(), 64 << 20));
    let vfs = Vfs::whole_device(ssd.into_shared(), VfsOptions::default());
    let opts = LsmOptions {
        tuning: EngineTuning::for_device(0)
            .with_cache_bytes(cache_bytes)
            .with_compression_level(codec)
            .with_maint(MaintConfig::enabled()),
        ..LsmOptions::small()
    };
    let mut db = LsmDb::open(vfs, opts).expect("open");
    let mut rng = SmallRng::seed_from_u64(39);
    let mut reads = Fnv::new();
    let mut out = String::new();

    // Load: every key once, shuffled, every eleventh deleted again a
    // few puts later; maintenance drained after each put.
    let mut order: Vec<u32> = (0..KEYS).collect();
    for n in (1..order.len()).rev() {
        order.swap(n, rng.gen_range(0..=n));
    }
    for (n, &i) in order.iter().enumerate() {
        db.put(&key(i), &value(&mut rng, i)).expect("put");
        if n >= 5 && order[n - 5].is_multiple_of(11) {
            db.delete(&key(order[n - 5])).expect("delete");
        }
        pump(&mut db);
    }
    out.push_str("-- loaded\n");
    out.push_str(&counters(&db, &reads));

    // The mix, with one maintenance slice every eighth step: a frozen
    // memtable waits several steps for its flush, and the gets of the
    // keys put most recently find it there.
    let mut recent: Vec<u32> = Vec::new();
    for step in 0..3000u32 {
        let i: u32 = rng.gen_range(0..KEYS);
        match rng.gen_range(0..20) {
            0..=6 => {
                db.put(&key(i), &value(&mut rng, step)).expect("put");
                if recent.len() == 24 {
                    recent.remove(0);
                }
                recent.push(i);
                if step % 2 == 0 {
                    reads.get(&mut db, &key(i));
                }
            }
            7..=8 => {
                db.delete(&key(i)).expect("delete");
                reads.get(&mut db, &key(i));
            }
            9..=13 => reads.get(&mut db, &key(i)),
            14..=15 if !recent.is_empty() => {
                let r = recent[rng.gen_range(0..recent.len())];
                reads.get(&mut db, &key(r));
            }
            16..=18 => reads.get(&mut db, &gap_key(i)),
            _ => reads.get(&mut db, &key(KEYS + i)),
        }
        if step % 8 == 0 {
            db.run_maintenance_slice().expect("slice");
        }
    }
    out.push_str("-- mixed\n");
    out.push_str(&counters(&db, &reads));

    db.flush().expect("flush");
    db.quiesce();
    read_everything(&mut db, &mut reads);
    out.push_str("-- flushed and read back\n");
    out.push_str(&counters(&db, &reads));

    db.compact_all().expect("compact");
    db.quiesce();
    read_everything(&mut db, &mut reads);
    out.push_str("-- compacted and read back\n");
    out.push_str(&counters(&db, &reads));
    out
}

fn assert_parity(actual: &str, expected: &str) {
    assert!(
        actual == expected,
        "the run drifted from the recorded constants; it now renders:\n{actual}"
    );
}

const CACHE: u64 = 256 << 10;

const RAW: &str = "\
-- loaded\n\
DbStats { puts: 600, gets: 0, deletes: 55, app_bytes_written: 768873, flushes: 42, flush_bytes: 711432, compactions: 4, compaction_bytes_read: 1661580, compaction_bytes_written: 1637470, trivial_moves: 0, bloom_probes: 0, bloom_negatives: 0, bloom_false_positives: 0 }\n\
cache=None\n\
maint=Some(MaintStats { jobs: 46, slices: 244, installs: 46, bytes_read: 1661580, bytes_written: 2365469, stall_ns: 35968272508, app_bytes: 0, host_bytes: 0, live_bytes: 0, used_bytes: 0 })\n\
levels=[(0, 2, 33805), (1, 38, 653517), (2, 0, 0), (3, 0, 0), (4, 0, 0)]\n\
hpw=940 hpr=936 clock=98020727040 reads=cbf29ce484222325\n\
-- mixed\n\
DbStats { puts: 1684, gets: 2468, deletes: 328, app_bytes_written: 2128066, flushes: 123, flush_bytes: 2088555, compactions: 12, compaction_bytes_read: 8283613, compaction_bytes_written: 6856657, trivial_moves: 0, bloom_probes: 6917, bloom_negatives: 6087, bloom_false_positives: 55 }\n\
cache=None\n\
maint=Some(MaintStats { jobs: 135, slices: 924, installs: 135, bytes_read: 8283613, bytes_written: 8961078, stall_ns: 150514635204, app_bytes: 0, host_bytes: 0, live_bytes: 0, used_bytes: 0 })\n\
levels=[(0, 3, 49511), (1, 36, 612088), (2, 0, 0), (3, 0, 0), (4, 0, 0)]\n\
hpw=3309 hpr=5751 clock=824058998196 reads=96dd31c4fe742740\n\
-- flushed and read back\n\
DbStats { puts: 1684, gets: 3688, deletes: 328, app_bytes_written: 2128066, flushes: 125, flush_bytes: 2107790, compactions: 12, compaction_bytes_read: 8283613, compaction_bytes_written: 6856657, trivial_moves: 0, bloom_probes: 12924, bloom_negatives: 11517, bloom_false_positives: 131 }\n\
cache=None\n\
maint=Some(MaintStats { jobs: 137, slices: 929, installs: 137, bytes_read: 8283613, bytes_written: 8964447, stall_ns: 151461998840, app_bytes: 0, host_bytes: 0, live_bytes: 0, used_bytes: 0 })\n\
levels=[(0, 5, 68746), (1, 36, 612088), (2, 0, 0), (3, 0, 0), (4, 0, 0)]\n\
hpw=3317 hpr=6903 clock=1171315725052 reads=073c2bccb6b132c3\n\
-- compacted and read back\n\
DbStats { puts: 1684, gets: 4908, deletes: 328, app_bytes_written: 2128066, flushes: 125, flush_bytes: 2107790, compactions: 13, compaction_bytes_read: 8964447, compaction_bytes_written: 7459438, trivial_moves: 0, bloom_probes: 14079, bloom_negatives: 12177, bloom_false_positives: 138 }\n\
cache=None\n\
maint=Some(MaintStats { jobs: 137, slices: 929, installs: 137, bytes_read: 8283613, bytes_written: 8964447, stall_ns: 151461998840, app_bytes: 0, host_bytes: 0, live_bytes: 0, used_bytes: 0 })\n\
levels=[(0, 0, 0), (1, 35, 602781), (2, 0, 0), (3, 0, 0), (4, 0, 0)]\n\
hpw=3492 hpr=8205 clock=1478536633708 reads=c0dcac8ba58a2726\n";

const LZ: &str = "\
-- loaded\n\
DbStats { puts: 600, gets: 0, deletes: 55, app_bytes_written: 768873, flushes: 43, flush_bytes: 152684, compactions: 4, compaction_bytes_read: 343491, compaction_bytes_written: 335282, trivial_moves: 0, bloom_probes: 0, bloom_negatives: 0, bloom_false_positives: 0 }\n\
cache=None\n\
maint=Some(MaintStats { jobs: 47, slices: 193, installs: 47, bytes_read: 343491, bytes_written: 541859, stall_ns: 14256181704, app_bytes: 0, host_bytes: 0, live_bytes: 0, used_bytes: 0 })\n\
levels=[(0, 3, 10527), (1, 10, 133948), (2, 0, 0), (3, 0, 0), (4, 0, 0)]\n\
hpw=396 hpr=651 clock=77055999872 reads=cbf29ce484222325\n\
-- mixed\n\
DbStats { puts: 1684, gets: 2468, deletes: 328, app_bytes_written: 2128066, flushes: 123, flush_bytes: 439517, compactions: 12, compaction_bytes_read: 1709842, compaction_bytes_written: 1406356, trivial_moves: 0, bloom_probes: 6956, bloom_negatives: 6122, bloom_false_positives: 57 }\n\
cache=None\n\
maint=Some(MaintStats { jobs: 135, slices: 612, installs: 135, bytes_read: 1709842, bytes_written: 2017636, stall_ns: 57526272092, app_bytes: 0, host_bytes: 0, live_bytes: 0, used_bytes: 0 })\n\
levels=[(0, 3, 10436), (1, 9, 125595), (2, 0, 0), (3, 0, 0), (4, 0, 0)]\n\
hpw=1242 hpr=3770 clock=726700910078 reads=96dd31c4fe742740\n\
-- flushed and read back\n\
DbStats { puts: 1684, gets: 3688, deletes: 328, app_bytes_written: 2128066, flushes: 125, flush_bytes: 443634, compactions: 12, compaction_bytes_read: 1709842, compaction_bytes_written: 1406356, trivial_moves: 0, bloom_probes: 13006, bloom_negatives: 11593, bloom_false_positives: 135 }\n\
cache=None\n\
maint=Some(MaintStats { jobs: 137, slices: 617, installs: 137, bytes_read: 1709842, bytes_written: 2020912, stall_ns: 58323635728, app_bytes: 0, host_bytes: 0, live_bytes: 0, used_bytes: 0 })\n\
levels=[(0, 5, 14553), (1, 9, 125595), (2, 0, 0), (3, 0, 0), (4, 0, 0)]\n\
hpw=1247 hpr=4447 clock=1069563299195 reads=073c2bccb6b132c3\n\
-- compacted and read back\n\
DbStats { puts: 1684, gets: 4908, deletes: 328, app_bytes_written: 2128066, flushes: 125, flush_bytes: 443634, compactions: 13, compaction_bytes_read: 1849990, compaction_bytes_written: 1530118, trivial_moves: 0, bloom_probes: 14195, bloom_negatives: 12289, bloom_false_positives: 140 }\n\
cache=None\n\
maint=Some(MaintStats { jobs: 137, slices: 617, installs: 137, bytes_read: 1709842, bytes_written: 2020912, stall_ns: 58323635728, app_bytes: 0, host_bytes: 0, live_bytes: 0, used_bytes: 0 })\n\
levels=[(0, 0, 0), (1, 9, 123762), (2, 0, 0), (3, 0, 0), (4, 0, 0)]\n\
hpw=1283 hpr=5236 clock=1363532029356 reads=c0dcac8ba58a2726\n";

const CACHED_RAW: &str = "\
-- loaded\n\
DbStats { puts: 600, gets: 0, deletes: 55, app_bytes_written: 768873, flushes: 42, flush_bytes: 711432, compactions: 4, compaction_bytes_read: 1661580, compaction_bytes_written: 1637470, trivial_moves: 0, bloom_probes: 0, bloom_negatives: 0, bloom_false_positives: 0 }\n\
cache=Some(CacheStats { hits: 0, misses: 0, admissions: 0, rejections: 0, evictions: 0, bytes_saved: 0 })\n\
maint=Some(MaintStats { jobs: 46, slices: 244, installs: 46, bytes_read: 1661580, bytes_written: 2365469, stall_ns: 35968272508, app_bytes: 0, host_bytes: 0, live_bytes: 0, used_bytes: 0 })\n\
levels=[(0, 2, 33805), (1, 38, 653517), (2, 0, 0), (3, 0, 0), (4, 0, 0)]\n\
hpw=940 hpr=936 clock=98020727040 reads=cbf29ce484222325\n\
-- mixed\n\
DbStats { puts: 1684, gets: 2468, deletes: 328, app_bytes_written: 2128066, flushes: 123, flush_bytes: 2088555, compactions: 12, compaction_bytes_read: 8283613, compaction_bytes_written: 6856657, trivial_moves: 0, bloom_probes: 6916, bloom_negatives: 6086, bloom_false_positives: 55 }\n\
cache=Some(CacheStats { hits: 53, misses: 777, admissions: 155, rejections: 622, evictions: 98, bytes_saved: 250551 })\n\
maint=Some(MaintStats { jobs: 135, slices: 924, installs: 135, bytes_read: 8283613, bytes_written: 8961078, stall_ns: 150514635204, app_bytes: 0, host_bytes: 0, live_bytes: 0, used_bytes: 0 })\n\
levels=[(0, 3, 49511), (1, 36, 612088), (2, 0, 0), (3, 0, 0), (4, 0, 0)]\n\
hpw=3309 hpr=5645 clock=792326452780 reads=96dd31c4fe742740\n\
-- flushed and read back\n\
DbStats { puts: 1684, gets: 3688, deletes: 328, app_bytes_written: 2128066, flushes: 125, flush_bytes: 2107790, compactions: 12, compaction_bytes_read: 8283613, compaction_bytes_written: 6856657, trivial_moves: 0, bloom_probes: 12923, bloom_negatives: 11516, bloom_false_positives: 131 }\n\
cache=Some(CacheStats { hits: 259, misses: 1148, admissions: 237, rejections: 911, evictions: 180, bytes_saved: 1194854 })\n\
maint=Some(MaintStats { jobs: 137, slices: 929, installs: 137, bytes_read: 8283613, bytes_written: 8964447, stall_ns: 151461998840, app_bytes: 0, host_bytes: 0, live_bytes: 0, used_bytes: 0 })\n\
levels=[(0, 5, 68746), (1, 36, 612088), (2, 0, 0), (3, 0, 0), (4, 0, 0)]\n\
hpw=3317 hpr=6400 clock=1016415816144 reads=073c2bccb6b132c3\n\
-- compacted and read back\n\
DbStats { puts: 1684, gets: 4908, deletes: 328, app_bytes_written: 2128066, flushes: 125, flush_bytes: 2107790, compactions: 13, compaction_bytes_read: 8964447, compaction_bytes_written: 7459438, trivial_moves: 0, bloom_probes: 14078, bloom_negatives: 12176, bloom_false_positives: 138 }\n\
cache=Some(CacheStats { hits: 360, misses: 1542, admissions: 297, rejections: 1245, evictions: 237, bytes_saved: 1667785 })\n\
maint=Some(MaintStats { jobs: 137, slices: 929, installs: 137, bytes_read: 8283613, bytes_written: 8964447, stall_ns: 151461998840, app_bytes: 0, host_bytes: 0, live_bytes: 0, used_bytes: 0 })\n\
levels=[(0, 0, 0), (1, 35, 602781), (2, 0, 0), (3, 0, 0), (4, 0, 0)]\n\
hpw=3492 hpr=7496 clock=1263119815784 reads=c0dcac8ba58a2726\n";

const CACHED_LZ: &str = "\
-- loaded\n\
DbStats { puts: 600, gets: 0, deletes: 55, app_bytes_written: 768873, flushes: 43, flush_bytes: 152684, compactions: 4, compaction_bytes_read: 343491, compaction_bytes_written: 335282, trivial_moves: 0, bloom_probes: 0, bloom_negatives: 0, bloom_false_positives: 0 }\n\
cache=Some(CacheStats { hits: 0, misses: 0, admissions: 0, rejections: 0, evictions: 0, bytes_saved: 0 })\n\
maint=Some(MaintStats { jobs: 47, slices: 193, installs: 47, bytes_read: 343491, bytes_written: 541859, stall_ns: 14256181704, app_bytes: 0, host_bytes: 0, live_bytes: 0, used_bytes: 0 })\n\
levels=[(0, 3, 10527), (1, 10, 133948), (2, 0, 0), (3, 0, 0), (4, 0, 0)]\n\
hpw=396 hpr=651 clock=77055999872 reads=cbf29ce484222325\n\
-- mixed\n\
DbStats { puts: 1684, gets: 2468, deletes: 328, app_bytes_written: 2128066, flushes: 123, flush_bytes: 439517, compactions: 12, compaction_bytes_read: 1709842, compaction_bytes_written: 1406356, trivial_moves: 0, bloom_probes: 6956, bloom_negatives: 6122, bloom_false_positives: 57 }\n\
cache=Some(CacheStats { hits: 61, misses: 773, admissions: 149, rejections: 624, evictions: 93, bytes_saved: 58316 })\n\
maint=Some(MaintStats { jobs: 135, slices: 612, installs: 135, bytes_read: 1709842, bytes_written: 2017636, stall_ns: 57571726636, app_bytes: 0, host_bytes: 0, live_bytes: 0, used_bytes: 0 })\n\
levels=[(0, 3, 10436), (1, 9, 125595), (2, 0, 0), (3, 0, 0), (4, 0, 0)]\n\
hpw=1242 hpr=3701 clock=690826128971 reads=96dd31c4fe742740\n\
-- flushed and read back\n\
DbStats { puts: 1684, gets: 3688, deletes: 328, app_bytes_written: 2128066, flushes: 125, flush_bytes: 443634, compactions: 12, compaction_bytes_read: 1709842, compaction_bytes_written: 1406356, trivial_moves: 0, bloom_probes: 13006, bloom_negatives: 11593, bloom_false_positives: 135 }\n\
cache=Some(CacheStats { hits: 293, misses: 1120, admissions: 241, rejections: 879, evictions: 188, bytes_saved: 278850 })\n\
maint=Some(MaintStats { jobs: 137, slices: 617, installs: 137, bytes_read: 1709842, bytes_written: 2020912, stall_ns: 58369090272, app_bytes: 0, host_bytes: 0, live_bytes: 0, used_bytes: 0 })\n\
levels=[(0, 5, 14553), (1, 9, 125595), (2, 0, 0), (3, 0, 0), (4, 0, 0)]\n\
hpw=1247 hpr=4118 clock=897101426710 reads=073c2bccb6b132c3\n\
-- compacted and read back\n\
DbStats { puts: 1684, gets: 4908, deletes: 328, app_bytes_written: 2128066, flushes: 125, flush_bytes: 443634, compactions: 13, compaction_bytes_read: 1849990, compaction_bytes_written: 1530118, trivial_moves: 0, bloom_probes: 14195, bloom_negatives: 12289, bloom_false_positives: 140 }\n\
cache=Some(CacheStats { hits: 371, misses: 1535, admissions: 287, rejections: 1248, evictions: 233, bytes_saved: 352853 })\n\
maint=Some(MaintStats { jobs: 137, slices: 617, installs: 137, bytes_read: 1709842, bytes_written: 2020912, stall_ns: 58369090272, app_bytes: 0, host_bytes: 0, live_bytes: 0, used_bytes: 0 })\n\
levels=[(0, 0, 0), (1, 9, 123762), (2, 0, 0), (3, 0, 0), (4, 0, 0)]\n\
hpw=1283 hpr=4820 clock=1145153336189 reads=c0dcac8ba58a2726\n";

#[test]
fn codec_off() {
    assert_parity(&run_script(0, 0), RAW);
}

#[test]
fn codec_on() {
    assert_parity(&run_script(0, 1), LZ);
}

#[test]
fn cached_codec_off() {
    assert_parity(&run_script(CACHE, 0), CACHED_RAW);
}

#[test]
fn cached_codec_on() {
    assert_parity(&run_script(CACHE, 1), CACHED_LZ);
}
