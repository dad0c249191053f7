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
use ptsbench_testkit::{assert_golden, Fnv};
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

/// Folds a point read into `reads`: the value, or a marker for none.
fn feed_get(reads: &mut Fnv, db: &mut LsmDb, key: &[u8]) {
    let value = db.get(key).expect("get");
    reads.feed(value.as_deref().unwrap_or(b"<absent>"));
}

fn pump(db: &mut LsmDb) {
    while db.run_maintenance_slice().expect("slice") {}
}

/// Every key, newest index first, each followed by the absent key
/// just above it, and a few keys above every table.
fn read_everything(db: &mut LsmDb, reads: &mut Fnv) {
    for i in (0..KEYS + 10).rev() {
        feed_get(reads, db, &key(i));
        feed_get(reads, db, &gap_key(i));
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
                    feed_get(&mut reads, &mut db, &key(i));
                }
            }
            7..=8 => {
                db.delete(&key(i)).expect("delete");
                feed_get(&mut reads, &mut db, &key(i));
            }
            9..=13 => feed_get(&mut reads, &mut db, &key(i)),
            14..=15 if !recent.is_empty() => {
                let r = recent[rng.gen_range(0..recent.len())];
                feed_get(&mut reads, &mut db, &key(r));
            }
            16..=18 => feed_get(&mut reads, &mut db, &gap_key(i)),
            _ => feed_get(&mut reads, &mut db, &key(KEYS + i)),
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

const CACHE: u64 = 256 << 10;

#[test]
fn codec_off() {
    assert_golden("parity/lsm/read_parity/RAW.txt", &run_script(0, 0));
}

#[test]
fn codec_on() {
    assert_golden("parity/lsm/read_parity/LZ.txt", &run_script(0, 1));
}

#[test]
fn cached_codec_off() {
    let got = run_script(CACHE, 0);
    assert_golden("parity/lsm/read_parity/CACHED_RAW.txt", &got);
}

#[test]
fn cached_codec_on() {
    let got = run_script(CACHE, 1);
    assert_golden("parity/lsm/read_parity/CACHED_LZ.txt", &got);
}
