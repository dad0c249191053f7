//! Byte and counter parity across refactors of the hash log's write
//! path, on the shapes `gc_parity` and `read_parity` do not drive:
//!
//! * **bulk groups larger than a segment** — `apply_batch` groups of
//!   128 puts of ~4 KB into 32 KiB segments (the bulk-load shape: every
//!   group seals its segment on its own), then overwriting groups of the
//!   same size, single puts and mixed put/delete groups, so GC victims
//!   are whole oversized segments; inline with the codec off and on, and
//!   paced with the codec off;
//! * **groups that append nothing** — deletes only, of keys that are
//!   not visible (never put, already deleted, or deleted earlier in the
//!   same group after being put there), which must leave the device,
//!   the clock and every segment alone;
//! * **out of space** — a put-and-GC run on a 16 MiB drive whose key
//!   set grows until a put fails, after which every acknowledged key is
//!   read back, the database is dropped and recovered, and every key is
//!   read back again; with the codec off, and on with a `flush` (a seal)
//!   every 64 puts.
//!
//! Each run renders the engine counters, the device's SMART counters,
//! the virtual clock, an FNV-1a over everything the reads returned and
//! one FNV-1a per non-empty segment file (looked at through a
//! checked-out `Vfs::appender`, which costs no device traffic). The
//! constants were recorded while every put was encoded into a buffer of
//! its own and then copied into the segment; a change that only
//! reshapes the code must not move any of them.

use std::collections::BTreeMap;

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

/// A value the codec can shrink, different for every `(rng draw, tag)`.
fn value(rng: &mut SmallRng, len: usize, tag: u32) -> Vec<u8> {
    let word = rng.gen::<u64>().to_le_bytes();
    (0..len)
        .map(|b| word[b % 8] ^ (tag as u8) ^ ((b / 64) as u8))
        .collect()
}

/// Half noise, half [`value`]: the codec shrinks it by about half.
fn half_noise(rng: &mut SmallRng, len: usize, tag: u32) -> Vec<u8> {
    let mut v: Vec<u8> = (0..len / 2).map(|_| rng.gen()).collect();
    v.extend(value(rng, len - len / 2, tag));
    v
}

fn opts(codec: u8, maint: MaintConfig) -> HashLogOptions {
    HashLogOptions {
        tuning: EngineTuning::for_device(0)
            .with_compression_level(codec)
            .with_maint(maint),
        ..HashLogOptions::small()
    }
}

fn fresh_vfs(mb: u64) -> Vfs {
    let ssd = Ssd::new(DeviceConfig::from_profile(DeviceProfile::ssd1(), mb << 20));
    Vfs::whole_device(ssd.into_shared(), VfsOptions::default())
}

/// The model-side numbers: engine counters, SMART, clock, reads so far.
fn counters(db: &HashLogDb, reads: Fnv) -> String {
    let smart = db.vfs().ssd().lock().smart();
    format!(
        "{:?}\nmaint={:?}\nsegments={} entries={} garbage={}\n\
         hpw={} hpr={} npw={} clock={} reads={:016x}\n",
        db.stats(),
        db.maint_stats(),
        db.segment_count(),
        db.len(),
        db.garbage_bytes(),
        smart.host_pages_written,
        smart.host_pages_read,
        smart.nand_pages_written,
        db.vfs().clock().now(),
        reads.0,
    )
}

/// SMART and the clock: what a group that appends nothing must not move.
fn device(db: &HashLogDb) -> (u64, u64, u64, u64) {
    let smart = db.vfs().ssd().lock().smart();
    let (w, r, n) = (
        smart.host_pages_written,
        smart.host_pages_read,
        smart.nand_pages_written,
    );
    (w, r, n, db.vfs().clock().now())
}

/// [`segment_files`] folded into one line: file count and an FNV-1a of
/// the listing, for runs that leave hundreds of segments.
fn segment_digest(fs: &Vfs) -> String {
    let files = segment_files(fs);
    let mut sum = Fnv::new();
    sum.feed(files.as_bytes());
    format!("segment files={} {:016x}\n", files.lines().count(), sum.0)
}

const BULK_KEYS: u32 = 1536;
const BULK_GROUP: u32 = 128;

/// Bulk groups of 128 puts of ~4 KB into 32 KiB segments, then
/// overwriting groups, single puts and mixed groups over the same keys.
fn run_bulk(codec: u8, maint: MaintConfig) -> String {
    let mut db = HashLogDb::open(fresh_vfs(64), opts(codec, maint)).expect("open");
    let pump = |db: &mut HashLogDb| while db.run_maintenance_slice().expect("slice") {};
    let mut rng = SmallRng::seed_from_u64(37);
    let mut reads = Fnv::new();
    for first in (0..BULK_KEYS).step_by(BULK_GROUP as usize) {
        let mut batch = WriteBatch::new();
        for i in first..first + BULK_GROUP {
            let len = rng.gen_range(3900..4100);
            batch.put(&key(i), &value(&mut rng, len, i));
        }
        db.apply_batch(&batch).expect("bulk group");
        pump(&mut db);
    }
    let mut out = counters(&db, reads);
    for round in 0..24u32 {
        match round % 3 {
            // An overwriting group as large as a bulk one.
            0 => {
                let mut batch = WriteBatch::new();
                for _ in 0..BULK_GROUP {
                    let i = rng.gen_range(0..BULK_KEYS);
                    let len = rng.gen_range(3900..4100);
                    batch.put(&key(i), &value(&mut rng, len, round));
                }
                db.apply_batch(&batch).expect("overwrite group");
            }
            // Single puts and gets between the large groups.
            1 => {
                for _ in 0..64 {
                    let i = rng.gen_range(0..BULK_KEYS);
                    if rng.gen_range(0..4) == 0 {
                        feed_get(&mut reads, db.get(&key(i)).expect("get"));
                    } else {
                        let len = rng.gen_range(100..6000);
                        db.put(&key(i), &value(&mut rng, len, round)).expect("put");
                    }
                    pump(&mut db);
                }
            }
            // A mixed group: puts, deletes of live keys, of a key the
            // group itself put, and of a key nothing ever put.
            _ => {
                let mut batch = WriteBatch::new();
                for _ in 0..96 {
                    let i = rng.gen_range(0..BULK_KEYS);
                    if rng.gen_range(0..3) == 0 {
                        batch.delete(&key(i));
                    } else {
                        let len = rng.gen_range(1000..8000);
                        batch.put(&key(i), &value(&mut rng, len, round));
                    }
                }
                batch.delete(&key(BULK_KEYS + round));
                db.apply_batch(&batch).expect("mixed group");
            }
        }
        pump(&mut db);
    }
    db.drain_maintenance().expect("drain");
    db.quiesce();
    out.push_str(&counters(&db, reads));
    out.push_str(&segment_files(db.vfs()));
    let mut readback = Fnv::new();
    for i in 0..BULK_KEYS + 24 {
        feed_get(&mut readback, db.get(&key(i)).expect("get"));
    }
    out.push_str(&format!("readback={:016x}\n", readback.0));
    out
}

/// Groups of deletes only, none of which is visible, between puts: each
/// must leave the device, the clock and every segment where it was.
fn run_empty_groups(codec: u8) -> String {
    let mut db = HashLogDb::open(fresh_vfs(64), opts(codec, MaintConfig::default())).expect("open");
    let mut rng = SmallRng::seed_from_u64(38);
    let mut out = String::new();
    for round in 0..6u32 {
        for i in 0..40u32 {
            let len = rng.gen_range(200..2000);
            db.put(&key(round * 40 + i), &value(&mut rng, len, round))
                .expect("put");
        }
        // Deleted for real, so that the deletes below find tombstones.
        db.delete(&key(round * 40)).expect("delete");
        let before = (device(&db), segment_files(db.vfs()));
        let mut batch = WriteBatch::new();
        batch.delete(&key(10_000 + round)); // never put
        batch.delete(&key(round * 40)); // already deleted
        batch.delete(&key(10_000 + round)); // again
        db.apply_batch(&batch).expect("empty group");
        db.delete(&key(20_000 + round)).expect("absent delete");
        assert_eq!(
            before,
            (device(&db), segment_files(db.vfs())),
            "round {round}: only the delete counter may move"
        );
        out.push_str(&counters(&db, Fnv::new()));
    }
    // Put and deleted within one group: the second delete is not visible.
    let mut batch = WriteBatch::new();
    batch.put(b"transient", b"x");
    batch.delete(b"transient");
    batch.delete(b"transient");
    db.apply_batch(&batch).expect("transient group");
    assert_eq!(db.get(b"transient").expect("get"), None);
    out.push_str(&counters(&db, Fnv::new()));
    out.push_str(&segment_files(db.vfs()));
    out
}

/// Puts over a growing key set (with overwrites and deletes, so GC
/// runs) on a 16 MiB drive until one fails; `flush_every` puts a seal
/// between puts. Every acknowledged key is read back, then again after
/// a `drop` and a `recover`.
fn run_out_of_space(codec: u8, flush_every: Option<u32>) -> String {
    let fs = fresh_vfs(16);
    let opts = opts(codec, MaintConfig::default());
    let mut db = HashLogDb::open(fs.clone(), opts).expect("open");
    let mut rng = SmallRng::seed_from_u64(39);
    // Each key's last acknowledged value, and the step that wrote it.
    let mut acked: BTreeMap<u32, (u32, Option<Vec<u8>>)> = BTreeMap::new();
    let mut flushed_at = None;
    let mut failed = None;
    for step in 0..200_000u32 {
        let i = rng.gen_range(0..=step / 3);
        let result = if rng.gen_range(0..8) == 0 {
            db.delete(&key(i)).map(|()| None)
        } else {
            let len = rng.gen_range(500..3500);
            let v = half_noise(&mut rng, len, step);
            db.put(&key(i), &v).map(|()| Some(v))
        };
        match result {
            Ok(v) => {
                acked.insert(i, (step, v));
            }
            Err(e) => {
                assert!(e.is_out_of_space(), "unexpected error: {e}");
                failed = Some((step, i, e.to_string()));
                break;
            }
        }
        if flush_every.is_some_and(|n| step % n == n - 1) {
            match db.flush() {
                Ok(()) => flushed_at = Some(step),
                Err(e) => {
                    assert!(e.is_out_of_space(), "unexpected error: {e}");
                    failed = Some((step, u32::MAX, e.to_string()));
                    break;
                }
            }
        }
    }
    let (step, failed_key, error) = failed.expect("a 16 MiB drive fills up");
    let mut out = format!("failed at step {step} on key {failed_key}: {error}\n");
    out.push_str(&counters(&db, Fnv::new()));
    out.push_str(&segment_digest(db.vfs()));
    // Every acknowledged key reads back as acknowledged; the key of the
    // failed op is only rendered.
    let mut readback = Fnv::new();
    for (&i, (_, v)) in &acked {
        let got = db.get(&key(i)).expect("get");
        if i != failed_key {
            assert_eq!(&got, v, "key {i} before recovery");
        }
        feed_get(&mut readback, got);
    }
    out.push_str(&format!("readback={:016x}\n", readback.0));
    let all_durable = flush_every.is_none();
    drop(db);

    let mut db = HashLogDb::recover(fs, opts).expect("recover");
    let mut recovered = Fnv::new();
    for (&i, &(step, ref v)) in &acked {
        let got = db.get(&key(i)).expect("get");
        // Without the codec every acknowledged record is on the device;
        // with it, what the last flush sealed is, and later writes may
        // or may not have been sealed by a full segment.
        let flushed = flushed_at.is_some_and(|at| step <= at);
        if i != failed_key && (all_durable || flushed) {
            assert_eq!(&got, v, "key {i} after recovery");
        }
        feed_get(&mut recovered, got);
    }
    out.push_str(&format!(
        "recovered entries={} readback={:016x}\n",
        db.len(),
        recovered.0
    ));
    out
}

/// Slices of 8 KiB on a budget the run outpaces.
fn paced_tight() -> MaintConfig {
    MaintConfig {
        slice_bytes: 8 << 10,
        rate_bytes_per_sec: 2 << 20,
        burst_bytes: 16 << 10,
        ..MaintConfig::enabled()
    }
}

#[test]
fn bulk_groups_codec_off_match_the_recorded_run() {
    let got = run_bulk(0, MaintConfig::default());
    assert_golden("parity/hashlog/write_parity/BULK_RAW.txt", &got);
}

#[test]
fn bulk_groups_codec_on_match_the_recorded_run() {
    let got = run_bulk(1, MaintConfig::default());
    assert_golden("parity/hashlog/write_parity/BULK_LZ.txt", &got);
}

#[test]
fn bulk_groups_paced_gc_match_the_recorded_run() {
    let got = run_bulk(0, paced_tight());
    assert_golden("parity/hashlog/write_parity/BULK_BG_RAW.txt", &got);
}

#[test]
fn groups_that_append_nothing_codec_off_match_the_recorded_run() {
    let got = run_empty_groups(0);
    assert_golden("parity/hashlog/write_parity/EMPTY_GROUPS_RAW.txt", &got);
}

#[test]
fn groups_that_append_nothing_codec_on_match_the_recorded_run() {
    let got = run_empty_groups(1);
    assert_golden("parity/hashlog/write_parity/EMPTY_GROUPS_LZ.txt", &got);
}

#[test]
fn out_of_space_codec_off_matches_the_recorded_run() {
    let got = run_out_of_space(0, None);
    assert_golden("parity/hashlog/write_parity/OUT_OF_SPACE_RAW.txt", &got);
}

#[test]
fn out_of_space_with_flush_seals_codec_on_matches_the_recorded_run() {
    let got = run_out_of_space(1, Some(64));
    assert_golden("parity/hashlog/write_parity/OUT_OF_SPACE_LZ.txt", &got);
}
