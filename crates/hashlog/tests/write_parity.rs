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
use ptsbench_vfs::{EngineTuning, Vfs, VfsOptions};

fn key(i: u32) -> Vec<u8> {
    format!("key{i:08}").into_bytes()
}

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

    fn feed_read(&mut self, value: Option<Vec<u8>>) {
        match value {
            Some(v) => self.feed(&v),
            None => self.feed(b"<absent>"),
        }
    }
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

/// [`segment_files`] folded into one line: file count and an FNV-1a of
/// the listing, for runs that leave hundreds of segments.
fn segment_digest(fs: &Vfs) -> String {
    let files = segment_files(fs);
    let mut sum = Fnv::new();
    sum.feed(files.as_bytes());
    format!("segment files={} {:016x}\n", files.lines().count(), sum.0)
}

fn assert_parity(actual: &str, expected: &str) {
    assert!(
        actual == expected,
        "the run drifted from the recorded constants; it now renders:\n{actual}"
    );
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
                        reads.feed_read(db.get(&key(i)).expect("get"));
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
        readback.feed_read(db.get(&key(i)).expect("get"));
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
        readback.feed_read(got);
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
        recovered.feed_read(got);
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

const BULK_RAW: &str = "\
HashLogStats { puts: 1536, gets: 0, deletes: 0, app_bytes_written: 6161835, segments_created: 13, gc_runs: 0, gc_bytes_rewritten: 0 }\n\
maint=None\n\
segments=13 entries=1536 garbage=0\n\
hpw=1514 hpr=0 npw=1514 clock=75700000000 reads=cbf29ce484222325\n\
HashLogStats { puts: 3415, gets: 136, deletes: 297, app_bytes_written: 13605253, segments_created: 80, gc_runs: 31, gc_bytes_rewritten: 4714904 }\n\
maint=None\n\
segments=49 entries=1372 garbage=2581539\n\
hpw=4882 hpr=3129 npw=4882 clock=689142817044 reads=bd74ddbb5938add6\n\
hlog-00000013.log 34870 e962c94b02da4b0b\n\
hlog-00000015.log 37799 193270175b106afe\n\
hlog-00000020.log 35628 49a8ceeaea2d3cc2\n\
hlog-00000027.log 36522 75459035a61e0dbf\n\
hlog-00000031.log 515728 d4bf308c6edafd3c\n\
hlog-00000032.log 245358 e18c4f2f2c9992d3\n\
hlog-00000036.log 33298 b0aedcaac8d694ce\n\
hlog-00000037.log 36467 70fe47b317cce33f\n\
hlog-00000038.log 34004 fb3386154b7bd5a8\n\
hlog-00000039.log 271578 cb80ab6ee176f09c\n\
hlog-00000041.log 261716 e5f746381e61271f\n\
hlog-00000042.log 516360 9f092b15b16d3a47\n\
hlog-00000043.log 234171 d66d652331ee34cf\n\
hlog-00000044.log 246297 cb2a4ffbca652127\n\
hlog-00000045.log 35512 2a2527b85ff050de\n\
hlog-00000046.log 35336 2cb4f0e4c849ca09\n\
hlog-00000047.log 33608 9aee65325fd7964b\n\
hlog-00000048.log 34613 257d251a7024c31f\n\
hlog-00000049.log 246372 7dff88535dfd2e98\n\
hlog-00000050.log 268096 432b78bb0f760cbc\n\
hlog-00000051.log 226078 32284b3d318a21c6\n\
hlog-00000052.log 516099 1cba32c3abc4f339\n\
hlog-00000053.log 244687 66d6c0b5d822aedb\n\
hlog-00000054.log 33499 e9b023b418a0f007\n\
hlog-00000055.log 236146 99029df309293cfd\n\
hlog-00000056.log 35519 b87b7ace622f80bb\n\
hlog-00000057.log 33257 2f98436f23bc7f42\n\
hlog-00000058.log 262237 4c27b17e3708589a\n\
hlog-00000059.log 527382 c3ed1ac795632ba9\n\
hlog-00000060.log 207692 b51b80d45cc68752\n\
hlog-00000061.log 120722 4c3b7d05dd8ccaec\n\
hlog-00000062.log 264225 2a00b4f272f89e55\n\
hlog-00000063.log 35949 25a7a88e89cf38b0\n\
hlog-00000064.log 33305 e005e1ba7682da2a\n\
hlog-00000065.log 135916 0b38d53ada9b563d\n\
hlog-00000066.log 36586 5b16310f23b20462\n\
hlog-00000067.log 283459 96791b20106aebfd\n\
hlog-00000068.log 126129 19bfbe523a449d2e\n\
hlog-00000069.log 514631 9c65f22bccb0f91c\n\
hlog-00000070.log 113241 606d9adb86e5450a\n\
hlog-00000071.log 152373 6ecf8b924f05ff6b\n\
hlog-00000072.log 141065 ff4f47427146140e\n\
hlog-00000073.log 146971 bad7dfb73909497c\n\
hlog-00000074.log 36960 9f8edcd54ff91e36\n\
hlog-00000075.log 33446 458d051004283325\n\
hlog-00000076.log 33748 f4908df4ac4b0f62\n\
hlog-00000077.log 273334 b1bc785c6e667b66\n\
hlog-00000078.log 97606 c8bce573dabb31f3\n\
readback=272eddbfb65657fb\n\
";
const BULK_LZ: &str = "\
HashLogStats { puts: 1536, gets: 0, deletes: 0, app_bytes_written: 6161835, segments_created: 13, gc_runs: 0, gc_bytes_rewritten: 0 }\n\
maint=None\n\
segments=13 entries=1536 garbage=0\n\
hpw=290 hpr=0 npw=290 clock=14512375894 reads=cbf29ce484222325\n\
HashLogStats { puts: 3415, gets: 136, deletes: 297, app_bytes_written: 13605253, segments_created: 80, gc_runs: 31, gc_bytes_rewritten: 4714904 }\n\
maint=None\n\
segments=49 entries=1372 garbage=2581539\n\
hpw=889 hpr=2984 npw=889 clock=172267155913 reads=bd74ddbb5938add6\n\
hlog-00000013.log 6737 bb2aea9b077cc0cf\n\
hlog-00000015.log 7283 ec392995c9704e5a\n\
hlog-00000020.log 6854 9e645446355b4df1\n\
hlog-00000027.log 7015 ce655203770aa1cd\n\
hlog-00000031.log 98371 48932f2154c278e9\n\
hlog-00000032.log 46693 a6fae3b68f1e085b\n\
hlog-00000036.log 6450 d5fe38dbefc38970\n\
hlog-00000037.log 7007 b2ba1fcf32c19fc2\n\
hlog-00000038.log 6511 986df3a572f53553\n\
hlog-00000039.log 51683 86475db6de4ae745\n\
hlog-00000041.log 49811 c7af6aaa69dfe199\n\
hlog-00000042.log 98545 e034629536a79127\n\
hlog-00000043.log 44590 51e3c9ceb37920cd\n\
hlog-00000044.log 47212 8121228f2530b126\n\
hlog-00000045.log 6851 6ad2ae4dc8e931f2\n\
hlog-00000046.log 6835 003de6155fa427ac\n\
hlog-00000047.log 6441 da006068ae26e0d9\n\
hlog-00000048.log 6680 7fb0d5f2d35308d7\n\
hlog-00000049.log 47047 36a26494b4097afa\n\
hlog-00000050.log 51533 e6ff09aa57202898\n\
hlog-00000051.log 43019 481a73678df711c8\n\
hlog-00000052.log 99196 5d9b957966a4d169\n\
hlog-00000053.log 46961 6e195f9b26704395\n\
hlog-00000054.log 6618 018ccefa6a03c0d7\n\
hlog-00000055.log 44994 ff7ca36e0343106c\n\
hlog-00000056.log 6886 5fff843aa99aaf75\n\
hlog-00000057.log 6533 c19eb690096b3318\n\
hlog-00000058.log 50297 4893851a0c889dee\n\
hlog-00000059.log 100602 7f0af7ad6bb3517b\n\
hlog-00000060.log 39666 661e8d458ce1bcf0\n\
hlog-00000061.log 23056 5fb4d12427a94ecb\n\
hlog-00000062.log 50428 f854d3d9ede20ad9\n\
hlog-00000063.log 6945 a85237aa99c33fb2\n\
hlog-00000064.log 6413 2faf31439790d405\n\
hlog-00000065.log 26176 97233091ae5b1293\n\
hlog-00000066.log 6987 a3aea5f7df3e5a24\n\
hlog-00000067.log 54368 9ed6de1aa714c8f3\n\
hlog-00000068.log 24215 6bbba98da428711d\n\
hlog-00000069.log 98239 c01d58e1de17a00d\n\
hlog-00000070.log 21609 2788a18d64c3275d\n\
hlog-00000071.log 29237 d86e6fd81125bd1c\n\
hlog-00000072.log 26947 30c95bf26f9f658e\n\
hlog-00000073.log 28142 89382cbf4ec1bc62\n\
hlog-00000074.log 7073 a6ef2a441921244a\n\
hlog-00000075.log 6499 836eabeba767b76c\n\
hlog-00000076.log 6527 63f261aaaaa8e58a\n\
hlog-00000077.log 52345 9c1ad1dca75919ac\n\
hlog-00000078.log 18601 ea4c4a6e8092b0ab\n\
readback=272eddbfb65657fb\n\
";
const BULK_BG_RAW: &str = "\
HashLogStats { puts: 1536, gets: 0, deletes: 0, app_bytes_written: 6161835, segments_created: 13, gc_runs: 0, gc_bytes_rewritten: 0 }\n\
maint=Some(MaintStats { jobs: 0, slices: 0, installs: 0, bytes_read: 0, bytes_written: 0, stall_ns: 0, app_bytes: 0, host_bytes: 0, live_bytes: 0, used_bytes: 0 })\n\
segments=13 entries=1536 garbage=0\n\
hpw=1514 hpr=0 npw=1514 clock=75700000000 reads=cbf29ce484222325\n\
HashLogStats { puts: 3415, gets: 136, deletes: 297, app_bytes_written: 13605253, segments_created: 134, gc_runs: 27, gc_bytes_rewritten: 2822093 }\n\
maint=Some(MaintStats { jobs: 27, slices: 624, installs: 27, bytes_read: 7217027, bytes_written: 2822093, stall_ns: 0, app_bytes: 0, host_bytes: 0, live_bytes: 0, used_bytes: 0 })\n\
segments=107 entries=1372 garbage=3758555\n\
hpw=4818 hpr=2739 npw=4818 clock=580520817692 reads=bd74ddbb5938add6\n\
hlog-00000013.log 34870 e962c94b02da4b0b\n\
hlog-00000015.log 37799 193270175b106afe\n\
hlog-00000016.log 308011 e4831a01c126872a\n\
hlog-00000017.log 516031 bd0e19e997d4982f\n\
hlog-00000018.log 35095 8613a3daba6a916e\n\
hlog-00000019.log 33324 ae31baf7be1d509e\n\
hlog-00000020.log 35628 49a8ceeaea2d3cc2\n\
hlog-00000022.log 295506 6e8ded8577645e01\n\
hlog-00000023.log 515560 9e8dbdb8efe768bf\n\
hlog-00000024.log 35405 3528b28694bb3267\n\
hlog-00000025.log 39733 42abbbd8d225f648\n\
hlog-00000030.log 33140 9c6405d7b378f556\n\
hlog-00000031.log 39459 5e01263af9db3e01\n\
hlog-00000033.log 43042 8b99579895f372a4\n\
hlog-00000034.log 33862 af6d173ed0321369\n\
hlog-00000036.log 39544 dbcd37b22985ed36\n\
hlog-00000037.log 32977 751222375e7b8405\n\
hlog-00000038.log 40367 0e0b224465fdc22e\n\
hlog-00000041.log 35060 5de54c2e30dc04ef\n\
hlog-00000042.log 283545 440c2e363f7811e1\n\
hlog-00000043.log 527930 3176b521bf97acc3\n\
hlog-00000044.log 34430 528a987a6e8a4618\n\
hlog-00000045.log 37364 96bc14f3e32dfb4b\n\
hlog-00000046.log 35290 6afc15ab70f967ca\n\
hlog-00000047.log 33436 5a88246620a98653\n\
hlog-00000048.log 36090 6430b6bc63e4a512\n\
hlog-00000049.log 34245 e2425af1826fd8e6\n\
hlog-00000050.log 34976 a6657062a6fcce72\n\
hlog-00000051.log 32957 db0050abc13759eb\n\
hlog-00000052.log 34183 73c16a1cda3a5b76\n\
hlog-00000053.log 36447 ff1d85959859a22d\n\
hlog-00000054.log 40991 fbac57933b29d538\n\
hlog-00000055.log 40981 321cac3494e4f6c1\n\
hlog-00000056.log 39167 4871a46111495839\n\
hlog-00000057.log 34938 4b118de0b0677d5e\n\
hlog-00000060.log 35061 1ed52230f0bc9c28\n\
hlog-00000061.log 35044 02f260717a99d024\n\
hlog-00000062.log 335548 5ff8b723b11b3e4c\n\
hlog-00000063.log 516360 9f092b15b16d3a47\n\
hlog-00000064.log 33770 0a6e16ec50ed6c7b\n\
hlog-00000065.log 35613 000729c8c630b676\n\
hlog-00000066.log 34605 03a73439d886983e\n\
hlog-00000067.log 36735 acbe4a210539215e\n\
hlog-00000068.log 36449 e18992fe63bcce3d\n\
hlog-00000069.log 40105 00cdd2924b6a740c\n\
hlog-00000070.log 42543 18f383d14b899f37\n\
hlog-00000071.log 33582 5649e29f2f96129a\n\
hlog-00000072.log 35595 0e6fa8fe52c2bc4e\n\
hlog-00000073.log 34429 60d266289e3605be\n\
hlog-00000074.log 34738 83e8393fee061888\n\
hlog-00000076.log 42032 d817925aced15142\n\
hlog-00000077.log 36820 628d5ead3a543d57\n\
hlog-00000078.log 33787 f4c4930dc3d1ca1c\n\
hlog-00000079.log 35829 1f1802d655f45d0e\n\
hlog-00000080.log 37562 7d9ab47bc271b0c2\n\
hlog-00000081.log 280218 bab0a7c3b2f702d1\n\
hlog-00000082.log 524148 bbc7262d0550f55b\n\
hlog-00000083.log 32970 2b8c7ff31cfc0e7d\n\
hlog-00000084.log 43647 66bedf98b4b79134\n\
hlog-00000085.log 37520 4a92a6a45b186a1f\n\
hlog-00000086.log 38172 7537761bc94dbbfd\n\
hlog-00000087.log 35197 6d61d4149013150d\n\
hlog-00000089.log 33954 a347bb681134347e\n\
hlog-00000090.log 33317 9cabe5de36418b98\n\
hlog-00000091.log 32994 81988d361e6e8adf\n\
hlog-00000092.log 35112 3d41668b778631e8\n\
hlog-00000093.log 36353 2b9ad139927f6c3c\n\
hlog-00000094.log 34277 44d62a2b1b52c00c\n\
hlog-00000095.log 35764 13584abddf536275\n\
hlog-00000096.log 40055 4e851fec42b823c0\n\
hlog-00000097.log 291147 b058374bb662c3e1\n\
hlog-00000098.log 520521 b66c702da99b30ce\n\
hlog-00000099.log 40172 3af6a536e127c1df\n\
hlog-00000100.log 39390 36daeab0367b4b1b\n\
hlog-00000101.log 32903 3b52af4ca7340dee\n\
hlog-00000102.log 34817 cf00a7612e808bc3\n\
hlog-00000103.log 36323 bea91da97ea50ba4\n\
hlog-00000104.log 37320 94c0341d1915cb5b\n\
hlog-00000105.log 32891 20a91297f8df9266\n\
hlog-00000106.log 33690 95db9eb899fd06fa\n\
hlog-00000107.log 35544 b2240d2d7d2e9326\n\
hlog-00000108.log 33787 c7da7ca39a7fdb36\n\
hlog-00000109.log 36494 e87846ec96695458\n\
hlog-00000110.log 35564 64e34c5ad88827cb\n\
hlog-00000111.log 33222 6608448aa987dc8d\n\
hlog-00000112.log 34204 a05fb85c7798bd47\n\
hlog-00000113.log 33677 ca0014bc4d137a25\n\
hlog-00000114.log 283106 12bbce3edaa767c2\n\
hlog-00000115.log 518750 0e5c8ae942056317\n\
hlog-00000116.log 34042 7cc58534478cbfa5\n\
hlog-00000117.log 35294 c05a21c5d13be226\n\
hlog-00000118.log 34309 f81700417d567f6b\n\
hlog-00000119.log 33747 833d0c8fa7a1591f\n\
hlog-00000120.log 34049 4cea5cc4ada1b913\n\
hlog-00000121.log 36453 11be598aba70bbf9\n\
hlog-00000122.log 35373 98e7e6eca1fca65a\n\
hlog-00000123.log 39774 762ccf5681757aa3\n\
hlog-00000124.log 33442 b2a94adfceacf78e\n\
hlog-00000125.log 35243 2ba7dbf3bd634557\n\
hlog-00000126.log 42609 8ea45554df4fc136\n\
hlog-00000127.log 33340 c77997b0a9a88ca1\n\
hlog-00000128.log 33091 8c5fabc188eb9839\n\
hlog-00000129.log 37717 a52991d5310f2261\n\
hlog-00000130.log 268855 1262478c457703fd\n\
hlog-00000131.log 36231 0f9dd3bf7ce8fc69\n\
hlog-00000132.log 36143 45bbba0a007a75c7\n\
hlog-00000133.log 8089 88652b0a94610298\n\
readback=272eddbfb65657fb\n\
";
const EMPTY_GROUPS_RAW: &str = "\
HashLogStats { puts: 40, gets: 0, deletes: 5, app_bytes_written: 42483, segments_created: 2, gc_runs: 0, gc_bytes_rewritten: 0 }\n\
maint=None\n\
segments=2 entries=39 garbage=2027\n\
hpw=51 hpr=39 npw=51 clock=31067181804 reads=cbf29ce484222325\n\
HashLogStats { puts: 80, gets: 0, deletes: 10, app_bytes_written: 88267, segments_created: 3, gc_runs: 0, gc_bytes_rewritten: 0 }\n\
maint=None\n\
segments=3 entries=78 garbage=2962\n\
hpw=103 hpr=79 npw=103 clock=62881727244 reads=cbf29ce484222325\n\
HashLogStats { puts: 120, gets: 0, deletes: 15, app_bytes_written: 127250, segments_created: 4, gc_runs: 0, gc_bytes_rewritten: 0 }\n\
maint=None\n\
segments=4 entries=117 garbage=3634\n\
hpw=153 hpr=119 npw=153 clock=94376272684 reads=cbf29ce484222325\n\
HashLogStats { puts: 160, gets: 0, deletes: 20, app_bytes_written: 173904, segments_created: 6, gc_runs: 0, gc_bytes_rewritten: 0 }\n\
maint=None\n\
segments=6 entries=156 garbage=4330\n\
hpw=206 hpr=158 npw=206 clock=125763454488 reads=cbf29ce484222325\n\
HashLogStats { puts: 200, gets: 0, deletes: 25, app_bytes_written: 211352, segments_created: 7, gc_runs: 0, gc_bytes_rewritten: 0 }\n\
maint=None\n\
segments=7 entries=195 garbage=5612\n\
hpw=256 hpr=198 npw=256 clock=157257999928 reads=cbf29ce484222325\n\
HashLogStats { puts: 240, gets: 0, deletes: 30, app_bytes_written: 255292, segments_created: 8, gc_runs: 0, gc_bytes_rewritten: 0 }\n\
maint=None\n\
segments=8 entries=234 garbage=6368\n\
hpw=308 hpr=238 npw=308 clock=189072545368 reads=cbf29ce484222325\n\
HashLogStats { puts: 241, gets: 1, deletes: 32, app_bytes_written: 255320, segments_created: 8, gc_runs: 0, gc_bytes_rewritten: 0 }\n\
maint=None\n\
segments=8 entries=234 garbage=6395\n\
hpw=309 hpr=239 npw=309 clock=189819909004 reads=cbf29ce484222325\n\
hlog-00000000.log 33757 6f03154c18cc2b96\n\
hlog-00000001.log 33753 f587e72f928406d7\n\
hlog-00000002.log 33028 d4614735ee4e69d6\n\
hlog-00000003.log 32806 2157c20b664c17f0\n\
hlog-00000004.log 33461 22635c097af66de2\n\
hlog-00000005.log 33494 51b959087a258152\n\
hlog-00000006.log 33265 7c36948ffe4d13aa\n\
hlog-00000007.log 25699 d224050cfe031ae2\n\
";
const EMPTY_GROUPS_LZ: &str = "\
HashLogStats { puts: 40, gets: 0, deletes: 5, app_bytes_written: 42483, segments_created: 2, gc_runs: 0, gc_bytes_rewritten: 0 }\n\
maint=None\n\
segments=2 entries=39 garbage=2027\n\
hpw=2 hpr=0 npw=2 clock=160067514 reads=cbf29ce484222325\n\
HashLogStats { puts: 80, gets: 0, deletes: 10, app_bytes_written: 88267, segments_created: 3, gc_runs: 0, gc_bytes_rewritten: 0 }\n\
maint=None\n\
segments=3 entries=78 garbage=2962\n\
hpw=4 hpr=0 npw=4 clock=320135020 reads=cbf29ce484222325\n\
HashLogStats { puts: 120, gets: 0, deletes: 15, app_bytes_written: 127250, segments_created: 4, gc_runs: 0, gc_bytes_rewritten: 0 }\n\
maint=None\n\
segments=4 entries=117 garbage=3634\n\
hpw=6 hpr=0 npw=6 clock=480201076 reads=cbf29ce484222325\n\
HashLogStats { puts: 160, gets: 0, deletes: 20, app_bytes_written: 173904, segments_created: 6, gc_runs: 0, gc_bytes_rewritten: 0 }\n\
maint=None\n\
segments=6 entries=156 garbage=4330\n\
hpw=10 hpr=0 npw=10 clock=800333610 reads=cbf29ce484222325\n\
HashLogStats { puts: 200, gets: 0, deletes: 25, app_bytes_written: 211352, segments_created: 7, gc_runs: 0, gc_bytes_rewritten: 0 }\n\
maint=None\n\
segments=7 entries=195 garbage=5612\n\
hpw=12 hpr=0 npw=12 clock=960400598 reads=cbf29ce484222325\n\
HashLogStats { puts: 240, gets: 0, deletes: 30, app_bytes_written: 255292, segments_created: 8, gc_runs: 0, gc_bytes_rewritten: 0 }\n\
maint=None\n\
segments=8 entries=234 garbage=6368\n\
hpw=14 hpr=0 npw=14 clock=1120467128 reads=cbf29ce484222325\n\
HashLogStats { puts: 241, gets: 1, deletes: 32, app_bytes_written: 255320, segments_created: 8, gc_runs: 0, gc_bytes_rewritten: 0 }\n\
maint=None\n\
segments=8 entries=234 garbage=6395\n\
hpw=14 hpr=0 npw=14 clock=1120467128 reads=cbf29ce484222325\n\
hlog-00000000.log 6846 42878203d1ddf2f2\n\
hlog-00000001.log 6859 a5512461c24a30d2\n\
hlog-00000002.log 6793 cd9316bd180198c4\n\
hlog-00000003.log 6718 c56a6b9acea20350\n\
hlog-00000004.log 6802 f2e55899bc62b20c\n\
hlog-00000005.log 6879 d88401f89b7d1abf\n\
hlog-00000006.log 6855 8d0b445e8814cc0d\n\
";
const OUT_OF_SPACE_RAW: &str = "\
failed at step 24682 on key 4566: filesystem error: no space left on device (requested 1 pages, 0 free)\n\
HashLogStats { puts: 21610, gets: 0, deletes: 3073, app_bytes_written: 43558393, segments_created: 1737, gc_runs: 1305, gc_bytes_rewritten: 18983761 }\n\
maint=None\n\
segments=432 entries=5354 garbage=4677964\n\
hpw=39629 hpr=35533 npw=57030 clock=104368598157995 reads=cbf29ce484222325\n\
segment files=432 5674a47541995a31\n\
readback=ec8aad48f4df6761\n\
recovered entries=5354 readback=ec8aad48f4df6761\n\
";
const OUT_OF_SPACE_LZ: &str = "\
failed at step 40575 on key 4294967295: filesystem error: no space left on device (requested 2 pages, 1 free)\n\
HashLogStats { puts: 35500, gets: 0, deletes: 5076, app_bytes_written: 71325927, segments_created: 3196, gc_runs: 2395, gc_bytes_rewritten: 29897998 }\n\
maint=None\n\
segments=801 entries=8866 garbage=7633196\n\
hpw=16402 hpr=12307 npw=16580 clock=9847301927952 reads=cbf29ce484222325\n\
segment files=800 f88746763452852e\n\
readback=4c7cbba95337a406\n\
recovered entries=8866 readback=81c2f6a997ba118a\n\
";

#[test]
fn bulk_groups_codec_off_match_the_recorded_run() {
    assert_parity(&run_bulk(0, MaintConfig::default()), BULK_RAW);
}

#[test]
fn bulk_groups_codec_on_match_the_recorded_run() {
    assert_parity(&run_bulk(1, MaintConfig::default()), BULK_LZ);
}

#[test]
fn bulk_groups_paced_gc_match_the_recorded_run() {
    assert_parity(&run_bulk(0, paced_tight()), BULK_BG_RAW);
}

#[test]
fn groups_that_append_nothing_codec_off_match_the_recorded_run() {
    assert_parity(&run_empty_groups(0), EMPTY_GROUPS_RAW);
}

#[test]
fn groups_that_append_nothing_codec_on_match_the_recorded_run() {
    assert_parity(&run_empty_groups(1), EMPTY_GROUPS_LZ);
}

#[test]
fn out_of_space_codec_off_matches_the_recorded_run() {
    assert_parity(&run_out_of_space(0, None), OUT_OF_SPACE_RAW);
}

#[test]
fn out_of_space_with_flush_seals_codec_on_matches_the_recorded_run() {
    assert_parity(&run_out_of_space(1, Some(64)), OUT_OF_SPACE_LZ);
}
