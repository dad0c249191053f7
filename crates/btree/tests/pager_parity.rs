//! Counter parity across pager refactors: a fixed seeded
//! put/get/delete/scan mix over `BTreeOptions::small()` with a
//! four-page cache must leave every model-side number — page-cache
//! traffic, engine counts, device SMART counters and the virtual clock —
//! exactly where the cloning pager of PR 13 left it. The constants were
//! recorded on that commit; a change that only makes the host faster
//! must not move any of them. The two `explicit` constants were recorded
//! on PR 15, before the inline and sliced checkpoints became one job.
//!
//! The counters say nothing about what the pages hold, and recovery
//! reads the pages back: the two `TREE_FILE_*` constants are an FNV-1a
//! over every byte of the tree file after the inline and the background
//! mix, each ended by a checkpoint. They were recorded while leaves were
//! still held as one `(key, value)` pair of vectors per entry.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use ptsbench_btree::{BTreeDb, BTreeOptions};
use ptsbench_maint::MaintConfig;
use ptsbench_ssd::{DeviceConfig, DeviceProfile, Ssd};
use ptsbench_testkit::{assert_golden, fnv64};
use ptsbench_vfs::{EngineTuning, Vfs, VfsOptions};

fn key(i: u32) -> Vec<u8> {
    format!("key{i:08}").into_bytes()
}

/// Runs the mix; returns the database and the number of entries the
/// scans yielded. With `explicit`, the random phase also calls
/// `checkpoint()` and `drain_maintenance()` at fixed steps: a foreground
/// checkpoint that lands on a half-done background job, and a forced
/// drain mid-run.
fn mix(maint: MaintConfig, explicit: bool) -> (BTreeDb, usize) {
    let ssd = Ssd::new(DeviceConfig::from_profile(DeviceProfile::ssd1(), 64 << 20));
    let vfs = Vfs::whole_device(ssd.into_shared(), VfsOptions::default());
    let opts = BTreeOptions {
        pager_bytes: 4 * 4096,
        tuning: EngineTuning::for_device(0).with_maint(maint),
        ..BTreeOptions::small()
    };
    let mut db = BTreeDb::open(vfs, opts).expect("open");
    let pump = |db: &mut BTreeDb| while db.run_maintenance_slice().expect("slice") {};

    // Sequential load (append splits), enough leaves for a height-3 tree.
    for i in 0..8000u32 {
        db.put(&key(i), &[i as u8; 128]).expect("put");
        pump(&mut db);
    }
    let (loaded_height, _) = db.verify();
    assert_eq!(loaded_height, 3, "the load must split an internal page");
    let mut rng = SmallRng::seed_from_u64(14);
    let mut scanned = 0usize;
    for step in 0..12_000u32 {
        let i: u32 = rng.gen_range(0..9000);
        match rng.gen_range(0..20) {
            0..=8 => {
                let len = rng.gen_range(16..400);
                db.put(&key(i), &vec![step as u8; len]).expect("put");
            }
            9..=13 => {
                db.get(&key(i)).expect("get");
            }
            14..=18 => {
                // Absent keys (deleted earlier, or >= 8000 and never put)
                // take the early return.
                db.delete(&key(i)).expect("delete");
            }
            _ => {
                // Early-terminated and exhausted scans both occur.
                let limit = rng.gen_range(1..120);
                scanned += db.scan_iter(&key(i), None, limit).take(60).count();
            }
        }
        pump(&mut db);
        if explicit && step % 1500 == 1499 {
            db.checkpoint().expect("checkpoint");
        }
        if explicit && step % 4000 == 3999 {
            db.drain_maintenance().expect("drain");
        }
    }
    // Mass deletion: merges up the path and root collapses.
    for i in 0..7000u32 {
        db.delete(&key(i)).expect("delete");
        pump(&mut db);
    }
    db.drain_maintenance().expect("drain");
    (db, scanned)
}

/// Runs the mix and renders every counter that must not move.
fn run_mix(maint: MaintConfig, explicit: bool) -> String {
    let (mut db, scanned) = mix(maint, explicit);
    let (height, live) = db.verify();
    let smart = db.vfs().ssd().lock().smart();
    format!(
        "{:?} {:?} maint={:?} height={height} live={live} scanned={scanned} \
         hpw={} hpr={} npw={} clock={}",
        db.pager_stats(),
        db.stats(),
        db.maint_stats(),
        smart.host_pages_written,
        smart.host_pages_read,
        smart.nand_pages_written,
        db.vfs().clock().now(),
    )
}

/// FNV-1a over every byte of the tree file.
fn tree_file_fnv(db: &BTreeDb) -> u64 {
    let vfs = db.vfs();
    let file = vfs.open("btree.db").expect("open");
    let size = vfs.size(file).expect("size") as usize;
    let bytes = vfs.read_at(file, 0, size).expect("read");
    fnv64(&bytes)
}

#[test]
fn tree_file_bytes_match_the_per_entry_leaf() {
    let file_after = |maint| {
        let (mut db, _) = mix(maint, false);
        db.checkpoint().expect("checkpoint");
        format!("{:016x}", tree_file_fnv(&db))
    };
    let got = file_after(MaintConfig::default());
    assert_golden("parity/btree/pager_parity/TREE_FILE_INLINE.txt", &got);
    let got = file_after(MaintConfig::enabled());
    assert_golden("parity/btree/pager_parity/TREE_FILE_BACKGROUND.txt", &got);
}

#[test]
fn inline_counters_match_the_cloning_pager() {
    let got = run_mix(MaintConfig::default(), false);
    assert_golden("parity/btree/pager_parity/INLINE.txt", &got);
}

#[test]
fn background_counters_match_the_cloning_pager() {
    let got = run_mix(MaintConfig::enabled(), false);
    assert_golden("parity/btree/pager_parity/BACKGROUND.txt", &got);
}

#[test]
fn inline_counters_with_explicit_checkpoints_match_the_two_path_engine() {
    let got = run_mix(MaintConfig::default(), true);
    assert_golden("parity/btree/pager_parity/INLINE_EXPLICIT.txt", &got);
}

#[test]
fn background_counters_with_explicit_checkpoints_match_the_two_path_engine() {
    let got = run_mix(MaintConfig::enabled(), true);
    assert_golden("parity/btree/pager_parity/BACKGROUND_EXPLICIT.txt", &got);
}
