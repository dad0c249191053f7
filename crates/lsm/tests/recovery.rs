//! Crash-recovery tests: a database abandoned without clean shutdown is
//! reconstructed from its MANIFEST and write-ahead log.

use std::collections::BTreeMap;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use ptsbench_lsm::{LsmDb, LsmOptions};
use ptsbench_ssd::{DeviceConfig, DeviceProfile, Ssd};
use ptsbench_vfs::{EngineTuning, StoreError, Vfs, VfsOptions};

fn vfs() -> Vfs {
    let ssd = Ssd::new(DeviceConfig::from_profile(DeviceProfile::ssd1(), 48 << 20));
    Vfs::whole_device(ssd.into_shared(), VfsOptions::default())
}

fn key(i: u32) -> Vec<u8> {
    format!("key{i:08}").into_bytes()
}

#[test]
fn recovers_flushed_state_exactly() {
    let v = vfs();
    let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
    {
        let mut db = LsmDb::open(v.clone(), LsmOptions::small()).expect("open");
        let mut rng = SmallRng::seed_from_u64(11);
        for step in 0..3000u32 {
            let i = rng.gen_range(0..600);
            if rng.gen_bool(0.85) {
                let val = format!("v{step}").into_bytes();
                db.put(&key(i), &val).expect("put");
                model.insert(key(i), val);
            } else {
                db.delete(&key(i)).expect("delete");
                model.remove(&key(i));
            }
        }
        db.flush().expect("flush");
        // `db` dropped here without any clean-shutdown step.
    }
    let mut recovered = LsmDb::recover(v, LsmOptions::small()).expect("recover");
    for (k, v) in &model {
        let got = recovered.get(k).expect("get");
        assert_eq!(got.as_ref(), Some(v), "lost {k:?}");
    }
    let all = recovered.scan(b"", None, usize::MAX).expect("scan");
    assert_eq!(all.len(), model.len());
}

#[test]
fn recovers_wal_tail_beyond_last_flush() {
    let v = vfs();
    {
        let mut db = LsmDb::open(v.clone(), LsmOptions::small()).expect("open");
        for i in 0..200u32 {
            db.put(&key(i), b"flushed").expect("put");
        }
        db.flush().expect("flush");
        // Post-flush writes live only in memtable + WAL.
        for i in 200..260u32 {
            db.put(&key(i), b"wal-only").expect("put");
        }
        db.delete(&key(5)).expect("delete");
        db.sync_wal().expect("sync");
        // Crash: drop without flushing the memtable.
    }
    let mut recovered = LsmDb::recover(v, LsmOptions::small()).expect("recover");
    assert_eq!(
        recovered.get(&key(0)).expect("get"),
        Some(b"flushed".to_vec())
    );
    assert_eq!(
        recovered.get(&key(250)).expect("get"),
        Some(b"wal-only".to_vec()),
        "WAL tail must survive"
    );
    assert_eq!(
        recovered.get(&key(5)).expect("get"),
        None,
        "WAL delete must survive"
    );
}

#[test]
fn unsynced_tail_is_lost_but_db_recovers() {
    let v = vfs();
    {
        let mut db = LsmDb::open(v.clone(), LsmOptions::small()).expect("open");
        for i in 0..200u32 {
            db.put(&key(i), b"durable").expect("put");
        }
        db.flush().expect("flush");
        // A few bytes in the WAL buffer, never synced: legitimately lost.
        db.put(&key(9999), b"doomed").expect("put");
    }
    let mut recovered = LsmDb::recover(v, LsmOptions::small()).expect("recover");
    assert_eq!(
        recovered.get(&key(0)).expect("get"),
        Some(b"durable".to_vec())
    );
    assert_eq!(
        recovered.get(&key(9999)).expect("get"),
        None,
        "unsynced write is gone"
    );
    // And the recovered database accepts new work.
    recovered.put(&key(12345), b"post-recovery").expect("put");
    assert_eq!(
        recovered.get(&key(12345)).expect("get"),
        Some(b"post-recovery".to_vec())
    );
}

#[test]
fn recovery_without_manifest_fails_cleanly() {
    let v = vfs();
    assert!(matches!(
        LsmDb::recover(v, LsmOptions::small()),
        Err(StoreError::Corruption(_))
    ));
}

#[test]
fn repeated_recovery_is_stable() {
    let v = vfs();
    {
        let mut db = LsmDb::open(v.clone(), LsmOptions::small()).expect("open");
        for i in 0..1000u32 {
            db.put(&key(i), format!("v{i}").as_bytes()).expect("put");
        }
        db.flush().expect("flush");
    }
    for round in 0..3 {
        let mut db = LsmDb::recover(v.clone(), LsmOptions::small()).expect("recover");
        for i in (0..1000u32).step_by(111) {
            assert_eq!(
                db.get(&key(i)).expect("get"),
                Some(format!("v{i}").into_bytes()),
                "round {round}, key {i}"
            );
        }
    }
}

#[test]
fn records_in_a_deferred_log_survive_recovery() {
    // Paced maintenance: a freeze rotates the log *without* deleting the
    // old file, which alone holds the frozen memtable's records until
    // its flush installs. A crash in that window leaves two logs.
    let paced = || LsmOptions {
        tuning: EngineTuning::for_device(0).with_maint(ptsbench_maint::MaintConfig::enabled()),
        ..LsmOptions::small()
    };
    let logs = |v: &Vfs| v.list().iter().filter(|n| n.starts_with("wal-")).count();
    let v = vfs();
    let mut acknowledged = 0u32;
    {
        let mut db = LsmDb::open(v.clone(), paced()).expect("open");
        while logs(&v) < 2 {
            db.put(&key(acknowledged), &[7u8; 100]).expect("put");
            acknowledged += 1;
        }
        for _ in 0..5 {
            db.put(&key(acknowledged), &[7u8; 100]).expect("put");
            acknowledged += 1;
        }
        db.sync_wal().expect("sync");
        // Crash: the frozen memtable was never flushed.
    }
    for round in 0..2 {
        let mut db = LsmDb::recover(v.clone(), paced()).expect("recover");
        let lost = (0..acknowledged)
            .filter(|&i| db.get(&key(i)).expect("get") != Some(vec![7u8; 100]))
            .count();
        assert_eq!(
            lost, 0,
            "round {round}: {lost} of {acknowledged} acknowledged puts lost"
        );
        assert_eq!(logs(&v), 1, "round {round}: stale logs are released");
    }
}
