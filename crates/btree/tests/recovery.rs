//! Crash-recovery tests: a B+Tree abandoned without clean shutdown is
//! reconstructed from its last checkpoint plus the journal.

use std::collections::BTreeMap;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use ptsbench_btree::{BTreeDb, BTreeOptions};
use ptsbench_ssd::{DeviceConfig, DeviceProfile, Ssd};
use ptsbench_vfs::{StoreError, Vfs, VfsOptions};

fn vfs() -> Vfs {
    let ssd = Ssd::new(DeviceConfig::from_profile(DeviceProfile::ssd1(), 48 << 20));
    Vfs::whole_device(ssd.into_shared(), VfsOptions::default())
}

fn key(i: u32) -> Vec<u8> {
    format!("key{i:08}").into_bytes()
}

#[test]
fn recovers_checkpointed_state_exactly() {
    let v = vfs();
    let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
    {
        let mut db = BTreeDb::open(v.clone(), BTreeOptions::small()).expect("open");
        let mut rng = SmallRng::seed_from_u64(21);
        for step in 0..3000u32 {
            let i = rng.gen_range(0..700);
            if rng.gen_bool(0.8) {
                let val = format!("v{step}").into_bytes();
                db.put(&key(i), &val).expect("put");
                model.insert(key(i), val);
            } else {
                db.delete(&key(i)).expect("delete");
                model.remove(&key(i));
            }
        }
        db.checkpoint().expect("checkpoint");
        // Crash: dropped without clean shutdown.
    }
    let mut recovered = BTreeDb::recover(v, BTreeOptions::small()).expect("recover");
    let (_, count) = recovered.verify();
    assert_eq!(count, model.len() as u64);
    for (k, val) in &model {
        let got = recovered.get(k).expect("get");
        assert_eq!(got.as_ref(), Some(val), "lost {k:?}");
    }
}

#[test]
fn journal_tail_survives_past_checkpoint() {
    let v = vfs();
    {
        let mut db = BTreeDb::open(v.clone(), BTreeOptions::small()).expect("open");
        for i in 0..300u32 {
            db.put(&key(i), b"checkpointed").expect("put");
        }
        db.checkpoint().expect("checkpoint");
        for i in 300..360u32 {
            db.put(&key(i), b"journal-only").expect("put");
        }
        db.delete(&key(7)).expect("delete");
        db.sync_journal().expect("sync");
    }
    // The journal is recycled in place at every checkpoint: there is
    // only ever the one file, before and after recovery.
    let journals = |v: &Vfs| -> Vec<String> {
        let names = v.list().into_iter();
        names.filter(|n| n.starts_with("journal-")).collect()
    };
    assert_eq!(journals(&v), ["journal-0"]);
    let mut recovered = BTreeDb::recover(v.clone(), BTreeOptions::small()).expect("recover");
    assert_eq!(journals(&v), ["journal-0"]);
    assert_eq!(
        recovered.get(&key(0)).expect("get"),
        Some(b"checkpointed".to_vec())
    );
    assert_eq!(
        recovered.get(&key(350)).expect("get"),
        Some(b"journal-only".to_vec()),
        "journal tail must survive"
    );
    assert_eq!(
        recovered.get(&key(7)).expect("get"),
        None,
        "journaled delete survives"
    );
    recovered.verify();
}

#[test]
fn recovered_tree_reuses_unreachable_pages() {
    let v = vfs();
    let pages_before;
    {
        let mut db = BTreeDb::open(v.clone(), BTreeOptions::small()).expect("open");
        for i in 0..2000u32 {
            db.put(&key(i), &[1u8; 64]).expect("put");
        }
        db.checkpoint().expect("checkpoint");
        // Mass deletion frees pages; crash before the next checkpoint
        // records them.
        for i in 0..1900u32 {
            db.delete(&key(i)).expect("delete");
        }
        db.sync_journal().expect("sync");
        pages_before = db.pager_stats().allocations;
    }
    let mut recovered = BTreeDb::recover(v, BTreeOptions::small()).expect("recover");
    recovered.verify();
    // Refilling must reuse reclaimed pages rather than ballooning the file.
    for i in 0..1900u32 {
        recovered.put(&key(i), &[2u8; 64]).expect("put");
    }
    recovered.verify();
    assert!(recovered.pager_stats().allocations <= pages_before + 50);
}

#[test]
fn recovery_without_checkpoint_fails_cleanly() {
    let v = vfs();
    {
        // Open but never checkpoint: the meta page has no magic.
        let mut db = BTreeDb::open(v.clone(), BTreeOptions::small()).expect("open");
        db.put(b"k", b"v").expect("put");
    }
    assert!(matches!(
        BTreeDb::recover(v, BTreeOptions::small()),
        Err(StoreError::Corruption(_))
    ));
}

#[test]
fn repeated_recovery_is_stable() {
    let v = vfs();
    {
        let mut db = BTreeDb::open(v.clone(), BTreeOptions::small()).expect("open");
        for i in 0..1200u32 {
            db.put(&key(i), format!("v{i}").as_bytes()).expect("put");
        }
        db.checkpoint().expect("checkpoint");
    }
    for round in 0..3 {
        let mut db = BTreeDb::recover(v.clone(), BTreeOptions::small()).expect("recover");
        db.verify();
        for i in (0..1200u32).step_by(131) {
            assert_eq!(
                db.get(&key(i)).expect("get"),
                Some(format!("v{i}").into_bytes()),
                "round {round}, key {i}"
            );
        }
    }
}

#[test]
fn keys_past_a_u16_length_are_refused_and_the_longest_survives_recovery() {
    // A page records a key's length in two bytes. A longer key fits a
    // 128 KiB page, but it would be written with its length cut short
    // and be gone after recovery: `put` refuses it instead.
    let opts = BTreeOptions {
        page_bytes: 128 << 10,
        pager_bytes: 4 * (128 << 10),
        ..BTreeOptions::small()
    };
    let longest = vec![b'k'; usize::from(u16::MAX)];
    let v = vfs();
    {
        let mut db = BTreeDb::open(v.clone(), opts).expect("open");
        let err = db
            .put(&[b'k'; 70_000], b"v")
            .expect_err("a 70 000-byte key");
        assert_eq!(
            err,
            StoreError::InvalidInput("key of 70000 bytes exceeds 65535 bytes".into())
        );
        db.put(&longest, b"longest").expect("put");
        db.put(b"short", b"v").expect("put");
        db.checkpoint().expect("checkpoint");
    }
    let mut db = BTreeDb::recover(v, opts).expect("recover");
    assert_eq!(db.get(&longest).expect("get"), Some(b"longest".to_vec()));
    assert_eq!(db.get(&[b'k'; 70_000]).expect("get"), None);
    assert_eq!(db.verify(), (1, 2));
}
