//! Property-based tests of the LSM engine: arbitrary put/delete/get/scan
//! sequences agree with a `BTreeMap` model through flushes and
//! compactions, and the SSTable format round-trips arbitrary entries.

use std::collections::BTreeMap;

use proptest::prelude::*;

use ptsbench_lsm::iter::Merge;
use ptsbench_lsm::sstable::{SstIter, SstableBuilder, SstableReader};
use ptsbench_lsm::{LsmDb, LsmOptions};
use ptsbench_ssd::{DeviceConfig, DeviceProfile, Ssd};
use ptsbench_vfs::{Vfs, VfsOptions};

#[derive(Debug, Clone)]
enum KvOp {
    Put(u16, u16),
    Delete(u16),
    Get(u16),
    Scan(u16, u8),
    Flush,
}

fn kv_op() -> impl Strategy<Value = KvOp> {
    prop_oneof![
        6 => (0..300u16, 0..2_000u16).prop_map(|(k, v)| KvOp::Put(k, v)),
        2 => (0..300u16).prop_map(KvOp::Delete),
        3 => (0..300u16).prop_map(KvOp::Get),
        1 => (0..300u16, 1..20u8).prop_map(|(s, n)| KvOp::Scan(s, n)),
        1 => Just(KvOp::Flush),
    ]
}

fn key(i: u16) -> Vec<u8> {
    format!("key{i:06}").into_bytes()
}

fn value(tag: u16, step: usize) -> Vec<u8> {
    format!("value-{tag}-{step}")
        .into_bytes()
        .repeat(1 + tag as usize % 4)
}

fn fresh_db() -> LsmDb {
    let ssd = Ssd::new(DeviceConfig::from_profile(DeviceProfile::ssd1(), 48 << 20));
    let vfs = Vfs::whole_device(ssd.into_shared(), VfsOptions::default());
    LsmDb::open(vfs, LsmOptions::small()).expect("open")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The engine agrees with a BTreeMap model across its whole public
    /// API, including range scans through all levels.
    #[test]
    fn lsm_matches_model(ops in proptest::collection::vec(kv_op(), 1..250)) {
        let mut db = fresh_db();
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        for (step, op) in ops.iter().enumerate() {
            match op {
                KvOp::Put(k, v) => {
                    let (k, v) = (key(*k), value(*v, step));
                    db.put(&k, &v).expect("put");
                    model.insert(k, v);
                }
                KvOp::Delete(k) => {
                    let k = key(*k);
                    db.delete(&k).expect("delete");
                    model.remove(&k);
                }
                KvOp::Get(k) => {
                    let k = key(*k);
                    prop_assert_eq!(db.get(&k).expect("get"), model.get(&k).cloned());
                }
                KvOp::Scan(s, n) => {
                    let start = key(*s);
                    let got = db.scan(&start, None, *n as usize).expect("scan");
                    let expect: Vec<_> = model
                        .range(start..)
                        .take(*n as usize)
                        .map(|(k, v)| (k.clone(), v.clone()))
                        .collect();
                    prop_assert_eq!(got, expect, "scan mismatch at step {}", step);
                }
                KvOp::Flush => db.flush().expect("flush"),
            }
        }
        // Final full audit: every key and a full scan.
        for (k, v) in &model {
            let got = db.get(k).expect("get");
            prop_assert_eq!(got.as_ref(), Some(v));
        }
        let all = db.scan(b"", None, usize::MAX).expect("scan all");
        let expect: Vec<_> = model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        prop_assert_eq!(all, expect);
    }

    /// SSTable build + read round-trips arbitrary sorted entries,
    /// point lookups and iterators included.
    #[test]
    fn sstable_round_trips(
        entries in proptest::collection::btree_map(
            proptest::collection::vec(1u8..=255, 1..24),
            proptest::option::of(proptest::collection::vec(any::<u8>(), 0..300)),
            1..150,
        )
    ) {
        let ssd = Ssd::new(DeviceConfig::from_profile(DeviceProfile::ssd1(), 32 << 20));
        let vfs = Vfs::whole_device(ssd.into_shared(), VfsOptions::default());
        let mut b = SstableBuilder::create(vfs.clone(), "t", 1024, 10).expect("create");
        for (k, v) in &entries {
            b.add(k, v.as_deref()).expect("add");
        }
        let meta = b.finish().expect("finish");
        prop_assert_eq!(meta.entries, entries.len() as u64);

        let reader = SstableReader::open(vfs, "t", true, None).expect("open");
        // Point lookups for every key.
        for (k, v) in &entries {
            prop_assert_eq!(reader.get(k).expect("get"), Some(v.clone()));
        }
        // Full scan in order (entries are ranges of the scan window).
        let owned = |scan: SstIter<'_>| {
            let (mut scan, mut out) = (Merge::new(vec![scan]), Vec::new());
            while let Some(e) = scan.next_entry() {
                out.push((e.key.to_vec(), e.value.map(<[u8]>::to_vec)));
            }
            out
        };
        let scanned = owned(reader.iter());
        let expect: Vec<_> = entries.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        prop_assert_eq!(scanned, expect);
        // Seeked scan from an arbitrary existing key.
        if let Some((mid, _)) = entries.iter().nth(entries.len() / 2) {
            let from = owned(reader.iter_from(mid));
            let expect_from: Vec<_> =
                entries.range(mid.clone()..).map(|(k, v)| (k.clone(), v.clone())).collect();
            prop_assert_eq!(from, expect_from);
        }
    }
}
