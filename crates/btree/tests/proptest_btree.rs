//! Property-based tests of the B+Tree engine: arbitrary operation
//! sequences agree with a `BTreeMap` model, and the structural
//! invariants (ordering, balance, entry counts) hold throughout.

use std::collections::BTreeMap;

use proptest::prelude::*;

use ptsbench_btree::node::Node;
use ptsbench_btree::{BTreeDb, BTreeOptions};
use ptsbench_ssd::{DeviceConfig, DeviceProfile, Ssd};
use ptsbench_vfs::{Vfs, VfsOptions};

#[derive(Debug, Clone)]
enum KvOp {
    Put(u16, u16),
    Delete(u16),
    Get(u16),
    Scan(u16, u8),
    Checkpoint,
}

fn kv_op() -> impl Strategy<Value = KvOp> {
    prop_oneof![
        6 => (0..400u16, 0..500u16).prop_map(|(k, v)| KvOp::Put(k, v)),
        3 => (0..400u16).prop_map(KvOp::Delete),
        3 => (0..400u16).prop_map(KvOp::Get),
        1 => (0..400u16, 1..20u8).prop_map(|(s, n)| KvOp::Scan(s, n)),
        1 => Just(KvOp::Checkpoint),
    ]
}

fn key(i: u16) -> Vec<u8> {
    format!("key{i:06}").into_bytes()
}

fn fresh_db() -> BTreeDb {
    let ssd = Ssd::new(DeviceConfig::from_profile(DeviceProfile::ssd1(), 48 << 20));
    let vfs = Vfs::whole_device(ssd.into_shared(), VfsOptions::default());
    BTreeDb::open(vfs, BTreeOptions::small()).expect("open")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tree agrees with a BTreeMap model and stays balanced.
    #[test]
    fn btree_matches_model(ops in proptest::collection::vec(kv_op(), 1..300)) {
        let mut db = fresh_db();
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        for (step, op) in ops.iter().enumerate() {
            match op {
                KvOp::Put(k, v) => {
                    let k = key(*k);
                    let v = format!("v{v}-{step}").into_bytes();
                    db.put(&k, &v).expect("put");
                    model.insert(k, v);
                }
                KvOp::Delete(k) => {
                    let k = key(*k);
                    let existed = db.delete(&k).expect("delete");
                    prop_assert_eq!(existed, model.remove(&k).is_some());
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
                KvOp::Checkpoint => db.checkpoint().expect("checkpoint"),
            }
        }
        let (_, count) = db.verify();
        prop_assert_eq!(count, model.len() as u64);
        for (k, v) in &model {
            let got = db.get(k).expect("get");
            prop_assert_eq!(got.as_ref(), Some(v));
        }
    }

    /// Node encoding round-trips arbitrary leaves and internals.
    #[test]
    fn node_encoding_round_trips(
        leaf_entries in proptest::collection::btree_map(
            proptest::collection::vec(any::<u8>(), 1..20),
            proptest::collection::vec(any::<u8>(), 0..100),
            0..50,
        ),
        children in proptest::collection::vec(1u64..1_000_000, 1..30),
    ) {
        let leaf = Node::Leaf {
            entries: leaf_entries.into_iter().collect(),
        };
        let mut buf = Vec::new();
        leaf.encode(&mut buf);
        prop_assert_eq!(buf.len(), leaf.encoded_len());
        prop_assert_eq!(Node::decode(&buf).expect("decode leaf"), leaf);

        // Internal node: n children need n-1 strictly increasing keys.
        let separators = (0..children.len() - 1)
            .map(|i| format!("sep{i:06}").into_bytes())
            .collect();
        let internal = Node::Internal { children, separators };
        internal.encode(&mut buf);
        prop_assert_eq!(buf.len(), internal.encoded_len());
        prop_assert_eq!(Node::decode(&buf).expect("decode internal"), internal);
    }

    /// Splitting an oversized leaf preserves entries and ordering
    /// regardless of the entry-size distribution.
    #[test]
    fn leaf_split_preserves_entries(
        sizes in proptest::collection::vec(1usize..400, 2..40),
    ) {
        let entries: Vec<(Vec<u8>, Vec<u8>)> = sizes
            .iter()
            .enumerate()
            .map(|(i, &s)| (format!("k{i:06}").into_bytes(), vec![0u8; s]))
            .collect();
        let total = entries.len();
        let mut node = Node::Leaf { entries: entries.into_iter().collect() };
        let (sep, right) = node.split();
        let (Node::Leaf { entries: left }, Node::Leaf { entries: right }) = (&node, &right) else {
            panic!("leaf split must produce leaves");
        };
        prop_assert_eq!(left.len() + right.len(), total);
        prop_assert!(!left.is_empty() && !right.is_empty());
        prop_assert_eq!(right.key(0), &sep[..]);
        prop_assert!(left.key(left.len() - 1) < &sep[..]);
    }
}
