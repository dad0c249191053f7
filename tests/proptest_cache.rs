//! Property-based tests of the read-path acceleration tier:
//!
//! * engines serve byte-identical data with the cache and compression
//!   on or off — acceleration must never change *what* a read returns,
//!   only where the bytes come from;
//! * the TinyLFU sketch's halving never inflates an estimate;
//! * the block cache's resident bytes never exceed its budget;
//! * the compression container round-trips arbitrary payloads
//!   losslessly at every level.

use std::collections::BTreeMap;

use proptest::prelude::*;

use ptsbench::cache::{BlockCache, Compression, CountMinSketch};
use ptsbench::hashlog::{HashLogDb, HashLogOptions};
use ptsbench::lsm::{LsmDb, LsmOptions};
use ptsbench::ssd::{DeviceConfig, DeviceProfile, Ssd};
use ptsbench::vfs::{EngineTuning, Vfs, VfsOptions};

fn vfs() -> Vfs {
    let ssd = Ssd::new(DeviceConfig::from_profile(DeviceProfile::ssd1(), 48 << 20));
    Vfs::whole_device(ssd.into_shared(), VfsOptions::default())
}

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
        6 => (0..200u16, 0..2_000u16).prop_map(|(k, v)| KvOp::Put(k, v)),
        2 => (0..200u16).prop_map(KvOp::Delete),
        4 => (0..200u16).prop_map(KvOp::Get),
        1 => (0..200u16, 1..20u8).prop_map(|(s, n)| KvOp::Scan(s, n)),
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

/// Replays `ops` against a model, asserting every read and scan result
/// matches; returns nothing — the assertions are the point.
fn drive_lsm(mut db: LsmDb, ops: &[KvOp]) {
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
                assert_eq!(db.get(&k).expect("get"), model.get(&k).cloned());
            }
            KvOp::Scan(s, n) => {
                let start = key(*s);
                let got: Vec<_> = db.scan_iter(&start, None, *n as usize).collect::<Vec<_>>();
                let want: Vec<_> = model
                    .range(start..)
                    .take(*n as usize)
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect();
                assert_eq!(got, want);
            }
            KvOp::Flush => db.flush().expect("flush"),
        }
    }
    for (k, v) in &model {
        assert_eq!(db.get(k).expect("get"), Some(v.clone()), "final audit");
    }
}

fn drive_hashlog(mut db: HashLogDb, ops: &[KvOp]) {
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
                assert_eq!(db.get(&k).expect("get"), model.get(&k).cloned());
            }
            KvOp::Scan(s, n) => {
                let start = key(*s);
                let got = db.scan(&start, None, *n as usize).expect("scan");
                let want: Vec<_> = model
                    .range(start..)
                    .take(*n as usize)
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect();
                assert_eq!(got, want);
            }
            KvOp::Flush => db.flush().expect("flush"),
        }
    }
    for (k, v) in &model {
        assert_eq!(db.get(k).expect("get"), Some(v.clone()), "final audit");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Acceleration never changes what a read returns: the LSM with a
    /// block cache and compression serves exactly the bytes the model
    /// (and therefore the uncached engine, pinned by `proptest_lsm`)
    /// serves, through flushes and compactions.
    #[test]
    fn accelerated_lsm_reads_match_the_model(
        ops in proptest::collection::vec(kv_op(), 1..200),
        budget in prop_oneof![Just(0u64), 16_384..(2u64 << 20)],
        level in 0..=9u8,
    ) {
        let opts = LsmOptions {
            tuning: EngineTuning::for_device(0)
                .with_cache_bytes(budget)
                .with_compression_level(level),
            ..LsmOptions::small()
        };
        drive_lsm(LsmDb::open(vfs(), opts).expect("open"), &ops);
    }

    /// Same property for the hashlog's value/segment cache and
    /// whole-segment compression.
    #[test]
    fn accelerated_hashlog_reads_match_the_model(
        ops in proptest::collection::vec(kv_op(), 1..200),
        budget in prop_oneof![Just(0u64), 16_384..(2u64 << 20)],
        level in 0..=9u8,
    ) {
        let opts = HashLogOptions {
            tuning: EngineTuning::for_device(0)
                .with_cache_bytes(budget)
                .with_compression_level(level),
            ..HashLogOptions::small()
        };
        drive_hashlog(HashLogDb::open(vfs(), opts).expect("open"), &ops);
    }

    /// Halving ages popularity; it must never *raise* any estimate.
    #[test]
    fn sketch_halving_never_inflates_estimates(
        keys in proptest::collection::vec(any::<u64>(), 1..400),
        hint in 64..4096usize,
    ) {
        let mut sketch = CountMinSketch::new(hint);
        for &k in &keys {
            sketch.record(k);
        }
        let before: Vec<u8> = keys.iter().map(|&k| sketch.estimate(k)).collect();
        sketch.halve();
        for (&k, &b) in keys.iter().zip(&before) {
            let after = sketch.estimate(k);
            prop_assert!(
                after <= b,
                "halving inflated estimate of {k}: {b} -> {after}"
            );
            prop_assert!(after >= b / 2, "halving lost more than half: {b} -> {after}");
        }
    }

    /// The byte budget is a hard invariant across arbitrary access
    /// streams, whatever the admission gate decides.
    #[test]
    fn cache_bytes_never_exceed_budget(
        accesses in proptest::collection::vec(
            (0..64u64, 0..8u64, 1..4096usize, 0..4u8), 1..500),
        budget in 1024..(64u64 << 10),
    ) {
        let mut cache = BlockCache::new(budget);
        for (tag, offset, len, touches) in accesses {
            let cache_key = (tag, offset * 4096);
            for _ in 0..touches {
                cache.get(&cache_key);
            }
            cache.insert(cache_key, std::sync::Arc::new(vec![0xCD; len]), len as u64);
            prop_assert!(
                cache.used_bytes() <= cache.budget(),
                "{} resident bytes over the {} budget",
                cache.used_bytes(),
                cache.budget()
            );
        }
        let s = cache.stats();
        prop_assert!(
            s.admissions >= cache.len() as u64,
            "every resident entry was admitted"
        );
    }

    /// The container round-trips arbitrary payloads losslessly at every
    /// level, and never reports a body larger than stored-mode allows.
    #[test]
    fn compression_round_trips_losslessly(
        raw in proptest::collection::vec(any::<u8>(), 0..8192),
        level in 1..=9u8,
    ) {
        let codec = Compression::from_level(level);
        let encoded = codec.encode(&raw);
        prop_assert!(
            encoded.len() <= raw.len() + 8,
            "container may add only its 8-byte header"
        );
        let decoded = Compression::decode(&encoded).expect("well-formed container");
        prop_assert_eq!(decoded, raw);
    }

    /// Compressible payloads actually shrink (the codec is not a
    /// stored-only placebo), and the level knob is monotone in cost
    /// accounting.
    #[test]
    fn repetitive_payloads_shrink(chunk in proptest::collection::vec(any::<u8>(), 16..64)) {
        let raw = chunk.repeat(64);
        let codec = Compression::from_level(3);
        let encoded = codec.encode(&raw);
        prop_assert!(
            encoded.len() < raw.len() / 2,
            "64x-repeated data must compress: {} -> {}",
            raw.len(),
            encoded.len()
        );
        prop_assert_eq!(Compression::decode(&encoded).expect("decode"), raw);
        prop_assert!(codec.encode_cost_ns(raw.len()) > Compression::decode_cost_ns(raw.len()));
    }
}
