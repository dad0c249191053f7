//! Property-based tests of the read-path acceleration tier:
//!
//! * the cache and codec never change what a read returns, only where
//!   the bytes come from: the engine model check (`common/model.rs`)
//!   with a codec level drawn from all ten;
//! * the TinyLFU sketch's halving never inflates an estimate;
//! * the block cache's resident bytes never exceed its budget;
//! * the compression container round-trips arbitrary payloads
//!   losslessly at every level.

use proptest::prelude::*;

use ptsbench::cache::{BlockCache, Compression, CountMinSketch};
use ptsbench::core::{EngineKind, EngineTuning};

mod common;
use common::model;

/// The model check's tuning with the codec level drawn from 0 to 9.
fn accelerated_tuning() -> impl Strategy<Value = EngineTuning> {
    model::tuning_of(model::maint(), model::cache_bytes(), 0..=9u8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The LSM serves the model's bytes through its block cache and
    /// compressed tables, across flushes and compactions.
    #[test]
    fn accelerated_lsm_reads_match_the_model(
        tuning in accelerated_tuning(),
        ops in model::ops(),
    ) {
        model::check(EngineKind::lsm(), &tuning, &ops)?;
    }

    /// The same for the hash log's value and segment cache and its
    /// whole-segment compression, across segment GC.
    #[test]
    fn accelerated_hashlog_reads_match_the_model(
        tuning in accelerated_tuning(),
        ops in model::ops(),
    ) {
        model::check(ptsbench::hashlog::register(), &tuning, &ops)?;
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
