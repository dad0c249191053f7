//! Property-based tests of workload generation: keys are
//! order-preserving and unique, samplers stay in range, op streams are
//! deterministic and respect their read fraction, loaders cover the key
//! space exactly once.

use proptest::prelude::*;

use ptsbench_workload::{
    decode_key, encode_key, fill_value, KeyDistribution, Loader, OpGenerator, OpKind, Sampler,
    WorkloadSpec,
};

fn distribution() -> impl Strategy<Value = KeyDistribution> {
    prop_oneof![
        Just(KeyDistribution::Uniform),
        (0.05f64..0.99).prop_map(|theta| KeyDistribution::Zipfian { theta }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Key encoding is injective and order-preserving for any pair.
    #[test]
    fn keys_order_preserving(a in 0u64..1_000_000_000, b in 0u64..1_000_000_000) {
        let (mut ka, mut kb) = (Vec::new(), Vec::new());
        encode_key(a, 16, &mut ka);
        encode_key(b, 16, &mut kb);
        prop_assert_eq!(a.cmp(&b), ka.cmp(&kb));
        prop_assert_eq!(decode_key(&ka), a);
    }

    /// Values are deterministic and size-exact for any (key, version).
    #[test]
    fn values_deterministic(k in any::<u64>(), ver in any::<u64>(), size in 0usize..5_000) {
        let (mut v1, mut v2) = (Vec::new(), Vec::new());
        fill_value(k, ver, size, &mut v1);
        fill_value(k, ver, size, &mut v2);
        prop_assert_eq!(&v1, &v2);
        prop_assert_eq!(v1.len(), size);
    }

    /// Samplers always stay within the key space.
    #[test]
    fn sampler_in_range(dist in distribution(), n in 1u64..10_000, seed in any::<u64>()) {
        let mut s = Sampler::new(dist, n, seed);
        for _ in 0..500 {
            prop_assert!(s.sample() < n);
        }
    }

    /// Generated op streams respect the spec: sizes, determinism and an
    /// approximately honored read fraction.
    #[test]
    fn op_stream_honors_spec(
        read_fraction in 0.0f64..1.0,
        value_size in 16usize..600,
        seed in any::<u64>(),
    ) {
        let spec = WorkloadSpec {
            num_keys: 500,
            key_base: 0,
            key_size: 16,
            value_size,
            read_fraction,
            distribution: KeyDistribution::Uniform,
            seed,
            hash_shard: None,
        };
        let mut g1 = OpGenerator::new(spec.clone());
        let mut g2 = OpGenerator::new(spec);
        let mut reads = 0usize;
        let total = 2_000usize;
        for _ in 0..total {
            let (k1, kind1) = {
                let op = g1.next_op();
                if op.kind == OpKind::Update {
                    prop_assert_eq!(op.value.len(), value_size);
                }
                prop_assert_eq!(op.key.len(), 16);
                (op.key.to_vec(), op.kind)
            };
            let op2 = g2.next_op();
            prop_assert_eq!(k1, op2.key.to_vec(), "generators must agree");
            prop_assert_eq!(kind1, op2.kind);
            if kind1 == OpKind::Read {
                reads += 1;
            }
        }
        let observed = reads as f64 / total as f64;
        prop_assert!(
            (observed - read_fraction).abs() < 0.08,
            "read fraction {observed} vs requested {read_fraction}"
        );
    }

    /// The loader emits every key exactly once, in strictly increasing
    /// order, with version-0 values.
    #[test]
    fn loader_covers_keyspace(num_keys in 1u64..2_000) {
        let spec = WorkloadSpec { num_keys, value_size: 32, ..WorkloadSpec::default() };
        let mut loader = Loader::new(spec);
        let mut prev: Option<Vec<u8>> = None;
        let mut count = 0u64;
        while let Some((k, v)) = loader.next_pair() {
            if let Some(p) = &prev {
                prop_assert!(p.as_slice() < k);
            }
            prop_assert_eq!(v.len(), 32);
            prev = Some(k.to_vec());
            count += 1;
        }
        prop_assert_eq!(count, num_keys);
    }
}
