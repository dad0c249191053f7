//! `cmp_keys` against the order it stands in for, `<[u8]>::cmp`: on
//! unrelated keys, keys that share a prefix of any length (so the first
//! difference falls in any word or in the tail), keys one of which is a
//! prefix of the other, and keys as the workloads encode them.

use proptest::prelude::*;

use ptsbench_vfs::cmp_keys;
use ptsbench_workload::encode_key;

/// A byte that is often an extreme: where a word compare that treated
/// bytes as signed, or words as little-endian, would order wrongly.
fn byte() -> impl Strategy<Value = u8> {
    prop_oneof![
        2 => Just(0x00u8),
        2 => Just(0xFF),
        1 => Just(0x7F),
        1 => Just(0x80),
        4 => any::<u8>(),
    ]
}

/// 0 to `max` bytes.
fn bytes(max: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(byte(), 0..=max)
}

/// `prefix` then `tail`, cut at 40 bytes.
fn joined(prefix: &[u8], tail: &[u8]) -> Vec<u8> {
    let mut key = [prefix, tail].concat();
    key.truncate(40);
    key
}

fn key_pair() -> impl Strategy<Value = (Vec<u8>, Vec<u8>)> {
    prop_oneof![
        2 => (bytes(40), bytes(40)),
        4 => (bytes(40), bytes(12), bytes(12)).prop_map(|(prefix, x, y)| {
            (joined(&prefix, &x), joined(&prefix, &y))
        }),
        // `cut` past the end gives two equal keys.
        2 => (bytes(40), 0..=44usize).prop_map(|(a, cut)| {
            let b = a[..cut.min(a.len())].to_vec();
            (a, b)
        }),
        2 => (0..100_000_000u64, 0..100_000_000u64, 9..=24usize, 9..=24usize).prop_map(
            |(i, j, size_i, size_j)| {
                let (mut a, mut b) = (Vec::new(), Vec::new());
                encode_key(i, size_i, &mut a);
                encode_key(j, size_j, &mut b);
                (a, b)
            }
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]
    #[test]
    fn cmp_keys_is_byte_order((a, b) in key_pair()) {
        prop_assert_eq!(cmp_keys(&a, &b), a.cmp(&b), "{:?} vs {:?}", a, b);
        prop_assert_eq!(cmp_keys(&b, &a), b.cmp(&a), "{:?} vs {:?}", b, a);
        prop_assert_eq!(cmp_keys(&a, &a), std::cmp::Ordering::Equal);
    }
}
