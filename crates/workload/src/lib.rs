//! # ptsbench-workload — key-value workload generation
//!
//! Deterministic, seedable generators for the workloads of the paper's
//! §3.2 and §4.8:
//!
//! * the **default workload** — 16-byte keys, 4000-byte values, sequential
//!   bulk load followed by single-threaded uniform-random updates;
//! * the **small-value variant** — 128-byte values with proportionally
//!   more keys (Fig 11c/d);
//! * the **mixed variant** — 50:50 read:write (Fig 11a/b);
//! * plus a Zipfian key distribution for skewed-access studies;
//! * and [`arrival`] — open/closed-loop request-arrival processes for
//!   the serving front-end (`ptsbench-harness`).
//!
//! Keys are fixed-width and order-preserving (lexicographic order equals
//! numeric order), so sequential loads produce sorted ingestion as in the
//! paper. Values are deterministic functions of `(key, version)` so any
//! read can be verified.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod arrival;
mod dist;
mod generator;
mod spec;

pub use arrival::{ArrivalClock, ArrivalSpec};
pub use dist::{KeyDistribution, Sampler};
pub use generator::{Loader, Op, OpGenerator, OpKind};
pub use spec::{route_hash, split_seed, WorkloadSpec};

/// Encodes key index `idx` as a fixed-width, order-preserving key of
/// `key_size` bytes into `buf` (cleared first).
///
/// Layout: `"k"` padding followed by a zero-padded decimal, so that
/// lexicographic order equals numeric order and keys look like the
/// YCSB-style keys used in practice.
pub fn encode_key(idx: u64, key_size: usize, buf: &mut Vec<u8>) {
    buf.clear();
    // Decimal digits, written backwards into a stack buffer wide enough
    // for u64::MAX: no heap string per key.
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    let mut rest = idx;
    loop {
        start -= 1;
        digits[start] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    let digits = &digits[start..];
    assert!(
        key_size > digits.len(),
        "key_size {key_size} too small for index {idx}"
    );
    buf.resize(key_size - digits.len(), b'0');
    buf[0] = b'k';
    buf.extend_from_slice(digits);
}

/// Decodes a key produced by [`encode_key`] back to its index.
pub fn decode_key(key: &[u8]) -> u64 {
    let digits: String = key[1..].iter().map(|&b| b as char).collect();
    digits.trim_start_matches('0').parse().unwrap_or(0)
}

/// Fills `buf` with `value_size` deterministic bytes derived from
/// `(key_idx, version)` (cleared first). Cheap: one multiply-xorshift
/// per 8 bytes.
pub fn fill_value(key_idx: u64, version: u64, value_size: usize, buf: &mut Vec<u8>) {
    buf.clear();
    buf.reserve(value_size);
    let mut state = key_idx
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(version.wrapping_mul(0xD1B5_4A32_D192_ED03))
        | 1;
    while buf.len() + 8 <= value_size {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        buf.extend_from_slice(&state.to_le_bytes());
    }
    while buf.len() < value_size {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        buf.push((state >> 56) as u8);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_order_preserving() {
        let mut a = Vec::new();
        let mut b = Vec::new();
        encode_key(42, 16, &mut a);
        encode_key(43, 16, &mut b);
        assert!(a < b);
        assert_eq!(a.len(), 16);
        encode_key(999_999, 16, &mut b);
        assert!(a < b);
    }

    #[test]
    fn keys_round_trip() {
        let mut buf = Vec::new();
        for idx in [0, 1, 7, 10, 1000, 123_456_789] {
            encode_key(idx, 16, &mut buf);
            assert_eq!(decode_key(&buf), idx);
        }
        // Twenty digits: the widest index there is.
        encode_key(u64::MAX, 21, &mut buf);
        assert_eq!(buf, b"k18446744073709551615");
        assert_eq!(decode_key(&buf), u64::MAX);
    }

    #[test]
    fn values_are_deterministic_and_version_sensitive() {
        let mut v1 = Vec::new();
        let mut v2 = Vec::new();
        fill_value(5, 0, 100, &mut v1);
        fill_value(5, 0, 100, &mut v2);
        assert_eq!(v1, v2);
        assert_eq!(v1.len(), 100);
        fill_value(5, 1, 100, &mut v2);
        assert_ne!(v1, v2, "different versions must differ");
        fill_value(6, 0, 100, &mut v2);
        assert_ne!(v1, v2, "different keys must differ");
    }

    #[test]
    fn value_sizes_exact() {
        let mut v = Vec::new();
        for size in [0, 1, 7, 8, 9, 4000] {
            fill_value(1, 1, size, &mut v);
            assert_eq!(v.len(), size);
        }
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn oversized_index_panics() {
        let mut buf = Vec::new();
        encode_key(u64::MAX, 8, &mut buf);
    }
}
