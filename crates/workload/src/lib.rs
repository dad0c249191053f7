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
/// `(key_idx, version)` (cleared first). Cheap: one xorshift64 step
/// (three shift-xors) per 8-byte word, then one LCG step per byte of a
/// tail shorter than a word.
///
/// The words are one xorshift chain, but a long value computes it as
/// four lanes, one per quarter, that do not wait on one another: lane
/// `j` starts `j * L` steps into the chain (`L` = a quarter of the
/// words), reached by a jump (a `JumpTable`) instead of by `j * L`
/// steps. Words past the last full quarter, and the tail, follow
/// serially, so the bytes are exactly the one chain's.
pub fn fill_value(key_idx: u64, version: u64, value_size: usize, buf: &mut Vec<u8>) {
    buf.clear();
    buf.reserve(value_size);
    let mut state = key_idx
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(version.wrapping_mul(0xD1B5_4A32_D192_ED03))
        | 1;
    let lane_words = value_size / 8 / LANES;
    if lane_words >= MIN_LANE_WORDS {
        state = fill_lanes(state, lane_words, buf);
    }
    while buf.len() + 8 <= value_size {
        state = xorshift(state);
        buf.extend_from_slice(&state.to_le_bytes());
    }
    while buf.len() < value_size {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        buf.push((state >> 56) as u8);
    }
}

/// Independent lanes [`fill_value`] splits a long value's words into.
const LANES: usize = 4;

/// The shortest lane worth a jump: below 8 words a lane (values under
/// 256 bytes) the serial chain is as fast as three jumps of 16 table
/// loads each and the table lookup.
const MIN_LANE_WORDS: usize = 8;

/// Jump tables a thread keeps, one per lane length; a thread that sees
/// more lengths drops its oldest.
const JUMP_TABLES_KEPT: usize = 8;

/// One step of the xorshift64 chain.
fn xorshift(mut state: u64) -> u64 {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    state
}

/// Appends `LANES * lane_words` words of the chain that starts at
/// `state` to `buf` and returns the chain's state after the last of
/// them.
fn fill_lanes(state: u64, lane_words: usize, buf: &mut Vec<u8>) -> u64 {
    let mut lanes = [state; LANES];
    with_jump_table(lane_words, |jump| {
        for j in 1..LANES {
            lanes[j] = jump.apply(lanes[j - 1]);
        }
    });
    let lane_bytes = lane_words * 8;
    let start = buf.len();
    buf.resize(start + LANES * lane_bytes, 0);
    let (q0, rest) = buf[start..].split_at_mut(lane_bytes);
    let (q1, rest) = rest.split_at_mut(lane_bytes);
    let (q2, q3) = rest.split_at_mut(lane_bytes);
    let words = q0
        .chunks_exact_mut(8)
        .zip(q1.chunks_exact_mut(8))
        .zip(q2.chunks_exact_mut(8))
        .zip(q3.chunks_exact_mut(8));
    for (((w0, w1), w2), w3) in words {
        for lane in &mut lanes {
            *lane = xorshift(*lane);
        }
        w0.copy_from_slice(&lanes[0].to_le_bytes());
        w1.copy_from_slice(&lanes[1].to_le_bytes());
        w2.copy_from_slice(&lanes[2].to_le_bytes());
        w3.copy_from_slice(&lanes[3].to_le_bytes());
    }
    lanes[LANES - 1]
}

/// `steps` xorshift steps at once. The step is linear over GF(2), so
/// its `steps`-th power is a 64 x 64 bit matrix: column `b` is where
/// `steps` steps take the state with only bit `b` set. The columns are
/// folded into one table per state nibble, `nibbles[n][v]` being the
/// XOR of the columns of the bits `v` sets in nibble `n`.
struct JumpTable {
    steps: usize,
    nibbles: [[u64; 16]; 16],
}

impl JumpTable {
    fn new(steps: usize) -> Self {
        let mut columns: [u64; 64] = std::array::from_fn(|bit| 1 << bit);
        for _ in 0..steps {
            for column in &mut columns {
                *column = xorshift(*column);
            }
        }
        let mut nibbles = [[0u64; 16]; 16];
        for (n, table) in nibbles.iter_mut().enumerate() {
            for v in 1..16 {
                let low = v & (v - 1);
                table[v] = table[low] ^ columns[4 * n + v.trailing_zeros() as usize];
            }
        }
        Self { steps, nibbles }
    }

    /// The state `steps` steps after `state`.
    fn apply(&self, state: u64) -> u64 {
        self.nibbles.iter().enumerate().fold(0, |acc, (n, table)| {
            acc ^ table[(state >> (4 * n)) as usize & 15]
        })
    }
}

thread_local! {
    /// This thread's jump tables, most recently built last.
    static JUMP_TABLES: std::cell::RefCell<Vec<JumpTable>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Runs `f` with this thread's jump table for `steps`, built on first
/// use.
fn with_jump_table<R>(steps: usize, f: impl FnOnce(&JumpTable) -> R) -> R {
    JUMP_TABLES.with(|tables| {
        let mut tables = tables.borrow_mut();
        let i = match tables.iter().position(|table| table.steps == steps) {
            Some(i) => i,
            None => {
                if tables.len() == JUMP_TABLES_KEPT {
                    tables.remove(0);
                }
                tables.push(JumpTable::new(steps));
                tables.len() - 1
            }
        };
        f(&tables[i])
    })
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

    /// The one serial chain [`fill_value`] computes in lanes: the
    /// oracle for its bytes.
    fn fill_value_serial(key_idx: u64, version: u64, value_size: usize, buf: &mut Vec<u8>) {
        buf.clear();
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

    /// Sizes on both sides of every lane boundary (the lane threshold,
    /// whole and partial quarters, a sub-word tail) and the workloads'
    /// long values.
    fn oracle_sizes() -> impl Iterator<Item = usize> {
        (0..=600).chain([4000, 4001, 4007, 8192, 16000])
    }

    /// `(key, version)` pairs: small, large and extreme.
    const ORACLE_PAIRS: [(u64, u64); 8] = [
        (0, 0),
        (1, 1),
        (5, 0),
        (42, 7),
        (8_354, 3),
        (1 << 40, 12_345),
        (u64::MAX, 0),
        (0x9E37_79B9_7F4A_7C15, u64::MAX),
    ];

    #[test]
    fn lanes_emit_the_serial_chain_at_every_size() {
        let (mut got, mut want) = (Vec::new(), Vec::new());
        for size in oracle_sizes() {
            for (key, version) in ORACLE_PAIRS {
                fill_value(key, version, size, &mut got);
                fill_value_serial(key, version, size, &mut want);
                assert_eq!(got, want, "key {key} version {version} size {size}");
            }
        }
        // Many distinct pairs at the workloads' value size.
        for key in 0..2_000 {
            fill_value(key, key % 5, 4000, &mut got);
            fill_value_serial(key, key % 5, 4000, &mut want);
            assert_eq!(got, want, "key {key} size 4000");
        }
    }

    #[test]
    fn lanes_emit_the_serial_chain_with_sizes_interleaved_across_threads() {
        // Each thread walks the sizes in its own order, so every thread
        // builds and drops its own jump tables (more lane lengths than
        // a thread keeps) while the others do the same.
        let sizes: Vec<usize> = oracle_sizes().collect();
        std::thread::scope(|scope| {
            for t in 0..4usize {
                let sizes = &sizes;
                scope.spawn(move || {
                    let (mut got, mut want) = (Vec::new(), Vec::new());
                    for round in 0..3 {
                        for i in 0..sizes.len() {
                            let size = sizes[(i * (2 * t + 1) + round * 97) % sizes.len()];
                            let key = (t * 1_000 + i) as u64;
                            fill_value(key, round as u64, size, &mut got);
                            fill_value_serial(key, round as u64, size, &mut want);
                            assert_eq!(got, want, "thread {t} key {key} size {size}");
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn a_jump_is_that_many_steps() {
        for steps in [0, 1, 2, 16, 125, 500] {
            let jump = JumpTable::new(steps);
            for start in [1, 0x8000_0000_0000_0000, 0xDEAD_BEEF_0BAD_F00D, u64::MAX] {
                let stepped = (0..steps).fold(start, |state, _| xorshift(state));
                assert_eq!(jump.apply(start), stepped, "{steps} steps from {start:#x}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn oversized_index_panics() {
        let mut buf = Vec::new();
        encode_key(u64::MAX, 8, &mut buf);
    }
}
