//! Byte parity of the block codec across rewrites of its match finder:
//! every container `Compression::encode` emits over a fixed seeded
//! input family × levels 1–9 is folded into FNV-1a sums, next to how
//! many of them fell back to stored mode. The constants were recorded
//! on the commit whose `compress_body` walked `usize::MAX`-terminated
//! chains byte by byte (PR 16); table images, segment files and every
//! compressed-tier figure are made of these bytes, so a change that
//! only makes the encoder faster must not move any of them.

use ptsbench_cache::Compression;
use ptsbench_testkit::{assert_golden, Fnv};
use ptsbench_workload::{encode_key, fill_value};

/// The test's own generator (splitmix64): the inputs must not move with
/// any library's RNG.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| (self.next() >> 56) as u8).collect()
    }
}

/// Around every length the codec treats specially: nothing to hash
/// (< `MIN_MATCH`), one token's longest match (131), the blocks the
/// engines seal, and the 16-bit distance limit.
const LENGTHS: [usize; 18] = [
    0, 1, 2, 3, 4, 5, 131, 132, 133, 134, 135, 136, 4_096, 8_032, 65_535, 65_536, 65_540, 300_000,
];

/// One named group of inputs.
struct Family {
    name: &'static str,
    inputs: Vec<Vec<u8>>,
}

/// `make(len, rng)` at every length of [`LENGTHS`].
fn per_length(name: &'static str, seed: u64, make: impl Fn(usize, &mut Rng) -> Vec<u8>) -> Family {
    let mut rng = Rng(seed);
    let inputs = LENGTHS
        .iter()
        .map(|&len| {
            let raw = make(len, &mut rng);
            assert_eq!(raw.len(), len);
            raw
        })
        .collect();
    Family { name, inputs }
}

/// Random bytes with 4–64 byte chunks copied forward from earlier
/// offsets, so matches of every short length exist at random distances.
fn planted_repeats(len: usize, rng: &mut Rng) -> Vec<u8> {
    let mut raw = rng.bytes(len);
    if len < 200 {
        return raw;
    }
    for _ in 0..len / 96 {
        let n = 4 + rng.below(61);
        let src = rng.below(len - n);
        let dst = rng.below(len - n);
        if src + n <= dst {
            raw.copy_within(src..src + n, dst);
        }
    }
    raw
}

/// 200 000 random bytes with three chunks planted twice: exactly
/// `MAX_DIST` apart (the farthest a token can reach), one byte beyond
/// it, and 150 000 apart. The first is long enough to pay for the
/// literal framing of everything else, so the container stays in LZ
/// mode and the two unreachable copies show up as literals in the sum.
fn long_range() -> Vec<u8> {
    let mut raw = Rng(0x1018).bytes(200_000);
    raw.copy_within(0..20_000, 65_535);
    raw.copy_within(30_000..40_000, 30_000 + 65_536);
    raw.copy_within(45_000..50_000, 45_000 + 150_000);
    raw
}

/// The LSM's entry layout (`sstable/format.rs::encode_entry`).
fn push_entry(block: &mut Vec<u8>, key: &[u8], value: &[u8]) {
    block.extend_from_slice(&(key.len() as u16).to_le_bytes());
    block.extend_from_slice(&(value.len() as u32).to_le_bytes());
    block.extend_from_slice(key);
    block.extend_from_slice(value);
}

/// Blocks as the engines seal them at the runner's geometry: 16-byte
/// `encode_key` keys in order, `fill_value` values.
fn engine_blocks(entries: u64, value_size: usize) -> Vec<Vec<u8>> {
    let (mut key, mut value) = (Vec::new(), Vec::new());
    (0..8u64)
        .map(|b| {
            let mut block = Vec::new();
            for e in 0..entries {
                let idx = 1_000 * b + e;
                encode_key(idx, 16, &mut key);
                fill_value(idx, b, value_size, &mut value);
                push_entry(&mut block, &key, &value);
            }
            block
        })
        .collect()
}

fn families() -> Vec<Family> {
    let alphabet = |symbols: usize| {
        move |len: usize, rng: &mut Rng| -> Vec<u8> {
            (0..len).map(|_| b'a' + rng.below(symbols) as u8).collect()
        }
    };
    vec![
        per_length("random", 1, |len, rng| rng.bytes(len)),
        per_length("constant", 2, |len, _| vec![0x5a; len]),
        per_length("alphabet3", 3, alphabet(3)),
        per_length("alphabet17", 4, alphabet(17)),
        per_length("periodic_text", 5, |len, _| {
            b"the quick brown fox jumps over the lazy dog. "
                .iter()
                .copied()
                .cycle()
                .take(len)
                .collect()
        }),
        per_length("counter_div7", 6, |len, _| {
            (0u32..)
                .flat_map(|i| (i / 7).to_le_bytes())
                .take(len)
                .collect()
        }),
        per_length("planted_repeats", 7, planted_repeats),
        Family {
            name: "long_range",
            inputs: vec![long_range()],
        },
        Family {
            name: "blocks_2x4000B",
            inputs: engine_blocks(2, 4_000),
        },
        Family {
            name: "blocks_64x100B",
            inputs: engine_blocks(64, 100),
        },
        Family {
            name: "blocks_300x8B",
            inputs: engine_blocks(300, 8),
        },
    ]
}

/// What one group of containers folded to.
#[derive(Clone, Copy)]
struct Tally {
    stored: u32,
    lz: u32,
    bytes: u64,
    fnv: Fnv,
}

impl Tally {
    fn new() -> Self {
        Self {
            stored: 0,
            lz: 0,
            bytes: 0,
            fnv: Fnv::new(),
        }
    }

    fn add(&mut self, container: &[u8]) {
        match container[2] {
            0 => self.stored += 1,
            1 => self.lz += 1,
            mode => panic!("unknown container mode {mode}"),
        }
        self.bytes += container.len() as u64;
        self.fnv.feed(container);
    }

    fn render(&self, label: &str) -> String {
        format!(
            "{label} stored={} lz={} bytes={} fnv={:016x}\n",
            self.stored, self.lz, self.bytes, self.fnv.0
        )
    }
}

/// Encodes every input at every level and renders the sums twice over:
/// per family (all levels) and per level (all families).
fn run_family() -> String {
    let families = families();
    let mut by_level = [Tally::new(); 9];
    let mut out = String::new();
    for family in &families {
        let mut tally = Tally::new();
        for raw in &family.inputs {
            for level in 1..=9u8 {
                let container = Compression::from_level(level).encode(raw);
                assert_eq!(
                    Compression::decode(&container).as_deref(),
                    Some(raw.as_slice()),
                    "{} ({} bytes) at level {level} must round-trip",
                    family.name,
                    raw.len()
                );
                tally.add(&container);
                by_level[level as usize - 1].add(&container);
            }
        }
        out += &tally.render(family.name);
    }
    for (i, tally) in by_level.iter().enumerate() {
        out += &tally.render(&format!("level{}", i + 1));
    }
    out
}

#[test]
fn every_container_matches_the_recorded_bytes() {
    assert_golden("parity/cache/codec_parity/RECORDED.txt", &run_family());
}
