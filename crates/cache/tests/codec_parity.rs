//! Byte parity of the block codec across rewrites of its match finder:
//! every container `Compression::encode` emits over a fixed seeded
//! input family × levels 1–9 is folded into FNV-1a sums, next to how
//! many of them fell back to stored mode. The constants were recorded
//! on the commit whose `compress_body` walked `usize::MAX`-terminated
//! chains byte by byte (PR 16); table images, segment files and every
//! compressed-tier figure are made of these bytes, so a change that
//! only makes the encoder faster must not move any of them.

use ptsbench_cache::Compression;
use ptsbench_workload::{encode_key, fill_value};

/// FNV-1a over container bytes, length-delimited per container.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn feed(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self.0 ^= bytes.len() as u64;
        self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
    }
}

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

const RECORDED: &str = "\
random stored=162 lz=0 bytes=4587291 fnv=91bbe9729c596f94\n\
constant stored=54 lz=108 bytes=106893 fnv=630e1a19467dd42c\n\
alphabet3 stored=54 lz=108 bytes=2549117 fnv=a266c2128792b2d2\n\
alphabet17 stored=117 lz=45 bytes=4342862 fnv=ebb265dae023c7a5\n\
periodic_text stored=54 lz=108 bytes=111591 fnv=40c220a61722d8f2\n\
counter_div7 stored=54 lz=108 bytes=821065 fnv=c7081ee1a7a736a9\n\
planted_repeats stored=108 lz=54 bytes=4262588 fnv=11d635a3a97a56c2\n\
long_range stored=0 lz=9 bytes=1640694 fnv=0eb75ca169377eb2\n\
blocks_2x4000B stored=72 lz=0 bytes=579744 fnv=37fc987637dcec89\n\
blocks_64x100B stored=0 lz=72 bytes=485579 fnv=d9db21547fe4ff50\n\
blocks_300x8B stored=0 lz=72 bytes=288106 fnv=bb84ccef1954f669\n\
level1 stored=75 lz=76 bytes=2293724 fnv=057ae1543db3f6c8\n\
level2 stored=75 lz=76 bytes=2249269 fnv=1612ca0e19a7368f\n\
level3 stored=75 lz=76 bytes=2219872 fnv=ea80cd38433a3a58\n\
level4 stored=75 lz=76 bytes=2198256 fnv=8b638936b9107a30\n\
level5 stored=75 lz=76 bytes=2182691 fnv=560ae250974d67ea\n\
level6 stored=75 lz=76 bytes=2170468 fnv=247c8bbb10c77727\n\
level7 stored=75 lz=76 bytes=2160770 fnv=e1cb2e5b6588a49e\n\
level8 stored=75 lz=76 bytes=2153215 fnv=1e3011d830f24306\n\
level9 stored=75 lz=76 bytes=2147265 fnv=1c699302e73be4c6\n\
";

#[test]
fn every_container_matches_the_recorded_bytes() {
    let actual = run_family();
    assert!(
        actual == RECORDED,
        "the codec's output drifted from the recorded constants; it now renders:\n{actual}"
    );
}
