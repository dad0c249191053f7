//! Bit parity of the client generators across refactors: for every
//! configuration in {Uniform, Zipfian 0.99, Zipfian 0.5} × {whole
//! spec, `shard(1, 4)`, `shard_hashed(1, 4)`} ×
//! read fraction {0, 0.5}, an FNV-1a over 20 000 `next_op`s (kind,
//! `key_index`, key bytes, value bytes) followed by `version_of` for
//! every key the stream touched, in key order; and for each shape one
//! over 1 000 `Loader::next_pair`s. The key space is the serving
//! fan-in's (8 355 keys). Every op stream, key, value and version a
//! benchmark run sees is a function of these generators, so a change
//! that only makes them cheaper must leave every constant where it was
//! recorded.

use std::collections::BTreeSet;
use std::sync::Barrier;

use ptsbench_workload::{KeyDistribution, Loader, OpGenerator, OpKind, WorkloadSpec};

const NUM_KEYS: u64 = 8_355;
const OPS: usize = 20_000;
const PAIRS: usize = 1_000;

/// FNV-1a, length-delimited per field.
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

const DISTRIBUTIONS: [(&str, KeyDistribution); 3] = [
    ("uniform", KeyDistribution::Uniform),
    ("zipf99", KeyDistribution::Zipfian { theta: 0.99 }),
    ("zipf50", KeyDistribution::Zipfian { theta: 0.5 }),
];

const SHAPES: [&str; 3] = ["whole", "shard", "hashed"];

const READ_FRACTIONS: [(&str, f64); 2] = [("w", 0.0), ("rw", 0.5)];

fn shaped(spec: WorkloadSpec, shape: &str) -> WorkloadSpec {
    match shape {
        "whole" => spec,
        "shard" => spec.shard(1, 4),
        "hashed" => spec.shard_hashed(1, 4),
        other => unreachable!("shape {other}"),
    }
}

fn spec(distribution: KeyDistribution, shape: &str, read_fraction: f64) -> WorkloadSpec {
    shaped(
        WorkloadSpec {
            num_keys: NUM_KEYS,
            key_size: 16,
            value_size: 100,
            read_fraction,
            distribution,
            seed: 2026,
            hash_shard: None,
            ..WorkloadSpec::default()
        },
        shape,
    )
}

/// Every configuration's name and spec, in the order of [`STREAMS`].
fn configurations() -> Vec<(String, WorkloadSpec)> {
    let mut out = Vec::new();
    for (dist_name, dist) in DISTRIBUTIONS {
        for shape in SHAPES {
            for (rf_name, rf) in READ_FRACTIONS {
                out.push((
                    format!("{dist_name}/{shape}/{rf_name}"),
                    spec(dist, shape, rf),
                ));
            }
        }
    }
    out
}

/// The checksum of one generator's first [`OPS`] operations and the
/// versions they left behind.
fn stream_checksum(mut generator: OpGenerator) -> u64 {
    let mut fnv = Fnv::new();
    let mut touched = BTreeSet::new();
    for _ in 0..OPS {
        let op = generator.next_op();
        fnv.feed(&[match op.kind {
            OpKind::Read => 0,
            OpKind::Update => 1,
        }]);
        fnv.feed(&op.key_index.to_le_bytes());
        fnv.feed(op.key);
        fnv.feed(op.value);
        touched.insert(op.key_index);
    }
    for key_index in touched {
        fnv.feed(&key_index.to_le_bytes());
        fnv.feed(&generator.version_of(key_index).to_le_bytes());
    }
    fnv.0
}

fn loader_checksum(spec: WorkloadSpec) -> u64 {
    let mut fnv = Fnv::new();
    let mut loader = Loader::new(spec);
    for _ in 0..PAIRS {
        let (key, value) = loader.next_pair().expect("the shape holds 1 000 keys");
        fnv.feed(key);
        fnv.feed(value);
    }
    fnv.0
}

/// Renders `(name, checksum)` rows as they would be pasted into a
/// constant, for a mismatch message.
fn render(rows: &[(String, u64)]) -> String {
    rows.iter()
        .map(|(name, sum)| format!("    (\"{name}\", 0x{sum:016x}),\n"))
        .collect()
}

fn assert_table(what: &str, got: Vec<(String, u64)>, want: &[(&str, u64)]) {
    let matches = got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|((gn, gs), (wn, ws))| gn == wn && gs == ws);
    assert!(
        matches,
        "{what} moved; the generators now render:\n{}",
        render(&got)
    );
}

#[test]
fn op_streams_match_the_recorded_constants() {
    let got = configurations()
        .into_iter()
        .map(|(name, spec)| (name, stream_checksum(OpGenerator::new(spec))))
        .collect();
    assert_table("op streams", got, STREAMS);
}

#[test]
fn bulk_loads_match_the_recorded_constants() {
    let got = SHAPES
        .iter()
        .map(|&shape| {
            let spec = spec(KeyDistribution::Uniform, shape, 0.0);
            (shape.to_string(), loader_checksum(spec))
        })
        .collect();
    assert_table("bulk loads", got, LOADS);
}

/// The recorded checksum of configuration `name`.
fn recorded(name: &str) -> u64 {
    STREAMS
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("no constant for {name}"))
        .1
}

/// The Zipfian constants are memoised per key space: generators built
/// over alternating key spaces — `(n, 0.99)`, `(n / 4, 0.5)`, `(n / 4,
/// 0.99)`, `(n, 0.99)` — before any of them runs must each draw their
/// own recorded stream.
#[test]
fn interleaved_key_spaces_draw_their_own_streams() {
    let configurations = configurations();
    let names = [
        "zipf99/whole/rw",
        "zipf50/shard/w",
        "zipf99/shard/rw",
        "zipf99/whole/w",
        "zipf50/hashed/rw",
        "zipf50/shard/w",
        "zipf99/hashed/w",
    ];
    let generators: Vec<(&str, OpGenerator)> = names
        .iter()
        .map(|&name| {
            let spec = configurations
                .iter()
                .find(|(n, _)| n == name)
                .expect("a recorded configuration")
                .1
                .clone();
            (name, OpGenerator::new(spec))
        })
        .collect();
    for (name, generator) in generators {
        assert_eq!(stream_checksum(generator), recorded(name), "{name}");
    }
}

/// Four threads building every configuration, each in its own order
/// and all four at once at every step, all draw the recorded streams.
#[test]
fn concurrent_construction_draws_the_recorded_streams() {
    let configurations = configurations();
    let barrier = Barrier::new(4);
    // Mismatches are collected, not asserted in the threads: a thread
    // that panicked would leave the others waiting at the barrier.
    let moved: Vec<String> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..4)
            .map(|thread| {
                let (configurations, barrier) = (&configurations, &barrier);
                scope.spawn(move || {
                    let count = configurations.len();
                    let mut moved = Vec::new();
                    for step in 0..count {
                        let (name, spec) = &configurations[(step * 7 + thread * 5) % count];
                        barrier.wait();
                        if stream_checksum(OpGenerator::new(spec.clone())) != recorded(name) {
                            moved.push(format!("thread {thread}: {name}"));
                        }
                    }
                    moved
                })
            })
            .collect();
        threads
            .into_iter()
            .flat_map(|t| t.join().expect("a construction thread panicked"))
            .collect()
    });
    assert!(moved.is_empty(), "streams moved: {moved:?}");
}

/// Recorded while every generator recomputed ζ(n, θ) and held a dense
/// version table over its whole key space.
const STREAMS: &[(&str, u64)] = &[
    ("uniform/whole/w", 0x290582906a7ea9e4),
    ("uniform/whole/rw", 0x867500743d06c62d),
    ("uniform/shard/w", 0x8a428b8769901a99),
    ("uniform/shard/rw", 0x78311c84a41de0fe),
    ("uniform/hashed/w", 0x056de29a39e2b22f),
    ("uniform/hashed/rw", 0xa16b1a6d81d927d8),
    ("zipf99/whole/w", 0xd87af5a9caaa3130),
    ("zipf99/whole/rw", 0xa70026d12ccfd491),
    ("zipf99/shard/w", 0x7f3cd922fee84212),
    ("zipf99/shard/rw", 0x97bccfaefb618a57),
    ("zipf99/hashed/w", 0xe1d1f8f3e88c7db4),
    ("zipf99/hashed/rw", 0x5c4897f156579314),
    ("zipf50/whole/w", 0x3bc6e69510eeda22),
    ("zipf50/whole/rw", 0x5b68f511041b9fdb),
    ("zipf50/shard/w", 0x3e8319035e9c2cde),
    ("zipf50/shard/rw", 0x283f393c1840814f),
    ("zipf50/hashed/w", 0x9ec746902a08c01b),
    ("zipf50/hashed/rw", 0x8adbaae82ae38ea2),
];

/// One per shape, in the order of [`SHAPES`].
const LOADS: &[(&str, u64)] = &[
    ("whole", 0x205f9624ae4de603),
    ("shard", 0x0632f5a33870d2f1),
    ("hashed", 0xc025b26f5f3a189e),
];
