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

use ptsbench_testkit::{assert_golden, Fnv};
use ptsbench_workload::{KeyDistribution, Loader, OpGenerator, OpKind, WorkloadSpec};

const NUM_KEYS: u64 = 8_355;
const OPS: usize = 20_000;
const PAIRS: usize = 1_000;

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

/// Every configuration's name and spec, in the order the recorded
/// rows list them.
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

/// `(name, checksum)` rows as the recorded files hold them.
fn render(rows: impl IntoIterator<Item = (String, u64)>) -> String {
    rows.into_iter()
        .map(|(name, sum)| format!("    (\"{name}\", 0x{sum:016x}),\n"))
        .collect()
}

/// Recorded while every generator recomputed ζ(n, θ) and held a dense
/// version table over its whole key space.
const STREAMS: &str = "parity/workload/stream_parity/STREAMS.txt";

#[test]
fn op_streams_match_the_recorded_constants() {
    let rows = configurations()
        .into_iter()
        .map(|(name, spec)| (name, stream_checksum(OpGenerator::new(spec))));
    assert_golden(STREAMS, &render(rows));
}

#[test]
fn bulk_loads_match_the_recorded_constants() {
    let rows = SHAPES.iter().map(|&shape| {
        let spec = spec(KeyDistribution::Uniform, shape, 0.0);
        (shape.to_string(), loader_checksum(spec))
    });
    assert_golden("parity/workload/stream_parity/LOADS.txt", &render(rows));
}

/// The Zipfian constants are memoised per key space: generators built
/// over alternating key spaces and skews — every configuration, seven
/// ahead of the last one each time — before any of them runs must each
/// draw their own recorded stream.
#[test]
fn interleaved_key_spaces_draw_their_own_streams() {
    let configurations = configurations();
    let count = configurations.len();
    let mut generators: Vec<_> = (0..count)
        .map(|step| step * 7 % count)
        .map(|i| (i, OpGenerator::new(configurations[i].1.clone())))
        .collect();
    generators.sort_by_key(|&(i, _)| i);
    let rows = generators
        .into_iter()
        .map(|(i, generator)| (configurations[i].0.clone(), stream_checksum(generator)));
    assert_golden(STREAMS, &render(rows));
}

/// Four threads building every configuration, each in its own order
/// and all four at once at every step, all draw the recorded streams.
#[test]
fn concurrent_construction_draws_the_recorded_streams() {
    let configurations = configurations();
    let count = configurations.len();
    let barrier = Barrier::new(4);
    // Checked after the join, not in the threads: a thread that
    // panicked would leave the others waiting at the barrier.
    let tables: Vec<String> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..4)
            .map(|thread| {
                let (configurations, barrier) = (&configurations, &barrier);
                scope.spawn(move || {
                    let mut sums = vec![0; count];
                    for step in 0..count {
                        let i = (step * 7 + thread * 5) % count;
                        barrier.wait();
                        sums[i] = stream_checksum(OpGenerator::new(configurations[i].1.clone()));
                    }
                    render(
                        configurations
                            .iter()
                            .map(|(name, _)| name.clone())
                            .zip(sums),
                    )
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("a construction thread panicked"))
            .collect()
    });
    for table in tables {
        assert_golden(STREAMS, &table);
    }
}
