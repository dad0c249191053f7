//! Operation stream and bulk-load generation.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::dist::Sampler;
use crate::spec::WorkloadSpec;
use crate::{encode_key, fill_value};

/// The kind of a generated operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Point lookup.
    Read,
    /// Update (overwrite) of an existing key.
    Update,
}

/// One generated operation, borrowing the generator's internal buffers.
#[derive(Debug)]
pub struct Op<'a> {
    /// Read or update.
    pub kind: OpKind,
    /// Encoded key.
    pub key: &'a [u8],
    /// Value payload (empty for reads).
    pub value: &'a [u8],
    /// The key's index (for model checking in tests).
    pub key_index: u64,
}

/// Generates the update/read phase of a workload.
#[derive(Debug)]
pub struct OpGenerator {
    spec: WorkloadSpec,
    sampler: Sampler,
    rng: SmallRng,
    /// Version of every key this generator has updated, by local index
    /// (`key_index - key_base`); an absent key is at version 0, as
    /// bulk-loaded. Memory follows the keys updated, not the key space:
    /// a fan-in client updates a few dozen keys of thousands. Never
    /// iterated — only looked up and inserted into — so its hash order
    /// cannot reach an op stream or a report.
    versions: HashMap<u64, u32, BuildHasherDefault<LocalIndexHasher>>,
    key_buf: Vec<u8>,
    value_buf: Vec<u8>,
}

/// Fibonacci hashing of a local key index: one multiply spreads the
/// small integers the version table is keyed by over the hash's high
/// and low bits alike. The keys come from the generator's own sampler,
/// never from outside the program, so no collision resistance is
/// needed.
#[derive(Debug, Default)]
struct LocalIndexHasher(u64);

impl Hasher for LocalIndexHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

impl OpGenerator {
    /// Builds a generator for `spec`'s update phase. Key versions start
    /// at 1 (version 0 is the bulk-loaded value).
    pub fn new(spec: WorkloadSpec) -> Self {
        spec.validate();
        let sampler = Sampler::new(spec.distribution, spec.num_keys, spec.seed);
        let rng = SmallRng::seed_from_u64(spec.seed ^ 0xDEAD_BEEF);
        Self {
            versions: HashMap::default(),
            sampler,
            rng,
            key_buf: Vec::with_capacity(spec.key_size),
            value_buf: Vec::with_capacity(spec.value_size),
            spec,
        }
    }

    /// The workload specification.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// Current version of a key (0 = as bulk-loaded). `key_index` is
    /// global; it must fall in this generator's key slice, or this
    /// panics.
    pub fn version_of(&self, key_index: u64) -> u32 {
        assert!(
            (self.spec.key_base..self.spec.key_end()).contains(&key_index),
            "key {key_index} outside this generator's slice [{}, {})",
            self.spec.key_base,
            self.spec.key_end()
        );
        let local = key_index - self.spec.key_base;
        self.versions.get(&local).copied().unwrap_or(0)
    }

    /// Produces the next operation. The returned [`Op`] borrows internal
    /// buffers and must be consumed before the next call.
    ///
    /// Key indices are global: a sharded generator (built from
    /// [`WorkloadSpec::shard`]) samples ranks within its own slice and
    /// offsets them by the slice base, so concurrent clients never
    /// collide on a key.
    pub fn next_op(&mut self) -> Op<'_> {
        // Hash-sharded specs own a scattered subset of their range:
        // rejection sampling confines the stream to owned keys while
        // preserving each key's conditional access probability.
        let local = loop {
            let local = self.sampler.sample();
            if self.spec.owns_key(self.spec.key_base + local) {
                break local;
            }
        };
        let key_index = self.spec.key_base + local;
        encode_key(key_index, self.spec.key_size, &mut self.key_buf);
        let is_read =
            self.spec.read_fraction > 0.0 && self.rng.gen::<f64>() < self.spec.read_fraction;
        if is_read {
            self.value_buf.clear();
            Op {
                kind: OpKind::Read,
                key: &self.key_buf,
                value: &self.value_buf,
                key_index,
            }
        } else {
            let version = self.versions.entry(local).or_insert(0);
            *version += 1;
            fill_value(
                key_index,
                *version as u64,
                self.spec.value_size,
                &mut self.value_buf,
            );
            Op {
                kind: OpKind::Update,
                key: &self.key_buf,
                value: &self.value_buf,
                key_index,
            }
        }
    }
}

/// Sequential bulk loader: yields every owned key once, in sorted order,
/// with its version-0 value (paper §3.2: "we ingest all KV pairs in
/// sequential order"). For a contiguous shard the loader covers exactly
/// the shard's key slice; for a hash shard it walks the parent range and
/// yields only the owned residue class — either way, per-shard loads
/// tile the global dataset exactly.
#[derive(Debug)]
pub struct Loader {
    spec: WorkloadSpec,
    next: u64,
    produced: u64,
    key_buf: Vec<u8>,
    value_buf: Vec<u8>,
}

impl Loader {
    /// A loader over the spec's key space.
    pub fn new(spec: WorkloadSpec) -> Self {
        spec.validate();
        Self {
            next: 0,
            produced: 0,
            key_buf: Vec::with_capacity(spec.key_size),
            value_buf: Vec::with_capacity(spec.value_size),
            spec,
        }
    }

    /// Next `(key, value)` pair, or `None` when the dataset is loaded.
    pub fn next_pair(&mut self) -> Option<(&[u8], &[u8])> {
        while self.next < self.spec.num_keys && !self.spec.owns_key(self.spec.key_base + self.next)
        {
            self.next += 1;
        }
        if self.next >= self.spec.num_keys {
            return None;
        }
        let idx = self.spec.key_base + self.next;
        self.next += 1;
        self.produced += 1;
        encode_key(idx, self.spec.key_size, &mut self.key_buf);
        fill_value(idx, 0, self.spec.value_size, &mut self.value_buf);
        Some((&self.key_buf, &self.value_buf))
    }

    /// Number of pairs already produced.
    pub fn loaded(&self) -> u64 {
        self.produced
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::KeyDistribution;

    fn spec() -> WorkloadSpec {
        WorkloadSpec {
            num_keys: 100,
            key_size: 16,
            value_size: 64,
            ..Default::default()
        }
    }

    #[test]
    fn write_only_stream_is_all_updates() {
        let mut g = OpGenerator::new(spec());
        for _ in 0..1000 {
            let op = g.next_op();
            assert_eq!(op.kind, OpKind::Update);
            assert_eq!(op.key.len(), 16);
            assert_eq!(op.value.len(), 64);
        }
    }

    #[test]
    fn mixed_stream_respects_ratio() {
        let mut g = OpGenerator::new(WorkloadSpec {
            read_fraction: 0.5,
            ..spec()
        });
        let reads = (0..10_000)
            .filter(|_| g.next_op().kind == OpKind::Read)
            .count();
        let frac = reads as f64 / 10_000.0;
        assert!((frac - 0.5).abs() < 0.03, "read fraction {frac}");
    }

    #[test]
    fn updates_bump_versions_and_values_verify() {
        let mut g = OpGenerator::new(spec());
        let (idx, value) = loop {
            let op = g.next_op();
            if op.kind == OpKind::Update {
                break (op.key_index, op.value.to_vec());
            }
        };
        let version = g.version_of(idx);
        assert!(version >= 1);
        let mut expect = Vec::new();
        crate::fill_value(idx, version as u64, 64, &mut expect);
        assert_eq!(
            value, expect,
            "op value must match (key, version) derivation"
        );
    }

    #[test]
    fn loader_yields_sorted_unique_keys() {
        let mut l = Loader::new(spec());
        let mut prev: Option<Vec<u8>> = None;
        let mut count = 0;
        while let Some((k, v)) = l.next_pair() {
            if let Some(p) = &prev {
                assert!(p.as_slice() < k, "keys must be strictly increasing");
            }
            assert_eq!(v.len(), 64);
            prev = Some(k.to_vec());
            count += 1;
        }
        assert_eq!(count, 100);
        assert_eq!(l.loaded(), 100);
        assert!(l.next_pair().is_none(), "loader stays exhausted");
    }

    #[test]
    fn sharded_generators_stay_in_their_slice() {
        let base = WorkloadSpec {
            read_fraction: 0.3,
            ..spec()
        };
        for (i, shard) in base.split(4).into_iter().enumerate() {
            let lo = shard.key_base;
            let hi = shard.key_end();
            let mut g = OpGenerator::new(shard);
            for _ in 0..500 {
                let op = g.next_op();
                assert!(
                    op.key_index >= lo && op.key_index < hi,
                    "shard {i} generated key {} outside [{lo},{hi})",
                    op.key_index
                );
                let mut key = Vec::new();
                crate::encode_key(op.key_index, 16, &mut key);
                assert_eq!(op.key, key, "keys must encode the global index");
            }
        }
    }

    #[test]
    fn sharded_loaders_tile_the_dataset() {
        let base = spec();
        let mut all = Vec::new();
        for shard in base.split(3) {
            let mut l = Loader::new(shard);
            while let Some((k, _)) = l.next_pair() {
                all.push(k.to_vec());
            }
        }
        // Per-shard sequential loads, concatenated in shard order, equal
        // the unsharded sequential load.
        let mut reference = Loader::new(base);
        let mut want = Vec::new();
        while let Some((k, _)) = reference.next_pair() {
            want.push(k.to_vec());
        }
        assert_eq!(all, want);
    }

    #[test]
    fn sharded_versions_track_global_indices() {
        let shard = spec().shard(1, 2);
        let mut g = OpGenerator::new(shard);
        let op_idx = {
            let op = g.next_op();
            assert_eq!(op.kind, OpKind::Update);
            op.key_index
        };
        assert!(g.version_of(op_idx) >= 1);
    }

    #[test]
    #[should_panic(expected = "outside this generator's slice")]
    fn version_of_below_the_slice_panics() {
        let shard = spec().shard(1, 2);
        let below = shard.key_base - 1;
        OpGenerator::new(shard).version_of(below);
    }

    #[test]
    #[should_panic(expected = "outside this generator's slice")]
    fn version_of_at_the_slice_end_panics() {
        let shard = spec().shard(0, 2);
        let end = shard.key_end();
        OpGenerator::new(shard).version_of(end);
    }

    #[test]
    fn streams_are_deterministic() {
        let mut a = OpGenerator::new(WorkloadSpec {
            read_fraction: 0.3,
            distribution: KeyDistribution::Zipfian { theta: 0.9 },
            ..spec()
        });
        let mut b = OpGenerator::new(WorkloadSpec {
            read_fraction: 0.3,
            distribution: KeyDistribution::Zipfian { theta: 0.9 },
            ..spec()
        });
        for _ in 0..500 {
            let (ka, va, kia) = {
                let op = a.next_op();
                (op.key.to_vec(), op.value.to_vec(), op.key_index)
            };
            let op = b.next_op();
            assert_eq!(ka, op.key);
            assert_eq!(va, op.value);
            assert_eq!(kia, op.key_index);
        }
    }
}
