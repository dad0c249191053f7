//! Workload specifications.

use crate::dist::KeyDistribution;

/// A complete description of a benchmark workload (paper §3.2).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Number of distinct keys in the dataset.
    pub num_keys: u64,
    /// First key index of this spec's slice of the global key space.
    /// 0 for a whole workload; [`WorkloadSpec::shard`] produces specs
    /// whose slices tile a parent spec's key range.
    pub key_base: u64,
    /// Key size in bytes (paper default: 16).
    pub key_size: usize,
    /// Value size in bytes (paper default: 4000).
    pub value_size: usize,
    /// Fraction of operations that are reads (paper default: 0 — a
    /// write-only update workload; Fig 11a/b uses 0.5).
    pub read_fraction: f64,
    /// Which keys updates/reads target.
    pub distribution: KeyDistribution,
    /// RNG seed; identical specs with identical seeds produce identical
    /// op streams.
    pub seed: u64,
    /// Hash-routing filter: `Some((index, of))` when this spec owns only
    /// the keys of its key range whose [`route_hash`] lands in residue
    /// class `index` of `of` (see [`WorkloadSpec::shard_hashed`]).
    /// `None` (the default) keeps plain contiguous semantics.
    pub hash_shard: Option<(u32, u32)>,
}

impl Default for WorkloadSpec {
    /// The paper's default: write-only uniform updates over 16 B keys and
    /// 4000 B values. `num_keys` defaults to a small smoke-test size; the
    /// harness sets it from the target dataset/capacity ratio.
    fn default() -> Self {
        Self {
            num_keys: 10_000,
            key_base: 0,
            key_size: 16,
            value_size: 4000,
            read_fraction: 0.0,
            distribution: KeyDistribution::Uniform,
            seed: 0x5EED,
            hash_shard: None,
        }
    }
}

impl WorkloadSpec {
    /// Bytes of one key-value pair.
    pub(crate) fn kv_pair_bytes(&self) -> u64 {
        (self.key_size + self.value_size) as u64
    }

    /// Number of keys this spec actually owns: `num_keys` for plain
    /// specs, the size of the hashed residue class for hash-sharded
    /// specs (O(`num_keys`) in that case — counted, not stored, so the
    /// spec stays a plain value type).
    pub fn owned_keys(&self) -> u64 {
        match self.hash_shard {
            None => self.num_keys,
            Some(_) => (self.key_base..self.key_end())
                .filter(|&k| self.owns_key(k))
                .count() as u64,
        }
    }

    /// Logical dataset size in bytes (owned keys only).
    pub fn dataset_bytes(&self) -> u64 {
        self.owned_keys() * self.kv_pair_bytes()
    }

    /// Derives `num_keys` so the dataset occupies `fraction` of
    /// `capacity_bytes` (the paper's dataset-size sweeps are expressed as
    /// dataset/capacity ratios).
    pub fn sized_to(mut self, capacity_bytes: u64, fraction: f64) -> Self {
        assert!(
            fraction > 0.0 && fraction < 1.0,
            "fraction must be in (0,1)"
        );
        self.num_keys =
            ((capacity_bytes as f64 * fraction) / self.kv_pair_bytes() as f64).round() as u64;
        assert!(self.num_keys > 0, "capacity too small for one KV pair");
        self
    }

    /// The `index`-th of `of` shard specifications: a contiguous slice
    /// of this spec's key range plus an independently seeded RNG
    /// stream.
    ///
    /// The slices of all `of` shards tile the parent key range exactly
    /// (no overlap, no gap), so per-shard sequential loads together
    /// ingest precisely the parent dataset, and per-shard update/read
    /// streams never touch another shard's keys. Sharding with `of ==
    /// 1` is the identity, so a 1-client sharded run is directly
    /// comparable to the unsharded runner.
    pub fn shard(&self, index: usize, of: usize) -> WorkloadSpec {
        assert!(of > 0, "cannot shard into zero parts");
        assert!(index < of, "shard index {index} out of {of}");
        if of == 1 {
            return self.clone();
        }
        let (index, of) = (index as u64, of as u64);
        let lo = self.num_keys * index / of;
        let hi = self.num_keys * (index + 1) / of;
        assert!(hi > lo, "more shards than keys ({of} > {})", self.num_keys);
        WorkloadSpec {
            num_keys: hi - lo,
            key_base: self.key_base + lo,
            seed: split_seed(self.seed, index),
            ..self.clone()
        }
    }

    /// Splits the workload into `shards` per-client specifications (see
    /// [`WorkloadSpec::shard`]).
    pub fn split(&self, shards: usize) -> Vec<WorkloadSpec> {
        (0..shards).map(|i| self.shard(i, shards)).collect()
    }

    /// The `index`-th of `of` **hash-sharded** specifications: this spec
    /// keeps the whole parent key range but owns only the keys whose
    /// [`route_hash`] falls in residue class `index`, plus an
    /// independently seeded RNG stream.
    ///
    /// Where [`WorkloadSpec::shard`] slices the key space contiguously —
    /// so a skewed (e.g. Zipfian-over-the-global-range) access pattern
    /// saturates the shard owning the hot prefix — hash routing spreads
    /// any access skew uniformly across shards, the classic cure for hot
    /// contiguous ranges. Every key of the parent range is owned by
    /// exactly one of the `of` shards (property-tested in
    /// `tests/proptest_hash_sharding.rs`), and generators/loaders built
    /// from a hashed spec confine themselves to the owned set by
    /// rejection, preserving each key's conditional access probability.
    pub fn shard_hashed(&self, index: usize, of: usize) -> WorkloadSpec {
        assert!(of > 0, "cannot shard into zero parts");
        assert!(index < of, "shard index {index} out of {of}");
        if of == 1 {
            return self.clone();
        }
        assert!(
            of as u64 <= self.num_keys,
            "more hash shards than keys ({of} > {})",
            self.num_keys
        );
        let spec = WorkloadSpec {
            hash_shard: Some((index as u32, of as u32)),
            seed: split_seed(self.seed, index as u64),
            ..self.clone()
        };
        assert!(
            spec.owns_any_key(),
            "hash shard {index}/{of} owns no keys of a {}-key range",
            self.num_keys
        );
        spec
    }

    /// Splits the workload into `shards` hash-routed specifications (see
    /// [`WorkloadSpec::shard_hashed`]).
    pub fn split_hashed(&self, shards: usize) -> Vec<WorkloadSpec> {
        (0..shards).map(|i| self.shard_hashed(i, shards)).collect()
    }

    /// End of this spec's key range (`key_base + num_keys`), exclusive.
    pub fn key_end(&self) -> u64 {
        self.key_base + self.num_keys
    }

    /// Whether a global key index falls in this spec's slice (and, for a
    /// hash-sharded spec, in its residue class).
    pub fn owns_key(&self, key_index: u64) -> bool {
        if key_index < self.key_base || key_index >= self.key_end() {
            return false;
        }
        match self.hash_shard {
            None => true,
            Some((index, of)) => route_hash(key_index) % of as u64 == index as u64,
        }
    }

    /// Whether the spec owns at least one key. Stops at the first owned
    /// key: about `of` route hashes for a hash shard of `of`, where
    /// [`WorkloadSpec::owned_keys`] hashes the whole range.
    fn owns_any_key(&self) -> bool {
        (self.key_base..self.key_end()).any(|k| self.owns_key(k))
    }

    /// Basic sanity checks; panics with a description on error.
    pub fn validate(&self) {
        assert!(self.num_keys > 0);
        assert!(self.key_size >= 4 && self.key_size <= 1024);
        assert!(self.value_size <= 1 << 24);
        assert!((0.0..=1.0).contains(&self.read_fraction));
        assert!(
            self.key_base.checked_add(self.num_keys).is_some(),
            "key range overflows u64"
        );
        if let Some((index, of)) = self.hash_shard {
            assert!(of > 0, "hash shard count must be positive");
            assert!(index < of, "hash shard index {index} out of {of}");
            // A spec owning zero keys would hang the generator's
            // rejection-sampling loop; catch it here.
            assert!(
                self.owns_any_key(),
                "hash shard {index}/{of} owns no keys of a {}-key range",
                self.num_keys
            );
        }
    }
}

/// The key-routing hash (SplitMix64 finalizer): maps a global key index
/// to the value whose residue mod the shard count picks the owning
/// hash shard. Deterministic and seed-free, so every component agrees on
/// the routing.
pub fn route_hash(key_index: u64) -> u64 {
    let mut z = key_index.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives the RNG seed of shard `index` from a parent seed
/// (SplitMix64 finalizer — decorrelates the per-client streams even
/// for adjacent parent seeds).
pub fn split_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_math() {
        let s = WorkloadSpec {
            num_keys: 1000,
            key_size: 16,
            value_size: 4000,
            ..Default::default()
        };
        assert_eq!(s.kv_pair_bytes(), 4016);
        assert_eq!(s.dataset_bytes(), 4_016_000);
    }

    #[test]
    fn sized_to_hits_fraction() {
        let cap = 1_000_000_000u64;
        let s = WorkloadSpec::default().sized_to(cap, 0.5);
        let ratio = s.dataset_bytes() as f64 / cap as f64;
        assert!((ratio - 0.5).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn split_tiles_the_key_space_exactly() {
        for shards in [1usize, 2, 3, 7, 8] {
            let base = WorkloadSpec {
                num_keys: 1000,
                ..Default::default()
            };
            let parts = base.split(shards);
            assert_eq!(parts.len(), shards);
            let mut next = 0u64;
            for (i, p) in parts.iter().enumerate() {
                assert_eq!(p.key_base, next, "shard {i} must start where {} ended", i);
                assert!(p.num_keys > 0);
                next = p.key_end();
                p.validate();
            }
            assert_eq!(next, 1000, "shards must cover the whole key space");
            let total: u64 = parts.iter().map(|p| p.num_keys).sum();
            assert_eq!(total, base.num_keys);
        }
    }

    #[test]
    fn shard_of_one_is_identity() {
        let base = WorkloadSpec::default();
        assert_eq!(base.shard(0, 1), base);
    }

    #[test]
    fn shard_seeds_are_decorrelated_and_deterministic() {
        let base = WorkloadSpec::default();
        let parts = base.split(4);
        for (i, p) in parts.iter().enumerate() {
            for (j, q) in parts.iter().enumerate() {
                if i != j {
                    assert_ne!(p.seed, q.seed, "shards {i}/{j} share a seed");
                }
            }
        }
        assert_eq!(base.split(4), parts, "splitting must be deterministic");
        assert_ne!(split_seed(1, 0), split_seed(2, 0));
    }

    #[test]
    fn key_ownership_matches_slices() {
        let base = WorkloadSpec {
            num_keys: 100,
            ..Default::default()
        };
        let parts = base.split(3);
        for key in 0..100u64 {
            let owners = parts.iter().filter(|p| p.owns_key(key)).count();
            assert_eq!(owners, 1, "key {key} must have exactly one owner");
        }
        assert!(!parts[0].owns_key(100));
    }

    #[test]
    fn hash_shards_partition_without_slicing_the_range() {
        let base = WorkloadSpec {
            num_keys: 1000,
            ..Default::default()
        };
        let parts = base.split_hashed(4);
        for p in &parts {
            p.validate();
            // The range stays the parent's; ownership is by residue.
            assert_eq!(p.key_base, base.key_base);
            assert_eq!(p.num_keys, base.num_keys);
            assert!(p.owned_keys() > 0);
        }
        let total: u64 = parts.iter().map(|p| p.owned_keys()).sum();
        assert_eq!(total, base.num_keys);
        let bytes: u64 = parts.iter().map(|p| p.dataset_bytes()).sum();
        assert_eq!(bytes, base.dataset_bytes());
        // The SplitMix64 routing spreads keys near-evenly.
        for p in &parts {
            let share = p.owned_keys() as f64 / base.num_keys as f64;
            assert!(
                (0.15..0.35).contains(&share),
                "hash share {share} badly unbalanced"
            );
        }
    }

    #[test]
    fn hash_shard_of_one_is_identity() {
        let base = WorkloadSpec::default();
        assert_eq!(base.shard_hashed(0, 1), base);
    }

    #[test]
    #[should_panic(expected = "owns no keys")]
    fn hand_built_empty_hash_shard_fails_validation() {
        // A two-key range cannot populate all four residue classes; the
        // validation must catch the empty one instead of letting a
        // generator spin forever in rejection sampling.
        let empty_class = (0..4u32)
            .find(|&class| !(0..2u64).any(|k| crate::spec::route_hash(k) % 4 == class as u64))
            .expect("two keys cannot cover four classes");
        let spec = WorkloadSpec {
            num_keys: 2,
            hash_shard: Some((empty_class, 4)),
            ..WorkloadSpec::default()
        };
        spec.validate();
    }

    #[test]
    fn default_is_papers_workload() {
        let s = WorkloadSpec::default();
        assert_eq!(s.key_size, 16);
        assert_eq!(s.value_size, 4000);
        assert_eq!(s.read_fraction, 0.0);
        assert_eq!(s.distribution, KeyDistribution::Uniform);
        s.validate();
    }
}
