//! Configuration of concurrent sharded experiments.
//!
//! A [`ShardedRun`] describes a multi-client experiment: the paper's
//! methodology (captured by a base [`RunConfig`]) scaled out over `M`
//! shared-nothing engine shards driven by `N` client threads — the
//! KVell-style deployment the paper's §4.1 discusses, and the request
//! parallelism Roh et al. show flash SSDs need before they reveal
//! their real behavior.
//!
//! Each shard is a fully independent stack: its own simulated device
//! (an equal slice of the configured total capacity, with the profile's
//! reference capacity sliced the same way so reference-scale rates stay
//! comparable), its own filesystem partition, its own engine instance,
//! and its own slice of the global key space with an independently
//! seeded op stream (`WorkloadSpec::shard`). The *driver* for this
//! configuration lives in the `ptsbench-harness` crate; this module
//! only derives the per-shard pieces, so `ptsbench-core` stays free of
//! threading concerns.

use ptsbench_workload::WorkloadSpec;

use crate::runner::RunConfig;

/// How the global key space is routed onto shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Sharding {
    /// Contiguous slices of the key range (`WorkloadSpec::shard`): the
    /// classic range partitioning, vulnerable to hot contiguous ranges.
    #[default]
    Contiguous,
    /// Hash routing (`WorkloadSpec::shard_hashed`): every key is owned
    /// by the shard its hash selects, spreading skewed access patterns
    /// uniformly across shards.
    Hashed,
}

/// A concurrent sharded experiment: `clients` threads over `shards`
/// engine shards.
#[derive(Debug, Clone)]
pub struct ShardedRun {
    /// The experiment template. `device_bytes` is the *total* simulated
    /// capacity across all shards; `seed` seeds the global workload
    /// before per-shard splitting.
    pub base: RunConfig,
    /// Client threads driving the shards. Shard `i` belongs to client
    /// `i % clients`, so clients own disjoint shard subsets.
    pub clients: usize,
    /// Engine shards (each its own device slice + engine instance).
    /// Must be `>= clients`; defaults to one shard per client.
    pub shards: usize,
    /// Key-to-shard routing (contiguous slices by default).
    pub sharding: Sharding,
}

impl ShardedRun {
    /// A sharded run with one shard per client.
    pub fn new(base: RunConfig, clients: usize) -> Self {
        Self {
            base,
            clients,
            shards: clients,
            sharding: Sharding::default(),
        }
    }

    /// Panics with a description if the configuration is inconsistent.
    pub fn validate(&self) {
        assert!(self.clients > 0, "need at least one client");
        assert!(
            self.shards >= self.clients,
            "{} clients cannot drive {} shards (shards would idle)",
            self.clients,
            self.shards
        );
        assert!(
            self.base.device_bytes.is_multiple_of(self.shards as u64),
            "device_bytes {} must divide evenly into {} shards",
            self.base.device_bytes,
            self.shards
        );
    }

    /// Simulated capacity of one shard.
    pub(crate) fn shard_device_bytes(&self) -> u64 {
        self.base.device_bytes / self.shards as u64
    }

    /// Reference-scale factor shared by every shard.
    ///
    /// Shard devices slice the reference capacity the same way as the
    /// simulated capacity, so all shards report at one common scale and
    /// per-shard rates sum to run-level rates. This is the *per-shard*
    /// ratio: when `reference_capacity` does not divide evenly by the
    /// shard count, integer slicing rounds it down by up to
    /// `shards - 1` bytes, so this can differ from `base.scale()` by a
    /// sub-ppb amount — use this accessor, not `base.scale()`, when
    /// converting merged rates.
    pub fn scale(&self) -> f64 {
        if self.shards <= 1 {
            self.base.scale()
        } else {
            self.shard_config(0).scale()
        }
    }

    /// The global workload across all shards.
    pub fn workload(&self) -> WorkloadSpec {
        self.base.workload()
    }

    /// Shard `index`'s slice of the global workload (contiguous range
    /// or hashed residue class per [`ShardedRun::sharding`]), with an
    /// independently seeded op stream.
    pub fn shard_workload(&self, index: usize) -> WorkloadSpec {
        match self.sharding {
            Sharding::Contiguous => self.workload().shard(index, self.shards),
            Sharding::Hashed => self.workload().shard_hashed(index, self.shards),
        }
    }

    /// Shard `index`'s run configuration: an equal capacity slice with
    /// the device profile's reference capacity sliced identically (so
    /// per-shard reference-scale rates sum to run-level rates), seeded
    /// from the shard workload.
    pub fn shard_config(&self, index: usize) -> RunConfig {
        assert!(index < self.shards, "shard {index} out of {}", self.shards);
        let mut profile = self.base.profile.clone();
        profile.reference_capacity = (profile.reference_capacity / self.shards as u64).max(1);
        RunConfig {
            profile,
            device_bytes: self.shard_device_bytes(),
            seed: self.shard_workload(index).seed,
            ..self.base.clone()
        }
    }

    /// Client owning a shard.
    pub(crate) fn client_of_shard(&self, shard: usize) -> usize {
        shard % self.clients
    }

    /// The shards a client owns, in index order.
    pub fn shards_of_client(&self, client: usize) -> Vec<usize> {
        (0..self.shards)
            .filter(|s| self.client_of_shard(*s) == client)
            .collect()
    }

    /// Human-readable label for report headers. The hashed routing mode
    /// is tagged explicitly; the contiguous default stays untagged so
    /// pre-existing report labels are unchanged.
    pub fn label(&self) -> String {
        format!(
            "{}/c{}s{}{}",
            self.base.label(),
            self.clients,
            self.shards,
            match self.sharding {
                Sharding::Contiguous => "",
                Sharding::Hashed => "/hash",
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::EngineKind;

    fn sharded(clients: usize, shards: usize) -> ShardedRun {
        let mut s = ShardedRun::new(
            RunConfig {
                engine: EngineKind::lsm(),
                device_bytes: 64 << 20,
                ..RunConfig::default()
            },
            clients,
        );
        s.shards = shards;
        s
    }

    #[test]
    fn shard_configs_slice_capacity_and_reference_scale() {
        let run = sharded(2, 4);
        run.validate();
        assert_eq!(run.shard_device_bytes(), 16 << 20);
        for i in 0..4 {
            let cfg = run.shard_config(i);
            assert_eq!(cfg.device_bytes, 16 << 20);
            // Every shard reports at exactly the shared run scale.
            assert_eq!(cfg.scale(), run.scale());
        }
    }

    #[test]
    fn scale_is_shared_even_when_reference_capacity_does_not_divide() {
        // SSD1's 400 GB reference is not a multiple of 3: integer
        // slicing rounds each shard's reference capacity, and scale()
        // must report the per-shard ratio all shards actually use.
        let mut run = sharded(3, 3);
        run.base.device_bytes = 48 << 20;
        run.validate();
        for i in 0..3 {
            assert_eq!(run.shard_config(i).scale(), run.scale());
        }
        // The rounding drift vs the unsliced ratio stays sub-ppb.
        let rel = (run.scale() - run.base.scale()).abs() / run.base.scale();
        assert!(rel < 1e-9, "drift {rel}");
    }

    #[test]
    fn shard_workloads_tile_the_global_dataset() {
        let run = sharded(2, 4);
        let global = run.workload();
        let total: u64 = (0..4).map(|i| run.shard_workload(i).num_keys).sum();
        assert_eq!(total, global.num_keys);
        let mut next = 0;
        for i in 0..4 {
            let w = run.shard_workload(i);
            assert_eq!(w.key_base, next);
            next = w.key_end();
        }
    }

    #[test]
    fn clients_own_disjoint_shard_subsets() {
        let run = sharded(3, 6);
        let mut seen = [false; 6];
        for c in 0..3 {
            for s in run.shards_of_client(c) {
                assert!(!seen[s], "shard {s} owned twice");
                seen[s] = true;
                assert_eq!(run.client_of_shard(s), c);
            }
        }
        assert!(seen.iter().all(|&x| x));
    }

    #[test]
    fn labels_carry_topology() {
        let run = sharded(2, 4);
        let label = run.label();
        assert!(label.contains("c2s4"), "{label}");
        assert!(label.contains("lsm"));
    }

    #[test]
    #[should_panic(expected = "cannot drive")]
    fn more_shards_than_clients_required() {
        let run = sharded(4, 2);
        run.validate();
    }
}
