//! The LSM's structural options, plus the per-run [`EngineTuning`] it
//! embeds.

use ptsbench_cache::Compression;
use ptsbench_vfs::EngineTuning;

/// Configuration of an [`crate::LsmDb`].
///
/// The defaults mirror RocksDB's leveled-compaction defaults
/// *proportionally*: a memtable of 1/64 of a small simulated partition,
/// L1 sized at four memtables, and a 10x size ratio between levels (the
/// knob the paper's §4.5 footnote calls out as the space-amplification /
/// compaction-overhead trade-off).
#[derive(Debug, Clone, PartialEq)]
pub struct LsmOptions {
    /// Memtable capacity in bytes; a full memtable flushes to L0.
    pub memtable_bytes: u64,
    /// Number of L0 files that triggers an L0→L1 compaction.
    pub l0_compaction_trigger: usize,
    /// Target size of L1 in bytes.
    pub l1_target_bytes: u64,
    /// Multiplicative growth of level targets (RocksDB default: 10).
    pub level_size_multiplier: u64,
    /// Maximum number of levels (L0 excluded).
    pub max_levels: usize,
    /// Target size of individual SSTables written by compaction.
    pub sstable_target_bytes: u64,
    /// Data block size in bytes.
    pub block_bytes: usize,
    /// Recycle the WAL file in place on rotation (RocksDB's
    /// `recycle_log_file_num` option; our default). Disabling it deletes
    /// the old log and creates a fresh file on every rotation, spreading
    /// short-lived log pages across the LBA space, which mixes streams
    /// in the FTL.
    pub recycle_wal: bool,
    /// The per-run knobs: queue depth for range-scan and
    /// compaction-input reads, the block-cache budget, the block codec
    /// level (`LsmOptions::compression`), tracing, and paced flushes
    /// and compactions.
    pub tuning: EngineTuning,
}

impl Default for LsmOptions {
    fn default() -> Self {
        Self {
            memtable_bytes: 4 << 20,
            l0_compaction_trigger: 4,
            l1_target_bytes: 16 << 20,
            level_size_multiplier: 10,
            max_levels: 6,
            sstable_target_bytes: 4 << 20,
            block_bytes: 4096,
            recycle_wal: true,
            tuning: EngineTuning::for_device(0),
        }
    }
}

impl LsmOptions {
    /// A small configuration for unit tests (tiny memtable, tiny levels,
    /// so flushes and compactions happen after a handful of writes).
    pub fn small() -> Self {
        Self {
            memtable_bytes: 16 << 10,
            l0_compaction_trigger: 4,
            l1_target_bytes: 64 << 10,
            level_size_multiplier: 4,
            max_levels: 5,
            sstable_target_bytes: 16 << 10,
            ..Self::default()
        }
    }

    /// Scales the structural sizes so that the memtable is
    /// `partition_bytes / 256` (RocksDB's 64 MB memtable : 400 GB drive
    /// proportion is ~1/6400; we use a coarser 1/256 so the level
    /// hierarchy stays 3-4 deep at simulation scale, matching the
    /// paper's WA-A of ~10-12, while keeping flush cycles much shorter
    /// than a sampling window).
    pub fn scaled_to_partition(partition_bytes: u64) -> Self {
        let memtable = (partition_bytes / 256).clamp(64 << 10, 64 << 20);
        Self {
            memtable_bytes: memtable,
            l1_target_bytes: memtable * 4,
            sstable_target_bytes: memtable,
            tuning: EngineTuning::for_device(partition_bytes),
            ..Self::default()
        }
    }

    /// The block codec the tuning's compression level selects
    /// ([`Compression::None`] at level 0 keeps the on-disk format
    /// byte-identical to the seed).
    pub(crate) fn compression(&self) -> Compression {
        Compression::from_level(self.tuning.compression_level)
    }

    /// Target byte size for level `n` (1-based).
    pub(crate) fn level_target_bytes(&self, level: usize) -> u64 {
        assert!(level >= 1);
        self.l1_target_bytes
            .saturating_mul(self.level_size_multiplier.saturating_pow(level as u32 - 1))
    }

    /// Validates option consistency; panics with a description on error.
    pub fn validate(&self) {
        assert!(
            self.memtable_bytes >= 4 << 10,
            "memtable unrealistically small"
        );
        assert!(self.l0_compaction_trigger >= 2);
        assert!(self.l1_target_bytes >= self.memtable_bytes);
        assert!(self.level_size_multiplier >= 2);
        assert!((1..=8).contains(&self.max_levels));
        assert!(self.block_bytes >= 512);
        assert!(
            self.tuning.queue_depth >= 1,
            "queue depth must be at least 1"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        LsmOptions::default().validate();
        LsmOptions::small().validate();
    }

    #[test]
    fn level_targets_grow_geometrically() {
        let o = LsmOptions {
            l1_target_bytes: 100,
            level_size_multiplier: 10,
            ..Default::default()
        };
        assert_eq!(o.level_target_bytes(1), 100);
        assert_eq!(o.level_target_bytes(2), 1_000);
        assert_eq!(o.level_target_bytes(4), 100_000);
    }

    #[test]
    fn scaling_tracks_partition() {
        let o = LsmOptions::scaled_to_partition(256 << 20);
        assert_eq!(o.memtable_bytes, 1 << 20);
        assert_eq!(o.l1_target_bytes, 4 << 20);
        o.validate();
    }
}
