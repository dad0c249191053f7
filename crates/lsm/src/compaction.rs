//! Compaction picking (leveled strategy, RocksDB-style).
//!
//! Two triggers:
//! 1. **L0 file count** — when L0 accumulates `l0_compaction_trigger`
//!    flushed memtables, all of L0 merges with the overlapping part of L1.
//! 2. **Level size** — when L(i) exceeds its exponentially growing
//!    target, one table (round-robin cursor, RocksDB's default picker)
//!    merges with the overlapping tables of L(i+1).
//!
//! The paper's Fig 2c dynamic — WA-A rising as the tree fills, then
//! flattening once the level layout stabilizes — is a direct consequence
//! of these rules: early on, data only reaches shallow levels; at steady
//! state every write is eventually rewritten once per level it descends.

use std::sync::Arc;

use crate::iter::{Chain, Source};
use crate::options::LsmOptions;
use crate::version::{TableHandle, Version};

/// A unit of compaction work chosen by [`pick`].
#[derive(Debug)]
pub(crate) struct CompactionTask {
    /// Source level (0 = L0→L1 compaction).
    pub source_level: usize,
    /// Target level (always `source_level + 1`).
    pub target_level: usize,
    /// Input tables from the source level, newest first (recency order
    /// for the merge).
    pub inputs: Vec<Arc<TableHandle>>,
    /// Overlapping tables from the target level, key order (older than
    /// all `inputs`).
    pub overlaps: Vec<Arc<TableHandle>>,
}

impl CompactionTask {
    /// Total input bytes (both levels).
    pub(crate) fn input_bytes(&self) -> u64 {
        self.inputs
            .iter()
            .chain(&self.overlaps)
            .map(|h| h.meta.file_bytes)
            .sum()
    }

    /// The merge's sources over `scans`, one scan per input table in
    /// the task's order (`inputs`, then `overlaps`), each opened as it
    /// is drawn: every L0 input on its own, since L0 tables overlap; a
    /// deeper source level's inputs as one [`Chain`], and the target
    /// level's overlaps as another.
    pub(crate) fn merge_sources<S: Source>(
        &self,
        scans: impl IntoIterator<Item = S>,
    ) -> Vec<Chain<S>> {
        let mut scans = scans.into_iter();
        let inputs = scans.by_ref().take(self.inputs.len());
        let mut sources: Vec<Chain<S>> = if self.source_level == 0 {
            inputs.map(|scan| Chain::new([scan])).collect()
        } else {
            vec![Chain::new(inputs)]
        };
        sources.push(Chain::new(scans));
        sources
    }

    /// Names of every input table (for the manifest edit).
    pub(crate) fn input_names(&self) -> Vec<String> {
        self.inputs
            .iter()
            .chain(&self.overlaps)
            .map(|h| h.meta.name.clone())
            .collect()
    }
}

/// Effective per-level byte targets with dynamic level sizing
/// (RocksDB's `level_compaction_dynamic_level_bytes`): the deepest
/// non-empty level is the base (exempt), and each level above it targets
/// the level below divided by the size multiplier (floored at the static
/// L1 target). Without this, datasets much smaller than the static
/// hierarchy would strand stale data in the bottom level forever.
pub(crate) fn effective_targets(version: &Version, opts: &LsmOptions) -> Vec<u64> {
    let count = version.level_count();
    let mut targets = vec![u64::MAX; count];
    let Some(bottom) = version.deepest_nonempty().filter(|&b| b >= 1) else {
        // Only L0 (or nothing) holds data: static targets apply.
        for (level, t) in targets.iter_mut().enumerate().take(count - 1).skip(1) {
            *t = opts.level_target_bytes(level);
        }
        return targets;
    };
    let base_bytes = version.bytes_at(bottom).max(opts.l1_target_bytes);
    let mut t = base_bytes;
    for level in (1..bottom).rev() {
        t /= opts.level_size_multiplier;
        targets[level] = t.max(opts.memtable_bytes);
    }
    // The bottom level (and empty levels below it) are exempt.
    targets
}

/// Chooses the next compaction, if any is due. `cursors` holds one
/// round-robin position per level and is advanced by the pick.
pub(crate) fn pick(
    version: &Version,
    opts: &LsmOptions,
    cursors: &mut [usize],
) -> Option<CompactionTask> {
    // Priority 1: L0 file count.
    let l0 = version.tables(0);
    if l0.len() >= opts.l0_compaction_trigger {
        let mut inputs: Vec<Arc<TableHandle>> = l0.to_vec();
        inputs.reverse(); // newest first
        let min = inputs
            .iter()
            .map(|h| h.meta.min_key.clone())
            .min()
            .expect("non-empty L0");
        let max = inputs
            .iter()
            .map(|h| h.meta.max_key.clone())
            .max()
            .expect("non-empty L0");
        let overlaps = version.overlapping(1, &min, &max);
        return Some(CompactionTask {
            source_level: 0,
            target_level: 1,
            inputs,
            overlaps,
        });
    }

    // Priority 2: level size targets (dynamic; the deepest non-empty
    // level is exempt — it has nowhere to push data).
    let targets = effective_targets(version, opts);
    for level in 1..version.level_count() - 1 {
        let bytes = version.bytes_at(level);
        if bytes <= targets[level] {
            continue;
        }
        let tables = version.tables(level);
        if tables.is_empty() {
            continue;
        }
        let idx = cursors[level] % tables.len();
        cursors[level] = cursors[level].wrapping_add(1);
        let input = tables[idx].clone();
        let overlaps = version.overlapping(level + 1, &input.meta.min_key, &input.meta.max_key);
        return Some(CompactionTask {
            source_level: level,
            target_level: level + 1,
            inputs: vec![input],
            overlaps,
        });
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sstable::{SstableBuilder, SstableReader};
    use ptsbench_ssd::{DeviceConfig, DeviceProfile, Ssd};
    use ptsbench_vfs::{Vfs, VfsOptions};

    fn vfs() -> Vfs {
        let ssd = Ssd::new(DeviceConfig::from_profile(DeviceProfile::ssd1(), 32 << 20));
        Vfs::whole_device(ssd.into_shared(), VfsOptions::default())
    }

    fn table(v: &Vfs, name: &str, min: &str, max: &str, pad: usize) -> Arc<TableHandle> {
        let mut b = SstableBuilder::create(v.clone(), name, 4096, 0).expect("create");
        b.add(min.as_bytes(), Some(&vec![0u8; pad])).expect("add");
        if max > min {
            b.add(max.as_bytes(), Some(&vec![0u8; pad])).expect("add");
        }
        let meta = b.finish().expect("finish");
        let reader = SstableReader::open(v.clone(), name, true, None).expect("open");
        Arc::new(TableHandle { meta, reader })
    }

    fn opts() -> LsmOptions {
        LsmOptions {
            l0_compaction_trigger: 3,
            l1_target_bytes: 8 << 10,
            level_size_multiplier: 4,
            ..LsmOptions::small()
        }
    }

    #[test]
    fn no_work_when_below_triggers() {
        let v = Version::new(4);
        let mut cursors = vec![0; 4];
        assert!(pick(&v, &opts(), &mut cursors).is_none());
    }

    #[test]
    fn l0_trigger_fires_with_newest_first_inputs() {
        let fs = vfs();
        let mut v = Version::new(4);
        v.push_l0(table(&fs, "t1", "a", "m", 10));
        v.push_l0(table(&fs, "t2", "c", "p", 10));
        v.push_l0(table(&fs, "t3", "b", "z", 10));
        let mut cursors = vec![0; 4];
        let task = pick(&v, &opts(), &mut cursors).expect("L0 trigger");
        assert_eq!(task.source_level, 0);
        assert_eq!(task.target_level, 1);
        assert_eq!(task.inputs.len(), 3);
        assert_eq!(task.inputs[0].meta.name, "t3", "newest L0 table first");
        assert!(task.overlaps.is_empty());
        assert!(task.input_bytes() > 0);
    }

    #[test]
    fn l0_picks_up_overlapping_l1() {
        let fs = vfs();
        let mut v = Version::new(4);
        v.apply_compaction(
            0,
            1,
            &[],
            vec![
                table(&fs, "l1a", "a", "f", 10),
                table(&fs, "l1b", "x", "z", 10),
            ],
        );
        v.push_l0(table(&fs, "t1", "a", "c", 10));
        v.push_l0(table(&fs, "t2", "b", "d", 10));
        v.push_l0(table(&fs, "t3", "a", "e", 10));
        let mut cursors = vec![0; 4];
        let task = pick(&v, &opts(), &mut cursors).expect("task");
        assert_eq!(task.overlaps.len(), 1, "only the a-f table overlaps");
        assert_eq!(task.overlaps[0].meta.name, "l1a");
    }

    #[test]
    fn size_trigger_round_robins() {
        let fs = vfs();
        let mut v = Version::new(4);
        // L2 is the (exempt) base level; L1 holds ~45 KB, above its
        // dynamic target of max(memtable, bytes(L2)/multiplier).
        v.apply_compaction(0, 2, &[], vec![table(&fs, "base", "a", "z", 30_000)]);
        v.apply_compaction(
            0,
            1,
            &[],
            vec![
                table(&fs, "s1", "b", "c", 15_000),
                table(&fs, "s2", "d", "e", 15_000),
                table(&fs, "s3", "g", "h", 15_000),
            ],
        );
        let o = opts();
        let mut cursors = vec![0; 4];
        let t1 = pick(&v, &o, &mut cursors).expect("first");
        let t2 = pick(&v, &o, &mut cursors).expect("second");
        assert_eq!(t1.source_level, 1);
        assert_ne!(
            t1.inputs[0].meta.name, t2.inputs[0].meta.name,
            "cursor must advance between picks"
        );
    }

    #[test]
    fn deepest_level_never_picked() {
        let fs = vfs();
        let mut v = Version::new(3); // L0, L1, L2
        v.apply_compaction(0, 2, &[], vec![table(&fs, "deep", "a", "z", 200_000)]);
        let mut cursors = vec![0; 3];
        assert!(
            pick(&v, &opts(), &mut cursors).is_none(),
            "deepest level is exempt"
        );
    }

    #[test]
    fn dynamic_targets_scale_with_base_level() {
        let fs = vfs();
        let mut v = Version::new(5);
        v.apply_compaction(0, 3, &[], vec![table(&fs, "big", "a", "z", 200_000)]);
        let o = opts();
        let t = effective_targets(&v, &o);
        assert_eq!(t[3], u64::MAX, "base level exempt");
        assert_eq!(t[4], u64::MAX, "levels below base untargeted");
        assert!(t[2] < t[3]);
        assert!(t[1] <= t[2]);
        assert!(t[1] >= o.memtable_bytes, "floored at the memtable size");
    }

    #[test]
    fn static_targets_when_only_l0() {
        let v = Version::new(4);
        let o = opts();
        let t = effective_targets(&v, &o);
        assert_eq!(t[1], o.level_target_bytes(1));
        assert_eq!(t[2], o.level_target_bytes(2));
        assert_eq!(t[3], u64::MAX, "deepest level exempt");
    }
}
