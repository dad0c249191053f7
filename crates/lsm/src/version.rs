//! The level manifest: which SSTables live at which level.
//!
//! Level 0 holds freshly flushed, mutually overlapping tables
//! (newest last); levels 1+ hold sorted runs of non-overlapping tables.
//! [`Version`] is the in-memory manifest; edits are applied atomically by
//! the database when flushes and compactions complete.

use std::sync::Arc;

use crate::sstable::{SstableMeta, SstableReader};

/// An open table plus its metadata.
#[derive(Debug)]
pub(crate) struct TableHandle {
    /// Summary metadata (key range, sizes).
    pub meta: SstableMeta,
    /// The open reader (index and bloom cached).
    pub reader: SstableReader,
}

/// The level structure. `levels[0]` is L0 (overlapping, newest last);
/// `levels[i >= 1]` are sorted non-overlapping runs.
#[derive(Debug)]
pub(crate) struct Version {
    levels: Vec<Vec<Arc<TableHandle>>>,
}

impl Version {
    /// An empty manifest with `max_levels` levels (including L0).
    pub(crate) fn new(max_levels: usize) -> Self {
        assert!(max_levels >= 2, "need at least L0 and L1");
        Self {
            levels: vec![Vec::new(); max_levels],
        }
    }

    /// Number of levels (including L0).
    pub(crate) fn level_count(&self) -> usize {
        self.levels.len()
    }

    /// Tables at `level` (L0: oldest..newest; L1+: key order).
    pub(crate) fn tables(&self, level: usize) -> &[Arc<TableHandle>] {
        &self.levels[level]
    }

    /// Registers a freshly flushed table in L0.
    pub(crate) fn push_l0(&mut self, handle: Arc<TableHandle>) {
        self.levels[0].push(handle);
    }

    /// Total bytes at `level`.
    pub(crate) fn bytes_at(&self, level: usize) -> u64 {
        self.levels[level].iter().map(|h| h.meta.file_bytes).sum()
    }

    /// Total bytes across all levels.
    pub(crate) fn total_bytes(&self) -> u64 {
        (0..self.levels.len()).map(|l| self.bytes_at(l)).sum()
    }

    /// Deepest level index holding any table, or `None` when empty.
    pub(crate) fn deepest_nonempty(&self) -> Option<usize> {
        (0..self.levels.len())
            .rev()
            .find(|&l| !self.levels[l].is_empty())
    }

    /// Whether any level deeper than `level` holds data.
    pub(crate) fn has_data_below(&self, level: usize) -> bool {
        self.levels[level + 1..].iter().any(|l| !l.is_empty())
    }

    /// Tables at `level >= 1` overlapping `[min, max]`, in key order.
    pub(crate) fn overlapping(
        &self,
        level: usize,
        min: &[u8],
        max: &[u8],
    ) -> Vec<Arc<TableHandle>> {
        assert!(level >= 1, "L0 requires scanning all tables");
        self.levels[level]
            .iter()
            .filter(|h| h.meta.overlaps(min, max))
            .cloned()
            .collect()
    }

    /// The single table at `level >= 1` that may contain `key`, if any.
    pub(crate) fn table_for_key(&self, level: usize, key: &[u8]) -> Option<&Arc<TableHandle>> {
        assert!(level >= 1);
        let tables = &self.levels[level];
        // Last table whose min_key <= key.
        let idx = tables.partition_point(|h| h.meta.min_key.as_slice() <= key);
        if idx == 0 {
            return None;
        }
        let candidate = &tables[idx - 1];
        (candidate.meta.max_key.as_slice() >= key).then_some(candidate)
    }

    /// Applies a compaction edit: removes `removed` (by name) from
    /// `source_level` and `target_level`, inserts `added` into
    /// `target_level` keeping key order.
    pub(crate) fn apply_compaction(
        &mut self,
        source_level: usize,
        target_level: usize,
        removed: &[String],
        added: Vec<Arc<TableHandle>>,
    ) {
        let is_removed = |h: &Arc<TableHandle>| removed.iter().any(|n| n == &h.meta.name);
        self.levels[source_level].retain(|h| !is_removed(h));
        self.levels[target_level].retain(|h| !is_removed(h));
        self.levels[target_level].extend(added);
        self.levels[target_level].sort_by(|a, b| a.meta.min_key.cmp(&b.meta.min_key));
        self.check_invariants();
    }

    /// Validates the level structure (L1+ sorted and non-overlapping).
    pub(crate) fn check_invariants(&self) {
        for (lvl, tables) in self.levels.iter().enumerate().skip(1) {
            for w in tables.windows(2) {
                assert!(
                    w[0].meta.max_key < w[1].meta.min_key,
                    "L{lvl} tables overlap: {:?}..{:?} vs {:?}..{:?}",
                    w[0].meta.min_key,
                    w[0].meta.max_key,
                    w[1].meta.min_key,
                    w[1].meta.max_key
                );
            }
        }
    }

    /// Per-level summary: `(level, table count, bytes)`.
    pub(crate) fn summary(&self) -> Vec<(usize, usize, u64)> {
        (0..self.levels.len())
            .map(|l| (l, self.levels[l].len(), self.bytes_at(l)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn handle(name: &str, min: &[u8], max: &[u8], bytes: u64) -> Arc<TableHandle> {
        // Reader-less handles are not constructible (reader has no mock),
        // so version tests build real tiny tables.
        use crate::sstable::SstableBuilder;
        use ptsbench_ssd::{DeviceConfig, DeviceProfile, Ssd};
        use ptsbench_vfs::{Vfs, VfsOptions};
        thread_local! {
            static VFS: Vfs = {
                let ssd = Ssd::new(DeviceConfig::from_profile(DeviceProfile::ssd1(), 32 << 20));
                Vfs::whole_device(ssd.into_shared(), VfsOptions::default())
            };
        }
        VFS.with(|v| {
            let mut b = SstableBuilder::create(v.clone(), name, 4096, 0).expect("create");
            b.add(min, Some(b"x")).expect("add");
            if max > min {
                b.add(max, Some(b"y")).expect("add");
            }
            let mut meta = b.finish().expect("finish");
            meta.file_bytes = bytes; // override for size-based tests
            let reader = SstableReader::open(v.clone(), name, true, None).expect("open");
            Arc::new(TableHandle { meta, reader })
        })
    }

    #[test]
    fn l0_accumulates_in_arrival_order() {
        let mut v = Version::new(4);
        v.push_l0(handle("a", b"a", b"z", 10));
        v.push_l0(handle("b", b"a", b"z", 20));
        assert_eq!(v.tables(0).len(), 2);
        assert_eq!(v.tables(0)[1].meta.name, "b", "newest last");
        assert_eq!(v.bytes_at(0), 30);
        assert_eq!(v.total_bytes(), 30);
        assert_eq!(v.deepest_nonempty(), Some(0));
    }

    #[test]
    fn compaction_edit_moves_tables() {
        let mut v = Version::new(4);
        v.push_l0(handle("f1", b"a", b"m", 10));
        v.push_l0(handle("f2", b"n", b"z", 10));
        let out = handle("f3", b"a", b"z", 18);
        v.apply_compaction(0, 1, &["f1".into(), "f2".into()], vec![out]);
        assert_eq!(v.tables(0).len(), 0);
        assert_eq!(v.tables(1).len(), 1);
        assert!(v.has_data_below(0));
        assert!(!v.has_data_below(1));
        assert_eq!(v.deepest_nonempty(), Some(1));
    }

    #[test]
    fn overlap_queries() {
        let mut v = Version::new(4);
        v.apply_compaction(
            0,
            1,
            &[],
            vec![
                handle("g1", b"a", b"f", 5),
                handle("g2", b"h", b"m", 5),
                handle("g3", b"p", b"z", 5),
            ],
        );
        let o = v.overlapping(1, b"e", b"i");
        assert_eq!(o.len(), 2);
        assert_eq!(o[0].meta.name, "g1");
        assert_eq!(o[1].meta.name, "g2");
        assert!(v.table_for_key(1, b"k").is_some());
        assert!(v.table_for_key(1, b"n").is_none(), "gap between g2 and g3");
        assert!(v.table_for_key(1, b"0").is_none(), "below all tables");
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn overlapping_l1_rejected() {
        let mut v = Version::new(4);
        v.apply_compaction(
            0,
            1,
            &[],
            vec![handle("h1", b"a", b"m", 5), handle("h2", b"f", b"z", 5)],
        );
    }
}
