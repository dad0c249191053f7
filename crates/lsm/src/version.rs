//! The level manifest: which SSTables live at which level.
//!
//! Level 0 holds freshly flushed, mutually overlapping tables
//! (newest last); levels 1+ hold sorted runs of non-overlapping tables.
//! [`Version`] is the in-memory manifest; edits are applied atomically by
//! the database when flushes and compactions complete.

use std::sync::Arc;

use ptsbench_vfs::cmp_keys;

use crate::sstable::{SstableMeta, SstableReader};

/// An open table plus its metadata.
#[derive(Debug)]
pub(crate) struct TableHandle {
    /// Summary metadata (key range, sizes).
    pub meta: SstableMeta,
    /// The open reader (index and bloom cached).
    pub reader: SstableReader,
}

/// One sorted level's key bounds, flat: its tables' min keys back to
/// back in one buffer, their max keys in another, and where each key
/// ends. A point lookup binary-searches these and reads a table's
/// metadata only for the table it picks (RocksDB's `LevelFilesBrief`).
#[derive(Debug, Default)]
struct Fences {
    mins: Vec<u8>,
    min_ends: Vec<u32>,
    maxes: Vec<u8>,
    max_ends: Vec<u32>,
}

impl Fences {
    /// The bounds of `tables`, in their order.
    fn of(tables: &[Arc<TableHandle>]) -> Self {
        let mut fences = Self::default();
        for h in tables {
            fences.mins.extend_from_slice(&h.meta.min_key);
            fences.min_ends.push(fences.mins.len() as u32);
            fences.maxes.extend_from_slice(&h.meta.max_key);
            fences.max_ends.push(fences.maxes.len() as u32);
        }
        fences
    }

    /// Key `i` of `keys`, which end at `ends`.
    fn key<'a>(keys: &'a [u8], ends: &[u32], i: usize) -> &'a [u8] {
        let start = if i == 0 { 0 } else { ends[i - 1] as usize };
        &keys[start..ends[i] as usize]
    }

    /// Table `i`'s min key.
    fn min(&self, i: usize) -> &[u8] {
        Self::key(&self.mins, &self.min_ends, i)
    }

    /// Table `i`'s max key.
    fn max(&self, i: usize) -> &[u8] {
        Self::key(&self.maxes, &self.max_ends, i)
    }

    /// The table that may hold `key`: the last whose min key is
    /// `<= key`, if its max key is `>= key` too.
    fn table_for_key(&self, key: &[u8]) -> Option<usize> {
        let mut size = self.min_ends.len();
        if size == 0 {
            return None;
        }
        // Halve `base..base + size`, keeping its first table's min key
        // `<= key` unless no table's is.
        let mut base = 0;
        while size > 1 {
            let half = size / 2;
            let mid = base + half;
            if cmp_keys(self.min(mid), key).is_le() {
                base = mid;
            }
            size -= half;
        }
        let fits = cmp_keys(self.min(base), key).is_le() && cmp_keys(self.max(base), key).is_ge();
        fits.then_some(base)
    }
}

/// The level structure. `levels[0]` is L0 (overlapping, newest last);
/// `levels[i >= 1]` are sorted non-overlapping runs, each with its
/// [`Fences`] in `fences[i]` (`fences[0]` stays empty: a lookup probes
/// every L0 table).
#[derive(Debug)]
pub(crate) struct Version {
    levels: Vec<Vec<Arc<TableHandle>>>,
    fences: Vec<Fences>,
}

impl Version {
    /// An empty manifest with `max_levels` levels (including L0).
    pub(crate) fn new(max_levels: usize) -> Self {
        assert!(max_levels >= 2, "need at least L0 and L1");
        Self {
            levels: vec![Vec::new(); max_levels],
            fences: (0..max_levels).map(|_| Fences::default()).collect(),
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
        let idx = self.fences[level].table_for_key(key)?;
        Some(&self.levels[level][idx])
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
        for level in [source_level, target_level] {
            if level >= 1 {
                self.fences[level] = Fences::of(&self.levels[level]);
            }
        }
        self.check_invariants();
    }

    /// Validates the level structure (L1+ sorted and non-overlapping,
    /// with fences that are their tables' bounds).
    pub(crate) fn check_invariants(&self) {
        for (lvl, tables) in self.levels.iter().enumerate().skip(1) {
            let f = &self.fences[lvl];
            assert!(
                f.min_ends.len() == tables.len() && f.max_ends.len() == tables.len(),
                "L{lvl} has {} tables and {} fences",
                tables.len(),
                f.min_ends.len()
            );
            for (i, h) in tables.iter().enumerate() {
                let (min, max) = (f.min(i), f.max(i));
                assert!(
                    min == h.meta.min_key && max == h.meta.max_key,
                    "L{lvl} fences {min:?}..{max:?} are not the bounds of {}",
                    h.meta.name
                );
                // The fences are the bounds: the previous table's max
                // fence must sort below this table's min.
                if i > 0 {
                    assert!(
                        f.max(i - 1) < min,
                        "L{lvl} tables overlap: {:?}..{:?} vs {min:?}..{max:?}",
                        f.min(i - 1),
                        f.max(i - 1)
                    );
                }
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

    /// `table_for_key` as it was before the fences, over the handles
    /// themselves: the oracle the fences must agree with.
    fn table_for_key_by_handles<'a>(
        v: &'a Version,
        level: usize,
        key: &[u8],
    ) -> Option<&'a Arc<TableHandle>> {
        let tables = v.tables(level);
        let idx = tables.partition_point(|h| h.meta.min_key.as_slice() <= key);
        let candidate = tables.get(idx.checked_sub(1)?)?;
        (candidate.meta.max_key.as_slice() >= key).then_some(candidate)
    }

    #[test]
    fn fences_find_the_table_the_handles_do() {
        let mut v = Version::new(5);
        // L1 stays empty; L2 holds one table; L3 tables with gaps,
        // one-key tables, bounds that are prefixes of one another and
        // bounds either side of a word edge.
        v.apply_compaction(0, 2, &[], vec![handle("one", b"m", b"p", 5)]);
        let bounds: [(&[u8], &[u8]); 6] = [
            (b"a", b"abcdefgh"),
            (b"abcdefgh\x00", b"abcdefgh\x00\x01"),
            (b"b", b"b"),
            (b"k0000000000000100", b"k0000000000000199"),
            (b"k0000000000000300", b"k0000000000000399"),
            (b"\xff", b"\xff\xff\xff\xff\xff\xff\xff\xff\xff"),
        ];
        let tables = (bounds.iter().enumerate())
            .map(|(i, (min, max))| handle(&format!("t{i}"), min, max, 5))
            .collect();
        v.apply_compaction(0, 3, &[], tables);
        v.check_invariants();
        // Every bound, and keys just beside it.
        let mut probes: Vec<Vec<u8>> = vec![Vec::new(), b"zzz".to_vec(), vec![0xff; 12]];
        for (min, max) in bounds.iter().chain([(&b"m"[..], &b"p"[..])].iter()) {
            for k in [*min, *max] {
                probes.push(k.to_vec());
                probes.push([k, b"\x00"].concat());
                probes.push(k[..k.len() - 1].to_vec());
                let mut up = k.to_vec();
                let last = up.last_mut().expect("non-empty bound");
                *last = last.wrapping_add(1);
                probes.push(up.clone());
                *up.last_mut().expect("non-empty") = k[k.len() - 1].wrapping_sub(1);
                probes.push(up);
            }
        }
        for level in 1..v.level_count() {
            for key in &probes {
                let name = |h: Option<&Arc<TableHandle>>| h.map(|h| h.meta.name.clone());
                assert_eq!(
                    name(v.table_for_key(level, key)),
                    name(table_for_key_by_handles(&v, level, key)),
                    "L{level}, key {key:?}"
                );
            }
        }
        assert_eq!(
            v.table_for_key(2, b"n").map(|h| &h.meta.name[..]),
            Some("one")
        );
        assert_eq!(
            v.table_for_key(3, b"c").map(|h| &h.meta.name[..]),
            None,
            "a gap"
        );
        assert!(v.table_for_key(4, b"m").is_none(), "an empty level");
        // Removing tables rebuilds the fences of both levels.
        v.apply_compaction(2, 3, &["one".into(), "t3".into()], Vec::new());
        v.check_invariants();
        assert!(v.table_for_key(2, b"n").is_none());
        assert!(v.table_for_key(3, b"k0000000000000150").is_none());
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
