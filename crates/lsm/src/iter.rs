//! The merge of sorted sources, lending each key's newest entry.
//!
//! Sources are ordered by recency: source 0 is the newest (memtable),
//! then L0 tables newest-to-oldest, then deeper levels. When several
//! sources hold the same key, the entry from the lowest-numbered source
//! wins and the others are consumed — the LSM shadowing rule. A deeper
//! level's tables hold disjoint key ranges, so the level is one source:
//! in a scan, a chained window scan with a submission queue, a [`Chain`]
//! of table scans without one; in a compaction, a [`Chain`] of the
//! level's input tables and another of the target level's overlaps,
//! while each L0 input stays a source of its own.
//!
//! Entries are *lent*, not shared: a source exposes the entry at its
//! cursor as slices of bytes it already holds — a table scan of the
//! readahead window it decoded the entry from, a memtable range of the
//! map itself — and the merge lends the winner's slices on to its
//! caller. The bytes are read once more only where they leave: encoded
//! into an output table, or copied out at the public `scan` boundary.
//!
//! A merge step moves the winner and every shadowed duplicate past
//! their entries *before* it lends, so a source reads its next window at
//! the step that consumes its previous one. A source that has moved on
//! keeps the entry it moved past readable until it moves again: a table
//! scan holds on to one previous window for it.

use std::collections::VecDeque;

use ptsbench_vfs::{cmp_keys, FileSlice};

/// An entry lent by its source until the source next moves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lent<'a> {
    /// The key.
    pub key: &'a [u8],
    /// The value; `None` is a tombstone.
    pub value: Option<&'a [u8]>,
    /// For an entry of a table, the window it was decoded from and
    /// where the key begins in it (what
    /// [`crate::sstable::SstableReader::stored_block_at`] takes); `None`
    /// for a memtable entry.
    pub window: Option<(&'a FileSlice, usize)>,
}

/// A sorted stream of entries a [`Merge`] draws from.
pub trait Source {
    /// Key of the entry at the cursor; `None` once the source is spent.
    fn peek(&self) -> Option<&[u8]>;

    /// Moves the cursor past its entry, reading on if the source needs
    /// to. That entry stays readable through [`Source::last`] until the
    /// next call.
    fn advance(&mut self);

    /// The entry the last [`Source::advance`] moved past.
    fn last(&self) -> Lent<'_>;
}

impl<S: Source + ?Sized> Source for Box<S> {
    fn peek(&self) -> Option<&[u8]> {
        (**self).peek()
    }

    fn advance(&mut self) {
        (**self).advance()
    }

    fn last(&self) -> Lent<'_> {
        (**self).last()
    }
}

/// Sources over disjoint key ranges, in key order, drawn from as one: a
/// level's table scans when there is no submission queue to chain their
/// reads. Each scan is opened (its first window read) before the chain
/// is built; the chain moves only its front scan, and drops it once it
/// is spent and the entry lent from it has been released.
pub struct Chain<S> {
    /// Scans with entries left, except the front one, which may be spent
    /// and still hold the entry lent last.
    sources: VecDeque<S>,
}

impl<S: Source> Chain<S> {
    /// Chains `sources` (key-ordered, non-overlapping); spent ones are
    /// dropped.
    pub(crate) fn new(sources: impl IntoIterator<Item = S>) -> Self {
        let sources = sources.into_iter().filter(|s| s.peek().is_some());
        Self {
            sources: sources.collect(),
        }
    }
}

impl<S: Source> Source for Chain<S> {
    fn peek(&self) -> Option<&[u8]> {
        self.sources.iter().find_map(S::peek)
    }

    fn advance(&mut self) {
        if self.sources.len() > 1 && self.sources[0].peek().is_none() {
            self.sources.pop_front();
        }
        if let Some(front) = self.sources.front_mut() {
            front.advance();
        }
    }

    fn last(&self) -> Lent<'_> {
        self.sources.front().expect("an entry was lent").last()
    }
}

/// Merge of recency-ordered sources (index 0 = newest).
pub struct Merge<S> {
    sources: Vec<S>,
}

impl<S: Source> Merge<S> {
    /// Builds a merge over `sources` (index 0 = newest).
    pub fn new(sources: Vec<S>) -> Self {
        Self { sources }
    }

    /// Lends each distinct key once, in key order, with its newest entry
    /// (tombstones included — dropping them is the consumer's policy
    /// decision). The winner moves first, then each older source that
    /// held the same key, in recency order.
    pub fn next_entry(&mut self) -> Option<Lent<'_>> {
        let mut winner: Option<(usize, &[u8])> = None;
        for (i, source) in self.sources.iter().enumerate() {
            if let Some(key) = source.peek() {
                if winner.is_none_or(|(_, best)| cmp_keys(key, best).is_lt()) {
                    winner = Some((i, key));
                }
            }
        }
        let (w, _) = winner?;
        self.sources[w].advance();
        let (newer, older) = self.sources.split_at_mut(w + 1);
        let key = newer[w].last().key;
        for source in older {
            if source.peek().is_some_and(|k| cmp_keys(k, key).is_eq()) {
                source.advance();
            }
        }
        Some(self.sources[w].last())
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;
    use std::collections::{BTreeMap, VecDeque};
    use std::rc::Rc;

    use proptest::prelude::*;

    use super::*;
    use crate::memtable::Memtable;
    use crate::sstable::format::{decode_entry, encode_entry};
    use crate::sstable::reader::{LoadedWindow, WindowScan, WindowSource};

    /// Entries as owned bytes.
    type Owned = Vec<(Vec<u8>, Option<Vec<u8>>)>;

    /// A table-like source: `entries` encoded into windows of
    /// `per_window` entries, one window read per load, counting loads.
    struct Windows {
        windows: VecDeque<LoadedWindow>,
        loads: Rc<Cell<usize>>,
    }

    impl WindowSource for Windows {
        fn load(&mut self, loaded: &mut VecDeque<LoadedWindow>) -> bool {
            let Some(window) = self.windows.pop_front() else {
                return false;
            };
            self.loads.set(self.loads.get() + 1);
            loaded.push_back(window);
            true
        }
    }

    fn table(entries: &[(Vec<u8>, Option<Vec<u8>>)], per_window: usize) -> WindowScan<Windows> {
        table_counting(entries, per_window, Rc::default())
    }

    fn table_counting(
        entries: &[(Vec<u8>, Option<Vec<u8>>)],
        per_window: usize,
        loads: Rc<Cell<usize>>,
    ) -> WindowScan<Windows> {
        let windows = (entries.chunks(per_window))
            .map(|chunk| {
                let mut buf = Vec::new();
                for (k, v) in chunk {
                    encode_entry(&mut buf, k, v.as_deref());
                }
                (FileSlice::from(buf), chunk.len() as u64)
            })
            .collect();
        WindowScan::over(Windows { windows, loads })
    }

    fn entries(items: &[(&str, Option<&str>)]) -> Owned {
        (items.iter())
            .map(|(k, v)| (k.as_bytes().to_vec(), v.map(|v| v.as_bytes().to_vec())))
            .collect()
    }

    fn drain<S: Source>(mut merge: Merge<S>) -> Owned {
        let mut out = Vec::new();
        while let Some(e) = merge.next_entry() {
            out.push((e.key.to_vec(), e.value.map(<[u8]>::to_vec)));
        }
        out
    }

    /// Jagged entries: long, short, empty and tombstoned values, so a
    /// window's first entry is sometimes longer and sometimes shorter
    /// than the rest.
    fn jagged(n: usize) -> Owned {
        (0..n)
            .map(|i| {
                let value = match i % 5 {
                    0 => Some(vec![b'x'; 3000]),
                    1 => None,
                    2 => Some(Vec::new()),
                    3 => Some(vec![b'y'; 7]),
                    _ => Some(vec![b'z'; 900]),
                };
                (format!("k{i:03}").into_bytes(), value)
            })
            .collect()
    }

    /// The entries of windows of `per_window` entries each, decoded one
    /// header at a time, with no guessing ahead; each walk must end
    /// where its window does.
    fn plain_walk(items: &[(Vec<u8>, Option<Vec<u8>>)], per_window: usize) -> Owned {
        let mut out = Vec::new();
        for chunk in items.chunks(per_window) {
            let mut buf = Vec::new();
            for (k, v) in chunk {
                encode_entry(&mut buf, k, v.as_deref());
            }
            let mut pos = 0;
            for _ in chunk {
                let (key, value, next) = decode_entry(&buf, pos).expect("entry");
                out.push((key.to_vec(), value.map(<[u8]>::to_vec)));
                pos = next;
            }
            assert_eq!(pos, buf.len());
        }
        out
    }

    fn scan_all<S: Source>(mut scan: S) -> Owned {
        let mut out = Vec::new();
        while scan.peek().is_some() {
            scan.advance();
            let lent = scan.last();
            out.push((lent.key.to_vec(), lent.value.map(<[u8]>::to_vec)));
        }
        out
    }

    #[test]
    fn a_scan_of_jagged_windows_lends_what_a_plain_walk_decodes() {
        let items = jagged(40);
        // Windows that start on each kind of entry, one window, and a
        // window of one entry; every window ends with its last entry,
        // and a long first entry sends the guesses past its end.
        for per_window in [1, 3, 5, 7, 40] {
            let want = plain_walk(&items, per_window);
            assert_eq!(want, items);
            assert_eq!(scan_all(table(&items, per_window)), want, "{per_window}");
        }
        // A window that claims more entries than it holds ends the scan
        // after the ones it has.
        let mut buf = Vec::new();
        for (k, v) in &items[..5] {
            encode_entry(&mut buf, k, v.as_deref());
        }
        let windows = VecDeque::from([(FileSlice::from(buf), 9)]);
        assert_eq!(scan_all(WindowScan::over(windows)), items[..5]);
    }

    #[test]
    fn merges_in_order() {
        let m = Merge::new(vec![
            table(&entries(&[("b", Some("1")), ("d", Some("2"))]), 1),
            table(&entries(&[("a", Some("3")), ("c", Some("4"))]), 2),
        ]);
        let keys: Vec<Vec<u8>> = drain(m).into_iter().map(|(k, _)| k).collect();
        assert_eq!(
            keys,
            vec![b"a".to_vec(), b"b".to_vec(), b"c".to_vec(), b"d".to_vec()]
        );
    }

    #[test]
    fn newest_source_wins_duplicates() {
        let m = Merge::new(vec![
            table(&entries(&[("k", Some("new"))]), 1),
            table(&entries(&[("k", Some("old"))]), 1),
        ]);
        assert_eq!(drain(m), entries(&[("k", Some("new"))]));
    }

    #[test]
    fn tombstones_shadow_older_values() {
        let m = Merge::new(vec![
            table(&entries(&[("k", None)]), 1),
            table(&entries(&[("k", Some("old"))]), 1),
        ]);
        assert_eq!(drain(m), entries(&[("k", None)]));
    }

    #[test]
    fn three_way_with_interleaved_duplicates() {
        let m = Merge::new(vec![
            table(&entries(&[("b", Some("B0")), ("e", None)]), 2),
            table(
                &entries(&[("a", Some("A1")), ("b", Some("B1")), ("d", Some("D1"))]),
                1,
            ),
            table(
                &entries(&[("b", Some("B2")), ("c", Some("C2")), ("e", Some("E2"))]),
                2,
            ),
        ]);
        assert_eq!(
            drain(m),
            entries(&[
                ("a", Some("A1")),
                ("b", Some("B0")),
                ("c", Some("C2")),
                ("d", Some("D1")),
                ("e", None),
            ])
        );
    }

    #[test]
    fn empty_sources() {
        let m = Merge::new(vec![
            table(&[], 1),
            table(&entries(&[("a", Some("1"))]), 1),
            table(&[], 1),
        ]);
        assert_eq!(drain(m).len(), 1);
        assert_eq!(drain(Merge::<WindowScan<Windows>>::new(vec![])), vec![]);
    }

    #[test]
    fn a_lent_entry_outlives_the_read_of_its_sources_next_window() {
        // "a" ends its window: moving past it reads the next one, before
        // "a" is lent. The shadowed "a" of the older source ends its
        // window too, and is moved past in the same step.
        let (newer, older) = (Rc::new(Cell::new(0)), Rc::new(Cell::new(0)));
        let mut m = Merge::new(vec![
            table_counting(
                &entries(&[("a", Some("A0")), ("c", None)]),
                1,
                newer.clone(),
            ),
            table_counting(
                &entries(&[("a", Some("A1")), ("b", Some("B1"))]),
                1,
                older.clone(),
            ),
        ]);
        assert_eq!((newer.get(), older.get()), (1, 1), "first windows only");
        let lent = m.next_entry().expect("a");
        assert_eq!((lent.key, lent.value), (&b"a"[..], Some(&b"A0"[..])));
        let (window, at) = lent.window.expect("a table entry");
        assert_eq!(&window[at..at + 1], b"a", "the key's place in its window");
        assert_eq!((newer.get(), older.get()), (2, 2), "both read on first");
        let lent = m.next_entry().expect("b");
        assert_eq!((lent.key, lent.value), (&b"b"[..], Some(&b"B1"[..])));
        assert_eq!(older.get(), 2, "nothing left to read");
        assert_eq!(
            m.next_entry().map(|e| (e.key, e.value)),
            Some((&b"c"[..], None))
        );
        assert_eq!(m.next_entry(), None);
    }

    #[test]
    fn memtables_lend_from_their_maps() {
        let mut mem = Memtable::new();
        mem.put(b"b", b"new");
        mem.delete(b"c");
        mem.put(b"z", b"past the end");
        let old = entries(&[("a", Some("1")), ("b", Some("2")), ("c", Some("3"))]);
        let m = Merge::new(vec![
            Box::new(mem.source(b"a", Some(b"y"))) as Box<dyn Source + '_>,
            Box::new(table(&old, 2)),
        ]);
        assert_eq!(
            drain(m),
            entries(&[("a", Some("1")), ("b", Some("new")), ("c", None)])
        );
        let mut m = Merge::new(vec![mem.source(b"b", None)]);
        assert_eq!(m.next_entry().and_then(|e| e.window), None);
    }

    #[test]
    fn a_chain_reads_table_by_table() {
        // Two entries to a window, two windows to a table: each table's
        // first window is read when the chain is built, its second only
        // when the chain reaches it.
        let loads: Vec<Rc<Cell<usize>>> = (0..3).map(|_| Rc::default()).collect();
        let tables = [
            entries(&[("a", Some("1")), ("b", None), ("c", Some("3"))]),
            vec![],
            entries(&[("d", Some("4")), ("e", Some("5")), ("f", Some("6"))]),
        ];
        let chain = Chain::new(
            (tables.iter().zip(&loads)).map(|(t, loads)| table_counting(t, 2, loads.clone())),
        );
        let count = || loads.iter().map(|l| l.get()).collect::<Vec<_>>();
        assert_eq!(count(), [1, 0, 1], "first windows only");
        let mut m = Merge::new(vec![chain]);
        for key in ["a", "b"] {
            assert_eq!(m.next_entry().map(|e| e.key), Some(key.as_bytes()));
        }
        assert_eq!(count(), [2, 0, 1], "the front table read on");
        let lent = m.next_entry().expect("c");
        assert_eq!((lent.key, lent.value), (&b"c"[..], Some(&b"3"[..])));
        assert_eq!(count(), [2, 0, 1], "the next table is already open");
        let keys: Vec<Vec<u8>> = drain(m).into_iter().map(|(k, _)| k).collect();
        assert_eq!(keys, [b"d".to_vec(), b"e".to_vec(), b"f".to_vec()]);
        assert_eq!(count(), [2, 0, 2]);
        let empty = Chain::<WindowScan<Windows>>::new([]);
        assert_eq!(drain(Merge::new(vec![empty])), vec![]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Any number of overlapping sources, each cut into windows of its
        /// own size (one-entry windows included) and into a chain of
        /// tables, merges to what a map the sources are written into
        /// oldest first holds.
        #[test]
        fn the_merge_is_the_newest_write_of_every_key(
            sources in proptest::collection::vec(
                (
                    proptest::collection::btree_map(
                        0u8..40,
                        proptest::option::of(0u8..=255),
                        0..30,
                    ),
                    1usize..5,
                    1usize..4,
                ),
                0..6,
            ),
            memtable in proptest::collection::btree_map(
                0u8..40,
                proptest::option::of(0u8..=255),
                0..10,
            ),
        ) {
            let bytes = |k: u8, v: Option<u8>| (vec![b'k', k], v.map(|v| vec![v; v as usize % 7]));
            let mut model = BTreeMap::new();
            for (entries, _, _) in sources.iter().rev() {
                model.extend(entries.iter().map(|(&k, &v)| bytes(k, v)));
            }
            model.extend(memtable.iter().map(|(&k, &v)| bytes(k, v)));
            let mut mem = Memtable::new();
            for (&k, &v) in &memtable {
                match bytes(k, v) {
                    (k, Some(v)) => mem.put(&k, &v),
                    (k, None) => mem.delete(&k),
                }
            }
            let mut merged: Vec<Box<dyn Source + '_>> = vec![Box::new(mem.source(b"", None))];
            for (entries, per_window, tables) in &sources {
                let owned: Owned = entries.iter().map(|(&k, &v)| bytes(k, v)).collect();
                let per_table = owned.len().div_ceil(*tables).max(1);
                let chain = owned.chunks(per_table).map(|t| table(t, *per_window));
                merged.push(Box::new(Chain::new(chain)));
            }
            prop_assert_eq!(drain(Merge::new(merged)), model.into_iter().collect::<Owned>());
        }
    }
}
