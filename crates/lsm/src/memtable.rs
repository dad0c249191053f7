//! The in-memory sorted write buffer.

use std::collections::{btree_map, BTreeMap};
use std::ops::Bound;

use crate::iter::{Lent, Source};

/// A value or a deletion marker.
pub type Entry = Option<Vec<u8>>;

/// Sorted in-memory table of the newest writes. Deletions are recorded
/// as tombstones (`None`) so they shadow older on-disk versions.
#[derive(Debug, Default)]
pub struct Memtable {
    map: BTreeMap<Vec<u8>, Entry>,
    approx_bytes: u64,
}

/// Fixed per-entry bookkeeping overhead used for size accounting.
const ENTRY_OVERHEAD: u64 = 32;

impl Memtable {
    /// An empty memtable.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts or overwrites a key.
    pub fn put(&mut self, key: &[u8], value: &[u8]) {
        self.insert(key, Some(value.to_vec()));
    }

    /// Records a tombstone.
    pub fn delete(&mut self, key: &[u8]) {
        self.insert(key, None);
    }

    fn insert(&mut self, key: &[u8], entry: Entry) {
        let add = key.len() as u64 + entry.as_ref().map_or(0, |v| v.len() as u64) + ENTRY_OVERHEAD;
        if let Some(old) = self.map.insert(key.to_vec(), entry) {
            let old_bytes =
                key.len() as u64 + old.as_ref().map_or(0, |v| v.len() as u64) + ENTRY_OVERHEAD;
            self.approx_bytes = self.approx_bytes - old_bytes + add;
        } else {
            self.approx_bytes += add;
        }
    }

    /// Looks a key up. `None` = not present here; `Some(None)` =
    /// tombstoned; `Some(Some(v))` = live value.
    pub fn get(&self, key: &[u8]) -> Option<&Entry> {
        self.map.get(key)
    }

    /// Number of entries (including tombstones).
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Approximate memory footprint in bytes (flush trigger).
    pub(crate) fn approx_bytes(&self) -> u64 {
        self.approx_bytes
    }

    /// Iterates entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&[u8], &Entry)> {
        self.map.iter().map(|(k, v)| (k.as_slice(), v))
    }

    /// Iterates entries with keys in `[start, end)` (end `None` = to the
    /// last key).
    pub fn range(&self, start: &[u8], end: Option<&[u8]>) -> impl Iterator<Item = (&[u8], &Entry)> {
        self.bounded(start, end).map(|(k, v)| (k.as_slice(), v))
    }

    /// The entries of [`Memtable::range`] as a merge source, lent from
    /// the map itself.
    pub(crate) fn source(&self, start: &[u8], end: Option<&[u8]>) -> MemSource<'_> {
        let mut range = self.bounded(start, end);
        MemSource {
            head: range.next(),
            range,
            last: (&[], None),
        }
    }

    fn bounded(&self, start: &[u8], end: Option<&[u8]>) -> btree_map::Range<'_, Vec<u8>, Entry> {
        // An `end` below `start` is an empty range, not a panic.
        let upper = end.map_or(Bound::Unbounded, |end| Bound::Excluded(end.max(start)));
        self.map.range::<[u8], _>((Bound::Included(start), upper))
    }

    /// Drains the table, returning the sorted entries.
    pub fn drain(&mut self) -> Vec<(Vec<u8>, Entry)> {
        self.approx_bytes = 0;
        std::mem::take(&mut self.map).into_iter().collect()
    }
}

/// A key range of a [`Memtable`] as a merge [`Source`].
pub(crate) struct MemSource<'a> {
    range: btree_map::Range<'a, Vec<u8>, Entry>,
    head: Option<(&'a Vec<u8>, &'a Entry)>,
    last: (&'a [u8], Option<&'a [u8]>),
}

impl Source for MemSource<'_> {
    fn peek(&self) -> Option<&[u8]> {
        self.head.map(|(k, _)| k.as_slice())
    }

    fn advance(&mut self) {
        if let Some((k, v)) = std::mem::replace(&mut self.head, self.range.next()) {
            self.last = (k, v.as_deref());
        }
    }

    fn last(&self) -> Lent<'_> {
        let (key, value) = self.last;
        Lent {
            key,
            value,
            window: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_delete() {
        let mut m = Memtable::new();
        m.put(b"a", b"1");
        m.put(b"b", b"2");
        assert_eq!(m.get(b"a"), Some(&Some(b"1".to_vec())));
        m.delete(b"a");
        assert_eq!(m.get(b"a"), Some(&None), "tombstone visible");
        assert_eq!(m.get(b"zzz"), None);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn size_accounting_tracks_overwrites() {
        let mut m = Memtable::new();
        m.put(b"k", &[0u8; 100]);
        let s1 = m.approx_bytes();
        m.put(b"k", &[0u8; 10]);
        let s2 = m.approx_bytes();
        assert!(s2 < s1, "shrinking a value must shrink accounting");
        m.put(b"k2", &[0u8; 100]);
        assert!(m.approx_bytes() > s2);
    }

    #[test]
    fn iteration_is_sorted() {
        let mut m = Memtable::new();
        for k in [b"d", b"a", b"c", b"b"] {
            m.put(k, b"v");
        }
        let keys: Vec<&[u8]> = m.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![&b"a"[..], b"b", b"c", b"d"]);
    }

    #[test]
    fn range_bounds() {
        let mut m = Memtable::new();
        for k in [b"a", b"b", b"c", b"d"] {
            m.put(k, b"v");
        }
        let keys: Vec<&[u8]> = m.range(b"b", Some(b"d")).map(|(k, _)| k).collect();
        assert_eq!(keys, vec![&b"b"[..], b"c"]);
        let keys: Vec<&[u8]> = m.range(b"c", None).map(|(k, _)| k).collect();
        assert_eq!(keys, vec![&b"c"[..], b"d"]);
        assert_eq!(m.range(b"d", Some(b"b")).count(), 0, "end below start");
    }

    #[test]
    fn drain_empties_and_sorts() {
        let mut m = Memtable::new();
        m.put(b"b", b"2");
        m.put(b"a", b"1");
        m.delete(b"c");
        let drained = m.drain();
        assert_eq!(drained.len(), 3);
        assert_eq!(drained[0].0, b"a");
        assert_eq!(drained[2], (b"c".to_vec(), None));
        assert!(m.is_empty());
        assert_eq!(m.approx_bytes(), 0);
    }
}
