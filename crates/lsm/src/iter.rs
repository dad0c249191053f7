//! K-way merge of sorted entry streams.
//!
//! Sources are ordered by recency: source 0 is the newest (memtable),
//! then L0 tables newest-to-oldest, then deeper levels. When several
//! sources yield the same key, the entry from the lowest-numbered source
//! wins and the rest are discarded — the LSM shadowing rule.
//!
//! An entry in flight is a pair of *ranges*, not of owned vectors: a
//! table scan yields each key and value as a [`FileSlice`] of the
//! readahead window it decoded them from, the merge orders and forwards
//! those ranges, and the bytes are read once more only where they
//! leave — encoded into an output table, or copied out at the public
//! `scan` boundary. Memtable entries join a merge as slices of their
//! own small buffers.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use ptsbench_vfs::FileSlice;

/// One entry of a sorted stream: `(key, value-or-tombstone)`.
pub type SharedEntry = (FileSlice, Option<FileSlice>);

/// A sorted stream of entries.
pub type EntryStream<'a> = Box<dyn Iterator<Item = SharedEntry> + 'a>;

struct HeapItem {
    key: FileSlice,
    value: Option<FileSlice>,
    source: usize,
}

impl PartialEq for HeapItem {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && self.source == other.source
    }
}
impl Eq for HeapItem {}
impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for min-ordering by
        // (key, source): smaller key first, then newer source.
        other
            .key
            .cmp(&self.key)
            .then(other.source.cmp(&self.source))
    }
}

/// Merging iterator over multiple recency-ordered sorted streams,
/// generic over the stream type. [`KWayMerge`] is the boxed-stream
/// alias the read and inline-compaction paths use; background
/// compaction jobs hold a `KMerge<std::vec::IntoIter<..>>` over owned
/// buffered runs instead, which keeps the parked job `Send` (engines
/// move across harness client threads with their jobs inside).
pub struct KMerge<I: Iterator<Item = SharedEntry>> {
    sources: Vec<I>,
    heap: BinaryHeap<HeapItem>,
}

/// Merging iterator over boxed entry streams.
pub type KWayMerge<'a> = KMerge<EntryStream<'a>>;

impl<I: Iterator<Item = SharedEntry>> KMerge<I> {
    /// Builds a merge over `sources` (index 0 = newest).
    pub fn new(sources: Vec<I>) -> Self {
        let mut merge = Self {
            sources,
            heap: BinaryHeap::new(),
        };
        for i in 0..merge.sources.len() {
            merge.refill(i);
        }
        merge
    }

    fn refill(&mut self, source: usize) {
        if let Some((key, value)) = self.sources[source].next() {
            self.heap.push(HeapItem { key, value, source });
        }
    }
}

impl<I: Iterator<Item = SharedEntry>> Iterator for KMerge<I> {
    /// Yields each distinct key once with its newest entry (tombstones
    /// included — dropping them is the consumer's policy decision).
    type Item = SharedEntry;

    fn next(&mut self) -> Option<Self::Item> {
        let top = self.heap.pop()?;
        self.refill(top.source);
        // Discard older entries for the same key.
        while let Some(peek) = self.heap.peek() {
            if peek.key != top.key {
                break;
            }
            let dup = self.heap.pop().expect("peeked");
            self.refill(dup.source);
        }
        Some((top.key, top.value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(items: Vec<(&str, Option<&str>)>) -> EntryStream<'static> {
        Box::new(
            items
                .into_iter()
                .map(|(k, v)| {
                    let value = v.map(|v| FileSlice::from(v.as_bytes().to_vec()));
                    (FileSlice::from(k.as_bytes().to_vec()), value)
                })
                .collect::<Vec<_>>()
                .into_iter(),
        )
    }

    #[test]
    fn merges_in_order() {
        let m = KWayMerge::new(vec![
            stream(vec![("b", Some("1")), ("d", Some("2"))]),
            stream(vec![("a", Some("3")), ("c", Some("4"))]),
        ]);
        let keys: Vec<Vec<u8>> = m.map(|(k, _)| k.to_vec()).collect();
        assert_eq!(
            keys,
            vec![b"a".to_vec(), b"b".to_vec(), b"c".to_vec(), b"d".to_vec()]
        );
    }

    #[test]
    fn newest_source_wins_duplicates() {
        let m = KWayMerge::new(vec![
            stream(vec![("k", Some("new"))]),
            stream(vec![("k", Some("old"))]),
        ]);
        let items: Vec<_> = m.collect();
        assert_eq!(items, stream(vec![("k", Some("new"))]).collect::<Vec<_>>());
    }

    #[test]
    fn tombstones_shadow_older_values() {
        let m = KWayMerge::new(vec![
            stream(vec![("k", None)]),
            stream(vec![("k", Some("old"))]),
        ]);
        let items: Vec<_> = m.collect();
        assert_eq!(items, stream(vec![("k", None)]).collect::<Vec<_>>());
    }

    #[test]
    fn three_way_with_interleaved_duplicates() {
        let m = KWayMerge::new(vec![
            stream(vec![("b", Some("B0")), ("e", None)]),
            stream(vec![
                ("a", Some("A1")),
                ("b", Some("B1")),
                ("d", Some("D1")),
            ]),
            stream(vec![
                ("b", Some("B2")),
                ("c", Some("C2")),
                ("e", Some("E2")),
            ]),
        ]);
        let items: Vec<_> = m
            .map(|(k, v)| {
                (
                    String::from_utf8(k.to_vec()).expect("utf8"),
                    v.map(|v| String::from_utf8(v.to_vec()).expect("utf8")),
                )
            })
            .collect();
        assert_eq!(
            items,
            vec![
                ("a".into(), Some("A1".into())),
                ("b".into(), Some("B0".into())),
                ("c".into(), Some("C2".into())),
                ("d".into(), Some("D1".into())),
                ("e".into(), None),
            ]
        );
    }

    #[test]
    fn empty_sources() {
        let m = KWayMerge::new(vec![
            stream(vec![]),
            stream(vec![("a", Some("1"))]),
            stream(vec![]),
        ]);
        assert_eq!(m.count(), 1);
        let m = KWayMerge::new(vec![]);
        assert_eq!(m.count(), 0);
    }
}
