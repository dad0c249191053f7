//! Tree pages: leaves and internal routing nodes, with their binary
//! encodings.
//!
//! Leaf layout: `[1u8][u32 n]` then `n` entries of
//! `[u16 klen][u32 vlen][key][value]`, keys strictly increasing.
//!
//! Internal layout: `[2u8][u32 n_children][u64 child]*n` then
//! `(n_children - 1)` separators of `[u16 klen][key]`. Child `i` holds
//! keys `k` with `sep[i-1] <= k < sep[i]` (first child: `k < sep[0]`).
//!
//! In memory an internal node keeps its separators the way the page
//! does ([`Separators`]): the `[u16 klen][key]` records back to back in
//! one buffer, plus an offset per record. A 32 KiB internal page routes
//! ~1 000 children; decoding it is one copy of the separator region and
//! a walk over the length prefixes — three allocations (children,
//! records, offsets) instead of one per key — and encoding is one copy
//! back.

use crate::{BTreeError, PageNo, Result};

/// The separator keys of an internal node, in page layout.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Separators {
    /// The `[u16 klen][key]` records, back to back, in key order.
    records: Vec<u8>,
    /// `starts[i]` is the offset of record `i` in `records`.
    starts: Vec<u32>,
}

impl Separators {
    /// Number of separators.
    pub fn len(&self) -> usize {
        self.starts.len()
    }

    /// Whether there are no separators.
    pub fn is_empty(&self) -> bool {
        self.starts.is_empty()
    }

    /// The key of the record starting at `start`.
    fn key_at(&self, start: u32) -> &[u8] {
        let start = start as usize;
        let klen = u16::from_le_bytes([self.records[start], self.records[start + 1]]) as usize;
        &self.records[start + 2..start + 2 + klen]
    }

    /// Offset of record `i`; the end of the buffer for `i == len()`.
    fn offset(&self, i: usize) -> usize {
        self.starts
            .get(i)
            .map_or(self.records.len(), |&s| s as usize)
    }

    /// How many separators are `<= key`: the index of the child that
    /// covers `key`.
    pub fn rank(&self, key: &[u8]) -> usize {
        self.starts
            .partition_point(|&start| self.key_at(start) <= key)
    }

    /// Inserts `key` as separator `i`, shifting the later ones up.
    pub fn insert(&mut self, i: usize, key: &[u8]) {
        let klen = u16::try_from(key.len()).expect("separator keys fit a u16 length");
        let at = self.offset(i);
        let record_len = 2 + key.len();
        let old_len = self.records.len();
        self.records.resize(old_len + record_len, 0);
        self.records.copy_within(at..old_len, at + record_len);
        self.records[at..at + 2].copy_from_slice(&klen.to_le_bytes());
        self.records[at + 2..at + record_len].copy_from_slice(key);
        for start in &mut self.starts[i..] {
            *start += record_len as u32;
        }
        self.starts.insert(i, at as u32);
    }

    /// Appends `key` as the last separator.
    pub fn push(&mut self, key: &[u8]) {
        self.insert(self.len(), key);
    }

    /// Removes separator `i`, shifting the later ones down.
    pub fn remove(&mut self, i: usize) {
        let (at, end) = (self.offset(i), self.offset(i + 1));
        self.records.drain(at..end);
        self.starts.remove(i);
        for start in &mut self.starts[i..] {
            *start -= (end - at) as u32;
        }
    }

    /// Splits off the separators from index `at` on, keeping the rest.
    pub(crate) fn split_off(&mut self, at: usize) -> Separators {
        let cut = self.offset(at);
        let records = self.records.split_off(cut);
        let mut starts = self.starts.split_off(at);
        for start in &mut starts {
            *start -= cut as u32;
        }
        Separators { records, starts }
    }

    /// Appends all of `other`'s separators after this one's.
    pub fn append(&mut self, other: &Separators) {
        let base = self.records.len() as u32;
        self.records.extend_from_slice(&other.records);
        self.starts.extend(other.starts.iter().map(|&s| s + base));
    }

    /// Size of the separators in a page image.
    fn encoded_len(&self) -> usize {
        self.records.len()
    }

    /// Reads `n` separator records off the front of `buf`.
    fn decode(buf: &[u8], n: usize) -> Result<Self> {
        let corrupt = |m: &str| BTreeError::Corruption(m.to_string());
        let mut starts = Vec::with_capacity(n);
        let mut pos = 0;
        for _ in 0..n {
            let Some(klen) = buf.get(pos..pos + 2) else {
                return Err(corrupt("truncated separator"));
            };
            starts.push(pos as u32);
            pos += 2 + u16::from_le_bytes([klen[0], klen[1]]) as usize;
            if pos > buf.len() {
                return Err(corrupt("truncated separator key"));
            }
        }
        Ok(Separators {
            records: buf[..pos].to_vec(),
            starts,
        })
    }
}

impl std::ops::Index<usize> for Separators {
    type Output = [u8];

    fn index(&self, i: usize) -> &[u8] {
        self.key_at(self.starts[i])
    }
}

impl<K: AsRef<[u8]>> FromIterator<K> for Separators {
    fn from_iter<I: IntoIterator<Item = K>>(keys: I) -> Self {
        let mut separators = Separators::default();
        for key in keys {
            separators.push(key.as_ref());
        }
        separators
    }
}

/// A decoded tree page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    /// Key-value storage page.
    Leaf {
        /// Sorted `(key, value)` entries.
        entries: Vec<(Vec<u8>, Vec<u8>)>,
    },
    /// Routing page.
    Internal {
        /// Child page numbers (`separators.len() + 1` of them).
        children: Vec<PageNo>,
        /// Separator keys between children.
        separators: Separators,
    },
}

const TAG_LEAF: u8 = 1;
const TAG_INTERNAL: u8 = 2;

impl Node {
    /// Whether this is a leaf page.
    pub(crate) fn is_leaf(&self) -> bool {
        matches!(self, Node::Leaf { .. })
    }

    /// Encoded size in bytes.
    pub fn encoded_len(&self) -> usize {
        match self {
            Node::Leaf { entries } => {
                5 + entries
                    .iter()
                    .map(|(k, v)| 6 + k.len() + v.len())
                    .sum::<usize>()
            }
            Node::Internal {
                children,
                separators,
            } => 5 + children.len() * 8 + separators.encoded_len(),
        }
    }

    /// Encodes into `buf` (cleared first).
    pub fn encode(&self, buf: &mut Vec<u8>) {
        buf.clear();
        match self {
            Node::Leaf { entries } => {
                buf.push(TAG_LEAF);
                buf.extend_from_slice(&(entries.len() as u32).to_le_bytes());
                for (k, v) in entries {
                    buf.extend_from_slice(&(k.len() as u16).to_le_bytes());
                    buf.extend_from_slice(&(v.len() as u32).to_le_bytes());
                    buf.extend_from_slice(k);
                    buf.extend_from_slice(v);
                }
            }
            Node::Internal {
                children,
                separators,
            } => {
                debug_assert_eq!(children.len(), separators.len() + 1);
                buf.push(TAG_INTERNAL);
                buf.extend_from_slice(&(children.len() as u32).to_le_bytes());
                for c in children {
                    buf.extend_from_slice(&c.to_le_bytes());
                }
                buf.extend_from_slice(&separators.records);
            }
        }
    }

    /// Decodes a page image.
    pub fn decode(buf: &[u8]) -> Result<Self> {
        let corrupt = |m: &str| BTreeError::Corruption(m.to_string());
        if buf.len() < 5 {
            return Err(corrupt("page too small"));
        }
        let tag = buf[0];
        let n = u32::from_le_bytes(buf[1..5].try_into().expect("4 bytes")) as usize;
        let mut pos = 5;
        match tag {
            TAG_LEAF => {
                let mut entries = Vec::with_capacity(n);
                for _ in 0..n {
                    if pos + 6 > buf.len() {
                        return Err(corrupt("truncated leaf entry"));
                    }
                    let klen =
                        u16::from_le_bytes(buf[pos..pos + 2].try_into().expect("2")) as usize;
                    let vlen =
                        u32::from_le_bytes(buf[pos + 2..pos + 6].try_into().expect("4")) as usize;
                    pos += 6;
                    if pos + klen + vlen > buf.len() {
                        return Err(corrupt("truncated leaf payload"));
                    }
                    let key = buf[pos..pos + klen].to_vec();
                    pos += klen;
                    let value = buf[pos..pos + vlen].to_vec();
                    pos += vlen;
                    entries.push((key, value));
                }
                Ok(Node::Leaf { entries })
            }
            TAG_INTERNAL => {
                if n == 0 {
                    return Err(corrupt("internal node without children"));
                }
                if pos + n * 8 > buf.len() {
                    return Err(corrupt("truncated children"));
                }
                let mut children = Vec::with_capacity(n);
                for _ in 0..n {
                    children.push(u64::from_le_bytes(buf[pos..pos + 8].try_into().expect("8")));
                    pos += 8;
                }
                Ok(Node::Internal {
                    children,
                    separators: Separators::decode(&buf[pos..], n - 1)?,
                })
            }
            _ => Err(corrupt("unknown page tag")),
        }
    }

    /// For an internal node: index of the child that covers `key`.
    pub fn route(&self, key: &[u8]) -> usize {
        match self {
            Node::Internal { separators, .. } => separators.rank(key),
            Node::Leaf { .. } => panic!("route() on a leaf"),
        }
    }

    /// For an internal node: records that the child at `idx` split,
    /// `right` now holding its keys from `sep` up.
    pub(crate) fn insert_child(&mut self, idx: usize, sep: &[u8], right: PageNo) {
        match self {
            Node::Internal {
                children,
                separators,
            } => {
                separators.insert(idx, sep);
                children.insert(idx + 1, right);
            }
            Node::Leaf { .. } => panic!("insert_child() on a leaf"),
        }
    }

    /// For an internal node: drops the child right of separator `idx`
    /// (merged into the child left of it) along with that separator.
    pub(crate) fn remove_child(&mut self, idx: usize) {
        match self {
            Node::Internal {
                children,
                separators,
            } => {
                separators.remove(idx);
                children.remove(idx + 1);
            }
            Node::Leaf { .. } => panic!("remove_child() on a leaf"),
        }
    }

    /// Encoded size a left sibling of `left_len` encoded bytes would have
    /// after [`Node::absorb`]ing `self`, its right sibling. `sep` is the
    /// parent's separator between the two (it moves down when internal
    /// nodes merge).
    pub(crate) fn merged_len(&self, left_len: usize, sep: &[u8]) -> usize {
        let pulled_down = if self.is_leaf() { 0 } else { 2 + sep.len() };
        left_len + self.encoded_len() - 5 + pulled_down
    }

    /// Merges the right sibling into `self`.
    pub fn absorb(&mut self, sep: &[u8], right: Node) {
        match (self, right) {
            (Node::Leaf { entries }, Node::Leaf { entries: re }) => entries.extend(re),
            (
                Node::Internal {
                    children,
                    separators,
                },
                Node::Internal {
                    children: rc,
                    separators: rs,
                },
            ) => {
                separators.push(sep);
                separators.append(&rs);
                children.extend(rc);
            }
            _ => panic!("siblings have equal height"),
        }
    }

    /// Append-optimized leaf split: moves only the final entry to the
    /// right node. Used when the overflowing insertion was at the end of
    /// the leaf (the sequential-load pattern), leaving the left leaf
    /// ~full — this is why B+Trees bulk-loaded in key order reach the
    /// ~1.12 space amplification the paper measures for WiredTiger,
    /// instead of the ~1.5 a half-split would produce.
    pub(crate) fn split_append(&mut self) -> (Vec<u8>, Node) {
        match self {
            Node::Leaf { entries } => {
                debug_assert!(entries.len() >= 2, "split of a 1-entry leaf");
                let last = entries.pop().expect("non-empty leaf");
                let sep = last.0.clone();
                (
                    sep,
                    Node::Leaf {
                        entries: vec![last],
                    },
                )
            }
            Node::Internal { .. } => self.split(),
        }
    }

    /// Splits a too-large node in half; returns `(separator, right node)`.
    /// `self` keeps the left half. The separator is the first key of the
    /// right half (for leaves) or the promoted middle key (internal).
    pub fn split(&mut self) -> (Vec<u8>, Node) {
        match self {
            Node::Leaf { entries } => {
                // Split by bytes, not count, so jagged value sizes still
                // halve evenly.
                let total: usize = entries.iter().map(|(k, v)| 6 + k.len() + v.len()).sum();
                let mut acc = 0;
                let mut cut = entries.len() / 2;
                for (i, (k, v)) in entries.iter().enumerate() {
                    acc += 6 + k.len() + v.len();
                    if acc * 2 >= total {
                        cut = (i + 1).min(entries.len() - 1).max(1);
                        break;
                    }
                }
                let right: Vec<_> = entries.split_off(cut);
                let sep = right[0].0.clone();
                (sep, Node::Leaf { entries: right })
            }
            Node::Internal {
                children,
                separators,
            } => {
                let mid = separators.len() / 2;
                let promoted = separators[mid].to_vec();
                let right_seps = separators.split_off(mid + 1);
                separators.remove(mid); // the promoted key leaves the left
                let right_children: Vec<_> = children.split_off(mid + 1);
                (
                    promoted,
                    Node::Internal {
                        children: right_children,
                        separators: right_seps,
                    },
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(pairs: &[(&str, &str)]) -> Node {
        Node::Leaf {
            entries: pairs
                .iter()
                .map(|(k, v)| (k.as_bytes().to_vec(), v.as_bytes().to_vec()))
                .collect(),
        }
    }

    #[test]
    fn leaf_round_trip() {
        let n = leaf(&[("a", "1"), ("b", "22"), ("c", "")]);
        let mut buf = Vec::new();
        n.encode(&mut buf);
        assert_eq!(buf.len(), n.encoded_len());
        assert_eq!(Node::decode(&buf).expect("decode"), n);
    }

    #[test]
    fn internal_round_trip() {
        let n = Node::Internal {
            children: vec![10, 20, 30],
            separators: ["g", "p"].into_iter().collect(),
        };
        let mut buf = Vec::new();
        n.encode(&mut buf);
        assert_eq!(buf.len(), n.encoded_len());
        assert_eq!(Node::decode(&buf).expect("decode"), n);
    }

    /// The page image the per-key `Vec<Vec<u8>>` node wrote.
    fn reference_internal_image(children: &[PageNo], separators: &[Vec<u8>]) -> Vec<u8> {
        let mut buf = vec![TAG_INTERNAL];
        buf.extend_from_slice(&(children.len() as u32).to_le_bytes());
        for c in children {
            buf.extend_from_slice(&c.to_le_bytes());
        }
        for k in separators {
            buf.extend_from_slice(&(k.len() as u16).to_le_bytes());
            buf.extend_from_slice(k);
        }
        buf
    }

    #[test]
    fn wide_internal_page_image_is_unchanged() {
        // A paper-shaped internal page: 1 200 separators of jagged
        // lengths (including an empty key), built both in one go and by
        // the edits a live tree makes.
        let keys: Vec<Vec<u8>> = (0..1200u32)
            .map(|i| format!("user{i:08}{}", "x".repeat(i as usize % 7)).into_bytes())
            .collect();
        let mut keys = [vec![Vec::new()], keys].concat();
        let mut children: Vec<PageNo> = (1..=keys.len() as u64 + 1).collect();
        let mut node = Node::Internal {
            children: children.clone(),
            separators: keys.iter().collect(),
        };
        let mut buf = Vec::new();
        node.encode(&mut buf);
        assert_eq!(buf, reference_internal_image(&children, &keys));
        assert_eq!(buf.len(), node.encoded_len());
        assert_eq!(Node::decode(&buf).expect("decode"), node);

        node.insert_child(701, b"user00000699zz", 9000);
        keys.insert(701, b"user00000699zz".to_vec());
        children.insert(702, 9000);
        node.remove_child(3);
        keys.remove(3);
        children.remove(4);
        let (promoted, right) = node.split();
        let mid = keys.len() / 2;
        assert_eq!(promoted, keys[mid]);
        node.encode(&mut buf);
        assert_eq!(
            buf,
            reference_internal_image(&children[..=mid], &keys[..mid])
        );
        right.encode(&mut buf);
        assert_eq!(
            buf,
            reference_internal_image(&children[mid + 1..], &keys[mid + 1..])
        );
        let merged_len = right.merged_len(node.encoded_len(), &promoted);
        node.absorb(&promoted, right);
        node.encode(&mut buf);
        assert_eq!(buf, reference_internal_image(&children, &keys));
        assert_eq!(buf.len(), merged_len);
        assert_eq!(
            node.route(b"user00000699zz"),
            701,
            "separator key routes right"
        );
    }

    #[test]
    fn corrupt_pages_rejected() {
        assert!(Node::decode(&[]).is_err());
        assert!(Node::decode(&[9, 0, 0, 0, 0]).is_err(), "unknown tag");
        let n = leaf(&[("abc", "def")]);
        let mut buf = Vec::new();
        n.encode(&mut buf);
        assert!(Node::decode(&buf[..buf.len() - 2]).is_err());
    }

    #[test]
    fn routing() {
        let n = Node::Internal {
            children: vec![1, 2, 3],
            separators: ["g", "p"].into_iter().collect(),
        };
        assert_eq!(n.route(b"a"), 0);
        assert_eq!(n.route(b"g"), 1, "separator key routes right");
        assert_eq!(n.route(b"m"), 1);
        assert_eq!(n.route(b"p"), 2);
        assert_eq!(n.route(b"z"), 2);
    }

    #[test]
    fn leaf_split_halves_by_bytes() {
        let mut n = Node::Leaf {
            entries: (0..10u8)
                .map(|i| (vec![b'a' + i], vec![0u8; if i < 2 { 400 } else { 10 }]))
                .collect(),
        };
        let before = n.encoded_len();
        let (sep, right) = n.split();
        // Separator is the first right key and ordering is preserved.
        if let (Node::Leaf { entries: left }, Node::Leaf { entries: right_e }) = (&n, &right) {
            assert_eq!(right_e[0].0, sep);
            assert!(left.last().expect("left non-empty").0 < sep);
            assert_eq!(left.len() + right_e.len(), 10);
            // Byte-based split: the two big entries keep the left side small.
            assert!(left.len() < right_e.len());
        } else {
            panic!("expected leaves");
        }
        assert!(n.encoded_len() < before);
    }

    #[test]
    fn internal_split_promotes_middle() {
        let mut n = Node::Internal {
            children: vec![1, 2, 3, 4, 5],
            separators: ["b", "d", "f", "h"].into_iter().collect(),
        };
        let (sep, right) = n.split();
        assert_eq!(sep, b"f".to_vec());
        if let (
            Node::Internal {
                children: lc,
                separators: ls,
            },
            Node::Internal {
                children: rc,
                separators: rs,
            },
        ) = (&n, &right)
        {
            assert_eq!(lc.len(), ls.len() + 1);
            assert_eq!(rc.len(), rs.len() + 1);
            assert_eq!(lc.len() + rc.len(), 5);
            assert!((0..ls.len()).all(|i| ls[i] < sep[..]));
            assert!((0..rs.len()).all(|i| rs[i] > sep[..]));
        } else {
            panic!("expected internals");
        }
    }

    #[test]
    #[should_panic(expected = "route() on a leaf")]
    fn routing_on_leaf_panics() {
        leaf(&[("a", "1")]).route(b"a");
    }
}
