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
//! In memory both kinds keep their records the way the page does
//! ([`Records`]): back to back in one buffer, plus an offset per record.
//!
//! * A leaf ([`Entries`]) *is* its page image: a page-long buffer that
//!   starts with the `[1u8][u32 n]` header, which every edit keeps
//!   current, and is zero past its records. Loading one copies nothing:
//!   the leaf keeps the tree file's own page, shared, and walks its
//!   6-byte record headers (one allocation: the offsets). An overwrite
//!   of a value with one of the same length, while the page is still
//!   shared, copies nothing: it is kept *pending* beside the page (at
//!   most one per record), every read looks through it, and the
//!   write-back hands the page and the pending values to the file
//!   together ([`ptsbench_vfs::Vfs::rewrite_page`]), which makes them in
//!   its own page when nobody else holds it. The first edit that moves
//!   bytes after a load or a write-back copies the page's records once,
//!   into a page of the leaf's own, with the pending values in place,
//!   and the file keeps its bytes; a lookup is a binary search over the
//!   offsets; an insert, overwrite or remove is one move inside the
//!   buffer; split and merge move byte ranges; and the pager hands the
//!   buffer to the file as it is, with no encode pass and no copy.
//!   Length, equality and the cache budget count the bytes in use, not
//!   the room.
//! * An internal node keeps its separators ([`Separators`]) the same way
//!   beside a vector of children. A 32 KiB internal page routes ~1 000
//!   children; decoding it is one copy of the separator region and a
//!   walk over the length prefixes — three allocations (children,
//!   records, offsets) instead of one per key — and encoding is one copy
//!   back.

use std::borrow::Cow;
use std::ops::Range;
use std::sync::Arc;

use ptsbench_vfs::{cmp_keys, touch_strided, FileSlice, StoreError};

use crate::{PageNo, Result};

/// Records in page layout: back to back in one buffer, in key order,
/// with the offset of each. With `LEAF`, a leaf's
/// `[u16 klen][u32 vlen][key][value]` entries behind the leaf page
/// header ([`Entries`]); without, an internal node's `[u16 klen][key]`
/// separators ([`Separators`]).
///
/// Compares as the records (the bytes in use), whatever room follows.
#[derive(Debug, Clone)]
pub struct Records<const LEAF: bool> {
    /// The leaf page header (leaves only), then the records, then room:
    /// `buf[..used]` is in use and every byte after it is zero. Shared
    /// copy-on-write: every edit but a pending overwrite goes through
    /// [`Records::bytes_mut`], so a buffer the tree file also holds is
    /// copied once, by the first such edit.
    buf: Arc<Vec<u8>>,
    /// Bytes of `buf` in use.
    used: usize,
    /// `starts[i]` is the offset of record `i` in `buf`.
    starts: Vec<u32>,
    /// Values newer than `buf`'s, of the same lengths (leaves only).
    pending: Pending,
}

impl<const LEAF: bool> PartialEq for Records<LEAF> {
    fn eq(&self, other: &Self) -> bool {
        self.starts == other.starts && self.image() == other.image()
    }
}

impl<const LEAF: bool> Eq for Records<LEAF> {}

/// A leaf's entries: the leaf's page image.
pub type Entries = Records<true>;

/// The separator keys of an internal node, in page layout.
pub type Separators = Records<false>;

impl<const LEAF: bool> Default for Records<LEAF> {
    fn default() -> Self {
        let mut records = Records {
            buf: Arc::new(vec![0; Self::PREFIX]),
            used: Self::PREFIX,
            starts: Vec::new(),
            pending: Pending::default(),
        };
        records.stamp();
        records
    }
}

impl<const LEAF: bool> Records<LEAF> {
    /// Bytes before the first record: the leaf page header.
    const PREFIX: usize = if LEAF { 5 } else { 0 };
    /// Bytes of a record's length header.
    const HEADER: usize = if LEAF { 6 } else { 2 };

    /// Number of records.
    pub fn len(&self) -> usize {
        self.starts.len()
    }

    /// Whether there are no records.
    pub fn is_empty(&self) -> bool {
        self.starts.is_empty()
    }

    /// `(key length, value length)` from the header at the front of
    /// `record`.
    fn lens(record: &[u8]) -> (usize, usize) {
        let klen = u16::from_le_bytes([record[0], record[1]]) as usize;
        let vlen = if LEAF {
            u32::from_le_bytes([record[2], record[3], record[4], record[5]]) as usize
        } else {
            0
        };
        (klen, vlen)
    }

    /// The key of the record starting at `start`.
    fn key_at(&self, start: u32) -> &[u8] {
        let record = &self.buf[start as usize..];
        &record[Self::HEADER..Self::HEADER + Self::lens(record).0]
    }

    /// The key of record `i`.
    pub fn key(&self, i: usize) -> &[u8] {
        self.key_at(self.starts[i])
    }

    /// Offset of record `i`; the end of the records for `i == len()`.
    fn offset(&self, i: usize) -> usize {
        self.starts.get(i).map_or(self.used, |&s| s as usize)
    }

    /// The buffer, to edit, with the pending values in place: the one
    /// place a shared buffer is copied (`Arc::make_mut`, but of the
    /// bytes in use only; the room of the copy is zeroed, not copied).
    fn bytes_mut(&mut self) -> &mut Vec<u8> {
        if Arc::get_mut(&mut self.buf).is_none() {
            self.buf = Arc::new(with_room(&self.buf[..self.used], self.buf.len()));
        }
        let buf = Arc::get_mut(&mut self.buf).expect("a buffer of its own");
        self.pending.apply(buf);
        self.pending.clear();
        buf
    }

    /// The bytes in use as the records read: `buf[..used]` with the
    /// pending values in place.
    fn image(&self) -> Cow<'_, [u8]> {
        let bytes = &self.buf[..self.used];
        if self.pending.is_empty() {
            return Cow::Borrowed(bytes);
        }
        let mut image = bytes.to_vec();
        self.pending.apply(&mut image);
        Cow::Owned(image)
    }

    /// The position of `key`: `Ok` if a record holds it, `Err` with its
    /// insertion point if not.
    pub(crate) fn search(&self, key: &[u8]) -> std::result::Result<usize, usize> {
        self.starts
            .binary_search_by(|&start| cmp_keys(self.key_at(start), key))
    }

    /// Keeps a leaf's page header current: its tag and record count.
    fn stamp(&mut self) {
        if LEAF {
            let n = (self.starts.len() as u32).to_le_bytes();
            let buf = self.bytes_mut();
            buf[0] = TAG_LEAF;
            buf[1..5].copy_from_slice(&n);
        }
    }

    /// Resizes the `old` bytes at `at` to `new` bytes, moving everything
    /// after them, and moves the offsets of records `from..` with them.
    /// The buffer grows only past its room; bytes given up are zeroed;
    /// nothing moves when the length stays.
    fn respan(&mut self, at: usize, old: usize, new: usize, from: usize) {
        let end = self.used;
        let new_end = end + new - old;
        let buf = self.bytes_mut();
        if new == old {
            return;
        }
        grow(buf, new_end);
        buf.copy_within(at + old..end, at + new);
        if new_end < end {
            buf[new_end..end].fill(0);
        }
        self.used = new_end;
        for start in &mut self.starts[from..] {
            *start = (*start as usize + new - old) as u32;
        }
    }

    /// Inserts a record as number `i`, shifting the later ones up.
    fn insert_record(&mut self, i: usize, key: &[u8], value: &[u8]) {
        let klen = u16::try_from(key.len()).expect("keys fit a u16 length");
        let at = self.offset(i);
        let len = Self::HEADER + key.len() + value.len();
        self.respan(at, 0, len, i);
        self.starts.insert(i, at as u32);
        let (header, body) = self.bytes_mut()[at..at + len].split_at_mut(Self::HEADER);
        header[..2].copy_from_slice(&klen.to_le_bytes());
        if LEAF {
            header[2..].copy_from_slice(&(value.len() as u32).to_le_bytes());
        }
        body[..key.len()].copy_from_slice(key);
        body[key.len()..].copy_from_slice(value);
        self.stamp();
    }

    /// Removes record `i`, shifting the later ones down.
    pub fn remove(&mut self, i: usize) {
        let (at, end) = (self.offset(i), self.offset(i + 1));
        self.starts.remove(i);
        self.respan(at, end - at, 0, i);
        self.stamp();
    }

    /// A copy of records `from..to`: one byte range.
    pub(crate) fn range(&self, from: usize, to: usize) -> Self {
        let (lo, hi) = (self.offset(from), self.offset(to));
        let mut buf = Vec::with_capacity(Self::PREFIX + hi - lo);
        buf.extend_from_slice(&self.buf[..Self::PREFIX]);
        buf.extend_from_slice(&self.buf[lo..hi]);
        self.pending.apply_range(lo..hi, &mut buf[Self::PREFIX..]);
        let rebase = |&start: &u32| start - lo as u32 + Self::PREFIX as u32;
        let mut records = Records {
            used: buf.len(),
            buf: Arc::new(buf),
            starts: self.starts[from..to].iter().map(rebase).collect(),
            pending: Pending::default(),
        };
        records.stamp();
        records
    }

    /// Splits off the records from index `at` on, keeping the rest.
    pub(crate) fn split_off(&mut self, at: usize) -> Self {
        let right = self.range(at, self.len());
        let (cut, end) = (self.offset(at), self.used);
        self.bytes_mut()[cut..end].fill(0);
        self.used = cut;
        self.starts.truncate(at);
        self.stamp();
        right
    }

    /// Appends all of `other`'s records after this one's.
    pub fn append(&mut self, other: &Self) {
        let (at, base) = (self.used, (self.used - Self::PREFIX) as u32);
        let records = Self::PREFIX..other.used;
        let end = at + records.len();
        let buf = self.bytes_mut();
        grow(buf, end);
        buf[at..end].copy_from_slice(&other.buf[records.clone()]);
        other.pending.apply_range(records, &mut buf[at..end]);
        self.used = end;
        self.starts.extend(other.starts.iter().map(|&s| s + base));
        self.stamp();
    }

    /// The offsets of `n` records at the front of `page` (behind the
    /// header, for a leaf), and where the last one ends.
    fn walk(page: &[u8], n: usize) -> Result<(Vec<u32>, usize)> {
        let truncated = || StoreError::Corruption(format!("truncated record in a {n}-record page"));
        // `n` comes off the page: every record takes at least a header.
        let mut starts = Vec::with_capacity(n.min(page.len() / Self::HEADER));
        let mut pos = Self::PREFIX;
        if let (true, Some(header)) = (LEAF, page.get(pos..pos + Self::HEADER)) {
            // A leaf's records are mostly one size: fetch every header
            // at once where that size puts it, not one miss at a time.
            let (klen, vlen) = Self::lens(header);
            touch_strided(page, pos, Self::HEADER + klen + vlen, n);
        }
        for _ in 0..n {
            let Some(header) = page.get(pos..pos + Self::HEADER) else {
                return Err(truncated());
            };
            let (klen, vlen) = Self::lens(header);
            starts.push(pos as u32);
            pos += Self::HEADER + klen + vlen;
            if pos > page.len() {
                return Err(truncated());
            }
        }
        Ok((starts, pos))
    }

    /// Reads `n` records off the front of `page` into a buffer of their
    /// own: for a leaf, a page long, with the room zeroed.
    fn decode(page: &[u8], n: usize) -> Result<Self> {
        let (starts, used) = Self::walk(page, n)?;
        let room = if LEAF { page.len() } else { used };
        Ok(Records {
            buf: Arc::new(with_room(&page[..used], room)),
            used,
            starts,
            pending: Pending::default(),
        })
    }
}

impl Separators {
    /// How many separators are `<= key`: the index of the child that
    /// covers `key`.
    pub fn rank(&self, key: &[u8]) -> usize {
        self.starts
            .partition_point(|&start| cmp_keys(self.key_at(start), key).is_le())
    }

    /// Inserts `key` as separator `i`, shifting the later ones up.
    pub fn insert(&mut self, i: usize, key: &[u8]) {
        self.insert_record(i, key, &[]);
    }

    /// Appends `key` as the last separator.
    pub fn push(&mut self, key: &[u8]) {
        self.insert(self.len(), key);
    }
}

impl std::ops::Index<usize> for Separators {
    type Output = [u8];

    fn index(&self, i: usize) -> &[u8] {
        self.key(i)
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

impl Entries {
    /// Entry `i` as `(key, value)`.
    pub(crate) fn get(&self, i: usize) -> (&[u8], &[u8]) {
        let start = self.starts[i] as usize;
        let record = &self.buf[start..];
        let (klen, vlen) = Self::lens(record);
        let (key, value) = record[Self::HEADER..Self::HEADER + klen + vlen].split_at(klen);
        let pending = self.pending.get(start + Self::HEADER + klen);
        (key, pending.unwrap_or(value))
    }

    /// Inserts `(key, value)` as entry `i`, shifting the later ones up.
    pub(crate) fn insert(&mut self, i: usize, key: &[u8], value: &[u8]) {
        self.insert_record(i, key, value);
    }

    /// Replaces the value of entry `i`, moving the later entries by the
    /// difference in length. A value of the same length while the
    /// buffer is shared (with the tree file, after a load or a
    /// write-back) is kept pending instead: the page is not copied.
    pub(crate) fn set_value(&mut self, i: usize, value: &[u8]) {
        let start = self.starts[i] as usize;
        let (klen, vlen) = Self::lens(&self.buf[start..]);
        let at = start + Self::HEADER + klen;
        if value.len() == vlen && Arc::get_mut(&mut self.buf).is_none() {
            self.pending.set(at, value);
            return;
        }
        self.respan(at, vlen, value.len(), i + 1);
        let buf = self.bytes_mut();
        buf[start + 2..start + 6].copy_from_slice(&(value.len() as u32).to_le_bytes());
        buf[at..at + value.len()].copy_from_slice(value);
    }

    /// Where a byte-halving split cuts: after the first entry that
    /// brings the left half to at least half the record bytes, keeping
    /// both halves non-empty.
    fn halving_cut(&self) -> usize {
        let total = self.used - Self::PREFIX;
        (1..self.len())
            .find(|&i| (self.offset(i) - Self::PREFIX) * 2 >= total)
            .unwrap_or(self.len() - 1)
            .max(1)
    }

    /// A leaf holding `(key, value)` alone, in a buffer `page_bytes`
    /// long: a page image as it is.
    fn lone(key: &[u8], value: &[u8], page_bytes: usize) -> Self {
        let mut entries = Self {
            buf: Arc::new(vec![0; page_bytes]),
            used: Self::PREFIX,
            starts: Vec::new(),
            pending: Pending::default(),
        };
        entries.insert(0, key, value);
        entries
    }

    /// The leaf as a page read from the tree file: `page` itself, kept
    /// shared (no copy; only the record headers are walked). A page the
    /// tree wrote is zero past its records.
    fn shared(page: Arc<Vec<u8>>, n: usize) -> Result<Self> {
        let (starts, used) = Self::walk(&page, n)?;
        Ok(Records {
            buf: page,
            used,
            starts,
            pending: Pending::default(),
        })
    }

    /// Makes the buffer exactly a page, `page_bytes` long and no
    /// larger an allocation, and returns it: the page image, shared
    /// with whoever writes it. A leaf born smaller (a new root, a split's
    /// right half) or one that overflowed before its split moves to a
    /// buffer of its own; the file may hold the page for a long time.
    pub(crate) fn page(&mut self, page_bytes: usize) -> &Arc<Vec<u8>> {
        debug_assert!(self.used <= page_bytes, "leaf larger than a page");
        if self.buf.len() != page_bytes || self.buf.capacity() != page_bytes {
            let mut page = with_room(&self.buf[..self.used], page_bytes);
            self.pending.apply(&mut page);
            self.pending.clear();
            self.buf = Arc::new(page);
        }
        &self.buf
    }

    /// The page image a write-back writes (see [`Node::page_image`]).
    fn page_image(&mut self, page_bytes: usize) -> PageImage<'_> {
        if self.pending.is_empty() {
            PageImage::Shared(self.page(page_bytes))
        } else {
            PageImage::Patched(&mut self.buf, &mut self.pending)
        }
    }

    /// The buffer, whole, as a slice sharing it (tests).
    #[cfg(test)]
    pub(crate) fn buffer(&self) -> FileSlice {
        FileSlice::from(Arc::clone(&self.buf))
    }
}

impl<K: AsRef<[u8]>, V: AsRef<[u8]>> FromIterator<(K, V)> for Entries {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(pairs: I) -> Self {
        let mut entries = Entries::default();
        for (key, value) in pairs {
            entries.insert(entries.len(), key.as_ref(), value.as_ref());
        }
        entries
    }
}

/// Same-length value overwrites not yet in a leaf's buffer, because
/// the buffer is shared: `(offset of the value in the buffer, value)`,
/// by offset, at most one per record — so they never add up to more
/// than the page.
#[derive(Debug, Clone, Default)]
pub(crate) struct Pending(Vec<(u32, Vec<u8>)>);

impl Pending {
    fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The pending value at offset `at`, if there is one.
    fn get(&self, at: usize) -> Option<&[u8]> {
        let i = self
            .0
            .binary_search_by_key(&(at as u32), |(o, _)| *o)
            .ok()?;
        Some(&self.0[i].1)
    }

    /// Makes `value` the pending value at offset `at`, in place of the
    /// one there may be (of the same length).
    fn set(&mut self, at: usize, value: &[u8]) {
        match self.0.binary_search_by_key(&(at as u32), |(o, _)| *o) {
            Ok(i) => self.0[i].1.copy_from_slice(value),
            Err(i) => self.0.insert(i, (at as u32, value.to_vec())),
        }
    }

    /// Writes every pending value into `page`, the buffer they are
    /// offsets into.
    pub(crate) fn apply(&self, page: &mut [u8]) {
        self.apply_range(0..page.len(), page);
    }

    /// Writes the pending values inside `range` of the buffer into
    /// `dst`, which holds that range.
    fn apply_range(&self, range: Range<usize>, dst: &mut [u8]) {
        for (at, value) in &self.0 {
            let at = *at as usize;
            if range.contains(&at) {
                let to = at - range.start;
                dst[to..to + value.len()].copy_from_slice(value);
            }
        }
    }

    pub(crate) fn clear(&mut self) {
        self.0.clear();
    }
}

/// `bytes` in a buffer of `room` bytes (at least as many) and no more
/// capacity, zeros after them.
fn with_room(bytes: &[u8], room: usize) -> Vec<u8> {
    let mut buf = Vec::with_capacity(room);
    buf.extend_from_slice(bytes);
    buf.resize(room, 0);
    buf
}

/// Grows `buf` to `len` bytes, if it is shorter, with no capacity to
/// spare: a leaf grows past its page only for the moment before it
/// splits.
fn grow(buf: &mut Vec<u8>, len: usize) {
    if len > buf.len() {
        buf.reserve_exact(len - buf.len());
        buf.resize(len, 0);
    }
}

/// What a write-back writes ([`Node::page_image`]).
pub(crate) enum PageImage<'a> {
    /// A leaf's own buffer, a page long.
    Shared(&'a Arc<Vec<u8>>),
    /// A leaf's shared page and the values pending beside it: the page
    /// to write is the one with them in place. The writer leaves in
    /// the first the page it wrote, and clears the second.
    Patched(&'a mut Arc<Vec<u8>>, &'a mut Pending),
    /// An internal node, encoded and zero-padded to the page.
    Encoded(&'a [u8]),
}

/// A decoded tree page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    /// Key-value storage page.
    Leaf {
        /// Sorted `(key, value)` entries, in page layout.
        entries: Entries,
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
            Node::Leaf { entries } => entries.used,
            Node::Internal {
                children,
                separators,
            } => 5 + children.len() * 8 + separators.used,
        }
    }

    /// Encodes into `buf` (cleared first).
    pub fn encode(&self, buf: &mut Vec<u8>) {
        buf.clear();
        match self {
            Node::Leaf { entries } => buf.extend_from_slice(&entries.image()),
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
                buf.extend_from_slice(&separators.buf[..separators.used]);
            }
        }
    }

    /// This node's page image, `page_bytes` long and zero past its
    /// records: a leaf's own buffer, for the file to share, or its
    /// shared page and pending values, for the file to patch; or an
    /// internal node encoded into `scratch`.
    pub(crate) fn page_image<'a>(
        &'a mut self,
        page_bytes: usize,
        scratch: &'a mut Vec<u8>,
    ) -> PageImage<'a> {
        match self {
            Node::Leaf { entries } => entries.page_image(page_bytes),
            internal => {
                internal.encode(scratch);
                scratch.resize(page_bytes, 0);
                PageImage::Encoded(scratch)
            }
        }
    }

    /// Decodes a page read whole from the tree file. A leaf keeps the
    /// page itself — shared with the file, copied by its first edit —
    /// and walks only its record headers; an internal node is decoded
    /// as [`Node::decode`] does.
    pub(crate) fn load(page: FileSlice) -> Result<Self> {
        if page.len() < 5 || page[0] != TAG_LEAF {
            return Self::decode(&page);
        }
        let n = u32::from_le_bytes(page[1..5].try_into().expect("4 bytes")) as usize;
        let page = page
            .into_shared()
            .unwrap_or_else(|part| Arc::new(part.to_vec()));
        Ok(Node::Leaf {
            entries: Entries::shared(page, n)?,
        })
    }

    /// Decodes a page image into buffers of the node's own.
    pub fn decode(buf: &[u8]) -> Result<Self> {
        let corrupt = |m: &str| StoreError::Corruption(m.to_string());
        if buf.len() < 5 {
            return Err(corrupt("page too small"));
        }
        let tag = buf[0];
        let n = u32::from_le_bytes(buf[1..5].try_into().expect("4 bytes")) as usize;
        let mut pos = 5;
        match tag {
            TAG_LEAF => Ok(Node::Leaf {
                entries: Entries::decode(buf, n)?,
            }),
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

    /// For a leaf: inserts `(key, value)` as entry `i`.
    pub(crate) fn insert_pair(&mut self, i: usize, key: &[u8], value: &[u8]) {
        match self {
            Node::Leaf { entries } => entries.insert(i, key, value),
            Node::Internal { .. } => panic!("insert_pair() on an internal node"),
        }
    }

    /// For a leaf: replaces the value of entry `i`.
    pub fn set_value(&mut self, i: usize, value: &[u8]) {
        match self {
            Node::Leaf { entries } => entries.set_value(i, value),
            Node::Internal { .. } => panic!("set_value() on an internal node"),
        }
    }

    /// For a leaf: removes entry `i`.
    pub(crate) fn remove_pair(&mut self, i: usize) {
        match self {
            Node::Leaf { entries } => entries.remove(i),
            Node::Internal { .. } => panic!("remove_pair() on an internal node"),
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
            (Node::Leaf { entries }, Node::Leaf { entries: re }) => entries.append(&re),
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

    /// For a leaf whose keys are all below `key`: appends `(key, value)`
    /// if the leaf still fits a page of `page_bytes`, and returns `None`.
    /// If it would not, this is the append-optimized split, decided
    /// before the insert: the leaf stays as it is, ~full, and the pair
    /// alone becomes a new page-long right leaf, returned with its key
    /// as the separator. Sequential loads end every leaf this way, which
    /// is why B+Trees bulk-loaded in key order reach the ~1.12 space
    /// amplification the paper measures for WiredTiger, instead of the
    /// ~1.5 a half-split would produce.
    ///
    /// The pair must fit a page on its own (`BTreeDb::put` refuses one
    /// that does not).
    pub(crate) fn append_pair(
        &mut self,
        key: &[u8],
        value: &[u8],
        page_bytes: usize,
    ) -> Option<(Vec<u8>, Node)> {
        let Node::Leaf { entries } = self else {
            panic!("append_pair() on an internal node")
        };
        if entries.used + Entries::HEADER + key.len() + value.len() <= page_bytes {
            entries.insert(entries.len(), key, value);
            return None;
        }
        debug_assert!(!entries.is_empty(), "a pair larger than a page");
        let right = Entries::lone(key, value, page_bytes);
        Some((key.to_vec(), Node::Leaf { entries: right }))
    }

    /// The split [`Node::append_pair`] decides before its insert, made
    /// after it: moves only the final entry to the right node (tests:
    /// the reference for `append_pair`'s pages).
    #[cfg(test)]
    pub(crate) fn split_append(&mut self) -> (Vec<u8>, Node) {
        match self {
            Node::Leaf { entries } => {
                debug_assert!(entries.len() >= 2, "split of a 1-entry leaf");
                let right = entries.split_off(entries.len() - 1);
                (right.key(0).to_vec(), Node::Leaf { entries: right })
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
                let right = entries.split_off(entries.halving_cut());
                (right.key(0).to_vec(), Node::Leaf { entries: right })
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

    /// The page image the per-entry `Vec<(Vec<u8>, Vec<u8>)>` leaf wrote.
    fn reference_leaf_image(pairs: &[(Vec<u8>, Vec<u8>)]) -> Vec<u8> {
        let mut buf = vec![TAG_LEAF];
        buf.extend_from_slice(&(pairs.len() as u32).to_le_bytes());
        for (k, v) in pairs {
            buf.extend_from_slice(&(k.len() as u16).to_le_bytes());
            buf.extend_from_slice(&(v.len() as u32).to_le_bytes());
            buf.extend_from_slice(k);
            buf.extend_from_slice(v);
        }
        buf
    }

    /// Where that leaf's `split` cut: after the first entry that brings
    /// the left half to at least half the bytes, keeping both halves
    /// non-empty.
    fn reference_leaf_cut(pairs: &[(Vec<u8>, Vec<u8>)]) -> usize {
        let total: usize = pairs.iter().map(|(k, v)| 6 + k.len() + v.len()).sum();
        let mut acc = 0;
        for (i, (k, v)) in pairs.iter().enumerate() {
            acc += 6 + k.len() + v.len();
            if acc * 2 >= total {
                return (i + 1).min(pairs.len() - 1).max(1);
            }
        }
        pairs.len() / 2
    }

    /// `node` encodes to exactly `pairs`' reference image, reports that
    /// length, and decodes back to itself.
    fn assert_leaf_image(node: &Node, pairs: &[(Vec<u8>, Vec<u8>)]) {
        let mut buf = Vec::new();
        node.encode(&mut buf);
        assert_eq!(buf, reference_leaf_image(pairs));
        assert_eq!(buf.len(), node.encoded_len());
        assert_eq!(Node::decode(&buf).expect("decode"), *node);
    }

    #[test]
    fn wide_leaf_page_image_is_unchanged() {
        // A paper-shaped leaf: ~4 KB values of jagged sizes behind
        // 16-byte keys, plus an empty key with an empty value, built in
        // one go and then edited the way a live tree edits leaves.
        let mut pairs: Vec<(Vec<u8>, Vec<u8>)> = (0..12u32)
            .map(|i| {
                let key = format!("user{:012}", 10 * i).into_bytes();
                (key, vec![i as u8; 3000 + 197 * i as usize])
            })
            .collect();
        pairs.insert(0, (Vec::new(), Vec::new()));
        let mut node = Node::Leaf {
            entries: pairs.iter().map(|(k, v)| (k.clone(), v.clone())).collect(),
        };
        assert_leaf_image(&node, &pairs);

        // Inserts: in the middle, at the front of the keyed entries, at
        // the tail.
        for (i, key, value) in [
            (5, "user000000000035", vec![0xa1; 4000]),
            (1, "user", vec![]),
            (15, "user000000000999", vec![0xa2; 17]),
        ] {
            node.insert_pair(i, key.as_bytes(), &value);
            pairs.insert(i, (key.as_bytes().to_vec(), value));
            assert_leaf_image(&node, &pairs);
        }
        // Overwrites: grow, shrink, same size, to and from empty.
        for (i, value) in [
            (3, vec![0xb1; 5000]),
            (8, b"short".to_vec()),
            (10, vec![0xb2; pairs[10].1.len()]),
            (1, b"was empty".to_vec()),
            (0, Vec::new()),
            (12, Vec::new()),
        ] {
            node.set_value(i, &value);
            pairs[i].1 = value;
            assert_leaf_image(&node, &pairs);
        }
        // Removes: the last, one in the middle, the empty key.
        for i in [pairs.len() - 1, 6, 0] {
            node.remove_pair(i);
            pairs.remove(i);
            assert_leaf_image(&node, &pairs);
        }
        pairs.insert(0, (Vec::new(), b"empty key".to_vec()));
        node.insert_pair(0, b"", b"empty key");
        assert_leaf_image(&node, &pairs);

        // A byte-halving split and the merge that undoes it.
        let cut = reference_leaf_cut(&pairs);
        let (sep, right) = node.split();
        assert_eq!(sep, pairs[cut].0);
        assert_leaf_image(&node, &pairs[..cut]);
        assert_leaf_image(&right, &pairs[cut..]);
        let merged_len = right.merged_len(node.encoded_len(), &sep);
        node.absorb(&sep, right);
        assert_leaf_image(&node, &pairs);
        assert_eq!(node.encoded_len(), merged_len);

        // The append split moves only the last entry; merging it back
        // restores the page.
        let last = pairs.len() - 1;
        let (sep, right) = node.split_append();
        assert_eq!(sep, pairs[last].0);
        assert_leaf_image(&node, &pairs[..last]);
        assert_leaf_image(&right, &pairs[last..]);
        node.absorb(&sep, right);
        assert_leaf_image(&node, &pairs);
    }

    /// The offsets of `pairs`' records in their page image, and where
    /// the last ends: the walk with no guessing ahead.
    fn plain_walk(pairs: &[(Vec<u8>, Vec<u8>)]) -> (Vec<u32>, usize) {
        let mut pos = Entries::PREFIX;
        let mut starts = Vec::new();
        for (k, v) in pairs {
            starts.push(pos as u32);
            pos += Entries::HEADER + k.len() + v.len();
        }
        (starts, pos)
    }

    #[test]
    fn leaf_loads_of_jagged_records_walk_as_the_plain_walk() {
        let pair = |i: usize, len: usize| (format!("key{i:04}").into_bytes(), vec![i as u8; len]);
        let cases: Vec<Vec<(Vec<u8>, Vec<u8>)>> = vec![
            // Mixed value lengths, some empty.
            [4000, 12, 0, 3000, 0, 9000, 1]
                .iter()
                .enumerate()
                .map(|(i, &len)| pair(i, len))
                .collect(),
            // A long first record: every guess past the second lands
            // past the end of the page.
            [20_000, 3, 3, 3, 3, 3]
                .iter()
                .enumerate()
                .map(|(i, &len)| pair(i, len))
                .collect(),
            // A short first record: the guesses land inside values.
            [0, 5000, 7000, 4000]
                .iter()
                .enumerate()
                .map(|(i, &len)| pair(i, len))
                .collect(),
            // All one size: every guess is a header.
            (0..8).map(|i| pair(i, 4000)).collect(),
            // One record; none.
            vec![pair(0, 10)],
            Vec::new(),
        ];
        for pairs in &cases {
            let (starts, used) = plain_walk(pairs);
            let image = reference_leaf_image(pairs);
            assert_eq!(image.len(), used);
            // A page that ends where the last record does, and one with
            // room after it.
            for room in [0, 32_768 - used.min(32_768)] {
                let mut page = image.clone();
                page.resize(used + room, 0);
                assert_eq!(
                    Entries::walk(&page, pairs.len()).expect("walk"),
                    (starts.clone(), used)
                );
                let loaded = Node::load(FileSlice::from(page.clone())).expect("load");
                assert_leaf_image(&loaded, pairs);
                assert_eq!(Node::decode(&page).expect("decode"), loaded);
            }
            // More records claimed than the page holds.
            assert!(Entries::walk(&image, pairs.len() + 3).is_err());
        }
    }

    #[test]
    fn an_append_past_a_full_leaf_starts_the_pages_split_append_leaves() {
        let page_bytes = 32_768;
        let pairs: Vec<(Vec<u8>, Vec<u8>)> = (0..9)
            .map(|i| (format!("key{i:04}").into_bytes(), vec![i as u8; 4000]))
            .collect();
        let (last, full) = pairs.split_last().expect("pairs");
        let mut decided: Node = leaf(&[]);
        for (k, v) in full {
            assert!(decided.append_pair(k, v, page_bytes).is_none(), "fits");
        }
        let mut split = decided.clone();
        let (sep, mut right) = decided
            .append_pair(&last.0, &last.1, page_bytes)
            .expect("a ninth 4 000-byte record overflows the page");
        assert_leaf_image(&decided, full);
        assert_leaf_image(&right, &pairs[full.len()..]);

        // The same pages as inserting first and splitting after.
        split.insert_pair(full.len(), &last.0, &last.1);
        let (want_sep, mut want_right) = split.split_append();
        assert_eq!((&sep, &decided), (&want_sep, &split));
        assert_eq!(right, want_right);
        let mut scratch = Vec::new();
        let images =
            |node: &mut Node, scratch: &mut Vec<u8>| match node.page_image(page_bytes, scratch) {
                PageImage::Shared(page) => page.to_vec(),
                PageImage::Patched(..) => unreachable!("nothing is pending"),
                PageImage::Encoded(page) => page.to_vec(),
            };
        assert_eq!(
            images(&mut right, &mut scratch),
            images(&mut want_right, &mut scratch)
        );
        // The new leaf is born a page long: its write-back copies nothing.
        let Node::Leaf { entries } = &mut right else {
            unreachable!("a leaf")
        };
        let born = Arc::as_ptr(&entries.buf);
        assert_eq!(Arc::as_ptr(entries.page(page_bytes)), born);
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
            assert_eq!(right_e.key(0), sep);
            assert!(left.key(left.len() - 1) < &sep[..]);
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
