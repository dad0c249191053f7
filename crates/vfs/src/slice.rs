//! Shared byte ranges: how file contents leave the filesystem without
//! being copied.

use std::cmp::Ordering;
use std::ops::{Deref, Range};
use std::sync::Arc;

/// Loads one byte of `buf` at each offset `first + k * stride`, for `k`
/// in `1..count`, that lies inside it, and throws them away: where the
/// headers of `count` records from `first` on would sit if every record
/// were `stride` bytes long. The loads do not depend on one another, so
/// their cache misses overlap; a walk that then follows the real
/// headers one by one finds them cached where the guess was right, and
/// where it was wrong has lost one load. Changes nothing.
pub fn touch_strided(buf: &[u8], first: usize, stride: usize, count: usize) {
    let mut folded = 0u8;
    let mut at = first;
    for _ in 1..count {
        at = at.saturating_add(stride);
        let Some(&byte) = buf.get(at) else {
            break;
        };
        folded ^= byte;
    }
    std::hint::black_box(folded);
}

/// Orders two keys as `<[u8]>::cmp` does, lexicographically by byte:
/// eight bytes at a time as big-endian `u64`s, then the tail bytes one
/// by one, then the lengths. Inlined, with no call into libc's
/// `memcmp`: a key is a few words, and every probe of a sorted search
/// would otherwise pay a call for it.
#[inline]
pub fn cmp_keys(a: &[u8], b: &[u8]) -> Ordering {
    let n = a.len().min(b.len());
    let (a_words, b_words) = (a[..n].chunks_exact(8), b[..n].chunks_exact(8));
    let (a_tail, b_tail) = (a_words.remainder(), b_words.remainder());
    for (x, y) in a_words.zip(b_words) {
        let x = u64::from_be_bytes(x.try_into().expect("8 bytes"));
        let y = u64::from_be_bytes(y.try_into().expect("8 bytes"));
        if x != y {
            return x.cmp(&y);
        }
    }
    for (x, y) in a_tail.iter().zip(b_tail) {
        if x != y {
            return x.cmp(y);
        }
    }
    a.len().cmp(&b.len())
}

/// A range of a reference-counted byte buffer — what a shared read
/// ([`crate::Vfs::read_shared`]) returns: one *piece* of the file's own
/// contents as they were at the read (a one-piece file's whole buffer,
/// or one page of a paged file), not a copy of them; a read across the
/// pages of a paged file is the one read that copies, into a buffer of
/// its own. Cloning and [`FileSlice::slice`] share the buffer; a later
/// write to the file never shows through (see the ownership rule in
/// [`crate::fs`]), and the bytes outlive the file's deletion for as
/// long as a slice is held.
///
/// Compares, orders and prints as the bytes it covers.
#[derive(Clone, Default)]
pub struct FileSlice {
    buf: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl FileSlice {
    /// `buf[range]`, shared.
    ///
    /// # Panics
    /// Panics if the range is out of bounds.
    pub(crate) fn new(buf: &Arc<Vec<u8>>, range: Range<usize>) -> Self {
        assert!(
            range.start <= range.end && range.end <= buf.len(),
            "range {range:?} outside a buffer of {} bytes",
            buf.len()
        );
        Self {
            buf: Arc::clone(buf),
            start: range.start,
            end: range.end,
        }
    }

    /// A sub-range of this slice (positions relative to it), sharing
    /// the same buffer.
    ///
    /// # Panics
    /// Panics if the range is out of bounds.
    pub fn slice(&self, range: Range<usize>) -> Self {
        assert!(
            range.end <= self.len(),
            "range {range:?} outside a slice of {} bytes",
            self.len()
        );
        Self::new(&self.buf, self.start + range.start..self.start + range.end)
    }

    /// Whether `self` and `other` are ranges of one buffer: of the same
    /// file contents, when both came from reads (the bytes themselves
    /// are not compared).
    pub fn shares_buffer(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.buf, &other.buf)
    }

    /// Where this range starts in its buffer: for a range a read
    /// returned, its offset within the piece it was read from. That is
    /// its offset in the file only for a one-piece file (every file but
    /// a paged one) — which is what the LSM's table reader relies on
    /// when it finds a stored block beside a scan window.
    pub fn buffer_offset(&self) -> usize {
        self.start
    }

    /// Another range of this slice's buffer, positions in the buffer (so
    /// file offsets, for a range a read of a one-piece file returned):
    /// the bytes beside a range, without a second read.
    ///
    /// # Panics
    /// Panics if the range is out of bounds.
    pub fn buffer_slice(&self, range: Range<usize>) -> Self {
        Self::new(&self.buf, range)
    }

    /// The whole buffer this slice is a range of (not just the range),
    /// if this is the last handle on it: the file no longer holds it —
    /// the file is deleted, or a later write replaced the piece it was
    /// (the old bytes are the slices') — and every other slice of it is
    /// gone. `None` otherwise. Lets the last holder of a dead file's
    /// bytes reuse their allocation — the hash log makes a collected
    /// segment's buffer the next segment's.
    pub fn into_buffer(self) -> Option<Vec<u8>> {
        Arc::try_unwrap(self.buf).ok()
    }

    /// The buffer itself, by reference count, when this slice covers
    /// all of it — a page of a paged file read whole, which the reader
    /// may keep across later writes to the file; the slice back
    /// otherwise.
    pub fn into_shared(self) -> Result<Arc<Vec<u8>>, Self> {
        if self.start == 0 && self.end == self.buf.len() {
            Ok(self.buf)
        } else {
            Err(self)
        }
    }
}

/// A buffer that is already shared (a cached block), whole.
impl From<Arc<Vec<u8>>> for FileSlice {
    fn from(buf: Arc<Vec<u8>>) -> Self {
        let end = buf.len();
        Self { buf, start: 0, end }
    }
}

/// Bytes that never lived in a file (a decoded block, a memtable key),
/// so that they can flow beside ranges that do.
impl From<Vec<u8>> for FileSlice {
    fn from(bytes: Vec<u8>) -> Self {
        Self::from(Arc::new(bytes))
    }
}

impl Deref for FileSlice {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.buf[self.start..self.end]
    }
}

impl AsRef<[u8]> for FileSlice {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl PartialEq for FileSlice {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for FileSlice {}

impl PartialOrd for FileSlice {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for FileSlice {
    fn cmp(&self, other: &Self) -> Ordering {
        (**self).cmp(&**other)
    }
}

impl std::fmt::Debug for FileSlice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strided_touches_stay_inside_the_buffer() {
        let buf = [7u8; 100];
        // Guesses that run past the end, start past it, overflow the
        // offset, or stand still.
        for (first, stride, count) in [
            (0, 30, 10),
            (99, 1, 5),
            (100, 1, 3),
            (0, usize::MAX, 3),
            (usize::MAX, 1, 2),
            (0, 0, 4),
            (0, 10, 0),
        ] {
            touch_strided(&buf, first, stride, count);
        }
        touch_strided(&[], 0, 6, 1_000);
    }

    #[test]
    fn slices_share_and_compare_by_bytes() {
        let whole = FileSlice::from(b"hello world".to_vec());
        let hello = whole.slice(0..5);
        let world = whole.slice(6..11);
        assert_eq!(&*hello, b"hello");
        assert_eq!(&*world.slice(1..3), b"or");
        assert!(hello < world, "ordered by bytes, not by position");
        assert_eq!(hello, FileSlice::from(b"hello".to_vec()));
        assert_eq!(format!("{:?}", world.slice(0..2)), "[119, 111]");
        assert!(FileSlice::default().is_empty());
        // The bytes outlive every other handle on the buffer.
        drop(whole);
        drop(hello);
        assert_eq!(&*world, b"world");
    }

    #[test]
    fn buffer_identity_and_offsets() {
        let whole = FileSlice::from(b"hello world".to_vec());
        let world = whole.slice(6..11);
        assert!(world.shares_buffer(&whole));
        assert!(!world.shares_buffer(&FileSlice::from(b"world".to_vec())));
        assert_eq!(world.slice(1..3).buffer_offset(), 7);
        let hello = world.buffer_slice(0..5);
        assert_eq!(&*hello, b"hello");
        assert!(hello.shares_buffer(&whole));
    }

    #[test]
    fn the_last_handle_gets_the_whole_buffer() {
        let whole = FileSlice::from(b"hello world".to_vec());
        let world = whole.slice(6..11);
        assert_eq!(whole.into_buffer(), None, "shared with `world`");
        assert_eq!(world.into_buffer(), Some(b"hello world".to_vec()));
    }

    #[test]
    fn only_a_whole_buffer_is_shared_out() {
        let whole = FileSlice::from(b"hello world".to_vec());
        let world = whole.slice(6..11).into_shared().expect_err("a part");
        assert_eq!(&*world, b"world");
        let buf = whole.clone().into_shared().expect("all of it");
        assert!(FileSlice::from(buf).shares_buffer(&whole));
    }

    #[test]
    #[should_panic(expected = "outside a buffer")]
    fn buffer_range_is_bounds_checked() {
        FileSlice::from(vec![0u8; 4]).slice(1..2).buffer_slice(2..5);
    }

    #[test]
    #[should_panic(expected = "outside a slice")]
    fn sub_range_is_bounds_checked() {
        FileSlice::from(vec![0u8; 4]).slice(2..5);
    }

    #[test]
    fn crosses_threads() {
        fn assert_send<T: Send + Sync>() {}
        assert_send::<FileSlice>();
    }
}
