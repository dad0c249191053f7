//! File representation: contents plus the LBA extents backing them.

use std::ops::Range;
use std::sync::Arc;

use ptsbench_ssd::{Lpn, LpnRange, Ns};

use crate::alloc::Extent;
use crate::error::VfsError;
use crate::slice::FileSlice;

/// An opaque handle to an open file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FileId(pub(crate) u64);

/// In-memory state of one file.
///
/// Contents live here (the device models *when*, the filesystem owns
/// *what*) as reference-counted *pieces*, so that a read can share a
/// range of them instead of copying it. A paged file
/// ([`crate::Vfs::create_paged`]) has one piece per page; every other
/// file has exactly one piece, its whole contents. `extents` record
/// which logical pages back which file pages, so page-aligned
/// overwrites are in-place at the device level.
#[derive(Debug)]
pub(crate) struct FileNode {
    pub name: String,
    /// Piece `i` holds bytes `[i * piece_bytes, (i + 1) * piece_bytes)`
    /// of the file (the last one up to the file's size). Each is
    /// mutated through `Arc::make_mut`, in place while no
    /// [`crate::FileSlice`] of it is outstanding, and replaced whole by
    /// a write that covers it. A one-piece file always has its piece;
    /// it is empty while a [`crate::FileAppender`] has it checked out.
    pieces: Vec<Arc<Vec<u8>>>,
    /// A paged file's page size; `usize::MAX` for a one-piece file.
    piece_bytes: usize,
    /// The file's size: the pieces' total, or, while the buffer is
    /// checked out, how much of it the appender has committed.
    pub len: u64,
    /// A [`crate::FileAppender`] holds the buffer.
    pub checked_out: bool,
    /// Ordered extents; file page `i` lives in the extent covering the
    /// `i`-th page slot.
    pub extents: Vec<Extent>,
    /// `cum_pages[i]` = total pages in `extents[..=i]` (binary-search index).
    pub cum_pages: Vec<u64>,
    /// Latest media-durability time across all writes to this file.
    pub durable_at: Ns,
}

impl FileNode {
    /// An empty file: paged with `page_bytes` per piece, or (`None`)
    /// one piece.
    pub(crate) fn new(name: String, page_bytes: Option<usize>) -> Self {
        let piece_bytes = page_bytes.unwrap_or(usize::MAX);
        assert!(piece_bytes > 0, "a paged file needs a page size");
        Self {
            name,
            pieces: if page_bytes.is_some() {
                Vec::new()
            } else {
                vec![Arc::default()]
            },
            piece_bytes,
            len: 0,
            checked_out: false,
            extents: Vec::new(),
            cum_pages: Vec::new(),
            durable_at: 0,
        }
    }

    /// Fails unless the contents are here, not with an appender.
    pub(crate) fn available(&self) -> Result<(), VfsError> {
        if self.checked_out {
            return Err(VfsError::InvalidArgument(format!(
                "{}: checked out to an appender",
                self.name
            )));
        }
        Ok(())
    }

    /// Fails for a paged file: what only a one-piece file can do (be
    /// checked out, be truncated).
    pub(crate) fn one_piece(&self, what: &str) -> Result<(), VfsError> {
        if self.piece_bytes != usize::MAX {
            return Err(VfsError::InvalidArgument(format!(
                "{}: a paged file cannot {what}",
                self.name
            )));
        }
        Ok(())
    }

    /// The piece holding byte `offset`, and the offset within it.
    fn locate(&self, offset: usize) -> (usize, usize) {
        (offset / self.piece_bytes, offset % self.piece_bytes)
    }

    /// Copies `src` in at `offset` (at most the current size: no holes),
    /// overwriting what is there and extending the file with the rest.
    /// A piece someone else holds is replaced, not written: copied once
    /// if the write covers part of it, not at all if it covers it all.
    pub(crate) fn store(&mut self, offset: usize, mut src: &[u8]) {
        let mut pos = offset;
        while !src.is_empty() {
            let (i, at) = self.locate(pos);
            if i == self.pieces.len() {
                self.pieces.push(Arc::default());
            }
            let piece = &mut self.pieces[i];
            let (bytes, rest) = src.split_at(src.len().min(self.piece_bytes - at));
            if at == 0 && bytes.len() >= piece.len() && Arc::get_mut(piece).is_none() {
                *piece = Arc::new(bytes.to_vec());
            } else {
                let data = Arc::make_mut(piece);
                let overlap = bytes.len().min(data.len() - at);
                data[at..at + overlap].copy_from_slice(&bytes[..overlap]);
                data.extend_from_slice(&bytes[overlap..]);
            }
            pos += bytes.len();
            src = rest;
        }
    }

    /// Puts `page` in at `offset` (at most the current size), sharing
    /// it when it is exactly one whole piece of a paged file and
    /// copying it (see [`FileNode::store`]) otherwise.
    pub(crate) fn store_shared(&mut self, offset: usize, page: &Arc<Vec<u8>>) {
        let (i, at) = self.locate(offset);
        if at != 0 || page.len() != self.piece_bytes {
            return self.store(offset, page);
        }
        if i == self.pieces.len() {
            self.pieces.push(Arc::clone(page));
        } else {
            self.pieces[i] = Arc::clone(page);
        }
    }

    /// Puts `page` with `patch` applied in at `offset` (at most the
    /// current size), and leaves in `page` what the file then holds
    /// there. Where the file holds `page` itself at `offset`, `patch`
    /// edits that piece — in place if nobody else holds it, in a copy
    /// (`Arc::make_mut`) if a slice does. Any other `page` is patched
    /// in a copy, put in as [`FileNode::store_shared`] puts a page.
    pub(crate) fn store_patched(
        &mut self,
        offset: usize,
        page: &mut Arc<Vec<u8>>,
        patch: &mut dyn FnMut(&mut [u8]),
    ) {
        let (i, at) = self.locate(offset);
        if at == 0 && self.pieces.get(i).is_some_and(|p| Arc::ptr_eq(p, page)) {
            // Let go of the caller's handle first: then the piece is
            // the file's alone unless a slice of it is outstanding.
            *page = Arc::default();
            patch(Arc::make_mut(&mut self.pieces[i]).as_mut_slice());
            *page = Arc::clone(&self.pieces[i]);
            return;
        }
        let mut copy = Vec::with_capacity(page.len());
        copy.extend_from_slice(page);
        patch(&mut copy);
        *page = Arc::new(copy);
        self.store_shared(offset, page);
    }

    /// The bytes in `range` (within the file's size): shared when one
    /// piece holds them all, copied out of each piece otherwise.
    pub(crate) fn slice(&self, range: Range<usize>) -> FileSlice {
        let (first, mut at) = self.locate(range.start);
        let piece = &self.pieces[first];
        if at + range.len() <= piece.len() {
            return FileSlice::new(piece, at..at + range.len());
        }
        let mut out = Vec::with_capacity(range.len());
        for piece in &self.pieces[first..] {
            let take = (range.len() - out.len()).min(piece.len() - at);
            out.extend_from_slice(&piece[at..at + take]);
            if out.len() == range.len() {
                break;
            }
            at = 0;
        }
        FileSlice::from(out)
    }

    /// Hands a one-piece file's buffer out to an appender (copied if a
    /// slice of it is outstanding), leaving the piece empty.
    pub(crate) fn check_out(&mut self) -> Vec<u8> {
        self.checked_out = true;
        std::mem::take(Arc::make_mut(&mut self.pieces[0]))
    }

    /// Takes an appender's buffer back as a one-piece file's contents.
    pub(crate) fn check_in(&mut self, buf: Vec<u8>) {
        *Arc::make_mut(&mut self.pieces[0]) = buf;
        self.checked_out = false;
    }

    /// Cuts a one-piece file's contents to `len` bytes.
    pub(crate) fn cut(&mut self, len: u64) {
        Arc::make_mut(&mut self.pieces[0]).truncate(len as usize);
        self.len = len;
    }

    /// Checks that the pieces hold exactly the file's size, every one
    /// but the last a whole page (tests).
    pub(crate) fn check_pieces(&self) {
        if self.checked_out {
            return;
        }
        let stored: usize = self.pieces.iter().map(|p| p.len()).sum();
        assert_eq!(self.len, stored as u64, "{}: size without bytes", self.name);
        if self.piece_bytes != usize::MAX {
            assert_eq!(
                self.pieces.len() as u64,
                self.len.div_ceil(self.piece_bytes as u64),
                "{}: piece count",
                self.name
            );
            let whole = self.pieces.len().saturating_sub(1);
            assert!(
                self.pieces[..whole]
                    .iter()
                    .all(|p| p.len() == self.piece_bytes),
                "{}: a short piece before the last",
                self.name
            );
        }
    }

    /// Total pages currently allocated to the file.
    pub(crate) fn total_pages(&self) -> u64 {
        self.cum_pages.last().copied().unwrap_or(0)
    }

    /// Appends freshly allocated extents.
    pub(crate) fn push_extents(&mut self, extents: Vec<Extent>) {
        for e in extents {
            let base = self.total_pages();
            self.extents.push(e);
            self.cum_pages.push(base + e.pages);
        }
    }

    /// Maps a file-relative page index to its logical page number.
    ///
    /// # Panics
    /// Panics if the page is beyond the allocated extents.
    pub(crate) fn page_to_lpn(&self, file_page: u64) -> Lpn {
        let idx = self.cum_pages.partition_point(|&c| c <= file_page);
        assert!(
            idx < self.extents.len(),
            "file page {file_page} beyond allocation"
        );
        let prior = if idx == 0 { 0 } else { self.cum_pages[idx - 1] };
        self.extents[idx].start + (file_page - prior)
    }

    /// Decomposes a file-relative page range into contiguous device
    /// ranges (one per extent crossing), in file order.
    ///
    /// # Panics
    /// The iterator panics on reaching a page beyond the allocated
    /// extents.
    pub(crate) fn runs(&self, first_page: u64, count: u64) -> impl Iterator<Item = LpnRange> + '_ {
        let end = first_page + count;
        let mut page = first_page;
        let mut idx = self.cum_pages.partition_point(|&c| c <= page);
        std::iter::from_fn(move || {
            if page >= end {
                return None;
            }
            assert!(
                idx < self.extents.len(),
                "file page {page} beyond allocation"
            );
            let prior = if idx == 0 { 0 } else { self.cum_pages[idx - 1] };
            let offset_in_extent = page - prior;
            let extent = self.extents[idx];
            let take = (extent.pages - offset_in_extent).min(end - page);
            let start = extent.start + offset_in_extent;
            // A run that stops short of `end` used its extent up.
            page += take;
            idx += 1;
            Some(LpnRange::new(start, start + take))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node_with(extents: &[(u64, u64)]) -> FileNode {
        let mut n = FileNode::new("t".into(), None);
        n.push_extents(
            extents
                .iter()
                .map(|&(start, pages)| Extent { start, pages })
                .collect(),
        );
        n
    }

    #[test]
    fn page_mapping_across_extents() {
        let n = node_with(&[(100, 4), (200, 4)]);
        assert_eq!(n.total_pages(), 8);
        assert_eq!(n.page_to_lpn(0), 100);
        assert_eq!(n.page_to_lpn(3), 103);
        assert_eq!(n.page_to_lpn(4), 200);
        assert_eq!(n.page_to_lpn(7), 203);
    }

    #[test]
    fn runs_split_at_extent_boundaries() {
        let n = node_with(&[(100, 4), (200, 4)]);
        let runs = |first, count| n.runs(first, count).collect::<Vec<_>>();
        assert_eq!(
            runs(2, 4),
            vec![LpnRange::new(102, 104), LpnRange::new(200, 202)]
        );
        assert_eq!(runs(0, 0), vec![]);
        assert_eq!(runs(5, 2), vec![LpnRange::new(201, 203)]);
        assert_eq!(
            runs(0, 8),
            vec![LpnRange::new(100, 104), LpnRange::new(200, 204)]
        );
    }

    #[test]
    #[should_panic(expected = "beyond allocation")]
    fn out_of_range_page_panics() {
        let n = node_with(&[(100, 4)]);
        n.page_to_lpn(4);
    }
}
