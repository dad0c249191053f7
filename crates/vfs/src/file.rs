//! File representation: contents plus the LBA extents backing them.

use std::sync::Arc;

use ptsbench_ssd::{Lpn, LpnRange, Ns};

use crate::alloc::Extent;
use crate::error::VfsError;

/// An opaque handle to an open file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FileId(pub(crate) u64);

/// In-memory state of one file.
///
/// Contents live here (the device models *when*, the filesystem owns
/// *what*), reference-counted so that a read can share a range of them
/// instead of copying it; `extents` record which logical pages back
/// which file pages, so page-aligned overwrites are in-place at the
/// device level.
#[derive(Debug)]
pub(crate) struct FileNode {
    pub name: String,
    /// Mutated through `Arc::make_mut`: in place while no
    /// [`crate::FileSlice`] of this file is outstanding. Empty while a
    /// [`crate::FileAppender`] has the buffer checked out.
    pub data: Arc<Vec<u8>>,
    /// The file's size: `data.len()`, or, while the buffer is checked
    /// out, how much of it the appender has committed.
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
    pub(crate) fn new(name: String) -> Self {
        Self {
            name,
            data: Arc::default(),
            len: 0,
            checked_out: false,
            extents: Vec::new(),
            cum_pages: Vec::new(),
            durable_at: 0,
        }
    }

    /// The contents, unless an appender holds them.
    pub(crate) fn contents(&self) -> Result<&Arc<Vec<u8>>, VfsError> {
        let busy =
            || VfsError::InvalidArgument(format!("{}: checked out to an appender", self.name));
        (!self.checked_out).then_some(&self.data).ok_or_else(busy)
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
        let mut n = FileNode::new("t".into());
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
