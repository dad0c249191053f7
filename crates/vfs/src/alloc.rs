//! Extent allocation over a partition's LBA space.
//!
//! The allocator hands out runs of logical pages ([`Extent`]s) and takes
//! them back on file deletion, coalescing adjacent free runs. Where new
//! data lands determines the LBA footprint the device sees — the crux of
//! the paper's Figure 4. Placement is next-fit (aged-ext4-like): a roving
//! cursor sits one past the last page handed out, and the next extent
//! starts at the cursor when it is free, else at the next free run after
//! it, else at the lowest free run (wrapping). A workload that constantly
//! creates and deletes large files (LSM compaction) therefore cycles
//! through the entire partition, touching every LBA.

use std::collections::BTreeMap;

use ptsbench_ssd::{Lpn, LpnRange};

use crate::error::VfsError;

/// A contiguous run of logical pages owned by a file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Extent {
    /// First logical page of the run.
    pub start: Lpn,
    /// Number of pages in the run.
    pub pages: u64,
}

impl Extent {
    /// One past the last page.
    pub fn end(&self) -> Lpn {
        self.start + self.pages
    }

    /// The run as an [`LpnRange`].
    pub fn range(&self) -> LpnRange {
        LpnRange::new(self.start, self.end())
    }
}

/// Free-extent manager for one partition.
#[derive(Debug)]
pub struct ExtentAllocator {
    range: LpnRange,
    /// Free runs keyed by start page; values are lengths. Invariant:
    /// non-overlapping, within `range`, never adjacent (always coalesced).
    free: BTreeMap<Lpn, u64>,
    free_pages: u64,
    /// One past the last page handed out: where the next search starts.
    cursor: Lpn,
}

impl ExtentAllocator {
    /// An allocator with the whole `range` free.
    pub fn new(range: LpnRange) -> Self {
        let mut free = BTreeMap::new();
        if !range.is_empty() {
            free.insert(range.start, range.len());
        }
        Self {
            free,
            free_pages: range.len(),
            cursor: range.start,
            range,
        }
    }

    /// The partition this allocator manages.
    pub fn partition(&self) -> LpnRange {
        self.range
    }

    /// Pages currently free.
    pub fn free_pages(&self) -> u64 {
        self.free_pages
    }

    /// Pages currently allocated.
    pub fn used_pages(&self) -> u64 {
        self.range.len() - self.free_pages
    }

    /// Snapshot of the free runs (for `fstrim` and tests).
    pub(crate) fn free_runs(&self) -> Vec<Extent> {
        self.free
            .iter()
            .map(|(&start, &pages)| Extent { start, pages })
            .collect()
    }

    /// Allocates `pages` pages, possibly split across several extents.
    /// On failure nothing is allocated.
    pub fn alloc(&mut self, pages: u64) -> Result<Vec<Extent>, VfsError> {
        if pages == 0 {
            return Ok(Vec::new());
        }
        if pages > self.free_pages {
            return Err(VfsError::NoSpace {
                requested_pages: pages,
                available_pages: self.free_pages,
            });
        }
        let mut out = Vec::new();
        let mut remaining = pages;
        while remaining > 0 {
            let (run_start, run_len, alloc_start) = self
                .pick_run()
                .expect("free_pages accounting guarantees a run");
            let head = alloc_start - run_start;
            let take = remaining.min(run_len - head);
            self.free.remove(&run_start);
            if head > 0 {
                self.free.insert(run_start, head);
            }
            if head + take < run_len {
                self.free.insert(alloc_start + take, run_len - head - take);
            }
            self.free_pages -= take;
            self.cursor = alloc_start + take;
            out.push(Extent {
                start: alloc_start,
                pages: take,
            });
            remaining -= take;
        }
        Ok(out)
    }

    /// Returns an extent to the free pool, coalescing neighbours.
    ///
    /// # Panics
    /// Panics if the extent overlaps free space or lies outside the
    /// partition (double-free / corruption guard).
    pub fn release(&mut self, extent: Extent) {
        assert!(extent.pages > 0, "releasing empty extent");
        assert!(
            extent.start >= self.range.start && extent.end() <= self.range.end,
            "extent {extent:?} outside partition {:?}",
            self.range
        );
        // Overlap guards against double-free.
        if let Some((&prev_start, &prev_len)) = self.free.range(..=extent.start).next_back() {
            assert!(
                prev_start + prev_len <= extent.start,
                "double free: {extent:?} overlaps free run at {prev_start}+{prev_len}"
            );
        }
        if let Some((&next_start, _)) = self.free.range(extent.start..).next() {
            assert!(
                extent.end() <= next_start,
                "double free: {extent:?} overlaps free run at {next_start}"
            );
        }

        let mut start = extent.start;
        let mut len = extent.pages;
        // Coalesce with predecessor.
        if let Some((&prev_start, &prev_len)) = self.free.range(..start).next_back() {
            if prev_start + prev_len == start {
                self.free.remove(&prev_start);
                start = prev_start;
                len += prev_len;
            }
        }
        // Coalesce with successor.
        if let Some((&next_start, &next_len)) = self.free.range(start..).next() {
            if start + len == next_start {
                self.free.remove(&next_start);
                len += next_len;
            }
        }
        self.free.insert(start, len);
        self.free_pages += extent.pages;
    }

    /// Chooses a free run; returns `(run_start, run_len, alloc_start)`
    /// where `alloc_start` may point into the middle of the run (resuming
    /// at the cursor).
    fn pick_run(&self) -> Option<(Lpn, u64, Lpn)> {
        // A run containing the cursor resumes exactly there.
        if let Some((&s, &l)) = self.free.range(..=self.cursor).next_back() {
            if s + l > self.cursor {
                return Some((s, l, self.cursor.max(s)));
            }
        }
        self.free
            .range(self.cursor..)
            .next()
            .or_else(|| self.free.iter().next())
            .map(|(&s, &l)| (s, l, s))
    }

    /// Exhaustively validates allocator invariants (tests).
    pub fn check_invariants(&self) {
        let mut total = 0;
        let mut prev_end: Option<Lpn> = None;
        for (&start, &len) in &self.free {
            assert!(len > 0, "empty free run at {start}");
            assert!(
                start >= self.range.start && start + len <= self.range.end,
                "run out of range"
            );
            if let Some(pe) = prev_end {
                assert!(start > pe, "overlapping free runs");
                assert!(start != pe, "uncoalesced adjacent runs");
            }
            prev_end = Some(start + len);
            total += len;
        }
        assert_eq!(total, self.free_pages, "free page accounting drifted");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alloc() -> ExtentAllocator {
        ExtentAllocator::new(LpnRange::new(0, 100))
    }

    #[test]
    fn alloc_and_release_round_trip() {
        let mut a = alloc();
        let e = a.alloc(10).expect("alloc");
        assert_eq!(
            e,
            vec![Extent {
                start: 0,
                pages: 10
            }]
        );
        assert_eq!(a.free_pages(), 90);
        a.release(e[0]);
        assert_eq!(a.free_pages(), 100);
        assert_eq!(
            a.free_runs().len(),
            1,
            "release must coalesce back to one run"
        );
        a.check_invariants();
    }

    #[test]
    fn next_fit_cycles_through_space() {
        let mut a = alloc();
        let e1 = a.alloc(40).expect("alloc")[0];
        a.release(e1);
        let e2 = a.alloc(40).expect("alloc")[0];
        assert_eq!(e2.start, 40, "next-fit must move past released space");
        a.release(e2);
        let e3 = a.alloc(40).expect("alloc")[0];
        assert_eq!(e3.start, 80, "next-fit keeps roving");
        assert_eq!(e3.pages, 20, "wraps after exhausting the tail");
        a.check_invariants();
    }

    #[test]
    fn fragmented_alloc_spans_runs() {
        let mut a = alloc();
        let _hold = a.alloc(100).expect("alloc");
        a.release(Extent {
            start: 10,
            pages: 5,
        });
        a.release(Extent {
            start: 50,
            pages: 5,
        });
        let got = a.alloc(8).expect("alloc");
        assert_eq!(got.len(), 2, "must split across free runs");
        assert_eq!(got.iter().map(|e| e.pages).sum::<u64>(), 8);
        a.check_invariants();
    }

    #[test]
    fn no_space_is_clean_failure() {
        let mut a = alloc();
        let _e = a.alloc(95).expect("alloc");
        let err = a.alloc(10).expect_err("must fail");
        assert_eq!(
            err,
            VfsError::NoSpace {
                requested_pages: 10,
                available_pages: 5
            }
        );
        // Nothing leaked.
        assert_eq!(a.free_pages(), 5);
        a.check_invariants();
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut a = alloc();
        let e = a.alloc(10).expect("alloc")[0];
        a.release(e);
        a.release(e);
    }

    #[test]
    fn zero_alloc_is_empty() {
        let mut a = alloc();
        assert!(a.alloc(0).expect("alloc").is_empty());
    }
}
