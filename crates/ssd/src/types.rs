//! Core identifier types for the SSD simulator.
//!
//! Logical page numbers ([`Lpn`]) identify pages in the address space the
//! host sees; physical page numbers ([`Ppn`]) identify NAND pages. The FTL
//! maintains the mapping between the two. Both are plain `u64` aliases at
//! the API boundary (ergonomics for callers indexing with arithmetic), with
//! compact `u32` encodings used internally by the mapping tables.

/// A logical page number: an index into the device's advertised LBA space,
/// in units of one flash page (see [`crate::Geometry::page_size`]).
pub type Lpn = u64;

/// A physical page number: an index into the device's NAND array,
/// `block_id * pages_per_block + page_offset`.
pub(crate) type Ppn = u64;

/// A physical (erase) block identifier.
pub(crate) type BlockId = u32;

/// Sentinel used in compact mapping tables for "unmapped".
pub(crate) const UNMAPPED: u32 = u32::MAX;

/// A half-open range of logical pages `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LpnRange {
    /// First logical page in the range.
    pub start: Lpn,
    /// One past the last logical page in the range.
    pub end: Lpn,
}

impl LpnRange {
    /// Creates a range; panics if `start > end`.
    pub fn new(start: Lpn, end: Lpn) -> Self {
        assert!(start <= end, "invalid LpnRange: {start}..{end}");
        Self { start, end }
    }

    /// Number of pages covered.
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// Whether the range covers no pages.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Iterator over the pages in the range.
    pub fn iter(&self) -> impl Iterator<Item = Lpn> {
        self.start..self.end
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lpn_range_basics() {
        let r = LpnRange::new(4, 9);
        assert_eq!(r.len(), 5);
        assert!(!r.is_empty());
        assert_eq!(r.iter().collect::<Vec<_>>(), vec![4, 5, 6, 7, 8]);
        assert!(LpnRange::new(3, 3).is_empty());
    }

    #[test]
    #[should_panic(expected = "invalid LpnRange")]
    fn lpn_range_rejects_inverted() {
        let _ = LpnRange::new(5, 2);
    }
}
