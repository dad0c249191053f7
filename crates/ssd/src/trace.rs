//! LBA write tracing — the simulator's `blktrace` equivalent.
//!
//! Figure 4 of the paper plots, for each engine, the CDF of write
//! probability over LBAs *sorted by decreasing write count*. That plot is
//! the key to Pitfall 3: WiredTiger never writes ~45% of the LBA space, so
//! on a trimmed drive those LBAs act as free over-provisioning, whereas
//! RocksDB cycles the whole space. [`WriteTrace`] records per-LPN write
//! counts and produces exactly that curve.

use crate::types::Lpn;

/// Per-logical-page write counter.
#[derive(Debug, Clone)]
pub struct WriteTrace {
    counts: Vec<u32>,
    total: u64,
}

impl WriteTrace {
    /// A trace covering `logical_pages` LPNs, all counts zero.
    pub fn new(logical_pages: u64) -> Self {
        Self {
            counts: vec![0; logical_pages as usize],
            total: 0,
        }
    }

    /// Records one write to `lpn`.
    pub fn record(&mut self, lpn: Lpn) {
        self.counts[lpn as usize] += 1;
        self.total += 1;
    }

    /// Number of LPNs written at least once.
    pub(crate) fn touched_lpns(&self) -> u64 {
        self.counts.iter().filter(|&&c| c > 0).count() as u64
    }

    /// Fraction of the LBA space never written (the paper's "46% of pages
    /// are not written" observation for WiredTiger).
    pub fn untouched_fraction(&self) -> f64 {
        if self.counts.is_empty() {
            return 0.0;
        }
        1.0 - self.touched_lpns() as f64 / self.counts.len() as f64
    }

    /// Zeroes all counters.
    pub fn reset(&mut self) {
        self.counts.fill(0);
        self.total = 0;
    }

    /// The Figure 4 curve: `points` samples of (normalized LBA index
    /// sorted by decreasing write count, cumulative fraction of writes).
    ///
    /// The returned vector has `points + 1` entries from x=0 to x=1, with
    /// y non-decreasing and y(1) == 1 (when any write was recorded).
    pub fn cdf_by_descending_frequency(&self, points: usize) -> Vec<(f64, f64)> {
        assert!(points >= 1);
        let mut sorted: Vec<u32> = self.counts.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let n = sorted.len().max(1);
        let total = self.total.max(1) as f64;

        // Prefix sums at `points + 1` evenly spaced cut positions.
        let mut out = Vec::with_capacity(points + 1);
        let mut cum = 0u64;
        let mut next_idx = 0usize;
        for p in 0..=points {
            let cut = (n * p) / points;
            while next_idx < cut {
                cum += sorted[next_idx] as u64;
                next_idx += 1;
            }
            out.push((p as f64 / points as f64, cum as f64 / total));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_counts() {
        let mut t = WriteTrace::new(10);
        t.record(0);
        t.record(0);
        t.record(3);
        assert_eq!(t.total, 3);
        assert_eq!(t.touched_lpns(), 2);
        assert!((t.untouched_fraction() - 0.8).abs() < 1e-9);
    }

    #[test]
    fn cdf_is_monotone_and_complete() {
        let mut t = WriteTrace::new(100);
        for lpn in 0..50 {
            for _ in 0..(lpn % 7 + 1) {
                t.record(lpn);
            }
        }
        let cdf = t.cdf_by_descending_frequency(20);
        assert_eq!(cdf.len(), 21);
        assert_eq!(cdf[0], (0.0, 0.0));
        let last = cdf.last().expect("non-empty");
        assert!((last.0 - 1.0).abs() < 1e-9);
        assert!((last.1 - 1.0).abs() < 1e-9);
        for w in cdf.windows(2) {
            assert!(w[1].1 >= w[0].1, "CDF must be non-decreasing");
        }
    }

    #[test]
    fn cdf_saturates_where_writes_stop() {
        // Only the first half of the LBA space is ever written: the CDF
        // must reach 1.0 by x = 0.5 (the WiredTiger signature in Fig 4).
        let mut t = WriteTrace::new(100);
        for lpn in 0..50 {
            t.record(lpn);
        }
        let cdf = t.cdf_by_descending_frequency(10);
        let at_half = cdf
            .iter()
            .find(|(x, _)| (*x - 0.5).abs() < 1e-9)
            .expect("x=0.5 sample");
        assert!((at_half.1 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn reset_zeroes() {
        let mut t = WriteTrace::new(4);
        t.record(1);
        t.reset();
        assert_eq!(t.total, 0);
        assert_eq!(t.touched_lpns(), 0);
    }
}
