//! SMART-style device counters.
//!
//! The paper's methodology (§3.3) derives device-level write amplification
//! (WA-D) from SMART attributes: the ratio of data written to flash
//! (including garbage-collection relocations) to data written by the host.
//! [`SmartCounters`] exposes exactly those quantities, cumulatively;
//! windowed values are obtained by differencing snapshots (see
//! [`SmartCounters::delta_since`]).

/// Cumulative device counters, in pages/blocks (multiply by the page size
/// for bytes). All counters are monotone except through
/// [`SmartCounters::reset`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SmartCounters {
    /// Pages written by the host.
    pub host_pages_written: u64,
    /// Pages read by the host.
    pub host_pages_read: u64,
    /// Pages programmed on NAND: host destages **plus** GC relocations.
    pub nand_pages_written: u64,
    /// Pages read from NAND (host reads plus GC relocation reads).
    pub nand_pages_read: u64,
    /// Erase-block erase operations performed.
    pub blocks_erased: u64,
    /// Pages relocated by garbage collection (subset of `nand_pages_written`).
    pub gc_pages_relocated: u64,
    /// Pages invalidated via TRIM.
    pub pages_trimmed: u64,
    /// Number of foreground GC invocations.
    pub gc_invocations: u64,
}

impl SmartCounters {
    /// Device-level write amplification: NAND writes / host writes.
    /// Returns 1.0 before any host write (a fresh drive has no
    /// amplification to speak of).
    pub fn wa_d(&self) -> f64 {
        if self.host_pages_written == 0 {
            1.0
        } else {
            self.nand_pages_written as f64 / self.host_pages_written as f64
        }
    }

    /// Component-wise difference `self - earlier` (for windowed metrics).
    /// Saturates at zero so a reset between snapshots cannot underflow.
    pub fn delta_since(&self, earlier: &SmartCounters) -> SmartCounters {
        SmartCounters {
            host_pages_written: self
                .host_pages_written
                .saturating_sub(earlier.host_pages_written),
            host_pages_read: self.host_pages_read.saturating_sub(earlier.host_pages_read),
            nand_pages_written: self
                .nand_pages_written
                .saturating_sub(earlier.nand_pages_written),
            nand_pages_read: self.nand_pages_read.saturating_sub(earlier.nand_pages_read),
            blocks_erased: self.blocks_erased.saturating_sub(earlier.blocks_erased),
            gc_pages_relocated: self
                .gc_pages_relocated
                .saturating_sub(earlier.gc_pages_relocated),
            pages_trimmed: self.pages_trimmed.saturating_sub(earlier.pages_trimmed),
            gc_invocations: self.gc_invocations.saturating_sub(earlier.gc_invocations),
        }
    }

    /// Zeroes every counter (used between experiment phases, mirroring a
    /// baseline snapshot of real SMART attributes).
    pub fn reset(&mut self) {
        *self = SmartCounters::default();
    }
}

/// Per-block wear statistics (erase-count distribution).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WearStats {
    /// Minimum erase count across blocks.
    pub min_erases: u32,
    /// Maximum erase count across blocks.
    pub max_erases: u32,
    /// Mean erase count across blocks.
    pub mean_erases: f64,
}

impl WearStats {
    /// Computes wear statistics from a per-block erase-count slice.
    pub(crate) fn from_counts(counts: &[u32]) -> Self {
        if counts.is_empty() {
            return Self::default();
        }
        let min = *counts.iter().min().expect("non-empty");
        let max = *counts.iter().max().expect("non-empty");
        let mean = counts.iter().map(|&c| c as f64).sum::<f64>() / counts.len() as f64;
        Self {
            min_erases: min,
            max_erases: max,
            mean_erases: mean,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wa_d_defaults_to_one() {
        assert_eq!(SmartCounters::default().wa_d(), 1.0);
    }

    #[test]
    fn wa_d_ratio() {
        let s = SmartCounters {
            host_pages_written: 100,
            nand_pages_written: 230,
            ..Default::default()
        };
        assert!((s.wa_d() - 2.3).abs() < 1e-9);
    }

    #[test]
    fn delta_since_differences() {
        let a = SmartCounters {
            host_pages_written: 10,
            nand_pages_written: 15,
            ..Default::default()
        };
        let b = SmartCounters {
            host_pages_written: 30,
            nand_pages_written: 75,
            ..Default::default()
        };
        let d = b.delta_since(&a);
        assert_eq!(d.host_pages_written, 20);
        assert_eq!(d.nand_pages_written, 60);
        assert!((d.wa_d() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn delta_since_saturates_after_reset() {
        let before = SmartCounters {
            host_pages_written: 50,
            ..Default::default()
        };
        let after_reset = SmartCounters::default();
        let d = after_reset.delta_since(&before);
        assert_eq!(d.host_pages_written, 0);
    }

    #[test]
    fn wear_stats() {
        let w = WearStats::from_counts(&[1, 3, 5, 7]);
        assert_eq!(w.min_erases, 1);
        assert_eq!(w.max_erases, 7);
        assert!((w.mean_erases - 4.0).abs() < 1e-9);
        assert_eq!(WearStats::from_counts(&[]), WearStats::default());
    }
}
