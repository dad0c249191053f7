//! Write-amplification algebra (paper §2.1.3, §2.2.3, §3.3, §4.2).
//!
//! Three layers of writes exist in the stack:
//!
//! ```text
//!   application KV bytes  --(PTS internal ops)-->  host bytes to device
//!                         --(FTL GC)-->            NAND bytes to flash
//! ```
//!
//! * **WA-A** (application-level) = host bytes / application bytes.
//! * **WA-D** (device-level) = NAND bytes / host bytes.
//! * **End-to-end WA** = WA-A × WA-D — the number §4.2(ii) argues must be
//!   used to judge I/O efficiency and flash lifetime.
//!
//! The paper's headline example: RocksDB WA-A 12 vs WiredTiger 10
//! (only 1.2× worse), but end-to-end 25 vs 12 (2.1× worse) once WA-D is
//! accounted for.

/// A full write-amplification decomposition at some instant or over some
/// window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WaBreakdown {
    /// Application payload bytes written (key+value bytes of issued ops).
    pub app_bytes: u64,
    /// Bytes the host wrote to the device (as `iostat` would report).
    pub host_bytes: u64,
    /// Bytes programmed to NAND (as SMART would report).
    pub nand_bytes: u64,
}

impl WaBreakdown {
    /// Application-level write amplification (WA-A).
    pub fn wa_a(&self) -> f64 {
        ratio(self.host_bytes, self.app_bytes)
    }

    /// Device-level write amplification (WA-D).
    pub fn wa_d(&self) -> f64 {
        ratio(self.nand_bytes, self.host_bytes)
    }

    /// End-to-end write amplification (application → flash cells).
    pub fn end_to_end(&self) -> f64 {
        ratio(self.nand_bytes, self.app_bytes)
    }

    /// Windowed difference `self - earlier`.
    pub fn delta_since(&self, earlier: &WaBreakdown) -> WaBreakdown {
        WaBreakdown {
            app_bytes: self.app_bytes.saturating_sub(earlier.app_bytes),
            host_bytes: self.host_bytes.saturating_sub(earlier.host_bytes),
            nand_bytes: self.nand_bytes.saturating_sub(earlier.nand_bytes),
        }
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        1.0
    } else {
        num as f64 / den as f64
    }
}

/// Space amplification (§2.1.4, §3.3(v)): bytes occupied on the drive
/// divided by the logical dataset size.
pub fn space_amplification(disk_used_bytes: u64, dataset_bytes: u64) -> f64 {
    ratio(disk_used_bytes, dataset_bytes)
}

/// The §4.1 rule of thumb: an SSD is assumed to have reached steady state
/// once cumulative host writes accrue to at least `multiplier` (default 3)
/// times the device capacity.
pub fn steady_state_by_host_writes(
    cumulative_host_bytes: u64,
    device_capacity_bytes: u64,
    multiplier: f64,
) -> bool {
    cumulative_host_bytes as f64 >= multiplier * device_capacity_bytes as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_matches_paper_example() {
        // RocksDB steady state: WA-A 12, WA-D ~2.1 => end-to-end ~25.
        let rocks = WaBreakdown {
            app_bytes: 100,
            host_bytes: 1200,
            nand_bytes: 2520,
        };
        assert!((rocks.wa_a() - 12.0).abs() < 1e-9);
        assert!((rocks.wa_d() - 2.1).abs() < 1e-9);
        assert!((rocks.end_to_end() - 25.2).abs() < 1e-9);
        // WiredTiger: WA-A 10, WA-D 1.2 => 12.
        let wt = WaBreakdown {
            app_bytes: 100,
            host_bytes: 1000,
            nand_bytes: 1200,
        };
        assert!((wt.end_to_end() - 12.0).abs() < 1e-9);
        // The paper's point: 1.2x WA-A gap becomes a 2.1x end-to-end gap.
        let gap_a = rocks.wa_a() / wt.wa_a();
        let gap_e2e = rocks.end_to_end() / wt.end_to_end();
        assert!(gap_a < 1.3);
        assert!(gap_e2e > 2.0);
    }

    #[test]
    fn zero_denominators_are_benign() {
        let w = WaBreakdown {
            app_bytes: 0,
            host_bytes: 0,
            nand_bytes: 0,
        };
        assert_eq!(w.wa_a(), 1.0);
        assert_eq!(w.wa_d(), 1.0);
        assert_eq!(w.end_to_end(), 1.0);
    }

    #[test]
    fn delta_since_windows() {
        let a = WaBreakdown {
            app_bytes: 100,
            host_bytes: 200,
            nand_bytes: 250,
        };
        let b = WaBreakdown {
            app_bytes: 200,
            host_bytes: 600,
            nand_bytes: 1050,
        };
        let d = b.delta_since(&a);
        assert_eq!(
            d,
            WaBreakdown {
                app_bytes: 100,
                host_bytes: 400,
                nand_bytes: 800
            }
        );
        assert!((d.wa_a() - 4.0).abs() < 1e-9);
        assert!((d.wa_d() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn space_amp() {
        assert!((space_amplification(186, 100) - 1.86).abs() < 1e-9);
        assert_eq!(space_amplification(10, 0), 1.0);
    }

    #[test]
    fn steady_state_rule_of_thumb() {
        assert!(!steady_state_by_host_writes(2_000, 1_000, 3.0));
        assert!(steady_state_by_host_writes(3_000, 1_000, 3.0));
    }
}
