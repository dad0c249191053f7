//! The B+Tree's structural options, plus the per-run [`EngineTuning`]
//! it embeds.

use ptsbench_vfs::EngineTuning;

/// Configuration of a [`crate::BTreeDb`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BTreeOptions {
    /// Tree page size in bytes (WiredTiger leaf default: 32 KiB).
    /// Should be a multiple of the device page size.
    pub page_bytes: usize,
    /// Page-cache capacity in bytes (the paper configures 10 MB, §3.1)
    /// while the tuning sets no cache budget; see
    /// `BTreeOptions::pager_budget`.
    pub pager_bytes: u64,
    /// A checkpoint (write-back of all dirty pages + meta) runs after
    /// this many application bytes have been written since the last one.
    pub checkpoint_app_bytes: u64,
    /// The per-run knobs: the cache budget (which overrides
    /// `pager_bytes`), tracing, and paced checkpoints. Queue depth and
    /// compression level do not apply: pages load synchronously, and
    /// in-place page rewrites need fixed-size slots.
    pub tuning: EngineTuning,
}

impl Default for BTreeOptions {
    fn default() -> Self {
        Self {
            page_bytes: 32 << 10,
            pager_bytes: 10 << 20,
            checkpoint_app_bytes: 8 << 20,
            tuning: EngineTuning::for_device(0),
        }
    }
}

impl BTreeOptions {
    /// A small configuration for unit tests (tiny pages and cache so
    /// splits, merges and evictions happen after a handful of writes).
    pub fn small() -> Self {
        Self {
            page_bytes: 4 << 10,
            pager_bytes: 64 << 10,
            checkpoint_app_bytes: 256 << 10,
            ..Self::default()
        }
    }

    /// Scales the configuration to a drive of `device_bytes` capacity:
    /// WiredTiger-shaped 32 KiB pages, the paper's 10 MB cache : 400 GB
    /// drive proportion (§3.1, never below the pager's four-page
    /// minimum), and a checkpoint every 1/64th of the drive's worth of
    /// application writes. Symmetric with
    /// `LsmOptions::scaled_to_partition`: sizing follows the *drive*
    /// capacity, not the partition, so software over-provisioning does
    /// not change engine structure (§4.6).
    pub fn scaled_to_partition(device_bytes: u64) -> Self {
        let page_bytes: usize = 32 << 10;
        let proportional = (10u64 << 20).saturating_mul(device_bytes) / (400 << 30);
        Self {
            page_bytes,
            pager_bytes: proportional.max(4 * page_bytes as u64 + 1),
            checkpoint_app_bytes: (device_bytes / 64).max(1 << 20),
            tuning: EngineTuning::for_device(device_bytes),
        }
    }

    /// The page-cache budget the pager runs with: the tuning's cache
    /// budget when it sets one — the budget sweep drives the pager
    /// cache directly, clamped to the pager's four-page minimum so
    /// tiny sweep points validate — and `pager_bytes` otherwise.
    pub(crate) fn pager_budget(&self) -> u64 {
        match self.tuning.cache_bytes {
            0 => self.pager_bytes,
            budget => budget.max(4 * self.page_bytes as u64 + 1),
        }
    }

    /// Validates option consistency; panics with a description on error.
    pub fn validate(&self) {
        assert!(
            self.page_bytes >= 1024,
            "pages must hold at least a few entries"
        );
        assert!(self.page_bytes <= 1 << 24);
        assert!(
            self.pager_budget() >= 4 * self.page_bytes as u64,
            "cache must hold at least four pages"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        BTreeOptions::default().validate();
        BTreeOptions::small().validate();
    }

    #[test]
    fn default_matches_wiredtiger_shape() {
        let o = BTreeOptions::default();
        assert_eq!(o.page_bytes, 32 << 10, "WiredTiger leaf pages are 32 KiB");
        assert_eq!(o.pager_bytes, 10 << 20, "paper configures a 10 MB cache");
    }

    #[test]
    #[should_panic(expected = "cache must hold")]
    fn tiny_cache_rejected() {
        BTreeOptions {
            pager_bytes: 1024,
            ..BTreeOptions::small()
        }
        .validate();
    }
}
