//! Engine tuning knobs.

use ptsbench_maint::MaintConfig;

/// Configuration of a [`crate::BTreeDb`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BTreeOptions {
    /// Tree page size in bytes (WiredTiger leaf default: 32 KiB).
    /// Should be a multiple of the device page size.
    pub page_bytes: usize,
    /// Page-cache capacity in bytes (the paper configures 10 MB, §3.1).
    pub cache_bytes: u64,
    /// Whether updates are logged before being applied in cache.
    pub wal_enabled: bool,
    /// Whether each commit fsyncs the log.
    pub wal_fsync: bool,
    /// A checkpoint (write-back of all dirty pages + meta) runs after
    /// this many application bytes have been written since the last one.
    pub checkpoint_app_bytes: u64,
    /// Record phase spans and per-cause device attribution through the
    /// tracer attached to the device (no-op — and byte-identical to the
    /// untraced engine — when the device has no tracer or this is
    /// false, the default).
    pub trace: bool,
    /// Background-maintenance knobs. When `maint.enabled`, the
    /// byte-threshold checkpoint runs as a deferred job in bounded,
    /// rate-budgeted slices pumped between foreground ops instead of
    /// inline inside the triggering write; off (the default) keeps the
    /// seed inline-checkpoint behavior byte-identical.
    pub maint: MaintConfig,
}

impl Default for BTreeOptions {
    fn default() -> Self {
        Self {
            page_bytes: 32 << 10,
            cache_bytes: 10 << 20,
            wal_enabled: true,
            wal_fsync: false,
            checkpoint_app_bytes: 8 << 20,
            trace: false,
            maint: MaintConfig::default(),
        }
    }
}

impl BTreeOptions {
    /// A small configuration for unit tests (tiny pages and cache so
    /// splits, merges and evictions happen after a handful of writes).
    pub fn small() -> Self {
        Self {
            page_bytes: 4 << 10,
            cache_bytes: 64 << 10,
            wal_enabled: true,
            wal_fsync: false,
            checkpoint_app_bytes: 256 << 10,
            trace: false,
            maint: MaintConfig::default(),
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
        let cache_bytes = proportional.max(4 * page_bytes as u64 + 1);
        Self {
            page_bytes,
            cache_bytes,
            checkpoint_app_bytes: (device_bytes / 64).max(1 << 20),
            ..Self::default()
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
            self.cache_bytes >= 4 * self.page_bytes as u64,
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
        assert_eq!(o.cache_bytes, 10 << 20, "paper configures a 10 MB cache");
    }

    #[test]
    #[should_panic(expected = "cache must hold")]
    fn tiny_cache_rejected() {
        BTreeOptions {
            cache_bytes: 1024,
            ..BTreeOptions::small()
        }
        .validate();
    }
}
