//! Engine tuning knobs.

use ptsbench_cache::Compression;
use ptsbench_maint::MaintConfig;

/// Configuration of a [`crate::HashLogDb`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HashLogOptions {
    /// Target size of one log segment; the active segment seals and a
    /// new one opens once it grows past this.
    pub segment_bytes: u64,
    /// I/O submission queue depth. At 1 (the default) every read uses
    /// the classic synchronous path; above 1 the engine opens a shared
    /// [`ptsbench_vfs::IoQueue`] and issues scans as batches of up to
    /// this many parallel point reads — the KVell trick of hiding
    /// per-command latency behind queue depth. Point lookups stay
    /// synchronous at any depth.
    pub queue_depth: usize,
    /// Value/segment cache budget in bytes (0 — the default — disables
    /// the cache and keeps the seed read path). Without compression the
    /// cache holds individual values; with compression it holds whole
    /// decoded segments, so one device read serves every hot value in
    /// the segment.
    pub cache_bytes: u64,
    /// Segment compression codec: the active segment accumulates in
    /// memory and is written as one compressed container when it seals
    /// ([`Compression::None`] keeps the seed append-per-record format).
    pub compression: Compression,
    /// Record phase spans and per-cause device attribution through the
    /// tracer attached to the device (no-op — and byte-identical to the
    /// untraced engine — when the device has no tracer or this is
    /// false, the default).
    pub trace: bool,
    /// Background-maintenance knobs. When `maint.enabled`, segment GC
    /// runs as deferred jobs in bounded, rate-budgeted slices pumped
    /// between foreground ops instead of inline inside the triggering
    /// write; off (the default) keeps the seed inline-GC behavior
    /// byte-identical.
    pub maint: MaintConfig,
}

impl Default for HashLogOptions {
    fn default() -> Self {
        Self {
            segment_bytes: 4 << 20,
            queue_depth: 1,
            cache_bytes: 0,
            compression: Compression::None,
            trace: false,
            maint: MaintConfig::default(),
        }
    }
}

impl HashLogOptions {
    /// A small configuration for unit tests (tiny segments so sealing
    /// and GC happen after a handful of writes).
    pub fn small() -> Self {
        Self {
            segment_bytes: 32 << 10,
            ..Self::default()
        }
    }

    /// Scales the segment size to the drive capacity (1/64th of the
    /// drive, clamped), symmetric with the other engines'
    /// `scaled_to_partition` constructors: sizing follows the *drive*
    /// capacity, not the partition, so software over-provisioning does
    /// not change engine structure (§4.6).
    pub fn scaled_to_partition(device_bytes: u64) -> Self {
        Self {
            segment_bytes: (device_bytes / 64).clamp(64 << 10, 16 << 20),
            ..Self::default()
        }
    }

    /// Validates option consistency; panics with a description on error.
    pub fn validate(&self) {
        assert!(
            self.segment_bytes >= 4 << 10,
            "segments unrealistically small"
        );
        assert!(self.queue_depth >= 1, "queue depth must be at least 1");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        HashLogOptions::default().validate();
        HashLogOptions::small().validate();
    }

    #[test]
    fn scaling_tracks_device() {
        let o = HashLogOptions::scaled_to_partition(256 << 20);
        assert_eq!(o.segment_bytes, 4 << 20);
        o.validate();
        let tiny = HashLogOptions::scaled_to_partition(1 << 20);
        assert_eq!(tiny.segment_bytes, 64 << 10, "clamped at the floor");
    }
}
