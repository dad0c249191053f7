//! The hash log's structural options, plus the per-run
//! [`EngineTuning`] it embeds.

use ptsbench_cache::Compression;
use ptsbench_vfs::EngineTuning;

/// Configuration of a [`crate::HashLogDb`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HashLogOptions {
    /// Target size of one log segment; the active segment seals and a
    /// new one opens once it grows past this.
    pub segment_bytes: u64,
    /// The per-run knobs. Queue depth above 1 issues scans as batches
    /// of parallel point reads (the KVell trick of hiding per-command
    /// latency behind queue depth; point lookups stay synchronous). The
    /// cache holds individual values, or whole decoded segments under
    /// compression. Compression accumulates the active segment in
    /// memory and writes it as one container when it seals (see
    /// `HashLogOptions::compression`). Maintenance paces segment GC.
    pub tuning: EngineTuning,
}

impl Default for HashLogOptions {
    fn default() -> Self {
        Self {
            segment_bytes: 4 << 20,
            tuning: EngineTuning::for_device(0),
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
            tuning: EngineTuning::for_device(device_bytes),
        }
    }

    /// The segment codec the tuning's compression level selects
    /// ([`Compression::None`] at level 0 keeps the seed
    /// append-per-record format).
    pub(crate) fn compression(&self) -> Compression {
        Compression::from_level(self.tuning.compression_level)
    }

    /// Validates option consistency; panics with a description on error.
    pub fn validate(&self) {
        assert!(
            self.segment_bytes >= 4 << 10,
            "segments unrealistically small"
        );
        assert!(
            self.tuning.queue_depth >= 1,
            "queue depth must be at least 1"
        );
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
