//! The per-run engine knobs, declared once.
//!
//! Every engine's options embed one [`EngineTuning`] next to their
//! structural fields, and the experiment runner derives it from its run
//! configuration: the paper compares engines under the same
//! configuration (§3, §4.6), so a knob is declared here and nowhere
//! else in the engines.

use ptsbench_maint::MaintConfig;

/// The per-run tuning inputs every engine embeds.
///
/// Sizing follows the *drive* capacity, not the partition: the paper
/// keeps engine configurations identical across partitioning schemes
/// (§4.6), so reserving an over-provisioning partition must not change
/// memtable/level/cache sizing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineTuning {
    /// Simulated drive capacity in bytes that structural options scale
    /// to (0 in the fixed `Default`/`small()` engine shapes, which are
    /// not scaled to a drive).
    pub device_bytes: u64,
    /// I/O submission queue depth the engine should run its reads at
    /// (1 = classic synchronous path; engines that support the
    /// asynchronous API open a shared [`crate::IoQueue`] of this depth
    /// and batch their scan and compaction-input reads through it).
    pub queue_depth: usize,
    /// Read-cache budget in bytes for this engine instance (each shard
    /// builds its own instance, so this is a per-shard slice). 0 — the
    /// default — keeps the engines' seed read paths: no block cache for
    /// the LSM and hashlog, and the B+Tree's paper-proportioned pager
    /// cache. Above 0 it becomes the LSM/hashlog block-cache budget and
    /// overrides the B+Tree pager budget (never below the pager's
    /// four-page minimum).
    pub cache_bytes: u64,
    /// Compression level for engines with a block/segment codec (0 —
    /// the default — disables compression and keeps on-disk formats
    /// byte-identical to the seed; 1–9 trades CPU for device bytes,
    /// higher levels run as 9). The B+Tree ignores it: in-place page
    /// rewrites need fixed-size slots.
    pub compression_level: u8,
    /// Whether the engine records phase spans and per-cause device
    /// attribution through the tracer attached to its device (false —
    /// the default — keeps every engine hot path byte-identical to the
    /// untraced build; see [`crate::TraceHandle`]).
    pub trace: bool,
    /// Background-maintenance pacing knobs. Disabled (the default)
    /// keeps flushes/compactions/GC/checkpoints inline with the
    /// triggering operation, byte-identical to the seed; enabled turns
    /// them into rate-budgeted slices the dispatcher interleaves with
    /// foreground ops.
    pub maint: MaintConfig,
    /// Host threads the engine may run beside its caller's: 0 or 1.
    /// The stack's builder hands it out from the CPUs its own threads
    /// leave idle (the LSM runs one helper thread per database on it).
    /// A host setting, not a run knob: it moves no byte, clock step or
    /// counter, and no label or report shows it. 0 — the default —
    /// starts no thread.
    pub helper_threads: usize,
}

impl EngineTuning {
    /// Tuning for a drive of `device_bytes` capacity, at the synchronous
    /// queue depth of 1 and with the read-path accelerators, tracing and
    /// background maintenance off.
    pub fn for_device(device_bytes: u64) -> Self {
        Self {
            device_bytes,
            queue_depth: 1,
            cache_bytes: 0,
            compression_level: 0,
            trace: false,
            maint: MaintConfig::default(),
            helper_threads: 0,
        }
    }

    /// Sets the I/O submission queue depth.
    pub fn with_queue_depth(mut self, queue_depth: usize) -> Self {
        assert!(queue_depth >= 1, "queue depth must be at least 1");
        self.queue_depth = queue_depth;
        self
    }

    /// Sets the per-instance read-cache budget (0 = cache off).
    pub fn with_cache_bytes(mut self, cache_bytes: u64) -> Self {
        self.cache_bytes = cache_bytes;
        self
    }

    /// Sets the compression level (0 = off, clamped to 9 by the codec).
    pub fn with_compression_level(mut self, level: u8) -> Self {
        self.compression_level = level;
        self
    }

    /// Enables (or disables) engine phase-span recording.
    pub fn with_trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    /// Sets the background-maintenance configuration.
    pub fn with_maint(mut self, maint: MaintConfig) -> Self {
        self.maint = maint;
        self
    }

    /// Sets the host-thread budget (0 or 1 helper thread).
    pub fn with_helper_threads(mut self, helper_threads: usize) -> Self {
        assert!(helper_threads <= 1, "an engine runs at most one helper");
        self.helper_threads = helper_threads;
        self
    }
}
