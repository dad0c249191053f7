//! The engine registry: how engines join the methodology.
//!
//! The harness never names concrete engine types. Each engine registers
//! an [`EngineDescriptor`] — display name, short label, a default
//! per-operation CPU cost, and a builder over `(Vfs, EngineTuning,
//! Lifecycle)` — and receives an opaque [`EngineKind`] handle. The
//! runner, the pitfall modules, the cost model, benches and examples
//! resolve engines purely through this registry, so adding an engine
//! requires no change to any of them (the acceptance test for this is
//! the `ptsbench-hashlog` crate, which registers from the outside).
//!
//! The two built-in engines (`lsm`, `btree`) self-register when the
//! registry is first touched, so their handles are always available.

use std::sync::{OnceLock, RwLock};

use ptsbench_btree::{BTreeDb, BTreeOptions};
use ptsbench_lsm::{LsmDb, LsmOptions};
use ptsbench_vfs::Vfs;

use crate::engine::{BTreeEngine, LsmEngine, PtsEngine, PtsError};

/// Whether a builder opens a fresh engine or rebuilds one from the
/// files already on the filesystem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lifecycle {
    /// Fresh engine on an empty (or to-be-overwritten) filesystem.
    Open,
    /// Rebuild from persisted state (post-crash restart).
    Recover,
}

/// Structural tuning inputs passed to engine builders.
///
/// Sizing follows the *drive* capacity, not the partition: the paper
/// keeps engine configurations identical across partitioning schemes
/// (§4.6), so reserving an over-provisioning partition must not change
/// memtable/level/cache sizing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineTuning {
    /// Simulated drive capacity in bytes that structural options scale
    /// to.
    pub device_bytes: u64,
    /// I/O submission queue depth the engine should run its reads at
    /// (1 = classic synchronous path; engines that support the
    /// asynchronous API open a shared `IoQueue` of this depth).
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
    /// byte-identical to the seed; 1–9 trades CPU for device bytes).
    /// The B+Tree ignores it: in-place page rewrites need fixed-size
    /// slots.
    pub compression_level: u8,
    /// Whether the engine records phase spans and per-cause device
    /// attribution through the tracer attached to its device (false —
    /// the default — keeps every engine hot path byte-identical to the
    /// untraced build).
    pub trace: bool,
    /// Background-maintenance pacing knobs. Disabled (the default)
    /// keeps flushes/compactions/GC/checkpoints inline with the
    /// triggering operation, byte-identical to the seed; enabled turns
    /// them into rate-budgeted slices the dispatcher interleaves with
    /// foreground ops.
    pub maint: ptsbench_maint::MaintConfig,
}

impl EngineTuning {
    /// Tuning for a drive of `device_bytes` capacity, at the synchronous
    /// queue depth of 1 and with the read-path accelerators off.
    pub fn for_device(device_bytes: u64) -> Self {
        Self {
            device_bytes,
            queue_depth: 1,
            cache_bytes: 0,
            compression_level: 0,
            trace: false,
            maint: ptsbench_maint::MaintConfig::default(),
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
    pub fn with_maint(mut self, maint: ptsbench_maint::MaintConfig) -> Self {
        self.maint = maint;
        self
    }
}

/// Builder signature every registered engine provides.
pub(crate) type EngineBuilder =
    fn(Vfs, &EngineTuning, Lifecycle) -> Result<Box<dyn PtsEngine>, PtsError>;

/// What an engine tells the registry about itself.
#[derive(Clone, Copy)]
pub struct EngineDescriptor {
    /// Display name matching the paper's terminology (report headers).
    pub name: &'static str,
    /// Short unique label for table rows and config files.
    pub label: &'static str,
    /// Default per-operation CPU/synchronization cost at reference
    /// scale, in nanoseconds. The paper (§4.1, citing KVell) notes that
    /// WiredTiger is markedly more CPU- and synchronization-bound than
    /// RocksDB; these defaults reproduce the observed per-op budgets.
    pub default_cpu_cost_ns: u64,
    /// Builds (or recovers) the engine on a filesystem.
    pub build: EngineBuilder,
}

impl std::fmt::Debug for EngineDescriptor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineDescriptor")
            .field("name", &self.name)
            .field("label", &self.label)
            .field("default_cpu_cost_ns", &self.default_cpu_cost_ns)
            .finish()
    }
}

/// Opaque handle to a registered engine.
///
/// Copyable, comparable, and resolvable back to its descriptor; the
/// built-ins are reachable as [`EngineKind::lsm`] and
/// [`EngineKind::btree`], every registered engine through
/// [`EngineRegistry::all`] or [`EngineRegistry::lookup`].
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct EngineKind(u16);

impl std::fmt::Debug for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "EngineKind({})", self.label())
    }
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl EngineKind {
    /// The built-in leveled LSM-tree (RocksDB stand-in).
    pub fn lsm() -> Self {
        EngineRegistry::lookup("lsm").expect("built-in lsm engine")
    }

    /// The built-in paged B+Tree (WiredTiger stand-in).
    pub fn btree() -> Self {
        EngineRegistry::lookup("btree").expect("built-in btree engine")
    }

    /// Display name matching the paper's terminology.
    pub fn name(&self) -> &'static str {
        EngineRegistry::descriptor(*self).name
    }

    /// Short label for table rows.
    pub fn label(&self) -> &'static str {
        EngineRegistry::descriptor(*self).label
    }

    /// Default per-operation CPU cost at reference scale (ns).
    pub fn default_cpu_cost_ns(&self) -> u64 {
        EngineRegistry::descriptor(*self).default_cpu_cost_ns
    }

    /// Builds a fresh engine on `vfs`, scaled per `tuning`.
    pub fn open(&self, vfs: Vfs, tuning: &EngineTuning) -> Result<Box<dyn PtsEngine>, PtsError> {
        (EngineRegistry::descriptor(*self).build)(vfs, tuning, Lifecycle::Open)
    }

    /// Recovers an engine from the state persisted on `vfs`.
    pub fn recover(&self, vfs: Vfs, tuning: &EngineTuning) -> Result<Box<dyn PtsEngine>, PtsError> {
        (EngineRegistry::descriptor(*self).build)(vfs, tuning, Lifecycle::Recover)
    }
}

static REGISTRY: OnceLock<RwLock<Vec<EngineDescriptor>>> = OnceLock::new();

fn cell() -> &'static RwLock<Vec<EngineDescriptor>> {
    REGISTRY.get_or_init(|| RwLock::new(vec![LSM_DESCRIPTOR, BTREE_DESCRIPTOR]))
}

/// The process-wide engine registry.
pub struct EngineRegistry;

impl EngineRegistry {
    /// Registers an engine and returns its handle. Registration is
    /// idempotent by label: registering the same label again returns
    /// the existing handle (the first descriptor wins).
    pub fn register(descriptor: EngineDescriptor) -> EngineKind {
        let mut reg = cell().write().expect("registry lock");
        if let Some(idx) = reg.iter().position(|d| d.label == descriptor.label) {
            return EngineKind(idx as u16);
        }
        assert!(reg.len() < u16::MAX as usize, "engine registry full");
        reg.push(descriptor);
        EngineKind((reg.len() - 1) as u16)
    }

    /// Resolves a label to its handle.
    pub fn lookup(label: &str) -> Option<EngineKind> {
        let reg = cell().read().expect("registry lock");
        reg.iter()
            .position(|d| d.label == label)
            .map(|i| EngineKind(i as u16))
    }

    /// Handles of every registered engine, in registration order.
    pub fn all() -> Vec<EngineKind> {
        let reg = cell().read().expect("registry lock");
        (0..reg.len()).map(|i| EngineKind(i as u16)).collect()
    }

    /// The descriptor behind a handle.
    pub fn descriptor(kind: EngineKind) -> EngineDescriptor {
        let reg = cell().read().expect("registry lock");
        reg[kind.0 as usize]
    }
}

// ----------------------------------------------------------- builtins

const LSM_DESCRIPTOR: EngineDescriptor = EngineDescriptor {
    name: "LSM (RocksDB-like)",
    label: "lsm",
    default_cpu_cost_ns: 25_000,
    build: build_lsm,
};

const BTREE_DESCRIPTOR: EngineDescriptor = EngineDescriptor {
    name: "B+Tree (WiredTiger-like)",
    label: "btree",
    default_cpu_cost_ns: 650_000,
    build: build_btree,
};

fn build_lsm(
    vfs: Vfs,
    tuning: &EngineTuning,
    lifecycle: Lifecycle,
) -> Result<Box<dyn PtsEngine>, PtsError> {
    let opts = LsmOptions {
        queue_depth: tuning.queue_depth,
        cache_bytes: tuning.cache_bytes,
        compression: ptsbench_cache::Compression::from_level(tuning.compression_level),
        trace: tuning.trace,
        maint: tuning.maint,
        ..LsmOptions::scaled_to_partition(tuning.device_bytes)
    };
    let db = match lifecycle {
        Lifecycle::Open => LsmDb::open(vfs, opts),
        Lifecycle::Recover => LsmDb::recover(vfs, opts),
    }?;
    Ok(Box::new(LsmEngine(db)))
}

fn build_btree(
    vfs: Vfs,
    tuning: &EngineTuning,
    lifecycle: Lifecycle,
) -> Result<Box<dyn PtsEngine>, PtsError> {
    let mut opts = BTreeOptions::scaled_to_partition(tuning.device_bytes);
    opts.trace = tuning.trace;
    opts.maint = tuning.maint;
    if tuning.cache_bytes > 0 {
        // The budget sweep drives the pager cache directly; clamp to
        // the pager's four-page minimum so tiny sweep points validate.
        opts.cache_bytes = tuning.cache_bytes.max(4 * opts.page_bytes as u64 + 1);
    }
    let db = match lifecycle {
        Lifecycle::Open => BTreeDb::open(vfs, opts),
        Lifecycle::Recover => BTreeDb::recover(vfs, opts),
    }?;
    Ok(Box::new(BTreeEngine(db)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtins_resolve() {
        assert_eq!(EngineKind::lsm().label(), "lsm");
        assert_eq!(EngineKind::btree().label(), "btree");
        assert!(EngineKind::lsm().name().contains("RocksDB"));
        assert!(EngineKind::btree().name().contains("WiredTiger"));
        assert!(EngineRegistry::all().len() >= 2);
        assert_eq!(EngineRegistry::lookup("lsm"), Some(EngineKind::lsm()));
        assert_eq!(EngineRegistry::lookup("nonexistent"), None);
    }

    #[test]
    fn cpu_cost_defaults_reflect_engines() {
        assert!(
            EngineKind::btree().default_cpu_cost_ns() > EngineKind::lsm().default_cpu_cost_ns()
        );
    }

    #[test]
    fn registration_is_idempotent_by_label() {
        fn build_stub(
            _vfs: Vfs,
            _tuning: &EngineTuning,
            _lifecycle: Lifecycle,
        ) -> Result<Box<dyn PtsEngine>, PtsError> {
            unimplemented!("stub engine is never built")
        }
        let descriptor = EngineDescriptor {
            name: "Stub",
            label: "stub-test-engine",
            default_cpu_cost_ns: 1,
            build: build_stub,
        };
        let a = EngineRegistry::register(descriptor);
        let b = EngineRegistry::register(descriptor);
        assert_eq!(a, b);
        assert_eq!(a.label(), "stub-test-engine");
        assert!(EngineRegistry::all().contains(&a));
    }

    #[test]
    fn handles_are_copy_and_comparable() {
        let k = EngineKind::lsm();
        let copied = k;
        assert_eq!(k, copied);
        assert_ne!(EngineKind::lsm(), EngineKind::btree());
        assert_eq!(format!("{k}"), "lsm");
        assert!(format!("{k:?}").contains("lsm"));
    }
}
