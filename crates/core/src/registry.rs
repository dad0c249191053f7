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
pub use ptsbench_vfs::EngineTuning;
use ptsbench_vfs::Vfs;

use crate::engine::{btree_error, lsm_error, BTreeEngine, LsmEngine, PtsEngine, PtsError};

/// Whether a builder opens a fresh engine or rebuilds one from the
/// files already on the filesystem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lifecycle {
    /// Fresh engine on an empty (or to-be-overwritten) filesystem.
    Open,
    /// Rebuild from persisted state (post-crash restart).
    Recover,
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
    let opts = lsm_options(tuning);
    let db = match lifecycle {
        Lifecycle::Open => LsmDb::open(vfs, opts),
        Lifecycle::Recover => LsmDb::recover(vfs, opts),
    }
    .map_err(lsm_error)?;
    Ok(Box::new(LsmEngine(db)))
}

/// The LSM's options on a drive: structure scaled to it, tuning as given.
fn lsm_options(tuning: &EngineTuning) -> LsmOptions {
    LsmOptions {
        tuning: *tuning,
        ..LsmOptions::scaled_to_partition(tuning.device_bytes)
    }
}

fn build_btree(
    vfs: Vfs,
    tuning: &EngineTuning,
    lifecycle: Lifecycle,
) -> Result<Box<dyn PtsEngine>, PtsError> {
    let opts = btree_options(tuning);
    let db = match lifecycle {
        Lifecycle::Open => BTreeDb::open(vfs, opts),
        Lifecycle::Recover => BTreeDb::recover(vfs, opts),
    }
    .map_err(btree_error)?;
    Ok(Box::new(BTreeEngine(db)))
}

/// The B+Tree's options on a drive: structure scaled to it, tuning as
/// given.
fn btree_options(tuning: &EngineTuning) -> BTreeOptions {
    BTreeOptions {
        tuning: *tuning,
        ..BTreeOptions::scaled_to_partition(tuning.device_bytes)
    }
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

    /// The one `RunConfig -> EngineTuning` map carries every knob, and
    /// each built-in engine embeds it unchanged.
    #[test]
    fn run_tuning_reaches_the_engine_options_unchanged() {
        let cfg = crate::runner::RunConfig {
            queue_depth: 8,
            cache_bytes: 8 << 20,
            compression_level: 3,
            trace: true,
            maint: ptsbench_maint::MaintConfig::enabled(),
            ..crate::runner::RunConfig::default()
        };
        let tuning = cfg.tuning();
        // Every knob away from its `for_device` default, exhaustively:
        // a knob added to `EngineTuning` must be added here too.
        assert_eq!(
            tuning,
            EngineTuning {
                device_bytes: cfg.device_bytes,
                queue_depth: 8,
                cache_bytes: 8 << 20,
                compression_level: 3,
                trace: true,
                maint: ptsbench_maint::MaintConfig::enabled(),
                helper_threads: 0,
            }
        );
        assert_eq!(lsm_options(&tuning).tuning, tuning);
        assert_eq!(btree_options(&tuning).tuning, tuning);
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
