//! The open engine API: the [`PtsEngine`] trait and its support types.
//!
//! This is the uniform surface the runner, the pitfall modules, the
//! cost model and the conformance suite drive. It is deliberately
//! engine-shaped, not tree-shaped: the paper's methodology (§3) applies
//! to *any* persistent key-value structure on flash, and §4.1's KVell
//! discussion shows why contrasting sorted trees with unsorted
//! log-structured designs matters. Engines implement this trait and
//! register a descriptor with [`crate::registry::EngineRegistry`];
//! nothing else in the harness names a concrete engine type.
//!
//! Design points:
//!
//! * **Batched writes** — [`WriteBatch`] groups puts/deletes so bulk
//!   load and replication-style ingest can amortize per-call overhead.
//!   Every engine states its own [`PtsEngine::apply_batch`] (there is no
//!   default loop), and a batch holding an op the engine refuses
//!   applies nothing.
//! * **Streaming scans** — [`PtsEngine::scan`] returns a
//!   [`ScanCursor`], an iterator that pulls entries on demand instead
//!   of materializing `Vec<(Vec<u8>, Vec<u8>)>` for the whole range.
//! * **Uniform statistics** — [`EngineStats`] carries the metrics the
//!   methodology needs (application bytes written for WA-A, cache
//!   traffic) plus an engine-specific structural summary.
//! * **One error mapping** — an engine on the `Vfs` returns
//!   [`StoreError`], and [`PtsError::store`] turns it into the uniform
//!   error: out-of-space becomes [`PtsError::OutOfSpace`].
//! * **Explicit lifecycle** — engines are built through the registry
//!   with [`crate::registry::Lifecycle`] `Open` (fresh) or `Recover`
//!   (rebuild from the filesystem after a crash).

use std::sync::Arc;

use ptsbench_btree::BTreeDb;
use ptsbench_cache::CacheStats;
use ptsbench_lsm::LsmDb;
use ptsbench_maint::MaintStats;
use ptsbench_ssd::SsdError;
use ptsbench_vfs::{StoreError, Vfs};

use crate::registry::EngineKind;

/// Errors surfaced by a [`PtsEngine`].
///
/// The enum is `#[non_exhaustive]`: match with a wildcard arm so new
/// uniform failure classes can be added without breaking engines.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum PtsError {
    /// The underlying partition filled up (the paper's RocksDB
    /// out-of-space condition on large datasets). Every engine must map
    /// its native no-space failure to this variant so the runner's
    /// capacity experiments treat engines uniformly; [`PtsError::store`]
    /// does it for a [`StoreError`].
    OutOfSpace,
    /// Any other engine failure, with the native error retained for
    /// [`std::error::Error::source`] inspection.
    Engine {
        /// Short label of the engine that failed (registry label).
        engine: &'static str,
        /// The engine's native error.
        source: Arc<dyn std::error::Error + Send + Sync + 'static>,
    },
    /// The simulated device itself rejected a command (out-of-range
    /// address, or an FTL that cannot reclaim a block). Surfaced as a
    /// result instead of a panic so harness shards fail cleanly.
    Device {
        /// The device's native error.
        source: SsdError,
    },
}

impl PtsError {
    /// Wraps a native engine error, preserving it as the source chain.
    pub fn engine(
        engine: &'static str,
        source: impl std::error::Error + Send + Sync + 'static,
    ) -> Self {
        PtsError::Engine {
            engine,
            source: Arc::new(source),
        }
    }

    /// Maps a storage error of the engine labelled `engine`: running
    /// out of space becomes [`PtsError::OutOfSpace`], anything else a
    /// [`PtsError::Engine`] whose source chain reaches the filesystem
    /// and the device.
    pub fn store(engine: &'static str, e: StoreError) -> Self {
        if e.is_out_of_space() {
            PtsError::OutOfSpace
        } else {
            PtsError::engine(engine, e)
        }
    }
}

impl std::fmt::Display for PtsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PtsError::OutOfSpace => write!(f, "out of space"),
            PtsError::Engine { engine, source } => {
                write!(f, "engine error ({engine}): {source}")
            }
            PtsError::Device { source } => write!(f, "device error: {source}"),
        }
    }
}

impl std::error::Error for PtsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PtsError::OutOfSpace => None,
            PtsError::Engine { source, .. } => Some(source.as_ref()),
            PtsError::Device { source } => Some(source),
        }
    }
}

impl PartialEq for PtsError {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (PtsError::OutOfSpace, PtsError::OutOfSpace) => true,
            (
                PtsError::Engine {
                    engine: a,
                    source: sa,
                },
                PtsError::Engine {
                    engine: b,
                    source: sb,
                },
            ) => a == b && sa.to_string() == sb.to_string(),
            (PtsError::Device { source: a }, PtsError::Device { source: b }) => a == b,
            _ => false,
        }
    }
}

impl Eq for PtsError {}

impl From<SsdError> for PtsError {
    fn from(source: SsdError) -> Self {
        PtsError::Device { source }
    }
}

/// One operation inside a [`WriteBatch`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchOp {
    /// Insert or overwrite a key.
    Put {
        /// The key.
        key: Vec<u8>,
        /// The value.
        value: Vec<u8>,
    },
    /// Delete a key.
    Delete {
        /// The key.
        key: Vec<u8>,
    },
}

/// An ordered group of puts/deletes applied through
/// [`PtsEngine::apply_batch`].
///
/// The loader uses batches for bulk load. Each engine implements
/// `apply_batch` itself, through the same write body as its `put` and
/// `delete`: the hash log appends a whole batch as one log write; the
/// LSM logs one record per op just before it applies, except under
/// paced maintenance, where a batch group-commits all its records
/// before its first op applies; the B+Tree journals each op just before
/// it applies. Both tree engines check every op before they apply any.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WriteBatch {
    ops: Vec<BatchOp>,
}

impl WriteBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a put.
    pub fn put(&mut self, key: &[u8], value: &[u8]) -> &mut Self {
        self.ops.push(BatchOp::Put {
            key: key.to_vec(),
            value: value.to_vec(),
        });
        self
    }

    /// Appends a delete.
    pub fn delete(&mut self, key: &[u8]) -> &mut Self {
        self.ops.push(BatchOp::Delete { key: key.to_vec() });
        self
    }

    /// The operations, in application order.
    pub fn ops(&self) -> &[BatchOp] {
        &self.ops
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the batch holds no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Removes all operations, keeping the allocation.
    pub fn clear(&mut self) {
        self.ops.clear();
    }
}

/// A `(key, value)` pair yielded by a scan.
pub(crate) type ScanItem = (Vec<u8>, Vec<u8>);

/// A batch of `(key, value)` pairs from a materialized scan.
pub(crate) type ScanItems = Vec<ScanItem>;

/// A streaming scan cursor: yields live entries in ascending key order,
/// pulling from the engine on demand.
///
/// Entries are `Result`s because reads can fail mid-scan (corruption,
/// I/O); after the first error the cursor is exhausted.
pub struct ScanCursor<'a> {
    inner: Box<dyn Iterator<Item = Result<ScanItem, PtsError>> + 'a>,
}

impl<'a> ScanCursor<'a> {
    /// Wraps any entry iterator as a cursor.
    pub fn new(inner: impl Iterator<Item = Result<ScanItem, PtsError>> + 'a) -> Self {
        Self {
            inner: Box::new(inner),
        }
    }

    /// A cursor over infallible pairs.
    pub(crate) fn from_pairs(pairs: impl Iterator<Item = ScanItem> + 'a) -> Self {
        Self::new(pairs.map(Ok))
    }

    /// An empty cursor.
    pub fn empty() -> Self {
        Self::new(std::iter::empty())
    }

    /// Drains the cursor into a vector, stopping at the first error.
    pub(crate) fn collect_items(self) -> Result<ScanItems, PtsError> {
        self.collect()
    }
}

impl Iterator for ScanCursor<'_> {
    type Item = Result<ScanItem, PtsError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.inner.next()
    }
}

/// A uniform statistics snapshot every engine can produce.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Put operations accepted.
    pub puts: u64,
    /// Get operations served.
    pub gets: u64,
    /// Delete operations accepted.
    pub deletes: u64,
    /// Application payload bytes written (keys + values of puts and
    /// deletes) — the WA-A numerator's denominator (§3.3).
    pub app_bytes_written: u64,
    /// Full read-cache traffic counters in the uniform
    /// [`CacheStats`] accounting (admissions, evictions, device bytes
    /// saved) when the engine runs a cache: the B+Tree's pager cache is
    /// always on, the LSM/hashlog block caches only when a
    /// `cache_bytes` budget is configured (`None` otherwise).
    pub cache: Option<CacheStats>,
    /// Engine-specific structural counters (flushes, compactions,
    /// splits, segment rewrites, ...), as labelled values so reports can
    /// render any engine without knowing its internals.
    pub structural: Vec<(&'static str, u64)>,
}

impl EngineStats {
    /// One-line rendering of the structural counters.
    pub fn structural_summary(&self) -> String {
        self.structural
            .iter()
            .map(|(name, value)| format!("{name}={value}"))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// The uniform key-value interface the methodology drives.
///
/// Implementations register an `EngineDescriptor` with the
/// [`crate::registry::EngineRegistry`]; see the repository README for a
/// worked "add an engine" example.
///
/// # The contract
///
/// Every registered engine keeps it, and the workspace's engine model
/// check (`tests/proptest_engines.rs`) holds each to it against a
/// `BTreeMap` under the same ops and tuning:
///
/// * **Limits.** An engine may refuse a key longer than 65 535 bytes
///   (the LSM and the B+Tree record a key's length in two bytes) and a
///   pair its layout cannot hold (a B+Tree page holds whole pairs: key,
///   value and 11 bytes must fit one). It takes every other key and
///   value, the empty value included.
/// * **Refusal applies nothing.** A refused op fails with
///   [`PtsError::Engine`] before it changes anything: no key, no
///   counter in [`EngineStats`], no byte on the device. A batch holding
///   one refused op is refused whole.
/// * **Reads.** A get or scan returns the value of the last accepted
///   write to each key, whatever flushes, maintenance slices, caching,
///   compression and queue depth happened since.
/// * **Scans.** Live entries with `start <= key < end`, in ascending key
///   order, at most `limit` of them. An `end` at or below `start`, or a
///   `limit` of 0, is an empty scan, not an error.
/// * **Batches.** Ops apply in order, so a key repeated within a batch
///   ends at its last op.
/// * **Counters.** Since the engine was opened or recovered, `puts` and
///   `deletes` count accepted ops (batched ones included) and
///   `app_bytes_written` their keys and put values.
/// * **Durability.** After [`PtsEngine::flush`], dropping the engine
///   and recovering it on the same filesystem
///   ([`crate::registry::EngineKind::recover`]) gives back every key
///   written before the flush; the recovered engine's counters start
///   at zero. What survives a drop without a flush is not specified.
/// * **Errors.** A storage failure maps through [`PtsError::store`]:
///   out of space is [`PtsError::OutOfSpace`], anything else
///   [`PtsError::Engine`] with the native error as its source.
///
/// `Send` is a supertrait: the concurrent harness moves each engine
/// handle onto a client thread (one shard per engine instance, never
/// shared), so every engine must be transferable across threads.
pub trait PtsEngine: Send {
    /// Inserts or overwrites a key.
    fn put(&mut self, key: &[u8], value: &[u8]) -> Result<(), PtsError>;

    /// Point lookup that lends the value: `f` sees the live value's
    /// bytes (`None` for an absent or deleted key) where the engine
    /// holds them — a memtable entry, a cached or freshly read block, a
    /// resident leaf — for the duration of the call, and nothing is
    /// copied unless `f` copies it. `f` runs exactly once when the
    /// lookup succeeds and not at all when it fails.
    fn get_with(&mut self, key: &[u8], f: &mut dyn FnMut(Option<&[u8]>)) -> Result<(), PtsError>;

    /// Point lookup that copies the value out: [`PtsEngine::get_with`]
    /// with a `to_vec` inside the closure.
    fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, PtsError> {
        let mut value = None;
        self.get_with(key, &mut |v| value = v.map(<[u8]>::to_vec))?;
        Ok(value)
    }

    /// Deletes a key (idempotent).
    fn delete(&mut self, key: &[u8]) -> Result<(), PtsError>;

    /// Applies a batch in order. An op the engine would refuse on its
    /// own (a key or pair over the engine's limits) fails the whole batch
    /// before any op is applied: an `Err` of that kind leaves every key,
    /// counter and byte as it was. A batch is not atomic across a crash:
    /// an engine may log it one record per op (each engine's commit rule
    /// is on [`WriteBatch`]).
    fn apply_batch(&mut self, batch: &WriteBatch) -> Result<(), PtsError>;

    /// Streaming range scan: live entries with `start <= key < end`
    /// (`end` `None` = unbounded), up to `limit` results, in ascending
    /// key order. An `end` at or below `start` yields nothing.
    fn scan(
        &mut self,
        start: &[u8],
        end: Option<&[u8]>,
        limit: usize,
    ) -> Result<ScanCursor<'_>, PtsError>;

    /// Range scan materialized into a vector (convenience over
    /// [`PtsEngine::scan`]).
    fn scan_to_vec(
        &mut self,
        start: &[u8],
        end: Option<&[u8]>,
        limit: usize,
    ) -> Result<ScanItems, PtsError> {
        self.scan(start, end, limit)?.collect_items()
    }

    /// Flushes buffered state to storage (memtable flush, checkpoint,
    /// or log sync — whatever makes the current state durable): every
    /// key written before it survives a drop and
    /// [`crate::registry::EngineKind::recover`].
    fn flush(&mut self) -> Result<(), PtsError>;

    /// Drains the engine's asynchronous I/O: advances the simulated
    /// clock past the completion of every command still in flight on
    /// its submission queues, **including detached background commands**
    /// (compaction input reads) that nothing will ever wait on.
    ///
    /// The measured phase of an experiment only ends once this has run
    /// — a run that ends with detached commands in flight would
    /// under-count its simulated work (see
    /// `ptsbench_ssd::IoQueue::quiesce`). Engines on the synchronous
    /// path (no queues, or queue depth 1) keep the no-op default.
    fn drain_io(&mut self) {}

    /// Runs at most one bounded background-maintenance slice (a flush,
    /// compaction, GC or checkpoint increment), if the engine has
    /// deferred work pending and its rate budget allows. Returns `true`
    /// when a slice actually executed (the dispatcher keeps pumping),
    /// `false` when there is nothing runnable right now. Engines that
    /// run maintenance inline keep the `Ok(false)` default.
    fn run_maintenance_slice(&mut self) -> Result<bool, PtsError> {
        Ok(false)
    }

    /// Drains deferred background maintenance to completion: frozen
    /// memtables flushed, in-flight compactions installed, GC and
    /// checkpoint tickets consumed. The measured phase of an experiment
    /// ends with this (before [`PtsEngine::drain_io`]) so per-cause
    /// ledgers close; see `Experiment::finish`.
    fn drain_maintenance(&mut self) -> Result<(), PtsError> {
        Ok(())
    }

    /// Background-maintenance counters, `None` when the engine runs
    /// maintenance inline (the seed behavior — nothing to report).
    fn maint_stats(&self) -> Option<MaintStats> {
        None
    }

    /// Uniform statistics snapshot.
    fn stats(&self) -> EngineStats;

    /// The filesystem the engine runs on.
    fn vfs(&self) -> &Vfs;

    /// The registry handle of this engine.
    fn kind(&self) -> EngineKind;
}

// ----------------------------------------------------------- builtins

/// A storage error of the built-in LSM as a [`PtsError`].
pub(crate) fn lsm_error(e: StoreError) -> PtsError {
    PtsError::store("lsm", e)
}

/// A storage error of the built-in B+Tree as a [`PtsError`].
pub(crate) fn btree_error(e: StoreError) -> PtsError {
    PtsError::store("btree", e)
}

/// A batch as the tree engines take it: `(key, Some(value))` for a put,
/// `(key, None)` for a delete.
fn pairs(batch: &WriteBatch) -> Vec<(&[u8], Option<&[u8]>)> {
    batch
        .ops()
        .iter()
        .map(|op| match op {
            BatchOp::Put { key, value } => (key.as_slice(), Some(value.as_slice())),
            BatchOp::Delete { key } => (key.as_slice(), None),
        })
        .collect()
}

/// The LSM engine (RocksDB stand-in) behind the uniform API.
pub(crate) struct LsmEngine(pub LsmDb);

impl PtsEngine for LsmEngine {
    fn put(&mut self, key: &[u8], value: &[u8]) -> Result<(), PtsError> {
        self.0.put(key, value).map_err(lsm_error)
    }

    fn get_with(&mut self, key: &[u8], f: &mut dyn FnMut(Option<&[u8]>)) -> Result<(), PtsError> {
        self.0.get_with(key, f).map_err(lsm_error)
    }

    fn delete(&mut self, key: &[u8]) -> Result<(), PtsError> {
        self.0.delete(key).map_err(lsm_error)
    }

    // Native group commit: under paced maintenance the batch's WAL
    // records coalesce into one padded append + at most one fsync;
    // otherwise each op logs its record as a lone `put` or `delete` would.
    fn apply_batch(&mut self, batch: &WriteBatch) -> Result<(), PtsError> {
        self.0.apply_batch(&pairs(batch)).map_err(lsm_error)
    }

    fn scan(
        &mut self,
        start: &[u8],
        end: Option<&[u8]>,
        limit: usize,
    ) -> Result<ScanCursor<'_>, PtsError> {
        Ok(ScanCursor::from_pairs(self.0.scan_iter(start, end, limit)))
    }

    fn flush(&mut self) -> Result<(), PtsError> {
        self.0.flush().map_err(lsm_error)
    }

    fn drain_io(&mut self) {
        self.0.quiesce();
    }

    fn run_maintenance_slice(&mut self) -> Result<bool, PtsError> {
        self.0.run_maintenance_slice().map_err(lsm_error)
    }

    fn drain_maintenance(&mut self) -> Result<(), PtsError> {
        self.0.drain_maintenance().map_err(lsm_error)
    }

    fn maint_stats(&self) -> Option<MaintStats> {
        self.0.maint_stats()
    }

    fn stats(&self) -> EngineStats {
        let s = self.0.stats();
        EngineStats {
            puts: s.puts,
            gets: s.gets,
            deletes: s.deletes,
            app_bytes_written: s.app_bytes_written,
            cache: self.0.cache_stats(),
            structural: vec![
                ("flushes", s.flushes),
                ("flush_bytes", s.flush_bytes),
                ("compactions", s.compactions),
                ("compaction_bytes_written", s.compaction_bytes_written),
                ("trivial_moves", s.trivial_moves),
                ("bloom_probes", s.bloom_probes),
                ("bloom_negatives", s.bloom_negatives),
                ("bloom_false_positives", s.bloom_false_positives),
                (
                    "tables",
                    self.0
                        .level_summary()
                        .iter()
                        .map(|(_, n, _)| *n as u64)
                        .sum(),
                ),
            ],
        }
    }

    fn vfs(&self) -> &Vfs {
        self.0.vfs()
    }

    fn kind(&self) -> EngineKind {
        EngineKind::lsm()
    }
}

/// The B+Tree engine (WiredTiger stand-in) behind the uniform API.
pub(crate) struct BTreeEngine(pub BTreeDb);

impl PtsEngine for BTreeEngine {
    fn put(&mut self, key: &[u8], value: &[u8]) -> Result<(), PtsError> {
        self.0.put(key, value).map_err(btree_error)
    }

    fn get_with(&mut self, key: &[u8], f: &mut dyn FnMut(Option<&[u8]>)) -> Result<(), PtsError> {
        self.0.get_with(key, f).map_err(btree_error)
    }

    fn delete(&mut self, key: &[u8]) -> Result<(), PtsError> {
        self.0.delete(key).map_err(btree_error)
    }

    fn apply_batch(&mut self, batch: &WriteBatch) -> Result<(), PtsError> {
        self.0.apply_batch(&pairs(batch)).map_err(btree_error)
    }

    fn scan(
        &mut self,
        start: &[u8],
        end: Option<&[u8]>,
        limit: usize,
    ) -> Result<ScanCursor<'_>, PtsError> {
        Ok(ScanCursor::new(
            self.0
                .scan_iter(start, end, limit)
                .map(|item| item.map_err(btree_error)),
        ))
    }

    fn flush(&mut self) -> Result<(), PtsError> {
        self.0.checkpoint().map_err(btree_error)
    }

    fn run_maintenance_slice(&mut self) -> Result<bool, PtsError> {
        self.0.run_maintenance_slice().map_err(btree_error)
    }

    fn drain_maintenance(&mut self) -> Result<(), PtsError> {
        self.0.drain_maintenance().map_err(btree_error)
    }

    fn maint_stats(&self) -> Option<MaintStats> {
        self.0.maint_stats()
    }

    fn stats(&self) -> EngineStats {
        let s = self.0.stats();
        EngineStats {
            puts: s.puts,
            gets: s.gets,
            deletes: s.deletes,
            app_bytes_written: s.app_bytes_written,
            cache: Some(self.0.cache_stats()),
            structural: vec![
                ("splits", s.splits),
                ("merges", s.merges),
                ("checkpoints", s.checkpoints),
                ("entries", self.0.len()),
            ],
        }
    }

    fn vfs(&self) -> &Vfs {
        self.0.vfs()
    }

    fn kind(&self) -> EngineKind {
        EngineKind::btree()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{EngineKind, EngineTuning};
    use ptsbench_ssd::{DeviceConfig, DeviceProfile, Ssd};
    use ptsbench_vfs::VfsOptions;

    fn vfs() -> Vfs {
        let ssd = Ssd::new(DeviceConfig::from_profile(DeviceProfile::ssd1(), 64 << 20));
        Vfs::whole_device(ssd.into_shared(), VfsOptions::default())
    }

    #[test]
    fn builtin_engines_work_behind_the_trait() {
        for kind in [EngineKind::lsm(), EngineKind::btree()] {
            let tuning = EngineTuning::for_device(64 << 20);
            let mut sys = kind.open(vfs(), &tuning).expect("build");
            sys.put(b"key1", b"value1").expect("put");
            sys.put(b"key2", b"value2").expect("put");
            assert_eq!(sys.get(b"key1").expect("get"), Some(b"value1".to_vec()));
            sys.delete(b"key1").expect("delete");
            assert_eq!(sys.get(b"key1").expect("get"), None, "{kind:?}");
            let items = sys.scan_to_vec(b"key", None, 10).expect("scan");
            assert_eq!(items.len(), 1);
            sys.flush().expect("flush");
            let stats = sys.stats();
            assert!(stats.app_bytes_written > 0);
            assert!(
                !stats.structural.is_empty(),
                "{kind:?} must report structure"
            );
            assert_eq!(sys.kind(), kind);
        }
    }

    #[test]
    fn batch_matches_individual_ops() {
        let tuning = EngineTuning::for_device(64 << 20);
        for kind in [EngineKind::lsm(), EngineKind::btree()] {
            let mut a = kind.open(vfs(), &tuning).expect("build a");
            let mut b = kind.open(vfs(), &tuning).expect("build b");
            let mut batch = WriteBatch::new();
            for i in 0..50u32 {
                let k = format!("k{i:04}");
                batch.put(k.as_bytes(), b"v1");
                a.put(k.as_bytes(), b"v1").expect("put");
            }
            batch.delete(b"k0010");
            a.delete(b"k0010").expect("delete");
            assert_eq!(batch.len(), 51);
            b.apply_batch(&batch).expect("batch");
            assert_eq!(
                a.scan_to_vec(b"", None, 100).expect("scan a"),
                b.scan_to_vec(b"", None, 100).expect("scan b"),
                "{kind:?}"
            );
        }
    }

    #[test]
    fn scan_cursor_streams_lazily() {
        let tuning = EngineTuning::for_device(64 << 20);
        let mut sys = EngineKind::lsm().open(vfs(), &tuning).expect("build");
        for i in 0..100u32 {
            sys.put(format!("k{i:04}").as_bytes(), b"v").expect("put");
        }
        let mut cursor = sys.scan(b"k", None, usize::MAX).expect("scan");
        let first = cursor.next().expect("has item").expect("ok");
        assert_eq!(first.0, b"k0000");
        // Taking three more does not require draining the range.
        assert_eq!(cursor.take(3).count(), 3);
    }

    #[test]
    fn out_of_space_maps_uniformly_and_chains_sources() {
        let e = PtsError::store(
            "lsm",
            StoreError::Vfs(ptsbench_vfs::VfsError::NoSpace {
                requested_pages: 1,
                available_pages: 0,
            }),
        );
        assert_eq!(e, PtsError::OutOfSpace);
        let e = PtsError::store("btree", StoreError::Corruption("x".into()));
        assert!(matches!(
            e,
            PtsError::Engine {
                engine: "btree",
                ..
            }
        ));
        let source = std::error::Error::source(&e).expect("chained source");
        assert!(source.to_string().contains("corruption"));
        // A device failure keeps its whole chain: engine, filesystem,
        // device.
        let e = PtsError::store(
            "lsm",
            StoreError::Vfs(ptsbench_vfs::VfsError::Device(SsdError::NoFreeBlocks)),
        );
        let mut chain = vec![e.to_string()];
        let mut next = std::error::Error::source(&e);
        while let Some(source) = next {
            chain.push(source.to_string());
            next = source.source();
        }
        assert_eq!(
            chain.last(),
            Some(&SsdError::NoFreeBlocks.to_string()),
            "{chain:?}"
        );
        assert_eq!(chain.len(), 4, "{chain:?}");
    }
}
