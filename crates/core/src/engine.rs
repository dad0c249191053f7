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
//!   load and replication-style ingest can amortize per-call overhead;
//!   engines may override [`PtsEngine::apply_batch`] with a native
//!   group commit.
//! * **Streaming scans** — [`PtsEngine::scan`] returns a
//!   [`ScanCursor`], an iterator that pulls entries on demand instead
//!   of materializing `Vec<(Vec<u8>, Vec<u8>)>` for the whole range.
//! * **Uniform statistics** — [`EngineStats`] carries the metrics the
//!   methodology needs (application bytes written for WA-A, cache
//!   traffic) plus an engine-specific structural summary.
//! * **Explicit lifecycle** — engines are built through the registry
//!   with [`crate::registry::Lifecycle`] `Open` (fresh) or `Recover`
//!   (rebuild from the filesystem after a crash).

use std::sync::Arc;

use ptsbench_btree::{BTreeDb, BTreeError};
use ptsbench_cache::CacheStats;
use ptsbench_lsm::{LsmDb, LsmError};
use ptsbench_maint::MaintStats;
use ptsbench_ssd::SsdError;
use ptsbench_vfs::Vfs;

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
    /// capacity experiments treat engines uniformly.
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

impl From<LsmError> for PtsError {
    fn from(e: LsmError) -> Self {
        if e.is_out_of_space() {
            PtsError::OutOfSpace
        } else {
            PtsError::engine("lsm", e)
        }
    }
}

impl From<BTreeError> for PtsError {
    fn from(e: BTreeError) -> Self {
        if e.is_out_of_space() {
            PtsError::OutOfSpace
        } else {
            PtsError::engine("btree", e)
        }
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
/// The loader uses batches for bulk load; engines with a native group
/// write path (e.g. a single log append covering the whole batch) can
/// override `apply_batch` to exploit it.
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
    /// In-memory cache hits (0 for engines without a page cache).
    pub cache_hits: u64,
    /// Cache misses, i.e. reads that went to the filesystem.
    pub cache_misses: u64,
    /// Full read-cache traffic counters in the uniform
    /// [`CacheStats`] accounting (admissions, evictions, device bytes
    /// saved) when the engine runs a cache: the B+Tree's pager cache is
    /// always on, the LSM/hashlog block caches only when a
    /// `cache_bytes` budget is configured (`None` otherwise).
    pub cache: Option<CacheStats>,
    /// Per-cause device traffic attribution (which bytes each request
    /// kind and background activity pushed to / pulled from the
    /// device), present only when a tracer is attached to the engine's
    /// device (`None` keeps untraced snapshots identical to seed).
    pub cause: Option<ptsbench_vfs::CauseStats>,
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
/// `Send` is a supertrait: the concurrent harness moves each engine
/// handle onto a client thread (one shard per engine instance, never
/// shared), so every engine must be transferable across threads.
pub trait PtsEngine: Send {
    /// Inserts or overwrites a key.
    fn put(&mut self, key: &[u8], value: &[u8]) -> Result<(), PtsError>;

    /// Point lookup.
    fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, PtsError>;

    /// Deletes a key (idempotent).
    fn delete(&mut self, key: &[u8]) -> Result<(), PtsError>;

    /// Applies a batch in order. The default loops over the individual
    /// operations; engines with a native group write path should
    /// override it.
    fn apply_batch(&mut self, batch: &WriteBatch) -> Result<(), PtsError> {
        for op in batch.ops() {
            match op {
                BatchOp::Put { key, value } => self.put(key, value)?,
                BatchOp::Delete { key } => self.delete(key)?,
            }
        }
        Ok(())
    }

    /// Streaming range scan: live entries with `start <= key < end`
    /// (`end` `None` = unbounded), up to `limit` results, in ascending
    /// key order.
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
    /// or log sync — whatever makes the current state durable).
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

    /// Application payload bytes written so far (for WA-A).
    ///
    /// The default delegates to [`PtsEngine::stats`]. Engines whose
    /// `stats` locks the device (the per-cause traffic breakdown does)
    /// must override this with a lock-free read: the runner samples it
    /// while holding the device mutex, which is not reentrant.
    fn app_bytes_written(&self) -> u64 {
        self.stats().app_bytes_written
    }

    /// The filesystem the engine runs on.
    fn vfs(&self) -> &Vfs;

    /// The registry handle of this engine.
    fn kind(&self) -> EngineKind;
}

// ----------------------------------------------------------- builtins

/// The LSM engine (RocksDB stand-in) behind the uniform API.
pub(crate) struct LsmEngine(pub LsmDb);

impl PtsEngine for LsmEngine {
    fn put(&mut self, key: &[u8], value: &[u8]) -> Result<(), PtsError> {
        Ok(self.0.put(key, value)?)
    }

    fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, PtsError> {
        Ok(self.0.get(key)?)
    }

    fn delete(&mut self, key: &[u8]) -> Result<(), PtsError> {
        Ok(self.0.delete(key)?)
    }

    // Native group commit: in maintenance mode the batch's WAL records
    // coalesce into one padded append + at most one fsync; in inline
    // mode LsmDb loops put/delete exactly like the trait default.
    fn apply_batch(&mut self, batch: &WriteBatch) -> Result<(), PtsError> {
        let ops: Vec<(&[u8], Option<&[u8]>)> = batch
            .ops()
            .iter()
            .map(|op| match op {
                BatchOp::Put { key, value } => (key.as_slice(), Some(value.as_slice())),
                BatchOp::Delete { key } => (key.as_slice(), None),
            })
            .collect();
        Ok(self.0.apply_batch(&ops)?)
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
        Ok(self.0.flush()?)
    }

    fn drain_io(&mut self) {
        self.0.quiesce();
    }

    fn run_maintenance_slice(&mut self) -> Result<bool, PtsError> {
        Ok(self.0.run_maintenance_slice()?)
    }

    fn drain_maintenance(&mut self) -> Result<(), PtsError> {
        Ok(self.0.drain_maintenance()?)
    }

    fn maint_stats(&self) -> Option<MaintStats> {
        self.0.maint_stats()
    }

    // Lock-free override: `stats()` takes the device mutex for the
    // per-cause breakdown, so callers already holding it (the runner's
    // finish path) must be able to read this counter without it.
    fn app_bytes_written(&self) -> u64 {
        self.0.stats().app_bytes_written
    }

    fn stats(&self) -> EngineStats {
        let s = self.0.stats();
        let cache = self.0.cache_stats();
        EngineStats {
            puts: s.puts,
            gets: s.gets,
            deletes: s.deletes,
            app_bytes_written: s.app_bytes_written,
            cache_hits: cache.map_or(0, |c| c.hits),
            cache_misses: cache.map_or(0, |c| c.misses),
            cache,
            cause: self.0.vfs().ssd().lock().cause_stats(),
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
        Ok(self.0.put(key, value)?)
    }

    fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, PtsError> {
        Ok(self.0.get(key)?)
    }

    fn delete(&mut self, key: &[u8]) -> Result<(), PtsError> {
        self.0.delete(key)?;
        Ok(())
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
                .map(|item| item.map_err(PtsError::from)),
        ))
    }

    fn flush(&mut self) -> Result<(), PtsError> {
        Ok(self.0.checkpoint()?)
    }

    fn run_maintenance_slice(&mut self) -> Result<bool, PtsError> {
        Ok(self.0.run_maintenance_slice()?)
    }

    fn drain_maintenance(&mut self) -> Result<(), PtsError> {
        Ok(self.0.drain_maintenance()?)
    }

    fn maint_stats(&self) -> Option<MaintStats> {
        self.0.maint_stats()
    }

    // Lock-free override: see `LsmEngine::app_bytes_written`.
    fn app_bytes_written(&self) -> u64 {
        self.0.stats().app_bytes_written
    }

    fn stats(&self) -> EngineStats {
        let s = self.0.stats();
        let cache = self.0.pager_stats().cache;
        EngineStats {
            puts: s.puts,
            gets: s.gets,
            deletes: s.deletes,
            app_bytes_written: s.app_bytes_written,
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache: Some(cache),
            cause: self.0.vfs().ssd().lock().cause_stats(),
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
        let e: PtsError = LsmError::Vfs(ptsbench_vfs::VfsError::NoSpace {
            requested_pages: 1,
            available_pages: 0,
        })
        .into();
        assert_eq!(e, PtsError::OutOfSpace);
        let e: PtsError = BTreeError::Corruption("x".into()).into();
        assert!(matches!(e, PtsError::Engine { .. }));
        let source = std::error::Error::source(&e).expect("chained source");
        assert!(source.to_string().contains("corruption"));
    }
}
