//! The LSM database: public API and the write/flush/compact machinery.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use ptsbench_cache::{BlockCache, CacheStats, SharedBlockCache};
use ptsbench_maint::{
    drain_forced, Admission, Drive, JobKind, MaintScheduler, MaintStats, MAX_SPACE_AMP,
};
use ptsbench_vfs::{Cause, LogRecord, RecordLog, SharedIoQueue, StoreError, TraceHandle, Vfs};

use crate::background::{CompactJob, FlushJob};
use crate::compaction::{effective_targets, pick, CompactionTask};
use crate::iter::{Chain, Merge, Source};
use crate::manifest::Manifest;
use crate::memtable::Memtable;
use crate::options::LsmOptions;
use crate::sstable::reader::WindowScan;
use crate::sstable::{
    BloomCounters, ChainedSstScan, SstableBuilder, SstableMeta, SstableReader, TableImage,
};
use crate::version::{TableHandle, Version};
use crate::Result;

/// Cumulative engine statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DbStats {
    /// Put operations accepted.
    pub puts: u64,
    /// Get operations served.
    pub gets: u64,
    /// Delete operations accepted.
    pub deletes: u64,
    /// Application payload bytes written (keys + values of puts/deletes).
    pub app_bytes_written: u64,
    /// Memtable flushes performed.
    pub flushes: u64,
    /// Bytes written by flushes.
    pub flush_bytes: u64,
    /// Compactions performed (merging ones; excludes trivial moves).
    pub compactions: u64,
    /// Bytes read by compactions.
    pub compaction_bytes_read: u64,
    /// Bytes written by compactions.
    pub compaction_bytes_written: u64,
    /// Trivial moves: non-overlapping tables relocated down a level
    /// without any I/O (the RocksDB fast path that makes sequential
    /// ingestion cheap).
    pub trivial_moves: u64,
    /// Point lookups that consulted an SSTable bloom filter.
    pub bloom_probes: u64,
    /// Bloom probes answered "definitely absent" (block read avoided).
    pub bloom_negatives: u64,
    /// Bloom probes that passed the filter but found no key.
    pub bloom_false_positives: u64,
}

/// The write-ahead log's files are `wal-<n>`.
const WAL_PREFIX: &str = "wal";

/// Bloom filter bits per key in every table the tree writes.
const BLOOM_BITS_PER_KEY: u32 = 10;

/// Inline compaction work budget per flush, as a multiple of the
/// memtable size. Bounds how long a single write stalls on compaction
/// (the role background compaction threads play in RocksDB); remaining
/// debt is drained by subsequent flushes.
const COMPACTION_BUDGET_FACTOR: u64 = 16;

/// Marble `merge_ratio`: under paced maintenance a level schedules a
/// merge only once it exceeds `(1 + 1/MERGE_RATIO)` times its target
/// size. Larger ratios defer merges (less write-amp, more space-amp).
const MERGE_RATIO: u64 = 3;

/// A leveled LSM-tree key-value store on a simulated flash stack.
pub struct LsmDb {
    vfs: Vfs,
    opts: LsmOptions,
    memtable: Memtable,
    wal: RecordLog,
    manifest: Manifest,
    version: Version,
    cursors: Vec<usize>,
    next_file: u64,
    stats: DbStats,
    /// Shared submission queue threaded into every table reader when
    /// `opts.tuning.queue_depth > 1`; `None` keeps the synchronous read path.
    queue: Option<SharedIoQueue>,
    /// Block cache shared by every reader this database opens, sized by
    /// `opts.tuning.cache_bytes`; `None` keeps the seed read path.
    cache: Option<SharedBlockCache>,
    /// Bloom traffic counters shared across reader generations.
    blooms: Arc<BloomCounters>,
    /// Phase-span recorder + device cause scopes (inert unless
    /// `opts.tuning.trace` and a tracer is attached to the device).
    trace: TraceHandle,
    /// Pacing source for maintenance jobs, present iff
    /// `opts.tuning.maint.enabled`; without one the op that triggers a job
    /// drains it in place (the seed behavior).
    sched: Option<MaintScheduler>,
    /// The frozen memtable being flushed (readable, newer than any
    /// table; writes go to the live memtable).
    imm: Option<Memtable>,
    /// WAL files holding frozen records whose rotation was deferred
    /// (paced drive), or that a recovery found behind the live log;
    /// deleted at flush install. More than one only after an aborted
    /// flush thawed its memtable, or a crash before an install.
    old_wals: Vec<String>,
    /// Flush in progress.
    flush: Option<FlushJob>,
    /// Compaction in progress.
    compact: Option<CompactJob>,
    /// Blocks installed compactions copied from an input table instead
    /// of encoding. Host-side work only, so not a [`DbStats`] field:
    /// no rendered report moves with it.
    blocks_reused: u64,
    /// Counts this database among those open in the process.
    _open: OpenDb,
}

impl std::fmt::Debug for LsmDb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LsmDb")
            .field("levels", &self.version.summary())
            .field("memtable_bytes", &self.memtable.approx_bytes())
            .finish()
    }
}

impl LsmDb {
    /// Opens a fresh database on the filesystem.
    pub fn open(vfs: Vfs, opts: LsmOptions) -> Result<Self> {
        opts.validate();
        let wal = RecordLog::create(vfs.clone(), WAL_PREFIX, opts.recycle_wal)?;
        let manifest = Manifest::create(vfs.clone())?;
        let queue = io_queue_for(&vfs, &opts);
        let cache = cache_for(&opts);
        let trace = TraceHandle::from_vfs(&vfs, opts.tuning.trace);
        let sched = MaintScheduler::for_config(opts.tuning.maint, vfs.clock().now());
        Ok(Self {
            memtable: Memtable::new(),
            wal,
            manifest,
            version: Version::new(opts.max_levels),
            cursors: vec![0; opts.max_levels],
            next_file: 0,
            stats: DbStats::default(),
            vfs,
            opts,
            queue,
            cache,
            blooms: Arc::new(BloomCounters::default()),
            trace,
            sched,
            imm: None,
            old_wals: Vec::new(),
            flush: None,
            compact: None,
            blocks_reused: 0,
            _open: OpenDb::new(),
        })
    }

    /// Recovers a database from an existing filesystem: replays the
    /// MANIFEST into the level structure, reopens every live SSTable,
    /// replays the write-ahead log into the memtable, then flushes it
    /// (the RocksDB default `avoid_flush_during_recovery=false`
    /// behaviour) so the recovered state is durable.
    pub fn recover(vfs: Vfs, opts: LsmOptions) -> Result<Self> {
        opts.validate();
        if !Manifest::exists(&vfs) {
            return Err(StoreError::Corruption("no MANIFEST to recover from".into()));
        }
        let (tables, next_file) = Manifest::replay(&vfs)?;
        let queue = io_queue_for(&vfs, &opts);
        let cache = cache_for(&opts);
        let trace = TraceHandle::from_vfs(&vfs, opts.tuning.trace);
        let blooms = Arc::new(BloomCounters::default());
        let mut version = Version::new(opts.max_levels);
        for (level, name) in tables {
            if level >= opts.max_levels {
                return Err(StoreError::Corruption(format!(
                    "manifest places {name} at level {level}, beyond max {}",
                    opts.max_levels
                )));
            }
            // Recover the key range from the table's own index (the
            // manifest intentionally stores only placement).
            let reader = SstableReader::open(vfs.clone(), &name, true, queue.clone())?
                .with_cache(cache.clone())
                .with_blooms(Some(Arc::clone(&blooms)))
                .with_trace(trace.clone());
            let min_key = reader
                .first_key()
                .ok_or_else(|| StoreError::Corruption(format!("{name}: empty table")))?;
            let max_key = reader
                .last_key()?
                .ok_or_else(|| StoreError::Corruption(format!("{name}: empty table")))?;
            let meta = crate::sstable::SstableMeta {
                name: name.clone(),
                min_key,
                max_key,
                entries: reader.entries(),
                file_bytes: reader.file_bytes(),
            };
            let handle = Arc::new(TableHandle { meta, reader });
            if level == 0 {
                version.push_l0(handle);
            } else {
                version.apply_compaction(level, level, &[], vec![handle]);
            }
        }
        version.check_invariants();

        // Every log on disk, oldest first: after a crash between a
        // paced freeze and its install, the frozen records sit in a log
        // older than the live one. Those logs go where a deferred
        // rotation puts them, so the flush below releases them exactly
        // when their records are durable in a table.
        let records = RecordLog::replay(&vfs, WAL_PREFIX)?;
        let wal = RecordLog::open_or_create(vfs.clone(), WAL_PREFIX, opts.recycle_wal)?;
        let old_wals = RecordLog::stale(&vfs, WAL_PREFIX);
        let manifest = Manifest::open(vfs.clone())?;
        let sched = MaintScheduler::for_config(opts.tuning.maint, vfs.clock().now());
        let mut db = Self {
            memtable: Memtable::new(),
            wal,
            manifest,
            version,
            cursors: vec![0; opts.max_levels],
            next_file,
            stats: DbStats::default(),
            vfs,
            opts,
            queue,
            cache,
            blooms,
            trace,
            sched,
            imm: None,
            old_wals,
            flush: None,
            compact: None,
            blocks_reused: 0,
            _open: OpenDb::new(),
        };
        for record in records {
            match record {
                LogRecord::Put(k, v) => db.memtable.put(&k, &v),
                LogRecord::Delete(k) => db.memtable.delete(&k),
            }
        }
        db.flush()?;
        Ok(db)
    }

    /// The engine options.
    pub fn options(&self) -> &LsmOptions {
        &self.opts
    }

    /// Data blocks that installed compactions copied from an input table
    /// instead of encoding them (see [`SstableBuilder::add_reusing`]).
    pub fn compaction_blocks_reused(&self) -> u64 {
        self.blocks_reused
    }

    /// The underlying filesystem (for disk-utilization observation).
    pub fn vfs(&self) -> &Vfs {
        &self.vfs
    }

    /// Cumulative statistics (bloom traffic folded in from the shared
    /// reader counters).
    pub fn stats(&self) -> DbStats {
        let mut s = self.stats;
        s.bloom_probes = self.blooms.probes.load(Ordering::Relaxed);
        s.bloom_negatives = self.blooms.negatives.load(Ordering::Relaxed);
        s.bloom_false_positives = self.blooms.false_positives.load(Ordering::Relaxed);
        s
    }

    /// Block-cache traffic counters; `None` when the cache is disabled.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(|c| c.lock().stats())
    }

    /// Per-level `(level, tables, bytes)` summary.
    pub fn level_summary(&self) -> Vec<(usize, usize, u64)> {
        self.version.summary()
    }

    /// Advances the virtual clock past every asynchronous command still
    /// in flight on the shared submission queue — including detached
    /// compaction-input reads nothing will ever wait on. No-op on the
    /// synchronous (`queue_depth == 1`) path. Callers that end a run
    /// must quiesce first so the simulated timeline accounts for all
    /// charged work.
    pub fn quiesce(&mut self) {
        if let Some(queue) = &self.queue {
            queue.lock().quiesce();
        }
    }

    /// Inserts or overwrites a key. Keys are at most `u16::MAX` bytes
    /// (an SSTable entry records a key's length in two bytes).
    pub fn put(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        StoreError::check_key(key)?;
        self.stats.puts += 1;
        self.stats.app_bytes_written += (key.len() + value.len()) as u64;
        // Scoped so the flush that may follow is not WAL traffic.
        {
            let _c = self.trace.cause(Cause::Wal);
            let span = self.trace.begin("lsm.wal", Cause::Wal);
            self.wal.log_put(key, value)?;
            self.trace.end(span);
        }
        self.memtable.put(key, value);
        self.maybe_flush()
    }

    /// Deletes a key (writes a tombstone).
    pub fn delete(&mut self, key: &[u8]) -> Result<()> {
        StoreError::check_key(key)?;
        self.stats.deletes += 1;
        self.stats.app_bytes_written += key.len() as u64;
        // Scoped so the flush that may follow is not WAL traffic.
        {
            let _c = self.trace.cause(Cause::Wal);
            let span = self.trace.begin("lsm.wal", Cause::Wal);
            self.wal.log_delete(key)?;
            self.trace.end(span);
        }
        self.memtable.delete(key);
        self.maybe_flush()
    }

    /// Applies a batch of writes (`value == None` = delete) atomically
    /// with respect to the WAL. In background-maintenance mode the
    /// records group-commit: every record is encoded into the WAL
    /// buffer first, then written as one batched submission whose page
    /// appends overlap at queue depth and share at most one fsync —
    /// instead of paying a serial page drain per record. Inline mode
    /// applies the ops one by one, byte-identical to the seed. A key
    /// `put` would refuse fails the whole batch before anything is
    /// applied.
    pub fn apply_batch(&mut self, ops: &[(&[u8], Option<&[u8]>)]) -> Result<()> {
        for &(key, _) in ops {
            StoreError::check_key(key)?;
        }
        if self.sched.is_none() {
            for &(key, value) in ops {
                match value {
                    Some(value) => self.put(key, value)?,
                    None => self.delete(key)?,
                }
            }
            return Ok(());
        }
        // Scoped so the flush that may follow is not WAL traffic.
        {
            let _c = self.trace.cause(Cause::Wal);
            let span = self.trace.begin("lsm.wal", Cause::Wal);
            for &(key, value) in ops {
                match value {
                    Some(value) => self.wal.log_put_buffered(key, value),
                    None => self.wal.log_delete_buffered(key),
                }
            }
            self.wal.sync_batched(self.queue.as_ref(), false)?;
            self.trace.end(span);
        }
        for &(key, value) in ops {
            match value {
                Some(value) => {
                    self.stats.puts += 1;
                    self.stats.app_bytes_written += (key.len() + value.len()) as u64;
                    self.memtable.put(key, value);
                }
                None => {
                    self.stats.deletes += 1;
                    self.stats.app_bytes_written += key.len() as u64;
                    self.memtable.delete(key);
                }
            }
            self.maybe_flush()?;
        }
        Ok(())
    }

    /// Point lookup, copied out: [`LsmDb::get_with`] with a `to_vec`.
    pub fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.get_with(key, |v| v.map(<[u8]>::to_vec))
    }

    /// Point lookup that lends the value to `f` (`None` when the key is
    /// absent or deleted) and returns what `f` returns. A memtable value
    /// is lent where the memtable holds it, a table value as a range of
    /// the block the lookup loaded; nothing is copied.
    pub fn get_with<R>(&mut self, key: &[u8], f: impl FnOnce(Option<&[u8]>) -> R) -> Result<R> {
        self.stats.gets += 1;
        if let Some(entry) = self.memtable.get(key) {
            return Ok(f(entry.as_deref()));
        }
        // The frozen memtable is newer than any table.
        if let Some(entry) = self.imm.as_ref().and_then(|imm| imm.get(key)) {
            return Ok(f(entry.as_deref()));
        }
        // L0: newest to oldest, any table may contain the key.
        for handle in self.version.tables(0).iter().rev() {
            if handle.meta.overlaps(key, key) {
                if let Some(entry) = handle.reader.get_shared(key)? {
                    return Ok(f(entry.as_deref()));
                }
            }
        }
        // L1+: at most one candidate per level.
        for level in 1..self.version.level_count() {
            if let Some(handle) = self.version.table_for_key(level, key) {
                if let Some(entry) = handle.reader.get_shared(key)? {
                    return Ok(f(entry.as_deref()));
                }
            }
        }
        Ok(f(None))
    }

    /// Streaming range scan: live entries with `start <= key < end`
    /// (`end` `None` = unbounded), up to `limit` results, yielded in key
    /// order without materializing the result set. Each step moves at
    /// most one entry per source through the merge, so memory stays
    /// proportional to the number of sources, not the range.
    pub fn scan_iter(&self, start: &[u8], end: Option<&[u8]>, limit: usize) -> RangeScan<'_> {
        let mut sources: Vec<Box<dyn Source + '_>> =
            vec![Box::new(self.memtable.source(start, end))];
        if let Some(imm) = &self.imm {
            sources.push(Box::new(imm.source(start, end)));
        }
        for handle in self.version.tables(0).iter().rev() {
            sources.push(Box::new(handle.reader.iter_from(start)));
        }
        for level in 1..self.version.level_count() {
            let tables = (self.version.tables(level).iter())
                .filter(|h| h.meta.max_key.as_slice() >= start)
                .map(|h| &h.reader);
            match &self.queue {
                // With a submission queue a level is one chained scan:
                // readahead windows of consecutive tables are submitted
                // together (up to the queue depth), so their per-command
                // base latencies overlap instead of accruing once per
                // table.
                Some(queue) => {
                    let readers: Vec<&SstableReader> = tables.collect();
                    if !readers.is_empty() {
                        sources.push(Box::new(ChainedSstScan::new(readers, start, queue.clone())));
                    }
                }
                // Without one, the level's table scans are chained, each
                // with its first window read now.
                None => {
                    let scans = Chain::new(tables.map(|reader| reader.iter_from(start)));
                    sources.push(Box::new(scans));
                }
            }
        }
        RangeScan {
            merge: Merge::new(sources),
            end: end.map(|e| e.to_vec()),
            remaining: limit,
        }
    }

    /// Range scan materialized into a vector (see [`LsmDb::scan_iter`]).
    pub fn scan(
        &self,
        start: &[u8],
        end: Option<&[u8]>,
        limit: usize,
    ) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        Ok(self.scan_iter(start, end, limit).collect())
    }

    /// Forces buffered write-ahead-log records onto the device and
    /// waits for durability (the `SyncWAL` API). Data synced here
    /// survives a crash even without a flush.
    pub fn sync_wal(&mut self) -> Result<()> {
        self.wal.sync(true)?;
        Ok(())
    }

    /// Flushes the memtable (if non-empty) and runs any due compactions.
    /// In background mode this freezes the memtable and drains every
    /// outstanding maintenance job to completion (forced slices).
    pub fn flush(&mut self) -> Result<()> {
        if self.sched.is_some() {
            self.freeze_memtable(Drive::Paced)?;
            self.maybe_schedule_compaction()?;
            return self.drain_maintenance();
        }
        self.flush_memtable()?;
        self.maybe_compact()
    }

    /// Manual full compaction (RocksDB's `CompactRange` over everything):
    /// flushes the memtable and merges every level down into the deepest
    /// populated level, leaving a single sorted run with no shadowed
    /// versions or tombstones. Useful before space-sensitive
    /// measurements and read-heavy phases.
    pub fn compact_all(&mut self) -> Result<()> {
        if self.sched.is_some() {
            // Settle outstanding background work first so the in-place
            // full merge below starts from a consistent version.
            self.freeze_memtable(Drive::Paced)?;
            self.drain_maintenance()?;
        }
        self.flush_memtable()?;
        loop {
            let Some(bottom) = self.version.deepest_nonempty() else {
                return Ok(()); // empty database
            };
            // Shallowest level holding data.
            let top = (0..self.version.level_count())
                .find(|&l| !self.version.tables(l).is_empty())
                .expect("deepest_nonempty implies some level is populated");
            if top == bottom && (top != 0 || self.version.tables(0).len() <= 1) {
                return Ok(());
            }
            let mut inputs: Vec<Arc<TableHandle>> = self.version.tables(top).to_vec();
            if top == 0 {
                inputs.reverse(); // newest first
            }
            let min = inputs
                .iter()
                .map(|h| h.meta.min_key.clone())
                .min()
                .expect("non-empty");
            let max = inputs
                .iter()
                .map(|h| h.meta.max_key.clone())
                .max()
                .expect("non-empty");
            let overlaps = self.version.overlapping(top + 1, &min, &max);
            let task = CompactionTask {
                source_level: top,
                target_level: top + 1,
                inputs,
                overlaps,
            };
            if self.is_trivial_move(&task) {
                self.apply_trivial_move(task)?;
            } else {
                self.run_compaction(task)?;
            }
        }
    }

    fn maybe_flush(&mut self) -> Result<()> {
        if self.memtable.approx_bytes() >= self.opts.memtable_bytes {
            if self.sched.is_some() {
                self.freeze_memtable(Drive::Paced)?;
                self.maybe_schedule_compaction()?;
                return self.backpressure_l0();
            }
            self.flush_memtable()?;
            self.maybe_compact()?;
        }
        Ok(())
    }

    /// Runs due compactions within the per-flush work budget
    /// ([`COMPACTION_BUDGET_FACTOR`] memtables). Trivial moves are free;
    /// merging compactions consume budget by input bytes. When L0 backs
    /// up to twice the trigger the budget is ignored (hard write-stall
    /// backpressure, as in RocksDB).
    fn maybe_compact(&mut self) -> Result<()> {
        let budget = COMPACTION_BUDGET_FACTOR * self.opts.memtable_bytes;
        let mut spent: u64 = 0;
        while let Some(task) = pick(&self.version, &self.opts, &mut self.cursors) {
            let l0_backed_up = self.version.tables(0).len() >= 2 * self.opts.l0_compaction_trigger;
            if spent >= budget && !l0_backed_up {
                break;
            }
            if self.is_trivial_move(&task) {
                self.apply_trivial_move(task)?;
                continue;
            }
            spent += task.input_bytes();
            self.run_compaction(task)?;
        }
        Ok(())
    }

    /// A compaction is a trivial move when nothing overlaps in the
    /// target level and the source tables do not overlap each other:
    /// the files can simply change levels.
    fn is_trivial_move(&self, task: &CompactionTask) -> bool {
        if !task.overlaps.is_empty() {
            return false;
        }
        let mut sorted: Vec<_> = task.inputs.iter().map(|h| &h.meta).collect();
        sorted.sort_by(|a, b| a.min_key.cmp(&b.min_key));
        sorted.windows(2).all(|w| w[0].max_key < w[1].min_key)
    }

    fn apply_trivial_move(&mut self, task: CompactionTask) -> Result<()> {
        let names = task.input_names();
        let moved = task.inputs.clone();
        // Descend to the deepest level the files do not overlap (RocksDB
        // moves to the bottom-most possible level, which is why a
        // sequential fill ends with empty upper levels).
        let min = moved
            .iter()
            .map(|h| h.meta.min_key.clone())
            .min()
            .expect("non-empty inputs");
        let max = moved
            .iter()
            .map(|h| h.meta.max_key.clone())
            .max()
            .expect("non-empty inputs");
        let mut target = task.target_level;
        while target + 1 < self.version.level_count()
            && self.version.overlapping(target + 1, &min, &max).is_empty()
        {
            target += 1;
        }
        for name in &names {
            self.manifest.log_del(name);
            self.manifest.log_add(target, name);
        }
        self.manifest.commit()?;
        self.version
            .apply_compaction(task.source_level, target, &names, moved);
        self.stats.trivial_moves += names.len() as u64;
        Ok(())
    }

    // ---- Maintenance: one flush job, one compaction job, two drives ----
    //
    // A full memtable *freezes* into `imm` and a `FlushJob` streams it
    // into an L0 table; a picked compaction becomes a `CompactJob` that
    // merges its inputs into output tables and installs one version
    // edit. What differs is who runs the slices (`Drive`):
    //
    // Maintenance off (`Drive::Inline`): the op that triggers the job
    // drains it in place — unbounded slices, compaction inputs streamed
    // through the merge, the edit installed at once, the WAL rotated
    // after the install. The detached table I/O is the same either way.
    //
    // Maintenance on (`Drive::Paced`): the harness pumps byte-bounded
    // slices between foreground ops (`run_maintenance_slice`). The WAL
    // rotates at the freeze without touching the old file, a compaction
    // buffers one input table per slice, and the version edit installs
    // only once the written files have destaged past the device's
    // durability horizon, so the blocking manifest commit never queues
    // behind a compaction burst. Pacing: a bytes-per-virtual-second
    // token bucket plus a device-backlog gate; `forced` slices
    // (backpressure, space-amp urgency, drains) bypass both and fsync
    // instead of waiting.

    /// Whether background-maintenance mode is on.
    pub fn maint_enabled(&self) -> bool {
        self.sched.is_some()
    }

    /// Background-maintenance counters; `None` when maintenance is off.
    pub fn maint_stats(&self) -> Option<MaintStats> {
        self.sched.as_ref().map(|s| s.stats)
    }

    /// Runs at most one bounded maintenance slice, if work is pending
    /// and the rate budget and device-backlog gate allow it. Returns
    /// whether any forward progress was made (callers may pump in a
    /// loop until `false`).
    pub fn run_maintenance_slice(&mut self) -> Result<bool> {
        self.maintenance_slice(false)
    }

    /// Drains every outstanding background job to completion with
    /// forced slices. Callers that end a run must drain first so no
    /// shard ends with detached maintenance I/O (or an uninstalled
    /// version edit) outstanding.
    pub fn drain_maintenance(&mut self) -> Result<()> {
        drain_forced(self, Self::has_paced_work, Self::forced_slice)
    }

    /// Whether any paced work is outstanding (tickets, jobs, or a
    /// frozen memtable).
    fn has_paced_work(&self) -> bool {
        self.sched.as_ref().is_some_and(|s| {
            self.imm.is_some() || self.flush.is_some() || self.compact.is_some() || s.pending() > 0
        })
    }

    /// One forced slice. Tickets are first re-issued for any live work
    /// whose ticket was consumed by a gated or stale slice (defensive;
    /// keeps the drain and backpressure loops from wedging).
    fn forced_slice(&mut self) -> Result<bool> {
        if let Some(sched) = self.sched.as_mut() {
            if self.imm.is_some() || self.flush.is_some() {
                sched.enqueue(JobKind::Flush);
            }
            if self.compact.is_some() {
                sched.enqueue(JobKind::Compaction);
            }
        }
        self.maintenance_slice(true)
    }

    fn maintenance_slice(&mut self, forced: bool) -> Result<bool> {
        let Some(sched) = self.sched.as_mut() else {
            return Ok(false);
        };
        let now = self.vfs.clock().now();
        let backlog = self.vfs.device_backlog_ns();
        // Unfinished jobs re-queue their ticket after every slice, so
        // nothing ever continues without one.
        let Admission::Start(kind) = sched.admit(now, backlog, forced, false) else {
            return Ok(false);
        };
        let _cause = self.trace.cause(Cause::Compaction);
        let span = self.trace.begin(kind.span_label(), Cause::Compaction);
        let result = match kind {
            JobKind::Flush => self.flush_step(Drive::Paced, forced),
            JobKind::Compaction => self.compact_step(Drive::Paced, forced),
            // GC / checkpoint tickets belong to other engines.
            _ => Ok(false),
        };
        self.trace.end(span);
        if let (Ok(true), Some(sched)) = (&result, self.sched.as_mut()) {
            sched.stats.slices += 1;
        }
        result
    }

    /// A foreground stall: forced slices until `blocked` clears, the
    /// wait attributed to `stall_ns`.
    fn stall_while(
        &mut self,
        blocked: impl Fn(&Self) -> bool,
        slice: impl FnMut(&mut Self) -> Result<bool>,
    ) -> Result<()> {
        let t0 = self.vfs.clock().now();
        drain_forced(self, blocked, slice)?;
        if let Some(sched) = self.sched.as_mut() {
            sched.stats.stall_ns += self.vfs.clock().now() - t0;
        }
        Ok(())
    }

    /// Freezes the memtable for flushing: syncs the WAL and moves the
    /// live memtable into the frozen slot. Paced, writes continue into a
    /// fresh memtable meanwhile, so the WAL rotates here *without*
    /// touching the old file — it still holds the frozen records until
    /// the flush installs — and a flush ticket is enqueued.
    fn freeze_memtable(&mut self, drive: Drive) -> Result<()> {
        if self.memtable.is_empty() {
            return Ok(());
        }
        // One frozen memtable at a time (RocksDB's write-buffer limit):
        // if the previous flush is still in flight the writer stalls
        // here, driving forced slices until the slot frees.
        if self.imm.is_some() {
            self.stall_while(|db| db.imm.is_some(), Self::forced_slice)?;
            if self.imm.is_some() {
                // Could not clear the slot (should not happen): skip the
                // freeze — the memtable keeps accumulating and the next
                // write retries. Never overwrite a frozen memtable.
                return Ok(());
            }
        }
        self.wal.sync(false)?;
        if drive == Drive::Paced {
            self.old_wals.push(self.wal.rotate_deferred()?);
        }
        self.imm = Some(std::mem::take(&mut self.memtable));
        if let Some(sched) = drive.pacing(&mut self.sched) {
            sched.enqueue(JobKind::Flush);
        }
        Ok(())
    }

    /// Hard write-stall backpressure: when L0 backs up to twice the
    /// background merge window, the writer runs forced slices until it
    /// drains below the line; the stall is attributed to `stall_ns`.
    fn backpressure_l0(&mut self) -> Result<()> {
        let limit = 2 * self.opts.tuning.maint.merge_window.max(2);
        if self.version.tables(0).len() < limit {
            return Ok(());
        }
        self.stall_while(
            |db| db.version.tables(0).len() >= limit,
            |db| {
                db.maybe_schedule_compaction()?;
                db.forced_slice()
            },
        )
    }

    /// Inline drive: freezes the memtable and drains its flush job
    /// inside the calling op.
    fn flush_memtable(&mut self) -> Result<()> {
        if self.memtable.is_empty() {
            return Ok(());
        }
        // Flush rides the Compaction cause: it is the same inline
        // maintenance stall, and the paper's WA-A folds both together.
        let _cause = self.trace.cause(Cause::Compaction);
        let span = self.trace.begin("lsm.flush", Cause::Compaction);
        let mut result = self.freeze_memtable(Drive::Inline);
        while result.is_ok() && self.imm.is_some() {
            result = self.flush_step(Drive::Inline, true).map(drop);
        }
        self.trace.end(span);
        result
    }

    /// One step of the flush job: a build slice, or the install once
    /// the table is finished. `Ok(false)` is a stale ticket, or a paced
    /// install still waiting for the durability horizon. A failed step
    /// aborts the job ([`LsmDb::flush_abort`]).
    fn flush_step(&mut self, drive: Drive, forced: bool) -> Result<bool> {
        if self.imm.is_none() {
            self.flush = None;
            return Ok(false); // stale ticket
        }
        let step = if self.flush.as_ref().is_some_and(|j| j.meta.is_some()) {
            self.flush_install(drive, forced)
        } else {
            self.flush_build_slice(drive).map(|()| true)
        };
        if step.is_err() {
            self.flush_abort();
        } else if self.imm.is_some() {
            // More to do (or blocked on durability: retry once foreground
            // progress advances the clock).
            if let Some(sched) = drive.pacing(&mut self.sched) {
                sched.requeue_front(JobKind::Flush);
            }
        }
        step
    }

    /// Streams one byte-bounded slice of the frozen memtable into the
    /// output table (background writes, no foreground clock charge for
    /// the block encode), finishing the table when the input runs dry.
    fn flush_build_slice(&mut self, drive: Drive) -> Result<()> {
        let imm = self.imm.as_ref().expect("frozen memtable present");
        let job = match &mut self.flush {
            Some(job) => job,
            none => {
                let builder = SstableBuilder::create_bg(
                    self.vfs.clone(),
                    &table_name(&mut self.next_file),
                    self.opts.block_bytes,
                    BLOOM_BITS_PER_KEY,
                    imm.approx_bytes(),
                )?
                .with_compression(self.opts.compression());
                none.insert(FlushJob {
                    builder: Some(builder),
                    cursor: None,
                    meta: None,
                    charged: 0,
                })
            }
        };
        let slice_bytes = drive.slice_bytes(&self.sched);
        let builder = job.builder.as_mut().expect("builder live until finish");
        let resume = job.cursor.take();
        let mut last: Option<&[u8]> = None;
        for (k, v) in imm.range(resume.as_deref().unwrap_or(&[]), None) {
            if resume.as_deref() == Some(k) {
                continue; // the resume key itself was already added
            }
            builder.add(k, v.as_deref())?;
            last = Some(k);
            if builder.estimated_bytes().saturating_sub(job.charged) >= slice_bytes {
                break;
            }
        }
        let produced = match last {
            Some(k) => {
                job.cursor = Some(k.to_vec());
                builder.estimated_bytes()
            }
            None => {
                // Input exhausted: finish the table.
                let meta = job.builder.take().expect("builder live").finish()?;
                job.meta.insert(meta).file_bytes
            }
        };
        let now = self.vfs.clock().now();
        drive.charge(
            &mut self.sched,
            now,
            produced.saturating_sub(job.charged),
            false,
        );
        job.charged = produced;
        Ok(())
    }

    /// Aborts an in-flight flush (write error, typically out of space):
    /// the partial output is deleted and the frozen entries are merged
    /// back *under* the live memtable so the database stays readable.
    fn flush_abort(&mut self) {
        if let Some(job) = self.flush.take() {
            if let Some(b) = job.builder {
                b.abandon();
            }
            if let Some(meta) = job.meta {
                let _ = self.vfs.delete(&meta.name);
            }
        }
        if let Some(frozen) = self.imm.take() {
            let mut live = std::mem::replace(&mut self.memtable, frozen);
            for (k, v) in live.drain() {
                match v {
                    Some(v) => self.memtable.put(&k, &v),
                    None => self.memtable.delete(&k),
                }
            }
        }
    }

    /// The durability gate of a paced install: whether every named
    /// output has destaged. `forced` fsyncs instead of waiting.
    fn outputs_durable<'a>(
        &self,
        names: impl Iterator<Item = &'a String>,
        forced: bool,
    ) -> Result<bool> {
        let now = self.vfs.clock().now();
        for name in names {
            let id = self.vfs.open(name)?;
            if self.vfs.durable_at(id)? > now {
                if !forced {
                    return Ok(false);
                }
                self.vfs.fsync(id)?;
            }
        }
        Ok(true)
    }

    /// Opens a finished output as a live table.
    fn open_table(&self, meta: SstableMeta) -> Result<Arc<TableHandle>> {
        let reader = SstableReader::open(self.vfs.clone(), &meta.name, false, self.queue.clone())?
            .with_cache(self.cache.clone())
            .with_blooms(Some(Arc::clone(&self.blooms)))
            .with_trace(self.trace.clone());
        Ok(Arc::new(TableHandle { meta, reader }))
    }

    /// Installs a finished flush. Paced, only once its table has
    /// destaged (or after an explicit fsync when `forced`): returns
    /// `false` while the durability horizon is still ahead of the clock.
    /// The job stays parked until the commit succeeds, so a failure
    /// leaves [`LsmDb::flush_abort`] the table to delete and nothing
    /// staged in the manifest.
    fn flush_install(&mut self, drive: Drive, forced: bool) -> Result<bool> {
        let name = &(self.flush.as_ref())
            .and_then(|j| j.meta.as_ref())
            .expect("finished job")
            .name;
        if drive == Drive::Paced && !self.outputs_durable(std::iter::once(name), forced)? {
            return Ok(false);
        }
        self.manifest.log_add(0, name);
        self.manifest.commit()?;
        let meta = self
            .flush
            .take()
            .and_then(|j| j.meta)
            .expect("finished job");
        self.stats.flushes += 1;
        self.stats.flush_bytes += meta.file_bytes;
        let table = self.open_table(meta)?;
        self.version.push_l0(table);
        self.imm = None;
        drive.installed(&mut self.sched);
        // Release the logs that held the frozen records.
        for old in std::mem::take(&mut self.old_wals) {
            self.vfs.delete(&old)?;
        }
        match drive {
            Drive::Paced => self.maybe_schedule_compaction()?,
            Drive::Inline => self.wal.rotate()?,
        }
        Ok(true)
    }

    /// Inline drive: drains one compaction inside the calling op.
    fn run_compaction(&mut self, task: CompactionTask) -> Result<()> {
        let _cause = self.trace.cause(Cause::Compaction);
        let span = self.trace.begin("lsm.compaction", Cause::Compaction);
        let drop_tombstones = !self.version.has_data_below(task.target_level);
        self.compact = Some(CompactJob::new(task, drop_tombstones));
        let mut result = Ok(());
        while result.is_ok() && self.compact.is_some() {
            result = self.compact_step(Drive::Inline, true).map(drop);
        }
        self.trace.end(span);
        result
    }

    /// One step of the compaction job: read, merge-and-write, or the
    /// install once the merge ran dry. `Ok(false)` is a stale ticket, or
    /// a paced install still waiting for the durability horizon. A
    /// failed step rolls the job back: partial outputs are deleted, the
    /// inputs stay live and the version is unchanged.
    fn compact_step(&mut self, drive: Drive, forced: bool) -> Result<bool> {
        let Some(job) = self.compact.as_ref() else {
            return Ok(false); // stale ticket
        };
        let step = if job.write_done {
            self.compact_install(drive, forced)
        } else if drive == Drive::Inline {
            self.compact_stream().map(|()| true)
        } else if job.read_idx < job.source_count() {
            self.compact_read_slice().map(|()| true)
        } else {
            self.compact_write_slice().map(|()| true)
        };
        if step.is_err() {
            if let Some(mut job) = self.compact.take() {
                if let Some(b) = job.builder.take() {
                    b.abandon();
                }
                for meta in &job.outputs {
                    let _ = self.vfs.delete(&meta.name);
                }
            }
        } else if self.compact.is_some() {
            if let Some(sched) = drive.pacing(&mut self.sched) {
                sched.requeue_front(JobKind::Compaction);
            }
        }
        step
    }

    /// Paced read phase: buffers one input table's windows into memory
    /// via the detached background read path (the table's `Arc` pin
    /// keeps it readable for concurrent foreground lookups meanwhile).
    fn compact_read_slice(&mut self) -> Result<()> {
        let now = self.vfs.clock().now();
        let job = self.compact.as_mut().expect("live job");
        let idx = job.read_idx;
        let handle = if idx < job.task.inputs.len() {
            Arc::clone(&job.task.inputs[idx])
        } else {
            Arc::clone(&job.task.overlaps[idx - job.task.inputs.len()])
        };
        job.buffered.push(handle.reader.read_windows_bg());
        job.read_idx += 1;
        Drive::Paced.charge(&mut self.sched, now, handle.meta.file_bytes, true);
        Ok(())
    }

    /// Paced write phase: merges one byte-bounded slice of output from
    /// the buffered input windows.
    fn compact_write_slice(&mut self) -> Result<()> {
        let now = self.vfs.clock().now();
        let slice_bytes = Drive::Paced.slice_bytes(&self.sched);
        let job = self.compact.as_mut().expect("live job");
        let mut merge = (job.merge.take())
            .unwrap_or_else(|| Merge::new(job.buffered.drain(..).map(WindowScan::over).collect()));
        self.compact_write(&mut merge, slice_bytes, None)?;
        let job = self.compact.as_mut().expect("live job");
        if !job.write_done {
            job.merge = Some(merge);
        }
        let produced = job.produced_bytes();
        let delta = produced.saturating_sub(job.charged);
        job.charged = produced;
        Drive::Paced.charge(&mut self.sched, now, delta, false);
        Ok(())
    }

    /// Inline read-and-write phase: streams every input through the
    /// merge straight into the outputs, in one unbounded slice.
    ///
    /// The outputs splice their values, and laying each one out
    /// ([`TableImage::materialize`]) is shared with one helper thread
    /// ([`Layouts`]) while the merge goes on here. The scope joins the
    /// helper before this returns, so every output is in its file before
    /// [`LsmDb::compact_install`] opens it. Laying out moves bytes only:
    /// the device commands and clock steps were all taken here, at the
    /// same points as a copying build takes them. The helper needs a
    /// CPU nothing else in the process wants ([`helper_has_a_cpu`]);
    /// without one the values are copied in here, as a paced compaction
    /// does: laying them out here later measured slower.
    fn compact_stream(&mut self) -> Result<()> {
        let task = &self.compact.as_ref().expect("live job").task;
        // Recency-ordered sources: source-level tables (already newest
        // first), then target-level overlaps (older).
        let handles: Vec<Arc<TableHandle>> =
            task.inputs.iter().chain(&task.overlaps).cloned().collect();
        let mut merge = Merge::new(handles.iter().map(|h| h.reader.iter_bg()).collect());
        if !helper_has_a_cpu() {
            return self.compact_write(&mut merge, u64::MAX, None);
        }
        let layouts = Layouts::default();
        std::thread::scope(|scope| {
            // Lets the helper go however the merge ends, a panic included.
            let _finish = Finish(&layouts);
            let mut helper = None;
            let place = &mut |image: TableImage| {
                if image.is_spliced() {
                    helper.get_or_insert_with(|| scope.spawn(|| layouts.serve()));
                    layouts.push(image);
                } else {
                    image.materialize(); // in its file's buffer already
                }
            };
            self.compact_write(&mut merge, u64::MAX, Some(place))
        })
    }

    /// Merges entries into output tables, splitting them at the table
    /// size target, until `slice_bytes` of output are produced; marks
    /// the job ready to install once the merge runs dry. Given `place`,
    /// the outputs splice their values and each finished one goes to
    /// `place` to be laid out; without, they copy their values in (a
    /// paced slice has no thread to hand the copy to, and laying out
    /// later only adds a pass).
    fn compact_write<S: Source>(
        &mut self,
        merge: &mut Merge<S>,
        slice_bytes: u64,
        place: Option<&mut dyn FnMut(TableImage)>,
    ) -> Result<()> {
        let splice = place.is_some();
        let mut in_place = TableImage::materialize;
        let place = place.unwrap_or(&mut in_place);
        let job = self.compact.as_mut().expect("live job");
        let base = job.produced_bytes();
        while job.produced_bytes().saturating_sub(base) < slice_bytes {
            let Some(entry) = merge.next_entry() else {
                job.finish_output(place)?;
                job.write_done = true;
                break;
            };
            if entry.value.is_none() && job.drop_tombstones {
                continue;
            }
            let builder = match &mut job.builder {
                Some(b) => b,
                none => {
                    let b = SstableBuilder::create_bg(
                        self.vfs.clone(),
                        &table_name(&mut self.next_file),
                        self.opts.block_bytes,
                        BLOOM_BITS_PER_KEY,
                        self.opts.sstable_target_bytes,
                    )?;
                    let b = b.with_compression(self.opts.compression());
                    none.insert(if splice { b.splicing_values() } else { b })
                }
            };
            // A block that begins where an input block begins may be
            // that block unchanged: offer its container.
            let task = &job.task;
            builder.add_reusing(entry, |window, key_at| {
                (task.inputs.iter().chain(&task.overlaps))
                    .find_map(|h| h.reader.stored_block_at(window, key_at))
            })?;
            if builder.estimated_bytes() >= self.opts.sstable_target_bytes {
                job.finish_output(place)?;
            }
        }
        Ok(())
    }

    /// Installs a finished compaction — paced, only once every output
    /// has destaged (or after explicit fsyncs when `forced`): one
    /// manifest commit swaps the version, then the input files are
    /// deleted. The readers open before anything is staged and the job
    /// stays parked until the commit succeeds, so a failure leaves
    /// [`LsmDb::compact_step`] the outputs to delete and nothing staged
    /// in the manifest.
    fn compact_install(&mut self, drive: Drive, forced: bool) -> Result<bool> {
        let job = self.compact.as_ref().expect("live job");
        let names = job.outputs.iter().map(|m| &m.name);
        if drive == Drive::Paced && !self.outputs_durable(names, forced)? {
            return Ok(false);
        }
        let added = (job.outputs.iter().cloned())
            .map(|meta| self.open_table(meta))
            .collect::<Result<Vec<_>>>()?;
        for name in &job.input_names {
            self.manifest.log_del(name);
        }
        for meta in &job.outputs {
            self.manifest.log_add(job.task.target_level, &meta.name);
        }
        self.manifest.commit()?;
        let job = self.compact.take().expect("live job");
        let (source, target) = (job.task.source_level, job.task.target_level);
        self.version
            .apply_compaction(source, target, &job.input_names, added);
        for name in &job.input_names {
            self.vfs.delete(name)?;
        }
        self.stats.compactions += 1;
        self.stats.compaction_bytes_read += job.input_bytes;
        self.stats.compaction_bytes_written += job.finished_bytes;
        self.blocks_reused += job.reused_blocks;
        drive.installed(&mut self.sched);
        if drive == Drive::Paced {
            self.maybe_schedule_compaction()?;
        }
        Ok(true)
    }

    /// Schedules the next background compaction if one is due under the
    /// Marble-style triggers: L0 at the merge window, a level past its
    /// target by the merge-ratio hysteresis band, or space
    /// amplification beyond the ceiling (urgency: the pick falls back
    /// to the tighter foreground thresholds). Trivial moves apply
    /// immediately — they are free.
    fn maybe_schedule_compaction(&mut self) -> Result<()> {
        if self.compact.is_some()
            || (self.sched.as_ref()).is_none_or(|s| s.has(JobKind::Compaction))
        {
            return Ok(());
        }
        loop {
            let urgent = self.space_amp_exceeded();
            if !self.compaction_due_bg() && !urgent {
                return Ok(());
            }
            // Background picks use the Marble merge window (runs allowed
            // to accumulate before a background merge) as the L0 trigger.
            let bg = LsmOptions {
                l0_compaction_trigger: self.opts.tuning.maint.merge_window.max(2),
                ..self.opts.clone()
            };
            let mut task = pick(&self.version, &bg, &mut self.cursors);
            if task.is_none() && urgent {
                task = pick(&self.version, &self.opts, &mut self.cursors);
            }
            let Some(task) = task else {
                return Ok(());
            };
            if self.is_trivial_move(&task) {
                self.apply_trivial_move(task)?;
                continue;
            }
            let drop_tombstones = !self.version.has_data_below(task.target_level);
            self.compact = Some(CompactJob::new(task, drop_tombstones));
            if let Some(sched) = self.sched.as_mut() {
                sched.enqueue(JobKind::Compaction);
            }
            return Ok(());
        }
    }

    /// Background compaction triggers (see [`LsmDb::maybe_schedule_compaction`]).
    fn compaction_due_bg(&self) -> bool {
        let cfg = &self.opts.tuning.maint;
        if self.version.tables(0).len() >= cfg.merge_window.max(2) {
            return true;
        }
        let targets = effective_targets(&self.version, &self.opts);
        for (level, &target) in targets
            .iter()
            .enumerate()
            .take(self.version.level_count())
            .skip(1)
        {
            if target == u64::MAX {
                continue;
            }
            let slack = target / MERGE_RATIO;
            if self.version.bytes_at(level) > target.saturating_add(slack) {
                return true;
            }
        }
        false
    }

    /// Whether measured space amplification exceeds [`MAX_SPACE_AMP`]
    /// (total tree bytes vs the deepest level's bytes).
    fn space_amp_exceeded(&self) -> bool {
        let Some(bottom) = self.version.deepest_nonempty() else {
            return false;
        };
        let base = self.version.bytes_at(bottom).max(1);
        self.version.total_bytes() > MAX_SPACE_AMP * base
    }
}

/// The finished outputs of one inline compaction still to be laid out
/// ([`TableImage::materialize`]), shared by the simulator thread and one
/// helper. Laying a table out costs more than building the next one, so
/// a helper alone would fall behind: it takes the oldest waiting table,
/// and the simulator thread lays out any it leaves waiting behind the
/// newest, and whatever is left once the merge is done. The helper
/// waits for work by yielding, not sleeping: a compaction lasts about a
/// millisecond, and a wake-up can take a tenth of that.
#[derive(Default)]
struct Layouts {
    waiting: Mutex<VecDeque<TableImage>>,
    /// Nothing more will be queued.
    done: AtomicBool,
}

impl Layouts {
    fn lock(&self) -> MutexGuard<'_, VecDeque<TableImage>> {
        // Only a push or a pop runs under the lock: the queue is whole
        // even after a panic elsewhere.
        self.waiting.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn pop(&self) -> Option<TableImage> {
        self.lock().pop_front()
    }

    /// Queues `image`; lays out here the one waiting before it, if the
    /// helper has not taken that yet.
    fn push(&self, image: TableImage) {
        let behind = {
            let mut waiting = self.lock();
            waiting.push_back(image);
            if waiting.len() > 1 {
                waiting.pop_front()
            } else {
                None
            }
        };
        if let Some(behind) = behind {
            behind.materialize();
        }
    }

    /// The helper: lays out queued tables until [`Layouts::finish`].
    fn serve(&self) {
        loop {
            if let Some(image) = self.pop() {
                image.materialize();
            } else if self.done.load(Ordering::Acquire) {
                // Pairs with `finish`'s release: no table is queued
                // after it.
                return;
            } else {
                std::thread::yield_now();
            }
        }
    }

    /// The simulator thread, once every output is queued (or the merge
    /// failed): lays out what the helper has not taken, and lets the
    /// helper go.
    fn finish(&self) {
        while let Some(image) = self.pop() {
            image.materialize();
        }
        self.done.store(true, Ordering::Release);
    }
}

/// LSM databases open in the process.
static OPEN_DBS: AtomicUsize = AtomicUsize::new(0);

/// Counted in [`OPEN_DBS`] from construction to drop.
struct OpenDb;

impl OpenDb {
    fn new() -> Self {
        OPEN_DBS.fetch_add(1, Ordering::Relaxed);
        Self
    }
}

impl Drop for OpenDb {
    fn drop(&mut self) {
        OPEN_DBS.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Whether an inline compaction's helper would have a CPU to itself:
/// the process may run on more than one CPU (asked once), and this is
/// the only database open in it. Several open databases are shards
/// driven by as many threads as the harness could give CPUs (or tests
/// run side by side), and a helper beside them takes CPU time from
/// another simulator thread: two client threads over eight inline
/// shards measured a third slower with one.
fn helper_has_a_cpu() -> bool {
    static CPUS: OnceLock<usize> = OnceLock::new();
    let cpus = *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    cpus > 1 && OPEN_DBS.load(Ordering::Relaxed) == 1
}

/// Calls [`Layouts::finish`] when dropped.
struct Finish<'a>(&'a Layouts);

impl Drop for Finish<'_> {
    fn drop(&mut self) {
        self.0.finish();
    }
}

/// The next table file name.
fn table_name(next_file: &mut u64) -> String {
    let n = *next_file;
    *next_file += 1;
    format!("sst-{n:08}")
}

/// Opens the shared submission queue when the options ask for one.
fn io_queue_for(vfs: &Vfs, opts: &LsmOptions) -> Option<SharedIoQueue> {
    let t = &opts.tuning;
    (t.queue_depth > 1).then(|| vfs.io_queue(t.queue_depth).into_shared())
}

/// Builds the shared block cache when the options ask for one.
fn cache_for(opts: &LsmOptions) -> Option<SharedBlockCache> {
    let t = &opts.tuning;
    (t.cache_bytes > 0).then(|| BlockCache::shared(t.cache_bytes))
}

/// Streaming cursor returned by [`LsmDb::scan_iter`]: merges the
/// memtables and all table levels lazily, filtering tombstones and
/// shadowed versions, and stops at the end bound or the limit.
pub struct RangeScan<'a> {
    merge: Merge<Box<dyn Source + 'a>>,
    end: Option<Vec<u8>>,
    remaining: usize,
}

impl Iterator for RangeScan<'_> {
    type Item = (Vec<u8>, Vec<u8>);

    fn next(&mut self) -> Option<Self::Item> {
        if self.remaining == 0 {
            return None;
        }
        while let Some(entry) = self.merge.next_entry() {
            if self.end.as_deref().is_some_and(|end| entry.key >= end) {
                self.remaining = 0;
                return None;
            }
            if let Some(value) = entry.value {
                self.remaining -= 1;
                return Some((entry.key.to_vec(), value.to_vec()));
            }
        }
        self.remaining = 0;
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptsbench_ssd::{DeviceConfig, DeviceProfile, Ssd};
    use ptsbench_vfs::{EngineTuning, VfsOptions};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn db_on(bytes: u64) -> LsmDb {
        let ssd = Ssd::new(DeviceConfig::from_profile(DeviceProfile::ssd1(), bytes));
        let vfs = Vfs::whole_device(ssd.into_shared(), VfsOptions::default());
        LsmDb::open(vfs, LsmOptions::small()).expect("open")
    }

    fn key(i: u32) -> Vec<u8> {
        format!("key{i:08}").into_bytes()
    }

    #[test]
    fn put_get_round_trip() {
        let mut db = db_on(32 << 20);
        db.put(b"a", b"1").expect("put");
        db.put(b"b", b"2").expect("put");
        assert_eq!(db.get(b"a").expect("get"), Some(b"1".to_vec()));
        assert_eq!(db.get(b"missing").expect("get"), None);
        db.put(b"a", b"updated").expect("put");
        assert_eq!(db.get(b"a").expect("get"), Some(b"updated".to_vec()));
    }

    #[test]
    fn reads_hit_disk_after_flush() {
        let mut db = db_on(32 << 20);
        for i in 0..100u32 {
            db.put(&key(i), &[i as u8; 200]).expect("put");
        }
        db.flush().expect("flush");
        assert!(db.memtable.is_empty());
        assert!(db.version.total_bytes() > 0);
        for i in (0..100).step_by(7) {
            assert_eq!(
                db.get(&key(i)).expect("get"),
                Some(vec![i as u8; 200]),
                "key {i}"
            );
        }
    }

    #[test]
    fn deletes_shadow_flushed_values() {
        let mut db = db_on(32 << 20);
        db.put(b"k", b"v").expect("put");
        db.flush().expect("flush");
        db.delete(b"k").expect("delete");
        assert_eq!(db.get(b"k").expect("get"), None, "memtable tombstone");
        db.flush().expect("flush");
        assert_eq!(db.get(b"k").expect("get"), None, "flushed tombstone");
    }

    #[test]
    fn overlong_keys_are_refused_before_the_wal() {
        // An SSTable entry records a key's length in two bytes: a
        // longer key would be cut short at flush and lost.
        let long = vec![b'k'; usize::from(u16::MAX) + 1];
        let longest = &long[1..];
        let refused = Err(StoreError::InvalidInput(
            "key of 65536 bytes exceeds 65535 bytes".into(),
        ));
        for opts in [LsmOptions::small(), maint_opts()] {
            let mut db = db_on_opts(32 << 20, opts);
            db.put(b"a", b"1").expect("put");
            let (stats, fs) = (db.stats(), db.vfs().stats());
            assert_eq!(db.put(&long, b"v"), refused);
            assert_eq!(db.delete(&long), refused);
            // One bad key refuses the whole batch, the ops before it too.
            let batch: [(&[u8], Option<&[u8]>); 2] = [(b"b", Some(b"2")), (&long, None)];
            assert_eq!(db.apply_batch(&batch), refused);
            assert_eq!(db.stats(), stats);
            assert_eq!(db.vfs().stats(), fs);
            db.put(longest, b"longest").expect("put");
            db.flush().expect("flush");
            assert_eq!(db.get(b"b").expect("get"), None);
            assert_eq!(db.get(longest).expect("get"), Some(b"longest".to_vec()));
        }
    }

    #[test]
    fn sustained_writes_trigger_flushes_and_compactions() {
        let mut db = db_on(64 << 20);
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..3000 {
            let i: u32 = rng.gen_range(0..500);
            db.put(&key(i), &[0u8; 256]).expect("put");
        }
        let stats = db.stats();
        assert!(stats.flushes > 5, "flushes: {}", stats.flushes);
        assert!(stats.compactions > 0, "compactions: {}", stats.compactions);
        // Everything still readable.
        let mut rng = SmallRng::seed_from_u64(1);
        let mut latest = std::collections::HashMap::new();
        for _ in 0..3000 {
            let i: u32 = rng.gen_range(0..500);
            latest.insert(i, ());
        }
        for (&i, _) in latest.iter().take(50) {
            assert!(db.get(&key(i)).expect("get").is_some(), "key {i} lost");
        }
        db.version.check_invariants();
    }

    #[test]
    fn model_check_against_btreemap() {
        use std::collections::BTreeMap;
        let mut db = db_on(64 << 20);
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        let mut rng = SmallRng::seed_from_u64(99);
        for step in 0..4000 {
            let i: u32 = rng.gen_range(0..300);
            let k = key(i);
            match rng.gen_range(0..10) {
                0..=6 => {
                    let v = format!("v{step}").into_bytes();
                    db.put(&k, &v).expect("put");
                    model.insert(k, v);
                }
                7..=8 => {
                    db.delete(&k).expect("delete");
                    model.remove(&k);
                }
                _ => {
                    assert_eq!(
                        db.get(&k).expect("get"),
                        model.get(&k).cloned(),
                        "step {step}"
                    );
                }
            }
        }
        // Final sweep.
        for i in 0..300u32 {
            let k = key(i);
            assert_eq!(
                db.get(&k).expect("get"),
                model.get(&k).cloned(),
                "final key {i}"
            );
        }
    }

    #[test]
    fn scan_merges_all_levels() {
        let mut db = db_on(64 << 20);
        for i in (0..100u32).step_by(2) {
            db.put(&key(i), b"even").expect("put");
        }
        db.flush().expect("flush");
        for i in (1..100u32).step_by(2) {
            db.put(&key(i), b"odd").expect("put");
        }
        db.delete(&key(10)).expect("delete");
        let items = db.scan(&key(5), Some(&key(15)), 100).expect("scan");
        let keys: Vec<u32> = items
            .iter()
            .map(|(k, _)| {
                String::from_utf8_lossy(&k[3..])
                    .parse::<u32>()
                    .expect("numeric")
            })
            .collect();
        assert_eq!(
            keys,
            vec![5, 6, 7, 8, 9, 11, 12, 13, 14],
            "sorted, no deleted key 10"
        );
        // Limit respected.
        assert_eq!(db.scan(b"key", None, 7).expect("scan").len(), 7);
    }

    fn db_on_opts(bytes: u64, opts: LsmOptions) -> LsmDb {
        let ssd = Ssd::new(DeviceConfig::from_profile(DeviceProfile::ssd1(), bytes));
        let vfs = Vfs::whole_device(ssd.into_shared(), VfsOptions::default());
        LsmDb::open(vfs, opts).expect("open")
    }

    #[test]
    fn queued_scans_match_sync_scans_and_run_faster() {
        let load = |db: &mut LsmDb| {
            for i in 0..2000u32 {
                db.put(&key(i), &[i as u8; 300]).expect("put");
            }
            db.flush().expect("flush");
        };
        let mut sync_db = db_on_opts(64 << 20, LsmOptions::small());
        let mut deep_db = db_on_opts(
            64 << 20,
            LsmOptions {
                tuning: EngineTuning::for_device(0).with_queue_depth(8),
                ..LsmOptions::small()
            },
        );
        load(&mut sync_db);
        load(&mut deep_db);
        assert!(deep_db.queue.is_some(), "depth 8 must open a queue");

        let scan_cost = |db: &LsmDb| {
            let clock = db.vfs().clock();
            let t0 = clock.now();
            let items = db.scan(b"", None, usize::MAX).expect("scan");
            (items, clock.now() - t0)
        };
        let (sync_items, sync_cost) = scan_cost(&sync_db);
        let (deep_items, deep_cost) = scan_cost(&deep_db);
        assert_eq!(
            sync_items, deep_items,
            "queued scans must not change results"
        );
        assert_eq!(sync_items.len(), 2000);
        assert!(
            deep_cost < sync_cost,
            "QD=8 scan must cost less virtual time: {deep_cost} vs {sync_cost}"
        );
    }

    #[test]
    fn queued_compactions_preserve_correctness() {
        let mut db = db_on_opts(
            64 << 20,
            LsmOptions {
                tuning: EngineTuning::for_device(0).with_queue_depth(8),
                ..LsmOptions::small()
            },
        );
        let mut rng = SmallRng::seed_from_u64(11);
        for _ in 0..3000 {
            let i: u32 = rng.gen_range(0..400);
            db.put(&key(i), &[1u8; 256]).expect("put");
        }
        assert!(db.stats().compactions > 0, "churn must compact");
        db.compact_all().expect("compact");
        for i in 0..400u32 {
            assert!(db.get(&key(i)).expect("get").is_some(), "key {i} lost");
        }
        db.version.check_invariants();
    }

    /// Table files no one owns: not in the version, not the output of a
    /// job still parked on the database.
    fn orphan_tables(db: &LsmDb) -> Vec<String> {
        let mut owned: std::collections::HashSet<String> = (0..db.version.level_count())
            .flat_map(|level| db.version.tables(level))
            .map(|h| h.meta.name.clone())
            .collect();
        let building = (db.flush.as_ref().map(|j| &j.builder))
            .into_iter()
            .chain(db.compact.as_ref().map(|j| &j.builder))
            .flatten()
            .map(|b| b.name().to_string());
        let finished = (db.flush.iter().filter_map(|j| j.meta.as_ref()))
            .chain(db.compact.iter().flat_map(|j| &j.outputs))
            .map(|m| m.name.clone());
        owned.extend(building.chain(finished));
        let mut orphans: Vec<String> = (db.vfs.list().into_iter())
            .filter(|n| n.starts_with("sst-") && !owned.contains(n))
            .collect();
        orphans.sort();
        orphans
    }

    /// Fills a tiny device until the first ENOSPC — from a put, or from
    /// the maintenance slice pumped after it — then checks that nothing
    /// acknowledged was lost and no table file was orphaned.
    fn out_of_space_model_check(opts: LsmOptions) {
        let mut db = db_on_opts(16 << 20, opts);
        let mut model: std::collections::HashMap<u32, u8> = std::collections::HashMap::new();
        let mut rng = SmallRng::seed_from_u64(5);
        // The key of a put that failed: it may or may not have landed.
        let mut in_doubt = None;
        let mut saw_enospc = false;
        for step in 0..80_000u32 {
            let i: u32 = rng.gen_range(0..18_000);
            let fill = step as u8;
            let mut outcome = db.put(&key(i), &[fill; 800]);
            match &outcome {
                Ok(()) => {
                    model.insert(i, fill);
                    outcome = (|| {
                        while db.run_maintenance_slice()? {}
                        Ok(())
                    })();
                }
                Err(_) => in_doubt = Some(i),
            }
            match outcome {
                Ok(()) => {}
                Err(e) if e.is_out_of_space() => {
                    saw_enospc = true;
                    break;
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(
            saw_enospc,
            "small device must eventually fill (the paper's RocksDB OOS)"
        );
        assert_eq!(orphan_tables(&db), Vec::<String>::new(), "orphaned tables");
        for (&i, &fill) in &model {
            if in_doubt != Some(i) {
                assert_eq!(
                    db.get(&key(i)).expect("get after enospc"),
                    Some(vec![fill; 800]),
                    "acknowledged put of key {i} lost"
                );
            }
        }
    }

    #[test]
    fn out_of_space_loses_nothing_acknowledged_inline() {
        out_of_space_model_check(LsmOptions::small());
    }

    #[test]
    fn out_of_space_loses_nothing_acknowledged_paced() {
        out_of_space_model_check(maint_opts());
    }

    /// Flushes small identical rounds (no compaction ever due) until the
    /// next manifest commit needs a fresh page, then leaves room on the
    /// device for the next table but not for that page: the flush builds
    /// its table and fails at the commit. The failed install must be
    /// atomic — nothing acknowledged lost, no table orphaned, no edit
    /// half-written — and succeed when retried with space.
    fn failed_commit_model_check(maint: ptsbench_maint::MaintConfig) {
        let opts = LsmOptions {
            // Every log starts on fresh pages, under either drive.
            recycle_wal: false,
            l0_compaction_trigger: 100_000,
            tuning: EngineTuning::for_device(0).with_maint(ptsbench_maint::MaintConfig {
                merge_window: 100_000,
                ..maint
            }),
            ..LsmOptions::small()
        };
        let ssd = Ssd::new(DeviceConfig::from_profile(DeviceProfile::ssd1(), 32 << 20));
        let vfs = Vfs::whole_device(ssd.into_shared(), VfsOptions::default());
        let mut db = LsmDb::open(vfs.clone(), opts.clone()).expect("open");
        let round = |db: &mut LsmDb, fill: u8| {
            for i in 0..10u32 {
                db.put(&key(i), &[fill; 100]).expect("put");
            }
        };
        let page = vfs.page_size();
        let size_of = |name: &str| vfs.size(vfs.open(name).expect("open")).expect("size");
        let line = "add 0 sst-00000000\n".len() as u64;
        let mut rounds = 0u8;
        while size_of(crate::manifest::MANIFEST_NAME) % page + line <= page {
            round(&mut db, rounds);
            db.flush().expect("flush");
            rounds += 1;
        }
        let flushes = db.stats().flushes;
        assert_eq!(flushes, rounds as u64);
        let newest = db
            .version
            .tables(0)
            .last()
            .expect("flushed")
            .meta
            .name
            .clone();
        let table_pages = size_of(&newest).div_ceil(page);
        let filler = vfs.create("filler").expect("create");
        // Besides its table, the flush syncs one page of WAL records.
        let spare = vfs.stats().free_pages - table_pages - 1;
        vfs.append(filler, &vec![0u8; (spare * page) as usize])
            .expect("fill");

        round(&mut db, rounds);
        let err = db.flush().expect_err("the commit cannot fit");
        assert!(err.is_out_of_space(), "unexpected error: {err}");
        assert_eq!(db.stats().flushes, flushes, "the install did not happen");
        assert_eq!(orphan_tables(&db), Vec::<String>::new(), "orphaned tables");
        let check = |db: &mut LsmDb| {
            for i in 0..10u32 {
                assert_eq!(
                    db.get(&key(i)).expect("get"),
                    Some(vec![rounds; 100]),
                    "acknowledged put of key {i} lost"
                );
            }
        };
        check(&mut db);

        vfs.delete("filler").expect("delete");
        db.flush().expect("retry with space");
        assert_eq!(db.stats().flushes, flushes + 1);
        check(&mut db);
        let logs = vfs.list().iter().filter(|n| n.starts_with("wal-")).count();
        assert_eq!(logs, 1, "every log of flushed records is released");
        drop(db);
        check(&mut LsmDb::recover(vfs, opts).expect("recover"));
    }

    #[test]
    fn failed_manifest_commit_is_atomic_inline() {
        failed_commit_model_check(ptsbench_maint::MaintConfig::default());
    }

    #[test]
    fn failed_manifest_commit_is_atomic_paced() {
        failed_commit_model_check(ptsbench_maint::MaintConfig::enabled());
    }

    #[test]
    fn compact_all_collapses_to_one_sorted_run() {
        let mut db = db_on(64 << 20);
        let mut rng = SmallRng::seed_from_u64(13);
        for _ in 0..3000 {
            let i: u32 = rng.gen_range(0..400);
            db.put(&key(i), &[0u8; 300]).expect("put");
        }
        for i in (0..400u32).step_by(2) {
            db.delete(&key(i)).expect("delete");
        }
        db.compact_all().expect("compact");
        let summary = db.level_summary();
        let populated: Vec<_> = summary.iter().filter(|(_, n, _)| *n > 0).collect();
        assert_eq!(populated.len(), 1, "one populated level, got {summary:?}");
        // Tombstones were dropped and reads are exact.
        for i in 0..400u32 {
            let expect = (i % 2 == 1).then_some(()); // odd keys survive
            assert_eq!(
                db.get(&key(i)).expect("get").is_some(),
                expect.is_some(),
                "key {i}"
            );
        }
        let scanned = db.scan(b"", None, usize::MAX).expect("scan");
        assert_eq!(scanned.len(), 200);
        db.version.check_invariants();
        // Space collapsed to ~one copy of the live data.
        let live: u64 = scanned
            .iter()
            .map(|(k, v)| (k.len() + v.len()) as u64)
            .sum();
        let on_disk: u64 = db.level_summary().iter().map(|(_, _, b)| b).sum();
        assert!(on_disk < live * 2, "on-disk {on_disk} vs live {live}");
    }

    #[test]
    fn compressed_tables_round_trip_and_shrink_compressible_data() {
        let mut plain = db_on(64 << 20);
        let mut packed = db_on_opts(
            64 << 20,
            LsmOptions {
                tuning: EngineTuning::for_device(0).with_compression_level(3),
                ..LsmOptions::small()
            },
        );
        // Repetitive values compress well; both databases must agree on
        // every read regardless of codec.
        for db in [&mut plain, &mut packed] {
            for i in 0..1500u32 {
                db.put(&key(i), format!("payload-{}-", i % 7).repeat(20).as_bytes())
                    .expect("put");
            }
            db.compact_all().expect("compact");
        }
        for i in (0..1500u32).step_by(13) {
            assert_eq!(
                plain.get(&key(i)).expect("get"),
                packed.get(&key(i)).expect("get"),
                "key {i}"
            );
        }
        assert_eq!(
            plain.scan(b"", None, usize::MAX).expect("scan"),
            packed.scan(b"", None, usize::MAX).expect("scan"),
            "scans must decode to identical entries"
        );
        let bytes = |db: &LsmDb| db.level_summary().iter().map(|(_, _, b)| b).sum::<u64>();
        assert!(
            bytes(&packed) < bytes(&plain) / 2,
            "repetitive data must shrink: {} vs {}",
            bytes(&packed),
            bytes(&plain)
        );
    }

    #[test]
    fn block_cache_absorbs_repeated_reads() {
        let mut db = db_on_opts(
            64 << 20,
            LsmOptions {
                tuning: EngineTuning::for_device(0).with_cache_bytes(4 << 20),
                ..LsmOptions::small()
            },
        );
        for i in 0..800u32 {
            db.put(&key(i), &[3u8; 200]).expect("put");
        }
        db.compact_all().expect("compact");
        // First pass faults blocks in; the second must be served from
        // the cache without touching the device.
        for i in 0..50u32 {
            db.get(&key(i)).expect("get");
        }
        let before = db.vfs().ssd().lock().smart().host_pages_read;
        for i in 0..50u32 {
            assert!(db.get(&key(i)).expect("get").is_some());
        }
        let after = db.vfs().ssd().lock().smart().host_pages_read;
        assert_eq!(after, before, "second pass must be all cache hits");
        let stats = db.cache_stats().expect("cache enabled");
        assert!(stats.hits >= 50, "hits: {}", stats.hits);
        assert!(stats.bytes_saved > 0);
        assert!(db.cache_stats().is_some());
        assert!(db_on(32 << 20).cache_stats().is_none(), "off by default");
    }

    #[test]
    fn bloom_counters_fold_into_stats() {
        let mut db = db_on(64 << 20);
        for i in 0..500u32 {
            db.put(&key(i), &[1u8; 100]).expect("put");
        }
        db.compact_all().expect("compact");
        for i in 0..200u32 {
            db.get(&key(i)).expect("get present");
        }
        for i in 0..200u32 {
            // In-range but absent: sorts between two resident keys, so
            // the lookup reaches a table and its bloom filter.
            db.get(format!("key{i:08}x").as_bytes()).expect("get");
        }
        let s = db.stats();
        // A boundary key can fall in the gap between two tables' ranges
        // and skip the probe entirely, so allow a little slack.
        assert!(s.bloom_probes >= 390, "probes: {}", s.bloom_probes);
        assert!(
            s.bloom_negatives >= 190,
            "absent keys mostly filtered: {}",
            s.bloom_negatives
        );
        assert!(
            s.bloom_false_positives <= 10,
            "~1% fp at 10 bits/key: {}",
            s.bloom_false_positives
        );
    }

    fn maint_opts() -> LsmOptions {
        LsmOptions {
            tuning: EngineTuning::for_device(0).with_maint(ptsbench_maint::MaintConfig::enabled()),
            ..LsmOptions::small()
        }
    }

    #[test]
    fn maint_off_keeps_inline_behavior_and_no_stats() {
        let db = db_on(32 << 20);
        assert!(!db.maint_enabled());
        assert!(db.maint_stats().is_none());
        let mut db = db;
        // Pumping slices with maintenance off is a no-op.
        assert!(!db.run_maintenance_slice().expect("slice"));
        db.drain_maintenance().expect("drain");
    }

    #[test]
    fn maint_model_check_with_pumped_slices() {
        use std::collections::BTreeMap;
        let mut db = db_on_opts(64 << 20, maint_opts());
        assert!(db.maint_enabled());
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        let mut rng = SmallRng::seed_from_u64(77);
        for step in 0..4000 {
            let i: u32 = rng.gen_range(0..300);
            let k = key(i);
            match rng.gen_range(0..10) {
                0..=6 => {
                    let v = format!("v{step}-").repeat(12).into_bytes();
                    db.put(&k, &v).expect("put");
                    model.insert(k, v);
                }
                7..=8 => {
                    db.delete(&k).expect("delete");
                    model.remove(&k);
                }
                _ => {
                    assert_eq!(
                        db.get(&k).expect("get"),
                        model.get(&k).cloned(),
                        "step {step}"
                    );
                }
            }
            // The harness's interleaving: pump background slices
            // between foreground ops.
            while db.run_maintenance_slice().expect("slice") {}
        }
        // Scans see through the frozen memtable too.
        let scanned: Vec<_> = db.scan(b"", None, usize::MAX).expect("scan");
        let expect: Vec<_> = model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        assert_eq!(scanned, expect, "scan through frozen memtable");
        db.drain_maintenance().expect("drain");
        for i in 0..300u32 {
            let k = key(i);
            assert_eq!(
                db.get(&k).expect("get"),
                model.get(&k).cloned(),
                "final key {i}"
            );
        }
        db.version.check_invariants();
        let stats = db.maint_stats().expect("maintenance on");
        assert!(stats.jobs > 0, "background jobs ran: {stats:?}");
        assert_eq!(stats.jobs, stats.installs, "exactly one install per job");
        assert!(stats.bytes_written > 0);
        assert!(stats.slices >= stats.jobs, "slices bound job granularity");
    }

    #[test]
    fn maint_drain_leaves_no_outstanding_work() {
        let mut db = db_on_opts(64 << 20, maint_opts());
        for i in 0..2000u32 {
            db.put(&key(i), &[9u8; 256]).expect("put");
        }
        db.drain_maintenance().expect("drain");
        assert!(
            !db.has_paced_work(),
            "drain must settle all background work"
        );
        assert!(db.imm.is_none());
        assert!(
            db.old_wals.is_empty(),
            "frozen-WAL file released at install"
        );
        // A second drain is a no-op.
        db.drain_maintenance().expect("drain");
        db.version.check_invariants();
    }

    #[test]
    fn maint_flush_defers_wal_deletion_until_install() {
        let mut db = db_on_opts(64 << 20, maint_opts());
        // Fill past the memtable threshold to force a freeze.
        let mut i = 0u32;
        while db.imm.is_none() {
            db.put(&key(i), &[5u8; 300]).expect("put");
            i += 1;
        }
        let old = db.old_wals.last().cloned().expect("deferred WAL rotation");
        assert!(
            db.vfs.open(&old).is_ok(),
            "old WAL file must survive until the flush installs"
        );
        let sched = db.sched.as_ref().expect("maintenance on");
        assert!(sched.has(JobKind::Flush) || db.flush.is_some());
        // Reads see the frozen entries.
        assert_eq!(db.get(&key(0)).expect("get"), Some(vec![5u8; 300]));
        db.drain_maintenance().expect("drain");
        assert!(
            db.vfs.open(&old).is_err(),
            "old WAL deleted once the flush installed"
        );
        assert!(db.stats().flushes >= 1);
    }

    #[test]
    fn maint_apply_batch_group_commits_and_matches_individual_ops() {
        let mut grouped = db_on_opts(64 << 20, maint_opts());
        let mut individual = db_on_opts(64 << 20, maint_opts());
        let mut rng = SmallRng::seed_from_u64(21);
        for round in 0..50 {
            let mut owned: Vec<(Vec<u8>, Option<Vec<u8>>)> = Vec::new();
            for _ in 0..32 {
                let i: u32 = rng.gen_range(0..200);
                if rng.gen_range(0..10) < 8 {
                    owned.push((key(i), Some(format!("r{round}").into_bytes())));
                } else {
                    owned.push((key(i), None));
                }
            }
            let ops: Vec<(&[u8], Option<&[u8]>)> = owned
                .iter()
                .map(|(k, v)| (k.as_slice(), v.as_deref()))
                .collect();
            grouped.apply_batch(&ops).expect("batch");
            for (k, v) in &owned {
                match v {
                    Some(v) => individual.put(k, v).expect("put"),
                    None => individual.delete(k).expect("delete"),
                }
            }
            while grouped.run_maintenance_slice().expect("slice") {}
            while individual.run_maintenance_slice().expect("slice") {}
        }
        grouped.drain_maintenance().expect("drain");
        individual.drain_maintenance().expect("drain");
        assert_eq!(
            grouped.scan(b"", None, usize::MAX).expect("scan"),
            individual.scan(b"", None, usize::MAX).expect("scan"),
            "group commit must not change the database contents"
        );
        let (g, i) = (grouped.stats(), individual.stats());
        assert_eq!(g.puts, i.puts);
        assert_eq!(g.deletes, i.deletes);
        assert_eq!(g.app_bytes_written, i.app_bytes_written);
    }

    #[test]
    fn maint_recovery_replays_group_committed_records() {
        let ssd = Ssd::new(DeviceConfig::from_profile(DeviceProfile::ssd1(), 64 << 20));
        let vfs = Vfs::whole_device(ssd.into_shared(), VfsOptions::default());
        let mut db = LsmDb::open(vfs.clone(), maint_opts()).expect("open");
        let owned: Vec<(Vec<u8>, Option<Vec<u8>>)> = (0..100u32)
            .map(|i| (key(i), Some(vec![i as u8; 50])))
            .collect();
        let ops: Vec<(&[u8], Option<&[u8]>)> = owned
            .iter()
            .map(|(k, v)| (k.as_slice(), v.as_deref()))
            .collect();
        db.apply_batch(&ops).expect("batch");
        db.sync_wal().expect("sync");
        drop(db); // "crash" without flushing
        let mut db = LsmDb::recover(vfs, maint_opts()).expect("recover");
        for i in 0..100u32 {
            assert_eq!(
                db.get(&key(i)).expect("get"),
                Some(vec![i as u8; 50]),
                "key {i} lost across recovery"
            );
        }
    }

    #[test]
    fn stats_accumulate() {
        let mut db = db_on(32 << 20);
        db.put(b"abc", b"defg").expect("put");
        db.get(b"abc").expect("get");
        db.delete(b"abc").expect("delete");
        let s = db.stats();
        assert_eq!(s.puts, 1);
        assert_eq!(s.gets, 1);
        assert_eq!(s.deletes, 1);
        assert_eq!(s.app_bytes_written, 7 + 3);
    }
}
