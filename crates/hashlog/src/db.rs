//! The hash-log database: value-log segments, in-memory index, GC.

use std::collections::{BTreeMap, VecDeque};
use std::ops::{Bound, Range};
use std::sync::Arc;

use ptsbench_cache::{
    file_tag, BlockCache, CacheKey, CacheStats, Compression, EncodeScratch, SharedBlockCache,
};
use ptsbench_core::engine::{BatchOp, EngineStats, PtsEngine, PtsError, ScanCursor, WriteBatch};
use ptsbench_core::registry::EngineKind;
use ptsbench_maint::{
    drain_forced, Admission, Drive, JobKind, MaintScheduler, MaintStats, MAX_SPACE_AMP,
};
use ptsbench_vfs::{AsyncRead, Cause, FileId, FileSlice, IoQueue, SharedIoQueue, TraceHandle, Vfs};

use crate::options::HashLogOptions;
use crate::record::Record;
use crate::{HashLogError, Result};

/// Garbage collection starts when garbage across sealed segments
/// exceeds this fraction of total log bytes.
const GC_GARBAGE_FRACTION: f64 = 0.30;

/// A sealed segment is only a GC victim once at least this fraction of
/// it is garbage (avoids rewriting mostly-live segments).
const MIN_VICTIM_GARBAGE: f64 = 0.25;

/// Cumulative engine statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HashLogStats {
    /// Put operations accepted.
    pub puts: u64,
    /// Get operations served.
    pub gets: u64,
    /// Delete operations accepted.
    pub deletes: u64,
    /// Application payload bytes written (keys + values of puts/deletes).
    pub app_bytes_written: u64,
    /// Log segments created (including the initial one).
    pub segments_created: u64,
    /// Garbage-collection rewrites performed.
    pub gc_runs: u64,
    /// Live bytes relocated by garbage collection.
    pub gc_bytes_rewritten: u64,
}

/// Where the newest record of a key lives.
#[derive(Debug, Clone, Copy)]
struct IndexEntry {
    segment: u64,
    record_offset: u64,
    record_bytes: u64,
    value_offset: u64,
    value_len: u32,
    tombstone: bool,
}

/// One log segment file.
#[derive(Debug)]
struct Segment {
    file: FileId,
    name: String,
    /// Total bytes appended.
    bytes: u64,
    /// Bytes of records that are still the newest version of their key.
    live_bytes: u64,
    /// Smallest sequence number stored here (`u64::MAX` while empty).
    min_seq: u64,
}

/// A record staged for one log append (offsets relative to the append
/// base).
struct Pending {
    key: Vec<u8>,
    seq: u64,
    tombstone: bool,
    rel_record_offset: u64,
    record_bytes: u64,
    rel_value_offset: u64,
    value_len: u32,
}

/// A slice-resumable segment-GC job — the only GC there is: the
/// victim's contents (the range that was read; a victim is sealed, so
/// the range may be kept, see `ptsbench_vfs::fs`) plus a byte cursor.
/// Each slice relocates a bounded span of records into the active
/// segment. Drained in place (maintenance off) one unbounded slice
/// covers the whole victim; paced, the victim file is deleted only when
/// the cursor reaches the end (the install step), so foreground reads of
/// not-yet-relocated records keep working between slices.
struct GcJob {
    victim: u64,
    buf: FileSlice,
    offset: usize,
    rewritten: u64,
}

const SEGMENT_PREFIX: &str = "hlog-";

fn segment_name(id: u64) -> String {
    format!("{SEGMENT_PREFIX}{id:08}.log")
}

fn segment_id(name: &str) -> Option<u64> {
    name.strip_prefix(SEGMENT_PREFIX)?
        .strip_suffix(".log")?
        .parse()
        .ok()
}

/// A KVell-style log-structured hash KV store on a simulated flash
/// stack: append-only value-log segments plus an in-memory key index.
pub struct HashLogDb {
    vfs: Vfs,
    opts: HashLogOptions,
    index: BTreeMap<Vec<u8>, IndexEntry>,
    /// Segments by id; ids grow monotonically, so iteration order is
    /// creation (age) order.
    segments: BTreeMap<u64, Segment>,
    active: u64,
    next_seq: u64,
    next_segment_id: u64,
    live_entries: u64,
    stats: HashLogStats,
    /// Shared submission queue for batched reads when
    /// `opts.tuning.queue_depth > 1`; `None` keeps the synchronous read path.
    queue: Option<SharedIoQueue>,
    /// In-memory contents of the active segment while compression is
    /// on: records accumulate here and the whole segment is written as
    /// one compressed container when it seals (volatile until then,
    /// like a memtable — `flush` seals a partial segment for
    /// durability). Always empty when compression is off.
    pending_seg: Vec<u8>,
    /// The codec's match-finder tables and the container it builds at
    /// a seal, both reused segment after segment.
    codec_scratch: EncodeScratch,
    container: Vec<u8>,
    /// Value/segment cache sized by `opts.tuning.cache_bytes`; `None` keeps
    /// the seed read path.
    cache: Option<SharedBlockCache>,
    /// Tracing context (inert unless `opts.tuning.trace` and the device has a
    /// tracer attached).
    trace: TraceHandle,
    /// Pacing source for GC jobs, present iff `opts.tuning.maint.enabled`
    /// (see [`HashLogDb::run_maintenance_slice`]); without one the
    /// triggering write drains the job in place.
    sched: Option<MaintScheduler>,
    /// The GC job in flight.
    gc: Option<GcJob>,
}

impl std::fmt::Debug for HashLogDb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HashLogDb")
            .field("segments", &self.segments.len())
            .field("entries", &self.live_entries)
            .field("next_seq", &self.next_seq)
            .finish()
    }
}

impl HashLogDb {
    /// A database with no segments yet: [`HashLogDb::open`] creates the
    /// first, [`HashLogDb::recover`] adopts the ones on the filesystem.
    fn empty(vfs: Vfs, opts: HashLogOptions) -> Self {
        opts.validate();
        let t = opts.tuning;
        let queue = (t.queue_depth > 1).then(|| vfs.io_queue(t.queue_depth).into_shared());
        let cache = (t.cache_bytes > 0).then(|| BlockCache::shared(t.cache_bytes));
        let trace = TraceHandle::from_vfs(&vfs, t.trace);
        let sched = MaintScheduler::for_config(t.maint, vfs.clock().now());
        Self {
            vfs,
            opts,
            index: BTreeMap::new(),
            segments: BTreeMap::new(),
            active: 0,
            next_seq: 1,
            next_segment_id: 0,
            live_entries: 0,
            stats: HashLogStats::default(),
            queue,
            pending_seg: Vec::new(),
            codec_scratch: EncodeScratch::default(),
            container: Vec::new(),
            cache,
            trace,
            sched,
            gc: None,
        }
    }

    /// Opens a fresh database on the filesystem.
    pub fn open(vfs: Vfs, opts: HashLogOptions) -> Result<Self> {
        let mut db = Self::empty(vfs, opts);
        db.new_segment()?;
        Ok(db)
    }

    /// Rebuilds the database from the segments on the filesystem,
    /// replaying records in global sequence order.
    pub fn recover(vfs: Vfs, opts: HashLogOptions) -> Result<Self> {
        let mut ids: Vec<u64> = vfs
            .list()
            .iter()
            .filter_map(|name| segment_id(name))
            .collect();
        ids.sort_unstable();
        let Some(&newest) = ids.last() else {
            return Err(HashLogError::Corruption(
                "no log segments to recover from".into(),
            ));
        };
        let mut db = Self::empty(vfs, opts);
        db.active = newest;
        db.next_segment_id = newest + 1;

        // Decode every record of every segment, then apply in sequence
        // order so GC-relocated records land correctly.
        let mut records: Vec<(u64, Record, u64, u64)> = Vec::new(); // (segment, record, offset, bytes)
        for &id in &ids {
            let name = segment_name(id);
            let file = db.vfs.open(&name)?;
            let size = db.vfs.size(file)?;
            // The newest segment goes on taking appends: its range is
            // gone by the end of this iteration.
            let raw = db.vfs.read_shared(file, 0, size as usize)?;
            // Compressed logs store each sealed segment as one
            // container; undo it so offsets below are logical.
            let buf = if db.opts.compression().is_active() && !raw.is_empty() {
                db.decode_segment(raw, Drive::Inline)?
            } else {
                raw
            };
            let mut offset = 0usize;
            let mut min_seq = u64::MAX;
            while offset < buf.len() {
                let (record, end) = Record::decode(&buf, offset)?;
                min_seq = min_seq.min(record.seq);
                records.push((id, record, offset as u64, (end - offset) as u64));
                offset = end;
            }
            db.segments.insert(
                id,
                Segment {
                    file,
                    name,
                    bytes: buf.len() as u64,
                    live_bytes: 0,
                    min_seq,
                },
            );
        }
        records.sort_by_key(|(_, record, _, _)| record.seq);
        for (segment, record, record_offset, record_bytes) in records {
            db.next_seq = db.next_seq.max(record.seq + 1);
            let value_offset = record_offset + Record::encoded_len(record.key.len(), 0);
            let entry = IndexEntry {
                segment,
                record_offset,
                record_bytes,
                value_offset,
                value_len: record.value_len,
                tombstone: record.tombstone,
            };
            db.apply_index_entry(record.key, entry);
        }
        // Live-byte accounting from the final index.
        for entry in db.index.values() {
            let seg = db
                .segments
                .get_mut(&entry.segment)
                .expect("segment of entry");
            seg.live_bytes += entry.record_bytes;
        }
        // A sealed container cannot take raw appends, so a compressed log
        // goes on in a fresh segment — unless the newest one is the empty
        // segment the last incarnation opened and never sealed into.
        if db.opts.compression().is_active() && db.segments[&newest].bytes > 0 {
            db.new_segment()?;
        }
        Ok(db)
    }

    /// Inserts `entry` for `key`, maintaining garbage accounting of the
    /// displaced entry (used on both the write path and recovery).
    fn apply_index_entry(&mut self, key: Vec<u8>, entry: IndexEntry) {
        let was_live = match self.index.insert(key, entry) {
            Some(old) => {
                if let Some(seg) = self.segments.get_mut(&old.segment) {
                    seg.live_bytes = seg.live_bytes.saturating_sub(old.record_bytes);
                }
                !old.tombstone
            }
            None => false,
        };
        match (was_live, entry.tombstone) {
            (false, false) => self.live_entries += 1,
            (true, true) => self.live_entries -= 1,
            _ => {}
        }
    }

    fn new_segment(&mut self) -> Result<()> {
        let id = self.next_segment_id;
        self.next_segment_id += 1;
        let name = segment_name(id);
        let file = self.vfs.create(&name)?;
        self.segments.insert(
            id,
            Segment {
                file,
                name,
                bytes: 0,
                live_bytes: 0,
                min_seq: u64::MAX,
            },
        );
        self.active = id;
        self.stats.segments_created += 1;
        Ok(())
    }

    /// Appends `buf` to the active segment: straight to the device, or
    /// into the in-memory pending buffer when compression is on (the
    /// device sees one container at seal time). A paced GC slice appends
    /// through the background write path — media bandwidth is consumed
    /// (and later destages queue behind it) but the foreground clock
    /// does not advance.
    fn append_active(&mut self, buf: &[u8], drive: Drive) -> Result<()> {
        let active = self.active;
        if self.opts.compression().is_active() {
            self.pending_seg.extend_from_slice(buf);
        } else if drive == Drive::Paced {
            self.vfs.append_bg(self.segments[&active].file, buf)?;
        } else {
            self.vfs.append(self.segments[&active].file, buf)?;
        }
        let seg = self.segments.get_mut(&active).expect("active segment");
        seg.bytes += buf.len() as u64;
        Ok(())
    }

    /// Seals the active segment — with compression the accumulated
    /// contents are compressed into one container first (charging the
    /// codec's CPU time) — makes it durable, and opens a fresh segment.
    fn seal_active(&mut self) -> Result<()> {
        let span = self.trace.begin("hashlog.seal", self.trace.current_cause());
        let result = self.seal_active_inner();
        self.trace.end(span);
        result
    }

    fn seal_active_inner(&mut self) -> Result<()> {
        let file = self.segments[&self.active].file;
        if self.opts.compression().is_active() {
            self.container.clear();
            self.opts.compression().encode_into(
                &self.pending_seg,
                &mut self.codec_scratch,
                &mut self.container,
            );
            self.vfs.clock().advance(
                self.opts
                    .compression()
                    .encode_cost_ns(self.pending_seg.len()),
            );
            // Out of space leaves the contents readable in memory.
            self.vfs.append(file, &self.container)?;
            self.pending_seg.clear();
        }
        self.vfs.fsync(file)?;
        self.new_segment()
    }

    /// Appends an encoded run of records to the active segment and
    /// indexes them, sealing the segment once it is full.
    fn append_records(&mut self, buf: &[u8], pendings: Vec<Pending>, drive: Drive) -> Result<()> {
        let active = self.active;
        let base = self.segments[&active].bytes;
        self.append_active(buf, drive)?;
        for p in pendings {
            {
                let seg = self.segments.get_mut(&active).expect("active segment");
                seg.min_seq = seg.min_seq.min(p.seq);
                seg.live_bytes += p.record_bytes;
            }
            let entry = IndexEntry {
                segment: active,
                record_offset: base + p.rel_record_offset,
                record_bytes: p.record_bytes,
                value_offset: base + p.rel_value_offset,
                value_len: p.value_len,
                tombstone: p.tombstone,
            };
            self.apply_index_entry(p.key, entry);
        }
        if self.segments[&active].bytes >= self.opts.segment_bytes {
            self.seal_active()?;
        }
        Ok(())
    }

    /// Inserts or overwrites a key.
    pub fn put(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        self.write([(key, Some(value))])
    }

    /// Deletes a key (a no-op when the key is not live).
    pub fn delete(&mut self, key: &[u8]) -> Result<()> {
        self.write([(key, None)])
    }

    /// Applies a whole batch as a single log append (the native group
    /// write path: one `append` call, one rotation/GC check).
    pub fn apply_batch(&mut self, batch: &WriteBatch) -> Result<()> {
        self.write(batch.ops().iter().map(|op| match op {
            BatchOp::Put { key, value } => (key.as_slice(), Some(value.as_slice())),
            BatchOp::Delete { key } => (key.as_slice(), None),
        }))
    }

    /// The foreground write path and its one record encoder: every op
    /// of the group (`Some(value)` is a put, `None` a delete) becomes a
    /// record of one log append, which is indexed; then garbage is
    /// collected if it is due. Deletes of keys that are not visible write
    /// nothing; a group that writes nothing appends nothing.
    fn write<'a>(
        &mut self,
        ops: impl IntoIterator<Item = (&'a [u8], Option<&'a [u8]>)>,
    ) -> Result<()> {
        let ops = ops.into_iter();
        let mut buf = Vec::new();
        let mut pendings: Vec<Pending> = Vec::with_capacity(ops.size_hint().0);
        for (key, value) in ops {
            let value_len = value.map_or(0, <[u8]>::len);
            self.stats.app_bytes_written += (key.len() + value_len) as u64;
            if value.is_some() {
                self.stats.puts += 1;
            } else {
                self.stats.deletes += 1;
                // A delete is live if the key is currently visible,
                // either in the index or earlier in this group.
                let visible_in_group = pendings
                    .iter()
                    .rev()
                    .find(|p| p.key == key)
                    .map(|p| !p.tombstone);
                let visible = visible_in_group
                    .unwrap_or_else(|| self.index.get(key).is_some_and(|e| !e.tombstone));
                if !visible {
                    continue;
                }
            }
            let seq = self.next_seq;
            self.next_seq += 1;
            let rel_record_offset = buf.len() as u64;
            buf.reserve(Record::encoded_len(key.len(), value_len) as usize);
            match value {
                Some(value) => Record::encode_put(&mut buf, seq, key, value),
                None => Record::encode_tombstone(&mut buf, seq, key),
            }
            pendings.push(Pending {
                key: key.to_vec(),
                seq,
                tombstone: value.is_none(),
                rel_record_offset,
                record_bytes: buf.len() as u64 - rel_record_offset,
                rel_value_offset: rel_record_offset + Record::encoded_len(key.len(), 0),
                value_len: value_len as u32,
            });
        }
        if buf.is_empty() {
            return Ok(());
        }
        self.append_records(&buf, pendings, Drive::Inline)?;
        self.maybe_gc()
    }

    /// Advances the virtual clock past every asynchronous command still
    /// in flight on the shared submission queue. No-op on the
    /// synchronous (`queue_depth == 1`) path. Callers that end a run
    /// must quiesce first so the simulated timeline accounts for all
    /// charged work.
    pub fn quiesce(&mut self) {
        if let Some(queue) = &self.queue {
            queue.lock().quiesce();
        }
    }

    /// Undoes a segment container: one the codec stored verbatim is a
    /// range of the file's own bytes, an LZ one is decoded. On the
    /// foreground ([`Drive::Inline`]) the decode is a traced phase and
    /// its CPU time is charged to the simulated clock; a paced GC job
    /// decodes off the foreground thread, and its device footprint is
    /// what the pacing budget meters.
    fn decode_segment(&self, raw: FileSlice, drive: Drive) -> Result<FileSlice> {
        let foreground = drive == Drive::Inline;
        let span = foreground.then(|| {
            self.trace
                .begin("hashlog.decode", self.trace.current_cause())
        });
        let data = match Compression::stored_payload(&raw) {
            Some(payload) => Some(raw.slice(raw.len() - payload.len()..raw.len())),
            None => Compression::decode(&raw).map(FileSlice::from),
        };
        if let (true, Some(data)) = (foreground, &data) {
            self.vfs
                .clock()
                .advance(Compression::decode_cost_ns(data.len()));
        }
        if let Some(span) = span {
            self.trace.end(span);
        }
        data.ok_or_else(|| HashLogError::Corruption("bad compressed segment".into()))
    }

    /// Reads the values a batch of index entries point at, in order,
    /// through the read tiers. Contents of the active segment come
    /// straight from the pending buffer (compression only). Everything
    /// else is looked up in the cache first, by the unit the cache
    /// holds: a whole decoded segment under compression (one device read
    /// serves every hot value in it), a single value without. A miss
    /// reads the device — the whole container, decoded from its range,
    /// under compression; otherwise just the value — and offers the
    /// cache its own copy of the unit. A caller with a `queue` has its
    /// uncompressed misses submitted one command per extent run, all of
    /// them in flight before the first is waited for (the parallel point
    /// reads KVell leans on). With cache and codec both off and no queue
    /// this is exactly the seed path: one device read per value.
    ///
    /// The values are copied out here, at the engine's public boundary:
    /// no range of the active segment's file outlives the call.
    fn fetch(
        &self,
        entries: &[IndexEntry],
        mut queue: Option<&mut IoQueue>,
    ) -> Result<Vec<Vec<u8>>> {
        /// What a miss needs once its unit's bytes are in: the unit's
        /// cache key and device length, and the value's place in it.
        type Miss = (CacheKey, u64, Range<usize>);
        enum Slot {
            Ready(Vec<u8>),
            Queued(AsyncRead, Miss),
        }
        let admit = |unit: FileSlice, (ckey, device_len, value): Miss| {
            if let Some(cache) = &self.cache {
                // The cache owns its bytes: a unit that stayed a range of
                // the segment would keep a deleted segment's contents alive.
                cache
                    .lock()
                    .insert(ckey, Arc::new(unit.to_vec()), device_len);
            }
            unit[value].to_vec()
        };
        let compressed = self.opts.compression().is_active();
        let mut slots = Vec::with_capacity(entries.len());
        for entry in entries {
            let seg = &self.segments[&entry.segment];
            let (offset, len) = (entry.value_offset, entry.value_len as usize);
            let in_segment = offset as usize..offset as usize + len;
            if compressed && entry.segment == self.active {
                slots.push(Slot::Ready(self.pending_seg[in_segment].to_vec()));
                continue;
            }
            let (unit_offset, value) = if compressed {
                (0, in_segment)
            } else {
                (offset, 0..len)
            };
            let ckey = (file_tag(&seg.name), unit_offset);
            if let Some(cache) = &self.cache {
                if let Some(unit) = cache.lock().get(&ckey) {
                    self.trace
                        .mark("hashlog.cache_hit", self.trace.current_cause());
                    slots.push(Slot::Ready(unit[value].to_vec()));
                    continue;
                }
            }
            let slot = if compressed {
                let disk = self.vfs.size(seg.file)?;
                let raw = self.vfs.read_shared(seg.file, 0, disk as usize)?;
                let unit = self.decode_segment(raw, Drive::Inline)?;
                Slot::Ready(admit(unit, (ckey, disk, value)))
            } else if let Some(q) = queue.as_deref_mut() {
                match self.vfs.read_runs_shared(q, seg.file, offset, len) {
                    Ok(read) => Slot::Queued(read, (ckey, len as u64, value)),
                    Err(e) => {
                        // Fail the batch without leaking the completions
                        // of the reads already submitted.
                        for slot in slots {
                            if let Slot::Queued(read, _) = slot {
                                read.into_bg(q);
                            }
                        }
                        return Err(e.into());
                    }
                }
            } else {
                let unit = self.vfs.read_shared(seg.file, offset, len)?;
                Slot::Ready(admit(unit, (ckey, len as u64, value)))
            };
            slots.push(slot);
        }
        let values = slots.into_iter().map(|slot| match slot {
            Slot::Ready(value) => value,
            Slot::Queued(read, miss) => {
                let q = queue.as_deref_mut().expect("queued by this call");
                admit(read.wait(q), miss)
            }
        });
        Ok(values.collect())
    }

    /// Point lookup: index probe plus (at most) one device read, never
    /// through the submission queue.
    pub fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.stats.gets += 1;
        match self.index.get(key) {
            Some(entry) if !entry.tombstone => Ok(self.fetch(&[*entry], None)?.pop()),
            _ => Ok(None),
        }
    }

    /// Streaming range scan: the index walks in key order, but every
    /// entry costs one random device read — the KVell scan trade-off.
    /// With a submission queue the cursor prefetches its reads in
    /// batches of the queue depth, overlapping their latencies.
    pub fn scan_iter(&self, start: &[u8], end: Option<&[u8]>, limit: usize) -> IndexScan<'_> {
        let range = self.index.range::<[u8], _>((
            Bound::Included(start),
            end.map_or(Bound::Unbounded, Bound::Excluded),
        ));
        IndexScan {
            db: self,
            range,
            remaining: limit,
            batch: VecDeque::new(),
            ramp: 1,
        }
    }

    /// Range scan materialized into a vector (see [`HashLogDb::scan_iter`]).
    pub fn scan(
        &mut self,
        start: &[u8],
        end: Option<&[u8]>,
        limit: usize,
    ) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        self.scan_iter(start, end, limit).collect()
    }

    /// Makes the active segment durable. With compression, any pending
    /// contents are sealed into a (possibly short) container first: the
    /// pending buffer is volatile, so durability requires sealing.
    pub fn flush(&mut self) -> Result<()> {
        if self.opts.compression().is_active() && !self.pending_seg.is_empty() {
            return self.seal_active();
        }
        let file = self.segments[&self.active].file;
        self.vfs.fsync(file)?;
        Ok(())
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> HashLogStats {
        self.stats
    }

    /// Cache traffic counters; `None` when the cache is disabled.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(|c| c.lock().stats())
    }

    /// Number of live entries.
    pub fn len(&self) -> u64 {
        self.live_entries
    }

    /// Whether the store holds no live entries.
    pub fn is_empty(&self) -> bool {
        self.live_entries == 0
    }

    /// Number of log segments currently on the filesystem.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Bytes held by records that are no longer the newest version of
    /// their key.
    pub fn garbage_bytes(&self) -> u64 {
        self.segments.values().map(|s| s.bytes - s.live_bytes).sum()
    }

    /// The underlying filesystem.
    pub fn vfs(&self) -> &Vfs {
        &self.vfs
    }

    /// Whether total garbage across the log has crossed the collection
    /// trigger ([`GC_GARBAGE_FRACTION`]).
    fn gc_due(&self) -> bool {
        let total: u64 = self.segments.values().map(|s| s.bytes).sum();
        total > 0 && (self.garbage_bytes() as f64) >= GC_GARBAGE_FRACTION * total as f64
    }

    /// The sealed segment with the highest garbage ratio, if that ratio
    /// clears [`MIN_VICTIM_GARBAGE`].
    fn select_victim(&self) -> Option<u64> {
        self.segments
            .iter()
            .filter(|(id, _)| **id != self.active)
            .max_by(|(_, a), (_, b)| {
                let ga = (a.bytes - a.live_bytes) as f64 / a.bytes.max(1) as f64;
                let gb = (b.bytes - b.live_bytes) as f64 / b.bytes.max(1) as f64;
                ga.total_cmp(&gb)
            })
            .map(|(id, s)| (*id, (s.bytes - s.live_bytes) as f64 / s.bytes.max(1) as f64))
            .filter(|(_, ratio)| *ratio >= MIN_VICTIM_GARBAGE)
            .map(|(id, _)| id)
    }

    // ---- Maintenance: one GC job, two drives ---------------------------
    //
    // A job reads its victim once, then relocates the records that are
    // still current into the active segment, re-checking liveness
    // against the index as it goes.
    //
    // Maintenance off (`Drive::Inline`): the write that crosses the
    // garbage trigger drains the job in place — a blocking read, one
    // unbounded slice, blocking appends, and the victim reclaimed
    // *before* its live records are re-appended (so the append can reuse
    // the space). Maintenance on (`Drive::Paced`): `maybe_gc` enqueues a
    // `SegmentGc` ticket and the harness pumps `run_maintenance_slice`
    // between foreground ops — a detached read, byte-bounded slices
    // paced by the scheduler's token bucket, and the victim deleted only
    // at the final install, so reads of not-yet-moved records keep
    // working throughout. Space-amp urgency (`MAX_SPACE_AMP`) forces
    // slices past the pacing gate.

    /// Collects the worst sealed segment when total garbage crosses
    /// [`GC_GARBAGE_FRACTION`]: in place when maintenance is off, as a
    /// scheduled job when it is on.
    fn maybe_gc(&mut self) -> Result<()> {
        if !self.gc_due() {
            return Ok(());
        }
        if let Some(sched) = self.sched.as_mut() {
            sched.enqueue(JobKind::SegmentGc);
            return Ok(());
        }
        let Some(victim) = self.select_victim() else {
            return Ok(());
        };
        let _cause = self.trace.cause(Cause::SegmentGc);
        let span = self.trace.begin("hashlog.gc", Cause::SegmentGc);
        let result = self
            .gc_start(victim, Drive::Inline)
            .and_then(|()| self.gc_slice(Drive::Inline));
        self.trace.end(span);
        result
    }

    /// Whether background-maintenance mode is on.
    pub fn maint_enabled(&self) -> bool {
        self.sched.is_some()
    }

    /// Background-maintenance counters; `None` when maintenance is off.
    pub fn maint_stats(&self) -> Option<MaintStats> {
        self.sched.as_ref().map(|s| s.stats)
    }

    /// Runs at most one bounded GC slice, if work is pending and the
    /// rate budget and device-backlog gate allow it. Returns whether
    /// any forward progress was made (callers may pump in a loop until
    /// `false`).
    pub fn run_maintenance_slice(&mut self) -> Result<bool> {
        self.maintenance_slice(false)
    }

    /// Drains every outstanding GC job to completion with forced
    /// slices. Callers that end a run must drain first so no shard ends
    /// with a half-relocated segment.
    pub fn drain_maintenance(&mut self) -> Result<()> {
        let pending =
            |db: &Self| (db.sched.as_ref()).is_some_and(|s| db.gc.is_some() || s.pending() > 0);
        drain_forced(self, pending, |db| db.maintenance_slice(true))
    }

    /// Whether measured space amplification (total log bytes over live
    /// bytes) exceeds [`MAX_SPACE_AMP`] — the Marble urgency
    /// condition that bypasses pacing.
    fn space_amp_exceeded(&self) -> bool {
        let total: u64 = self.segments.values().map(|s| s.bytes).sum();
        let live: u64 = self.segments.values().map(|s| s.live_bytes).sum();
        live > 0 && total > MAX_SPACE_AMP * live
    }

    fn maintenance_slice(&mut self, forced: bool) -> Result<bool> {
        if self.sched.is_none() {
            return Ok(false);
        }
        let forced = forced || self.space_amp_exceeded();
        let now = self.vfs.clock().now();
        let backlog = self.vfs.device_backlog_ns();
        let Some(sched) = self.sched.as_mut() else {
            return Ok(false);
        };
        let admission = sched.admit(now, backlog, forced, self.gc.is_some());
        if admission == Admission::Gated {
            return Ok(false);
        }
        // The victim read is maintenance traffic too: without the scope
        // it would land under whatever cause is current (usually none),
        // and the per-cause ledger would under-report GC reads.
        let _cause = self.trace.cause(Cause::SegmentGc);
        if let Admission::Start(kind) = admission {
            debug_assert_eq!(kind, JobKind::SegmentGc, "hashlog only schedules GC");
            let Some(victim) = self.select_victim() else {
                return Ok(false); // stale ticket: no qualifying victim
            };
            self.gc_start(victim, Drive::Paced)?;
        }
        let span = self
            .trace
            .begin(JobKind::SegmentGc.span_label(), Cause::SegmentGc);
        let result = self.gc_slice(Drive::Paced);
        self.trace.end(span);
        if let (Ok(()), Some(sched)) = (&result, self.sched.as_mut()) {
            sched.stats.slices += 1;
        }
        result.map(|()| true)
    }

    /// Starts a GC job: reads the victim's full contents. Inline, a
    /// foreground read (and decode) on the triggering op's clock; paced,
    /// through the detached background path — media bandwidth without a
    /// foreground clock charge, the foreground only feels it through
    /// device congestion.
    fn gc_start(&mut self, victim: u64, drive: Drive) -> Result<()> {
        let (file, size) = {
            let seg = &self.segments[&victim];
            (seg.file, seg.bytes)
        };
        // Victims are always sealed; with compression that means one
        // container on disk holding `size` logical bytes.
        let disk = if self.opts.compression().is_active() {
            self.vfs.size(file)?
        } else {
            size
        };
        let raw = match drive {
            Drive::Inline => self.vfs.read_shared(file, 0, disk as usize)?,
            Drive::Paced => self.vfs.read_shared_bg(file, 0, disk as usize)?,
        };
        let buf = if self.opts.compression().is_active() {
            self.decode_segment(raw, drive)?
        } else {
            raw
        };
        debug_assert_eq!(buf.len() as u64, size, "decoded victim length");
        drive.charge(&mut self.sched, self.vfs.clock().now(), disk, true);
        self.gc = Some(GcJob {
            victim,
            buf,
            offset: 0,
            rewritten: 0,
        });
        Ok(())
    }

    /// Relocates one byte-bounded span of the victim into the active
    /// segment. Liveness is re-checked against the index *at slice
    /// time*, so records overwritten by foreground ops between slices
    /// are dropped rather than resurrected. Index and accounting edits
    /// happen in the same slice as the append, so foreground ops never
    /// observe a half-moved record. The final slice installs the job:
    /// victim removed from the log and deleted on disk.
    fn gc_slice(&mut self, drive: Drive) -> Result<()> {
        let slice_bytes = drive.slice_bytes(&self.sched);
        let GcJob {
            victim,
            buf,
            mut offset,
            rewritten,
        } = self.gc.take().expect("job in progress");
        let begin = offset;
        let mut out = Vec::new();
        let mut pendings = Vec::new();
        while offset < buf.len() && ((offset - begin) as u64) < slice_bytes {
            let (record, end) = Record::decode(&buf, offset)?;
            let record_bytes = (end - offset) as u64;
            let current = self
                .index
                .get(&record.key)
                .is_some_and(|e| e.segment == victim && e.record_offset == offset as u64);
            if current {
                if record.tombstone {
                    // A tombstone can be dropped once no other segment
                    // holds records older than it (nothing left to
                    // shadow on recovery).
                    let blocked = self
                        .segments
                        .iter()
                        .any(|(id, s)| *id != victim && s.min_seq < record.seq);
                    if !blocked {
                        self.index.remove(&record.key);
                        offset = end;
                        continue;
                    }
                }
                let rel_record_offset = out.len() as u64;
                out.extend_from_slice(&buf[offset..end]);
                pendings.push(Pending {
                    rel_value_offset: rel_record_offset + Record::encoded_len(record.key.len(), 0),
                    key: record.key,
                    seq: record.seq,
                    tombstone: record.tombstone,
                    rel_record_offset,
                    record_bytes,
                    value_len: record.value_len,
                });
            }
            offset = end;
        }
        let out_len = out.len() as u64;
        // An inline job (one unbounded slice) reclaims the victim before
        // re-appending; with the victim gone the re-index below displaces
        // nothing, so its accounting is a plain insert.
        if drive == Drive::Inline {
            self.gc_reclaim(victim, rewritten + out_len)?;
        }
        if !out.is_empty() {
            self.append_records(&out, pendings, drive)?;
        }
        drive.charge(&mut self.sched, self.vfs.clock().now(), out_len, false);
        if offset < buf.len() {
            self.gc = Some(GcJob {
                victim,
                buf,
                offset,
                rewritten: rewritten + out_len,
            });
        } else if drive == Drive::Paced {
            // Install: the whole victim is relocated; drop the file.
            self.gc_reclaim(victim, rewritten + out_len)?;
            drive.installed(&mut self.sched);
        }
        Ok(())
    }

    /// Removes a collected victim from the log and deletes its file.
    fn gc_reclaim(&mut self, victim: u64, rewritten: u64) -> Result<()> {
        self.stats.gc_runs += 1;
        self.stats.gc_bytes_rewritten += rewritten;
        let name = self.segments.remove(&victim).expect("victim segment").name;
        Ok(self.vfs.delete(&name)?)
    }
}

/// Streaming cursor returned by [`HashLogDb::scan_iter`].
pub struct IndexScan<'a> {
    db: &'a HashLogDb,
    range: std::collections::btree_map::Range<'a, Vec<u8>, IndexEntry>,
    remaining: usize,
    /// Entries already fetched (or the error that ended the scan).
    batch: VecDeque<Result<(Vec<u8>, Vec<u8>)>>,
    /// Prefetch ramp: batches start at one read and double towards the
    /// queue depth, so a scan that stops after a few entries is not
    /// charged a full depth of prefetched reads it never consumes.
    /// Stays at one without a queue.
    ramp: usize,
}

impl IndexScan<'_> {
    /// Pulls a ramping batch of live entries from the index and fetches
    /// their values as one submission round.
    fn refill(&mut self) {
        let db = self.db;
        let _cause = db.trace.cause(Cause::Scan);
        // Queued prefetch reads values at device offsets, which only
        // exist on the uncompressed layout.
        let queued = !db.opts.compression().is_active();
        let mut queue = db.queue.as_ref().filter(|_| queued).map(|q| q.lock());
        let depth = queue.as_ref().map_or(1, |q| q.depth().max(1));
        let take = self.ramp.min(depth);
        self.ramp = (take * 2).min(depth);
        let (keys, entries): (Vec<&Vec<u8>>, Vec<IndexEntry>) = self
            .range
            .by_ref()
            .filter(|(_, entry)| !entry.tombstone)
            .take(take.min(self.remaining))
            .unzip();
        match db.fetch(&entries, queue.as_deref_mut()) {
            Ok(values) => {
                let items = keys.into_iter().cloned().zip(values);
                self.batch.extend(items.map(Ok));
            }
            Err(e) => self.batch.push_back(Err(e)),
        }
    }
}

impl Iterator for IndexScan<'_> {
    type Item = Result<(Vec<u8>, Vec<u8>)>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.remaining == 0 {
            return None;
        }
        if self.batch.is_empty() {
            self.refill();
        }
        let item = self.batch.pop_front();
        match item {
            Some(Ok(_)) => self.remaining -= 1,
            // An error, or the index ran out: the scan is over.
            _ => self.remaining = 0,
        }
        item
    }
}

/// The hash-log engine behind the uniform [`PtsEngine`] API.
pub(crate) struct HashLogEngine(pub HashLogDb);

impl PtsEngine for HashLogEngine {
    fn put(&mut self, key: &[u8], value: &[u8]) -> std::result::Result<(), PtsError> {
        Ok(self.0.put(key, value)?)
    }

    fn get(&mut self, key: &[u8]) -> std::result::Result<Option<Vec<u8>>, PtsError> {
        Ok(self.0.get(key)?)
    }

    fn delete(&mut self, key: &[u8]) -> std::result::Result<(), PtsError> {
        Ok(self.0.delete(key)?)
    }

    fn apply_batch(&mut self, batch: &WriteBatch) -> std::result::Result<(), PtsError> {
        Ok(self.0.apply_batch(batch)?)
    }

    fn scan(
        &mut self,
        start: &[u8],
        end: Option<&[u8]>,
        limit: usize,
    ) -> std::result::Result<ScanCursor<'_>, PtsError> {
        Ok(ScanCursor::new(
            self.0
                .scan_iter(start, end, limit)
                .map(|item| item.map_err(PtsError::from)),
        ))
    }

    fn flush(&mut self) -> std::result::Result<(), PtsError> {
        Ok(self.0.flush()?)
    }

    fn drain_io(&mut self) {
        self.0.quiesce();
    }

    fn run_maintenance_slice(&mut self) -> std::result::Result<bool, PtsError> {
        Ok(self.0.run_maintenance_slice()?)
    }

    fn drain_maintenance(&mut self) -> std::result::Result<(), PtsError> {
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
                ("segments", self.0.segment_count() as u64),
                ("entries", self.0.len()),
                ("garbage_bytes", self.0.garbage_bytes()),
                ("gc_runs", s.gc_runs),
                ("gc_bytes_rewritten", s.gc_bytes_rewritten),
            ],
        }
    }

    fn vfs(&self) -> &Vfs {
        self.0.vfs()
    }

    fn kind(&self) -> EngineKind {
        crate::register()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptsbench_ssd::{DeviceConfig, DeviceProfile, Ssd};
    use ptsbench_vfs::{EngineTuning, VfsOptions};

    fn vfs() -> Vfs {
        let ssd = Ssd::new(DeviceConfig::from_profile(DeviceProfile::ssd1(), 64 << 20));
        Vfs::whole_device(ssd.into_shared(), VfsOptions::default())
    }

    fn key(i: u32) -> Vec<u8> {
        format!("key{i:06}").into_bytes()
    }

    #[test]
    fn basic_ops_round_trip() {
        let mut db = HashLogDb::open(vfs(), HashLogOptions::small()).expect("open");
        db.put(b"a", b"1").expect("put");
        db.put(b"b", b"2").expect("put");
        db.put(b"a", b"1'").expect("overwrite");
        assert_eq!(db.get(b"a").expect("get"), Some(b"1'".to_vec()));
        assert_eq!(db.get(b"b").expect("get"), Some(b"2".to_vec()));
        assert_eq!(db.get(b"c").expect("get"), None);
        assert_eq!(db.len(), 2);
        db.delete(b"a").expect("delete");
        assert_eq!(db.get(b"a").expect("get"), None);
        assert_eq!(db.len(), 1);
        db.delete(b"a").expect("idempotent delete");
        assert_eq!(db.len(), 1);
        assert!(
            db.garbage_bytes() > 0,
            "overwrite + delete must leave garbage"
        );
    }

    #[test]
    fn scan_streams_in_key_order() {
        let mut db = HashLogDb::open(vfs(), HashLogOptions::small()).expect("open");
        for i in (0..50u32).rev() {
            db.put(&key(i), format!("v{i}").as_bytes()).expect("put");
        }
        db.delete(&key(7)).expect("delete");
        let all: Vec<_> = db.scan(&key(5), Some(&key(10)), 100).expect("scan");
        let keys: Vec<Vec<u8>> = all.iter().map(|(k, _)| k.clone()).collect();
        assert_eq!(keys, vec![key(5), key(6), key(8), key(9)]);
        let limited = db.scan(b"", None, 3).expect("scan");
        assert_eq!(limited.len(), 3);
        // Streaming: pulling two items does not drain the cursor.
        let mut cursor = db.scan_iter(b"", None, usize::MAX);
        assert!(cursor.next().is_some());
        assert!(cursor.next().is_some());
    }

    #[test]
    fn rotation_and_gc_bound_the_log() {
        let mut db = HashLogDb::open(vfs(), HashLogOptions::small()).expect("open");
        // Overwrite a small key set far beyond a segment's capacity:
        // without GC the log would hold every version.
        for round in 0..40u32 {
            for i in 0..32u32 {
                db.put(&key(i), &vec![round as u8; 512]).expect("put");
            }
        }
        assert!(db.stats().segments_created > 2, "log must have rotated");
        assert!(db.stats().gc_runs > 0, "churn must trigger GC");
        let total: u64 = db.segments.values().map(|s| s.bytes).sum();
        let live: u64 = db.segments.values().map(|s| s.live_bytes).sum();
        assert!(
            total < 4 * live.max(1),
            "GC must bound garbage: total {total} vs live {live}"
        );
        for i in 0..32u32 {
            assert_eq!(
                db.get(&key(i)).expect("get"),
                Some(vec![39u8; 512]),
                "key {i}"
            );
        }
    }

    #[test]
    fn background_gc_bounds_the_log_and_preserves_data() {
        use ptsbench_maint::MaintConfig;
        let mut db = HashLogDb::open(
            vfs(),
            HashLogOptions {
                tuning: EngineTuning::for_device(0).with_maint(MaintConfig::enabled()),
                ..HashLogOptions::small()
            },
        )
        .expect("open");
        assert!(db.maint_enabled());
        // Same churn as `rotation_and_gc_bound_the_log`, but the write
        // path only schedules; slices pumped between ops do the work.
        for round in 0..40u32 {
            for i in 0..32u32 {
                db.put(&key(i), &vec![round as u8; 512]).expect("put");
                while db.run_maintenance_slice().expect("slice") {}
            }
        }
        db.drain_maintenance().expect("drain");
        let stats = db.maint_stats().expect("maintenance stats");
        assert!(stats.jobs > 0, "churn must schedule GC jobs");
        assert_eq!(stats.jobs, stats.installs, "each job installs once");
        assert!(stats.slices >= stats.jobs, "jobs run in bounded slices");
        assert!(stats.bytes_read > 0 && stats.bytes_written > 0);
        assert_eq!(db.stats().gc_runs, stats.jobs, "engine GC counter agrees");
        let total: u64 = db.segments.values().map(|s| s.bytes).sum();
        let live: u64 = db.segments.values().map(|s| s.live_bytes).sum();
        assert!(
            total < 4 * live.max(1),
            "background GC must bound garbage: total {total} vs live {live}"
        );
        for i in 0..32u32 {
            assert_eq!(
                db.get(&key(i)).expect("get"),
                Some(vec![39u8; 512]),
                "key {i}"
            );
        }
    }

    #[test]
    fn recovery_replays_in_sequence_order() {
        let v = vfs();
        {
            let mut db = HashLogDb::open(v.clone(), HashLogOptions::small()).expect("open");
            for round in 0..20u32 {
                for i in 0..24u32 {
                    db.put(&key(i), format!("r{round}-{i}").as_bytes())
                        .expect("put");
                }
            }
            db.delete(&key(3)).expect("delete");
            db.flush().expect("flush");
        }
        let mut db = HashLogDb::recover(v, HashLogOptions::small()).expect("recover");
        assert_eq!(
            db.get(&key(3)).expect("get"),
            None,
            "tombstone survives recovery"
        );
        for i in (0..24u32).filter(|i| *i != 3) {
            assert_eq!(
                db.get(&key(i)).expect("get"),
                Some(format!("r19-{i}").into_bytes()),
                "newest version of key {i} must win"
            );
        }
        assert_eq!(db.len(), 23);
        db.put(b"post-crash", b"ok").expect("put after recovery");
        assert_eq!(db.get(b"post-crash").expect("get"), Some(b"ok".to_vec()));
    }

    #[test]
    fn repeated_recoveries_leave_the_segment_set_alone() {
        // Under compression the newest segment on disk is the empty one
        // the last incarnation never sealed into: adopted as a sealed
        // segment, with another opened beside it, it leaked one empty
        // file per recovery.
        for level in [0, 1] {
            let opts = HashLogOptions {
                tuning: EngineTuning::for_device(0).with_compression_level(level),
                ..HashLogOptions::small()
            };
            let v = vfs();
            let mut db = HashLogDb::open(v.clone(), opts).expect("open");
            for i in 0..50u32 {
                db.put(&key(i), format!("v{i}").repeat(40).as_bytes())
                    .expect("put");
            }
            db.flush().expect("flush");
            drop(db);
            let mut first = None;
            for round in 0..4 {
                let mut db = HashLogDb::recover(v.clone(), opts).expect("recover");
                let mut files = v.list();
                files.sort();
                let shape = (db.segment_count(), files);
                assert_eq!(
                    first.get_or_insert_with(|| shape.clone()),
                    &shape,
                    "recovery {round}, level {level}"
                );
                for i in 0..50u32 {
                    assert_eq!(
                        db.get(&key(i)).expect("get"),
                        Some(format!("v{i}").repeat(40).into_bytes())
                    );
                }
            }
            // The segment that was kept takes the next writes.
            let mut db = HashLogDb::recover(v.clone(), opts).expect("recover");
            db.put(b"post", b"ok").expect("put");
            db.flush().expect("flush");
            drop(db);
            let mut db = HashLogDb::recover(v, opts).expect("recover");
            assert_eq!(db.get(b"post").expect("get"), Some(b"ok".to_vec()));
            assert_eq!(db.len(), 51);
        }
    }

    #[test]
    fn batch_is_one_append_and_matches_individual_ops() {
        let mut a = HashLogDb::open(vfs(), HashLogOptions::small()).expect("open a");
        let mut b = HashLogDb::open(vfs(), HashLogOptions::small()).expect("open b");
        let mut batch = WriteBatch::new();
        for i in 0..20u32 {
            batch.put(&key(i), b"v");
            a.put(&key(i), b"v").expect("put");
        }
        batch.delete(&key(5));
        batch.delete(b"never-existed");
        a.delete(&key(5)).expect("delete");
        a.delete(b"never-existed").expect("delete");
        b.apply_batch(&batch).expect("batch");
        assert_eq!(
            a.scan(b"", None, 100).expect("scan a"),
            b.scan(b"", None, 100).expect("scan b")
        );
        assert_eq!(a.len(), b.len());
    }

    #[test]
    fn queued_scans_match_sync_scans_and_run_faster() {
        let opts_deep = HashLogOptions {
            tuning: EngineTuning::for_device(0).with_queue_depth(8),
            ..HashLogOptions::small()
        };
        let mut sync_db = HashLogDb::open(vfs(), HashLogOptions::small()).expect("open");
        let mut deep_db = HashLogDb::open(vfs(), opts_deep).expect("open");
        for i in 0..256u32 {
            sync_db.put(&key(i), &vec![i as u8; 800]).expect("put");
            deep_db.put(&key(i), &vec![i as u8; 800]).expect("put");
        }
        assert!(deep_db.queue.is_some(), "depth 8 must open a queue");

        let scan_cost = |db: &mut HashLogDb| {
            let clock = db.vfs().clock();
            let t0 = clock.now();
            let items = db.scan(b"", None, usize::MAX).expect("scan");
            (items, clock.now() - t0)
        };
        let (sync_items, sync_cost) = scan_cost(&mut sync_db);
        let (deep_items, deep_cost) = scan_cost(&mut deep_db);
        assert_eq!(
            sync_items, deep_items,
            "queued scans must not change results"
        );
        assert_eq!(sync_items.len(), 256);
        assert!(
            deep_cost * 2 < sync_cost,
            "QD=8 parallel point reads must overlap latencies: {deep_cost} vs {sync_cost}"
        );
    }

    #[test]
    fn compressed_log_round_trips_gc_and_recovery() {
        let opts = HashLogOptions {
            tuning: EngineTuning::for_device(0).with_compression_level(3),
            ..HashLogOptions::small()
        };
        let v = vfs();
        {
            let mut db = HashLogDb::open(v.clone(), opts).expect("open");
            // Repetitive values over a churning key set: segments seal,
            // GC rewrites, and everything must survive the codec.
            for round in 0..40u32 {
                for i in 0..32u32 {
                    db.put(&key(i), format!("r{round}").repeat(128).as_bytes())
                        .expect("put");
                }
            }
            assert!(db.stats().segments_created > 2, "log must have rotated");
            assert!(db.stats().gc_runs > 0, "churn must trigger GC");
            for i in 0..32u32 {
                assert_eq!(
                    db.get(&key(i)).expect("get"),
                    Some("r39".repeat(128).into_bytes()),
                    "key {i}"
                );
            }
            // Sealed containers must be smaller than their contents.
            let logical: u64 = db.segments.values().map(|s| s.bytes).sum();
            let on_disk: u64 = db
                .segments
                .values()
                .map(|s| db.vfs.size(s.file).expect("size"))
                .sum();
            assert!(
                on_disk < logical / 2,
                "repetitive data must shrink: {on_disk} vs {logical}"
            );
            db.flush().expect("flush seals the partial segment");
        }
        let mut db = HashLogDb::recover(v, opts).expect("recover");
        for i in 0..32u32 {
            assert_eq!(
                db.get(&key(i)).expect("get"),
                Some("r39".repeat(128).into_bytes()),
                "key {i} after recovery"
            );
        }
        db.put(b"post", b"ok").expect("put after recovery");
        assert_eq!(db.get(b"post").expect("get"), Some(b"ok".to_vec()));
    }

    #[test]
    fn value_cache_absorbs_repeated_gets() {
        let mut db = HashLogDb::open(
            vfs(),
            HashLogOptions {
                tuning: EngineTuning::for_device(0).with_cache_bytes(1 << 20),
                ..HashLogOptions::small()
            },
        )
        .expect("open");
        for i in 0..200u32 {
            db.put(&key(i), &[9u8; 400]).expect("put");
        }
        for i in 0..40u32 {
            db.get(&key(i)).expect("warm");
        }
        let before = db.vfs().ssd().lock().smart().host_pages_read;
        for i in 0..40u32 {
            assert!(db.get(&key(i)).expect("get").is_some());
        }
        let after = db.vfs().ssd().lock().smart().host_pages_read;
        assert_eq!(after, before, "second pass must be all cache hits");
        let stats = db.cache_stats().expect("cache enabled");
        assert!(stats.hits >= 40, "hits: {}", stats.hits);
        let plain = HashLogDb::open(vfs(), HashLogOptions::small()).expect("open");
        assert!(plain.cache_stats().is_none(), "off by default");
    }

    #[test]
    fn segment_cache_serves_compressed_lookups_with_one_read() {
        let mut db = HashLogDb::open(
            vfs(),
            HashLogOptions {
                tuning: EngineTuning::for_device(0)
                    .with_cache_bytes(4 << 20)
                    .with_compression_level(3),
                ..HashLogOptions::small()
            },
        )
        .expect("open");
        for i in 0..200u32 {
            db.put(&key(i), format!("v{i}").repeat(40).as_bytes())
                .expect("put");
        }
        db.flush().expect("seal");
        // First lookup faults the whole decoded segment in; subsequent
        // lookups of *different* keys in the same segment are hits.
        db.get(&key(0)).expect("fault in");
        let before = db.vfs().ssd().lock().smart().host_pages_read;
        let mut served = 0;
        for i in 1..50u32 {
            if db.get(&key(i)).expect("get").is_some() {
                served += 1;
            }
        }
        assert_eq!(served, 49);
        let after = db.vfs().ssd().lock().smart().host_pages_read;
        // A few keys may live in other (uncached) segments; the bulk
        // must be served from the cached decoded segments.
        let stats = db.cache_stats().expect("cache enabled");
        assert!(stats.hits > 20, "hits: {}", stats.hits);
        assert!(
            after - before < 49,
            "most lookups must skip the device, read {} pages",
            after - before
        );
    }

    #[test]
    fn out_of_space_surfaces() {
        let ssd = Ssd::new(DeviceConfig::from_profile(DeviceProfile::ssd1(), 16 << 20));
        let v = Vfs::whole_device(ssd.into_shared(), VfsOptions::default());
        let mut db = HashLogDb::open(v, HashLogOptions::small()).expect("open");
        let mut hit = false;
        for i in 0..10_000u32 {
            match db.put(&key(i), &[0u8; 4096]) {
                Ok(()) => {}
                Err(e) => {
                    assert!(e.is_out_of_space(), "unexpected error: {e}");
                    hit = true;
                    break;
                }
            }
        }
        assert!(
            hit,
            "a 16 MiB partition cannot absorb 40 MB of distinct puts"
        );
    }
}
