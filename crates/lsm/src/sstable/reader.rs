//! SSTable reading: point lookups via bloom + index, full scans for
//! compaction and range queries.
//!
//! Nothing here copies table bytes on its way through. A block or a
//! readahead window is a [`FileSlice`] — a shared range of the table
//! file's own contents (or, for a compressed table, of the buffer the
//! codec decoded into) — and a scan is a merge [`Source`] that lends
//! each entry as slices of the window it holds ([`Lent`]): one shared
//! handle per window, none per entry. Bytes become owned vectors only
//! where the public API promises them: the value `get` returns,
//! `last_key`, and the copy the block cache keeps (so that a cached
//! block can never pin the contents of a deleted table).

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ptsbench_cache::{file_tag, Compression, SharedBlockCache};
use ptsbench_vfs::{
    cmp_keys, touch_strided, FileId, FileSlice, SharedIoQueue, StoreError, TraceHandle, Vfs,
};

use crate::bloom::BloomFilter;
use crate::iter::{Lent, Source};
use crate::sstable::format::{
    decode_entry, entry_ranges, BlockIndex, EntryRanges, Footer, IndexEntry, ENTRY_HEADER_LEN,
    FOOTER_LEN,
};
use crate::Result;

/// Shared bloom-filter traffic counters.
///
/// The owning database hands the same handle to every reader it opens,
/// so the counts survive readers being dropped when compaction retires
/// their tables.
#[derive(Debug, Default)]
pub(crate) struct BloomCounters {
    /// Point lookups that consulted a bloom filter.
    pub probes: AtomicU64,
    /// Probes answered "definitely absent" (block read avoided).
    pub negatives: AtomicU64,
    /// Probes that passed the filter but found no key in the table.
    pub false_positives: AtomicU64,
}

/// An open SSTable: index and bloom cached in memory (as RocksDB pins
/// index/filter blocks), data blocks read through the filesystem on
/// demand (charging simulated device reads).
///
/// When the owning database runs with an I/O queue depth above 1 it
/// threads a [`SharedIoQueue`] into every reader; sequential scans then
/// issue their readahead chunks as *batched submissions* of up to the
/// queue depth, overlapping the per-command base latencies that the
/// synchronous path pays serially.
pub struct SstableReader {
    vfs: Vfs,
    file: FileId,
    name: String,
    /// Decoded in place: the first keys are ranges of the index block
    /// as it was read.
    index: BlockIndex,
    bloom: Option<BloomFilter>,
    entries: u64,
    file_bytes: u64,
    queue: Option<SharedIoQueue>,
    /// Block codec the table was written with (from the footer tag).
    compression: Compression,
    /// Shared block cache consulted by the point-lookup path. Scans
    /// bypass it deliberately (RocksDB's `fill_cache = false` for
    /// compaction reads) so one compaction cannot flush the working set.
    cache: Option<SharedBlockCache>,
    /// Stable cache tag derived from the file *name* (vfs ids are
    /// reused after deletion).
    cache_tag: u64,
    blooms: Option<Arc<BloomCounters>>,
    /// Tracing context (inert by default; attached by the database).
    trace: TraceHandle,
}

impl std::fmt::Debug for SstableReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SstableReader")
            .field("name", &self.name)
            .field("blocks", &self.index.entries.len())
            .field("entries", &self.entries)
            .finish()
    }
}

impl SstableReader {
    /// Attaches the database's shared block cache (point lookups only).
    pub(crate) fn with_cache(mut self, cache: Option<SharedBlockCache>) -> Self {
        self.cache = cache;
        self
    }

    /// Attaches the database's shared bloom traffic counters.
    pub(crate) fn with_blooms(mut self, blooms: Option<Arc<BloomCounters>>) -> Self {
        self.blooms = blooms;
        self
    }

    /// Attaches the database's tracing context (block-load and
    /// cache-hit spans on the point-lookup path).
    pub fn with_trace(mut self, trace: TraceHandle) -> Self {
        self.trace = trace;
        self
    }

    /// Opens a table by name, loading footer, index and bloom filter.
    /// `blocking` says whose reads these are: the foreground's, or a
    /// background thread's (the flush/compaction install path), which
    /// consume bandwidth without advancing the simulated clock. `queue`
    /// is the I/O queue scans batch their window reads through.
    pub fn open(
        vfs: Vfs,
        name: &str,
        blocking: bool,
        queue: Option<SharedIoQueue>,
    ) -> Result<Self> {
        let file = vfs.open(name)?;
        let read = |off: u64, len: usize| {
            if blocking {
                vfs.read_shared(file, off, len)
            } else {
                vfs.read_shared_bg(file, off, len)
            }
        };
        let file_bytes = vfs.size(file)?;
        if (file_bytes as usize) < FOOTER_LEN {
            return Err(StoreError::Corruption(format!(
                "{name}: too small ({file_bytes} bytes)"
            )));
        }
        let footer_buf = read(file_bytes - FOOTER_LEN as u64, FOOTER_LEN)?;
        let footer = Footer::decode(&footer_buf)?;
        let index = BlockIndex::decode(read(footer.index_off, footer.index_len as usize)?)?;
        let bloom = if footer.bloom_len > 0 {
            let bloom_buf = read(footer.bloom_off, footer.bloom_len as usize)?;
            Some(
                BloomFilter::decode(&bloom_buf)
                    .ok_or_else(|| StoreError::Corruption(format!("{name}: bad bloom")))?,
            )
        } else {
            None
        };
        let trace = TraceHandle::from_vfs(&vfs, false);
        Ok(Self {
            vfs,
            file,
            cache_tag: file_tag(name),
            name: name.to_string(),
            index,
            bloom,
            entries: footer.entries,
            file_bytes,
            queue,
            compression: Compression::from_level(footer.reserved.min(255) as u8),
            cache: None,
            blooms: None,
            trace,
        })
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Entry count.
    pub fn entries(&self) -> u64 {
        self.entries
    }

    /// File size in bytes.
    pub fn file_bytes(&self) -> u64 {
        self.file_bytes
    }

    /// Smallest key in the table (from the cached index; no I/O).
    pub fn first_key(&self) -> Option<Vec<u8>> {
        let first = self.index.entries.first()?;
        Some(self.index.first_key(first).to_vec())
    }

    /// Largest key in the table (reads the final data block).
    pub(crate) fn last_key(&self) -> Result<Option<Vec<u8>>> {
        let Some(block) = self.index.entries.last() else {
            return Ok(None);
        };
        let buf = self.load_block(block)?;
        let mut pos = 0;
        let mut last = None;
        for _ in 0..block.entries {
            let (k, _, next) = decode_entry(&buf, pos)?;
            last = Some(k.to_vec());
            pos = next;
        }
        Ok(last)
    }

    /// Loads one data block on the foreground point-lookup path: the
    /// shared cache is consulted first; a miss reads the device, undoes
    /// the codec, and offers a copy of the uncompressed block for
    /// admission.
    fn load_block(&self, block: &IndexEntry) -> Result<FileSlice> {
        let key = (self.cache_tag, block.offset);
        if let Some(cache) = &self.cache {
            if let Some(data) = cache.lock().get(&key) {
                self.trace.mark("lsm.cache_hit", self.trace.current_cause());
                return Ok(data.into());
            }
        }
        let span = self
            .trace
            .begin("lsm.block_load", self.trace.current_cause());
        let raw = self
            .vfs
            .read_shared(self.file, block.offset, block.len as usize)?;
        let data = decode_window(self, raw, true).ok_or_else(|| {
            StoreError::Corruption(format!("{}: bad compressed block", self.name))
        })?;
        if let Some(cache) = &self.cache {
            // The cache owns its bytes: a block that stayed a range of
            // the table would keep a deleted table's contents alive.
            cache
                .lock()
                .insert(key, Arc::new(data.to_vec()), block.len as u64);
        }
        self.trace.end(span);
        Ok(data)
    }

    fn count(counter: Option<&AtomicU64>) {
        if let Some(c) = counter {
            c.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Point lookup, copied out: `get_shared` with the value's bytes in
    /// a `Vec` of their own.
    pub fn get(&self, key: &[u8]) -> Result<Option<Option<Vec<u8>>>> {
        Ok(self.get_shared(key)?.map(|v| v.map(|v| v.to_vec())))
    }

    /// Point lookup. `None` = key not in this table; `Some(None)` =
    /// tombstone; `Some(Some(v))` = live value, a range of the data
    /// block the lookup loaded: the cache's copy, the table's own bytes,
    /// or the block decoded from them.
    pub(crate) fn get_shared(&self, key: &[u8]) -> Result<Option<Option<FileSlice>>> {
        let mut bloom_passed = false;
        if let Some(bloom) = &self.bloom {
            Self::count(self.blooms.as_deref().map(|b| &b.probes));
            if !bloom.may_contain(key) {
                Self::count(self.blooms.as_deref().map(|b| &b.negatives));
                return Ok(None);
            }
            bloom_passed = true;
        }
        let miss = |this: &Self| {
            if bloom_passed {
                Self::count(this.blooms.as_deref().map(|b| &b.false_positives));
            }
        };
        // Last block whose first key <= key.
        let idx = self.index.blocks_from(key);
        if idx == 0 {
            miss(self);
            return Ok(None);
        }
        let block = &self.index.entries[idx - 1];
        let buf = self.load_block(block)?;
        let bytes: &[u8] = &buf;
        let mut pos = 0;
        for _ in 0..block.entries {
            let (k, v, next) = entry_ranges(bytes, pos)?;
            let order = cmp_keys(&bytes[k], key);
            if order.is_eq() {
                return Ok(Some(v.map(|v| buf.slice(v))));
            }
            if order.is_gt() {
                break;
            }
            pos = next;
        }
        miss(self);
        Ok(None)
    }

    /// The container of the stored-mode data block that begins with the
    /// entry whose key starts at `window[key_at..]`, when `window` is a
    /// window a scan of this table lent that entry from: a range of the
    /// table's own bytes, found by offset arithmetic against the index,
    /// without a device read. `None` for any other entry: one mid-block,
    /// one of another table or of an LZ block (decoded into a buffer of
    /// its own), or any entry of a table written without the codec.
    pub fn stored_block_at(&self, window: &FileSlice, key_at: usize) -> Option<FileSlice> {
        if !self.compression.is_active() || !self.index.shares_buffer(window) {
            return None;
        }
        let entry = (window.buffer_offset() + key_at).checked_sub(ENTRY_HEADER_LEN)?;
        // The block holding the entry is the last one starting before it.
        let blocks = &self.index.entries;
        let block = &blocks[blocks
            .partition_point(|b| (b.offset as usize) < entry)
            .checked_sub(1)?];
        let start = block.offset as usize;
        let container = window.buffer_slice(start..start + block.len as usize);
        let payload = Compression::stored_payload(&container)?.len();
        (start + container.len() - payload == entry).then_some(container)
    }

    /// Full in-order scan (used by compaction and range queries). Scans
    /// read with large readahead (256 KiB, like RocksDB's compaction
    /// readahead), paying the per-command latency once per chunk rather
    /// than once per 4 KiB block.
    pub fn iter(&self) -> SstIter<'_> {
        WindowScan::over(self.windows(0, false))
    }

    /// Full scan with background I/O (compaction threads): reads consume
    /// media bandwidth without advancing the simulated clock.
    pub(crate) fn iter_bg(&self) -> SstIter<'_> {
        WindowScan::over(self.windows(0, true))
    }

    /// Every window of the table, read with background I/O ahead of the
    /// merge that will scan them: the reads [`SstableReader::iter_bg`]
    /// makes, in the same order. The windows keep their bytes after the
    /// table is deleted.
    pub(crate) fn read_windows_bg(&self) -> VecDeque<LoadedWindow> {
        let (mut windows, mut read) = (self.windows(0, true), VecDeque::new());
        while windows.load(&mut read) {}
        read
    }

    /// Scan starting at the first key >= `start`.
    pub fn iter_from(&self, start: &[u8]) -> SstIter<'_> {
        let idx = self.index.blocks_from(start);
        let mut it = WindowScan::over(self.windows(idx.saturating_sub(1), false));
        it.skip_until(start);
        it
    }

    /// The table's readahead windows from block `next_block` on;
    /// `background` reads do not advance the clock.
    fn windows(&self, next_block: usize, background: bool) -> TableWindows<'_> {
        TableWindows {
            reader: self,
            next_block,
            background,
            ramp: 1,
        }
    }
}

/// Readahead window for sequential scans, in bytes.
const SCAN_READAHEAD: usize = 256 << 10;

/// A planned readahead window of one table.
struct Window<'a> {
    reader: &'a SstableReader,
    offset: u64,
    len: usize,
    entries: u64,
}

/// Computes the next readahead window of `reader` (consecutive blocks
/// up to [`SCAN_READAHEAD`] bytes), advancing `next_block`. Compressed
/// tables use single-block windows: each container must be decoded as
/// a unit, so a window is exactly one block there.
fn next_window_of<'a>(reader: &'a SstableReader, next_block: &mut usize) -> Option<Window<'a>> {
    let index = &reader.index.entries;
    if *next_block >= index.len() {
        return None;
    }
    let offset = index[*next_block].offset;
    let mut len = 0usize;
    let mut entries = 0u64;
    while *next_block < index.len() {
        let b = &index[*next_block];
        if len > 0 && (reader.compression.is_active() || len + b.len as usize > SCAN_READAHEAD) {
            break;
        }
        len += b.len as usize;
        entries += b.entries as u64;
        *next_block += 1;
    }
    Some(Window {
        reader,
        offset,
        len,
        entries,
    })
}

/// Undoes the block codec on one window's bytes (for uncompressed
/// tables the window is the data). `charge` bills the decode CPU time
/// to the simulated clock — foreground paths only; background
/// (compaction) decodes are free CPU on their own thread, like their
/// reads.
fn decode_window(reader: &SstableReader, raw: FileSlice, charge: bool) -> Option<FileSlice> {
    if !reader.compression.is_active() {
        return Some(raw);
    }
    let data = match Compression::stored_payload(&raw) {
        // A block the codec stored verbatim is a range of the file's
        // own bytes, like an uncompressed table's.
        Some(payload) => raw.slice(raw.len() - payload.len()..raw.len()),
        None => Compression::decode(&raw)?.into(),
    };
    if charge {
        reader
            .vfs
            .clock()
            .advance(Compression::decode_cost_ns(data.len()));
    }
    Some(data)
}

/// A window's decoded bytes and how many entries they hold.
pub(crate) type LoadedWindow = (FileSlice, u64);

/// Submits `windows` as one batch (one command per extent run per
/// window, every submission before the first collection) and returns
/// their buffers in window order. `background` detaches the completions
/// instead of waiting on them. Returns `None` on a submit error or a
/// short read — in either case no completion is left stranded in the
/// queue's pending map.
fn batch_read_windows(
    q: &mut ptsbench_vfs::IoQueue,
    windows: &[Window<'_>],
    background: bool,
) -> Option<Vec<LoadedWindow>> {
    let mut reads = Vec::with_capacity(windows.len());
    for w in windows {
        match w
            .reader
            .vfs
            .read_runs_shared(q, w.reader.file, w.offset, w.len)
        {
            Ok(read) => reads.push((read, w.len, w.entries)),
            Err(_) => {
                // Failing the batch must not leak the completions of the
                // windows already submitted.
                for (read, _, _) in reads {
                    read.into_bg(q);
                }
                return None;
            }
        }
    }
    // Collect every completion before validating, so a short read never
    // strands later windows in the pending map.
    let mut out = Vec::with_capacity(reads.len());
    let mut complete = true;
    for ((read, len, entries), w) in reads.into_iter().zip(windows) {
        let data = if background {
            read.into_bg(q)
        } else {
            read.wait(q)
        };
        complete &= data.len() == len;
        match decode_window(w.reader, data, !background) {
            Some(data) => out.push((data, entries)),
            None => complete = false,
        }
    }
    complete.then_some(out)
}

/// Readahead ramp shared by the queued scan paths: start with a single
/// window per batch (a short or end-bounded scan should not be charged
/// `depth` windows of readahead it never consumes) and double towards
/// the queue depth as the scan proves it keeps reading — the classic
/// readahead ramp-up, applied to submission batches.
fn ramp_up(ramp: &mut usize, depth: usize) -> usize {
    let take = (*ramp).min(depth).max(1);
    *ramp = (take * 2).min(depth.max(1));
    take
}

/// Where a [`WindowScan`] gets its windows from.
pub trait WindowSource {
    /// Reads more windows onto the back of `loaded`, in key order;
    /// `false` when there are none left (or a read failed).
    fn load(&mut self, loaded: &mut VecDeque<LoadedWindow>) -> bool;
}

/// Windows read ahead of their scan (a paced compaction's inputs).
impl WindowSource for VecDeque<LoadedWindow> {
    fn load(&mut self, loaded: &mut VecDeque<LoadedWindow>) -> bool {
        loaded.append(self);
        !loaded.is_empty()
    }
}

/// In-order scan over the entries of a sequence of readahead windows, a
/// merge [`Source`]: each entry is lent as ranges of the window it sits
/// in.
pub struct WindowScan<S> {
    source: S,
    /// Windows already read, in consumption order.
    loaded: VecDeque<LoadedWindow>,
    /// The window the cursor is in.
    buf: FileSlice,
    /// The entry at the cursor, as ranges of `buf`; `None` once spent.
    head: Option<EntryRanges>,
    /// Entries of `buf` from the cursor on.
    remaining: u64,
    /// The window the cursor left last, kept while the entry lent last
    /// lies in it.
    prev: FileSlice,
    /// The entry lent last: its ranges, and whether they are of `prev`.
    last: (Range<usize>, Option<Range<usize>>, bool),
}

impl<S: WindowSource> WindowScan<S> {
    /// A scan over the windows `source` reads; the first is read now.
    pub fn over(source: S) -> Self {
        let mut scan = Self {
            source,
            loaded: VecDeque::new(),
            buf: FileSlice::default(),
            head: None,
            remaining: 0,
            prev: FileSlice::default(),
            last: (0..0, None, false),
        };
        scan.decode_at(0);
        scan
    }

    /// Decodes the entry at `pos` of the cursor's window into `head`,
    /// first moving on to the next window with entries — reading it —
    /// when this one has none left.
    fn decode_at(&mut self, mut pos: usize) {
        while self.remaining == 0 {
            if self.loaded.is_empty() {
                self.source.load(&mut self.loaded);
            }
            let Some((buf, entries)) = self.loaded.pop_front() else {
                self.head = None;
                return;
            };
            let left = std::mem::replace(&mut self.buf, buf);
            if !self.last.2 {
                // The entry lent last is in the window just left.
                self.prev = left;
                self.last.2 = true;
            }
            pos = 0;
            self.remaining = entries;
            if let Ok((_, _, stride)) = entry_ranges(&self.buf, 0) {
                // Entries are mostly one size: fetch every header at
                // once where that size puts it, not one miss at a time.
                touch_strided(
                    &self.buf,
                    0,
                    stride,
                    usize::try_from(entries).unwrap_or(usize::MAX),
                );
            }
        }
        // A corrupt entry ends the scan.
        self.head = entry_ranges(&self.buf, pos).ok();
    }

    /// Moves past the entries smaller than `start`.
    fn skip_until(&mut self, start: &[u8]) {
        while self.peek().is_some_and(|key| key < start) {
            self.advance();
        }
    }
}

impl<S: WindowSource> Source for WindowScan<S> {
    fn peek(&self) -> Option<&[u8]> {
        let (key, _, _) = self.head.as_ref()?;
        Some(&self.buf[key.clone()])
    }

    fn advance(&mut self) {
        let Some((key, value, next)) = self.head.take() else {
            return;
        };
        self.last = (key, value, false);
        self.remaining -= 1;
        self.decode_at(next);
    }

    fn last(&self) -> Lent<'_> {
        let (key, value, in_prev) = &self.last;
        let buf = if *in_prev { &self.prev } else { &self.buf };
        Lent {
            key: &buf[key.clone()],
            value: value.clone().map(|v| &buf[v]),
            window: Some((buf, key.start)),
        }
    }
}

/// In-order scan over a table's entries (chunked readahead).
pub type SstIter<'a> = WindowScan<TableWindows<'a>>;

/// The readahead windows of one table, front to back.
pub struct TableWindows<'a> {
    reader: &'a SstableReader,
    /// Next block index to fetch.
    next_block: usize,
    /// Background mode: window reads do not advance the clock.
    background: bool,
    /// Queued-path readahead ramp (see [`ramp_up`]).
    ramp: usize,
}

impl WindowSource for TableWindows<'_> {
    /// Without a queue: one synchronous readahead window (the legacy
    /// path). With a queue: a ramping batch of up to `queue.depth()`
    /// windows is submitted together — one command per extent run — so
    /// their fixed base latencies overlap instead of accruing serially;
    /// background (compaction-input) windows are submitted detached,
    /// charging bandwidth and queue slots without blocking.
    fn load(&mut self, loaded: &mut VecDeque<LoadedWindow>) -> bool {
        match self.reader.queue.clone() {
            None => {
                let Some(w) = next_window_of(self.reader, &mut self.next_block) else {
                    return false;
                };
                let vfs = &self.reader.vfs;
                let read = if self.background {
                    vfs.read_shared_bg(self.reader.file, w.offset, w.len)
                } else {
                    vfs.read_shared(self.reader.file, w.offset, w.len)
                };
                let Some(data) = read
                    .ok()
                    .filter(|data| data.len() == w.len)
                    .and_then(|data| decode_window(self.reader, data, !self.background))
                else {
                    return false;
                };
                loaded.push_back((data, w.entries));
                true
            }
            Some(queue) => {
                let mut q = queue.lock();
                let take = ramp_up(&mut self.ramp, q.depth());
                let mut windows = Vec::new();
                while windows.len() < take {
                    match next_window_of(self.reader, &mut self.next_block) {
                        Some(w) => windows.push(w),
                        None => break,
                    }
                }
                if windows.is_empty() {
                    return false;
                }
                let Some(buffers) = batch_read_windows(&mut q, &windows, self.background) else {
                    return false;
                };
                loaded.extend(buffers);
                true
            }
        }
    }
}

/// Queue-aware scan over a *chain* of non-overlapping tables (one LSM
/// level, in key order): readahead windows are batched **across table
/// boundaries**, up to the queue depth per submission round.
///
/// This is where queue depth buys scan throughput at simulation scale:
/// level tables are typically at most one readahead window long, so a
/// per-table scan pays the full per-command base latency for every
/// table, strictly serially. Chained batching keeps `depth` window
/// reads in flight, overlapping those base latencies — the same reason
/// io_uring-driven scans beat synchronous readahead on real NVMe.
pub(crate) type ChainedSstScan<'a> = WindowScan<ChainWindows<'a>>;

/// The readahead windows of a chain of tables, in key order.
pub(crate) struct ChainWindows<'a> {
    tables: Vec<&'a SstableReader>,
    queue: SharedIoQueue,
    /// Cursor of the next window to load.
    load_table: usize,
    load_block: usize,
    /// Readahead ramp (see [`ramp_up`]).
    ramp: usize,
}

impl<'a> ChainedSstScan<'a> {
    /// A chained scan over `tables` (key-ordered, non-overlapping)
    /// starting at the first entry `>= start`. The caller must filter
    /// out tables entirely below `start` (their cached `max_key` makes
    /// that free), so only the first table can hold smaller keys.
    pub fn new(tables: Vec<&'a SstableReader>, start: &[u8], queue: SharedIoQueue) -> Self {
        // Seek: position the block cursor inside the first table, then
        // consume any leading entries below `start`.
        let load_block = tables
            .first()
            .map_or(0, |t| t.index.blocks_from(start).saturating_sub(1));
        let mut scan = Self::over(ChainWindows {
            tables,
            queue,
            load_table: 0,
            load_block,
            ramp: 1,
        });
        scan.skip_until(start);
        scan
    }
}

impl<'a> ChainWindows<'a> {
    /// Computes the next window at the load cursor, advancing it across
    /// table boundaries.
    fn next_window(&mut self) -> Option<Window<'a>> {
        while self.load_table < self.tables.len() {
            let reader = self.tables[self.load_table];
            if self.load_block >= reader.index.entries.len() {
                self.load_table += 1;
                self.load_block = 0;
                continue;
            }
            return next_window_of(reader, &mut self.load_block);
        }
        None
    }
}

impl WindowSource for ChainWindows<'_> {
    /// Submits a ramping batch of windows (possibly spanning several
    /// tables) in one round and waits for them all.
    fn load(&mut self, loaded: &mut VecDeque<LoadedWindow>) -> bool {
        let queue = self.queue.clone();
        let mut q = queue.lock();
        let take = ramp_up(&mut self.ramp, q.depth());
        let mut windows = Vec::new();
        while windows.len() < take {
            match self.next_window() {
                Some(w) => windows.push(w),
                None => break,
            }
        }
        if windows.is_empty() {
            return false;
        }
        let Some(buffers) = batch_read_windows(&mut q, &windows, false) else {
            return false;
        };
        loaded.extend(buffers);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iter::Merge;
    use crate::sstable::builder::SstableBuilder;
    use ptsbench_ssd::{DeviceConfig, DeviceProfile, Ssd};
    use ptsbench_vfs::VfsOptions;

    fn vfs() -> Vfs {
        let ssd = Ssd::new(DeviceConfig::from_profile(DeviceProfile::ssd1(), 32 << 20));
        Vfs::whole_device(ssd.into_shared(), VfsOptions::default())
    }

    fn build_table(v: &Vfs, n: u32) -> SstableReader {
        let mut b = SstableBuilder::create(v.clone(), "sst-1", 4096, 10).expect("create");
        for i in 0..n {
            let key = format!("key{:05}", i * 2); // even keys only
            if i % 10 == 3 {
                b.add(key.as_bytes(), None).expect("add tombstone");
            } else {
                b.add(key.as_bytes(), Some(format!("value{}", i).as_bytes()))
                    .expect("add");
            }
        }
        b.finish().expect("finish");
        SstableReader::open(v.clone(), "sst-1", true, None).expect("open")
    }

    /// Every entry a scan lends, copied out.
    fn owned(scan: impl Source) -> Vec<(Vec<u8>, Option<Vec<u8>>)> {
        let (mut scan, mut out) = (Merge::new(vec![scan]), Vec::new());
        while let Some(e) = scan.next_entry() {
            out.push((e.key.to_vec(), e.value.map(<[u8]>::to_vec)));
        }
        out
    }

    /// What `stored_block_at` returns for each entry a scan lends.
    fn containers(r: &SstableReader, scan: impl Source) -> Vec<Option<FileSlice>> {
        let (mut scan, mut out) = (Merge::new(vec![scan]), Vec::new());
        while let Some(e) = scan.next_entry() {
            let (window, key_at) = e.window.expect("a table entry");
            out.push(r.stored_block_at(window, key_at));
        }
        out
    }

    #[test]
    fn point_lookups() {
        let v = vfs();
        let r = build_table(&v, 500);
        assert_eq!(r.entries(), 500);
        // Present key.
        assert_eq!(
            r.get(b"key00008").expect("get"),
            Some(Some(b"value4".to_vec()))
        );
        // Tombstone (i=3 -> key 6).
        assert_eq!(r.get(b"key00006").expect("get"), Some(None));
        // Absent keys: odd, below range, above range.
        assert_eq!(r.get(b"key00007").expect("get"), None);
        assert_eq!(r.get(b"kex").expect("get"), None);
        assert_eq!(r.get(b"kez").expect("get"), None);
    }

    #[test]
    fn full_scan_in_order() {
        let v = vfs();
        let r = build_table(&v, 200);
        let items = owned(r.iter());
        assert_eq!(items.len(), 200);
        for w in items.windows(2) {
            assert!(w[0].0 < w[1].0, "scan must be sorted");
        }
        assert_eq!(items[0].0, b"key00000");
        assert_eq!(items[3].1, None, "tombstone preserved in scan");
    }

    #[test]
    fn iter_from_seeks() {
        let v = vfs();
        let r = build_table(&v, 200);
        let items = owned(r.iter_from(b"key00100"));
        assert_eq!(items[0].0, b"key00100");
        assert_eq!(items.len(), 150);
        // Seek between keys lands on the next one.
        let items = owned(r.iter_from(b"key00101"));
        assert_eq!(items[0].0, b"key00102");
        // Seek past the end yields nothing.
        assert_eq!(r.iter_from(b"z").peek(), None);
    }

    /// The background compaction parks its inputs as read windows and
    /// deletes the input tables at install, possibly before a parked
    /// merge is drained: the windows must keep the bytes.
    #[test]
    fn buffered_windows_outlive_their_table() {
        let v = vfs();
        let r = build_table(&v, 300);
        let want = owned(r.iter());
        let windows = r.read_windows_bg();
        drop(r);
        v.delete("sst-1").expect("delete");
        // The freed pages (and the name) are taken by other bytes.
        let f = v.create("sst-1").expect("create");
        v.append(f, &vec![0xffu8; 64 << 10]).expect("append");
        let merged = owned(WindowScan::over(windows));
        assert_eq!(merged.len(), 300);
        assert_eq!(merged, want);
    }

    #[test]
    fn buffered_windows_are_the_reads_of_a_background_scan() {
        let v = vfs();
        let mut b = SstableBuilder::create(v.clone(), "sst-big", 4096, 10).expect("create");
        for i in 0..300u32 {
            b.add(format!("key{i:05}").as_bytes(), Some(&[i as u8; 2000]))
                .expect("add");
        }
        b.finish().expect("finish");
        let r = SstableReader::open(v.clone(), "sst-big", true, None).expect("open");
        let before = v.ssd().lock().smart().host_pages_read;
        let scanned = owned(r.iter_bg());
        let read = v.ssd().lock().smart().host_pages_read - before;
        let windows = r.read_windows_bg();
        assert!(windows.len() > 1, "several readahead windows");
        assert_eq!(v.ssd().lock().smart().host_pages_read - before, 2 * read);
        assert_eq!(owned(WindowScan::over(windows)), scanned);
    }

    #[test]
    fn lookups_charge_device_reads() {
        let v = vfs();
        let r = build_table(&v, 500);
        let before = v.ssd().lock().smart().host_pages_read;
        r.get(b"key00100").expect("get");
        let after = v.ssd().lock().smart().host_pages_read;
        assert!(after > before, "data block read must hit the device");
    }

    #[test]
    fn bloom_avoids_reads_for_absent_keys() {
        let v = vfs();
        let r = build_table(&v, 500);
        let before = v.ssd().lock().smart().host_pages_read;
        for i in 0..100 {
            let key = format!("absent{:05}", i);
            r.get(key.as_bytes()).expect("get");
        }
        let after = v.ssd().lock().smart().host_pages_read;
        // ~1% fp rate: at most a couple of the 100 lookups may read.
        assert!(
            after - before <= 10,
            "bloom should stop absent-key reads, got {}",
            after - before
        );
    }

    #[test]
    fn compressed_table_serves_stored_and_lz_blocks_alike() {
        // The first half of the 2 000-byte values is noise, so the
        // table mixes blocks the codec stored verbatim (served as ranges
        // of the file) with blocks it compressed (decoded into their own
        // buffer); both must read back exactly, by lookup and by scan,
        // and both charge decode time.
        let value = |i: u32| -> Vec<u8> {
            if i < 20 {
                let mut state = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 1);
                (0..2000)
                    .map(|_| {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        (state >> 32) as u8
                    })
                    .collect()
            } else {
                format!("value-{i}-").repeat(300).into_bytes()[..2000].to_vec()
            }
        };
        let v = vfs();
        let mut b = SstableBuilder::create(v.clone(), "sst-z", 4096, 10)
            .expect("create")
            .with_compression(Compression::from_level(1));
        for i in 0..40u32 {
            b.add(format!("key{i:05}").as_bytes(), Some(&value(i)))
                .expect("add");
        }
        b.finish().expect("finish");
        let r = SstableReader::open(v.clone(), "sst-z", true, None).expect("open");
        let file = v.open("sst-z").expect("open file");
        let modes: Vec<u8> = (r.index.entries.iter())
            .map(|e| v.read_at(file, e.offset, 3).expect("read")[2])
            .collect();
        assert!(
            modes.contains(&0) && modes.contains(&1),
            "both container modes present: {modes:?}"
        );
        for i in 0..40u32 {
            let before = v.clock().now();
            let got = r.get(format!("key{i:05}").as_bytes()).expect("get");
            assert_eq!(got, Some(Some(value(i))), "key {i}");
            assert!(v.clock().now() > before, "decode time is charged");
        }
        let scanned: Vec<Vec<u8>> = (owned(r.iter()).into_iter())
            .map(|(_, v)| v.expect("live"))
            .collect();
        assert_eq!(scanned, (0..40).map(value).collect::<Vec<_>>());
    }

    /// A table of 2 000-byte values, three to a block: noise (every
    /// block stored verbatim) or a repeating text (every block LZ).
    fn table_of(v: &Vfs, name: &str, level: u8, noise: bool) -> SstableReader {
        let mut b = SstableBuilder::create(v.clone(), name, 4096, 10)
            .expect("create")
            .with_compression(Compression::from_level(level));
        for i in 0..20u32 {
            let value: Vec<u8> = if noise {
                let mut state = (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                (0..2000)
                    .map(|_| {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        (state >> 32) as u8
                    })
                    .collect()
            } else {
                format!("value-{i}-").repeat(300).into_bytes()[..2000].to_vec()
            };
            b.add(format!("key{i:05}").as_bytes(), Some(&value))
                .expect("add");
        }
        b.finish().expect("finish");
        SstableReader::open(v.clone(), name, true, None).expect("open")
    }

    #[test]
    fn stored_block_at_finds_the_container_a_scanned_block_start_is_in() {
        let v = vfs();
        let r = table_of(&v, "sst-n", 1, true);
        let file = v.open("sst-n").expect("open file");
        let mut starts = r.index.entries.iter();
        let mut first = 0;
        for (i, found) in containers(&r, r.iter_bg()).into_iter().enumerate() {
            if i == first {
                // The block's own bytes, as the file holds them.
                let block = starts.next().expect("a block starts here");
                let container = found.expect("a block start");
                assert_eq!(
                    container.to_vec(),
                    v.read_at(file, block.offset, block.len as usize)
                        .expect("read")
                );
                first += block.entries as usize;
            } else {
                assert_eq!(found, None, "entry {i} is mid-block");
            }
        }
        assert_eq!(starts.next(), None);
        // An owned copy of a block-start key (a memtable entry's) is not
        // a range of the table.
        let key = r.first_key().expect("an entry");
        assert_eq!(r.stored_block_at(&key.into(), 0), None);
    }

    #[test]
    fn stored_block_at_refuses_other_tables_lz_blocks_and_raw_tables() {
        let v = vfs();
        let r = table_of(&v, "sst-a", 1, true);
        // The same bytes in another file.
        let twin = table_of(&v, "sst-b", 1, true);
        let mut scan = Merge::new(vec![twin.iter_bg()]);
        let (window, key_at) = scan.next_entry().and_then(|e| e.window).expect("entry");
        assert!(twin.stored_block_at(window, key_at).is_some());
        assert_eq!(r.stored_block_at(window, key_at), None);
        // Decoded LZ blocks live in buffers of their own.
        let lz = table_of(&v, "sst-lz", 1, false);
        assert!(containers(&lz, lz.iter_bg()).iter().all(Option::is_none));
        // Without the codec a block is no container at all.
        let raw = table_of(&v, "sst-raw", 0, true);
        assert!(containers(&raw, raw.iter_bg()).iter().all(Option::is_none));
    }

    #[test]
    fn corrupt_file_detected() {
        let v = vfs();
        let f = v.create("sst-bad").expect("create");
        v.write_at(f, 0, &[0u8; 100]).expect("write");
        assert!(matches!(
            SstableReader::open(v, "sst-bad", true, None),
            Err(StoreError::Corruption(_))
        ));
    }
}
