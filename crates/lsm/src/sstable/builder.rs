//! SSTable construction.
//!
//! The builder streams sorted entries into data blocks **in the table
//! file's own buffer** — it holds the file's [`FileAppender`]; there is
//! no staging buffer — and commits whole pages to the filesystem
//! 256 KiB at a time (large sequential writes — the LSM write pattern
//! the paper calls "flash friendly" before measuring otherwise).
//! `finish` puts index, bloom filter and footer behind the last block
//! and commits the rest. Spare capacity in that buffer is resident
//! memory for as long as the table lives: it is sized once, from the
//! size the caller expects, and the tail is reserved exactly.
//!
//! Without a codec a block *is* its entries back to back, so sealing
//! one only records where it began; with a codec the entries collect in
//! a scratch block that the codec then encodes onto the file buffer —
//! unless the block is one an input table already stored verbatim
//! ([`SstableBuilder::add_reusing`]), which is then copied.
//!
//! A database with a helper thread (one per database, owned by it, see
//! `LsmDb`'s `Helper`) hands it the copying work of its inline jobs,
//! one of two kinds depending on the codec:
//!
//! * **Codec off: laying out.** A compaction's output *splices* its
//!   values ([`SstableBuilder::splicing_values`]): a value the merge
//!   lent as a range of an input's window is kept as that range, and
//!   the builder's buffer holds everything else. Commits charge the
//!   device by length, so every device command and clock step is the
//!   same either way; [`TableImage::materialize`] then lays the pieces
//!   out as the file's buffer, on whichever thread takes the table.
//! * **Codec on: encoding.** A flush's or compaction's sealed blocks go
//!   to a `BlockQueue` (`SstableBuilder::encoding_on`) that the helper
//!   encodes oldest first. The builder appends the containers strictly
//!   in block order — encoding itself any the helper has not taken, and
//!   any it has held for longer than an encoding takes here — before
//!   anything depends on their lengths: at a block whose
//!   containers could reach the next commit (a container is at most its
//!   block plus 8 bytes), when a caller's size threshold could be
//!   reached (`SstableBuilder::reaches`), and at finish. Each appended
//!   block gets its index entry and commit check where an encoding
//!   build gives them, so every byte, device command and clock step is
//!   the same.
//!
//! Either way the buffers a table keeps are allocated on the building
//! thread, never the helper's (a buffer the helper allocated comes from
//! the allocator's arena for that thread: peak RSS grew by two thirds
//! when it did).

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use ptsbench_cache::{Compression, EncodeScratch};
use ptsbench_vfs::{FileAppender, FileId, FileSlice, StoreError, Vfs};

use crate::bloom::{hash_pair, BloomFilter};
use crate::iter::Lent;
use crate::sstable::format::{
    encode_entry, encode_entry_head, encode_index_entry, Footer, SstableMeta, FOOTER_LEN,
};
use crate::Result;

/// Written bytes are committed once this many whole pages have gathered.
const APPEND_BYTES: usize = 256 << 10;

/// A table's bytes as its builder holds them: the builder's own buffer
/// — the file's, checked out — and the values spliced into it by
/// reference. The file's length counts both; its buffer holds the
/// spliced values only once [`TableImage::materialize`] has laid the
/// pieces out, which a dropped image also does (the check-in asserts
/// that every committed byte is there).
pub struct TableImage {
    /// Headers, keys, index, bloom, footer and codec containers: the
    /// table less its spliced values.
    file: FileAppender,
    /// The windows the spliced values are ranges of, each held once.
    windows: Vec<FileSlice>,
    /// The spliced values, in table order.
    splices: Vec<Splice>,
    /// Total length of `splices`.
    spliced: usize,
    /// The capacity the file's buffer is reserved with: the builder's
    /// own when values are copied in, the laid-out one when spliced.
    reserve: usize,
    /// The laid-out table's buffer, reserved when the table is finished
    /// on the building thread, the thread that frees tables: a buffer a
    /// helper thread allocated would come from the allocator's arena
    /// for that thread.
    laid_out: Vec<u8>,
}

/// A value spliced into a table: `windows[window][range]`, put before
/// byte `at` of the builder's own buffer.
struct Splice {
    at: usize,
    window: usize,
    range: Range<usize>,
}

impl TableImage {
    /// The table's length so far.
    fn len(&self) -> usize {
        self.file.buf.len() + self.spliced
    }

    /// Puts `window[range]` at the end of the table, by reference.
    fn splice(&mut self, window: &FileSlice, range: Range<usize>) {
        let held = (self.windows.iter()).rposition(|w| std::ptr::eq(&w[..], &window[..]));
        let window = held.unwrap_or_else(|| {
            self.windows.push(window.clone());
            self.windows.len() - 1
        });
        self.spliced += range.len();
        let at = self.file.buf.len();
        self.splices.push(Splice { at, window, range });
    }

    /// Reserves the laid-out table's buffer as a copying build reserves
    /// it — the expected size, a block and 1/64 — or exactly the
    /// table's length if it ran past that.
    fn reserve_laid_out(&mut self) {
        if !self.splices.is_empty() {
            self.laid_out = Vec::with_capacity(self.reserve.max(self.len()));
        }
    }

    /// Whether any value is spliced: laying out copies the table.
    pub fn is_spliced(&self) -> bool {
        !self.splices.is_empty()
    }

    /// Lays the table out as its file's buffer and hands that to the
    /// file. A table with no splices (a flush, a codec-on output) is its
    /// builder's buffer already and is not copied.
    pub fn materialize(mut self) {
        self.lay_out();
    }

    fn lay_out(&mut self) {
        if self.splices.is_empty() {
            return;
        }
        // Taken, not borrowed: a panic here leaves nothing for the drop
        // to lay out again.
        let splices = std::mem::take(&mut self.splices);
        let windows = std::mem::take(&mut self.windows);
        let side = std::mem::take(&mut self.file.buf);
        let mut buf = std::mem::take(&mut self.laid_out);
        buf.reserve_exact(side.len() + self.spliced);
        let mut from = 0;
        for splice in &splices {
            buf.extend_from_slice(&side[from..splice.at]);
            buf.extend_from_slice(&windows[splice.window][splice.range.clone()]);
            from = splice.at;
        }
        buf.extend_from_slice(&side[from..]);
        self.file.buf = buf;
        self.spliced = 0;
    }
}

/// Dropping the appender checks the file in: lay it out first.
impl Drop for TableImage {
    fn drop(&mut self) {
        self.lay_out();
    }
}

/// Where `value` sits in `window`, if it is a range of it: the bytes
/// right behind the key at `key_at`, by address — a value the merge
/// lent from a table scan, which is then spliced rather than copied.
fn lent_range(
    key: &[u8],
    value: &[u8],
    (window, key_at): (&FileSlice, usize),
) -> Option<Range<usize>> {
    let at = key_at + key.len();
    let range = at..at + value.len();
    std::ptr::eq(window.get(range.clone())?, value).then_some(range)
}

/// A codec container is at most its block plus this header: the codec
/// stores a block verbatim when its LZ body would not be shorter.
const CONTAINER_HEADER: usize = 8;

/// Room `Compression::encode_into` asks for while it encodes `raw_len`
/// bytes: the header, the block, and one literal token per 128 bytes.
fn encode_room(raw_len: usize) -> usize {
    CONTAINER_HEADER + raw_len + raw_len / 128 + 1
}

/// Sealed blocks a builder hands over to be encoded, shared with the
/// database's helper thread, which encodes the oldest one waiting
/// ([`BlockQueue::encode_oldest`]). The builder keeps every block it
/// queued and appends them in order before anything depends on their
/// containers' lengths: it encodes itself, newest first, those the
/// helper has not taken, and waits for one the helper is encoding only
/// about as long as an encoding takes — after that it encodes the
/// block itself too, so a helper whose CPU went to another process
/// costs the builder one encoding, not the wait. One builder at a time
/// queues here: a database builds its tables one after another.
///
/// Every buffer in it is allocated on the building thread and reused
/// block after block, so the helper allocates nothing a table keeps.
#[derive(Default)]
pub(crate) struct BlockQueue {
    blocks: Mutex<Blocks>,
    /// How many blocks wait: an idle helper polls this, not the lock
    /// the builder queues under.
    waiting_len: AtomicUsize,
    /// Blocks queued so far, and of those, encoded by the helper.
    queued: AtomicUsize,
    helped: AtomicUsize,
    /// A build found the helper starved ([`BlockQueue::judge`]): no
    /// build queues here again until the next job reopens the queue.
    declined: AtomicBool,
}

/// Blocks queued before the helper's share of them is judged.
const JUDGED_BLOCKS: usize = 64;

#[derive(Default)]
struct Blocks {
    /// Blocks no thread has taken yet, oldest first.
    waiting: VecDeque<Arc<Block>>,
    /// Emptied blocks to seal the next ones into, each held only here.
    spare: Vec<Arc<Block>>,
}

/// One sealed block: its entries, which every thread that takes it
/// reads, and the container the first of them writes.
#[derive(Default)]
struct Block {
    compression: Compression,
    raw: Vec<u8>,
    container: Mutex<Vec<u8>>,
    /// `container` holds the encoded block.
    done: AtomicBool,
}

impl Block {
    /// Encodes the block into its container, unless a thread did;
    /// whether this call did.
    fn encode(&self, scratch: &mut EncodeScratch) -> bool {
        let mut container = self
            .container
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let fresh = !self.done.load(Ordering::Acquire);
        if fresh {
            (self.compression).encode_into(&self.raw, scratch, &mut container);
            self.done.store(true, Ordering::Release);
        }
        fresh
    }
}

impl BlockQueue {
    fn lock(&self) -> MutexGuard<'_, Blocks> {
        // Only pushes and pops run under the lock: the queue is whole
        // even after a panic elsewhere.
        self.blocks.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Takes the oldest (`front`) or newest waiting block.
    fn pop(&self, front: bool) -> Option<Arc<Block>> {
        let mut blocks = self.lock();
        let block = if front {
            blocks.waiting.pop_front()
        } else {
            blocks.waiting.pop_back()
        };
        self.waiting_len
            .store(blocks.waiting.len(), Ordering::Relaxed);
        block
    }

    /// The helper: encodes the oldest waiting block; `false` when none
    /// is waiting.
    pub(crate) fn encode_oldest(&self, scratch: &mut EncodeScratch) -> bool {
        if self.waiting_len.load(Ordering::Relaxed) == 0 {
            return false;
        }
        let Some(block) = self.pop(true) else {
            return false;
        };
        if block.encode(scratch) {
            self.helped.fetch_add(1, Ordering::Relaxed);
        }
        true
    }

    /// How many blocks were queued so far, and how many of them the
    /// helper encoded.
    pub(crate) fn counts(&self) -> (usize, usize) {
        let queued = self.queued.load(Ordering::Relaxed);
        (queued, self.helped.load(Ordering::Relaxed))
    }

    /// Whether the helper was starved of CPU since the queue's counts
    /// were `since`: it encoded under a quarter of the blocks queued
    /// (about half when it has a CPU of its own; a few per cent beside
    /// a busy process). `None` until [`JUDGED_BLOCKS`] were queued.
    pub(crate) fn judge(&self, since: (usize, usize)) -> Option<bool> {
        let (queued, helped) = self.counts();
        let (queued, helped) = (queued - since.0, helped - since.1);
        (queued >= JUDGED_BLOCKS).then_some(helped * 4 < queued)
    }

    /// Whether a build declined the helper in this job.
    pub(crate) fn declined(&self) -> bool {
        self.declined.load(Ordering::Relaxed)
    }

    /// Lets builds queue again (a job starts).
    pub(crate) fn reopen(&self) {
        self.declined.store(false, Ordering::Relaxed);
    }

    /// Queues the block in `raw`, leaving `raw` an emptied block's
    /// buffer for the next one's entries; returns the queued block.
    fn push(&self, raw: &mut Vec<u8>, compression: Compression) -> Arc<Block> {
        let mut blocks = self.lock();
        let mut block = blocks.spare.pop().unwrap_or_default();
        let b = Arc::get_mut(&mut block).expect("a spare block is held only here");
        std::mem::swap(&mut b.raw, raw);
        // Allocates only while the spares are still growing.
        let container = b
            .container
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner);
        container.reserve(encode_room(b.raw.len()));
        b.compression = compression;
        blocks.waiting.push_back(Arc::clone(&block));
        self.waiting_len
            .store(blocks.waiting.len(), Ordering::Relaxed);
        self.queued.fetch_add(1, Ordering::Relaxed);
        block
    }

    /// Keeps the appended `blocks` that no other thread holds for reuse.
    fn give_back(&self, blocks: impl Iterator<Item = Arc<Block>>) {
        let mut spare = self.lock();
        for mut block in blocks {
            if let Some(b) = Arc::get_mut(&mut block) {
                b.raw.clear();
                b.container
                    .get_mut()
                    .unwrap_or_else(PoisonError::into_inner)
                    .clear();
                *b.done.get_mut() = false;
                spare.spare.push(block);
            }
        }
    }

    /// Drops whatever waits (a build abandoned with blocks queued).
    fn discard(&self) {
        self.lock().waiting.clear();
        self.waiting_len.store(0, Ordering::Relaxed);
    }
}

/// The blocks a builder has sealed but not yet appended, when it hands
/// its encoding to the helper ([`SstableBuilder::encoding_on`]).
struct Queued {
    queue: Arc<BlockQueue>,
    /// The queue's counts when the build began.
    since: (usize, usize),
    /// Sealed blocks in table order.
    sealed: VecDeque<Sealed>,
    /// The most `sealed` can append: each block plus a container header.
    bound: usize,
    /// How long this thread took to encode a block, last time: how
    /// long it waits for the helper to finish one.
    patience: Duration,
}

/// A sealed block waiting for its place in the table.
struct Sealed {
    /// Where its index entry's offset field is (the entry is written at
    /// seal, its offset and length once the container is appended).
    index_at: usize,
    body: Body,
}

/// What a sealed block appends.
enum Body {
    /// The donor container it equals, copied instead of encoded.
    Copy(FileSlice),
    /// The block, in the queue or encoded.
    Queued(Arc<Block>),
}

impl Queued {
    /// Appends `block`'s container to `out`, waiting up to `patience`
    /// for a helper that is encoding it, then encoding it here.
    fn append(&mut self, block: &Block, out: &mut Vec<u8>, scratch: &mut EncodeScratch) {
        let since = Instant::now();
        while !block.done.load(Ordering::Acquire) {
            if since.elapsed() > self.patience {
                let start = Instant::now();
                (block.compression).encode_into(&block.raw, scratch, out);
                self.patience = start.elapsed();
                return;
            }
            std::thread::yield_now();
        }
        out.extend_from_slice(
            &block
                .container
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        );
    }
}

/// A build dropped with blocks queued leaves none behind.
impl Drop for Queued {
    fn drop(&mut self) {
        if !self.sealed.is_empty() {
            self.queue.discard();
        }
    }
}

/// Streaming SSTable writer.
pub struct SstableBuilder {
    vfs: Vfs,
    name: String,
    file: FileId,
    /// Background mode: writes are queued on the device without
    /// advancing the simulated clock (flush/compaction threads).
    background: bool,
    block_bytes: usize,
    bloom_bits_per_key: u32,
    /// Block codec. When active, every sealed block is written as a
    /// compressed container and the footer carries the codec level so
    /// the reader knows to decode; the CPU cost is charged to the
    /// simulated clock on the foreground path.
    compression: Compression,
    /// Whether values lent from a window are spliced (codec off).
    splice_values: bool,
    /// The codec's match-finder tables, reused block after block.
    codec_scratch: EncodeScratch,
    /// The codec's input: the current block's entries. Stays empty when
    /// the codec is off.
    block: Vec<u8>,
    /// A stored-mode container another table holds that the current
    /// block may turn out to equal (see [`SstableBuilder::seal_block`]).
    donor: Option<FileSlice>,
    /// Blocks sealed by copying their donor.
    reused_blocks: u64,
    /// Sealed blocks handed to the helper, when it encodes (codec on).
    queued: Option<Queued>,
    block_entries: u32,
    /// The current block's first key.
    first_key: Vec<u8>,
    /// The table so far: sealed blocks and, when the codec is off, the
    /// current block's entries from `block_start` on.
    out: TableImage,
    /// Where the current block begins in the table (codec off).
    block_start: usize,
    /// The index block's entries, encoded as blocks are sealed.
    index: Vec<u8>,
    blocks: u32,
    /// One [`hash_pair`] per key, for the bloom filter.
    key_hashes: Vec<(u64, u64)>,
    min_key: Option<Vec<u8>>,
    /// The newest key (the ordering check now, the max key at the end).
    last_key: Vec<u8>,
    entries: u64,
    page_size: usize,
}

impl SstableBuilder {
    /// Creates the output file and an empty builder (foreground I/O).
    pub fn create(
        vfs: Vfs,
        name: &str,
        block_bytes: usize,
        bloom_bits_per_key: u32,
    ) -> Result<Self> {
        Self::create_opts(vfs, name, block_bytes, bloom_bits_per_key, 0, false)
    }

    /// Creates a builder whose writes are issued by a background thread
    /// (device-queued, non-blocking). `expected_bytes` is the table
    /// size the caller aims for; the file's buffer is sized from it.
    pub fn create_bg(
        vfs: Vfs,
        name: &str,
        block_bytes: usize,
        bloom_bits_per_key: u32,
        expected_bytes: u64,
    ) -> Result<Self> {
        Self::create_opts(
            vfs,
            name,
            block_bytes,
            bloom_bits_per_key,
            expected_bytes,
            true,
        )
    }

    fn create_opts(
        vfs: Vfs,
        name: &str,
        block_bytes: usize,
        bloom_bits_per_key: u32,
        expected_bytes: u64,
        background: bool,
    ) -> Result<Self> {
        let file = vfs.create(name)?;
        let page_size = vfs.page_size() as usize;
        // A caller stops at its target by up to an entry, and the tail
        // is about 1 % of a table of 4 KB values: with a block and
        // 1/64 of slack neither regrows the buffer. Reserved at the
        // first entry, once it is known whether values are spliced.
        let reserve = expected_bytes + block_bytes as u64 + expected_bytes / 64;
        let out = TableImage {
            file: vfs.appender(file, 0)?,
            windows: Vec::new(),
            splices: Vec::new(),
            spliced: 0,
            reserve: reserve as usize,
            laid_out: Vec::new(),
        };
        Ok(Self {
            vfs,
            name: name.to_string(),
            file,
            background,
            block_bytes,
            bloom_bits_per_key,
            compression: Compression::None,
            splice_values: false,
            codec_scratch: EncodeScratch::default(),
            block: Vec::new(),
            donor: None,
            reused_blocks: 0,
            queued: None,
            block_entries: 0,
            first_key: Vec::new(),
            out,
            block_start: 0,
            index: Vec::new(),
            blocks: 0,
            key_hashes: Vec::new(),
            min_key: None,
            last_key: Vec::new(),
            entries: 0,
            page_size,
        })
    }

    /// Sets the block codec (builder style; call before the first
    /// `add`). [`Compression::None`] keeps the on-disk bytes identical
    /// to the pre-codec format.
    pub fn with_compression(mut self, compression: Compression) -> Self {
        self.compression = compression;
        self
    }

    /// Splices every value [`SstableBuilder::add_reusing`] is lent as a
    /// range of a window, instead of copying it, while the codec is off
    /// (builder style; call before the first `add`): for an output of a
    /// compaction that hands the copy to another thread. The builder's
    /// own buffer then holds everything else, and the file's buffer is
    /// reserved when the table is finished and filled when it is laid
    /// out ([`TableImage::materialize`]).
    pub fn splicing_values(mut self) -> Self {
        self.splice_values = true;
        self
    }

    /// Hands the encoding of sealed blocks to the helper serving `queue`
    /// while the codec is on (builder style; call before the first
    /// `add`): each sealed block is queued instead of encoded, and the
    /// builder appends the containers in block order — encoding itself
    /// any the helper has not taken — before anything depends on their
    /// lengths: at a block that could make a commit, when
    /// [`SstableBuilder::reaches`] could answer yes, and at finish. So
    /// every table byte, device command and clock step is where an
    /// encoding build puts it.
    pub(crate) fn encoding_on(mut self, queue: &Arc<BlockQueue>) -> Self {
        if self.compression.is_active() && !queue.declined() {
            self.queued = Some(Queued {
                queue: Arc::clone(queue),
                since: queue.counts(),
                sealed: VecDeque::new(),
                bound: 0,
                patience: Duration::ZERO,
            });
        }
        self
    }

    /// Appends an entry; keys must arrive in strictly increasing order.
    pub fn add(&mut self, key: &[u8], value: Option<&[u8]>) -> Result<()> {
        let entry = Lent {
            key,
            value,
            window: None,
        };
        self.add_reusing(entry, |_, _| None)
    }

    /// [`SstableBuilder::add`] for an entry a merge lent from an input
    /// table, with the window it sits in. Its value is spliced when the
    /// builder splices values ([`SstableBuilder::splicing_values`]).
    /// When the entry begins a block and the codec is on, `donor` is
    /// asked for the input block at that window and key offset —
    /// [`crate::sstable::SstableReader::stored_block_at`] — and the
    /// block is sealed by copying that container if it is a stored-mode
    /// container of this builder's level holding exactly the block's
    /// bytes (the exactness argument is at `seal_block`).
    pub fn add_reusing(
        &mut self,
        entry: Lent<'_>,
        donor: impl FnOnce(&FileSlice, usize) -> Option<FileSlice>,
    ) -> Result<()> {
        let Lent { key, value, window } = entry;
        let codec = self.compression.is_active();
        let splicing = self.splice_values && !codec;
        if self.entries == 0 {
            self.min_key = Some(key.to_vec());
            let side = if splicing { 0 } else { self.out.reserve };
            self.out.file.buf.reserve_exact(side);
        } else {
            assert!(
                key > self.last_key.as_slice(),
                "SSTable keys must be strictly increasing"
            );
        }
        if self.block_entries == 0 {
            self.first_key.clear();
            self.first_key.extend_from_slice(key);
            if codec {
                self.donor = window.and_then(|(w, key_at)| donor(w, key_at));
            }
        }
        self.last_key.clear();
        self.last_key.extend_from_slice(key);
        let splice = match (value, window) {
            (Some(v), Some(lent)) if splicing && !v.is_empty() => {
                lent_range(key, v, lent).map(|range| (lent.0, range))
            }
            _ => None,
        };
        match splice {
            Some((window, range)) => {
                encode_entry_head(&mut self.out.file.buf, key, Some(range.len()));
                self.out.splice(window, range);
            }
            None if codec => encode_entry(&mut self.block, key, value),
            None => encode_entry(&mut self.out.file.buf, key, value),
        }
        self.block_entries += 1;
        self.entries += 1;
        if self.bloom_bits_per_key > 0 {
            self.key_hashes.push(hash_pair(key));
        }
        if self.block_len() >= self.block_bytes {
            self.seal_block()?;
        }
        Ok(())
    }

    /// Encoded bytes of the current (unsealed) block.
    fn block_len(&self) -> usize {
        self.block.len() + self.out.len() - self.block_start
    }

    /// Approximate file size if finished now (compaction output split
    /// decisions): the sealed blocks and the open one, before the tail.
    /// Blocks queued for the helper are not counted (the crate asks
    /// `reaches` instead).
    pub fn estimated_bytes(&self) -> u64 {
        (self.out.len() + self.block.len()) as u64
    }

    /// Whether [`SstableBuilder::estimated_bytes`] is at least
    /// `threshold` with every queued block appended: appends them first
    /// when their bound could get there.
    pub(crate) fn reaches(&mut self, threshold: u64) -> Result<bool> {
        if let Some(queued) = &self.queued {
            if self.estimated_bytes() + queued.bound as u64 >= threshold {
                self.append_queued()?;
            }
        }
        Ok(self.estimated_bytes() >= threshold)
    }

    /// Name of the table file under construction.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of entries added so far.
    pub fn entries(&self) -> u64 {
        self.entries
    }

    /// Seals the current block onto the file buffer and indexes it.
    ///
    /// With the codec on, the block is copied from its donor instead of
    /// encoded when all of these hold:
    /// 1. the donor is a data block of a table written by this codec,
    ///    beginning with this block's first entry (what
    ///    [`crate::sstable::SstableReader::stored_block_at`] returns:
    ///    an index entry of the input table, by offset arithmetic);
    /// 2. it is a stored-mode container tagged with this builder's
    ///    level ([`Compression::stored_payload_at_level`]);
    /// 3. its payload is this block, byte for byte.
    ///
    /// That is exact, not probable: the donor is what `encode_into` at
    /// this level appended for those bytes, and the codec is
    /// deterministic, so encoding this block would append the donor
    /// again. Every table byte, index entry and clock charge is the same
    /// either way; only the match finder's host time is saved.
    fn seal_block(&mut self) -> Result<()> {
        if self.block_len() == 0 {
            return Ok(());
        }
        let start = self.block_start;
        if self.compression.is_active() {
            let donor = self.donor.take();
            let same = donor
                .filter(|d| self.compression.stored_payload_at_level(d) == Some(&self.block[..]));
            if same.is_some() {
                self.reused_blocks += 1;
            }
            if !self.background {
                // Foreground builds pay the codec's CPU time on the
                // simulated clock; background (flush/compaction) builds
                // charge device bandwidth only, like their writes.
                self.vfs
                    .clock()
                    .advance(self.compression.encode_cost_ns(self.block.len()));
            }
            if self.queued.is_some() {
                return self.queue_block(same);
            }
            let out = &mut self.out.file.buf;
            match same {
                Some(container) => out.extend_from_slice(&container),
                None => self
                    .compression
                    .encode_into(&self.block, &mut self.codec_scratch, out),
            }
        }
        let end = self.out.len();
        let len = (end - start) as u32;
        encode_index_entry(
            &mut self.index,
            &self.first_key,
            start as u64,
            len,
            self.block_entries,
        );
        self.blocks += 1;
        self.block.clear();
        self.block_entries = 0;
        self.block_start = end;
        commit_pages(&mut self.out.file, end, self.page_size, !self.background)
    }

    /// [`SstableBuilder::seal_block`] handing the block to the helper:
    /// writes its index entry but the offset and length, queues it —
    /// or, when it equals `copy`, keeps that container to copy — and
    /// appends every queued block now if this one could make a commit.
    fn queue_block(&mut self, copy: Option<FileSlice>) -> Result<()> {
        let queued = self.queued.as_mut().expect("queued build");
        let index_at = self.index.len() + 2 + self.first_key.len();
        encode_index_entry(&mut self.index, &self.first_key, 0, 0, self.block_entries);
        queued.bound += self.block.len() + CONTAINER_HEADER;
        let body = match copy {
            Some(container) => Body::Copy(container),
            None => Body::Queued(queued.queue.push(&mut self.block, self.compression)),
        };
        queued.sealed.push_back(Sealed { index_at, body });
        self.blocks += 1;
        self.block.clear();
        self.block_entries = 0;
        let end = self.out.len() + queued.bound;
        let aligned = (end / self.page_size) * self.page_size;
        if aligned - self.out.file.committed() >= APPEND_BYTES {
            self.append_queued()?;
        }
        Ok(())
    }

    /// Appends every queued block's container in table order, fills in
    /// its index entry and makes the commit check after each, exactly
    /// as [`SstableBuilder::seal_block`] does for a block it encodes.
    fn append_queued(&mut self) -> Result<()> {
        let Some(queued) = self.queued.as_mut() else {
            return Ok(());
        };
        if queued.sealed.is_empty() {
            return Ok(());
        }
        // Newest first, so that the helper, taking the oldest, meets
        // this thread rather than racing it block for block.
        while let Some(block) = queued.queue.pop(false) {
            let start = Instant::now();
            block.encode(&mut self.codec_scratch);
            queued.patience = start.elapsed();
        }
        let mut appended = Vec::with_capacity(queued.sealed.len());
        queued.bound = 0;
        let mut result = Ok(());
        while let Some(sealed) = queued.sealed.pop_front() {
            let out = &mut self.out.file.buf;
            let start = out.len();
            match sealed.body {
                Body::Copy(container) => out.extend_from_slice(&container),
                Body::Queued(block) => {
                    queued.append(&block, out, &mut self.codec_scratch);
                    appended.push(block);
                }
            }
            let end = out.len();
            let entry = &mut self.index[sealed.index_at..sealed.index_at + 12];
            entry[..8].copy_from_slice(&(start as u64).to_le_bytes());
            entry[8..].copy_from_slice(&((end - start) as u32).to_le_bytes());
            self.block_start = end;
            result = commit_pages(&mut self.out.file, end, self.page_size, !self.background);
            if result.is_err() {
                break;
            }
        }
        queued.sealed.clear();
        queued.queue.give_back(appended.into_iter());
        if queued.queue.judge(queued.since) == Some(true) {
            // The helper has no CPU to speak of (a busy neighbour):
            // this job's builds encode in place from here on, and the
            // helper goes back to waiting for a job.
            queued.queue.declined.store(true, Ordering::Relaxed);
            self.queued = None;
        }
        result
    }

    /// Finalizes the table: encodes index, bloom and footer, writes
    /// everything not yet written, fsyncs, and returns the metadata. A
    /// failed finish removes the partial file.
    pub fn finish(self) -> Result<SstableMeta> {
        let (meta, _, image) = self.finish_counted()?;
        image.materialize();
        Ok(meta)
    }

    /// [`SstableBuilder::finish`], also returning how many blocks were
    /// copied from a donor instead of encoded, and leaving the laying
    /// out to the caller: the file is written, and readable once the
    /// image is materialized (or dropped).
    pub fn finish_counted(mut self) -> Result<(SstableMeta, u64, TableImage)> {
        if self.entries == 0 {
            // An empty table is a caller bug upstream; fail cleanly.
            self.vfs.delete(&self.name)?;
            return Err(StoreError::Corruption(
                "refusing to write empty SSTable".into(),
            ));
        }
        if let Err(e) = self.seal_block().and_then(|()| self.append_queued()) {
            self.abandon();
            return Err(e);
        }
        let bloom = (self.bloom_bits_per_key > 0)
            .then(|| BloomFilter::from_hashes(&self.key_hashes, self.bloom_bits_per_key));
        let index_len = 4 + self.index.len();
        let bloom_len = bloom.as_ref().map_or(0, BloomFilter::encoded_len);
        let index_off = self.out.len() as u64;
        let bloom_off = index_off + index_len as u64;
        let out = &mut self.out.file.buf;
        out.reserve_exact(index_len + bloom_len + FOOTER_LEN);
        out.extend_from_slice(&self.blocks.to_le_bytes());
        out.extend_from_slice(&self.index);
        if let Some(bloom) = bloom {
            bloom.encode(out);
        }
        Footer {
            index_off,
            index_len: index_len as u32,
            bloom_off,
            bloom_len: bloom_len as u32,
            entries: self.entries,
            // The codec level doubles as the block-format tag: 0 keeps
            // the seed format byte-identical, non-zero tells the reader
            // that data blocks are compressed containers.
            reserved: self.compression.level() as u32,
        }
        .encode(out);

        let total = self.out.len();
        self.out.reserve_laid_out();
        if let Err(e) = self.out.file.commit(total, !self.background) {
            // Out of space mid-finish: remove the partial file.
            let _ = self.vfs.delete(&self.name);
            return Err(e.into());
        }
        // Background builds install without waiting for durability (the
        // version edit is logical; durability arrives when the destage
        // completes). Foreground builds fsync.
        if !self.background {
            self.vfs.fsync(self.file)?;
        }
        let meta = SstableMeta {
            name: self.name,
            min_key: self.min_key.expect("non-empty"),
            max_key: self.last_key,
            entries: self.entries,
            file_bytes: total as u64,
        };
        Ok((meta, self.reused_blocks, self.out))
    }

    /// Abandons the build, deleting the partial file.
    pub fn abandon(self) {
        let _ = self.vfs.delete(&self.name);
    }
}

/// Commits the whole pages of a table `end` bytes long once
/// [`APPEND_BYTES`] of them have gathered (aligned writes).
fn commit_pages(
    file: &mut FileAppender,
    end: usize,
    page_size: usize,
    foreground: bool,
) -> Result<()> {
    let aligned = (end / page_size) * page_size;
    if aligned - file.committed() >= APPEND_BYTES {
        file.commit(aligned, foreground)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iter::Merge;
    use crate::sstable::format::{BlockIndex, Footer};
    use crate::sstable::SstableReader;
    use ptsbench_ssd::{DeviceConfig, DeviceProfile, SmartCounters, Ssd};
    use ptsbench_vfs::{FsStats, VfsOptions};

    fn vfs() -> Vfs {
        let ssd = Ssd::new(DeviceConfig::from_profile(DeviceProfile::ssd1(), 32 << 20));
        Vfs::whole_device(ssd.into_shared(), VfsOptions::default())
    }

    /// An entry with its key as a range: of the window a scan lent it
    /// from (what `stored_block_at` looks a block up by, at offset 0 of
    /// the range), or of a buffer of its own.
    type Scanned = (FileSlice, Option<FileSlice>);

    #[test]
    fn build_produces_valid_meta() {
        let v = vfs();
        let mut b = SstableBuilder::create(v.clone(), "sst-1", 4096, 10).expect("create");
        for i in 0..100u32 {
            let key = format!("key{:05}", i);
            b.add(key.as_bytes(), Some(&[i as u8; 50])).expect("add");
        }
        let meta = b.finish().expect("finish");
        assert_eq!(meta.entries, 100);
        assert_eq!(meta.min_key, b"key00000");
        assert_eq!(meta.max_key, b"key00099");
        assert_eq!(
            meta.file_bytes,
            v.size(v.open("sst-1").expect("open")).expect("size")
        );
        assert!(meta.file_bytes > 100 * 50);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_keys_panic() {
        let v = vfs();
        let mut b = SstableBuilder::create(v, "sst-1", 4096, 10).expect("create");
        b.add(b"b", Some(b"1")).expect("add");
        b.add(b"a", Some(b"2")).expect("add");
    }

    #[test]
    fn empty_build_fails_cleanly() {
        let v = vfs();
        let b = SstableBuilder::create(v.clone(), "sst-1", 4096, 10).expect("create");
        assert!(b.finish().is_err());
        assert!(!v.exists("sst-1"), "partial file removed");
    }

    #[test]
    fn abandon_removes_file() {
        let v = vfs();
        let mut b = SstableBuilder::create(v.clone(), "sst-1", 4096, 10).expect("create");
        b.add(b"a", Some(b"1")).expect("add");
        b.abandon();
        assert!(!v.exists("sst-1"));
    }

    /// `len` xorshift bytes: no block of them compresses.
    fn noise(seed: u64, len: usize) -> Vec<u8> {
        let mut state = seed | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 32) as u8
            })
            .collect()
    }

    /// Entries `range`, each an 11-byte key and a 2 000-byte value —
    /// three to a 4 KiB block — tombstones at `tombstones`; noise values
    /// unless `compressible`. (Blocks of five 1 000-byte noise values do
    /// compress: their keys and entry headers repeat.)
    fn entries(
        range: std::ops::Range<u32>,
        tombstones: &[u32],
        compressible: bool,
    ) -> Vec<Scanned> {
        range
            .map(|i| {
                let key = FileSlice::from(format!("key{i:08}").into_bytes());
                let value = if compressible {
                    format!("value-{i}-").repeat(300).into_bytes()[..2000].to_vec()
                } else {
                    noise((i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15), 2000)
                };
                (key, (!tombstones.contains(&i)).then(|| value.into()))
            })
            .collect()
    }

    /// `entry` lent with its key range as its window (key at 0).
    fn lent((key, value): &Scanned) -> Lent<'_> {
        Lent {
            key,
            value: value.as_deref(),
            window: Some((key, 0)),
        }
    }

    /// Builds `name` at codec `level` from `entries`, offering every
    /// entry the blocks of `inputs` the way a compaction does; returns
    /// the table's bytes and how many blocks were copied.
    fn build(
        v: &Vfs,
        name: &str,
        level: u8,
        entries: &[Scanned],
        inputs: &[&SstableReader],
    ) -> (Vec<u8>, u64) {
        let mut b = SstableBuilder::create_bg(v.clone(), name, 4096, 10, 0)
            .expect("create")
            .with_compression(Compression::from_level(level));
        for entry in entries {
            b.add_reusing(lent(entry), |w, at| {
                inputs.iter().find_map(|r| r.stored_block_at(w, at))
            })
            .expect("add");
        }
        let (meta, reused, image) = b.finish_counted().expect("finish");
        image.materialize();
        let image = v.read_at(v.open(name).expect("open"), 0, meta.file_bytes as usize);
        (image.expect("read"), reused)
    }

    /// A table written from `entries` and opened, with its scan.
    fn input(v: &Vfs, name: &str, level: u8, entries: &[Scanned]) -> (SstableReader, Vec<Scanned>) {
        build(v, name, level, entries, &[]);
        let r = SstableReader::open(v.clone(), name, true, None).expect("open");
        let mut scanned = Vec::new();
        let mut scan = Merge::new(vec![r.iter_bg()]);
        while let Some(e) = scan.next_entry() {
            let (window, at) = e.window.expect("a table entry");
            let value = e.value.map(|v| v.to_vec().into());
            scanned.push((window.slice(at..at + e.key.len()), value));
        }
        drop(scan);
        (r, scanned)
    }

    fn blocks(image: &[u8]) -> usize {
        let footer = Footer::decode(&image[image.len() - FOOTER_LEN..]).expect("footer");
        u32::from_le_bytes(
            image[footer.index_off as usize..][..4]
                .try_into()
                .expect("4"),
        ) as usize
    }

    #[test]
    fn a_copied_block_is_the_block_a_fresh_build_encodes() {
        let v = vfs();
        let (r, scan) = input(&v, "in", 1, &entries(0..20, &[], false));
        let (image, reused) = build(&v, "out", 1, &scan, &[&r]);
        let (fresh, _) = build(&v, "fresh", 1, &scan, &[]);
        assert_eq!(blocks(&image), 7);
        assert_eq!(reused, 7, "every block, the short last one too");
        assert!(image == fresh, "copied image differs from a fresh build");
    }

    #[test]
    fn a_dropped_tombstone_re_encodes_its_block() {
        // The tombstone makes the input's first block four entries long;
        // without it the output's first is three, and the rest line up.
        let v = vfs();
        let (r, scan) = input(&v, "in", 1, &entries(0..20, &[1], false));
        let live: Vec<Scanned> = scan.into_iter().filter(|(_, v)| v.is_some()).collect();
        let (image, reused) = build(&v, "out", 1, &live, &[&r]);
        let (fresh, _) = build(&v, "fresh", 1, &live, &[]);
        assert_eq!((blocks(&image), reused), (7, 6));
        assert!(image == fresh);
    }

    #[test]
    fn another_levels_blocks_are_re_encoded() {
        let v = vfs();
        let (r, scan) = input(&v, "in", 3, &entries(0..20, &[], false));
        assert!(
            r.stored_block_at(&scan[0].0, 0).is_some(),
            "offered, stored at level 3"
        );
        let (image, reused) = build(&v, "out", 1, &scan, &[&r]);
        let (fresh, _) = build(&v, "fresh", 1, &scan, &[]);
        assert_eq!(reused, 0);
        assert!(image == fresh);
    }

    #[test]
    fn an_lz_container_is_never_copied() {
        // Offered its own block's LZ container, the builder encodes
        // anyway: only stored containers are copied.
        let v = vfs();
        let all = entries(0..20, &[], true);
        let (want, _) = build(&v, "in", 1, &all, &[]);
        let footer = Footer::decode(&want[want.len() - FOOTER_LEN..]).expect("footer");
        let index_bytes = &want[footer.index_off as usize..footer.bloom_off as usize];
        let index = BlockIndex::decode(index_bytes.to_vec().into()).expect("index");
        let mut containers = (index.entries.iter())
            .map(|e| FileSlice::from(want[e.offset as usize..][..e.len as usize].to_vec()));
        let mut b = SstableBuilder::create_bg(v.clone(), "out", 4096, 10, 0)
            .expect("create")
            .with_compression(Compression::from_level(1));
        for entry in &all {
            b.add_reusing(lent(entry), |_, _| containers.next())
                .expect("add");
        }
        let (meta, reused, image) = b.finish_counted().expect("finish");
        image.materialize();
        assert_eq!(reused, 0);
        assert_eq!(containers.next(), None, "offered once per block");
        let image = v.read_at(v.open("out").expect("open"), 0, meta.file_bytes as usize);
        assert!(image.expect("read") == want);
    }

    #[test]
    fn memtable_entries_are_re_encoded() {
        // The same bytes, but owned rather than ranges of the input.
        let v = vfs();
        let owned = entries(0..20, &[], false);
        let (r, _) = input(&v, "in", 1, &owned);
        let (image, reused) = build(&v, "out", 1, &owned, &[&r]);
        assert_eq!(reused, 0);
        assert!(image == build(&v, "fresh", 1, &owned, &[]).0);
    }

    #[test]
    fn a_short_last_block_followed_by_more_entries_is_re_encoded() {
        // Input one is blocks of 3, 3 and 2 entries; the output's third
        // block adds one of input two's, and stays out of step with
        // input two's blocks from there on.
        let v = vfs();
        let (one, mut scan) = input(&v, "in-1", 1, &entries(0..8, &[], false));
        let (two, rest) = input(&v, "in-2", 1, &entries(8..26, &[], false));
        scan.extend(rest);
        let (image, reused) = build(&v, "out", 1, &scan, &[&one, &two]);
        assert_eq!(reused, 2);
        assert!(image == build(&v, "fresh", 1, &scan, &[]).0);
    }

    /// How a table of lent entries is finished.
    #[derive(Clone, Copy, PartialEq, Debug)]
    enum Way {
        /// Values spliced, laid out on a helper thread.
        Helper,
        /// Values spliced, laid out on the building thread.
        Caller,
        /// Values copied in as they are added.
        Copied,
    }

    /// What one build left behind: the table's bytes and metadata, the
    /// drive's counters, `df`, and the clock.
    type Built = (Vec<u8>, SstableMeta, SmartCounters, FsStats, u64);

    /// Whether `pos` of the table falls strictly inside a spliced value.
    fn inside_a_splice(image: &TableImage, pos: usize) -> bool {
        let mut shift = 0;
        image.splices.iter().any(|s| {
            let start = s.at + shift;
            shift += s.range.len();
            start < pos && pos < start + s.range.len()
        })
    }

    /// Builds a table from a scan of another, on a drive of its own,
    /// the way `way` says; every seventh entry is added without its
    /// window (so copied whatever the way).
    fn lent_build(entries: &[Scanned], way: Way) -> Built {
        let v = vfs();
        build(&v, "in", 0, entries, &[]);
        let r = SstableReader::open(v.clone(), "in", true, None).expect("open");
        let mut b = SstableBuilder::create_bg(v.clone(), "out", 4096, 10, 1 << 20).expect("create");
        if way != Way::Copied {
            b = b.splicing_values();
        }
        let mut scan = Merge::new(vec![r.iter_bg()]);
        let (mut n, mut commits_inside) = (0, 0);
        while let Some(mut entry) = scan.next_entry() {
            if n % 7 == 3 {
                entry.window = None;
            }
            n += 1;
            let before = b.out.file.committed();
            b.add_reusing(entry, |_, _| None).expect("add");
            let at = b.out.file.committed();
            if at != before && inside_a_splice(&b.out, at) {
                commits_inside += 1;
            }
        }
        drop(scan);
        let (meta, _, image) = b.finish_counted().expect("finish");
        assert_eq!(image.is_spliced(), way != Way::Copied, "{way:?}");
        if way != Way::Copied {
            assert!(
                commits_inside >= 2,
                "{way:?}: {commits_inside} commits inside a value"
            );
        }
        match way {
            Way::Helper => std::thread::scope(|s| {
                s.spawn(|| image.materialize());
            }),
            Way::Caller | Way::Copied => image.materialize(),
        }
        let bytes = v.read_at(v.open("out").expect("open"), 0, meta.file_bytes as usize);
        v.check_invariants();
        let smart = v.ssd().lock().smart();
        (
            bytes.expect("read"),
            meta,
            smart,
            v.stats(),
            v.clock().now(),
        )
    }

    #[test]
    fn spliced_values_lay_out_the_bytes_a_copying_build_writes() {
        // ~1.2 MiB of 3-5 KB noise values, tombstones and empty values.
        let entries: Vec<Scanned> = (0..360u32)
            .map(|i| {
                let key = FileSlice::from(format!("key{i:08}").into_bytes());
                let value = match (i % 11, i % 13) {
                    (5, _) => None,
                    (_, 6) => Some(Vec::new()),
                    _ => Some(noise(i as u64 + 1, 3000 + (i as usize * 37) % 2000)),
                };
                (key, value.map(FileSlice::from))
            })
            .collect();
        let copied = lent_build(&entries, Way::Copied);
        assert!(copied.0.len() > 1 << 20);
        for way in [Way::Helper, Way::Caller] {
            let spliced = lent_build(&entries, way);
            assert!(spliced.0 == copied.0, "{way:?}: table bytes differ");
            assert_eq!(spliced.1, copied.1, "{way:?}");
            assert_eq!(spliced.2, copied.2, "{way:?}");
            assert_eq!(spliced.3, copied.3, "{way:?}");
            assert_eq!(spliced.4, copied.4, "{way:?}");
        }
    }

    /// Who encodes a codec-on build's blocks.
    #[derive(Clone, Copy, PartialEq, Debug)]
    enum Encoder {
        /// The building thread, as it seals each block.
        Builder,
        /// The building thread takes the oldest queued block back as a
        /// helper would, after every fifth entry; the builder encodes
        /// the rest when it appends them.
        Interleaved,
        /// A helper thread, while the build goes on.
        Thread,
        /// A helper that takes the oldest queued block after every
        /// seventh entry and never encodes it, like one whose CPU went
        /// elsewhere: the builder encodes those blocks itself.
        Stalled,
    }

    /// What a codec-on build left behind: each output's bytes, metadata
    /// and `durable_at`, then the drive's counters, `df` and clock, and
    /// the drive's counters after every entry (where each commit fell
    /// among the window reads).
    type Outputs = (
        Vec<(Vec<u8>, SstableMeta, u64)>,
        SmartCounters,
        FsStats,
        u64,
        Vec<SmartCounters>,
    );

    /// Builds level-1 outputs from a scan of a table of `entries`, every
    /// tenth entry dropped, the way a compaction builds them: each window
    /// read as the merge reaches it (between the outputs' commits), each
    /// block offered the input's block where it starts, the outputs split
    /// at `SPLIT` bytes as `reaches` says, and the encoding done as
    /// `encoder` says. Returns the outputs, how many blocks were copied
    /// and how many an interleaved or stalled encoder took.
    fn codec_outputs(entries: &[Scanned], encoder: Encoder) -> (Outputs, u64, usize) {
        const SPLIT: u64 = 600 << 10;
        let v = vfs();
        build(&v, "in", 1, entries, &[]);
        let r = SstableReader::open(v.clone(), "in", true, None).expect("open");
        let queue = Arc::new(BlockQueue::default());
        let stop = AtomicBool::new(false);
        let (mut reused, mut taken) = (0, 0);
        let (mut metas, mut steps) = (Vec::new(), Vec::new());
        std::thread::scope(|s| {
            let helper = (encoder == Encoder::Thread).then(|| {
                s.spawn(|| {
                    let mut scratch = EncodeScratch::default();
                    while !stop.load(Ordering::Acquire) {
                        if !queue.encode_oldest(&mut scratch) {
                            std::thread::yield_now();
                        }
                    }
                })
            });
            let mut scratch = EncodeScratch::default();
            let mut held = Vec::new();
            let mut builder: Option<SstableBuilder> = None;
            let mut finish = |b: SstableBuilder, metas: &mut Vec<SstableMeta>| {
                let (meta, copied, image) = b.finish_counted().expect("finish");
                image.materialize();
                reused += copied;
                metas.push(meta);
            };
            let mut scan = Merge::new(vec![r.iter_bg()]);
            let mut n = 0;
            while let Some(entry) = scan.next_entry() {
                n += 1;
                if n % 10 == 9 {
                    continue;
                }
                let b = builder.get_or_insert_with(|| {
                    let name = format!("out-{}", metas.len());
                    let b = SstableBuilder::create_bg(v.clone(), &name, 4096, 10, SPLIT)
                        .expect("create")
                        .with_compression(Compression::from_level(1));
                    match encoder {
                        Encoder::Builder => b,
                        _ => b.encoding_on(&queue),
                    }
                });
                b.add_reusing(entry, |w, at| r.stored_block_at(w, at))
                    .expect("add");
                if encoder == Encoder::Interleaved && n % 5 == 0 {
                    taken += usize::from(queue.encode_oldest(&mut scratch));
                }
                if encoder == Encoder::Stalled && n % 7 == 0 {
                    held.extend(queue.pop(true));
                }
                if b.reaches(SPLIT).expect("reaches") {
                    finish(builder.take().expect("live"), &mut metas);
                }
                steps.push(v.ssd().lock().smart());
            }
            if let Some(b) = builder.take() {
                finish(b, &mut metas);
            }
            stop.store(true, Ordering::Release);
            if let Some(helper) = helper {
                helper.join().expect("helper");
            }
            taken += held.len();
        });
        // A helper that took blocks and encoded none is declined; one
        // that encodes its share is not.
        match encoder {
            Encoder::Stalled => assert!(queue.declined(), "a starved helper is declined"),
            Encoder::Interleaved => assert!(!queue.declined(), "a helper doing its share"),
            Encoder::Builder | Encoder::Thread => {}
        }
        let outputs = (metas.into_iter())
            .map(|meta| {
                let id = v.open(&meta.name).expect("open");
                let bytes = v.read_at(id, 0, meta.file_bytes as usize).expect("read");
                (bytes, meta, v.durable_at(id).expect("durable_at"))
            })
            .collect();
        v.check_invariants();
        let smart = v.ssd().lock().smart();
        let built = (outputs, smart, v.stats(), v.clock().now(), steps);
        (built, reused, taken)
    }

    #[test]
    fn a_helper_encoding_the_blocks_leaves_every_byte_where_the_builder_puts_it() {
        // ~1.8 MiB: runs of noise and of compressible values, so that
        // outputs hold stored blocks copied from the input, stored
        // blocks encoded anew (a dropped entry shifts the blocks) and LZ
        // blocks.
        let entries: Vec<Scanned> = (0..900u32)
            .map(|i| {
                let key = FileSlice::from(format!("key{i:08}").into_bytes());
                let value = if (i / 60) % 3 != 2 {
                    noise((i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15), 2000)
                } else {
                    format!("value-{i}-").repeat(300).into_bytes()[..2000].to_vec()
                };
                (key, Some(value.into()))
            })
            .collect();
        let (alone, reused, _) = codec_outputs(&entries, Encoder::Builder);
        let outputs = &alone.0;
        assert!(outputs.len() >= 2, "the outputs split");
        assert!(
            outputs[0].0.len() > 2 * APPEND_BYTES,
            "two commits before finish"
        );
        let blocks: usize = outputs.iter().map(|(bytes, _, _)| blocks(bytes)).sum();
        assert!(
            reused > 0 && (reused as usize) < blocks,
            "{reused} of {blocks} copied"
        );
        for encoder in [Encoder::Interleaved, Encoder::Thread, Encoder::Stalled] {
            let (helped, copied, taken) = codec_outputs(&entries, encoder);
            if encoder != Encoder::Thread {
                assert!(taken > 0, "{encoder:?}: no block was taken out of turn");
            }
            assert_eq!(copied, reused, "{encoder:?}");
            assert_eq!(helped.0.len(), outputs.len(), "{encoder:?}");
            for (got, want) in helped.0.iter().zip(outputs) {
                assert!(got.0 == want.0, "{encoder:?}: {} bytes differ", want.1.name);
                assert_eq!(got.1, want.1, "{encoder:?}");
                assert_eq!(got.2, want.2, "{encoder:?}: durable_at");
            }
            assert_eq!(helped.1, alone.1, "{encoder:?}: SMART");
            assert_eq!(helped.2, alone.2, "{encoder:?}: df");
            assert_eq!(helped.3, alone.3, "{encoder:?}: clock");
            assert!(
                helped.4 == alone.4,
                "{encoder:?}: device counters per entry"
            );
        }
    }

    #[test]
    fn a_dropped_image_lays_itself_out() {
        // What a builder dropped mid-compaction leaves (a crash): the
        // file holds every byte it was committed with.
        let v = vfs();
        let scanned = entries(0..200, &[3], false);
        build(&v, "in", 0, &scanned, &[]);
        let r = SstableReader::open(v.clone(), "in", true, None).expect("open");
        let mut b = SstableBuilder::create_bg(v.clone(), "out", 4096, 10, 0)
            .expect("create")
            .splicing_values();
        let mut scan = Merge::new(vec![r.iter_bg()]);
        while let Some(entry) = scan.next_entry() {
            b.add_reusing(entry, |_, _| None).expect("add");
        }
        drop(scan);
        let committed = b.out.file.committed();
        assert!(committed > 0 && b.out.is_spliced());
        drop(b);
        let id = v.open("out").expect("open");
        let want = v
            .read_at(v.open("in").expect("open"), 0, committed)
            .expect("read");
        assert!(v.read_at(id, 0, usize::MAX).expect("read") == want);
        v.check_invariants();
    }

    #[test]
    fn large_values_span_blocks() {
        let v = vfs();
        let mut b = SstableBuilder::create(v.clone(), "sst-1", 4096, 10).expect("create");
        for i in 0..20u32 {
            let key = format!("k{:03}", i);
            b.add(key.as_bytes(), Some(&vec![7u8; 4000])).expect("add");
        }
        let meta = b.finish().expect("finish");
        assert!(meta.file_bytes > 20 * 4000);
    }
}
