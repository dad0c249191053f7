//! The filesystem: named files on a partition of the simulated drive.
//!
//! [`Vfs`] is cheaply cloneable (shared interior); the key-value engines
//! hold one clone, the measurement harness another, mirroring how a real
//! benchmark observes `df`/`iostat` next to the system under test.
//!
//! # Who owns a file's bytes
//!
//! Contents are host state — the device only models *when* they move —
//! and each file keeps its own in reference-counted *pieces*. A paged
//! file ([`Vfs::create_paged`], the B+Tree's tree file) has one piece
//! per page; every other file — tables, segments, logs — has exactly
//! one, its whole contents. One code path serves both: a read is
//! charged to the device page by page and then *shares* a range of the
//! piece that holds it; [`Vfs::read_shared`], [`Vfs::read_shared_bg`]
//! and [`Vfs::read_runs_shared`] are the reads, and each returns a
//! [`FileSlice`] (a read across the pages of a paged file copies them
//! into one buffer instead). A slice keeps the bytes it was read with:
//! a write into a piece while any slice of it is outstanding replaces
//! that piece — copying it once (`Arc::make_mut`) if the write covers
//! part of it — and leaves the old one to the slices; deleting the file
//! does not disturb them either. For a one-piece file that copy is the
//! whole file: correct and slow, and one rule, which holds per piece,
//! keeps every engine from paying it:
//!
//! **a range of a piece that can still be written is dropped before the
//! call that read it returns — unless the piece is one page.** Log,
//! manifest and segment replay parse their ranges and let go; a
//! hash-log point read of the active segment lends the value to the
//! caller's closure (`get_with`), and the range is dropped before the
//! call returns — a closure may copy the bytes, never keep the range.
//! Ranges of files nobody writes again — finished
//! tables, sealed segments, GC victims — may be kept for as long as
//! they are useful (scan windows, a victim being relocated across
//! slices, past the file's deletion). A page of a paged file may be
//! held across writes: the B+Tree's page cache keeps every leaf it
//! loads as the file's own page, and a later write of that page costs
//! at most that page. [`Vfs::write_page`] is the other half: a whole
//! page of a paged file written by reference count, so a write-back
//! hands the cache's buffer to the file instead of copying it, and
//! [`Vfs::rewrite_page`] writes back a page the cache still shares with
//! the file plus the edits it kept beside it, making them in the file's
//! own page when nobody else holds it. [`Vfs::read_at`] is the rule
//! applied for the caller — the same read, copied out — for one-off
//! reads (the B+Tree's meta page at recovery), tests, tools and the
//! benchmark's unit-cost row.
//!
//! A one-piece file that grows at its tail has one more owner for a
//! while: [`Vfs::appender`] checks the buffer out to a single writer
//! ([`FileAppender`]), which encodes at its tail with no lock and no
//! second buffer and commits prefixes of it through the accounting
//! every write goes through (`Inner::write`). Two writers do: a table
//! builder holds a table's buffer for the whole build (written once,
//! front to back), and the hash log holds its active segment's for one
//! append — a group of records encoded in place, committed once, and
//! the buffer handed back before the write returns. Meanwhile the
//! file's *size* is the committed length — what [`Vfs::size`], `df` and
//! a crash would see — and its contents are nobody else's: a read, a
//! write, a truncate or a second appender is an `InvalidArgument`
//! error, never an empty read. Deleting the file is allowed (an
//! abandoned build) and orphans the buffer.
//!
//! A buffer can outlive its file: once the file is deleted (or the
//! piece replaced), the last [`FileSlice`] of it gives the whole
//! allocation back ([`FileSlice::into_buffer`]) — the hash log makes a
//! collected victim's buffer its next segment's.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use parking_lot::Mutex;
use ptsbench_ssd::{IoCmd, IoQueue, IoToken, LpnRange, Ns, SharedSsd, SimClock, Tracer};

use crate::alloc::{Extent, ExtentAllocator};
use crate::error::VfsError;
use crate::file::{FileId, FileNode};
use crate::slice::FileSlice;
use crate::Result;

/// An in-flight batched read ([`Vfs::read_runs_shared`]): the data
/// (contents are host state, the device only models *when* they arrive)
/// plus the submission tokens of its per-run commands.
#[derive(Debug)]
pub struct AsyncRead {
    tokens: Vec<IoToken>,
    data: FileSlice,
}

impl AsyncRead {
    /// Blocks (advances the virtual clock) until every run completes,
    /// then yields the data.
    pub fn wait(self, queue: &mut IoQueue) -> FileSlice {
        for token in self.tokens {
            queue.wait(token);
        }
        self.data
    }

    /// Detaches the completions (background semantics: the device work
    /// stays charged, the clock never blocks) and yields the data.
    pub fn into_bg(self, queue: &mut IoQueue) -> FileSlice {
        for token in self.tokens {
            queue.forget(token);
        }
        self.data
    }
}

/// Mount options. Extent placement is always next-fit (see
/// [`ExtentAllocator`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct VfsOptions {
    /// If true, deleting a file TRIMs its extents (ext4 `-o discard`);
    /// if false (default, matching the paper's `nodiscard` mount) the
    /// device keeps the pages as live data until they are overwritten.
    pub discard_on_delete: bool,
}

/// Filesystem-level usage statistics (the `df` view, used for the
/// paper's disk-utilization and space-amplification figures).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FsStats {
    /// Pages in the partition.
    pub partition_pages: u64,
    /// Pages allocated to live files.
    pub used_pages: u64,
    /// Pages free.
    pub free_pages: u64,
    /// Live file count.
    pub live_files: usize,
    /// High-water mark of `used_pages` since mount (or the last
    /// [`Vfs::reset_peak_usage`] call). The paper reports the *maximum*
    /// utilization for the LSM because compaction transiently holds both
    /// inputs and outputs on disk.
    pub peak_used_pages: u64,
    /// Sum of file sizes in bytes (logical data).
    pub data_bytes: u64,
    /// `used_pages * page_size` — bytes of the partition consumed,
    /// including allocation padding.
    pub used_bytes: u64,
}

struct Inner {
    ssd: SharedSsd,
    clock: Arc<SimClock>,
    page_size: u64,
    opts: VfsOptions,
    allocator: ExtentAllocator,
    peak_used_pages: u64,
    /// Sum of live file sizes, kept current by write/truncate/delete.
    data_bytes: u64,
    files: HashMap<FileId, FileNode, BuildHasherDefault<FileIdHasher>>,
    names: HashMap<String, FileId>,
    next_id: u64,
}

/// Fibonacci hashing of a file id: one multiply, where SipHash cost
/// every read and write a keyed hash. Ids are handed out by the
/// filesystem itself, one after another, so no collision resistance is
/// needed; the map is only summed over, never iterated in an order that
/// could reach a report.
#[derive(Default)]
struct FileIdHasher(u64);

impl Hasher for FileIdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b.into());
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// What a write puts in the file.
enum Src<'a> {
    /// Bytes copied in.
    Copied(&'a [u8]),
    /// A page shared by reference count where it is one whole piece of
    /// a paged file, copied in otherwise.
    Shared(&'a Arc<Vec<u8>>),
    /// A page the caller holds, with an edit to apply: made in the
    /// file's own piece when that is the page, and the page left as
    /// what the file holds (see [`Vfs::rewrite_page`]).
    Patched(&'a mut Arc<Vec<u8>>, &'a mut dyn FnMut(&mut [u8])),
    /// This many more bytes of the file an appender is building. They
    /// need not be in its buffer yet: nothing here reads them, and the
    /// appender's check-in asserts they are there by then.
    Committed(u64),
}

impl Src<'_> {
    fn len(&self) -> u64 {
        match self {
            Src::Copied(bytes) => bytes.len() as u64,
            Src::Shared(page) => page.len() as u64,
            Src::Patched(page, _) => page.len() as u64,
            Src::Committed(len) => *len,
        }
    }
}

impl Inner {
    /// The one write: `src` at `offset` (`None`: at EOF, as it is under
    /// this lock). Allocates extents, moves the size and charges the
    /// device, advancing the clock when `blocking`. How the bytes get
    /// into the file — copied, shared, or already there — moves none of
    /// that.
    fn write(
        &mut self,
        id: FileId,
        offset: Option<u64>,
        src: Src<'_>,
        blocking: bool,
    ) -> Result<()> {
        let len = src.len();
        if len == 0 {
            return Ok(());
        }
        let ps = self.page_size;
        let node = self.files.get_mut(&id).ok_or(VfsError::StaleHandle)?;
        if !matches!(src, Src::Committed(_)) {
            node.available()?;
        }
        let old_size = node.len;
        let offset = offset.unwrap_or(old_size);
        if offset > old_size {
            return Err(VfsError::InvalidArgument(format!(
                "write at {offset} past EOF {old_size} would leave a hole"
            )));
        }
        let end = offset + len;
        let new_size = old_size.max(end);
        let needed_pages = new_size.div_ceil(ps);
        let have_pages = node.total_pages();
        if needed_pages > have_pages {
            let fresh = self.allocator.alloc(needed_pages - have_pages)?;
            node.push_extents(fresh);
            self.peak_used_pages = self.peak_used_pages.max(self.allocator.used_pages());
        }

        // Contents: overwrite what exists, append the rest.
        match src {
            Src::Copied(bytes) => node.store(offset as usize, bytes),
            Src::Shared(page) => node.store_shared(offset as usize, page),
            Src::Patched(page, patch) => node.store_patched(offset as usize, page, patch),
            Src::Committed(_) => {}
        }
        node.len = new_size;
        self.data_bytes += new_size - old_size;

        // Device traffic. Partial first/last pages that already existed
        // require read-modify-write under direct I/O.
        let clock = &self.clock;
        let first_page = offset / ps;
        let last_page = (end - 1) / ps;
        let old_pages = old_size.div_ceil(ps);
        let mut dev = self.ssd.lock();
        let span = dev
            .tracer()
            .begin("vfs.write", dev.current_cause(), clock.now());
        if !offset.is_multiple_of(ps) && first_page < old_pages {
            let done = dev.read_page(node.page_to_lpn(first_page));
            if blocking {
                clock.advance_to(done);
            }
        }
        if !end.is_multiple_of(ps) && last_page < old_pages && last_page != first_page {
            let done = dev.read_page(node.page_to_lpn(last_page));
            if blocking {
                clock.advance_to(done);
            }
        }
        let mut durable_at = node.durable_at;
        let written = node
            .runs(first_page, last_page - first_page + 1)
            .try_for_each(|run| {
                let c = dev.write_range(run)?;
                if blocking {
                    clock.advance_to(c.host_done);
                }
                durable_at = durable_at.max(c.durable_at);
                Ok::<(), VfsError>(())
            });
        node.durable_at = durable_at;
        written?;
        dev.tracer().end(span, clock.now());
        Ok(())
    }
}

/// One writer growing a file in the file's own buffer, checked out by
/// [`Vfs::appender`] (see the [module docs](self)): it encodes at the
/// tail of `buf` and commits prefixes of the file — a table builder for
/// a whole build, the hash log for one group of records. A commit moves
/// the file's length, extents, device and clock only, so it may run
/// ahead of `buf`: a table builder commits values it has not copied in
/// yet and puts them in place before it lets go. A writer may put a
/// buffer of its own in place of `buf` (the hash log hands a fresh
/// segment a recycled one; a table builder lays its pieces out in a new
/// one). Dropping the appender hands the buffer back to the file, cut
/// to the committed length, and asserts that it holds every committed
/// byte — a file never has a size without its bytes, and an append
/// that failed or was never committed leaves the file as it was. An
/// appender dropped short while its thread panics cuts the file to the
/// bytes it holds instead (extents kept, as [`Vfs::truncate`] does).
#[derive(Debug)]
pub struct FileAppender {
    vfs: Vfs,
    id: FileId,
    /// The file's contents so far, then what the writer is encoding.
    /// At least the committed length by the time the appender drops.
    pub buf: Vec<u8>,
    committed: usize,
}

impl FileAppender {
    /// Makes the file `upto` bytes long: extents, device commands,
    /// clock (when `blocking`) and `df` exactly as appending
    /// `[committed, upto)` would. The bytes are `buf[..upto]` once the
    /// appender drops. On an error nothing was committed.
    ///
    /// # Panics
    /// Panics if `upto` is below the committed length.
    pub fn commit(&mut self, upto: usize, blocking: bool) -> Result<()> {
        assert!(self.committed <= upto);
        let len = (upto - self.committed) as u64;
        let mut g = self.vfs.inner.lock();
        g.write(self.id, None, Src::Committed(len), blocking)?;
        self.committed = upto;
        Ok(())
    }

    /// How much of the buffer is the file so far.
    pub fn committed(&self) -> usize {
        self.committed
    }
}

/// A file deleted in the meantime (an abandoned build) is left alone.
impl Drop for FileAppender {
    fn drop(&mut self) {
        let mut g = self.vfs.inner.lock();
        let Inner {
            data_bytes, files, ..
        } = &mut *g;
        if let Some(node) = files.get_mut(&self.id) {
            let held = self.buf.len();
            if held < self.committed && std::thread::panicking() {
                // A writer that panicked may leave the buffer short:
                // that panic, not this one, is the news. The file
                // keeps the bytes it has.
                node.check_in(std::mem::take(&mut self.buf));
                *data_bytes -= node.len - held as u64;
                node.cut(held as u64);
                return;
            }
            assert!(
                held >= self.committed,
                "{}: {held} of {} committed bytes checked in",
                node.name,
                self.committed
            );
            self.buf.truncate(self.committed);
            node.check_in(std::mem::take(&mut self.buf));
        }
    }
}

/// A filesystem mounted on a partition of a simulated drive.
#[derive(Clone)]
pub struct Vfs {
    inner: Arc<Mutex<Inner>>,
}

impl std::fmt::Debug for Vfs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let g = self.inner.lock();
        f.debug_struct("Vfs")
            .field("partition", &g.allocator.partition())
            .field("files", &g.files.len())
            .field("used_pages", &g.allocator.used_pages())
            .finish()
    }
}

impl Vfs {
    /// Mounts a filesystem on `partition` of the shared device.
    pub fn new(ssd: SharedSsd, partition: LpnRange, opts: VfsOptions) -> Self {
        let (clock, page_size, logical) = {
            let dev = ssd.lock();
            (
                Arc::clone(dev.clock()),
                dev.page_size() as u64,
                dev.logical_pages(),
            )
        };
        assert!(partition.end <= logical, "partition beyond device capacity");
        Self {
            inner: Arc::new(Mutex::new(Inner {
                ssd,
                clock,
                page_size,
                opts,
                allocator: ExtentAllocator::new(partition),
                peak_used_pages: 0,
                data_bytes: 0,
                files: HashMap::default(),
                names: HashMap::new(),
                next_id: 1,
            })),
        }
    }

    /// Mounts a filesystem covering the whole device.
    pub fn whole_device(ssd: SharedSsd, opts: VfsOptions) -> Self {
        let pages = ssd.lock().logical_pages();
        Self::new(ssd, LpnRange::new(0, pages), opts)
    }

    /// The shared device (for SMART observation by a harness).
    pub fn ssd(&self) -> SharedSsd {
        Arc::clone(&self.inner.lock().ssd)
    }

    /// The shared simulated clock.
    pub fn clock(&self) -> Arc<SimClock> {
        Arc::clone(&self.inner.lock().clock)
    }

    /// The device's span tracer (the off tracer unless one was attached
    /// to the device) — engines clone this at build time to record
    /// their own phase spans.
    pub fn tracer(&self) -> Tracer {
        let g = self.inner.lock();
        let dev = g.ssd.lock();
        dev.tracer().clone()
    }

    /// Device page size in bytes.
    pub fn page_size(&self) -> u64 {
        self.inner.lock().page_size
    }

    /// Creates an empty file. Fails if the name exists.
    pub fn create(&self, name: &str) -> Result<FileId> {
        self.create_with(name, None)
    }

    /// Creates an empty *paged* file: its bytes are held one
    /// `page_bytes` piece at a time (see the [module docs](self)), so a
    /// page read whole is shared for as long as the reader likes and a
    /// whole page can be written by reference count
    /// ([`Vfs::write_page`]). It cannot be checked out to an appender
    /// or truncated. Fails if the name exists.
    ///
    /// # Panics
    /// Panics if `page_bytes` is zero.
    pub fn create_paged(&self, name: &str, page_bytes: usize) -> Result<FileId> {
        self.create_with(name, Some(page_bytes))
    }

    fn create_with(&self, name: &str, page_bytes: Option<usize>) -> Result<FileId> {
        let mut g = self.inner.lock();
        if g.names.contains_key(name) {
            return Err(VfsError::AlreadyExists(name.to_string()));
        }
        let id = FileId(g.next_id);
        g.next_id += 1;
        g.files
            .insert(id, FileNode::new(name.to_string(), page_bytes));
        g.names.insert(name.to_string(), id);
        Ok(id)
    }

    /// Opens an existing file by name.
    pub fn open(&self, name: &str) -> Result<FileId> {
        let g = self.inner.lock();
        g.names
            .get(name)
            .copied()
            .ok_or_else(|| VfsError::NotFound(name.to_string()))
    }

    /// Whether a file with this name exists.
    pub fn exists(&self, name: &str) -> bool {
        self.inner.lock().names.contains_key(name)
    }

    /// Names of all live files (unordered).
    pub fn list(&self) -> Vec<String> {
        self.inner.lock().names.keys().cloned().collect()
    }

    /// Deletes a file, releasing its extents. Under `nodiscard` (the
    /// default) the device is *not* informed: its pages stay live until
    /// overwritten — the aged-filesystem behaviour of the paper.
    pub fn delete(&self, name: &str) -> Result<()> {
        let mut g = self.inner.lock();
        let id = g
            .names
            .remove(name)
            .ok_or_else(|| VfsError::NotFound(name.to_string()))?;
        let node = g.files.remove(&id).expect("name table points to live file");
        g.data_bytes -= node.len;
        let discard = g.opts.discard_on_delete;
        for e in node.extents {
            g.allocator.release(e);
            if discard {
                g.ssd.lock().trim_range(e.range())?;
            }
        }
        Ok(())
    }

    /// Renames a file (atomic; target must not exist).
    pub fn rename(&self, from: &str, to: &str) -> Result<()> {
        let mut g = self.inner.lock();
        if g.names.contains_key(to) {
            return Err(VfsError::AlreadyExists(to.to_string()));
        }
        let id = g
            .names
            .remove(from)
            .ok_or_else(|| VfsError::NotFound(from.to_string()))?;
        g.names.insert(to.to_string(), id);
        g.files.get_mut(&id).expect("live file").name = to.to_string();
        Ok(())
    }

    /// File size in bytes.
    pub fn size(&self, id: FileId) -> Result<u64> {
        let g = self.inner.lock();
        g.files.get(&id).map(|f| f.len).ok_or(VfsError::StaleHandle)
    }

    /// Appends `buf` to the end of the file as it is when the write
    /// happens (blocks the simulated clock with direct-I/O semantics).
    pub fn append(&self, id: FileId, buf: &[u8]) -> Result<()> {
        self.inner.lock().write(id, None, Src::Copied(buf), true)
    }

    /// Appends `buf` with background semantics (see [`Vfs::write_at_bg`]).
    pub fn append_bg(&self, id: FileId, buf: &[u8]) -> Result<()> {
        self.inner.lock().write(id, None, Src::Copied(buf), false)
    }

    /// Writes `buf` at `offset`. The write may extend the file but must
    /// not leave a hole (`offset <= size`). Page-aligned overwrites reuse
    /// the existing LBAs (in-place at the device level).
    pub fn write_at(&self, id: FileId, offset: u64, buf: &[u8]) -> Result<()> {
        self.inner
            .lock()
            .write(id, Some(offset), Src::Copied(buf), true)
    }

    /// Background (asynchronous) write: the device work is queued — it
    /// consumes media bandwidth and delays later destages — but the
    /// simulated clock does not advance. This models I/O issued by
    /// background threads (LSM flush/compaction, B+Tree eviction
    /// writers): the foreground only feels it through device congestion.
    pub fn write_at_bg(&self, id: FileId, offset: u64, buf: &[u8]) -> Result<()> {
        self.inner
            .lock()
            .write(id, Some(offset), Src::Copied(buf), false)
    }

    /// [`Vfs::write_at`] of a whole page the caller keeps: where `page`
    /// is exactly one page of a paged file ([`Vfs::create_paged`]) the
    /// file takes it by reference count instead of copying it, and the
    /// caller's next edit of it copies it first (`Arc::make_mut`);
    /// anywhere else its bytes are copied in. Extents, device commands,
    /// clock and `durable_at` move exactly as [`Vfs::write_at`]'s do.
    pub fn write_page(&self, id: FileId, offset: u64, page: &Arc<Vec<u8>>) -> Result<()> {
        self.inner
            .lock()
            .write(id, Some(offset), Src::Shared(page), true)
    }

    /// [`Vfs::write_page`] with background semantics (see
    /// [`Vfs::write_at_bg`]).
    pub fn write_page_bg(&self, id: FileId, offset: u64, page: &Arc<Vec<u8>>) -> Result<()> {
        self.inner
            .lock()
            .write(id, Some(offset), Src::Shared(page), false)
    }

    /// [`Vfs::write_page`] of `page` with `patch` applied, for a caller
    /// that keeps a page it shares with the file and edits it only
    /// through `patch`. Where the file holds `page` itself at `offset`
    /// and nobody else holds it, `patch` edits the file's own page in
    /// place and nothing is copied; otherwise it edits a copy — of the
    /// file's page if that is `page` (a held [`FileSlice`] keeps its
    /// bytes), of `page` if it is not (a stale page is still written
    /// patched) — which the file takes as `write_page` takes a page.
    /// Either way `page` is left holding the page the file now holds.
    /// Extents, device commands, clock and `durable_at` move exactly as
    /// `write_page`'s do. On an error `page` is as it was, or, if the
    /// device failed the write, the patched page the file holds.
    pub fn rewrite_page(
        &self,
        id: FileId,
        offset: u64,
        page: &mut Arc<Vec<u8>>,
        mut patch: impl FnMut(&mut [u8]),
    ) -> Result<()> {
        self.inner
            .lock()
            .write(id, Some(offset), Src::Patched(page, &mut patch), true)
    }

    /// [`Vfs::rewrite_page`] with background semantics (see
    /// [`Vfs::write_at_bg`]).
    pub fn rewrite_page_bg(
        &self,
        id: FileId,
        offset: u64,
        page: &mut Arc<Vec<u8>>,
        mut patch: impl FnMut(&mut [u8]),
    ) -> Result<()> {
        self.inner
            .lock()
            .write(id, Some(offset), Src::Patched(page, &mut patch), false)
    }

    /// Checks the file's buffer out to one writer that builds the file
    /// in place (see [`FileAppender`]), with room for `reserve` more
    /// bytes. A paged file has no one buffer to check out: that is an
    /// `InvalidArgument` error.
    pub fn appender(&self, id: FileId, reserve: u64) -> Result<FileAppender> {
        let mut buf = {
            let mut g = self.inner.lock();
            let node = g.files.get_mut(&id).ok_or(VfsError::StaleHandle)?;
            node.available()?;
            node.one_piece("be checked out")?;
            node.check_out()
        };
        buf.reserve_exact(reserve as usize);
        let (vfs, committed) = (self.clone(), buf.len());
        Ok(FileAppender {
            vfs,
            id,
            buf,
            committed,
        })
    }

    /// Resets the peak-usage high-water mark to current usage.
    pub fn reset_peak_usage(&self) {
        let mut g = self.inner.lock();
        g.peak_used_pages = g.allocator.used_pages();
    }

    /// Reads up to `len` bytes at `offset`; short reads happen at EOF.
    /// Charges device reads for every page touched (the engines above
    /// maintain their own caches; a call here is a cache miss), advances
    /// the clock past them, then shares that range of the file's
    /// contents as of this call (see the ownership rule in the
    /// [module docs](self)).
    pub fn read_shared(&self, id: FileId, offset: u64, len: usize) -> Result<FileSlice> {
        self.read_with(id, offset, len, true)
    }

    /// Background read: consumes media bandwidth without advancing the
    /// simulated clock (I/O by background threads, e.g. compaction input
    /// scans).
    pub fn read_shared_bg(&self, id: FileId, offset: u64, len: usize) -> Result<FileSlice> {
        self.read_with(id, offset, len, false)
    }

    /// [`Vfs::read_shared`] copied out: the one owned read, for callers
    /// that are not on a data path (a meta page at recovery, tests,
    /// tools, unit-cost probes).
    pub fn read_at(&self, id: FileId, offset: u64, len: usize) -> Result<Vec<u8>> {
        Ok(self.read_shared(id, offset, len)?.to_vec())
    }

    /// The one synchronous read: charges the device reads for `[offset,
    /// offset + len)` (clipped at EOF) and shares that range.
    fn read_with(&self, id: FileId, offset: u64, len: usize, blocking: bool) -> Result<FileSlice> {
        let g = self.inner.lock();
        let node = g.files.get(&id).ok_or(VfsError::StaleHandle)?;
        node.available()?;
        let size = node.len;
        if offset >= size || len == 0 {
            return Ok(FileSlice::default());
        }
        let len = len.min((size - offset) as usize);
        let ps = g.page_size;
        let first_page = offset / ps;
        let last_page = (offset + len as u64 - 1) / ps;
        {
            let mut dev = g.ssd.lock();
            let span = dev
                .tracer()
                .begin("vfs.read", dev.current_cause(), g.clock.now());
            for run in node.runs(first_page, last_page - first_page + 1) {
                let done = dev.read_pages(run);
                if blocking {
                    g.clock.advance_to(done);
                }
            }
            dev.tracer().end(span, g.clock.now());
        }
        Ok(node.slice(offset as usize..offset as usize + len))
    }

    /// Creates a submission/completion queue of `depth` outstanding
    /// commands over this filesystem's device — the entry point of the
    /// asynchronous I/O path (see [`Vfs::read_runs_shared`]).
    pub fn io_queue(&self, depth: usize) -> IoQueue {
        let g = self.inner.lock();
        IoQueue::new(Arc::clone(&g.ssd), depth)
    }

    /// Submits one read command **per extent run** of `[offset,
    /// offset+len)` to `queue` and returns immediately with an
    /// [`AsyncRead`] holding the data — a shared range of the file's
    /// contents as of this call — and the submission tokens; the caller
    /// decides when (and whether) to block on the completions. This is
    /// the io_uring shape of [`Vfs::read_shared`]: the runs' media times
    /// overlap up to the device's channel count and their base latencies
    /// pipeline, instead of each run charging its full latency serially.
    /// Submitted and waited on through a depth-1 queue it reproduces
    /// [`Vfs::read_shared`] exactly.
    pub fn read_runs_shared(
        &self,
        queue: &mut IoQueue,
        id: FileId,
        offset: u64,
        len: usize,
    ) -> Result<AsyncRead> {
        // Submitting takes the device lock, so the filesystem lock is
        // released first and the runs are collected.
        let (runs, data) = {
            let g = self.inner.lock();
            let node = g.files.get(&id).ok_or(VfsError::StaleHandle)?;
            node.available()?;
            let size = node.len;
            if offset >= size || len == 0 {
                return Ok(AsyncRead {
                    tokens: Vec::new(),
                    data: FileSlice::default(),
                });
            }
            let len = len.min((size - offset) as usize);
            let ps = g.page_size;
            let first_page = offset / ps;
            let last_page = (offset + len as u64 - 1) / ps;
            let runs: Vec<LpnRange> = node.runs(first_page, last_page - first_page + 1).collect();
            (runs, node.slice(offset as usize..offset as usize + len))
        };
        let mut tokens = Vec::with_capacity(runs.len());
        for run in runs {
            match queue.submit(IoCmd::Read { range: run }) {
                Ok(token) => tokens.push(token),
                Err(e) => {
                    // Don't leak the runs already submitted: their device
                    // work stays charged, but nothing will ever wait.
                    for token in tokens {
                        queue.forget(token);
                    }
                    return Err(e.into());
                }
            }
        }
        Ok(AsyncRead { tokens, data })
    }

    /// The tracer, current device cause and clock in one grab (span
    /// bookkeeping for the queue-based I/O paths, which run outside the
    /// filesystem lock).
    fn trace_context(&self) -> (Tracer, ptsbench_ssd::Cause, Arc<SimClock>) {
        let g = self.inner.lock();
        let dev = g.ssd.lock();
        (
            dev.tracer().clone(),
            dev.current_cause(),
            Arc::clone(&g.clock),
        )
    }

    /// Appends `buf` through the submission queue: one write command per
    /// extent run (plus a read-modify-write of an unaligned tail page),
    /// waiting for all completions. With a depth-1 queue this reproduces
    /// [`Vfs::append`] exactly; deeper queues overlap the run writes.
    pub(crate) fn append_async(&self, queue: &mut IoQueue, id: FileId, buf: &[u8]) -> Result<()> {
        if buf.is_empty() {
            return Ok(());
        }
        // Phase 1 (under the lock): allocate, copy contents, derive the
        // device commands.
        let (rmw_lpn, runs) = {
            let mut g = self.inner.lock();
            let Inner {
                page_size,
                allocator,
                data_bytes,
                files,
                ..
            } = &mut *g;
            let ps = *page_size;
            let node = files.get_mut(&id).ok_or(VfsError::StaleHandle)?;
            node.available()?;
            let offset = node.len;
            let new_size = offset + buf.len() as u64;
            let needed_pages = new_size.div_ceil(ps);
            let have_pages = node.total_pages();
            let mut peak_update = 0u64;
            if needed_pages > have_pages {
                let fresh = allocator.alloc(needed_pages - have_pages)?;
                node.push_extents(fresh);
                peak_update = allocator.used_pages();
            }
            node.store(offset as usize, buf);
            node.len = new_size;
            *data_bytes += buf.len() as u64;

            let first_page = offset / ps;
            let last_page = (new_size - 1) / ps;
            let old_pages = offset.div_ceil(ps);
            // Appending to an unaligned EOF rewrites the partial tail
            // page: direct I/O must read it back first.
            let rmw_lpn = (!offset.is_multiple_of(ps) && first_page < old_pages)
                .then(|| node.page_to_lpn(first_page));
            let runs: Vec<LpnRange> = node.runs(first_page, last_page - first_page + 1).collect();
            if peak_update > g.peak_used_pages {
                g.peak_used_pages = peak_update;
            }
            (rmw_lpn, runs)
        };

        // Phase 2 (lock dropped): submit. The RMW read is a data
        // dependency of the tail-page write, so it completes first.
        let (tracer, cause, clock) = self.trace_context();
        let span = tracer.begin("vfs.append", cause, clock.now());
        if let Some(lpn) = rmw_lpn {
            let token = queue.submit(IoCmd::read_page(lpn))?;
            queue.wait(token);
        }
        let mut tokens = Vec::with_capacity(runs.len());
        let mut submit_error = None;
        for run in runs {
            match queue.submit(IoCmd::Write { range: run }) {
                Ok(token) => tokens.push(token),
                Err(e) => {
                    submit_error = Some(e);
                    break;
                }
            }
        }
        let mut durable_at = 0;
        for token in tokens {
            let c = queue.wait(token);
            durable_at = durable_at.max(c.durable_at);
        }
        tracer.end(span, clock.now());
        if let Some(e) = submit_error {
            return Err(e.into());
        }

        // Phase 3: record the durability horizon.
        let mut g = self.inner.lock();
        if let Some(node) = g.files.get_mut(&id) {
            node.durable_at = node.durable_at.max(durable_at);
        }
        Ok(())
    }

    /// Truncates a file to `new_len` bytes **keeping its allocated
    /// extents** (the `fallocate`-style log-recycling pattern: RocksDB's
    /// `recycle_log_file_num` and WiredTiger's journal preallocation both
    /// reuse the same LBAs for successive logs). No device traffic. A
    /// paged file cannot be truncated: that is an `InvalidArgument`
    /// error.
    pub fn truncate(&self, id: FileId, new_len: u64) -> Result<()> {
        let mut g = self.inner.lock();
        let Inner {
            data_bytes, files, ..
        } = &mut *g;
        let node = files.get_mut(&id).ok_or(VfsError::StaleHandle)?;
        node.available()?;
        node.one_piece("be truncated")?;
        let old_len = node.len;
        if new_len > old_len {
            return Err(VfsError::InvalidArgument(format!(
                "truncate to {new_len} beyond EOF {old_len}"
            )));
        }
        node.cut(new_len);
        *data_bytes -= old_len - new_len;
        Ok(())
    }

    /// Blocks until every write to this file is durable on media.
    pub fn fsync(&self, id: FileId) -> Result<()> {
        let g = self.inner.lock();
        let node = g.files.get(&id).ok_or(VfsError::StaleHandle)?;
        g.clock.advance_to(node.durable_at);
        Ok(())
    }

    /// Durability horizon of the file (diagnostics).
    pub fn durable_at(&self, id: FileId) -> Result<Ns> {
        let g = self.inner.lock();
        g.files
            .get(&id)
            .map(|f| f.durable_at)
            .ok_or(VfsError::StaleHandle)
    }

    /// The extents backing the file, in file order (diagnostics).
    pub fn extents(&self, id: FileId) -> Result<Vec<Extent>> {
        let g = self.inner.lock();
        let node = g.files.get(&id).ok_or(VfsError::StaleHandle)?;
        Ok(node.extents.clone())
    }

    /// Pending device work in nanoseconds (backend backlog) — lets an
    /// engine throttle its background I/O like RocksDB's
    /// pending-compaction-bytes stall.
    pub fn device_backlog_ns(&self) -> Ns {
        let g = self.inner.lock();
        let dev = g.ssd.lock();
        dev.backend_backlog()
    }

    /// TRIMs all free space (the `fstrim` maintenance command).
    /// Returns pages trimmed on the device.
    pub fn trim_free_space(&self) -> Result<u64> {
        let g = self.inner.lock();
        let mut total = 0;
        let mut dev = g.ssd.lock();
        for run in g.allocator.free_runs() {
            total += dev.trim_range(run.range())?;
        }
        Ok(total)
    }

    /// Filesystem usage statistics.
    pub fn stats(&self) -> FsStats {
        let g = self.inner.lock();
        let used = g.allocator.used_pages();
        FsStats {
            partition_pages: g.allocator.partition().len(),
            used_pages: used,
            free_pages: g.allocator.free_pages(),
            live_files: g.files.len(),
            peak_used_pages: g.peak_used_pages.max(used),
            data_bytes: g.data_bytes,
            used_bytes: used * g.page_size,
        }
    }

    /// Validates allocator invariants plus extent/file accounting (tests).
    pub fn check_invariants(&self) {
        let g = self.inner.lock();
        g.allocator.check_invariants();
        let file_pages: u64 = g.files.values().map(|f| f.total_pages()).sum();
        assert_eq!(
            file_pages,
            g.allocator.used_pages(),
            "extent accounting drifted"
        );
        let file_bytes: u64 = g.files.values().map(|f| f.len).sum();
        assert_eq!(file_bytes, g.data_bytes, "data-byte accounting drifted");
        for f in g.files.values() {
            f.check_pieces();
        }
        for (name, id) in &g.names {
            assert_eq!(&g.files[id].name, name, "name table out of sync");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptsbench_ssd::{DeviceConfig, DeviceProfile, Ssd};

    const MB: u64 = 1024 * 1024;

    fn fs() -> Vfs {
        fs_with(VfsOptions::default())
    }

    fn fs_with(opts: VfsOptions) -> Vfs {
        let ssd = Ssd::new(DeviceConfig::from_profile(DeviceProfile::ssd1(), 16 * MB));
        Vfs::whole_device(ssd.into_shared(), opts)
    }

    #[test]
    fn create_write_read_round_trip() {
        let v = fs();
        let f = v.create("a").expect("create");
        let payload: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        v.write_at(f, 0, &payload).expect("write");
        assert_eq!(v.size(f).expect("size"), 10_000);
        let got = v.read_at(f, 0, 10_000).expect("read");
        assert_eq!(got, payload);
        // Sub-range read.
        assert_eq!(
            v.read_at(f, 5_000, 100).expect("read"),
            payload[5_000..5_100]
        );
        // The range read: clipped at EOF, one device read per page
        // touched, empty at EOF.
        let reads_before = v.ssd().lock().smart().host_pages_read;
        let range = v.read_shared(f, 5_000, 8_192).expect("read");
        assert_eq!(&*range, &payload[5_000..]);
        assert_eq!(v.ssd().lock().smart().host_pages_read, reads_before + 2);
        assert!(v.read_shared(f, 10_000, 16).expect("read").is_empty());
        v.check_invariants();
    }

    #[test]
    fn aligned_overwrite_is_in_place() {
        let v = fs();
        let f = v.create("a").expect("create");
        v.write_at(f, 0, &vec![1u8; 8 * 4096]).expect("write");
        let writes_before = v.ssd().lock().smart().host_pages_written;
        let mapped_before = v.ssd().lock().mapped_pages();
        v.write_at(f, 4096, &vec![2u8; 4096]).expect("overwrite");
        let dev = v.ssd();
        let dev = dev.lock();
        assert_eq!(dev.smart().host_pages_written, writes_before + 1);
        assert_eq!(
            dev.mapped_pages(),
            mapped_before,
            "no new LBAs for in-place write"
        );
        drop(dev);
        let got = v.read_at(f, 0, 3 * 4096).expect("read");
        assert!(got[..4096].iter().all(|&b| b == 1));
        assert!(got[4096..8192].iter().all(|&b| b == 2));
    }

    #[test]
    fn unaligned_write_charges_rmw_read() {
        let v = fs();
        let f = v.create("a").expect("create");
        v.write_at(f, 0, &vec![7u8; 2 * 4096]).expect("write");
        let reads_before = v.ssd().lock().smart().host_pages_read;
        v.write_at(f, 100, &[9u8; 8]).expect("partial overwrite");
        assert!(
            v.ssd().lock().smart().host_pages_read > reads_before,
            "RMW must read"
        );
        let got = v.read_at(f, 0, 4096).expect("read");
        assert_eq!(&got[100..108], &[9u8; 8]);
        assert_eq!(got[99], 7);
        assert_eq!(got[108], 7);
    }

    #[test]
    fn hole_writes_rejected() {
        let v = fs();
        let f = v.create("a").expect("create");
        assert!(matches!(
            v.write_at(f, 10, &[1]),
            Err(VfsError::InvalidArgument(_))
        ));
    }

    #[test]
    fn delete_nodiscard_keeps_device_pages_live() {
        let v = fs(); // nodiscard default
        let f = v.create("a").expect("create");
        v.write_at(f, 0, &vec![1u8; 64 * 4096]).expect("write");
        let mapped = v.ssd().lock().mapped_pages();
        v.delete("a").expect("delete");
        assert_eq!(
            v.ssd().lock().mapped_pages(),
            mapped,
            "nodiscard delete must not trim device pages"
        );
        assert_eq!(v.stats().used_pages, 0, "fs space is reclaimed");
        v.check_invariants();
    }

    #[test]
    fn delete_with_discard_trims() {
        let v = fs_with(VfsOptions {
            discard_on_delete: true,
        });
        let f = v.create("a").expect("create");
        v.write_at(f, 0, &vec![1u8; 64 * 4096]).expect("write");
        v.delete("a").expect("delete");
        assert_eq!(v.ssd().lock().mapped_pages(), 0, "discard delete must trim");
    }

    #[test]
    fn trim_free_space_is_fstrim() {
        let v = fs();
        let f = v.create("a").expect("create");
        v.write_at(f, 0, &vec![1u8; 64 * 4096]).expect("write");
        v.delete("a").expect("delete");
        let trimmed = v.trim_free_space().expect("fstrim");
        assert_eq!(trimmed, 64);
        assert_eq!(v.ssd().lock().mapped_pages(), 0);
    }

    #[test]
    fn enospc_propagates() {
        let v = fs();
        let f = v.create("a").expect("create");
        let big = vec![0u8; 20 * MB as usize];
        assert!(matches!(
            v.write_at(f, 0, &big),
            Err(VfsError::NoSpace { .. })
        ));
        v.check_invariants();
    }

    #[test]
    fn rename_and_listing() {
        let v = fs();
        v.create("a").expect("create");
        v.rename("a", "b").expect("rename");
        assert!(!v.exists("a"));
        assert!(v.exists("b"));
        assert_eq!(v.list(), vec!["b".to_string()]);
        assert!(matches!(
            v.rename("missing", "c"),
            Err(VfsError::NotFound(_))
        ));
        v.create("c").expect("create");
        assert!(matches!(
            v.rename("b", "c"),
            Err(VfsError::AlreadyExists(_))
        ));
        v.check_invariants();
    }

    #[test]
    fn fsync_blocks_until_durable() {
        let v = fs();
        let f = v.create("a").expect("create");
        v.write_at(f, 0, &vec![1u8; 256 * 4096]).expect("write");
        let clock = v.clock();
        let before = clock.now();
        let durable = v.durable_at(f).expect("durable");
        v.fsync(f).expect("fsync");
        assert!(clock.now() >= durable);
        assert!(clock.now() >= before);
    }

    #[test]
    fn writes_advance_the_clock() {
        let v = fs();
        let f = v.create("a").expect("create");
        let clock = v.clock();
        let t0 = clock.now();
        v.write_at(f, 0, &vec![1u8; 4096]).expect("write");
        assert!(
            clock.now() > t0,
            "direct-I/O write must consume simulated time"
        );
    }

    #[test]
    fn partition_confines_lbas() {
        let ssd = Ssd::new(DeviceConfig::from_profile(DeviceProfile::ssd1(), 16 * MB));
        let shared = ssd.into_shared();
        let pages = shared.lock().logical_pages();
        shared.lock().enable_trace();
        let v = Vfs::new(
            Arc::clone(&shared),
            LpnRange::new(0, pages / 2),
            VfsOptions::default(),
        );
        let f = v.create("a").expect("create");
        v.write_at(f, 0, &vec![1u8; (pages / 2 * 4096) as usize])
            .expect("fill partition");
        let dev = shared.lock();
        let trace = dev.write_trace().expect("trace");
        assert!(
            (trace.untouched_fraction() - 0.5).abs() < 0.01,
            "half the device must stay untouched, got {}",
            trace.untouched_fraction()
        );
    }

    /// Builds a file fragmented across many extents by interleaving two
    /// growing files (NextFit then alternates their allocations).
    fn fragmented_file(v: &Vfs, pages: u64) -> FileId {
        let a = v.create("frag").expect("create");
        let b = v.create("other").expect("create");
        for _ in 0..pages {
            v.write_at(a, v.size(a).expect("size"), &[1u8; 4096])
                .expect("write a");
            v.write_at(b, v.size(b).expect("size"), &[2u8; 4096])
                .expect("write b");
        }
        a
    }

    /// The queued read the engines issue: one command per extent run,
    /// then a wait for all of them.
    fn queued_read(v: &Vfs, q: &mut IoQueue, f: FileId, len: usize) -> FileSlice {
        v.read_runs_shared(q, f, 0, len).expect("submit").wait(q)
    }

    #[test]
    fn queued_read_depth1_matches_sync_read() {
        let sync_fs = fs();
        let queued_fs = fs();
        let fa = fragmented_file(&sync_fs, 16);
        let fb = fragmented_file(&queued_fs, 16);
        let mut q = queued_fs.io_queue(1);
        assert_eq!(sync_fs.clock().now(), queued_fs.clock().now());
        let want = sync_fs.read_shared(fa, 0, 16 * 4096).expect("sync read");
        let got = queued_read(&queued_fs, &mut q, fb, 16 * 4096);
        assert_eq!(want, got, "contents match");
        assert_eq!(
            sync_fs.clock().now(),
            queued_fs.clock().now(),
            "a depth-1 queued read must cost exactly the sync time"
        );
    }

    #[test]
    fn deep_queue_overlaps_fragmented_reads() {
        let serial_fs = fs();
        let deep_fs = fs();
        let fa = fragmented_file(&serial_fs, 32);
        let fb = fragmented_file(&deep_fs, 32);
        let mut q1 = serial_fs.io_queue(1);
        let mut q8 = deep_fs.io_queue(8);
        let t0 = serial_fs.clock().now();
        queued_read(&serial_fs, &mut q1, fa, 32 * 4096);
        let serial = serial_fs.clock().now() - t0;
        let t0 = deep_fs.clock().now();
        queued_read(&deep_fs, &mut q8, fb, 32 * 4096);
        let deep = deep_fs.clock().now() - t0;
        assert!(
            deep < serial / 2,
            "QD=8 must overlap the per-run base latencies: {deep} vs {serial}"
        );
    }

    #[test]
    fn append_async_depth1_matches_sync_append() {
        let sync_fs = fs();
        let async_fs = fs();
        let fa = sync_fs.create("a").expect("create");
        let fb = async_fs.create("a").expect("create");
        let mut q = async_fs.io_queue(1);
        // Unaligned chunks exercise the RMW tail path.
        for chunk in [3000usize, 5000, 4096, 100] {
            let payload: Vec<u8> = (0..chunk).map(|i| (i % 251) as u8).collect();
            sync_fs.append(fa, &payload).expect("sync append");
            async_fs
                .append_async(&mut q, fb, &payload)
                .expect("async append");
            assert_eq!(sync_fs.clock().now(), async_fs.clock().now());
            assert_eq!(
                sync_fs.durable_at(fa).expect("durable"),
                async_fs.durable_at(fb).expect("durable")
            );
        }
        assert_eq!(
            sync_fs.read_at(fa, 0, 20_000).expect("read"),
            async_fs.read_at(fb, 0, 20_000).expect("read")
        );
        async_fs.fsync(fb).expect("fsync");
        async_fs.check_invariants();
    }

    #[test]
    fn queued_reads_record_smart_traffic() {
        let v = fs();
        let f = v.create("a").expect("create");
        v.write_at(f, 0, &vec![1u8; 8 * 4096]).expect("write");
        let before = v.ssd().lock().smart().host_pages_read;
        let mut q = v.io_queue(4);
        queued_read(&v, &mut q, f, 8 * 4096);
        assert_eq!(
            v.ssd().lock().smart().host_pages_read,
            before + 8,
            "queued reads charge the same SMART traffic"
        );
    }

    #[test]
    fn concurrent_appends_take_their_offset_under_the_write_lock() {
        // Two handles, one file: an offset read before the write's lock
        // would let the second writer land on the first one's bytes.
        let v = fs();
        let f = v.create("log").expect("create");
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for writer in 0..2u8 {
                let (v, start) = (v.clone(), &start);
                s.spawn(move || {
                    start.wait();
                    for seq in 0..1000u16 {
                        let mut record = [writer; 100];
                        record[1..3].copy_from_slice(&seq.to_le_bytes());
                        v.append_bg(f, &record).expect("append");
                    }
                });
            }
        });
        assert_eq!(v.size(f).expect("size"), 200_000);
        let bytes = v.read_at(f, 0, 200_000).expect("read");
        let mut seen = [[false; 1000]; 2];
        for record in bytes.chunks_exact(100) {
            let seq = u16::from_le_bytes([record[1], record[2]]) as usize;
            assert!(record[3..].iter().all(|&b| b == record[0]), "torn record");
            assert!(!std::mem::replace(&mut seen[record[0] as usize][seq], true));
        }
        assert!(
            seen.iter().flatten().all(|&s| s),
            "every record present once"
        );
        v.check_invariants();
    }

    #[test]
    fn checked_out_file_refuses_readers_and_second_appenders() {
        let v = fs();
        let f = v.create("t").expect("create");
        v.append(f, &[7u8; 5000]).expect("append");
        let mut a = v.appender(f, 0).expect("appender");
        assert_eq!((a.buf.len(), a.committed()), (5000, 5000));
        a.buf.extend_from_slice(&[8u8; 3192]);
        a.commit(8192, false).expect("commit");
        assert_eq!(v.size(f).expect("size"), 8192);
        let busy = |r: Result<()>| matches!(r, Err(VfsError::InvalidArgument(_)));
        assert!(busy(v.read_at(f, 0, 10).map(drop)), "not an empty read");
        assert!(busy(v.read_shared_bg(f, 0, 10).map(drop)));
        assert!(busy(v.appender(f, 0).map(drop)));
        assert!(busy(v.append(f, &[1])), "one writer");
        assert!(busy(v.truncate(f, 0)));
        v.check_invariants();
        drop(a);
        let bytes = v.read_at(f, 0, 8192).expect("readable again");
        assert!(bytes[..5000].iter().all(|&b| b == 7) && bytes[5000..].iter().all(|&b| b == 8));
        v.check_invariants();
    }

    #[test]
    fn dropped_appender_leaves_the_committed_prefix() {
        let v = fs();
        let f = v.create("t").expect("create");
        let mut a = v.appender(f, 64 << 10).expect("appender");
        a.buf.extend_from_slice(&[1u8; 4096]);
        a.commit(4096, true).expect("commit");
        a.buf.extend_from_slice(&[2u8; 1000]); // never committed
        drop(a);
        assert_eq!(v.size(f).expect("size"), 4096, "no size without bytes");
        assert_eq!(v.read_at(f, 0, 8192).expect("read"), vec![1u8; 4096]);
        assert_eq!(v.stats().data_bytes, 4096);
        v.check_invariants();
    }

    #[test]
    fn deleting_a_checked_out_file_makes_the_drop_a_no_op() {
        // What an abandoned table build does.
        let v = fs();
        let f = v.create("t").expect("create");
        let mut a = v.appender(f, 0).expect("appender");
        a.buf.extend_from_slice(&[1u8; 8192]);
        a.commit(8192, false).expect("commit");
        v.delete("t").expect("delete while checked out");
        assert_eq!(v.stats().used_pages, 0);
        assert_eq!(v.stats().data_bytes, 0);
        a.buf.extend_from_slice(&[2u8; 10]);
        assert!(matches!(a.commit(8202, false), Err(VfsError::StaleHandle)));
        drop(a);
        assert!(!v.exists("t"));
        v.check_invariants();
    }

    #[test]
    fn a_commit_may_run_ahead_of_the_buffer_until_check_in() {
        // What a table builder that splices values does: commit by
        // length, put the bytes in place before letting go.
        let (v, w) = (fs(), fs());
        let (f, g) = (
            v.create("t").expect("create"),
            w.create("t").expect("create"),
        );
        let mut ahead = v.appender(f, 0).expect("appender");
        ahead.buf.extend_from_slice(&[1u8; 100]);
        ahead.commit(8192, false).expect("commit by length");
        ahead.commit(12_000, true).expect("commit by length");
        let mut copied = w.appender(g, 0).expect("appender");
        copied.buf.extend_from_slice(&[1u8; 12_000]);
        copied.commit(8192, false).expect("commit");
        copied.commit(12_000, true).expect("commit");
        assert_eq!(v.size(f).expect("size"), 12_000);
        assert_eq!(v.stats(), w.stats());
        assert_eq!(v.ssd().lock().smart(), w.ssd().lock().smart());
        assert_eq!(v.clock().now(), w.clock().now());
        ahead.buf = vec![1u8; 12_000];
        drop((ahead, copied));
        assert_eq!(v.read_at(f, 0, 20_000).expect("read"), vec![1u8; 12_000]);
        v.check_invariants();
    }

    #[test]
    fn a_writer_that_panics_short_leaves_the_bytes_it_holds() {
        let v = fs();
        let f = v.create("t").expect("create");
        let before = v.stats().data_bytes;
        let mut a = v.appender(f, 0).expect("appender");
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            a.buf.extend_from_slice(&[1u8; 100]);
            a.commit(8192, false).expect("commit by length");
            panic!("the writer fails before its bytes are in place");
        }));
        assert!(caught.is_err());
        assert_eq!(v.size(f).expect("size"), 100);
        assert_eq!(v.stats().data_bytes, before + 100);
        assert_eq!(v.read_at(f, 0, 8192).expect("read"), vec![1u8; 100]);
        v.check_invariants();
    }

    #[test]
    #[should_panic(expected = "100 of 8192 committed bytes checked in")]
    fn checking_in_fewer_bytes_than_committed_panics() {
        let v = fs();
        let f = v.create("t").expect("create");
        let mut a = v.appender(f, 0).expect("appender");
        a.buf.extend_from_slice(&[1u8; 100]);
        a.commit(8192, false).expect("commit by length");
        drop(a);
    }

    #[test]
    fn appender_crosses_threads() {
        fn assert_send<T: Send>() {}
        assert_send::<FileAppender>();
    }

    #[test]
    fn a_paged_file_shares_whole_pages_and_replaces_what_is_held() {
        let v = fs();
        let f = v.create_paged("tree", 8192).expect("create");
        let page = Arc::new(vec![1u8; 8192]);
        v.write_page(f, 0, &page).expect("write");
        v.write_page_bg(f, 8192, &page).expect("write");
        let held = v.read_shared(f, 8192, 8192).expect("read");
        assert!(held.shares_buffer(&FileSlice::from(Arc::clone(&page))));
        assert_eq!(held.buffer_offset(), 0, "offsets are within the page");

        // A write into a held page replaces that page only.
        v.write_at(f, 8192 + 100, &[2u8; 10]).expect("write");
        assert_eq!(*held, vec![1u8; 8192], "the holder keeps its bytes");
        let fresh = v.read_shared(f, 8192, 8192).expect("read");
        assert_eq!(&fresh[100..110], &[2u8; 10]);
        assert!(!fresh.shares_buffer(&held));
        assert!(
            v.read_shared(f, 0, 8192)
                .expect("read")
                .shares_buffer(&held),
            "the other page is still the caller's"
        );

        // A read across pages copies; a page not a page long is copied.
        let across = v.read_shared(f, 8000, 400).expect("read");
        assert_eq!(&across[..192], &[1u8; 192][..]);
        assert!(!across.shares_buffer(&held) && !across.shares_buffer(&fresh));
        let short = Arc::new(vec![3u8; 100]);
        v.write_page(f, 16_384, &short).expect("write");
        assert!(!v
            .read_shared(f, 16_384, 100)
            .expect("read")
            .shares_buffer(&short.into()));
        assert_eq!(v.size(f).expect("size"), 16_484);

        let refused = |r: Result<()>| matches!(r, Err(VfsError::InvalidArgument(_)));
        assert!(refused(v.appender(f, 0).map(drop)));
        assert!(refused(v.truncate(f, 0)));
        v.check_invariants();
    }

    #[test]
    fn stats_track_usage() {
        let v = fs();
        let f = v.create("a").expect("create");
        v.write_at(f, 0, &vec![1u8; 4096 * 3 + 10]).expect("write");
        let s = v.stats();
        assert_eq!(s.live_files, 1);
        assert_eq!(s.used_pages, 4);
        assert_eq!(s.data_bytes, 4096 * 3 + 10);
        assert_eq!(s.used_bytes, 4 * 4096);
    }
}
