//! The page cache: fixed-budget caching of decoded pages with in-place
//! dirty write-back.
//!
//! This is the layer that gives the B+Tree its device-level signature:
//! page `n` always lives at file offset `n * page_bytes`, so every
//! write-back targets the same LBAs (Fig 4's confined footprint), and
//! the small cache (10 MB in the paper's setup) means nearly every
//! update eventually causes one full-page write.
//!
//! # Slot ownership
//!
//! The cache is the single owner of every decoded [`Node`]: one node per
//! resident page, decoded once per device read. The tree borrows it —
//! [`Pager::read`] hands out `&Node` and [`Pager::update`] runs a closure
//! over the slot's `&mut Node` — so a root-to-leaf walk copies nothing
//! but the bytes it returns. The cache budget is in encoded bytes (a
//! node knows its encoded length in O(1)), the dirty pages are kept as
//! an ordered set (checkpoints write back in page order without
//! collecting or sorting), and the slots are indexed by last-access tick
//! (the LRU victim is the index's first entry, not a scan).
//!
//! # Page sharing
//!
//! The tree file is a paged file ([`Vfs::create_paged`]): the
//! filesystem holds it one reference-counted page at a time, so a page
//! can be shared between the file and the cache, copy-on-write, and no
//! load or write-back of a leaf copies it:
//!
//! * **load** — a leaf is its own page image ([`crate::node::Entries`]),
//!   so a miss keeps the page the read returned, shared with the file,
//!   and walks only its record headers;
//! * **same-length overwrite** — a value replaced by one of the same
//!   length while the page is shared is kept *pending* beside it (at
//!   most one per record): the page is not copied, the file keeps its
//!   bytes, and reads see the new value;
//! * **first edit that moves bytes** — the first insert, remove, split,
//!   merge or resizing overwrite after a load or a write-back copies the
//!   page once (copy-on-write, of the bytes in use, the pending values
//!   put in), and the file keeps the bytes it had; later edits work on
//!   the copy;
//! * **write-back** — on eviction or checkpoint the slot hands its
//!   buffer to the file ([`Vfs::write_page`]), or, with values pending,
//!   the shared page and the values ([`Vfs::rewrite_page`]), which the
//!   file puts in its own page when nobody else holds it and in a copy
//!   when someone does (a held read keeps its bytes). Either way they
//!   share the page again, and the device is charged as for any page
//!   write.
//!
//! An internal node is decoded into buffers of its own, but the page it
//! was decoded from stays beside it: evicted unchanged, the node is
//! parked with that page, and a later load — charged as ever — takes it
//! back instead of decoding ~1 000 separators again if the file still
//! holds that very page.
//!
//! A leaf's buffer is a page long from birth, zero past its records, so
//! the file gets exactly the zero-padded image and neither edits nor
//! write-backs reallocate (only a leaf that overflows before its split
//! grows, and moves back to a page-sized buffer before it is written).
//! A page materialized at EOF shares one zero page until its first
//! write-back. Only an internal page, written after splits, is encoded,
//! into one buffer reused by every such write-back, and copied into the
//! file.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

use ptsbench_cache::CacheStats;
use ptsbench_vfs::{FileId, FileSlice, StoreError, TraceHandle, Vfs};

use crate::node::{Node, PageImage};
use crate::{PageNo, Result};

/// How many evicted internal pages the pager keeps decoded
/// (`Pager::parked`): more than a tree of the paper's sizes has.
const PARKED_PAGES: usize = 64;

/// Cumulative pager statistics. The caching traffic (hits, misses,
/// admissions, evictions, device bytes saved) uses the same
/// [`CacheStats`] accounting as the shared block cache so reports
/// render page-cache and block-cache behavior identically; the
/// write-back counters are pager-specific.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PagerStats {
    /// Page-cache traffic in block-cache terms: a hit serves a decoded
    /// page from memory (saving one page-sized device read), a miss
    /// reads and admits it, an eviction writes back and drops LRU.
    pub cache: CacheStats,
    /// Dirty pages written back (evictions + checkpoints).
    pub writebacks: u64,
    /// Pages allocated.
    pub allocations: u64,
    /// Checkpoints completed.
    pub checkpoints: u64,
}

/// One resident page.
struct Slot {
    node: Node,
    /// Tick of the last access; the slot's key in `Pager::lru`.
    last_access: u64,
    /// The file page an internal node was decoded from, while the node
    /// is unchanged since (see `Pager::parked`).
    source: Option<FileSlice>,
}

impl Slot {
    /// Makes this slot (page `page`) the most recently used as of `tick`.
    fn stamp(&mut self, page: PageNo, tick: u64, lru: &mut BTreeMap<u64, PageNo>) {
        lru.remove(&self.last_access);
        self.last_access = tick;
        lru.insert(tick, page);
    }
}

/// Page cache over the tree file.
pub struct Pager {
    vfs: Vfs,
    file: FileId,
    page_bytes: usize,
    cache_bytes: u64,
    cache: HashMap<PageNo, Slot>,
    /// Resident pages by last-access tick (ticks are unique), oldest
    /// first.
    lru: BTreeMap<u64, PageNo>,
    /// Resident pages whose contents are newer than the file's.
    dirty: BTreeSet<PageNo>,
    cached_bytes: u64,
    access_clock: u64,
    /// Next page number to materialize (page 0 is the meta page).
    next_page: PageNo,
    free_list: Vec<PageNo>,
    stats: PagerStats,
    /// One page image, reused by every internal-page write-back.
    page_buf: Vec<u8>,
    /// A page of zeros, what a page materialized at EOF holds until it
    /// is written back.
    zero_page: Arc<Vec<u8>>,
    /// Internal pages evicted unchanged, each with the file page it was
    /// decoded from. Host work only: a load of such a page still reads
    /// it (and is charged for it), then takes the node back instead of
    /// decoding it again if the file still holds that very page. A page
    /// someone else holds is never written in place (the file replaces
    /// it, and [`Vfs::rewrite_page`] patches a copy), so the same page is
    /// the same bytes. At most [`PARKED_PAGES`].
    parked: HashMap<PageNo, (FileSlice, Node)>,
    /// Tracing context; `None` until [`Pager::attach_trace`].
    trace: Option<TraceHandle>,
}

impl std::fmt::Debug for Pager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pager")
            .field("pages", &self.next_page)
            .field("cached", &self.cache.len())
            .field("free", &self.free_list.len())
            .finish()
    }
}

impl Pager {
    fn over(
        vfs: Vfs,
        file: FileId,
        page_bytes: usize,
        cache_bytes: u64,
        next_page: PageNo,
    ) -> Self {
        // `update` relies on the few most recently touched pages staying
        // resident (a merge touches parent, left and right before it
        // updates any of them).
        assert!(
            cache_bytes >= 4 * page_bytes as u64,
            "cache must hold at least four pages"
        );
        Self {
            vfs,
            file,
            page_bytes,
            cache_bytes,
            cache: HashMap::new(),
            lru: BTreeMap::new(),
            dirty: BTreeSet::new(),
            cached_bytes: 0,
            access_clock: 0,
            next_page,
            free_list: Vec::new(),
            stats: PagerStats::default(),
            page_buf: Vec::new(),
            zero_page: Arc::new(vec![0; page_bytes]),
            parked: HashMap::new(),
            trace: None,
        }
    }

    /// Creates the tree file, paged, with a zeroed meta page.
    pub fn create(vfs: Vfs, file_name: &str, page_bytes: usize, cache_bytes: u64) -> Result<Self> {
        let file = vfs.create_paged(file_name, page_bytes)?;
        let pager = Self::over(vfs, file, page_bytes, cache_bytes, 1);
        // Materialize the meta page.
        pager.vfs.write_page(file, 0, &pager.zero_page)?;
        Ok(pager)
    }

    /// Attaches the tracing context: page-cache hits record
    /// `btree.cache_hit` markers and misses a `btree.page_load` span.
    pub(crate) fn attach_trace(&mut self, trace: TraceHandle) {
        self.trace = Some(trace);
    }

    /// Opens an existing tree file (recovery path). The page count comes
    /// from the file size; the free list starts empty — the caller
    /// rebuilds it from tree reachability via [`Pager::set_free_list`].
    pub(crate) fn open_existing(
        vfs: Vfs,
        file_name: &str,
        page_bytes: usize,
        cache_bytes: u64,
    ) -> Result<Self> {
        let file = vfs.open(file_name)?;
        let size = vfs.size(file)?;
        if size == 0 || size % page_bytes as u64 != 0 {
            return Err(StoreError::Corruption(format!(
                "tree file size {size} is not a multiple of the {page_bytes}-byte page size"
            )));
        }
        let pages = size / page_bytes as u64;
        Ok(Self::over(vfs, file, page_bytes, cache_bytes, pages))
    }

    /// Installs a rebuilt free list (recovery path).
    pub(crate) fn set_free_list(&mut self, pages: Vec<PageNo>) {
        debug_assert!(pages.iter().all(|&p| p >= 1 && p < self.next_page));
        self.free_list = pages;
    }

    /// Page size in bytes.
    pub fn page_bytes(&self) -> usize {
        self.page_bytes
    }

    /// Number of pages ever materialized (including freed ones).
    pub(crate) fn page_count(&self) -> PageNo {
        self.next_page
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> PagerStats {
        self.stats
    }

    /// Whether `page` currently occupies a cache slot. Observes only:
    /// no counter, tick or LRU position moves.
    pub fn is_resident(&self, page: PageNo) -> bool {
        self.cache.contains_key(&page)
    }

    /// Allocates a page, reusing freed pages first (keeping the file's
    /// LBA footprint stable) and extending the file otherwise.
    pub fn allocate(&mut self, mut node: Node) -> Result<PageNo> {
        self.stats.allocations += 1;
        let page = match self.free_list.pop() {
            Some(p) => p,
            None => {
                let p = self.next_page;
                // Materialize the new page at EOF so the file never has
                // holes (an append at the device level).
                let offset = p * self.page_bytes as u64;
                self.vfs.write_page(self.file, offset, &self.zero_page)?;
                self.next_page += 1;
                p
            }
        };
        // A leaf's buffer is a page long from birth.
        if let Node::Leaf { entries } = &mut node {
            entries.page(self.page_bytes);
        }
        self.insert_cached(page, node, None, true)?;
        Ok(page)
    }

    /// Returns a page to the free list (contents become garbage).
    pub fn free(&mut self, page: PageNo) {
        self.parked.remove(&page);
        if let Some(slot) = self.cache.remove(&page) {
            self.cached_bytes -= slot.node.encoded_len() as u64;
            self.lru.remove(&slot.last_access);
            self.dirty.remove(&page);
        }
        debug_assert!(
            !self.free_list.contains(&page),
            "double free of page {page}"
        );
        self.free_list.push(page);
    }

    /// Borrows a page from the cache, loading it from the file on a
    /// miss. The returned node is the cache's own: nothing is copied.
    pub fn read(&mut self, page: PageNo) -> Result<&Node> {
        if !self.hit(page) {
            self.load(page)?;
        }
        Ok(&self.cache[&page].node)
    }

    /// Counts one more cache hit on a resident page — a second lookup of
    /// a page the caller already holds, without the lookup.
    ///
    /// # Panics
    /// If `page` is not resident.
    pub fn touch(&mut self, page: PageNo) {
        let resident = self.hit(page);
        assert!(resident, "touch of page {page}, which is not resident");
    }

    /// Ticks the access clock and, if `page` is resident, accounts a
    /// hit and makes it the most recently used. Returns whether it was.
    fn hit(&mut self, page: PageNo) -> bool {
        self.access_clock += 1;
        let Some(slot) = self.cache.get_mut(&page) else {
            return false;
        };
        slot.stamp(page, self.access_clock, &mut self.lru);
        self.stats.cache.hits += 1;
        self.stats.cache.bytes_saved += self.page_bytes as u64;
        if let Some(t) = &self.trace {
            t.mark("btree.cache_hit", t.current_cause());
        }
        true
    }

    /// The miss path: reads and decodes the page, admits it clean.
    fn load(&mut self, page: PageNo) -> Result<()> {
        self.stats.cache.misses += 1;
        let span = self
            .trace
            .as_ref()
            .map(|t| t.begin("btree.page_load", t.current_cause()));
        let node = self.read_node(page);
        if let (Some(t), Some(span)) = (&self.trace, span) {
            t.end(span);
        }
        let (node, source) = node?;
        self.insert_cached(page, node, source, false)
    }

    /// Decodes the page straight from the range that was read: the
    /// tree file's own page, which a leaf keeps (see
    /// [page sharing](self#page-sharing)), and which an internal node
    /// was decoded from — unless it was parked unchanged, and is taken
    /// back.
    fn read_node(&mut self, page: PageNo) -> Result<(Node, Option<FileSlice>)> {
        let offset = page * self.page_bytes as u64;
        let bytes = self.vfs.read_shared(self.file, offset, self.page_bytes)?;
        if bytes.len() < self.page_bytes {
            return Err(StoreError::Corruption(format!("short read of page {page}")));
        }
        if let Some((source, node)) = self.parked.remove(&page) {
            if source.shares_buffer(&bytes) {
                return Ok((node, Some(source)));
            }
        }
        let node = Node::load(bytes.clone())?;
        let source = (!node.is_leaf()).then_some(bytes);
        Ok((node, source))
    }

    /// Mutates a resident page in place and marks it dirty; the change
    /// reaches the file on eviction or checkpoint. `f`'s result is
    /// passed through.
    ///
    /// The caller must have touched `page` ([`Pager::read`],
    /// [`Pager::allocate`]) no more than two other pages ago: the cache
    /// holds at least four pages and evicts least-recently-used first,
    /// so such a page cannot have been evicted since.
    ///
    /// # Panics
    /// If `page` is not resident, or if `f` leaves the node larger than
    /// a page.
    pub fn update<R>(&mut self, page: PageNo, f: impl FnOnce(&mut Node) -> R) -> Result<R> {
        let slot = self
            .cache
            .get_mut(&page)
            .unwrap_or_else(|| panic!("update of page {page}, which is not resident"));
        let before = slot.node.encoded_len();
        slot.source = None;
        let out = f(&mut slot.node);
        let len = slot.node.encoded_len();
        assert!(
            len <= self.page_bytes,
            "node of {len} bytes exceeds page size {}",
            self.page_bytes
        );
        self.cached_bytes = self.cached_bytes - before as u64 + len as u64;
        self.access_clock += 1;
        slot.stamp(page, self.access_clock, &mut self.lru);
        self.dirty.insert(page);
        self.evict_as_needed()?;
        Ok(out)
    }

    fn insert_cached(
        &mut self,
        page: PageNo,
        node: Node,
        source: Option<FileSlice>,
        dirty: bool,
    ) -> Result<()> {
        self.access_clock += 1;
        self.stats.cache.admissions += 1;
        self.cached_bytes += node.encoded_len() as u64;
        let slot = Slot {
            node,
            last_access: self.access_clock,
            source,
        };
        self.lru.insert(slot.last_access, page);
        if dirty {
            self.dirty.insert(page);
        }
        self.cache.insert(page, slot);
        self.evict_as_needed()
    }

    fn evict_as_needed(&mut self) -> Result<()> {
        while self.cached_bytes > self.cache_bytes && self.cache.len() > 1 {
            let (_, &victim) = self.lru.first_key_value().expect("cache non-empty");
            self.flush_page(victim, false)?;
            self.lru.pop_first();
            let slot = self.cache.remove(&victim).expect("victim cached");
            self.cached_bytes -= slot.node.encoded_len() as u64;
            self.stats.cache.evictions += 1;
            if let Some(source) = slot.source {
                if self.parked.len() == PARKED_PAGES {
                    self.parked.clear();
                }
                self.parked.insert(victim, (source, slot.node));
            }
        }
        Ok(())
    }

    /// Writes `page` back if dirty — blocking the clock, or through the
    /// detached background path.
    fn flush_page(&mut self, page: PageNo, background: bool) -> Result<()> {
        if !self.dirty.contains(&page) {
            return Ok(());
        }
        let (vfs, file) = (&self.vfs, self.file);
        let offset = page * self.page_bytes as u64;
        let slot = self.cache.get_mut(&page).expect("dirty pages are resident");
        match slot.node.page_image(self.page_bytes, &mut self.page_buf) {
            PageImage::Shared(image) if background => vfs.write_page_bg(file, offset, image),
            PageImage::Shared(image) => vfs.write_page(file, offset, image),
            PageImage::Patched(page, pending) => {
                let patch = |bytes: &mut [u8]| pending.apply(bytes);
                if background {
                    vfs.rewrite_page_bg(file, offset, page, patch)
                } else {
                    vfs.rewrite_page(file, offset, page, patch)
                }
                .map(|()| pending.clear())
            }
            PageImage::Encoded(image) if background => vfs.write_at_bg(file, offset, image),
            PageImage::Encoded(image) => vfs.write_at(file, offset, image),
        }?;
        self.stats.writebacks += 1;
        self.dirty.remove(&page);
        Ok(())
    }

    /// Writes back dirty pages — lowest page number first, for
    /// deterministic slicing — until `max_bytes` of writes have been
    /// issued or the cache is clean. Pages stay cached (now clean);
    /// returns the bytes written.
    pub fn flush_dirty(&mut self, max_bytes: u64, background: bool) -> Result<u64> {
        let mut written = 0u64;
        while written < max_bytes {
            let Some(&page) = self.dirty.first() else {
                break;
            };
            self.flush_page(page, background)?;
            written += self.page_bytes as u64;
        }
        Ok(written)
    }

    /// Writes the metadata page **without** an fsync — the caller
    /// fsyncs, or gates any dependent install on [`Pager::durable_at`].
    pub fn write_meta(&mut self, meta: &[u8], background: bool) -> Result<()> {
        assert!(meta.len() <= self.page_bytes);
        let mut page = meta.to_vec();
        page.resize(self.page_bytes, 0);
        let page = Arc::new(page);
        if background {
            self.vfs.write_page_bg(self.file, 0, &page)?;
        } else {
            self.vfs.write_page(self.file, 0, &page)?;
        }
        Ok(())
    }

    /// The simulated time at which everything written to the tree file
    /// so far (pages and metadata) is durable.
    pub fn durable_at(&self) -> Result<u64> {
        Ok(self.vfs.durable_at(self.file)?)
    }

    /// Blocks until the tree file is durable.
    pub fn fsync(&mut self) -> Result<()> {
        Ok(self.vfs.fsync(self.file)?)
    }

    /// Counts a completed checkpoint (the caller wrote the pages and the
    /// metadata and made them durable).
    pub fn note_checkpoint(&mut self) {
        self.stats.checkpoints += 1;
    }

    /// Reads the metadata page (bypassing the node cache).
    pub(crate) fn read_meta(&mut self) -> Result<Vec<u8>> {
        Ok(self.vfs.read_at(self.file, 0, self.page_bytes)?)
    }

    /// Current number of dirty pages in cache.
    pub fn dirty_pages(&self) -> usize {
        self.dirty.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptsbench_ssd::{DeviceConfig, DeviceProfile, Ssd};
    use ptsbench_vfs::VfsOptions;

    fn vfs() -> Vfs {
        let ssd = Ssd::new(DeviceConfig::from_profile(DeviceProfile::ssd1(), 32 << 20));
        Vfs::whole_device(ssd.into_shared(), VfsOptions::default())
    }

    /// A foreground checkpoint, as `BTreeDb::checkpoint` drives it.
    fn checkpoint(p: &mut Pager, meta: &[u8]) {
        p.flush_dirty(u64::MAX, false).expect("write-back");
        p.write_meta(meta, false).expect("meta");
        p.fsync().expect("fsync");
    }

    fn leaf(tag: u8, bytes: usize) -> Node {
        filled(tag, tag, bytes)
    }

    /// A leaf of one entry: key `[tag]`, value `bytes` bytes of `fill`.
    fn filled(tag: u8, fill: u8, bytes: usize) -> Node {
        Node::Leaf {
            entries: [(vec![tag], vec![fill; bytes])].into_iter().collect(),
        }
    }

    #[test]
    fn allocate_read_write_round_trip() {
        let mut p = Pager::create(vfs(), "t.db", 4096, 64 << 10).expect("create");
        let page = p.allocate(leaf(1, 10)).expect("alloc");
        assert_eq!(*p.read(page).expect("read"), leaf(1, 10));
        p.update(page, |n| *n = leaf(2, 20)).expect("update");
        assert_eq!(*p.read(page).expect("read"), leaf(2, 20));
    }

    #[test]
    fn eviction_writes_back_and_reload_works() {
        // Cache of 16 KiB with ~3 KiB nodes: ~5 fit.
        let mut p = Pager::create(vfs(), "t.db", 4096, 16 << 10).expect("create");
        let pages: Vec<PageNo> = (0..10)
            .map(|i| p.allocate(leaf(i, 3000)).expect("alloc"))
            .collect();
        assert!(p.stats().writebacks > 0, "evictions must write dirty pages");
        assert!(p.stats().cache.evictions > 0);
        // Everything still readable (from disk where evicted).
        for (i, &page) in pages.iter().enumerate() {
            assert_eq!(*p.read(page).expect("read"), leaf(i as u8, 3000));
        }
        let s = p.stats().cache;
        assert!(s.misses > 0);
        assert_eq!(
            s.bytes_saved,
            s.hits * 4096,
            "every hit credits one page of avoided device reads"
        );
    }

    #[test]
    fn in_place_writeback_hits_same_lbas() {
        let v = vfs();
        let mut p = Pager::create(v.clone(), "t.db", 4096, 16 << 10).expect("create");
        let page = p.allocate(leaf(1, 3000)).expect("alloc");
        checkpoint(&mut p, b"m1");
        let mapped_before = v.ssd().lock().mapped_pages();
        for i in 0..20 {
            p.update(page, |n| *n = leaf(i, 3000)).expect("update");
            checkpoint(&mut p, b"m1");
        }
        assert_eq!(
            v.ssd().lock().mapped_pages(),
            mapped_before,
            "rewrites must not grow the LBA footprint"
        );
    }

    #[test]
    fn checkpoint_flushes_all_dirty() {
        let mut p = Pager::create(vfs(), "t.db", 4096, 64 << 10).expect("create");
        for i in 0..5 {
            p.allocate(leaf(i, 100)).expect("alloc");
        }
        assert!(p.dirty_pages() > 0);
        checkpoint(&mut p, b"meta-bytes");
        assert_eq!(p.dirty_pages(), 0);
        let meta = p.read_meta().expect("meta");
        assert_eq!(&meta[..10], b"meta-bytes");
    }

    #[test]
    fn free_list_reuses_pages() {
        let mut p = Pager::create(vfs(), "t.db", 4096, 64 << 10).expect("create");
        let a = p.allocate(leaf(1, 10)).expect("alloc");
        let count = p.page_count();
        p.free(a);
        let b = p.allocate(leaf(2, 10)).expect("alloc");
        assert_eq!(a, b, "freed page must be reused");
        assert_eq!(p.page_count(), count, "file must not grow");
    }

    /// The page a leaf holds, as a slice sharing its buffer.
    fn held_page(p: &mut Pager, page: PageNo) -> FileSlice {
        match p.read(page).expect("read") {
            Node::Leaf { entries } => entries.buffer(),
            Node::Internal { .. } => panic!("page {page} is not a leaf"),
        }
    }

    /// `node`'s page image: its encoding, zero-padded to the page.
    fn image(node: &Node) -> Vec<u8> {
        let mut image = Vec::new();
        node.encode(&mut image);
        image.resize(4096, 0);
        image
    }

    #[test]
    fn a_written_back_leaf_shares_its_page_and_edits_copy_it() {
        let v = vfs();
        let mut p = Pager::create(v.clone(), "t.db", 4096, 64 << 10).expect("create");
        let page = p.allocate(leaf(1, 3000)).expect("alloc");
        checkpoint(&mut p, b"m");
        let file = v.open("t.db").expect("open");
        let on_file = || v.read_shared(file, page * 4096, 4096).expect("read");
        assert!(
            held_page(&mut p, page).shares_buffer(&on_file()),
            "the checkpoint handed the leaf's buffer to the file"
        );
        assert_eq!(*on_file(), image(&leaf(1, 3000)));

        // An edit copies the page; the file keeps its bytes...
        p.update(page, |n| n.set_value(0, &[2; 2000]))
            .expect("edit");
        let edited = Node::Leaf {
            entries: [(vec![1], vec![2; 2000])].into_iter().collect(),
        };
        assert!(!held_page(&mut p, page).shares_buffer(&on_file()));
        assert_eq!(
            *on_file(),
            image(&leaf(1, 3000)),
            "an edit reached the file"
        );
        // ...until the next write-back, which shares the edited page.
        checkpoint(&mut p, b"m");
        assert_eq!(*on_file(), image(&edited));
        assert!(held_page(&mut p, page).shares_buffer(&on_file()));
    }

    #[test]
    fn a_leaf_evicted_dirty_hands_its_page_to_the_file() {
        let v = vfs();
        let mut p = Pager::create(v.clone(), "t.db", 4096, 16 << 10).expect("create");
        let page = p.allocate(leaf(1, 3000)).expect("alloc");
        checkpoint(&mut p, b"m");
        let file = v.open("t.db").expect("open");
        let on_file = || v.read_shared(file, page * 4096, 4096).expect("read");
        p.update(page, |n| n.set_value(0, &[3; 2500]))
            .expect("edit");
        let edited = Node::Leaf {
            entries: [(vec![1], vec![3; 2500])].into_iter().collect(),
        };
        let held = held_page(&mut p, page);
        assert!(!held.shares_buffer(&on_file()));
        assert_eq!(
            *on_file(),
            image(&leaf(1, 3000)),
            "an edit reached the file"
        );

        // Five more ~3 KiB leaves push the dirty one out of a 16 KiB
        // cache: the eviction writes it back by handing over its buffer.
        let writebacks = p.stats().writebacks;
        for i in 0..5 {
            p.allocate(leaf(10 + i, 3000)).expect("alloc");
        }
        assert!(!p.is_resident(page), "the leaf was evicted");
        assert!(p.stats().writebacks > writebacks);
        assert!(
            held.shares_buffer(&on_file()),
            "the file holds the leaf's buffer"
        );
        assert_eq!(*on_file(), image(&edited));

        // Loaded back, it shares the page again; an edit leaves the file
        // as the eviction wrote it.
        assert!(held_page(&mut p, page).shares_buffer(&on_file()));
        p.update(page, |n| n.set_value(0, &[4; 10])).expect("edit");
        assert_eq!(*on_file(), image(&edited), "an edit reached the file");
    }

    #[test]
    fn a_same_length_overwrite_waits_for_the_write_back_which_patches_the_files_page() {
        let v = vfs();
        let mut p = Pager::create(v.clone(), "t.db", 4096, 64 << 10).expect("create");
        let page = p.allocate(leaf(1, 3000)).expect("alloc");
        checkpoint(&mut p, b"m");
        let file = v.open("t.db").expect("open");
        let on_file = || v.read_shared(file, page * 4096, 4096).expect("read");
        // Where the file's page lives; the slice is dropped at once.
        let files_page = on_file().as_ptr();

        // The overwrite copies nothing: the leaf still shares the file's
        // page, which keeps its bytes, and reads see the new value.
        p.update(page, |n| n.set_value(0, &[5; 3000]))
            .expect("edit");
        assert!(held_page(&mut p, page).shares_buffer(&on_file()));
        assert_eq!(
            *on_file(),
            image(&leaf(1, 3000)),
            "an edit reached the file"
        );
        let edited = filled(1, 5, 3000);
        assert_eq!(*p.read(page).expect("read"), edited);
        assert_eq!(p.dirty_pages(), 1);

        // With no other holder, the write-back makes it in the file's
        // own page buffer, which the leaf shares again.
        checkpoint(&mut p, b"m");
        assert_eq!(*on_file(), image(&edited));
        assert_eq!(on_file().as_ptr(), files_page, "the page was copied");
        assert!(held_page(&mut p, page).shares_buffer(&on_file()));

        // The same through the background path, then an edit that moves
        // bytes: it copies the page with the pending value in it.
        p.update(page, |n| n.set_value(0, &[6; 3000]))
            .expect("edit");
        p.flush_dirty(u64::MAX, true).expect("write-back");
        assert_eq!(on_file().as_ptr(), files_page, "the page was copied");
        assert_eq!(*on_file(), image(&filled(1, 6, 3000)));
        p.update(page, |n| n.set_value(0, &[7; 3000]))
            .expect("edit");
        p.update(page, |n| n.insert_pair(1, &[2], &[8; 10]))
            .expect("edit");
        let both = Node::Leaf {
            entries: [(vec![1], vec![7; 3000]), (vec![2], vec![8; 10])]
                .into_iter()
                .collect(),
        };
        assert_eq!(*p.read(page).expect("read"), both);
        assert!(!held_page(&mut p, page).shares_buffer(&on_file()));
        assert_eq!(*on_file(), image(&filled(1, 6, 3000)));
        checkpoint(&mut p, b"m");
        assert_eq!(*on_file(), image(&both));
    }

    #[test]
    fn a_pending_overwrite_of_a_held_page_is_made_in_a_copy() {
        let v = vfs();
        let mut p = Pager::create(v.clone(), "t.db", 4096, 16 << 10).expect("create");
        let page = p.allocate(leaf(1, 3000)).expect("alloc");
        checkpoint(&mut p, b"m");
        let file = v.open("t.db").expect("open");
        let on_file = || v.read_shared(file, page * 4096, 4096).expect("read");
        p.update(page, |n| n.set_value(0, &[9; 3000]))
            .expect("edit");
        let held = on_file();

        // Five more ~3 KiB leaves push the leaf out: its write-back
        // patches a copy, and the held slice keeps the old bytes.
        for i in 0..5 {
            p.allocate(leaf(10 + i, 3000)).expect("alloc");
        }
        assert!(!p.is_resident(page), "the leaf was evicted");
        assert_eq!(*held, image(&leaf(1, 3000)), "a held slice changed");
        assert!(!held.shares_buffer(&on_file()));
        assert_eq!(*on_file(), image(&filled(1, 9, 3000)));
        assert_eq!(*p.read(page).expect("read"), filled(1, 9, 3000));
    }

    #[test]
    fn an_internal_page_is_taken_back_only_while_the_file_holds_it() {
        let v = vfs();
        let mut p = Pager::create(v.clone(), "t.db", 4096, 16 << 10).expect("create");
        let internal = |children: Vec<PageNo>, separators: &[&str]| Node::Internal {
            children,
            separators: separators.iter().collect(),
        };
        let page = p
            .allocate(internal(vec![7, 8, 9], &["g", "p"]))
            .expect("alloc");
        // Six ~3 KiB leaves push every other page out of the cache.
        let push_out = |p: &mut Pager| {
            for i in 0..6 {
                p.allocate(leaf(i, 3000)).expect("alloc");
            }
            assert!(!p.is_resident(page));
        };
        push_out(&mut p);
        assert!(!p.parked.contains_key(&page), "it was never loaded");

        // Loaded, then evicted unchanged: parked, and taken back.
        assert_eq!(
            *p.read(page).expect("read"),
            internal(vec![7, 8, 9], &["g", "p"])
        );
        push_out(&mut p);
        assert!(p.parked.contains_key(&page));
        let misses = p.stats().cache.misses;
        assert_eq!(
            *p.read(page).expect("read"),
            internal(vec![7, 8, 9], &["g", "p"])
        );
        assert_eq!(p.stats().cache.misses, misses + 1, "a miss all the same");
        assert!(!p.parked.contains_key(&page));

        // Changed, written back and evicted: not parked; the load
        // decodes what the write-back wrote.
        p.update(page, |n| n.insert_child(2, b"x", 10))
            .expect("edit");
        push_out(&mut p);
        assert!(
            !p.parked.contains_key(&page),
            "a changed node is not parked"
        );
        let changed = internal(vec![7, 8, 9, 10], &["g", "p", "x"]);
        assert_eq!(*p.read(page).expect("read"), changed);

        // Parked, then the page rewritten behind the pager's back: the
        // file no longer holds the page the node came from.
        push_out(&mut p);
        assert!(p.parked.contains_key(&page));
        let rewritten = internal(vec![1, 2], &["m"]);
        v.write_at(
            v.open("t.db").expect("open"),
            page * 4096,
            &image(&rewritten),
        )
        .expect("write");
        assert_eq!(*p.read(page).expect("read"), rewritten);
    }

    #[test]
    #[should_panic(expected = "exceeds page size")]
    fn oversized_node_panics() {
        let mut p = Pager::create(vfs(), "t.db", 4096, 64 << 10).expect("create");
        let page = p.allocate(leaf(1, 10)).expect("alloc");
        p.update(page, |n| *n = leaf(2, 8000)).expect("update");
    }
}
