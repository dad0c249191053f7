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
//! A leaf is its own page image ([`crate::node::Entries`]): a write-back
//! writes the slot's buffer as it is, zero-padded to the page for the
//! write and cut back after it, with no encode pass. Only an internal
//! page, written after splits, is encoded first, into one buffer reused
//! by every such write-back.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use ptsbench_cache::CacheStats;
use ptsbench_vfs::{FileId, TraceHandle, Vfs};

use crate::node::Node;
use crate::{BTreeError, PageNo, Result};

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
            trace: None,
        }
    }

    /// Creates the tree file with a zeroed meta page.
    pub fn create(vfs: Vfs, file_name: &str, page_bytes: usize, cache_bytes: u64) -> Result<Self> {
        let file = vfs.create(file_name)?;
        // Materialize the meta page.
        vfs.write_at(file, 0, &vec![0u8; page_bytes])?;
        Ok(Self::over(vfs, file, page_bytes, cache_bytes, 1))
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
            return Err(BTreeError::Corruption(format!(
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
    pub fn allocate(&mut self, node: Node) -> Result<PageNo> {
        self.stats.allocations += 1;
        let page = match self.free_list.pop() {
            Some(p) => p,
            None => {
                let p = self.next_page;
                // Materialize the new page at EOF so the file never has
                // holes (an append at the device level).
                self.vfs.write_at(
                    self.file,
                    p * self.page_bytes as u64,
                    &vec![0u8; self.page_bytes],
                )?;
                self.next_page += 1;
                p
            }
        };
        self.insert_cached(page, node, true)?;
        Ok(page)
    }

    /// Returns a page to the free list (contents become garbage).
    pub fn free(&mut self, page: PageNo) {
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
        self.insert_cached(page, node?, false)
    }

    /// Decodes the page straight from the range that was read. The
    /// tree file is written in place, so the range must not outlive this
    /// call (the ownership rule in `ptsbench_vfs::fs`): the next
    /// write-back would copy the whole file.
    fn read_node(&mut self, page: PageNo) -> Result<Node> {
        let offset = page * self.page_bytes as u64;
        let bytes = self.vfs.read_shared(self.file, offset, self.page_bytes)?;
        if bytes.len() < self.page_bytes {
            return Err(BTreeError::Corruption(format!("short read of page {page}")));
        }
        Node::decode(&bytes)
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

    fn insert_cached(&mut self, page: PageNo, node: Node, dirty: bool) -> Result<()> {
        self.access_clock += 1;
        self.stats.cache.admissions += 1;
        self.cached_bytes += node.encoded_len() as u64;
        let slot = Slot {
            node,
            last_access: self.access_clock,
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
        slot.node
            .with_page_image(self.page_bytes, &mut self.page_buf, |image| {
                if background {
                    vfs.write_at_bg(file, offset, image)
                } else {
                    vfs.write_at(file, offset, image)
                }
            })?;
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
        let mut meta_buf = meta.to_vec();
        meta_buf.resize(self.page_bytes, 0);
        if background {
            self.vfs.write_at_bg(self.file, 0, &meta_buf)?;
        } else {
            self.vfs.write_at(self.file, 0, &meta_buf)?;
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
        Node::Leaf {
            entries: [(vec![tag], vec![tag; bytes])].into_iter().collect(),
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

    #[test]
    #[should_panic(expected = "exceeds page size")]
    fn oversized_node_panics() {
        let mut p = Pager::create(vfs(), "t.db", 4096, 64 << 10).expect("create");
        let page = p.allocate(leaf(1, 10)).expect("alloc");
        p.update(page, |n| *n = leaf(2, 8000)).expect("update");
    }
}
