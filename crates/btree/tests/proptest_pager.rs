//! The pager's indexed LRU against a scanning oracle: for arbitrary
//! read / update / allocate / free / write-back mixes, the pager keeps
//! exactly the pages resident, and reports exactly the counters, that a
//! model choosing each eviction victim by scanning every slot for the
//! smallest last-access tick (the pager's algorithm before it kept an
//! index) does — so the same pages leave the cache in the same order.

use std::collections::HashMap;

use proptest::prelude::*;

use ptsbench_btree::node::Node;
use ptsbench_btree::pager::{Pager, PagerStats};
use ptsbench_btree::PageNo;
use ptsbench_ssd::{DeviceConfig, DeviceProfile, Ssd};
use ptsbench_vfs::{Vfs, VfsOptions};

const PAGE_BYTES: usize = 4096;
const CACHE_BYTES: u64 = 6 * PAGE_BYTES as u64;

#[derive(Debug, Clone)]
enum PagerOp {
    /// Allocate a page holding a leaf with this many value bytes.
    Allocate(usize),
    /// Read the nth live page.
    Read(usize),
    /// Read, then resize, the nth live page (the tree's update shape).
    Update(usize, usize),
    /// Free the nth live page.
    Free(usize),
    /// Write back every dirty page.
    Checkpoint,
    /// Write back up to this many dirty pages in the background.
    FlushBg(u64),
}

fn pager_op() -> impl Strategy<Value = PagerOp> {
    prop_oneof![
        4 => (1..4000usize).prop_map(PagerOp::Allocate),
        8 => (0..64usize).prop_map(PagerOp::Read),
        6 => (0..64usize, 1..4000usize).prop_map(|(n, len)| PagerOp::Update(n, len)),
        2 => (0..64usize).prop_map(PagerOp::Free),
        1 => Just(PagerOp::Checkpoint),
        1 => (0..4u64).prop_map(PagerOp::FlushBg),
    ]
}

fn leaf(value_bytes: usize) -> Node {
    Node::Leaf {
        entries: [(vec![7], vec![7; value_bytes])].into_iter().collect(),
    }
}

struct OracleSlot {
    len: u64,
    last_access: u64,
    dirty: bool,
}

/// The cache policy as the pager implemented it before the LRU index
/// and the dirty set: every decision is a scan over all slots.
#[derive(Default)]
struct ScanningOracle {
    slots: HashMap<PageNo, OracleSlot>,
    /// Encoded length of every live page's current contents.
    contents: HashMap<PageNo, u64>,
    cached_bytes: u64,
    clock: u64,
    stats: PagerStats,
    evicted: Vec<PageNo>,
}

impl ScanningOracle {
    fn admit(&mut self, page: PageNo, dirty: bool) {
        self.clock += 1;
        self.stats.cache.admissions += 1;
        let len = self.contents[&page];
        self.cached_bytes += len;
        self.slots.insert(
            page,
            OracleSlot {
                len,
                last_access: self.clock,
                dirty,
            },
        );
        self.evict_as_needed();
    }

    fn evict_as_needed(&mut self) {
        while self.cached_bytes > CACHE_BYTES && self.slots.len() > 1 {
            let victim = self
                .slots
                .iter()
                .min_by_key(|(_, slot)| slot.last_access)
                .map(|(&page, _)| page)
                .expect("cache non-empty");
            let slot = self.slots.remove(&victim).expect("victim cached");
            self.stats.writebacks += u64::from(slot.dirty);
            self.cached_bytes -= slot.len;
            self.stats.cache.evictions += 1;
            self.evicted.push(victim);
        }
    }

    fn allocate(&mut self, page: PageNo, len: u64) {
        self.stats.allocations += 1;
        self.contents.insert(page, len);
        self.admit(page, true);
    }

    fn read(&mut self, page: PageNo) {
        self.clock += 1;
        if let Some(slot) = self.slots.get_mut(&page) {
            slot.last_access = self.clock;
            self.stats.cache.hits += 1;
            self.stats.cache.bytes_saved += PAGE_BYTES as u64;
        } else {
            self.stats.cache.misses += 1;
            self.admit(page, false);
        }
    }

    fn update(&mut self, page: PageNo, len: u64) {
        self.contents.insert(page, len);
        let slot = self.slots.get_mut(&page).expect("updated page resident");
        self.cached_bytes = self.cached_bytes - slot.len + len;
        slot.len = len;
        slot.dirty = true;
        self.clock += 1;
        slot.last_access = self.clock;
        self.evict_as_needed();
    }

    fn free(&mut self, page: PageNo) {
        self.contents.remove(&page);
        if let Some(slot) = self.slots.remove(&page) {
            self.cached_bytes -= slot.len;
        }
    }

    /// Writes back up to `limit` dirty pages, lowest page number first.
    fn write_back(&mut self, limit: usize) {
        let mut dirty: Vec<PageNo> = self
            .slots
            .iter()
            .filter(|(_, slot)| slot.dirty)
            .map(|(&page, _)| page)
            .collect();
        dirty.sort_unstable();
        for page in dirty.into_iter().take(limit) {
            self.slots.get_mut(&page).expect("dirty page cached").dirty = false;
            self.stats.writebacks += 1;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn indexed_lru_evicts_what_the_scanning_oracle_evicts(
        ops in proptest::collection::vec(pager_op(), 1..400),
    ) {
        let ssd = Ssd::new(DeviceConfig::from_profile(DeviceProfile::ssd1(), 32 << 20));
        let vfs = Vfs::whole_device(ssd.into_shared(), VfsOptions::default());
        let mut pager = Pager::create(vfs, "t.db", PAGE_BYTES, CACHE_BYTES).expect("create");
        let mut oracle = ScanningOracle::default();
        let mut live: Vec<PageNo> = Vec::new();
        let mut evicted: Vec<PageNo> = Vec::new();

        for (step, op) in ops.iter().enumerate() {
            let resident_before: Vec<PageNo> =
                live.iter().copied().filter(|&p| pager.is_resident(p)).collect();
            let mut freed = None;
            match *op {
                PagerOp::Allocate(bytes) => {
                    let node = leaf(bytes);
                    let len = node.encoded_len() as u64;
                    let page = pager.allocate(node).expect("allocate");
                    oracle.allocate(page, len);
                    live.push(page);
                }
                PagerOp::Read(n) if !live.is_empty() => {
                    let page = live[n % live.len()];
                    let len = pager.read(page).expect("read").encoded_len() as u64;
                    prop_assert_eq!(len, oracle.contents[&page], "page {} contents", page);
                    oracle.read(page);
                }
                PagerOp::Update(n, bytes) if !live.is_empty() => {
                    let page = live[n % live.len()];
                    pager.read(page).expect("read");
                    oracle.read(page);
                    let node = leaf(bytes);
                    let len = node.encoded_len() as u64;
                    pager.update(page, |slot| *slot = node).expect("update");
                    oracle.update(page, len);
                }
                PagerOp::Free(n) if !live.is_empty() => {
                    let page = live.swap_remove(n % live.len());
                    pager.free(page);
                    oracle.free(page);
                    freed = Some(page);
                }
                PagerOp::Checkpoint => {
                    // A foreground checkpoint, as `BTreeDb::checkpoint`
                    // drives it.
                    pager.flush_dirty(u64::MAX, false).expect("write-back");
                    pager.write_meta(b"meta", false).expect("meta");
                    pager.fsync().expect("fsync");
                    pager.note_checkpoint();
                    oracle.write_back(usize::MAX);
                    oracle.stats.checkpoints += 1;
                }
                PagerOp::FlushBg(pages) => {
                    let written = pager
                        .flush_dirty(pages * PAGE_BYTES as u64, true)
                        .expect("flush");
                    let dirty_before =
                        oracle.slots.values().filter(|slot| slot.dirty).count() as u64;
                    prop_assert_eq!(written, pages.min(dirty_before) * PAGE_BYTES as u64);
                    oracle.write_back(pages as usize);
                }
                _ => {}
            }
            // The pages that left the cache in this step, oldest first
            // (`resident_before` is in no particular order; sort by the
            // oracle's eviction order to compare sequences).
            let mut left: Vec<PageNo> = resident_before
                .into_iter()
                .filter(|&p| Some(p) != freed && !pager.is_resident(p))
                .collect();
            let tail = &oracle.evicted[evicted.len()..];
            left.sort_by_key(|p| tail.iter().position(|e| e == p));
            evicted.extend(left);
            prop_assert_eq!(&evicted, &oracle.evicted, "evictions diverged at step {}", step);
            for &page in &live {
                prop_assert_eq!(
                    pager.is_resident(page),
                    oracle.slots.contains_key(&page),
                    "residency of page {} at step {}", page, step
                );
            }
            prop_assert_eq!(pager.stats(), oracle.stats, "counters at step {}", step);
            prop_assert_eq!(
                pager.dirty_pages(),
                oracle.slots.values().filter(|slot| slot.dirty).count()
            );
        }
    }
}
