//! The flash translation layer.
//!
//! A page-mapped FTL in the style described by the address-translation
//! survey the paper cites (Ma et al.): host writes always go to the next
//! free page of an *open block* (out-of-place, log-structured), a
//! logical-to-physical table tracks current locations, and overwritten or
//! trimmed pages become *invalid* until garbage collection relocates the
//! remaining valid pages of a victim block and erases it.
//!
//! Three open blocks are kept — one for host writes, one for first-pass
//! GC relocations, one for data relocated *again* (cold). This two-level
//! hot/warm/cold separation is the standard firmware trick that lets
//! never-overwritten data (e.g. the valid-but-untouched LBA space of a
//! preconditioned drive) consolidate into fully valid blocks that greedy
//! victim selection then avoids, instead of being shuffled forever.
//!
//! The FTL is purely a *metadata* machine: it decides placement and
//! accounts NAND operations ([`NandOps`]); it does not store page
//! contents (the filesystem layer owns data), and it does not know about
//! time (the device layer charges latencies).

use std::collections::VecDeque;

use crate::config::{GcConfig, Geometry};
use crate::gc::CandidateSet;
use crate::types::{BlockId, Lpn, Ppn, UNMAPPED};
use crate::SsdError;

/// NAND operations performed while servicing one host command.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NandOps {
    /// Page programs, **including** the host page itself and relocations.
    pub programs: u32,
    /// Page reads performed for GC relocation.
    pub reads: u32,
    /// Block erases.
    pub erases: u32,
    /// Pages relocated by GC (subset of `programs`).
    pub relocated: u32,
    /// Number of GC victim collections triggered.
    pub gc_runs: u32,
}

impl NandOps {
    /// Accumulates another operation tally into this one.
    pub fn merge(&mut self, other: NandOps) {
        self.programs += other.programs;
        self.reads += other.reads;
        self.erases += other.erases;
        self.relocated += other.relocated;
        self.gc_runs += other.gc_runs;
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BlockState {
    Free,
    Open,
    Closed,
}

/// Write streams, coldest last. Pages relocated from a stream-`s` block
/// go to stream `min(s + 1, COLDEST)`.
const HOST_STREAM: usize = 0;
const STREAMS: usize = 3;
const COLDEST: usize = STREAMS - 1;

#[derive(Debug, Clone, Copy)]
struct BlockMeta {
    state: BlockState,
    /// Which stream filled this block (see [`HOST_STREAM`]).
    stream: u8,
    /// Number of currently valid pages in this block.
    valid: u32,
    /// Lifetime erase count (wear).
    erase_count: u32,
}

#[derive(Debug, Clone, Copy)]
struct OpenBlock {
    id: BlockId,
    /// Next page offset to program.
    next: u32,
}

/// The page-mapped flash translation layer.
#[derive(Debug)]
pub struct Ftl {
    geom: Geometry,
    gc_cfg: GcConfig,
    /// Logical→physical map; `UNMAPPED` when the LPN holds no data.
    l2p: Vec<u32>,
    /// Physical→logical reverse map; `UNMAPPED` when the page is free or
    /// invalid.
    p2l: Vec<u32>,
    blocks: Vec<BlockMeta>,
    free: VecDeque<BlockId>,
    /// Open block per write stream (host, warm GC, cold GC).
    opens: [Option<OpenBlock>; STREAMS],
    candidates: CandidateSet,
    /// Number of mapped (valid) logical pages.
    mapped: u64,
}

impl Ftl {
    /// Builds a fresh (fully erased) FTL for the given geometry.
    ///
    /// # Panics
    /// Panics unless the geometry leaves at least
    /// `reserve_blocks + write streams + 2` spare blocks beyond the
    /// logical capacity: with less, a fully utilized drive can reach a
    /// state where every GC candidate is fully valid and collection
    /// cannot reclaim space (real FTLs guarantee the same bound via
    /// hardware over-provisioning).
    pub fn new(geom: Geometry, gc_cfg: GcConfig) -> Self {
        geom.validate();
        assert!(
            geom.logical_pages < UNMAPPED as u64,
            "logical space too large for u32 maps"
        );
        assert!(
            geom.physical_pages() < UNMAPPED as u64,
            "physical space too large for u32 maps"
        );
        let logical_blocks = geom.logical_pages.div_ceil(geom.pages_per_block as u64);
        let min_spare = gc_cfg.reserve_blocks as u64 + STREAMS as u64 + 2;
        assert!(
            geom.physical_blocks as u64 >= logical_blocks + min_spare,
            "geometry needs >= {min_spare} spare blocks beyond the logical capacity \
             for GC forward progress (logical {logical_blocks} blocks, physical {})",
            geom.physical_blocks
        );
        let blocks = geom.physical_blocks;
        Self {
            geom,
            gc_cfg,
            l2p: vec![UNMAPPED; geom.logical_pages as usize],
            p2l: vec![UNMAPPED; geom.physical_pages() as usize],
            blocks: vec![
                BlockMeta {
                    state: BlockState::Free,
                    stream: 0,
                    valid: 0,
                    erase_count: 0
                };
                blocks as usize
            ],
            free: (0..blocks).collect(),
            opens: [None; STREAMS],
            candidates: CandidateSet::new(blocks, geom.pages_per_block),
            mapped: 0,
        }
    }

    /// Device geometry.
    pub fn geometry(&self) -> &Geometry {
        &self.geom
    }

    /// Number of mapped logical pages.
    pub fn mapped_pages(&self) -> u64 {
        self.mapped
    }

    /// Fraction of the logical space currently holding data.
    pub fn utilization(&self) -> f64 {
        self.mapped as f64 / self.geom.logical_pages as f64
    }

    /// Number of blocks on the free list.
    pub fn free_blocks(&self) -> usize {
        self.free.len()
    }

    /// Whether the LPN currently maps to data.
    pub fn is_mapped(&self, lpn: Lpn) -> bool {
        self.l2p[lpn as usize] != UNMAPPED
    }

    /// Per-block erase counts (wear distribution).
    pub fn erase_counts(&self) -> Vec<u32> {
        self.blocks.iter().map(|b| b.erase_count).collect()
    }

    /// Services a host write of one logical page. Returns the NAND
    /// operations performed (any GC work plus the host program itself).
    pub fn write(&mut self, lpn: Lpn) -> Result<NandOps, SsdError> {
        self.check_lpn(lpn)?;
        let mut ops = NandOps::default();

        let was_mapped = self.invalidate(lpn);
        if !was_mapped {
            self.mapped += 1;
        }

        let ppn = self.alloc_page(HOST_STREAM, &mut ops)?;
        self.l2p[lpn as usize] = ppn as u32;
        self.p2l[ppn as usize] = lpn as u32;
        self.blocks[(ppn / self.geom.pages_per_block as u64) as usize].valid += 1;
        ops.programs += 1;
        Ok(ops)
    }

    /// TRIMs one logical page: its mapping (if any) is dropped and the
    /// physical page becomes garbage. Returns whether data was discarded.
    pub fn trim(&mut self, lpn: Lpn) -> Result<bool, SsdError> {
        self.check_lpn(lpn)?;
        let had = self.invalidate(lpn);
        if had {
            self.mapped -= 1;
        }
        Ok(had)
    }

    /// Resets the FTL to factory-fresh: all mappings dropped, all blocks
    /// free. Wear (erase counts) is preserved. This is the `blkdiscard`
    /// fast path — garbage is dropped without GC traffic.
    pub fn discard_all(&mut self) {
        self.l2p.fill(UNMAPPED);
        self.p2l.fill(UNMAPPED);
        self.free.clear();
        self.candidates = CandidateSet::new(self.geom.physical_blocks, self.geom.pages_per_block);
        for (id, b) in self.blocks.iter_mut().enumerate() {
            b.state = BlockState::Free;
            b.valid = 0;
            self.free.push_back(id as BlockId);
        }
        self.opens = [None; STREAMS];
        self.mapped = 0;
    }

    fn check_lpn(&self, lpn: Lpn) -> Result<(), SsdError> {
        if lpn >= self.geom.logical_pages {
            Err(SsdError::LpnOutOfRange {
                lpn,
                logical_pages: self.geom.logical_pages,
            })
        } else {
            Ok(())
        }
    }

    /// Drops the current mapping of `lpn`, if any. Does not touch
    /// `self.mapped` (callers differ on whether the LPN stays logically
    /// occupied).
    fn invalidate(&mut self, lpn: Lpn) -> bool {
        let ppn = self.l2p[lpn as usize];
        if ppn == UNMAPPED {
            return false;
        }
        self.l2p[lpn as usize] = UNMAPPED;
        self.p2l[ppn as usize] = UNMAPPED;
        let block = ppn / self.geom.pages_per_block;
        let meta = &mut self.blocks[block as usize];
        let old_valid = meta.valid;
        meta.valid -= 1;
        if meta.state == BlockState::Closed {
            self.candidates.update_valid(block, old_valid, meta.valid);
        }
        true
    }

    /// Allocates the next physical page from the given stream's open
    /// block, opening new blocks (and garbage-collecting) as needed.
    fn alloc_page(&mut self, stream: usize, ops: &mut NandOps) -> Result<Ppn, SsdError> {
        loop {
            if let Some(mut ob) = self.opens[stream] {
                if ob.next < self.geom.pages_per_block {
                    let ppn = ob.id as u64 * self.geom.pages_per_block as u64 + ob.next as u64;
                    ob.next += 1;
                    self.opens[stream] = Some(ob);
                    return Ok(ppn);
                }
                // Block is full: close it and make it a GC candidate.
                let meta = &mut self.blocks[ob.id as usize];
                meta.state = BlockState::Closed;
                self.candidates.insert(ob.id, meta.valid);
                self.opens[stream] = None;
            }

            // Need a fresh block. Host allocations replenish the reserve
            // first; GC allocations may dip into it (that is what the
            // reserve is for).
            if stream == HOST_STREAM {
                let mut guard = 0u32;
                while self.free.len() <= self.gc_cfg.reserve_blocks as usize {
                    self.collect_one(ops)?;
                    guard += 1;
                    assert!(
                        guard <= 2 * self.geom.physical_blocks,
                        "GC failed to make progress; device badly over-committed"
                    );
                }
            }
            let id = self.free.pop_front().ok_or(SsdError::NoFreeBlocks)?;
            let meta = &mut self.blocks[id as usize];
            debug_assert_eq!(meta.state, BlockState::Free);
            debug_assert_eq!(meta.valid, 0);
            meta.state = BlockState::Open;
            meta.stream = stream as u8;
            self.opens[stream] = Some(OpenBlock { id, next: 0 });
        }
    }

    /// Collects one victim block: relocates its valid pages and erases it.
    fn collect_one(&mut self, ops: &mut NandOps) -> Result<(), SsdError> {
        let (victim, valid) = self.candidates.pick().ok_or(SsdError::NoFreeBlocks)?;
        self.candidates.remove(victim, valid);
        ops.gc_runs += 1;
        // Survivors of a stream-s block age into stream s+1; data that
        // keeps surviving consolidates in the coldest stream.
        let target_stream = (self.blocks[victim as usize].stream as usize + 1).min(COLDEST);

        if valid > 0 {
            let base = victim as u64 * self.geom.pages_per_block as u64;
            for off in 0..self.geom.pages_per_block as u64 {
                let old_ppn = base + off;
                let lpn = self.p2l[old_ppn as usize];
                if lpn == UNMAPPED {
                    continue;
                }
                debug_assert_eq!(self.l2p[lpn as usize] as u64, old_ppn);
                ops.reads += 1;
                let new_ppn = self.alloc_page(target_stream, ops)?;
                self.l2p[lpn as usize] = new_ppn as u32;
                self.p2l[new_ppn as usize] = lpn;
                self.p2l[old_ppn as usize] = UNMAPPED;
                self.blocks[victim as usize].valid -= 1;
                self.blocks[(new_ppn / self.geom.pages_per_block as u64) as usize].valid += 1;
                ops.programs += 1;
                ops.relocated += 1;
            }
        }
        debug_assert_eq!(self.blocks[victim as usize].valid, 0);

        let meta = &mut self.blocks[victim as usize];
        meta.state = BlockState::Free;
        meta.erase_count += 1;
        self.free.push_back(victim);
        ops.erases += 1;
        Ok(())
    }

    /// Exhaustively checks internal invariants; panics on violation.
    /// Intended for tests (O(physical pages)).
    pub fn check_invariants(&self) {
        let ppb = self.geom.pages_per_block as u64;
        // 1. l2p/p2l are mutually consistent.
        let mut mapped = 0u64;
        for (lpn, &ppn) in self.l2p.iter().enumerate() {
            if ppn != UNMAPPED {
                assert_eq!(
                    self.p2l[ppn as usize] as usize, lpn,
                    "p2l[{ppn}] does not point back to lpn {lpn}"
                );
                mapped += 1;
            }
        }
        assert_eq!(mapped, self.mapped, "mapped-page count drifted");
        for (ppn, &lpn) in self.p2l.iter().enumerate() {
            if lpn != UNMAPPED {
                assert_eq!(
                    self.l2p[lpn as usize] as usize, ppn,
                    "l2p[{lpn}] does not point back to ppn {ppn}"
                );
            }
        }
        // 2. Per-block valid counts match p2l, and states are coherent.
        let mut free_count = 0usize;
        for (id, meta) in self.blocks.iter().enumerate() {
            let base = id as u64 * ppb;
            let actual = (0..ppb)
                .filter(|off| self.p2l[(base + off) as usize] != UNMAPPED)
                .count() as u32;
            assert_eq!(actual, meta.valid, "block {id} valid count drifted");
            match meta.state {
                BlockState::Free => {
                    assert_eq!(actual, 0, "free block {id} holds valid pages");
                    free_count += 1;
                }
                BlockState::Closed => {
                    assert!(
                        self.candidates.check_member(id as BlockId, meta.valid),
                        "closed block {id} missing from GC candidates"
                    );
                }
                BlockState::Open => {}
            }
        }
        assert_eq!(free_count, self.free.len(), "free list length drifted");
        // 3. Candidate set contains exactly the closed blocks.
        let closed = self
            .blocks
            .iter()
            .filter(|b| b.state == BlockState::Closed)
            .count();
        assert_eq!(closed, self.candidates.len(), "candidate set size drifted");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GcConfig;

    fn small_geom() -> Geometry {
        // 64 logical pages (8 blocks of 8 pages), 16 physical blocks:
        // 8 spare blocks cover the GC reserve plus the write streams.
        Geometry {
            page_size: 4096,
            pages_per_block: 8,
            logical_pages: 64,
            physical_blocks: 16,
        }
    }

    fn ftl() -> Ftl {
        Ftl::new(small_geom(), GcConfig { reserve_blocks: 2 })
    }

    #[test]
    #[should_panic(
        expected = "geometry needs >= 7 spare blocks beyond the logical capacity \
                               for GC forward progress (logical 8 blocks, physical 14)"
    )]
    fn too_little_spare_is_refused() {
        // Reserve 2 + 3 write streams + 2: 7 spare blocks, one short.
        let geom = Geometry {
            physical_blocks: 14,
            ..small_geom()
        };
        Ftl::new(geom, GcConfig { reserve_blocks: 2 });
    }

    #[test]
    fn first_write_maps_without_gc() {
        let mut f = ftl();
        let ops = f.write(0).expect("write");
        assert_eq!(ops.programs, 1);
        assert_eq!(ops.erases, 0);
        assert!(f.is_mapped(0));
        assert_eq!(f.mapped_pages(), 1);
        f.check_invariants();
    }

    #[test]
    fn overwrite_invalidates_previous_page() {
        let mut f = ftl();
        f.write(5).expect("write");
        f.write(5).expect("overwrite");
        assert_eq!(f.mapped_pages(), 1, "overwrite must not grow mapped count");
        f.check_invariants();
    }

    #[test]
    fn sequential_fill_no_relocation() {
        let mut f = ftl();
        let mut total = NandOps::default();
        for lpn in 0..64 {
            total.merge(f.write(lpn).expect("write"));
        }
        assert_eq!(total.programs, 64);
        assert_eq!(
            total.relocated, 0,
            "filling a fresh drive must not trigger relocation"
        );
        assert_eq!(f.mapped_pages(), 64);
        f.check_invariants();
    }

    #[test]
    fn sustained_overwrites_trigger_gc_and_wa() {
        let mut f = ftl();
        let mut total = NandOps::default();
        // Fill, then overwrite the whole space several times.
        for round in 0..6 {
            for lpn in 0..64 {
                let _ = round;
                total.merge(f.write(lpn).expect("write"));
            }
            f.check_invariants();
        }
        assert!(total.erases > 0, "GC must have erased blocks");
        // Sequential overwrites invalidate whole blocks: WA stays near 1.
        let wa = total.programs as f64 / (6.0 * 64.0);
        assert!(
            wa < 1.3,
            "sequential overwrite WA should be near 1, got {wa}"
        );
        assert_eq!(f.mapped_pages(), 64);
    }

    #[test]
    fn random_overwrites_amplify_more_than_sequential() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let run = |random: bool| -> f64 {
            let mut f = ftl();
            let mut rng = SmallRng::seed_from_u64(42);
            let mut total = NandOps::default();
            for lpn in 0..64 {
                total.merge(f.write(lpn).expect("fill"));
            }
            let writes = 64 * 8;
            for i in 0..writes {
                let lpn = if random { rng.gen_range(0..64) } else { i % 64 };
                total.merge(f.write(lpn).expect("update"));
            }
            f.check_invariants();
            total.programs as f64 / (64 + writes) as f64
        };
        let wa_seq = run(false);
        let wa_rand = run(true);
        assert!(
            wa_rand > wa_seq,
            "random WA ({wa_rand}) must exceed sequential WA ({wa_seq})"
        );
    }

    #[test]
    fn trim_frees_logical_space() {
        let mut f = ftl();
        for lpn in 0..64 {
            f.write(lpn).expect("write");
        }
        for lpn in 0..32 {
            assert!(f.trim(lpn).expect("trim"));
        }
        assert!(!f.trim(0).expect("re-trim"), "second trim is a no-op");
        assert_eq!(f.mapped_pages(), 32);
        assert!((f.utilization() - 0.5).abs() < 1e-9);
        f.check_invariants();
    }

    #[test]
    fn trim_reduces_future_gc_work() {
        // Identical write loads, but one FTL trims half the space first:
        // it must relocate fewer pages.
        let load = |trim_first: bool| -> u32 {
            use rand::{rngs::SmallRng, Rng, SeedableRng};
            let mut f = ftl();
            for lpn in 0..64 {
                f.write(lpn).expect("fill");
            }
            if trim_first {
                for lpn in 32..64 {
                    f.trim(lpn).expect("trim");
                }
            }
            let mut rng = SmallRng::seed_from_u64(7);
            let mut total = NandOps::default();
            for _ in 0..512 {
                total.merge(f.write(rng.gen_range(0..32)).expect("update"));
            }
            total.relocated
        };
        assert!(load(true) < load(false));
    }

    #[test]
    fn discard_all_resets_to_factory() {
        let mut f = ftl();
        for lpn in 0..64 {
            f.write(lpn).expect("write");
        }
        f.discard_all();
        assert_eq!(f.mapped_pages(), 0);
        assert_eq!(f.free_blocks(), 16);
        assert!(!f.is_mapped(0));
        f.check_invariants();
        // Usable again immediately.
        f.write(3).expect("write after discard");
        f.check_invariants();
    }

    #[test]
    fn out_of_range_is_reported() {
        let mut f = ftl();
        assert!(matches!(f.write(64), Err(SsdError::LpnOutOfRange { .. })));
        assert!(matches!(f.trim(1000), Err(SsdError::LpnOutOfRange { .. })));
    }

    #[test]
    fn wear_accumulates() {
        let mut f = ftl();
        for round in 0..8 {
            let _ = round;
            for lpn in 0..64 {
                f.write(lpn).expect("write");
            }
        }
        let wear = f.erase_counts();
        assert!(wear.iter().any(|&c| c > 0));
    }
}
