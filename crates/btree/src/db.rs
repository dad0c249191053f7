//! The B+Tree database: public API, tree algorithms, checkpointing.

use ptsbench_maint::{
    drain_forced, Admission, Drive, JobKind, MaintScheduler, MaintStats, MAX_SPACE_AMP,
};
use ptsbench_vfs::{Cause, LogRecord, RecordLog, TraceHandle, Vfs};

use crate::node::{Entries, Node};
use crate::options::BTreeOptions;
use crate::pager::{Pager, PagerStats};
use crate::{BTreeError, PageNo, Result};

/// Cumulative engine statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BTreeStats {
    /// Put operations accepted.
    pub puts: u64,
    /// Get operations served.
    pub gets: u64,
    /// Delete operations accepted.
    pub deletes: u64,
    /// Application payload bytes written (keys + values of puts/deletes).
    pub app_bytes_written: u64,
    /// Leaf/internal page splits.
    pub splits: u64,
    /// Page merges.
    pub merges: u64,
    /// Checkpoints completed.
    pub checkpoints: u64,
}

const META_MAGIC: &[u8; 6] = b"BTREE1";

/// The journal is the one file `journal-0`: a record log recycled in
/// place at every checkpoint (WiredTiger preallocates and reuses
/// journal files), so its LBAs stay stable.
const JOURNAL_PREFIX: &str = "journal";

/// Merge threshold: a page smaller than `page_bytes / MERGE_DIVISOR`
/// tries to merge with a sibling.
const MERGE_DIVISOR: usize = 4;

/// A slice-resumable fuzzy checkpoint — the only checkpoint there is:
/// drained in place by [`BTreeDb::checkpoint`], or pumped in paced
/// slices. There is no materialized work list: each slice asks the
/// pager for its dirty pages, so foreground writes that re-dirty pages
/// mid-job simply extend the cleaning phase instead of invalidating a
/// snapshot.
struct CkptJob {
    /// `(root, entries)` captured when the metadata page was written
    /// through the background path; `None` until the cache is clean.
    /// The install (journal truncation) only proceeds while the
    /// captured pair still matches the live tree — a foreground write
    /// in between restarts the cleaning phase.
    meta: Option<(PageNo, u64)>,
}

/// Where a root-to-leaf walk for one key ended.
struct Descent {
    /// The leaf covering the key.
    leaf: PageNo,
    /// `(page, child index taken)` for each internal page above it.
    path: Vec<(PageNo, usize)>,
    /// The key's position among the leaf's entries: `Ok` if present,
    /// `Err` with its insertion point if not.
    slot: std::result::Result<usize, usize>,
}

/// An on-disk B+Tree key-value store on a simulated flash stack.
pub struct BTreeDb {
    pager: Pager,
    journal: Option<RecordLog>,
    opts: BTreeOptions,
    root: PageNo,
    entries: u64,
    stats: BTreeStats,
    bytes_since_checkpoint: u64,
    /// Pacing source for checkpoint jobs, present iff
    /// `opts.tuning.maint.enabled`; without one the triggering put drains the
    /// job in place.
    sched: Option<MaintScheduler>,
    /// The checkpoint in flight.
    ckpt: Option<CkptJob>,
    vfs: Vfs,
    /// Tracing context (inert unless `opts.tuning.trace` and the device has a
    /// tracer attached).
    trace: TraceHandle,
}

impl std::fmt::Debug for BTreeDb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BTreeDb")
            .field("root", &self.root)
            .field("entries", &self.entries)
            .field("pages", &self.pager.page_count())
            .finish()
    }
}

impl BTreeDb {
    /// Opens a fresh database on the filesystem.
    pub fn open(vfs: Vfs, opts: BTreeOptions) -> Result<Self> {
        opts.validate();
        let trace = TraceHandle::from_vfs(&vfs, opts.tuning.trace);
        let mut pager = Pager::create(
            vfs.clone(),
            "btree.db",
            opts.page_bytes,
            opts.pager_budget(),
        )?;
        pager.attach_trace(trace.clone());
        let journal = Some(RecordLog::create(vfs.clone(), JOURNAL_PREFIX, true)?);
        let sched = MaintScheduler::for_config(opts.tuning.maint, vfs.clock().now());
        Ok(Self {
            pager,
            journal,
            opts,
            root: 0,
            entries: 0,
            stats: BTreeStats::default(),
            bytes_since_checkpoint: 0,
            sched,
            ckpt: None,
            vfs,
            trace,
        })
    }

    /// Recovers a database from an existing filesystem: reads the
    /// checkpointed metadata page, rebuilds the page free list from tree
    /// reachability, and replays the journal on top (the WiredTiger
    /// recovery sequence: last checkpoint + log).
    pub fn recover(vfs: Vfs, opts: BTreeOptions) -> Result<Self> {
        opts.validate();
        let trace = TraceHandle::from_vfs(&vfs, opts.tuning.trace);
        let mut pager = Pager::open_existing(
            vfs.clone(),
            "btree.db",
            opts.page_bytes,
            opts.pager_budget(),
        )?;
        pager.attach_trace(trace.clone());
        let meta = pager.read_meta()?;
        if &meta[..META_MAGIC.len()] != META_MAGIC {
            return Err(BTreeError::Corruption(
                "no checkpointed metadata (magic missing)".into(),
            ));
        }
        let root = u64::from_le_bytes(meta[6..14].try_into().expect("8 bytes"));
        let entries = u64::from_le_bytes(meta[14..22].try_into().expect("8 bytes"));
        if root >= pager.page_count() {
            return Err(BTreeError::Corruption(format!(
                "meta root {root} beyond file end ({} pages)",
                pager.page_count()
            )));
        }

        let sched = MaintScheduler::for_config(opts.tuning.maint, vfs.clock().now());
        let mut db = Self {
            pager,
            journal: None, // attached after replay so replay is not re-logged
            opts,
            root,
            entries,
            stats: BTreeStats::default(),
            bytes_since_checkpoint: 0,
            sched,
            ckpt: None,
            vfs: vfs.clone(),
            trace,
        };

        // Rebuild the free list: pages not reachable from the root are
        // garbage from un-checkpointed allocations or old frees.
        let mut reachable = vec![false; db.pager.page_count() as usize];
        reachable[0] = true; // meta page
        if root != 0 {
            db.mark_reachable(root, &mut reachable)?;
        }
        let free: Vec<PageNo> = (1..db.pager.page_count())
            .filter(|&p| !reachable[p as usize])
            .collect();
        db.pager.set_free_list(free);

        // Replay the journal (records since the last checkpoint).
        for record in RecordLog::replay(&vfs, JOURNAL_PREFIX)? {
            match record {
                LogRecord::Put(k, v) => db.insert_entry(&k, &v)?,
                LogRecord::Delete(k) => {
                    db.remove_entry(&k)?;
                }
            }
        }
        db.journal = Some(RecordLog::open_or_create(vfs, JOURNAL_PREFIX, true)?);
        // Make the recovered state durable and truncate the journal.
        db.checkpoint()?;
        Ok(db)
    }

    fn mark_reachable(&mut self, page: PageNo, seen: &mut [bool]) -> Result<()> {
        if seen[page as usize] {
            return Err(BTreeError::Corruption(format!(
                "page {page} reachable twice"
            )));
        }
        seen[page as usize] = true;
        let Node::Internal { children, .. } = self.pager.read(page)? else {
            return Ok(());
        };
        for child in children.clone() {
            if child >= seen.len() as u64 {
                return Err(BTreeError::Corruption(format!("child {child} beyond file")));
            }
            self.mark_reachable(child, seen)?;
        }
        Ok(())
    }

    /// The engine options.
    pub fn options(&self) -> &BTreeOptions {
        &self.opts
    }

    /// The underlying filesystem (for disk-utilization observation).
    pub fn vfs(&self) -> &Vfs {
        &self.vfs
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> BTreeStats {
        self.stats
    }

    /// Page-cache statistics.
    pub fn pager_stats(&self) -> PagerStats {
        self.pager.stats()
    }

    /// The page-cache traffic in shared-[`ptsbench_cache::CacheStats`] terms, symmetric
    /// with the other engines' `cache_stats` accessors. The B+Tree
    /// always runs its pager cache, so this is never `None`-like: the
    /// counters are live from the first read.
    pub fn cache_stats(&self) -> ptsbench_cache::CacheStats {
        self.pager.stats().cache
    }

    /// Number of live entries.
    pub fn len(&self) -> u64 {
        self.entries
    }

    /// Whether the tree holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Inserts or overwrites a key. Keys are at most `u16::MAX` bytes
    /// (a page records a key's length in two bytes).
    pub fn put(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        if key.len() > usize::from(u16::MAX) {
            return Err(BTreeError::KeyTooLong {
                key_bytes: key.len(),
            });
        }
        let pair_bytes = 6 + key.len() + value.len();
        if pair_bytes + 5 > self.opts.page_bytes {
            return Err(BTreeError::PairTooLarge {
                pair_bytes,
                page_bytes: self.opts.page_bytes,
            });
        }
        self.stats.puts += 1;
        self.stats.app_bytes_written += (key.len() + value.len()) as u64;
        self.bytes_since_checkpoint += (key.len() + value.len()) as u64;
        if let Some(j) = self.journal.as_mut() {
            let _cause = self.trace.cause(Cause::Wal);
            let span = self.trace.begin("btree.journal", Cause::Wal);
            j.log_put(key, value)?;
            if self.opts.wal_fsync {
                j.sync(true)?;
            }
            self.trace.end(span);
        }
        self.insert_entry(key, value)?;
        self.maybe_checkpoint()
    }

    /// Deletes a key; returns whether it existed.
    pub fn delete(&mut self, key: &[u8]) -> Result<bool> {
        self.stats.deletes += 1;
        self.stats.app_bytes_written += key.len() as u64;
        self.bytes_since_checkpoint += key.len() as u64;
        if let Some(j) = self.journal.as_mut() {
            let _cause = self.trace.cause(Cause::Wal);
            let span = self.trace.begin("btree.journal", Cause::Wal);
            j.log_delete(key)?;
            if self.opts.wal_fsync {
                j.sync(true)?;
            }
            self.trace.end(span);
        }
        let existed = self.remove_entry(key)?;
        self.maybe_checkpoint()?;
        Ok(existed)
    }

    /// Point lookup.
    pub fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.stats.gets += 1;
        if self.root == 0 {
            return Ok(None);
        }
        let walk = self
            .trace
            .begin("btree.page_walk", self.trace.current_cause());
        let result = self.lookup(key);
        self.trace.end(walk);
        result
    }

    fn lookup(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let mut page = self.root;
        loop {
            let node = self.pager.read(page)?;
            match node {
                Node::Internal { children, .. } => {
                    let child = children[node.route(key)];
                    // The model charges a lookup two cache hits per
                    // internal page (the seed's walk looked each one up
                    // a second time to route); the counters keep that.
                    self.pager.touch(page);
                    page = child;
                }
                Node::Leaf { entries } => {
                    return Ok(entries.search(key).ok().map(|i| entries.get(i).1.to_vec()));
                }
            }
        }
    }

    /// Walks from the root to the leaf covering `key`. The leaf is the
    /// last page read, so it is resident when this returns.
    fn descend(&mut self, key: &[u8]) -> Result<Descent> {
        let mut path = Vec::new();
        let mut page = self.root;
        loop {
            let node = self.pager.read(page)?;
            match node {
                Node::Internal { children, .. } => {
                    let idx = node.route(key);
                    path.push((page, idx));
                    page = children[idx];
                }
                Node::Leaf { entries } => {
                    return Ok(Descent {
                        leaf: page,
                        path,
                        slot: entries.search(key),
                    });
                }
            }
        }
    }

    /// Streaming range scan: entries with `start <= key < end` (`end`
    /// `None` = unbounded), up to `limit` results, loading one page at a
    /// time. Memory stays proportional to tree height plus one leaf.
    pub fn scan_iter(&mut self, start: &[u8], end: Option<&[u8]>, limit: usize) -> BTreeScan<'_> {
        BTreeScan {
            pager: &mut self.pager,
            descend_from: if self.root != 0 && limit > 0 {
                Some(self.root)
            } else {
                None
            },
            first_descent: true,
            stack: Vec::new(),
            leaf: Entries::default(),
            next: 0,
            start: start.to_vec(),
            end: end.map(|e| e.to_vec()),
            remaining: limit,
        }
    }

    /// Range scan materialized into a vector (see [`BTreeDb::scan_iter`]).
    pub fn scan(
        &mut self,
        start: &[u8],
        end: Option<&[u8]>,
        limit: usize,
    ) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        self.scan_iter(start, end, limit).collect()
    }

    /// Forces buffered journal records onto the device and waits for
    /// durability. Data synced here survives a crash even without a
    /// checkpoint.
    pub fn sync_journal(&mut self) -> Result<()> {
        if let Some(j) = self.journal.as_mut() {
            j.sync(true)?;
        }
        Ok(())
    }

    /// Forces a checkpoint: all dirty pages and metadata reach the
    /// device, the journal truncates. Whatever the mode, this drains a
    /// fresh job in place under foreground rules; a paced job in flight
    /// is superseded (everything it would install is durable after
    /// this).
    pub fn checkpoint(&mut self) -> Result<()> {
        let _cause = self.trace.cause(Cause::Checkpoint);
        let span = self.trace.begin("btree.checkpoint", Cause::Checkpoint);
        let result = self.checkpoint_in_place();
        self.trace.end(span);
        result
    }

    fn checkpoint_in_place(&mut self) -> Result<()> {
        if let Some(j) = self.journal.as_mut() {
            j.sync(true)?;
        }
        self.ckpt = Some(CkptJob { meta: None });
        while self.ckpt.is_some() {
            self.ckpt_slice(Drive::Inline, true)?;
        }
        Ok(())
    }

    fn maybe_checkpoint(&mut self) -> Result<()> {
        if self.bytes_since_checkpoint >= self.opts.checkpoint_app_bytes {
            match self.sched.as_mut() {
                // Deferred: the harness pumps the ticket forward in
                // bounded background slices between foreground ops.
                Some(sched) => sched.enqueue(JobKind::Checkpoint),
                None => self.checkpoint()?,
            }
        }
        Ok(())
    }

    // ---- Maintenance: one checkpoint job, two drives ------------------
    //
    // The job is a fuzzy checkpoint in three phases: write back dirty
    // pages a byte-bounded batch at a time, write the metadata page once
    // the cache is clean, then — once the tree file is durable —
    // truncate the journal (the install). Foreground writes that
    // re-dirty pages mid-job extend the cleaning phase and invalidate a
    // written-but-not-installed metadata page, so the install is always
    // consistent with the on-disk tree.
    //
    // Maintenance off (`Drive::Inline`): `maybe_checkpoint` drains the
    // job inside the triggering put — unbounded batches, blocking
    // writes, an unconditional fsync. Maintenance on (`Drive::Paced`):
    // it enqueues a `Checkpoint` ticket instead and the harness pumps
    // `run_maintenance_slice` between foreground ops — detached writes
    // paced by the scheduler's token bucket, the install gated on the
    // device's durability horizon.

    /// Whether background-maintenance mode is on.
    pub fn maint_enabled(&self) -> bool {
        self.sched.is_some()
    }

    /// Background-maintenance counters; `None` when maintenance is off.
    pub fn maint_stats(&self) -> Option<MaintStats> {
        self.sched.as_ref().map(|s| s.stats)
    }

    /// Runs at most one bounded checkpoint slice, if work is pending
    /// and the rate budget and device-backlog gate allow it. Returns
    /// whether any forward progress was made (callers may pump in a
    /// loop until `false`).
    pub fn run_maintenance_slice(&mut self) -> Result<bool> {
        self.maintenance_slice(false)
    }

    /// Drains every outstanding checkpoint job to completion with
    /// forced slices. Callers that end a run must drain first so no
    /// shard ends with a half-written checkpoint.
    pub fn drain_maintenance(&mut self) -> Result<()> {
        let pending =
            |db: &Self| (db.sched.as_ref()).is_some_and(|s| db.ckpt.is_some() || s.pending() > 0);
        drain_forced(self, pending, |db| db.maintenance_slice(true))
    }

    fn maintenance_slice(&mut self, forced: bool) -> Result<bool> {
        let Some(sched) = self.sched.as_mut() else {
            return Ok(false);
        };
        // The urgency condition that bypasses pacing: the journal
        // backlog (bytes logged since the last completed checkpoint) has
        // outgrown the space-amplification ceiling over the checkpoint
        // threshold. Without it a write load faster than the maintenance
        // rate budget grows the journal — pure space overhead — without
        // bound.
        let forced =
            forced || self.bytes_since_checkpoint > MAX_SPACE_AMP * self.opts.checkpoint_app_bytes;
        let now = self.vfs.clock().now();
        let backlog = self.vfs.device_backlog_ns();
        match sched.admit(now, backlog, forced, self.ckpt.is_some()) {
            Admission::Gated => return Ok(false),
            Admission::Continue => {}
            Admission::Start(kind) => {
                debug_assert_eq!(kind, JobKind::Checkpoint, "btree only checkpoints");
                self.ckpt = Some(CkptJob { meta: None });
            }
        }
        let _cause = self.trace.cause(Cause::Checkpoint);
        let span = self
            .trace
            .begin(JobKind::Checkpoint.span_label(), Cause::Checkpoint);
        let result = self.ckpt_slice(Drive::Paced, forced);
        self.trace.end(span);
        if let (Ok(true), Some(sched)) = (&result, self.sched.as_mut()) {
            sched.stats.slices += 1;
        }
        result
    }

    /// One checkpoint increment: a batch of page write-backs, the
    /// metadata write, or the install — whichever the job needs next.
    /// `Ok(false)` means a paced job is blocked waiting for durability
    /// (nothing runnable until the clock advances).
    fn ckpt_slice(&mut self, drive: Drive, forced: bool) -> Result<bool> {
        let Some(job) = self.ckpt.as_mut() else {
            return Ok(false);
        };
        let background = drive == Drive::Paced;
        // Phase 1: clean the cache, one byte-bounded batch per slice.
        if self.pager.dirty_pages() > 0 {
            let batch = drive.slice_bytes(&self.sched);
            let written = self.pager.flush_dirty(batch, background)?;
            drive.charge(&mut self.sched, self.vfs.clock().now(), written, false);
            // Any previously written metadata predates these pages.
            job.meta = None;
            return Ok(true);
        }
        // Phase 2: write the metadata page once per clean point.
        if job.meta != Some((self.root, self.entries)) {
            let mut meta = Vec::with_capacity(32);
            meta.extend_from_slice(META_MAGIC);
            meta.extend_from_slice(&self.root.to_le_bytes());
            meta.extend_from_slice(&self.entries.to_le_bytes());
            self.pager.write_meta(&meta, background)?;
            let page_bytes = self.pager.page_bytes() as u64;
            drive.charge(&mut self.sched, self.vfs.clock().now(), page_bytes, false);
            job.meta = Some((self.root, self.entries));
            return Ok(true);
        }
        // Phase 3: install — truncate the journal once the tree file
        // (pages + metadata) is durable. Inline fsyncs unconditionally;
        // paced waits for the destage — a blocked wait returns `false`
        // so the pump stops spinning — unless `forced` (drains).
        if !background || self.pager.durable_at()? > self.vfs.clock().now() {
            if background && !forced {
                return Ok(false);
            }
            self.pager.fsync()?;
        }
        if let Some(j) = self.journal.as_mut() {
            j.rotate()?;
        }
        self.pager.note_checkpoint();
        self.stats.checkpoints += 1;
        self.bytes_since_checkpoint = 0;
        drive.installed(&mut self.sched);
        self.ckpt = None;
        Ok(true)
    }

    // ----- insertion -----

    fn insert_entry(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        if self.root == 0 {
            let root = self.pager.allocate(Node::Leaf {
                entries: [(key, value)].into_iter().collect(),
            })?;
            self.root = root;
            self.entries = 1;
            return Ok(());
        }
        let Descent {
            leaf: page,
            mut path,
            slot,
        } = self.descend(key)?;
        let page_bytes = self.opts.page_bytes;
        let split = self.pager.update(page, |node| {
            let Node::Leaf { entries } = node else {
                unreachable!("descent ends at a leaf")
            };
            let appended_last = slot == Err(entries.len());
            match slot {
                Ok(i) => node.set_value(i, value),
                Err(i) => node.insert_pair(i, key, value),
            }
            // Inserts at the tail of a leaf (sequential loads) use the
            // append-optimized split to keep leaves ~full.
            (node.encoded_len() > page_bytes).then(|| {
                if appended_last {
                    node.split_append()
                } else {
                    node.split()
                }
            })
        })?;
        self.entries += u64::from(slot.is_err());
        let Some((mut sep, right)) = split else {
            return Ok(());
        };

        // Propagate the split up the path.
        self.stats.splits += 1;
        let mut left_page = page;
        let mut right_page = self.pager.allocate(right)?;
        while let Some((ppage, idx)) = path.pop() {
            self.pager.read(ppage)?;
            let split = self.pager.update(ppage, |pnode| {
                pnode.insert_child(idx, &sep, right_page);
                (pnode.encoded_len() > page_bytes).then(|| pnode.split())
            })?;
            let Some((psep, pright)) = split else {
                return Ok(());
            };
            self.stats.splits += 1;
            sep = psep;
            left_page = ppage;
            right_page = self.pager.allocate(pright)?;
        }
        let new_root = Node::Internal {
            children: vec![left_page, right_page],
            separators: [sep].into_iter().collect(),
        };
        self.root = self.pager.allocate(new_root)?;
        Ok(())
    }

    // ----- deletion -----

    fn remove_entry(&mut self, key: &[u8]) -> Result<bool> {
        if self.root == 0 {
            return Ok(false);
        }
        let Descent {
            leaf: page,
            mut path,
            slot,
        } = self.descend(key)?;
        let Ok(i) = slot else {
            return Ok(false);
        };
        let mut cur_len = self.pager.update(page, |node| {
            node.remove_pair(i);
            node.encoded_len()
        })?;
        self.entries -= 1;

        // Merge undersized pages upward.
        while cur_len < self.opts.page_bytes / MERGE_DIVISOR {
            let Some((ppage, idx)) = path.pop() else {
                // The undersized page is the root.
                self.collapse_root()?;
                break;
            };
            let Node::Internal {
                children,
                separators,
            } = self.pager.read(ppage)?
            else {
                unreachable!("path holds internal nodes")
            };
            // Pick a sibling: prefer the right one.
            let left_idx = if idx + 1 < children.len() {
                idx
            } else {
                idx - 1
            };
            let (left_page, right_page) = (children[left_idx], children[left_idx + 1]);
            let siblings = children.len();
            let sep = separators[left_idx].to_vec();
            let left_len = self.pager.read(left_page)?.encoded_len();
            let right = self.pager.read(right_page)?;
            if right.merged_len(left_len, &sep) > self.opts.page_bytes {
                break; // siblings too full to merge; accept the small page
            }
            // The right page's contents move into the left page; its own
            // slot stays counted until it is freed below.
            let right = right.clone();
            self.stats.merges += 1;
            self.pager
                .update(left_page, |left| left.absorb(&sep, right))?;
            self.pager.free(right_page);
            if siblings == 2 && ppage == self.root {
                // Root collapsed to a single child.
                self.pager.free(ppage);
                self.root = left_page;
                break;
            }
            cur_len = self.pager.update(ppage, |parent| {
                parent.remove_child(left_idx);
                parent.encoded_len()
            })?;
        }
        Ok(true)
    }

    fn collapse_root(&mut self) -> Result<()> {
        if let Node::Internal { children, .. } = self.pager.read(self.root)? {
            if children.len() == 1 {
                let only = children[0];
                self.pager.free(self.root);
                self.root = only;
            }
        }
        Ok(())
    }

    // ----- validation (tests and debugging) -----

    /// Walks the whole tree checking ordering and balance invariants;
    /// returns `(height, live entries)`. Panics on violation.
    pub fn verify(&mut self) -> (usize, u64) {
        if self.root == 0 {
            return (0, 0);
        }
        let (depth, count) = self.verify_node(self.root, None, None);
        assert_eq!(count, self.entries, "entry count drifted");
        (depth, count)
    }

    fn verify_node(
        &mut self,
        page: PageNo,
        low: Option<Vec<u8>>,
        high: Option<Vec<u8>>,
    ) -> (usize, u64) {
        let (children, separators) = match self.pager.read(page).expect("readable page") {
            Node::Leaf { entries } => {
                for i in 0..entries.len() {
                    let k = entries.key(i);
                    if i > 0 {
                        assert!(entries.key(i - 1) < k, "leaf keys out of order");
                    }
                    if let Some(l) = &low {
                        assert!(k >= &l[..], "leaf key below subtree bound");
                    }
                    if let Some(h) = &high {
                        assert!(k < &h[..], "leaf key above subtree bound");
                    }
                }
                return (1, entries.len() as u64);
            }
            // The recursion reads other pages: take what it needs.
            Node::Internal {
                children,
                separators,
            } => (children.clone(), separators.clone()),
        };
        assert_eq!(children.len(), separators.len() + 1);
        for i in 1..separators.len() {
            assert!(separators[i - 1] < separators[i], "separators out of order");
        }
        let mut depth = None;
        let mut total = 0;
        for (i, &child) in children.iter().enumerate() {
            let clow = if i == 0 {
                low.clone()
            } else {
                Some(separators[i - 1].to_vec())
            };
            let chigh = if i == separators.len() {
                high.clone()
            } else {
                Some(separators[i].to_vec())
            };
            let (d, c) = self.verify_node(child, clow, chigh);
            match depth {
                None => depth = Some(d),
                Some(pd) => assert_eq!(pd, d, "unbalanced tree"),
            }
            total += c;
        }
        (depth.expect("internal node has children") + 1, total)
    }
}

/// Streaming cursor returned by [`BTreeDb::scan_iter`]: an in-order
/// walk holding only the internal-node path (child page numbers) and
/// the current leaf, reading pages through the cache as it advances.
pub struct BTreeScan<'a> {
    pager: &'a mut Pager,
    /// Page to descend into before yielding anything (`None` once the
    /// walk has started, or for an empty/zero-limit scan).
    descend_from: Option<PageNo>,
    /// Whether the next descent routes by `start` (first leaf only).
    first_descent: bool,
    /// `(children, next child index)` for each internal node on the path.
    stack: Vec<(Vec<PageNo>, usize)>,
    /// The entries of the current leaf the scan can still yield.
    leaf: Entries,
    /// The next of them to yield.
    next: usize,
    start: Vec<u8>,
    end: Option<Vec<u8>>,
    remaining: usize,
}

impl BTreeScan<'_> {
    /// Walks from `page` down to a leaf, routing by `start` on the
    /// first descent and leftmost thereafter, and copies out the leaf's
    /// entries the scan can still yield (one byte range). A leaf that
    /// holds the end of the range caps `remaining`, so the walk stops
    /// with it.
    fn descend(&mut self, mut page: PageNo) -> Result<()> {
        // The index of the first entry at or past `key`.
        let rank = |entries: &Entries, key: &[u8]| match entries.search(key) {
            Ok(i) | Err(i) => i,
        };
        loop {
            let node = self.pager.read(page)?;
            match node {
                Node::Leaf { entries } => {
                    let from = if self.first_descent {
                        rank(entries, &self.start)
                    } else {
                        0
                    };
                    if let Some(end) = &self.end {
                        let in_range = rank(entries, end).max(from) - from;
                        if from + in_range < entries.len() {
                            self.remaining = self.remaining.min(in_range);
                        }
                    }
                    self.first_descent = false;
                    let to = entries.len().min(from + self.remaining);
                    self.leaf = entries.range(from, to);
                    self.next = 0;
                    return Ok(());
                }
                Node::Internal { children, .. } => {
                    let idx = if self.first_descent {
                        node.route(&self.start)
                    } else {
                        0
                    };
                    page = children[idx];
                    self.stack.push((children.clone(), idx + 1));
                }
            }
        }
    }

    /// Advances to the next leaf via the saved path; `Ok(false)` when
    /// the walk is exhausted.
    fn next_leaf(&mut self) -> Result<bool> {
        while let Some((children, idx)) = self.stack.last_mut() {
            if *idx < children.len() {
                let page = children[*idx];
                *idx += 1;
                self.descend(page)?;
                return Ok(true);
            }
            self.stack.pop();
        }
        Ok(false)
    }
}

impl Iterator for BTreeScan<'_> {
    type Item = Result<(Vec<u8>, Vec<u8>)>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if self.remaining == 0 {
                return None;
            }
            if self.next < self.leaf.len() {
                let (key, value) = self.leaf.get(self.next);
                self.next += 1;
                self.remaining -= 1;
                return Some(Ok((key.to_vec(), value.to_vec())));
            }
            let advanced = match self.descend_from.take() {
                Some(root) => self.descend(root).map(|()| true),
                None => self.next_leaf(),
            };
            match advanced {
                Ok(true) => {}
                Ok(false) => {
                    self.remaining = 0;
                    return None;
                }
                Err(e) => {
                    self.remaining = 0;
                    return Some(Err(e));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptsbench_ssd::{DeviceConfig, DeviceProfile, Ssd};
    use ptsbench_vfs::{EngineTuning, VfsOptions};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn db_on(bytes: u64) -> BTreeDb {
        let ssd = Ssd::new(DeviceConfig::from_profile(DeviceProfile::ssd1(), bytes));
        let vfs = Vfs::whole_device(ssd.into_shared(), VfsOptions::default());
        BTreeDb::open(vfs, BTreeOptions::small()).expect("open")
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
        assert_eq!(db.get(b"zz").expect("get"), None);
        db.put(b"a", b"updated").expect("put");
        assert_eq!(db.get(b"a").expect("get"), Some(b"updated".to_vec()));
        assert_eq!(db.len(), 2);
    }

    #[test]
    fn splits_keep_tree_valid() {
        let mut db = db_on(32 << 20);
        for i in 0..2000u32 {
            db.put(&key(i), &[i as u8; 64]).expect("put");
        }
        let (height, count) = db.verify();
        assert!(
            height >= 2,
            "2000 entries in 4K pages must split, height {height}"
        );
        assert_eq!(count, 2000);
        assert!(db.stats().splits > 0);
        for i in (0..2000).step_by(37) {
            assert_eq!(
                db.get(&key(i)).expect("get"),
                Some(vec![i as u8; 64]),
                "key {i}"
            );
        }
    }

    #[test]
    fn random_order_inserts() {
        let mut db = db_on(32 << 20);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut keys: Vec<u32> = (0..1500).collect();
        for i in (1..keys.len()).rev() {
            let j = rng.gen_range(0..=i);
            keys.swap(i, j);
        }
        for &i in &keys {
            db.put(&key(i), format!("v{i}").as_bytes()).expect("put");
        }
        db.verify();
        for i in (0..1500).step_by(13) {
            assert_eq!(
                db.get(&key(i)).expect("get"),
                Some(format!("v{i}").into_bytes())
            );
        }
    }

    #[test]
    fn deletes_and_merges() {
        let mut db = db_on(32 << 20);
        for i in 0..2000u32 {
            db.put(&key(i), &[1u8; 64]).expect("put");
        }
        for i in 0..1900u32 {
            assert!(db.delete(&key(i)).expect("delete"), "key {i} existed");
        }
        assert!(
            !db.delete(&key(0)).expect("delete"),
            "double delete is false"
        );
        assert_eq!(db.len(), 100);
        assert!(db.stats().merges > 0, "mass deletion must merge pages");
        db.verify();
        for i in 1900..2000 {
            assert!(db.get(&key(i)).expect("get").is_some());
        }
        assert!(db.get(&key(500)).expect("get").is_none());
    }

    #[test]
    fn delete_to_empty_and_reinsert() {
        let mut db = db_on(32 << 20);
        for i in 0..500u32 {
            db.put(&key(i), b"v").expect("put");
        }
        for i in 0..500u32 {
            db.delete(&key(i)).expect("delete");
        }
        assert_eq!(db.len(), 0);
        db.verify();
        db.put(b"again", b"works").expect("put");
        assert_eq!(db.get(b"again").expect("get"), Some(b"works".to_vec()));
    }

    #[test]
    fn model_check_against_btreemap() {
        use std::collections::BTreeMap;
        let mut db = db_on(64 << 20);
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        let mut rng = SmallRng::seed_from_u64(77);
        for step in 0..5000 {
            let i: u32 = rng.gen_range(0..400);
            let k = key(i);
            match rng.gen_range(0..10) {
                0..=5 => {
                    let v = format!("v{step}").into_bytes();
                    db.put(&k, &v).expect("put");
                    model.insert(k, v);
                }
                6..=7 => {
                    let got = db.delete(&k).expect("delete");
                    let expect = model.remove(&k).is_some();
                    assert_eq!(got, expect, "step {step}");
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
        db.verify();
        for i in 0..400u32 {
            let k = key(i);
            assert_eq!(
                db.get(&k).expect("get"),
                model.get(&k).cloned(),
                "final {i}"
            );
        }
        assert_eq!(db.len(), model.len() as u64);
    }

    #[test]
    fn scan_ranges() {
        let mut db = db_on(32 << 20);
        for i in 0..300u32 {
            db.put(&key(i), format!("v{i}").as_bytes()).expect("put");
        }
        let items = db.scan(&key(10), Some(&key(20)), 100).expect("scan");
        assert_eq!(items.len(), 10);
        assert_eq!(items[0].0, key(10));
        assert_eq!(items[9].0, key(19));
        for w in items.windows(2) {
            assert!(w[0].0 < w[1].0);
        }
        // Limit.
        assert_eq!(db.scan(&key(0), None, 25).expect("scan").len(), 25);
        // Empty range.
        assert!(db.scan(&key(500), None, 10).expect("scan").is_empty());
    }

    #[test]
    fn lookups_that_change_nothing_leave_the_cache_as_it_was() {
        // The tree borrows pages from the cache; a delete of an absent
        // key, a get miss and a scan dropped early must hand every slot
        // back whole and clean.
        let mut db = db_on(32 << 20);
        for i in (0..600u32).step_by(2) {
            db.put(&key(i), format!("v{i}").as_bytes()).expect("put");
        }
        db.checkpoint().expect("ckpt");
        assert_eq!(db.pager.dirty_pages(), 0);
        let writebacks = db.pager_stats().writebacks;

        assert!(!db.delete(&key(301)).expect("delete"), "absent key");
        assert_eq!(db.get(&key(303)).expect("get"), None);
        let first: Vec<_> = db.scan_iter(&key(100), None, 500).take(3).collect();
        assert_eq!(first.len(), 3);
        assert!(db
            .scan_iter(&key(100), Some(&key(104)), 500)
            .eq([100, 102].map(|i| Ok((key(i), format!("v{i}").into_bytes())))));

        assert_eq!(db.pager.dirty_pages(), 0, "no slot was dirtied");
        assert_eq!(db.pager_stats().writebacks, writebacks);
        assert_eq!(db.len(), 300);
        let (_, live) = db.verify();
        assert_eq!(live, 300);
        for i in (0..600u32).step_by(2) {
            assert_eq!(
                db.get(&key(i)).expect("get"),
                Some(format!("v{i}").into_bytes()),
                "key {i}"
            );
        }
    }

    #[test]
    fn checkpoints_happen_and_flush_dirty() {
        let mut db = db_on(32 << 20);
        for i in 0..3000u32 {
            db.put(&key(i), &[0u8; 128]).expect("put");
        }
        assert!(
            db.stats().checkpoints > 0,
            "byte threshold must trigger checkpoints"
        );
    }

    #[test]
    fn background_checkpoint_cleans_cache_and_truncates_journal() {
        use ptsbench_maint::MaintConfig;
        let ssd = Ssd::new(DeviceConfig::from_profile(DeviceProfile::ssd1(), 32 << 20));
        let vfs = Vfs::whole_device(ssd.into_shared(), VfsOptions::default());
        let opts = BTreeOptions {
            tuning: EngineTuning::for_device(0).with_maint(MaintConfig::enabled()),
            ..BTreeOptions::small()
        };
        let mut db = BTreeDb::open(vfs.clone(), opts).expect("open");
        for i in 0..3000u32 {
            db.put(&key(i), &[7u8; 128]).expect("put");
            while db.run_maintenance_slice().expect("slice") {}
        }
        db.drain_maintenance().expect("drain");
        let stats = db.maint_stats().expect("maintenance stats");
        assert!(stats.jobs > 0, "byte threshold must schedule checkpoints");
        assert_eq!(stats.jobs, stats.installs, "exactly-once installs");
        assert!(stats.slices >= stats.jobs, "jobs run in bounded slices");
        assert!(stats.bytes_written > 0, "write-backs go through the budget");
        assert_eq!(
            db.stats().checkpoints,
            stats.jobs,
            "every background install is a checkpoint"
        );
        db.verify();
        for i in (0..3000).step_by(97) {
            assert_eq!(db.get(&key(i)).expect("get"), Some(vec![7u8; 128]));
        }

        // The drained state recovers: the last install's metadata plus
        // the journal tail reproduce the tree.
        drop(db);
        let opts = BTreeOptions {
            tuning: EngineTuning::for_device(0).with_maint(MaintConfig::enabled()),
            ..BTreeOptions::small()
        };
        let mut db = BTreeDb::recover(vfs, opts).expect("recover");
        assert_eq!(db.len(), 3000);
        for i in (0..3000).step_by(131) {
            assert_eq!(db.get(&key(i)).expect("get"), Some(vec![7u8; 128]));
        }
    }

    #[test]
    fn oversized_pair_rejected() {
        let mut db = db_on(32 << 20);
        let err = db.put(b"k", &vec![0u8; 8192]).expect_err("too large");
        assert!(matches!(err, BTreeError::PairTooLarge { .. }));
    }

    #[test]
    fn stable_lba_footprint_under_updates() {
        // The Fig 4 signature: sustained updates of existing keys must
        // not grow the set of device pages the tree touches.
        let mut db = db_on(64 << 20);
        for i in 0..1000u32 {
            db.put(&key(i), &[0u8; 64]).expect("put");
        }
        db.checkpoint().expect("ckpt");
        let mapped_before = db.vfs().ssd().lock().mapped_pages();
        let mut rng = SmallRng::seed_from_u64(9);
        for _ in 0..5000 {
            let i: u32 = rng.gen_range(0..1000);
            db.put(&key(i), &[1u8; 64]).expect("put");
        }
        db.checkpoint().expect("ckpt");
        let mapped_after = db.vfs().ssd().lock().mapped_pages();
        // Journal rotation adds a little churn; the tree itself is stable.
        assert!(
            mapped_after <= mapped_before + 64,
            "LBA footprint grew: {mapped_before} -> {mapped_after}"
        );
        db.verify();
    }
}
