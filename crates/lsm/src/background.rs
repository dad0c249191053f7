//! Background-maintenance job state: frozen memtables, slice-resumable
//! flush and compaction jobs, and the per-shard scheduler.
//!
//! In maintenance mode ([`ptsbench_maint::MaintConfig::enabled`]) a full
//! memtable is *frozen* instead of flushed inline: writes continue into
//! a fresh memtable (and a fresh WAL file, see
//! [`crate::wal::Wal::rotate_deferred`]) while a [`FlushJob`] streams
//! the frozen entries into an L0 table one bounded slice at a time.
//! Compactions likewise become [`CompactJob`]s that buffer one input
//! table per slice, then merge and write outputs in byte-bounded
//! slices. Both install their version edit only once the background
//! writes have destaged (durability-gated install), so the blocking
//! manifest commit never queues behind a burst of compaction traffic.
//!
//! MVCC safety: a [`CompactJob`] holds its inputs as
//! [`CompactionTask`]'s `Arc<TableHandle>` pins, so concurrent
//! foreground reads — which resolve through the *current* version —
//! keep working against the old tables until the install swaps the
//! version atomically between two foreground ops.

use ptsbench_maint::MaintScheduler;

use crate::compaction::CompactionTask;
use crate::iter::{KMerge, SharedEntry};
use crate::memtable::Memtable;
use crate::sstable::{SstableBuilder, SstableMeta};

/// One buffered entry stream: an input table scanned by the compaction
/// read phase, every entry a pair of ranges of the table's own contents
/// (which the ranges keep alive even after the table is deleted).
pub(crate) type BufferedRun = Vec<SharedEntry>;

/// Owned iterator over one buffered run (concrete so parked jobs stay
/// `Send`).
pub(crate) type RunIter = std::vec::IntoIter<SharedEntry>;

/// A memtable flush in progress, resumable across slices.
pub(crate) struct FlushJob {
    /// Output table under construction (`None` once finished).
    pub builder: Option<SstableBuilder>,
    /// Output table name.
    pub name: String,
    /// Last key streamed from the frozen memtable (resume point).
    pub cursor: Option<Vec<u8>>,
    /// Finished table metadata awaiting the durability-gated install.
    pub meta: Option<SstableMeta>,
    /// Output bytes already charged against the rate budget.
    pub charged: u64,
}

/// A compaction in progress, resumable across slices.
pub(crate) struct CompactJob {
    /// The picked task; its `Arc<TableHandle>`s pin the input tables
    /// (and their readers) for the life of the job.
    pub task: CompactionTask,
    /// Whether output tombstones can be dropped (nothing lives below).
    pub drop_tombstones: bool,
    /// Next input table to buffer (read phase; one table per slice).
    pub read_idx: usize,
    /// Buffered input runs, recency order.
    pub buffered: Vec<BufferedRun>,
    /// Merge over the buffered runs (write phase); built lazily once
    /// every input is buffered.
    pub merge: Option<KMerge<RunIter>>,
    /// Output table under construction.
    pub builder: Option<SstableBuilder>,
    /// Finished output tables awaiting install.
    pub outputs: Vec<SstableMeta>,
    /// Input bytes (for stats, captured at pick time).
    pub input_bytes: u64,
    /// Input table names (for the manifest edit).
    pub input_names: Vec<String>,
    /// Whether the merge ran dry (ready to install).
    pub write_done: bool,
    /// Output bytes already charged against the rate budget.
    pub charged: u64,
}

impl CompactJob {
    /// Wraps a picked task into a fresh job.
    pub fn new(task: CompactionTask, drop_tombstones: bool) -> Self {
        let input_bytes = task.input_bytes();
        let input_names = task.input_names();
        Self {
            task,
            drop_tombstones,
            read_idx: 0,
            buffered: Vec::new(),
            merge: None,
            builder: None,
            outputs: Vec::new(),
            input_bytes,
            input_names,
            write_done: false,
            charged: 0,
        }
    }

    /// Total input tables (source + overlaps).
    pub fn source_count(&self) -> usize {
        self.task.inputs.len() + self.task.overlaps.len()
    }

    /// Output bytes produced so far (finished outputs + live builder).
    pub fn produced_bytes(&self) -> u64 {
        self.outputs.iter().map(|m| m.file_bytes).sum::<u64>()
            + self.builder.as_ref().map_or(0, |b| b.estimated_bytes())
    }
}

/// Everything background-maintenance mode adds to an `LsmDb`.
pub(crate) struct MaintState {
    /// Rate budget, job tickets and counters.
    pub sched: MaintScheduler,
    /// The frozen memtable awaiting flush (readable; writes go to the
    /// live memtable).
    pub imm: Option<Memtable>,
    /// WAL file holding the frozen records; deleted at flush install.
    pub old_wal: Option<String>,
    /// Flush in progress.
    pub flush: Option<FlushJob>,
    /// Compaction in progress.
    pub compact: Option<CompactJob>,
}

impl MaintState {
    /// A fresh state around a scheduler.
    pub fn new(sched: MaintScheduler) -> Self {
        Self {
            sched,
            imm: None,
            old_wal: None,
            flush: None,
            compact: None,
        }
    }

    /// Whether any background work is outstanding (tickets, jobs, or a
    /// frozen memtable).
    pub fn has_work(&self) -> bool {
        self.imm.is_some()
            || self.flush.is_some()
            || self.compact.is_some()
            || self.sched.pending() > 0
    }
}
