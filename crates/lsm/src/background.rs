//! Maintenance job state: the frozen memtable's flush and the
//! compaction, each resumable across slices.
//!
//! There is one implementation of each job, and two ways to drive it
//! ([`ptsbench_maint::Drive`], chosen by
//! [`ptsbench_maint::MaintConfig::enabled`]). Either way a full memtable
//! is *frozen* into the database's `imm` slot — still readable — and a
//! [`FlushJob`] streams it into an L0 table; a picked compaction becomes
//! a [`CompactJob`] that merges its inputs into output tables and then
//! installs one version edit.
//!
//! * **Off — the same jobs, drained in place, foreground rules.** The
//!   op that fills the memtable freezes it, runs the flush job to
//!   completion in unbounded slices, installs at once and rotates the
//!   WAL, then does the same for each due compaction, streaming the
//!   inputs through the merge. Nothing is charged to a scheduler.
//! * **On — bounded slices pumped between foreground ops.** Writes
//!   continue into a fresh memtable (and a fresh WAL file, see
//!   [`ptsbench_vfs::RecordLog::rotate_deferred`]) while the flush proceeds one
//!   byte-bounded slice at a time; a compaction reads one input table's
//!   windows per slice, then merges and writes outputs in byte-bounded
//!   slices.
//!   Both install their version edit only once the background writes
//!   have destaged (durability-gated install), so the blocking manifest
//!   commit never queues behind a burst of compaction traffic.
//!
//! MVCC safety: a [`CompactJob`] holds its inputs as
//! [`CompactionTask`]'s `Arc<TableHandle>` pins, so concurrent
//! foreground reads — which resolve through the *current* version —
//! keep working against the old tables until the install swaps the
//! version atomically between two foreground ops.

use std::collections::VecDeque;

use crate::compaction::CompactionTask;
use crate::iter::Merge;
use crate::sstable::reader::{LoadedWindow, WindowScan};
use crate::sstable::{SstableBuilder, SstableMeta, TableImage};

/// A scan over one input table's windows, read by the compaction read
/// phase; the windows keep their bytes after the table is deleted.
pub(crate) type BufferedScan = WindowScan<VecDeque<LoadedWindow>>;

/// A memtable flush in progress, resumable across slices.
pub(crate) struct FlushJob {
    /// Output table under construction (`None` once finished).
    pub builder: Option<SstableBuilder>,
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
    /// Next input table to buffer (paced read phase; one table per
    /// slice — an inline job streams its inputs instead).
    pub read_idx: usize,
    /// Buffered input windows, one queue per table, recency order.
    pub buffered: Vec<VecDeque<LoadedWindow>>,
    /// Merge over the buffered windows (paced write phase); built lazily
    /// once every input is buffered.
    pub merge: Option<Merge<BufferedScan>>,
    /// Output table under construction.
    pub builder: Option<SstableBuilder>,
    /// Finished output tables awaiting install.
    pub outputs: Vec<SstableMeta>,
    /// Total file bytes of `outputs`.
    pub finished_bytes: u64,
    /// Blocks of `outputs` copied from an input instead of encoded.
    pub reused_blocks: u64,
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
    pub(crate) fn new(task: CompactionTask, drop_tombstones: bool) -> Self {
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
            finished_bytes: 0,
            reused_blocks: 0,
            input_bytes,
            input_names,
            write_done: false,
            charged: 0,
        }
    }

    /// Total input tables (source + overlaps).
    pub(crate) fn source_count(&self) -> usize {
        self.task.inputs.len() + self.task.overlaps.len()
    }

    /// Output bytes produced so far (finished outputs + live builder).
    pub(crate) fn produced_bytes(&self) -> u64 {
        self.finished_bytes + self.builder.as_ref().map_or(0, |b| b.estimated_bytes())
    }

    /// Finishes the live output table, if any, and hands its image to
    /// `place` to be laid out ([`TableImage::materialize`]).
    pub(crate) fn finish_output(&mut self, place: &mut dyn FnMut(TableImage)) -> crate::Result<()> {
        if let Some(builder) = self.builder.take() {
            let (meta, reused, image) = builder.finish_counted()?;
            place(image);
            self.reused_blocks += reused;
            self.finished_bytes += meta.file_bytes;
            self.outputs.push(meta);
        }
        Ok(())
    }
}
