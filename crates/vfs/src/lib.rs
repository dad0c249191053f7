//! # ptsbench-vfs — a filesystem substrate over the simulated SSD
//!
//! The paper runs RocksDB and WiredTiger on an ext4 filesystem mounted
//! with `nodiscard` (§3.5): deleting a file frees its blocks for reuse by
//! the allocator but sends **no TRIM** to the drive, so the device keeps
//! treating those LBAs as live data. This crate reproduces that layer:
//!
//! * **Extent-based files** ([`file`](mod@file)) — a file is shared byte
//!   pieces — one whole buffer, or one per page for a paged file — that
//!   reads can borrow ranges of as [`FileSlice`]s, plus an ordered list
//!   of LBA extents; page-aligned overwrites hit the *same* LBAs (the
//!   in-place behaviour a B+Tree relies on), appends allocate new
//!   extents.
//! * **Next-fit extent placement** ([`alloc`]) — a roving cursor cycles
//!   the partition like an aged filesystem, which is why LSM file churn
//!   touches the whole LBA space in the paper's Figure 4.
//! * **`nodiscard` semantics** — deletes return extents to the allocator
//!   without trimming; an explicit [`Vfs::trim_free_space`] models
//!   `fstrim`, and discard-on-delete can be enabled to model `-o discard`.
//! * **The record log** ([`log`]) — the write-ahead log of both trees
//!   (`wal-<n>`, `journal-0`): page-buffered put/delete records,
//!   recycling or churning rotation, replay of every log in sequence
//!   order.
//! * **One storage error** ([`StoreError`]) — what the record log and
//!   every engine on the filesystem return: a [`VfsError`] (whose
//!   `NoSpace` is the paper's out-of-space outcome), corruption, or an
//!   input the engine cannot store. Its source chain runs on to the
//!   [`VfsError`] and the device's error.
//! * **Engine tuning** ([`EngineTuning`]) — the per-run knobs (queue
//!   depth, cache budget, compression level, tracing, maintenance)
//!   every engine embeds in its options.
//! * **Partitions** ([`Vfs::new`] takes an LPN range) — reserving part of
//!   the device as an untouched partition is exactly the paper's software
//!   over-provisioning knob (Pitfall 6).
//!
//! All I/O has direct-I/O semantics: writes block the simulated clock
//! until cache admission, reads until media completion, and
//! [`Vfs::fsync`] until the file's data is durable.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod alloc;
mod error;
pub mod file;
pub mod fs;
pub mod log;
mod slice;
mod trace;
mod tuning;

pub use alloc::{Extent, ExtentAllocator};
pub use error::{StoreError, VfsError};
pub use file::FileId;
pub use fs::{AsyncRead, FileAppender, FsStats, Vfs, VfsOptions};
pub use log::{LogRecord, RecordLog};
pub use slice::{cmp_keys, touch_strided, FileSlice};
pub use trace::{CauseScope, TraceHandle};
pub use tuning::EngineTuning;
// Re-exported so engines can drive the asynchronous submission path
// without depending on `ptsbench-ssd` directly.
pub use ptsbench_ssd::{
    Cause, CauseStats, IoCmd, IoCompletion, IoDepthStats, IoQueue, IoToken, SharedIoQueue, SpanId,
    Tracer,
};

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, VfsError>;
