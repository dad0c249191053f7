//! # ptsbench-lsm — a leveled LSM-tree key-value store
//!
//! A from-scratch LSM-tree in the architecture of RocksDB (the paper's
//! LSM representative, §2.1.1): writes land in a write-ahead log and a
//! sorted in-memory *memtable*; full memtables are flushed as sorted
//! string tables (SSTables) into level 0; background *compaction* merges
//! overlapping tables down a hierarchy of exponentially growing levels,
//! discarding shadowed versions and tombstones.
//!
//! Everything below the API is real: SSTables have a binary on-"disk"
//! format with data blocks, a block index and a bloom filter
//! ([`sstable`]); compaction does k-way merges through the
//! filesystem (`compaction`, [`iter`]); and all I/O flows through
//! `ptsbench-vfs` onto the simulated flash device, which is what lets the
//! harness observe the paper's phenomena (bursty compaction writes,
//! whole-LBA-space churn, WA-A that grows as levels fill, space
//! amplification from multi-level residency, out-of-space on large
//! datasets).
//!
//! Every fallible call returns [`ptsbench_vfs::StoreError`]. A key
//! longer than `u16::MAX` bytes (an SSTable entry records a key's length
//! in two bytes) is refused as `InvalidInput` by `put`, `delete` and
//! `apply_batch` before any WAL byte is written.
//!
//! ```
//! use ptsbench_lsm::{LsmDb, LsmOptions};
//! use ptsbench_ssd::{DeviceConfig, DeviceProfile, Ssd};
//! use ptsbench_vfs::{Vfs, VfsOptions};
//!
//! let ssd = Ssd::new(DeviceConfig::from_profile(DeviceProfile::ssd1(), 64 << 20));
//! let vfs = Vfs::whole_device(ssd.into_shared(), VfsOptions::default());
//! let mut db = LsmDb::open(vfs, LsmOptions::small()).unwrap();
//! db.put(b"hello", b"world").unwrap();
//! assert_eq!(db.get(b"hello").unwrap().as_deref(), Some(&b"world"[..]));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub(crate) mod background;
pub mod bloom;
mod compaction;
mod db;
pub mod iter;
mod manifest;
pub mod memtable;
mod options;
pub mod sstable;
mod version;

pub use db::{DbStats, LsmDb, RangeScan};
pub use options::LsmOptions;

/// Convenience result alias over the shared storage error.
pub type Result<T> = std::result::Result<T, ptsbench_vfs::StoreError>;
