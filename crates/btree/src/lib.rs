//! # ptsbench-btree — an on-disk B+Tree key-value store
//!
//! A from-scratch paged B+Tree in the architecture of WiredTiger (the
//! paper's B+Tree representative, §2.1.2): key-value pairs live in large
//! leaf pages (32 KiB by default), internal pages route lookups, a page
//! cache holds hot pages in memory and writes dirty pages back **in
//! place**, and a write-ahead log plus periodic checkpoints provide
//! durability.
//!
//! The two behaviours the paper's analysis hinges on fall out of this
//! design naturally:
//!
//! * **Stable LBA footprint** (Fig 4): pages are rewritten at their
//!   original file offsets, so the device sees writes confined to the
//!   LBAs holding the dataset (~50% of the drive in the default
//!   workload) — which acts as implicit over-provisioning on a trimmed
//!   drive and explains the trimmed-vs-preconditioned gap of Pitfall 3.
//! * **Stable WA-A** (Fig 2d): every update dirties one leaf; the extra
//!   write volume per update does not change over time.
//!
//! Every fallible call returns [`ptsbench_vfs::StoreError`]. `put`
//! refuses a key longer than `u16::MAX` bytes (a page records a key's
//! length in two bytes) and a pair larger than a page as `InvalidInput`.
//!
//! ```
//! use ptsbench_btree::{BTreeDb, BTreeOptions};
//! use ptsbench_ssd::{DeviceConfig, DeviceProfile, Ssd};
//! use ptsbench_vfs::{Vfs, VfsOptions};
//!
//! let ssd = Ssd::new(DeviceConfig::from_profile(DeviceProfile::ssd1(), 64 << 20));
//! let vfs = Vfs::whole_device(ssd.into_shared(), VfsOptions::default());
//! let mut db = BTreeDb::open(vfs, BTreeOptions::small()).unwrap();
//! db.put(b"hello", b"world").unwrap();
//! assert_eq!(db.get(b"hello").unwrap().as_deref(), Some(&b"world"[..]));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod db;
pub mod node;
mod options;
pub mod pager;

pub use db::{BTreeDb, BTreeScan, BTreeStats};
pub use options::BTreeOptions;

/// Convenience result alias over the shared storage error.
pub type Result<T> = std::result::Result<T, ptsbench_vfs::StoreError>;

/// Page number within the B+Tree file (page 0 is the metadata page).
pub type PageNo = u64;
