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

/// Errors surfaced by the B+Tree engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BTreeError {
    /// Underlying filesystem/device error.
    Vfs(ptsbench_vfs::VfsError),
    /// On-disk page failed validation.
    Corruption(String),
    /// A key longer than a page can record (`u16::MAX` bytes).
    KeyTooLong {
        /// Key length in bytes.
        key_bytes: usize,
    },
    /// A single key-value pair larger than a page cannot be stored.
    PairTooLarge {
        /// Encoded pair size.
        pair_bytes: usize,
        /// Page capacity.
        page_bytes: usize,
    },
}

impl From<ptsbench_vfs::VfsError> for BTreeError {
    fn from(e: ptsbench_vfs::VfsError) -> Self {
        BTreeError::Vfs(e)
    }
}

impl From<ptsbench_vfs::LogError> for BTreeError {
    fn from(e: ptsbench_vfs::LogError) -> Self {
        match e {
            ptsbench_vfs::LogError::Vfs(e) => BTreeError::Vfs(e),
            ptsbench_vfs::LogError::Corruption(what) => BTreeError::Corruption(what),
        }
    }
}

impl BTreeError {
    /// Whether this is the out-of-space condition.
    pub fn is_out_of_space(&self) -> bool {
        matches!(
            self,
            BTreeError::Vfs(ptsbench_vfs::VfsError::NoSpace { .. })
        )
    }
}

impl std::fmt::Display for BTreeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BTreeError::Vfs(e) => write!(f, "filesystem error: {e}"),
            BTreeError::Corruption(msg) => write!(f, "corruption: {msg}"),
            BTreeError::KeyTooLong { key_bytes } => {
                write!(f, "key of {key_bytes} bytes exceeds {} bytes", u16::MAX)
            }
            BTreeError::PairTooLarge {
                pair_bytes,
                page_bytes,
            } => {
                write!(
                    f,
                    "key-value pair of {pair_bytes} bytes exceeds page capacity {page_bytes}"
                )
            }
        }
    }
}

impl std::error::Error for BTreeError {}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, BTreeError>;

/// Page number within the B+Tree file (page 0 is the metadata page).
pub type PageNo = u64;
