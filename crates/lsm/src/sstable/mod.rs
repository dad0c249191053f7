//! Sorted string tables: the immutable on-disk files of the LSM-tree.
//!
//! File layout (little-endian):
//!
//! ```text
//! +-------------------+
//! | data block 0      |   entries: [u16 key_len][u32 vtag][key][value]
//! | data block 1      |   vtag = u32::MAX marks a tombstone
//! | ...               |
//! +-------------------+
//! | index block       |   [u32 n] n x { u16 klen, first_key, u64 off,
//! |                   |               u32 len, u32 entries }
//! +-------------------+
//! | bloom block       |   see `crate::bloom`
//! +-------------------+
//! | footer (40 bytes) |   offsets/lengths + entry count + magic
//! +-------------------+
//! ```

pub mod builder;
pub mod format;
pub mod reader;

pub use builder::{SstableBuilder, TableImage};
pub use format::SstableMeta;
pub(crate) use reader::{BloomCounters, ChainedSstScan};
pub use reader::{SstIter, SstableReader};
