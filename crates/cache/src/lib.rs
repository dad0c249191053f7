//! # ptsbench-cache — the read-path acceleration tier
//!
//! The paper's read-amplification story (§3.3) measures what the
//! *device* sees; what the device sees is shaped by the host's caching
//! and compression layers sitting above it. This crate provides both,
//! shared by every engine:
//!
//! * [`BlockCache`] — a fixed-budget, shard-shared cache of
//!   uncompressed blocks with **segmented-LRU** eviction (probation /
//!   protected) and a **TinyLFU admission gate**: a 4-bit count-min
//!   sketch ([`CountMinSketch`]) estimates each block's recent access
//!   frequency, and a candidate is admitted only if it beats the
//!   eviction victim — one-hit-wonder traffic cannot flush the working
//!   set;
//! * [`Compression`] — a deterministic LZ77 codec with a level knob
//!   (the `zstd_sstable_compression_level` shape real engines expose)
//!   whose CPU cost is charged in *virtual* nanoseconds, applied at
//!   SSTable-block and hashlog-segment granularity by the engines.
//!
//! Both layers account through [`ptsbench_metrics::CacheStats`], so a
//! run report shows hits, admission decisions and the device bytes the
//! tier saved. Everything is deterministic: identical access streams
//! produce identical eviction decisions and identical report bytes.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod block;
mod compress;
mod sketch;

pub use block::{file_tag, BlockCache, CacheKey, SharedBlockCache};
pub use compress::{Compression, EncodeScratch};
pub use ptsbench_metrics::CacheStats;
pub use sketch::CountMinSketch;
