//! # ptsbench — umbrella crate
//!
//! Re-exports the whole `ptsbench` workspace behind one dependency, for
//! examples, integration tests, and downstream users who want the full
//! stack:
//!
//! * [`ssd`] — flash SSD simulator (FTL, GC, over-provisioning, TRIM,
//!   write cache, latency model, SMART counters, LBA traces).
//! * [`vfs`] — extent filesystem and partitioning over the simulated drive.
//! * [`lsm`] — leveled LSM-tree key-value store (RocksDB stand-in).
//! * [`btree`] — paged B+Tree key-value store (WiredTiger stand-in).
//! * [`cache`] — the read-path acceleration tier: a fixed-budget block
//!   cache with TinyLFU admission plus the deterministic block/segment
//!   compression codec, shared by the engines.
//! * [`hashlog`] — KVell-style log-structured hash KV store, registered
//!   with the engine registry from outside `ptsbench-core` (the proof
//!   that the engine API is open).
//! * [`maint`] — the virtual-time background-maintenance scheduler:
//!   rate-budgeted job tickets and slice pacing shared by the engines'
//!   deferred flush/compaction/GC/checkpoint paths.
//! * [`trace`] — the zero-cost-when-off tracing subsystem: nested
//!   virtual-time spans with cause tags, per-cause device-traffic
//!   attribution, Chrome trace-event export and per-op phase
//!   breakdowns.
//! * [`harness`] — the concurrent sharded workload driver: N client
//!   threads over M shared-nothing engine shards in virtual-time
//!   lockstep, merged into one deterministic report.
//! * [`workload`] — key/value workload generators.
//! * [`metrics`] — time series, write-amplification math, CUSUM
//!   steady-state detection, latency histograms, storage-cost models.
//! * [`core`] — the paper's methodology: the seven benchmarking pitfalls,
//!   experiment runners and figure drivers.
//!
//! See the repository `README.md` for a guided tour and the system
//! inventory (its crate table).

pub use ptsbench_btree as btree;
pub use ptsbench_cache as cache;
pub use ptsbench_core as core;
pub use ptsbench_harness as harness;
pub use ptsbench_hashlog as hashlog;
pub use ptsbench_lsm as lsm;
pub use ptsbench_maint as maint;
pub use ptsbench_metrics as metrics;
pub use ptsbench_ssd as ssd;
pub use ptsbench_trace as trace;
pub use ptsbench_vfs as vfs;
pub use ptsbench_workload as workload;
