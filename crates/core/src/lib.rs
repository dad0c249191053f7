//! # ptsbench-core — the benchmarking methodology
//!
//! This crate is the reproduction of the paper's primary contribution:
//! a rigorous methodology for evaluating persistent tree structures
//! (PTSes) on flash SSDs, organized around its seven benchmarking
//! pitfalls.
//!
//! * [`engine`] — the open engine API: the [`PtsEngine`] trait with
//!   batched writes ([`WriteBatch`]), streaming scans ([`ScanCursor`]),
//!   and uniform statistics ([`EngineStats`]).
//! * [`registry`] — the engine registry: engines register an
//!   [`EngineDescriptor`](registry::EngineDescriptor) and the harness
//!   resolves them through opaque [`EngineKind`] handles. The built-in
//!   engines are `ptsbench-lsm` and `ptsbench-btree`; `ptsbench-hashlog`
//!   registers a third from outside this crate.
//! * [`state`] — drive-state control: trimmed vs preconditioned (§3.4).
//! * [`measure`] — the reusable experiment mechanics (stack build, bulk
//!   load, resumable measured phase) shared by the single-threaded
//!   runner and the concurrent `ptsbench-harness` driver.
//! * [`runner`] — the experiment runner: batched sequential load phase,
//!   timed update/read phase on the simulated clock, per-window sampling
//!   of every §3.3 metric (KV throughput, device throughput, WA-A,
//!   WA-D, space amplification), CUSUM steady-state summary.
//! * [`sharded`] — the [`ShardedRun`] configuration: N client threads
//!   over M shared-nothing engine shards (executed by
//!   `ptsbench-harness`).
//! * [`frontend`] — the [`FrontendRun`] configuration: N logical
//!   clients submitting requests through a bounded dispatcher onto the
//!   shard fleet, in virtual time (executed by `ptsbench-harness`'s
//!   `Frontend`), so queueing delay is measurable against device
//!   latency.
//! * [`pitfalls`] — one module per pitfall; each reproduces the
//!   corresponding figures and returns a programmatic verdict that the
//!   pitfall's phenomenon manifested.
//! * [`costmodel`] — measured-throughput + space-amplification inputs to
//!   the storage-cost heatmaps (Fig 6c, Fig 8).
//!
//! All results are reported in *reference-scale* units: the simulated
//! device is a time-dilated replica of a paper-scale drive (see
//! `ptsbench_ssd::DeviceProfile::scaled_to`), so Kops/s and MB/s numbers
//! are directly comparable to the figures in the paper.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod costmodel;
pub mod engine;
pub mod frontend;
pub mod measure;
pub mod pitfalls;
pub mod registry;
pub mod runner;
pub mod sharded;
pub mod state;

pub use engine::{BatchOp, EngineStats, PtsEngine, PtsError, ScanCursor, WriteBatch};
pub use frontend::{
    ClassPolicyMap, ClientBinding, DispatchDiscipline, FrontendRun, SloPolicy, TenantQuota,
    TenantSpec,
};
pub use measure::{build_stack, bulk_load, Experiment, Served};
pub use ptsbench_metrics::{ReqClass, TenantId};
pub use registry::{EngineKind, EngineRegistry, EngineTuning, Lifecycle};
pub use runner::{run, RunConfig, RunResult, Sample};
pub use sharded::ShardedRun;
pub use state::DriveState;

// Re-exported so harness/bench/example code can configure background
// maintenance without naming the `ptsbench-maint` crate directly.
pub use ptsbench_maint::{MaintConfig, MaintStats};
