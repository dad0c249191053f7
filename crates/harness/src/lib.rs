//! # ptsbench-harness — the concurrent sharded workload driver
//!
//! The paper measures every pitfall through a single-threaded
//! update/read phase; real tree-structure deployments serve many
//! clients at once, and flash SSDs only reveal their internal
//! parallelism under concurrent request streams (Roh et al.). This
//! crate scales the methodology out without giving up its defining
//! property — determinism on a simulated clock:
//!
//! * **Shared-nothing shards.** A `ShardedRun` (from `ptsbench-core`)
//!   splits the experiment into `M` shards: each gets an equal slice of
//!   the simulated capacity as its *own* device, its own filesystem
//!   partition, its own engine instance, and its own contiguous slice
//!   of the key space with an independently seeded op stream
//!   (`WorkloadSpec::shard`). Nothing is shared between shards, so no
//!   thread interleaving can perturb any shard's simulation — the
//!   KVell-style partitioned design the paper's §4.1 discusses.
//! * **Real threads, virtual lockstep.** `N` client threads each drive
//!   their shards' measured phases one epoch at a time and meet at a
//!   `ptsbench_ssd::ClockBarrier` between epochs: the global experiment
//!   clock only advances when every active client has simulated up to
//!   the boundary, so sampling windows line up across clients and no
//!   client runs arbitrarily ahead.
//! * **Mergeable metrics.** Every client records its own latency
//!   histogram and per-window series; [`run_sharded`] folds them into
//!   one `ptsbench_metrics::RunReport`. Fixed seeds produce
//!   byte-identical rendered reports run-to-run, regardless of thread
//!   scheduling — the CI determinism check diffs exactly this.
//! * **A serving front-end.** [`Frontend`] puts a request/response
//!   layer in front of the shard fleet — N logical clients, a
//!   dispatcher with a bounded per-shard queue, completions carrying
//!   `submitted_at`/`issued_at`/`done_at` — so queueing delay at high
//!   fan-in is measurable *separately* from device latency.
//!   [`run_frontend`] drives seeded open- or closed-loop arrival
//!   processes over it; in its conformance shape it reproduces
//!   [`run_sharded`] byte-identically (see
//!   `tests/latency_conformance.rs`). Open-loop requests depend on
//!   their seeds alone, so a second thread generates them and streams
//!   them to the dispatcher in submission order; the `Frontend` and
//!   every decision stay on the calling thread.
//! * **Admission control and load shedding.** An
//!   `ptsbench_core::frontend::SloPolicy` lets the dispatcher bound
//!   per-shard pending work (`QueueBound`), reject requests whose
//!   predicted sojourn would miss a deadline (`PredictedSojourn`), or
//!   shed requests already past their budget at dispatch time
//!   (`Deadline`). Turned-away requests resolve as
//!   [`ReqOutcome::Rejected`] / [`ReqOutcome::Shed`] without consuming
//!   device time, and per-shard `SloStats` (goodput, attainment) land
//!   in the report — the `fig_slo` goodput-vs-offered-load curves.
//! * **Request-level tracing.** When a run enables the flight recorder
//!   (`RunConfig.trace`), the front-end opens a `req.put`/`req.get`
//!   root span per request with the dispatch-queue wait as a
//!   `req.queue` child, so every engine phase and device command the
//!   request causes nests under it — the `fig_anatomy` tail
//!   decomposition. Tracing never advances the virtual clock or
//!   consumes workload randomness; `tests/trace_conformance.rs` pins
//!   traced runs identical to untraced twins in every measured
//!   quantity.
//!
//! ```no_run
//! use ptsbench_core::{RunConfig, ShardedRun};
//! use ptsbench_harness::run_sharded;
//!
//! let run = ShardedRun::new(RunConfig::default(), 4);
//! let report = run_sharded(&run).expect("harness run");
//! println!("{}", report.render());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod driver;
mod frontend;

pub use driver::{run_sharded, run_sharded_with_results, HarnessOutcome};
pub use frontend::{
    run_frontend, run_frontend_with_results, Frontend, FrontendShardResult, ReqCompletion,
    ReqOutcome, ReqToken, Request, DROP_LATENCY, REJECT_LATENCY,
};
