//! # ptsbench-metrics — the measurement toolkit
//!
//! Implements the metrics and analyses of the paper's §3.3 and the
//! guidelines of §4:
//!
//! * [`timeseries`] — windowed time series (the paper reports 10-minute
//!   averages) with steady-state tail statistics;
//! * [`wa`] — the write-amplification algebra: application-level WA-A,
//!   user-level WA, device-level WA-D, and the end-to-end product that
//!   §4.2 argues must be reported;
//! * [`cusum`] — Page's CUSUM change detector, the §4.1 guideline for
//!   declaring steady state "when application throughput, WA-A and WA-D
//!   stop changing for long enough";
//! * [`histogram`] — latency distributions and their percentiles;
//! * [`cost`] — the storage-cost model behind the Fig 6c and Fig 8
//!   heatmaps (#drives = max(capacity-bound, throughput-bound));
//! * [`report`] — plain-text rendering of series, sweeps and heatmaps in
//!   the shape of the paper's figures;
//! * [`runreport`] — merged reports of concurrent sharded runs: per-client
//!   histograms/series folded into one deterministic [`RunReport`];
//! * [`load`] — per-shard serving-load accounting ([`ShardLoad`]) and
//!   cross-shard imbalance summaries ([`LoadImbalance`]) for comparing
//!   contiguous vs hashed sharding under skew;
//! * [`slo`] — SLO accounting under admission control ([`SloStats`]):
//!   admitted/rejected/shed counts, goodput and attainment, the axes of
//!   the goodput-vs-offered-load curves `fig_slo` plots;
//! * [`cache`] — read-path cache accounting ([`CacheStats`]): hits,
//!   misses, admission-gate decisions and device bytes saved, shared by
//!   the block cache and the B-tree pager;
//! * [`mt`] — multi-tenant serving accounting ([`MtStats`]): per-class
//!   ([`ReqClass`]) SLO counters, queue-delay distributions and
//!   starvation maxima, plus per-tenant token-bucket ledgers. The
//!   shared pacing primitive itself ([`RateBudget`], re-exported from
//!   `ptsbench-maint`) throttles tenants and background maintenance
//!   with one implementation.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod cost;
pub mod cusum;
pub mod histogram;
pub mod load;
pub mod mt;
pub mod report;
pub mod runreport;
pub mod slo;
pub mod timeseries;
pub mod wa;

pub use cache::CacheStats;
pub use cost::{CostModel, DeploymentPlan, Heatmap};
pub use cusum::CusumDetector;
pub use histogram::LatencyHistogram;
pub use load::{LoadImbalance, ShardLoad};
pub use mt::{ClassStats, MtStats, ReqClass, TenantId, TenantStats};
pub use ptsbench_maint::RateBudget;
pub use runreport::{RunReport, ShardReport};
pub use slo::SloStats;
pub use timeseries::TimeSeries;
pub use wa::WaBreakdown;
