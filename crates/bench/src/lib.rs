//! # ptsbench-bench — the figure-regeneration harness
//!
//! One bench target per figure of the paper's evaluation (`cargo bench`
//! runs them all and prints the series/tables/heatmaps in the shape of
//! the corresponding figure), plus criterion micro-benchmarks of the
//! core data structures.
//!
//! | Target | Paper figures |
//! |---|---|
//! | `fig02_steady_state` | Fig 2a–2d (Pitfalls 1 and 2) |
//! | `fig03_initial_state` | Fig 3a–3d + Fig 4 (Pitfall 3) |
//! | `fig05_dataset_size` | Fig 5a–5c (Pitfall 4) |
//! | `fig06_space_amp` | Fig 6a–6c (Pitfall 5) |
//! | `fig07_overprovisioning` | Fig 7a/7b + Fig 8 (Pitfall 6) |
//! | `fig09_ssd_types` | Fig 9 + Fig 10a/10b (Pitfall 7) |
//! | `fig11_workloads` | Fig 11a–11d |
//! | `micro` | criterion micro-benchmarks |
//!
//! The eight studies beyond the paper are each one function in a module
//! of this crate, called by `examples/<name>.rs` in the root package
//! (its stdout is pinned by `tests/golden/<name>.txt`):
//!
//! | Module | Study |
//! |---|---|
//! | [`fig_scaling`] | aggregate throughput under 1 → 8 client threads, every engine |
//! | [`fig_qd`] | scan read throughput vs I/O submission queue depth |
//! | [`fig_tail`] | p99 queue delay vs client fan-in, contiguous vs hashed routing |
//! | [`fig_slo`] | goodput vs offered load, with and without admission control |
//! | [`fig_tenant`] | dispatch disciplines and tenant quotas under a batch aggressor |
//! | [`fig_readamp`] | device read bytes vs block-cache budget and compression level |
//! | [`fig_anatomy`] | the serving tail decomposed into engine phase spans |
//! | [`fig_stall`] | foreground put latency, inline vs background maintenance |
//!
//! Sizing: every paper-figure target runs `PitfallOptions::default()`, a
//! 64 MiB simulated stand-in for the paper's 400 GB drive with the full
//! 210-minute measured phase; each study sizes itself with constants
//! next to the code that reads them.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod fig_anatomy;
pub mod fig_qd;
pub mod fig_readamp;
pub mod fig_scaling;
pub mod fig_slo;
pub mod fig_stall;
pub mod fig_tail;
pub mod fig_tenant;

use ptsbench_core::pitfalls::PitfallOptions;
use ptsbench_metrics::runreport::RunReport;
use ptsbench_ssd::{Ns, MINUTE};

/// Prints `ptsbench — {title}` and a line of reproduction context
/// between two rules.
pub(crate) fn rule_banner(title: &str, context: &str) {
    const RULE: &str = "================================================================";
    println!("{RULE}");
    println!("ptsbench — {title}");
    println!("{context}");
    println!("{RULE}");
}

/// Prints a paper figure's banner with the `PitfallOptions::default()`
/// sizing every figure target runs.
pub fn banner(figure: &str, pitfall: &str) {
    let o = PitfallOptions::default();
    rule_banner(
        &format!("{figure} ({pitfall})"),
        &format!(
            "simulated drive: {} MiB stand-in for a 400 GB-class device; \
             {} simulated minutes, {}-minute windows",
            o.device_bytes >> 20,
            o.duration / MINUTE,
            o.sample_window / MINUTE
        ),
    );
}

/// Mean per-request service time of a serving run: engine busy time
/// over requests served, summed across the fleet (so each shard weighs
/// by what it served). The serving studies calibrate their arrival
/// rates and deadlines from a one-client closed-loop probe of this — no
/// queueing, pure service. Zero when nothing was served.
pub(crate) fn mean_service(report: &RunReport) -> Ns {
    let (busy, served) = report
        .shards
        .iter()
        .filter_map(|s| s.load)
        .fold((0u64, 0u64), |(b, n), l| (b + l.busy_ns, n + l.served));
    busy / served.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptsbench_metrics::load::ShardLoad;
    use ptsbench_metrics::runreport::ShardReport;
    use ptsbench_metrics::LatencyHistogram;

    /// A report of one shard per entry, carrying only its load section.
    fn report(loads: &[Option<ShardLoad>]) -> RunReport {
        let shards = loads.iter().enumerate().map(|(i, &load)| ShardReport {
            name: format!("shard{i}"),
            ops: 0,
            out_of_space: false,
            latency: LatencyHistogram::new(),
            app_bytes: 0,
            host_bytes: 0,
            io_depth: None,
            queue_delay: None,
            load,
            slo: None,
            mt: None,
            cache: None,
            cause: None,
            maint: None,
            series: Vec::new(),
        });
        RunReport::merge("x", 1, shards.collect())
    }

    fn load(busy_ns: u64, served: u64) -> Option<ShardLoad> {
        Some(ShardLoad {
            served,
            busy_ns,
            ..ShardLoad::default()
        })
    }

    #[test]
    fn mean_service_weighs_shards_by_requests_served() {
        // One shard served 9 requests at 100 ns each, the other 1 at
        // 1000 ns: the fleet mean is 1900 / 10, not the 550 that
        // averaging the two shard means would give.
        let r = report(&[load(900, 9), load(1_000, 1)]);
        assert_eq!(mean_service(&r), 190);
    }

    #[test]
    fn mean_service_of_nothing_served_is_zero() {
        assert_eq!(mean_service(&report(&[None, None])), 0);
        assert_eq!(mean_service(&report(&[load(0, 0), None])), 0);
        // A shard without a load section is skipped, not counted as idle.
        assert_eq!(mean_service(&report(&[None, load(500, 5)])), 100);
    }
}
