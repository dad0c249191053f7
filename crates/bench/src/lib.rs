//! # ptsbench-bench — the figure-regeneration harness
//!
//! One bench target per figure of the paper's evaluation (`cargo bench`
//! runs them all and prints the series/tables/heatmaps in the shape of
//! the corresponding figure), plus criterion micro-benchmarks of the
//! core data structures.
//!
//! | Target | Paper figures |
//! |---|---|
//! | `fig02_steady_state` | Fig 2a–2d (Pitfall 1) |
//! | `fig03_initial_state` | Fig 3a–3d (Pitfall 3) |
//! | `fig04_lba_cdf` | Fig 4 |
//! | `fig05_dataset_size` | Fig 5a–5c (Pitfall 4) |
//! | `fig06_space_amp` | Fig 6a–6c (Pitfall 5) |
//! | `fig07_overprovisioning` | Fig 7a/7b + Fig 8 (Pitfall 6) |
//! | `fig09_ssd_types` | Fig 9 + Fig 10a/10b (Pitfall 7) |
//! | `fig11_workloads` | Fig 11a–11d |
//! | `fig_scaling` | beyond the paper: 1→8 client scaling, all engines |
//! | `fig_qd` | beyond the paper: read throughput vs I/O queue depth 1→32 |
//! | `micro` | criterion micro-benchmarks |
//!
//! A study that also runs as a root-package example lives here as a
//! module, with a thin wrapper on each side: [`fig_tail`] and
//! [`fig_stall`] are each both a bench target and an `examples/` file.
//!
//! Sizing: benches default to a 128 MiB simulated stand-in for the
//! paper's 400 GB drive with the full 210-minute measured phase. Set
//! `PTSBENCH_QUICK=1` for a fast smoke configuration.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod fig_stall;
pub mod fig_tail;

use ptsbench_core::pitfalls::PitfallOptions;
use ptsbench_ssd::MINUTE;

/// Sizing used by the figure benches: full paper-shaped runs by
/// default, a smoke configuration under `PTSBENCH_QUICK=1`.
pub fn bench_options() -> PitfallOptions {
    if std::env::var("PTSBENCH_QUICK").is_ok_and(|v| v == "1") {
        PitfallOptions::quick()
    } else {
        PitfallOptions::default()
    }
}

/// Prints a bench banner with reproduction context.
pub fn banner(figure: &str, pitfall: &str) {
    let o = bench_options();
    println!("================================================================");
    println!("ptsbench — {figure} ({pitfall})");
    println!(
        "simulated drive: {} MiB stand-in for a 400 GB-class device; \
         {} simulated minutes, {}-minute windows",
        o.device_bytes >> 20,
        o.duration / MINUTE,
        o.sample_window / MINUTE
    );
    println!("================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_options_default_shape() {
        // (Environment-dependent: only assert the non-quick invariants.)
        let o = bench_options();
        assert!(o.device_bytes >= PitfallOptions::quick().device_bytes);
        assert!(o.duration >= PitfallOptions::quick().duration);
    }
}
