//! Helpers shared by the root conformance suites: the engine list and
//! the run shapes the baseline goldens (`tests/golden/baseline/`) were
//! captured with, and the model check every engine is held to
//! (`model`). Each suite is its own crate and uses a subset.
#![allow(dead_code)]

use ptsbench::core::frontend::FrontendRun;
use ptsbench::core::registry::{EngineKind, EngineRegistry};
use ptsbench::core::runner::RunConfig;
use ptsbench::ssd::MINUTE;
use ptsbench::workload::KeyDistribution;

pub mod model;

/// Every registered engine, the hash log included.
pub fn engines() -> Vec<EngineKind> {
    ptsbench::hashlog::register();
    EngineRegistry::all()
}

/// The exact shapes the snapshot was captured with (small enough for
/// debug-mode tests: 16 MiB per shard — the SSD1 geometry floor — and a
/// short measured phase).
pub fn base(engine: EngineKind, total_bytes: u64) -> RunConfig {
    RunConfig {
        engine,
        device_bytes: total_bytes,
        duration: 10 * MINUTE,
        sample_window: 5 * MINUTE,
        ..RunConfig::default()
    }
}

/// A serving shape that actually queues (fan-in over fewer shards,
/// Zipfian skew), so an equivalence is tested where a dispatch policy
/// would have something to do if it were active.
pub fn serving_shape(engine: EngineKind) -> FrontendRun {
    let mut cfg = FrontendRun::new(base(engine, 32 << 20), 6);
    cfg.shards = 2;
    cfg.base.read_fraction = 0.5;
    cfg.base.distribution = KeyDistribution::Zipfian { theta: 0.9 };
    cfg
}
