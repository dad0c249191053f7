//! The six frozen workloads.
//!
//! Every constant here is part of the benchmark's definition: changing
//! one changes what the numbers mean, so a change that claims a gain
//! may not edit this file. Arrival rates are frozen constants (they were
//! calibrated once, at full length, on the default seed) and do not
//! move with `--seed`; the seed only feeds `RunConfig.seed`, i.e. key
//! choice, read/update choice, arrival jitter and the preconditioning
//! pattern.

use ptsbench::core::frontend::{DispatchDiscipline, FrontendRun, TenantSpec};
use ptsbench::core::registry::EngineKind;
use ptsbench::core::runner::RunConfig;
use ptsbench::core::sharded::{ShardedRun, Sharding};
use ptsbench::core::{DriveState, MaintConfig, ReqClass};
use ptsbench::ssd::{Ns, MINUTE};
use ptsbench::workload::{ArrivalSpec, KeyDistribution, WorkloadSpec};

/// Which driver a workload exercises, with its full configuration.
#[derive(Debug, Clone)]
pub enum Scenario {
    /// `Experiment::prepare` → `run_until` → `finish`, i.e. `run()`.
    Single(RunConfig),
    /// `run_sharded_with_results`.
    Sharded(ShardedRun),
    /// `run_frontend_with_results`.
    Serve(FrontendRun),
}

impl Scenario {
    /// The base run configuration (the whole fleet's, for sharded and
    /// serving scenarios).
    pub fn base(&self) -> &RunConfig {
        match self {
            Scenario::Single(cfg) => cfg,
            Scenario::Sharded(run) => &run.base,
            Scenario::Serve(run) => &run.base,
        }
    }

    fn base_mut(&mut self) -> &mut RunConfig {
        match self {
            Scenario::Single(cfg) => cfg,
            Scenario::Sharded(run) => &mut run.base,
            Scenario::Serve(run) => &mut run.base,
        }
    }

    /// The same scenario with the program's own tracing switched on.
    pub fn traced(&self) -> Scenario {
        let mut traced = self.clone();
        traced.base_mut().trace = true;
        traced
    }

    /// How many shards (independent engine stacks) the scenario runs.
    pub fn shards(&self) -> usize {
        match self {
            Scenario::Single(_) => 1,
            Scenario::Sharded(run) => run.shards,
            Scenario::Serve(run) => run.shards,
        }
    }

    /// Shard `index`'s configuration and workload slice.
    pub fn shard(&self, index: usize) -> (RunConfig, WorkloadSpec) {
        match self {
            Scenario::Single(cfg) => (cfg.clone(), cfg.workload()),
            Scenario::Sharded(run) => (run.shard_config(index), run.shard_workload(index)),
            Scenario::Serve(run) => (run.shard_config(index), run.shard_workload(index)),
        }
    }
}

/// One benchmark workload: a name, the reason it exists, and the
/// scenario it runs.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub scenario: Scenario,
}

/// Sample windows per run: enough for `steady_kops` (mean of the last
/// half) to average several flush/compaction cycles.
const WINDOWS: u64 = 20;

fn base(engine: EngineKind, device_mib: u64, minutes: u64) -> RunConfig {
    RunConfig {
        engine,
        device_bytes: device_mib << 20,
        duration: minutes * MINUTE,
        sample_window: minutes * MINUTE / WINDOWS,
        ..RunConfig::default()
    }
}

/// `serve_fanin_fifo`: mean inter-arrival per client, frozen from the
/// full-length calibration (busy/served = 1.347 virtual s per request;
/// 4096 clients offering 60 % of a 4-shard fleet).
const FANIN_CLIENTS: usize = 4096;
const FANIN_INTERARRIVAL: Ns = 2_298_880_000_000;

/// `serve_tenant_wfq`: frozen from the 767.48 ms calibrated mean
/// service of the `fig_tenant` shape — interactive clients at 5× the
/// mean service, the batch aggressor at 1.75× fleet capacity.
const WFQ_INTERACTIVE_INTERARRIVAL: Ns = 3_837_000_000;
const WFQ_BATCH_INTERARRIVAL: Ns = 109_640_000;

/// The frozen workload set, in report order, seeded with `seed`.
/// `quick` divides every virtual duration by 20 (smoke scale).
pub fn all(seed: u64, quick: bool) -> Vec<Workload> {
    let mut set = vec![
        Workload {
            name: "paper_lsm_write",
            why: "the paper's Fig 2 run: LSM flush/compaction, vfs appends and the ssd FTL+GC do all the host work",
            scenario: Scenario::Single(RunConfig {
                drive_state: DriveState::Preconditioned,
                ..base(EngineKind::lsm(), 256, 600)
            }),
        },
        Workload {
            name: "paper_btree_mixed",
            why: "same vfs/ssd layers used page-granular: write_at and random reads through the pager, reads beside writes",
            scenario: Scenario::Single(RunConfig {
                distribution: KeyDistribution::Zipfian { theta: 0.99 },
                read_fraction: 0.5,
                ..base(EngineKind::btree(), 256, 1500)
            }),
        },
        Workload {
            name: "sharded_lsm_bg",
            why: "2 threads x 8 shards with background maintenance: the only user of maint, the ssd IoQueue and the ClockBarrier",
            scenario: Scenario::Sharded({
                let mut run = ShardedRun::new(
                    RunConfig {
                        read_fraction: 0.5,
                        queue_depth: 8,
                        maint: MaintConfig::enabled(),
                        ..base(EngineKind::lsm(), 256, 180)
                    },
                    2,
                );
                run.shards = 8;
                run
            }),
        },
        Workload {
            name: "readamp_lsm_cache_z",
            why: "read-heavy Zipfian LSM with block cache and codec on: the only workload where the cache layer dominates",
            scenario: Scenario::Single(RunConfig {
                distribution: KeyDistribution::Zipfian { theta: 0.99 },
                read_fraction: 0.9,
                cache_bytes: 8 << 20,
                compression_level: 1,
                ..base(EngineKind::lsm(), 256, 520)
            }),
        },
        Workload {
            name: "serve_fanin_fifo",
            why: "4096 open-loop Poisson clients at 60% load through the eager FIFO dispatcher: harness submit and driver scans",
            scenario: Scenario::Serve({
                let mut run = FrontendRun::new(
                    RunConfig {
                        distribution: KeyDistribution::Zipfian { theta: 0.99 },
                        read_fraction: 0.5,
                        ..base(ptsbench::hashlog::register(), 64, 4000)
                    },
                    FANIN_CLIENTS,
                );
                run.shards = 4;
                run.sharding = Sharding::Hashed;
                run.arrival = ArrivalSpec::OpenPoisson {
                    mean_interarrival_ns: FANIN_INTERARRIVAL,
                };
                run
            }),
        },
        Workload {
            name: "serve_tenant_wfq",
            why: "fig_tenant overload under WFQ: the lazy dispatch path (waiting room, pump, select_next) with a growing backlog",
            scenario: Scenario::Serve({
                let mut run = FrontendRun::new(
                    RunConfig {
                        distribution: KeyDistribution::Zipfian { theta: 0.9 },
                        read_fraction: 1.0,
                        ..base(EngineKind::lsm(), 64, 75)
                    },
                    3,
                );
                run.shards = 4;
                run.discipline = DispatchDiscipline::WeightedFair { weights: [8, 1, 1] };
                let mut interactive = TenantSpec::new(ReqClass::Interactive, 2);
                interactive.arrival = Some(ArrivalSpec::OpenPoisson {
                    mean_interarrival_ns: WFQ_INTERACTIVE_INTERARRIVAL,
                });
                let mut batch = TenantSpec::new(ReqClass::Batch, 1);
                batch.arrival = Some(ArrivalSpec::OpenPoisson {
                    mean_interarrival_ns: WFQ_BATCH_INTERARRIVAL,
                });
                run.tenants = vec![interactive, batch];
                run
            }),
        },
    ];
    for w in &mut set {
        let cfg = w.scenario.base_mut();
        cfg.seed = seed;
        if quick {
            cfg.duration /= 20;
            cfg.sample_window /= 20;
        }
    }
    set
}
