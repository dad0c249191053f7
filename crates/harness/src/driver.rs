//! The multi-client driver: one thread per client over its own shards, merge.

use ptsbench_core::engine::PtsError;
use ptsbench_core::measure::Experiment;
use ptsbench_core::runner::RunResult;
use ptsbench_core::sharded::ShardedRun;
use ptsbench_metrics::runreport::{QueueDepthSummary, RunReport, ShardReport};

/// Everything a sharded run produces: the merged report plus the full
/// per-shard [`RunResult`]s (in shard-index order) for callers that
/// want the single-run level of detail.
#[derive(Debug, Clone)]
pub struct HarnessOutcome {
    /// The merged run-level report.
    pub report: RunReport,
    /// Per-shard results, indexed by shard.
    pub shard_results: Vec<RunResult>,
}

/// Runs a concurrent sharded experiment and returns the merged report.
///
/// Spawns `cfg.clients` OS threads; each prepares its own disjoint
/// subset of the `cfg.shards` shard experiments, runs each one through
/// the whole measured phase and finishes them in shard order. Shards
/// share nothing, so the threads never wait for one another.
/// Per-shard out-of-space ends that shard early but the run continues;
/// any hard engine failure ends its client and is returned, and a
/// client's panic is resumed on the caller's thread.
///
/// With fixed seeds the merged report is byte-identical run-to-run —
/// shard simulations share nothing, so thread scheduling cannot perturb
/// them.
pub fn run_sharded(cfg: &ShardedRun) -> Result<RunReport, PtsError> {
    Ok(run_sharded_with_results(cfg)?.report)
}

/// [`run_sharded`], also returning the per-shard [`RunResult`]s.
pub fn run_sharded_with_results(cfg: &ShardedRun) -> Result<HarnessOutcome, PtsError> {
    cfg.validate();

    let per_client: Vec<Result<Vec<(usize, RunResult)>, PtsError>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..cfg.clients)
            .map(|client| s.spawn(move || drive_client(cfg, client)))
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(r) => r,
                Err(panic) => std::panic::resume_unwind(panic),
            })
            .collect()
    });

    // Deterministic merge order: flatten in client order, then sort by
    // shard index. Errors propagate lowest-client-first.
    let mut results: Vec<(usize, RunResult)> = Vec::with_capacity(cfg.shards);
    for client_results in per_client {
        results.extend(client_results?);
    }
    results.sort_by_key(|(shard, _)| *shard);

    let reports = results
        .iter()
        .map(|(shard, r)| base_shard_report(cfg.base.queue_depth, *shard, r))
        .collect();
    let report = RunReport::merge(cfg.label(), cfg.clients, reports);
    Ok(HarnessOutcome {
        report,
        shard_results: results.into_iter().map(|(_, r)| r).collect(),
    })
}

/// One client thread: prepare every owned shard, run each through the
/// measured phase, finish them.
fn drive_client(cfg: &ShardedRun, client: usize) -> Result<Vec<(usize, RunResult)>, PtsError> {
    let mut experiments: Vec<(usize, Experiment)> = Vec::new();
    for shard in cfg.shards_of_client(client) {
        let shard_cfg = cfg.shard_config(shard);
        let workload = cfg.shard_workload(shard);
        experiments.push((shard, Experiment::prepare_with(&shard_cfg, workload)?));
    }
    for (_, experiment) in experiments.iter_mut() {
        experiment.run_until(cfg.base.duration)?;
    }
    Ok(experiments
        .into_iter()
        .map(|(shard, experiment)| (shard, experiment.finish()))
        .collect())
}

/// A shard's contribution to the merged report, shared by the sharded
/// driver and the serving front-end. The series listed here are the
/// *additive* ones (rates sum across shards). Queue-depth metrics
/// appear only for asynchronous (`queue_depth > 1`) runs, so depth-1
/// reports render byte-identically to the pre-queue harness; the
/// front-end's queue-delay/load extensions start out `None` and are
/// attached only by non-conformant front-end runs.
pub(crate) fn base_shard_report(queue_depth: usize, index: usize, r: &RunResult) -> ShardReport {
    ShardReport {
        name: format!("shard{index}"),
        ops: r.ops_executed,
        out_of_space: r.out_of_space,
        latency: r.latency.clone(),
        app_bytes: r.app_bytes_written,
        host_bytes: r.host_bytes_written,
        io_depth: (queue_depth > 1).then(|| QueueDepthSummary {
            submitted: r.io_depth.submitted,
            max_in_flight: r.io_depth.max_in_flight,
            mean_in_flight: r.io_depth.mean_in_flight(),
        }),
        cache: r.cache,
        cause: r.cause,
        maint: r.maint,
        queue_delay: None,
        load: None,
        slo: None,
        mt: None,
        series: vec![r.throughput_series(), r.device_write_series()],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptsbench_core::registry::EngineKind;
    use ptsbench_core::runner::{run, RunConfig};
    use ptsbench_ssd::MINUTE;

    /// Small enough for debug-mode tests: 16 MiB per shard (the SSD1
    /// geometry floor), short measured phase.
    fn base(total_bytes: u64) -> RunConfig {
        RunConfig {
            engine: EngineKind::lsm(),
            device_bytes: total_bytes,
            duration: 10 * MINUTE,
            sample_window: 5 * MINUTE,
            ..RunConfig::default()
        }
    }

    #[test]
    fn one_client_matches_the_unsharded_runner() {
        let cfg = base(32 << 20);
        let single = run(&cfg).expect("single run");
        let sharded = ShardedRun::new(cfg, 1);
        let outcome = run_sharded_with_results(&sharded).expect("sharded run");
        let shard = &outcome.shard_results[0];
        assert_eq!(shard.ops_executed, single.ops_executed);
        assert_eq!(shard.samples, single.samples);
        assert_eq!(outcome.report.ops, single.ops_executed);
        assert_eq!(
            outcome.report.latency.count(),
            single.latency.count(),
            "merged latency must equal the single run's"
        );

        // Shared nothing: with two clients of two shards each and paced
        // maintenance, every shard equals the same shard run alone on
        // this thread.
        let mut sharded = ShardedRun::new(
            RunConfig {
                maint: ptsbench_core::MaintConfig::enabled(),
                ..base(64 << 20)
            },
            2,
        );
        sharded.shards = 4;
        let outcome = run_sharded_with_results(&sharded).expect("sharded run");
        for (i, shard) in outcome.shard_results.iter().enumerate() {
            let shard_cfg = sharded.shard_config(i);
            let mut alone = Experiment::prepare_with(&shard_cfg, sharded.shard_workload(i))
                .expect("prepare alone");
            alone.run_until(shard_cfg.duration).expect("run alone");
            let alone = alone.finish();
            assert_eq!(shard.samples, alone.samples, "shard {i}");
            assert_eq!(shard.ops_executed, alone.ops_executed, "shard {i}");
            assert_eq!(shard.latency.count(), alone.latency.count(), "shard {i}");
            assert_eq!(
                shard.host_bytes_written, alone.host_bytes_written,
                "shard {i}"
            );
            assert!(alone.maint.is_some(), "shard {i} runs maintenance");
            assert_eq!(shard.maint, alone.maint, "shard {i}");
        }
    }

    #[test]
    fn two_clients_double_aggregate_virtual_throughput() {
        let one = run_sharded(&ShardedRun::new(base(32 << 20), 1)).expect("1 client");
        let two = run_sharded(&ShardedRun::new(base(64 << 20), 2)).expect("2 clients");
        assert!(one.ops > 0);
        assert!(
            two.ops as f64 > 1.5 * one.ops as f64,
            "2 clients must scale aggregate ops: {} vs {}",
            two.ops,
            one.ops
        );
        // Merged series sum per-shard rates on aligned windows.
        let kops = two.series_named("kv_kops").expect("kops series");
        assert_eq!(kops.len(), 2, "10 min / 5 min windows");
    }

    #[test]
    fn reports_are_byte_identical_across_runs() {
        let cfg = || {
            let mut s = ShardedRun::new(base(64 << 20), 2);
            s.shards = 4;
            s
        };
        let a = run_sharded(&cfg()).expect("run a").render();
        let b = run_sharded(&cfg()).expect("run b").render();
        assert_eq!(a, b, "fixed seeds must reproduce the report exactly");
        assert!(a.contains("shards=4"));
    }

    #[test]
    fn shards_outnumbering_clients_are_interleaved() {
        let mut sharded = ShardedRun::new(base(64 << 20), 2);
        sharded.shards = 4;
        let outcome = run_sharded_with_results(&sharded).expect("run");
        assert_eq!(outcome.shard_results.len(), 4);
        assert_eq!(outcome.report.shards.len(), 4);
        for (i, shard) in outcome.report.shards.iter().enumerate() {
            assert_eq!(shard.name, format!("shard{i}"), "merge order by index");
            assert!(shard.ops > 0, "shard {i} must execute ops");
        }
    }

    #[test]
    fn hash_sharded_runs_work_and_are_deterministic() {
        use ptsbench_core::sharded::Sharding;
        let cfg = || {
            let mut s = ShardedRun::new(base(32 << 20), 2);
            s.sharding = Sharding::Hashed;
            s
        };
        let a = run_sharded(&cfg()).expect("hashed run a");
        assert!(a.ops > 0);
        for shard in &a.shards {
            assert!(shard.ops > 0, "every hash shard must execute ops");
        }
        let b = run_sharded(&cfg()).expect("hashed run b");
        assert_eq!(a.render(), b.render(), "hashed routing stays deterministic");
    }

    #[test]
    fn queue_depth_surfaces_in_the_report_only_above_one() {
        // QD=1: the report must render byte-identically to an untouched
        // default config (the pre-queue renderer).
        let mut explicit = base(32 << 20);
        explicit.queue_depth = 1;
        let default_render = run_sharded(&ShardedRun::new(base(32 << 20), 1))
            .expect("default run")
            .render();
        let explicit_render = run_sharded(&ShardedRun::new(explicit, 1))
            .expect("qd1 run")
            .render();
        assert_eq!(default_render, explicit_render);
        assert!(!default_render.contains("qd["));

        // QD=8 on a read-mixed workload: depth metrics appear.
        let mut deep = base(32 << 20);
        deep.queue_depth = 8;
        deep.read_fraction = 0.5;
        let report = run_sharded(&ShardedRun::new(deep, 1)).expect("qd8 run");
        assert!(report.label.contains("/qd8"));
        let text = report.render();
        assert!(
            text.contains("qd[submitted="),
            "deep runs must report in-flight depth: {text}"
        );
    }

    #[test]
    fn client_panic_propagates_instead_of_deadlocking() {
        use ptsbench_core::engine::PtsEngine;
        use ptsbench_core::registry::{EngineDescriptor, EngineRegistry, EngineTuning, Lifecycle};
        use ptsbench_vfs::Vfs;

        fn build_panicking(
            _vfs: Vfs,
            _tuning: &EngineTuning,
            _lifecycle: Lifecycle,
        ) -> Result<Box<dyn PtsEngine>, PtsError> {
            panic!("engine construction panic (test)")
        }
        let kind = EngineRegistry::register(EngineDescriptor {
            name: "Panicking (test)",
            label: "panic-test-engine",
            default_cpu_cost_ns: 1,
            build: build_panicking,
        });
        let mut cfg = base(32 << 20);
        cfg.engine = kind;
        let sharded = ShardedRun::new(cfg, 2);
        // The panic reaches the caller through the client's join.
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_sharded(&sharded)));
        assert!(outcome.is_err(), "the client panic must propagate");
    }

    #[test]
    fn out_of_space_shards_end_early_without_killing_the_run() {
        let mut cfg = base(32 << 20);
        cfg.dataset_fraction = 0.95;
        let sharded = ShardedRun::new(cfg, 2);
        let report = run_sharded(&sharded).expect("harness must survive ENOSPC shards");
        assert!(
            report.out_of_space_shards() > 0,
            "95% dataset must not fit an LSM's space amplification"
        );
    }
}
