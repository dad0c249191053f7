//! Latency conformance: the timing behavior of every layer of the
//! serving stack, pinned for every registered engine.
//!
//! PR 3 established the depth-1 equivalence guarantee at the device:
//! an `IoQueue` of depth 1 reproduces the synchronous device calls
//! byte-identically. This suite extends that guarantee up through the
//! new serving layer — a front-end run in its conformance shape
//! (`FrontendRun::conformant`: bound clients, closed loop, zero think
//! time, dispatcher depth 1) must reproduce the direct
//! `Experiment`-driven sharded harness **byte-identically at the
//! rendered-report level**, for each engine in the registry. The suite
//! resolves engines purely through the registry, so a newly registered
//! engine is automatically held to the same timing spec.

use ptsbench::core::frontend::{FrontendRun, TenantSpec};
use ptsbench::core::registry::EngineKind;
use ptsbench::core::runner::run;
use ptsbench::core::sharded::{ShardedRun, Sharding};
use ptsbench::core::ReqClass;
use ptsbench::harness::{run_frontend, run_frontend_with_results, run_sharded_with_results};
use ptsbench::ssd::{MINUTE, SECOND};
use ptsbench::workload::ArrivalSpec;
use ptsbench_testkit::assert_golden;

mod common;
use common::{base, engines};

/// The tentpole guarantee: a QD=1 front-end run reproduces the direct
/// `Experiment` path byte-identically — same label, same per-shard op
/// counts, latency quantiles, byte counters, series tables — for every
/// registered engine. `diff` of the two rendered reports is empty.
#[test]
fn conformant_frontend_reproduces_direct_runs_for_every_engine() {
    for engine in engines() {
        let direct = run_sharded_with_results(&ShardedRun::new(base(engine, 32 << 20), 2))
            .expect("sharded run");
        let served = run_frontend_with_results(&FrontendRun::conformant(base(engine, 32 << 20), 2))
            .expect("frontend run");
        assert_eq!(
            direct.report.render(),
            served.report.render(),
            "{engine}: front-end QD=1 report must diff empty against the direct run"
        );
        // The render equality is backed by result-level equality, not
        // formatting coincidence.
        for (shard, (d, s)) in direct
            .shard_results
            .iter()
            .zip(&served.shard_results)
            .enumerate()
        {
            assert_eq!(d.ops_executed, s.ops_executed, "{engine} shard {shard}");
            assert_eq!(d.samples, s.samples, "{engine} shard {shard} samples");
            assert_eq!(d.latency.count(), s.latency.count());
            assert_eq!(d.latency.quantile(0.99), s.latency.quantile(0.99));
            assert_eq!(d.app_bytes_written, s.app_bytes_written);
            assert_eq!(d.host_bytes_written, s.host_bytes_written);
            assert_eq!(d.out_of_space, s.out_of_space);
        }
    }
}

/// The equivalence holds through the engines' own asynchronous read
/// paths too: with an engine-level I/O queue depth above 1 (batched
/// scans, detached compaction reads) the front-end still reproduces
/// the direct run byte-identically, because its dispatcher sits above
/// the engine, not inside it.
#[test]
fn conformance_survives_engine_level_queue_depth() {
    let mut cfg = base(EngineKind::lsm(), 32 << 20);
    cfg.queue_depth = 8;
    cfg.read_fraction = 0.5;
    let direct = ptsbench::harness::run_sharded(&ShardedRun::new(cfg.clone(), 2)).expect("direct");
    let served = run_frontend(&FrontendRun::conformant(cfg, 2)).expect("served");
    assert_eq!(direct.render(), served.render());
    assert!(direct.render().contains("qd[submitted="));
}

/// One bound client over one shard equals the plain unsharded runner:
/// the conformance chain reaches all the way down to `run()`.
#[test]
fn single_client_frontend_matches_the_unsharded_runner() {
    let cfg = base(EngineKind::lsm(), 32 << 20);
    let single = run(&cfg).expect("single run");
    let outcome = run_frontend_with_results(&FrontendRun::conformant(cfg, 1)).expect("frontend");
    let shard = &outcome.shard_results[0];
    assert_eq!(shard.ops_executed, single.ops_executed);
    assert_eq!(shard.samples, single.samples);
    assert_eq!(shard.latency.count(), single.latency.count());
    assert_eq!(shard.host_bytes_written, single.host_bytes_written);
}

/// In the conformant shape, queueing cannot occur (one bound client
/// per shard, closed loop) — and the report must not even mention the
/// serving layer, preserving the pre-front-end renderer byte-for-byte.
#[test]
fn conformant_reports_carry_no_serving_metrics() {
    let report = run_frontend(&FrontendRun::conformant(
        base(EngineKind::lsm(), 32 << 20),
        2,
    ))
    .expect("run");
    assert!(report.queue_delay.is_none());
    assert!(report.load_imbalance().is_none());
    let text = report.render();
    assert!(!text.contains("queue delay"));
    assert!(!text.contains("qdelay["));
    assert!(!text.contains("load["));
}

/// Any departure from the conformant shape *does* surface the serving
/// layer: fan-in above the shard count must produce non-zero queue
/// delay, and the sum of served requests across shards must equal the
/// merged latency count (no request measured twice, none lost).
#[test]
fn fan_in_surfaces_queue_delay_for_every_engine() {
    for engine in engines() {
        let mut cfg = FrontendRun::new(base(engine, 32 << 20), 6);
        cfg.shards = 2;
        cfg.base.read_fraction = 0.5;
        let report = run_frontend(&cfg).expect("run");
        let qd = report.queue_delay.as_ref().expect("serving metrics");
        assert!(
            report.queue_delay_quantile(0.99).expect("p99") > 0,
            "{engine}: 6 clients on 2 shards must queue"
        );
        assert_eq!(
            qd.count(),
            report.latency.count(),
            "{engine}: every served request has exactly one queue-delay sample"
        );
        let loads: u64 = report
            .shards
            .iter()
            .map(|s| s.load.expect("load metrics").served)
            .sum();
        assert_eq!(loads, report.ops, "{engine}: load accounting matches ops");
    }
}

/// The hashed-routing conformance shape also diffs empty: sharding mode
/// is orthogonal to the serving layer's depth-1 equivalence.
#[test]
fn conformance_holds_under_hashed_sharding() {
    let mut direct_cfg = ShardedRun::new(base(EngineKind::lsm(), 32 << 20), 2);
    direct_cfg.sharding = Sharding::Hashed;
    let direct = ptsbench::harness::run_sharded(&direct_cfg).expect("direct");
    let mut served_cfg = FrontendRun::conformant(base(EngineKind::lsm(), 32 << 20), 2);
    served_cfg.sharding = Sharding::Hashed;
    let served = run_frontend(&served_cfg).expect("served");
    assert_eq!(direct.render(), served.render());
    assert!(direct.render().contains("/hash"));
}

/// The driver's event order, pinned against history: 128 Poisson
/// clients, 128 closed-loop clients with think time and one fixed-rate
/// client share two hashed FIFO shards (all 257 are due at t = 0, so
/// the client-index tie-break decides the first 257 submissions). The
/// snapshot was rendered by the driver that scanned every client per
/// event, before `run_frontend` kept its arrivals in a heap.
#[test]
fn mixed_arrival_fleet_matches_the_scanning_driver_golden_output() {
    let mut cfg = FrontendRun::new(base(EngineKind::lsm(), 32 << 20), 257);
    cfg.shards = 2;
    cfg.sharding = Sharding::Hashed;
    cfg.base.read_fraction = 0.5;
    cfg.base.duration = 30 * MINUTE;
    let tenant = |class, clients, arrival| TenantSpec {
        arrival: Some(arrival),
        ..TenantSpec::new(class, clients)
    };
    cfg.tenants = vec![
        tenant(
            ReqClass::Interactive,
            128,
            ArrivalSpec::OpenPoisson {
                mean_interarrival_ns: 600 * SECOND,
            },
        ),
        tenant(
            ReqClass::Batch,
            128,
            ArrivalSpec::Closed {
                think_ns: 400 * SECOND,
            },
        ),
        tenant(
            ReqClass::Background,
            1,
            ArrivalSpec::Open {
                interarrival_ns: 20 * SECOND,
            },
        ),
    ];
    let got = run_frontend(&cfg).expect("run").render();
    assert_golden("frontend_mixed257.txt", &got);
}
