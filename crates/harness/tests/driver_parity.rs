//! Output parity of the two drivers: `run_frontend` at the points where
//! its open-loop and closed-loop arrivals meet, and `run_sharded` where
//! client threads own several shards.
//!
//! The serving driver submits the earliest due arrival, ties by client index,
//! whichever kind of client it belongs to. These fixed runs force the
//! cases an arbitrary mix rarely draws, and pin each run's rendered
//! report and every per-shard `RunResult` as one FNV-1a:
//!
//! * open loops at one fixed rate (every one of them due at the same
//!   instants) interleaved by client index with zero-think closed
//!   loops, under FIFO and under WFQ;
//! * open loops only, on shards that run out of space mid-run, so open
//!   loops keep submitting to dead shards;
//! * a scaled-down serving fan-in: 256 Poisson clients over four hashed
//!   hash-log shards;
//! * the sharded driver with background maintenance and queued I/O on
//!   two clients of two shards each, and on two clients whose shards
//!   run out of space mid-run.
//!
//! A change that only reshapes the driver must not move any constant.

use ptsbench_core::frontend::{DispatchDiscipline, FrontendRun, TenantSpec};
use ptsbench_core::registry::EngineKind;
use ptsbench_core::runner::RunConfig;
use ptsbench_core::sharded::Sharding;
use ptsbench_core::{MaintConfig, ReqClass, ShardedRun};
use ptsbench_harness::{run_frontend_with_results, run_sharded_with_results, HarnessOutcome};
use ptsbench_ssd::{MINUTE, SECOND};
use ptsbench_testkit::{assert_golden, Fnv};
use ptsbench_workload::{ArrivalSpec, KeyDistribution};

/// One FNV-1a over the rendered report and every shard's `RunResult`
/// print. The report is printed too, so a failing test shows it.
fn sum(outcome: &HarnessOutcome) -> String {
    let report = outcome.report.render();
    println!("{report}");
    let mut sum = Fnv::new();
    sum.feed(report.as_bytes());
    for result in &outcome.shard_results {
        sum.feed(format!("{result:?}").as_bytes());
    }
    format!("{:016x}", sum.0)
}

fn tenant(class: ReqClass, clients: usize, arrival: ArrivalSpec) -> TenantSpec {
    TenantSpec {
        arrival: Some(arrival),
        ..TenantSpec::new(class, clients)
    }
}

/// Two zero-think closed loops, three open loops at one rate, two more
/// closed loops — in client-index order — over two hashed LSM shards.
/// Every client is due at t = 0, and the open loops again together at
/// every multiple of their gap.
fn tied(discipline: DispatchDiscipline) -> FrontendRun {
    let closed = ArrivalSpec::Closed { think_ns: 0 };
    let paced = ArrivalSpec::Open {
        interarrival_ns: 5 * SECOND,
    };
    let mut cfg = FrontendRun::new(
        RunConfig {
            engine: EngineKind::lsm(),
            device_bytes: 32 << 20,
            dataset_fraction: 0.1,
            read_fraction: 0.5,
            duration: 4 * MINUTE,
            sample_window: 2 * MINUTE,
            ..RunConfig::default()
        },
        7,
    );
    cfg.shards = 2;
    cfg.sharding = Sharding::Hashed;
    cfg.discipline = discipline;
    cfg.tenants = vec![
        tenant(ReqClass::Interactive, 2, closed),
        tenant(ReqClass::Batch, 3, paced),
        tenant(ReqClass::Background, 2, closed),
    ];
    cfg
}

#[test]
fn open_loops_tied_with_closed_loops_under_fifo() {
    let outcome = run_frontend_with_results(&tied(DispatchDiscipline::Fifo)).expect("run");
    assert_golden("parity/harness/driver_parity/TIED_FIFO.txt", &sum(&outcome));
}

#[test]
fn open_loops_tied_with_closed_loops_under_wfq() {
    let cfg = tied(DispatchDiscipline::WeightedFair { weights: [4, 2, 1] });
    let outcome = run_frontend_with_results(&cfg).expect("run");
    assert_golden("parity/harness/driver_parity/TIED_WFQ.txt", &sum(&outcome));
}

/// Open loops only, on two LSM shards filled to 95 %: the shards run
/// out of space mid-run and the open loops go on submitting to them
/// (their requests drop) until the submission window closes.
#[test]
fn open_loops_outlive_shards_that_run_out_of_space() {
    let mut cfg = FrontendRun::new(
        RunConfig {
            engine: EngineKind::lsm(),
            device_bytes: 32 << 20,
            dataset_fraction: 0.95,
            read_fraction: 0.0,
            duration: 10 * MINUTE,
            sample_window: 5 * MINUTE,
            ..RunConfig::default()
        },
        4,
    );
    cfg.shards = 2;
    cfg.arrival = ArrivalSpec::OpenPoisson {
        mean_interarrival_ns: SECOND,
    };
    let outcome = run_frontend_with_results(&cfg).expect("run");
    let got = sum(&outcome);
    assert_golden("parity/harness/driver_parity/OPEN_OUT_OF_SPACE.txt", &got);
    let report = outcome.report.render();
    assert!(report.contains("out_of_space_shards=2"), "{report}");
}

/// The serving fan-in scaled down: 256 Poisson clients over four
/// hashed hash-log shards, Zipfian keys, half reads.
#[test]
fn poisson_fan_in_over_hash_log_shards() {
    let mut cfg = FrontendRun::new(
        RunConfig {
            engine: ptsbench_hashlog::register(),
            device_bytes: 64 << 20,
            distribution: KeyDistribution::Zipfian { theta: 0.99 },
            read_fraction: 0.5,
            duration: 20 * MINUTE,
            sample_window: 10 * MINUTE,
            ..RunConfig::default()
        },
        256,
    );
    cfg.shards = 4;
    cfg.sharding = Sharding::Hashed;
    cfg.arrival = ArrivalSpec::OpenPoisson {
        mean_interarrival_ns: 144 * SECOND,
    };
    let outcome = run_frontend_with_results(&cfg).expect("run");
    assert_golden("parity/harness/driver_parity/FANIN_256.txt", &sum(&outcome));
}

/// The `sharded_lsm_bg` benchmark shape at test size: paced LSM
/// maintenance, queue depth 8, half reads, two clients of two 16 MiB
/// shards each.
#[test]
fn sharded_clients_own_several_shards_under_maintenance() {
    let mut cfg = ShardedRun::new(
        RunConfig {
            engine: EngineKind::lsm(),
            device_bytes: 64 << 20,
            read_fraction: 0.5,
            queue_depth: 8,
            maint: MaintConfig::enabled(),
            duration: 10 * MINUTE,
            sample_window: 5 * MINUTE,
            ..RunConfig::default()
        },
        2,
    );
    cfg.shards = 4;
    let outcome = run_sharded_with_results(&cfg).expect("run");
    let got = sum(&outcome);
    assert_golden("parity/harness/driver_parity/SHARDED_LSM_BG.txt", &got);
}

/// Two clients on LSM shards filled to 95 %: each shard runs out of
/// space mid-run after its own number of ops, so one client's shard has
/// ended while the other's still runs.
#[test]
fn sharded_shards_run_out_of_space_at_different_times() {
    let cfg = ShardedRun::new(
        RunConfig {
            engine: EngineKind::lsm(),
            device_bytes: 32 << 20,
            dataset_fraction: 0.95,
            duration: 10 * MINUTE,
            sample_window: 5 * MINUTE,
            ..RunConfig::default()
        },
        2,
    );
    let outcome = run_sharded_with_results(&cfg).expect("run");
    assert_golden(
        "parity/harness/driver_parity/SHARDED_OUT_OF_SPACE.txt",
        &sum(&outcome),
    );
    let report = outcome.report.render();
    assert!(report.contains("out_of_space_shards=2"), "{report}");
}
