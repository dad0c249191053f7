//! Output parity of the `run_frontend` driver at the points where its
//! open-loop and closed-loop arrivals meet.
//!
//! The driver submits the earliest due arrival, ties by client index,
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
//!   hash-log shards.
//!
//! A change that only reshapes the driver must not move any constant.

use ptsbench_core::frontend::{DispatchDiscipline, FrontendRun, TenantSpec};
use ptsbench_core::registry::EngineKind;
use ptsbench_core::runner::RunConfig;
use ptsbench_core::sharded::Sharding;
use ptsbench_core::ReqClass;
use ptsbench_harness::run_frontend_with_results;
use ptsbench_ssd::{MINUTE, SECOND};
use ptsbench_workload::{ArrivalSpec, KeyDistribution};

/// FNV-1a, length-delimited per field.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn feed(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self.0 ^= bytes.len() as u64;
        self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
    }
}

/// Runs `cfg` and folds the rendered report and every shard's
/// `RunResult` print into one sum; also returns the report.
fn checksum(cfg: &FrontendRun) -> (u64, String) {
    let outcome = run_frontend_with_results(cfg).expect("frontend run");
    let report = outcome.report.render();
    let mut sum = Fnv::new();
    sum.feed(report.as_bytes());
    for result in &outcome.shard_results {
        sum.feed(format!("{result:?}").as_bytes());
    }
    (sum.0, report)
}

fn assert_sum(name: &str, cfg: &FrontendRun, want: u64) -> String {
    let (got, report) = checksum(cfg);
    assert_eq!(
        got, want,
        "{name}: the run now sums to {got:#018x}; it renders\n{report}"
    );
    report
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

const TIED_FIFO: u64 = 0x85ea_ea55_9590_ee3f;
const TIED_WFQ: u64 = 0x2b83_2127_f3fa_cf03;

#[test]
fn open_loops_tied_with_closed_loops_under_fifo() {
    assert_sum("tied fifo", &tied(DispatchDiscipline::Fifo), TIED_FIFO);
}

#[test]
fn open_loops_tied_with_closed_loops_under_wfq() {
    let cfg = tied(DispatchDiscipline::WeightedFair { weights: [4, 2, 1] });
    assert_sum("tied wfq", &cfg, TIED_WFQ);
}

const OPEN_OUT_OF_SPACE: u64 = 0xb0b5_7dd1_7cea_ec5e;

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
    let report = assert_sum("open out of space", &cfg, OPEN_OUT_OF_SPACE);
    assert!(report.contains("out_of_space_shards=2"), "{report}");
}

const FANIN_256: u64 = 0xc859_68d3_e330_c3bd;

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
    assert_sum("fan-in 256", &cfg, FANIN_256);
}
