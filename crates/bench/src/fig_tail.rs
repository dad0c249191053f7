//! Tail latency at the serving front-end — beyond the paper: p50/p99
//! queueing delay vs client fan-in (1 → 64) over a fixed fleet of 4
//! shards, contiguous vs hashed key routing.
//!
//! Clients are *open-loop* Poisson sources, so the offered load grows
//! with fan-in and does not back off when the server queues. A Zipfian
//! key distribution concentrates that load on a contiguous hot prefix:
//! with range partitioning the shard owning it saturates around fan-in
//! 64 while the rest idle, so p99 *queue delay* — measured separately
//! from device/engine service latency via the front-end's
//! `submitted_at`/`issued_at`/`done_at` timestamps — explodes with
//! fan-in. Hash routing spreads the same offered load nearly evenly and
//! keeps every shard below saturation: the same fan-in's tail stays
//! orders of magnitude lower. Service latency itself barely moves
//! either way — the tail lives in the dispatch queue, invisible to any
//! harness that stops at the engine API.
//!
//! `examples/fig_tail.rs` runs the study on every registered engine,
//! each at an arrival rate calibrated to its own service time, for 40
//! simulated minutes per run.

use std::collections::BTreeMap;

use ptsbench_core::frontend::FrontendRun;
use ptsbench_core::registry::{EngineKind, EngineRegistry};
use ptsbench_core::runner::RunConfig;
use ptsbench_core::sharded::Sharding;
use ptsbench_harness::run_frontend;
use ptsbench_metrics::runreport::RunReport;
use ptsbench_ssd::{Ns, MINUTE, SECOND};
use ptsbench_workload::{ArrivalSpec, KeyDistribution};

/// 64 MiB total: four 16 MiB shards, the smallest SSD1 geometry.
const TOTAL_BYTES: u64 = 64 << 20;
/// The fixed fleet the fan-in grows over.
const SHARDS: usize = 4;
/// Virtual time per run.
const DURATION: Ns = 40 * MINUTE;
const FAN_INS: [usize; 4] = [1, 4, 16, 64];
/// The pathological corner: the top fan-in under contiguous routing.
const CORNER: (Sharding, usize) = (Sharding::Contiguous, 64);

fn config(engine: EngineKind, clients: usize) -> FrontendRun {
    let mut cfg = FrontendRun::new(
        RunConfig {
            engine,
            device_bytes: TOTAL_BYTES,
            distribution: KeyDistribution::Zipfian { theta: 0.99 },
            read_fraction: 0.5,
            duration: DURATION,
            sample_window: DURATION / 4,
            ..RunConfig::default()
        },
        clients,
    );
    cfg.shards = SHARDS;
    cfg
}

/// Engines differ ~10x in per-op service time (the B+Tree's CPU budget
/// dwarfs the LSM's), so a fixed arrival rate would either starve the
/// fast engines of queueing or bury the slow ones under every routing.
/// A single closed-loop client probes the fleet's mean service time,
/// and the sweep offers ~45% of aggregate fleet capacity at the top
/// fan-in: enough to saturate the Zipfian hot shard under contiguous
/// routing (~85% of traffic onto a quarter of the capacity), with
/// comfortable headroom when hashing spreads it. Deterministic, like
/// everything else here.
fn calibrated_interarrival(engine: EngineKind) -> Ns {
    let probe = run_frontend(&config(engine, 1)).expect("calibration run");
    let mean_service = crate::mean_service(&probe);
    let raw = (FAN_INS[FAN_INS.len() - 1] as u64 * mean_service) as f64 / (0.45 * SHARDS as f64);
    // Round to 100 ms so report labels stay readable.
    ((raw as u64).div_ceil(SECOND / 10)).max(1) * (SECOND / 10)
}

fn serve(engine: EngineKind, sharding: Sharding, clients: usize, interarrival: Ns) -> RunReport {
    let mut cfg = config(engine, clients);
    cfg.sharding = sharding;
    cfg.arrival = ArrivalSpec::OpenPoisson {
        mean_interarrival_ns: interarrival,
    };
    run_frontend(&cfg).expect("frontend run")
}

/// Runs the fan-in sweep on every registered engine for 40 simulated
/// minutes per run, each engine's mean Poisson interarrival calibrated
/// to its service time, printing one table and the pathological
/// corner's full report per engine.
///
/// Asserts the figure's claims — p99 queue delay grows with fan-in
/// under contiguous routing, hashed routing bounds the saturated tail —
/// and that the serving report renders byte-identically run-to-run.
pub fn fig_tail() {
    crate::rule_banner(
        "fig_tail: queueing delay vs fan-in (serving front-end)",
        &format!(
            "{} MiB over {SHARDS} shards, Zipfian(0.99), open-loop Poisson (rate \
             calibrated per engine), {} simulated minutes, all registered engines",
            TOTAL_BYTES >> 20,
            DURATION / MINUTE
        ),
    );
    for engine in EngineRegistry::all() {
        let interarrival = calibrated_interarrival(engine);
        println!();
        println!(
            "{}: calibrated mean interarrival {:.1} s/client",
            engine.label(),
            interarrival as f64 / SECOND as f64
        );
        println!();
        println!(
            "{:>10} {:>7} {:>9} {:>13} {:>13} {:>13} {:>10} {:>9}",
            "routing",
            "fan-in",
            "ops",
            "qdelay p50",
            "qdelay p99",
            "service p99",
            "req ratio",
            "max util"
        );

        let mut p99 = BTreeMap::new();
        let mut corner = String::new();
        for sharding in [Sharding::Contiguous, Sharding::Hashed] {
            let name = match sharding {
                Sharding::Contiguous => "contiguous",
                Sharding::Hashed => "hashed",
            };
            for clients in FAN_INS {
                let report = serve(engine, sharding, clients, interarrival);
                let delay_p99 = report.queue_delay_quantile(0.99).expect("queue delay");
                let imbalance = report.load_imbalance().expect("load");
                p99.insert((name, clients), delay_p99);
                println!(
                    "{:>10} {:>7} {:>9} {:>13} {:>13} {:>13} {:>10.2} {:>9.3}",
                    name,
                    clients,
                    report.ops,
                    report.queue_delay_quantile(0.5).expect("queue delay"),
                    delay_p99,
                    report.latency.quantile(0.99),
                    imbalance.request_ratio(),
                    imbalance.max_utilization
                );
                if (sharding, clients) == CORNER {
                    corner = report.render();
                }
            }
        }

        // The figure's claim, asserted: under contiguous routing the
        // p99 queue delay grows with fan-in (the hot shard saturates);
        // hashed routing absorbs the same offered load with a bounded
        // tail.
        assert!(
            p99[&("contiguous", 4)] <= p99[&("contiguous", 16)]
                && p99[&("contiguous", 16)] < p99[&("contiguous", 64)],
            "{engine}: contiguous p99 queue delay must grow with fan-in: {p99:?}"
        );
        assert!(
            p99[&("contiguous", 64)] > 10 * p99[&("hashed", 64)],
            "{engine}: hashed routing must bound the saturated tail: {p99:?}"
        );
        assert!(
            p99[&("hashed", 64)] < 2 * MINUTE,
            "{engine}: hashed p99 queue delay out of bounds: {p99:?}"
        );

        println!();
        println!("full report at fan-in 64, contiguous (the pathological corner):");
        println!();
        println!("{corner}");
        assert_eq!(
            corner,
            serve(engine, CORNER.0, CORNER.1, interarrival).render(),
            "{engine}: serving reports must render byte-identically"
        );
    }
    println!();
    println!("determinism: byte-identical reports across runs — ok");
}
