//! Client scaling — beyond the paper: aggregate throughput of every
//! registered engine under the concurrent sharded harness, sweeping
//! 1 → 8 client threads over a fixed total simulated capacity.
//!
//! Each client drives its own shared-nothing shard (own device slice,
//! own engine instance, own key range) on its own virtual clock.
//! Because the total capacity is fixed, the sweep
//! isolates the effect of request parallelism — the dimension Roh et
//! al. show flash SSDs need before revealing their internal
//! parallelism, and the axis the paper's single-threaded methodology
//! leaves unexplored.
//!
//! Each point runs 60 simulated minutes (`examples/fig_scaling.rs`).

use ptsbench_core::registry::{EngineKind, EngineRegistry};
use ptsbench_core::runner::RunConfig;
use ptsbench_core::sharded::ShardedRun;
use ptsbench_harness::run_sharded;
use ptsbench_metrics::runreport::RunReport;
use ptsbench_ssd::{Ns, MINUTE};

/// 128 MiB total: divides into eight 16 MiB shards, the smallest SSD1
/// geometry (8 erase blocks per shard device).
const TOTAL_BYTES: u64 = 128 << 20;
const CLIENT_SWEEP: [usize; 4] = [1, 2, 4, 8];
/// Virtual time per sweep point.
const DURATION: Ns = 60 * MINUTE;
/// The LSM sweep point that is run a second time for the determinism
/// check.
const RERUN: usize = 4;

fn drive(engine: EngineKind, clients: usize) -> RunReport {
    let sharded = ShardedRun::new(
        RunConfig {
            engine,
            device_bytes: TOTAL_BYTES,
            duration: DURATION,
            sample_window: DURATION / 4,
            ..RunConfig::default()
        },
        clients,
    );
    run_sharded(&sharded).expect("sharded run")
}

/// Runs the client sweep on every registered engine for 60 simulated
/// minutes per point, printing each point's merged report and the
/// speedup over one client.
///
/// Asserts that every engine scales (8 clients more than double the
/// aggregate steady throughput of 1) and the harness's headline
/// guarantee: with fixed seeds the merged report renders
/// byte-identically run-to-run.
pub fn fig_scaling() {
    println!("ptsbench fig_scaling — multi-client drive of every registered engine");
    println!(
        "total capacity {} MiB, {} simulated minutes, {}-minute windows",
        TOTAL_BYTES >> 20,
        DURATION / MINUTE,
        DURATION / 4 / MINUTE
    );

    let mut speedups = Vec::new();
    let mut lsm_rerun = None;
    for engine in EngineRegistry::all() {
        let mut kops = Vec::new();
        for clients in CLIENT_SWEEP {
            let report = drive(engine, clients);
            let rendered = report.render();
            let steady = report.steady_mean("kv_kops").unwrap_or(0.0);
            println!();
            println!("{rendered}");
            println!("steady aggregate: {steady:.3} Kops/s");
            kops.push(steady);
            if (engine, clients) == (EngineKind::lsm(), RERUN) {
                lsm_rerun = Some(rendered);
            }
        }
        let (one, eight) = (kops[0].max(f64::MIN_POSITIVE), kops[kops.len() - 1]);
        assert!(
            eight > 2.0 * one,
            "{engine}: 8 clients must scale aggregate throughput ({eight:.2} vs {one:.2} Kops)"
        );
        let row: String = std::iter::zip(CLIENT_SWEEP, &kops)
            .map(|(clients, k)| format!("  c{clients} {:.3}x", k / one))
            .collect();
        speedups.push(format!("{:>10}:{row}", engine.label()));
    }
    println!();
    println!("speedup of the steady aggregate over 1 client:");
    for line in speedups {
        println!("{line}");
    }

    assert_eq!(
        lsm_rerun.expect("the LSM is a built-in engine"),
        drive(EngineKind::lsm(), RERUN).render(),
        "fixed seeds must render byte-identical reports"
    );
    println!();
    println!("determinism check: two seeded runs rendered byte-identically");
}
