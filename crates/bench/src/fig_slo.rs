//! Goodput vs offered load at the serving front-end, with and without
//! admission control — beyond the paper, for every registered engine.
//!
//! The paper's core lesson is that steady-state behavior under
//! sustained pressure is what separates tree structures on flash; one
//! level up, a serving stack is characterized the same way — by its
//! goodput-vs-offered-load curve under sustained overload, not its
//! unloaded latency. This experiment sweeps open-loop Poisson offered
//! load from 0.2× to 3× each engine fleet's measured saturation rate
//! and runs every point twice:
//!
//! * **control** (`SloPolicy::None`) — the dispatcher admits
//!   everything. Past saturation the backlog grows without bound for
//!   the rest of the run, so p99 *queue delay* collapses into the
//!   widened histogram tail (simulated minutes against a deadline of a
//!   few seconds);
//! * **shed** (`SloPolicy::PredictedSojourn`) — the dispatcher rejects
//!   any request whose predicted queue delay plus an EWMA of observed
//!   service time exceeds the deadline. Admission is deterministic, so
//!   the prediction is exact: every admitted request *starts* within
//!   its budget, goodput plateaus at the fleet's capacity, and the
//!   queue-delay tail of admitted requests stays below the deadline no
//!   matter how far past saturation the offered load climbs.
//!
//! Each engine's saturation rate and deadline are calibrated from a
//! closed-loop probe of its own fleet (engines differ ~8× in per-op
//! service time), so the same sweep shape stresses all three equally.
//!
//! Each point runs 40 simulated minutes (`examples/fig_slo.rs`).

use std::collections::BTreeMap;

use ptsbench_core::frontend::{FrontendRun, SloPolicy};
use ptsbench_core::registry::{EngineKind, EngineRegistry};
use ptsbench_core::runner::RunConfig;
use ptsbench_harness::run_frontend;
use ptsbench_metrics::runreport::RunReport;
use ptsbench_ssd::{Ns, MILLISECOND, MINUTE, SECOND};
use ptsbench_workload::ArrivalSpec;

/// 64 MiB total: four 16 MiB shards, the smallest SSD1 geometry.
const TOTAL_BYTES: u64 = 64 << 20;
const SHARDS: usize = 4;
const CLIENTS: usize = 8;
/// Offered load as multiples of the calibrated saturation rate.
const LOAD_FACTORS: [f64; 5] = [0.2, 0.5, 1.0, 2.0, 3.0];
/// Virtual time per run.
const DURATION: Ns = 40 * MINUTE;

fn config(engine: EngineKind) -> FrontendRun {
    let mut cfg = FrontendRun::new(
        RunConfig {
            engine,
            device_bytes: TOTAL_BYTES,
            read_fraction: 0.5,
            duration: DURATION,
            sample_window: DURATION / 4,
            ..RunConfig::default()
        },
        CLIENTS,
    );
    cfg.shards = SHARDS;
    cfg
}

fn serve(engine: EngineKind, arrival: ArrivalSpec, slo: SloPolicy) -> RunReport {
    let mut cfg = config(engine);
    cfg.arrival = arrival;
    cfg.slo = slo.into();
    run_frontend(&cfg).expect("frontend run")
}

/// Sweeps offered load on every registered engine for 40 simulated
/// minutes per point, control against `PredictedSojourn` shedding,
/// printing one table per engine.
///
/// Asserts per engine that no admitted request starts past the
/// deadline, that goodput grows below saturation and plateaus past it
/// (3x goodput >= 90% of 1x), and that the no-policy control's p99
/// queue delay collapses to more than 10x the deadline; then that
/// SLO-governed reports render byte-identically run-to-run.
pub fn fig_slo() {
    println!("ptsbench fig_slo — goodput vs offered load under admission control");
    println!(
        "{} MiB over {SHARDS} shards, {CLIENTS} open-loop Poisson clients, 50:50 \
         read:write, {} simulated minutes; control vs PredictedSojourn shedding",
        TOTAL_BYTES >> 20,
        DURATION / MINUTE
    );

    for engine in EngineRegistry::all() {
        // Engines differ ~8x in per-op service time, so rates and
        // deadlines are calibrated per engine from one zero-think
        // closed-loop client (no queueing, pure service).
        let mut probe = config(engine);
        probe.clients = 1;
        let mean_service = crate::mean_service(&run_frontend(&probe).expect("calibration run"));
        // The fleet saturates at one request per mean service time per
        // shard; at factor 1.0 the CLIENTS Poisson sources offer
        // exactly that in aggregate. Interarrivals round to 10 ms and
        // the deadline (4x the mean service) to 100 ms, purely for
        // label readability.
        let saturation_interarrival = ((CLIENTS as u64 * mean_service / SHARDS as u64)
            .div_ceil(10 * MILLISECOND)
            .max(1))
            * (10 * MILLISECOND);
        let deadline = (4 * mean_service).div_ceil(100 * MILLISECOND) * (100 * MILLISECOND);
        let base = ArrivalSpec::OpenPoisson {
            mean_interarrival_ns: saturation_interarrival,
        };
        println!();
        println!(
            "{}: mean service {:.1} ms, saturation interarrival {:.2} s/client, \
             deadline {:.1} s",
            engine.label(),
            mean_service as f64 / MILLISECOND as f64,
            saturation_interarrival as f64 / SECOND as f64,
            deadline as f64 / SECOND as f64
        );
        println!(
            "{:>6} {:>10} | {:>12} {:>12} {:>8} | {:>12} {:>12} {:>8} {:>7} {:>7}",
            "load",
            "offered/s",
            "ctl good/s",
            "ctl p99(s)",
            "ctl att",
            "shed good/s",
            "shed p99(s)",
            "shed att",
            "rej",
            "shed"
        );

        let mut goodput_by_factor = BTreeMap::new();
        let mut control_p99_at_3x = 0;
        for factor in LOAD_FACTORS {
            let arrival = base.at_load_factor(factor);

            // Control: everything is admitted; the SLO-miss fraction is
            // estimated from the queue-delay distribution (no
            // per-request accounting exists without a policy).
            let control = serve(engine, arrival, SloPolicy::None);
            let ctl_qd = control.queue_delay.as_ref().expect("queue delay");
            let ctl_p99 = control.queue_delay_quantile(0.99).expect("p99");
            let ctl_att = ctl_qd.fraction_at_most(deadline);
            let ctl_goodput = control.ops as f64 * ctl_att / (DURATION as f64 / 1e9);
            if factor == 3.0 {
                control_p99_at_3x = ctl_p99;
            }

            // Shedding: the dispatcher turns away what would miss.
            let shed = serve(
                engine,
                arrival,
                SloPolicy::PredictedSojourn {
                    deadline_ns: deadline,
                },
            );
            let totals = shed.slo_totals().expect("slo accounting");
            let shed_qd = shed.queue_delay.as_ref().expect("queue delay");
            assert!(
                shed_qd.max() <= deadline,
                "{engine}: an admitted request started past the deadline \
                 ({} > {deadline}) — the sojourn prediction must be exact",
                shed_qd.max()
            );
            goodput_by_factor.insert((factor * 10.0) as u64, totals.goodput_per_sec());

            println!(
                "{:>5.1}x {:>10.2} | {:>12.2} {:>12.2} {:>8.4} | {:>12.2} {:>12.3} {:>8.4} {:>7} {:>7}",
                factor,
                totals.offered_per_sec(),
                ctl_goodput,
                ctl_p99 as f64 / 1e9,
                ctl_att,
                totals.goodput_per_sec(),
                shed.queue_delay_quantile(0.99).expect("p99") as f64 / 1e9,
                totals.attainment(),
                totals.rejected,
                totals.shed
            );
        }

        // The figure's claims, asserted per engine.
        let at = |f: f64| goodput_by_factor[&((f * 10.0) as u64)];
        assert!(
            at(3.0) >= 0.9 * at(1.0),
            "{engine}: goodput must plateau past saturation: {goodput_by_factor:?}"
        );
        assert!(
            at(1.0) > 2.0 * at(0.2),
            "{engine}: goodput must still grow below saturation: {goodput_by_factor:?}"
        );
        assert!(
            control_p99_at_3x > 10 * deadline,
            "{engine}: the no-policy control must collapse into the tail at 3x \
             (p99 {control_p99_at_3x} vs deadline {deadline})"
        );
    }

    // Headline guarantee: the SLO-governed report is deterministic,
    // under submit-time rejection by prediction and by queue bound.
    for slo in [
        SloPolicy::PredictedSojourn {
            deadline_ns: 2 * SECOND,
        },
        SloPolicy::QueueBound { max_pending: 4 },
    ] {
        let arrival = ArrivalSpec::OpenPoisson {
            mean_interarrival_ns: SECOND,
        };
        let run = || serve(EngineKind::lsm(), arrival, slo).render();
        assert_eq!(run(), run(), "SLO reports must render byte-identically");
    }
    println!();
    println!("determinism: byte-identical SLO reports across runs — ok");
}
