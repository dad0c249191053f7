//! Write stalls vs background maintenance — beyond the paper:
//! foreground put latency with maintenance inline (the seed behavior)
//! against deferred, rate-budgeted background jobs, for every
//! registered engine.
//!
//! `fig_anatomy` showed *where* the put tail comes from: the slowest
//! puts execute a whole memtable flush or multi-table compaction
//! inline. This experiment measures what deferring that work buys.
//! Each engine fleet serves the same sustained Zipfian write load (64
//! closed-loop clients over four shards — at least 1× saturation by
//! construction) twice:
//!
//! * **inline** (`MaintConfig::default()`) — the triggering put pays
//!   for flush/compaction/GC/checkpoint in its own latency, exactly as
//!   in every prior figure;
//! * **background** (`MaintConfig::enabled()`) — the write path only
//!   enqueues a job ticket; the harness pumps bounded, rate-budgeted
//!   slices between foreground ops on the same shard clock, and the
//!   device feels the work as detached background traffic.
//!
//! The table reports per-mode foreground put latency quantiles plus
//! the background mode's maintenance accounting: jobs, slices, write
//! amplification (host/app bytes) and space amplification (used/live
//! bytes). The study asserts the subsystem's headline guarantees:
//!
//! * the LSM's foreground p99 put latency drops by at least 10× when
//!   maintenance moves off the foreground clock;
//! * every shard's space amplification stays within the
//!   `MAX_SPACE_AMP` ceiling (the urgency override that forces GC
//!   past the pacing gate);
//! * write-amp/space-amp are reported only when maintenance is active
//!   — inline reports carry no maintenance accounting at all;
//! * background-mode runs are deterministic — byte-identical reports
//!   run-to-run.
//!
//! Each run serves 20 simulated minutes (`examples/fig_stall.rs`, which
//! registers the hash log first).

use ptsbench_core::frontend::FrontendRun;
use ptsbench_core::registry::{EngineKind, EngineRegistry};
use ptsbench_core::runner::RunConfig;
use ptsbench_harness::{run_frontend_with_results, HarnessOutcome};
use ptsbench_maint::{MaintConfig, MAX_SPACE_AMP};
use ptsbench_ssd::{Ns, MINUTE};
use ptsbench_workload::KeyDistribution;

/// 64 MiB total: four 16 MiB shards, the smallest SSD1 geometry.
const TOTAL_BYTES: u64 = 64 << 20;
const SHARDS: usize = 4;
/// The fig_tail fan-in maximum: enough closed-loop clients to keep
/// every shard saturated for the whole measured phase.
const FAN_IN: usize = 64;
/// Virtual time per run.
const DURATION: Ns = 20 * MINUTE;

/// A sustained-write serving run: Zipfian skew, pure puts, closed-loop
/// clients (the fleet always runs at its own saturation rate).
fn serve(engine: EngineKind, maint: MaintConfig) -> HarnessOutcome {
    let mut cfg = FrontendRun::new(
        RunConfig {
            engine,
            device_bytes: TOTAL_BYTES,
            distribution: KeyDistribution::Zipfian { theta: 0.99 },
            read_fraction: 0.0,
            duration: DURATION,
            sample_window: DURATION / 4,
            maint,
            ..RunConfig::default()
        },
        FAN_IN,
    );
    cfg.shards = SHARDS;
    run_frontend_with_results(&cfg).expect("frontend run")
}

/// Runs the study over every registered engine, prints its table and
/// asserts its claims.
pub fn fig_stall() {
    crate::rule_banner(
        "fig_stall: write stalls vs background maintenance",
        &format!(
            "{} MiB over {SHARDS} shards, Zipfian(0.99) pure writes, {FAN_IN} \
             closed-loop clients, {} simulated minutes; inline vs deferred \
             maintenance",
            TOTAL_BYTES >> 20,
            DURATION / MINUTE
        ),
    );
    println!();
    println!(
        "{:>8} {:>7} | {:>10} {:>12} {:>12} | {:>6} {:>7} {:>8} {:>8} {:>12}",
        "engine", "mode", "puts", "p50(ms)", "p99(ms)", "jobs", "slices", "wa", "sa", "stall(ms)"
    );

    let mut p99 = std::collections::BTreeMap::new();
    let mut lsm_bg = None;
    for engine in EngineRegistry::all() {
        for (mode, maint) in [
            ("inline", MaintConfig::default()),
            ("bg", MaintConfig::enabled()),
        ] {
            let outcome = serve(engine, maint);
            let report = &outcome.report;
            let totals = report.maint_totals();

            // Maintenance accounting appears exactly when maintenance
            // is active: never on inline runs, on every shard of a
            // background run.
            if maint.enabled {
                for (i, r) in outcome.shard_results.iter().enumerate() {
                    let stats = r.maint.expect("background shards carry maintenance stats");
                    assert!(
                        stats.space_amp() <= MAX_SPACE_AMP as f64,
                        "{engine} shard{i}: space amplification {:.4} exceeds \
                         the max_space_amp ceiling of {MAX_SPACE_AMP}",
                        stats.space_amp(),
                    );
                }
                assert!(
                    report.render().contains("maint:"),
                    "{engine}: background reports must render the maintenance footer"
                );
            } else {
                assert!(
                    outcome.shard_results.iter().all(|r| r.maint.is_none()),
                    "{engine}: inline shards must carry no maintenance accounting"
                );
                assert!(
                    !report.render().contains("maint"),
                    "{engine}: inline reports must not mention maintenance"
                );
            }

            let q99 = report.latency.quantile(0.99);
            p99.insert((engine.label(), mode), q99);
            let m = totals.unwrap_or_default();
            println!(
                "{:>8} {:>7} | {:>10} {:>12.3} {:>12.3} | {:>6} {:>7} {:>8.3} {:>8.3} {:>12.1}",
                engine.label(),
                mode,
                report.ops,
                report.latency.quantile(0.5) as f64 / 1e6,
                q99 as f64 / 1e6,
                m.jobs,
                m.slices,
                m.write_amp(),
                m.space_amp(),
                m.stall_ns as f64 / 1e6,
            );

            if engine == EngineKind::lsm() && maint.enabled {
                lsm_bg = Some(outcome);
            }
        }
    }

    // The figure's headline claim: deferring maintenance takes the
    // flush/compaction stalls out of the foreground put tail.
    let inline_p99 = p99[&("lsm", "inline")];
    let bg_p99 = p99[&("lsm", "bg")];
    println!();
    println!(
        "lsm foreground p99 put latency: inline {:.3} ms -> background {:.3} ms ({:.1}x)",
        inline_p99 as f64 / 1e6,
        bg_p99 as f64 / 1e6,
        inline_p99 as f64 / bg_p99.max(1) as f64
    );
    assert!(
        inline_p99 >= 10 * bg_p99,
        "background maintenance must cut the LSM p99 put latency at least \
         10x: inline {inline_p99} vs background {bg_p99}"
    );

    // Background work still happened — the tail didn't shrink by
    // skipping maintenance.
    let lsm_bg = lsm_bg.expect("the LSM is a built-in engine");
    let totals = lsm_bg.report.maint_totals().expect("maintenance totals");
    assert!(totals.jobs > 0, "the LSM background mode must run jobs");
    assert_eq!(totals.jobs, totals.installs, "exactly-once installs");
    assert!(
        totals.bytes_written > 0,
        "background jobs must move bytes through the budget"
    );

    // Headline guarantee: background-mode runs are deterministic.
    let again = serve(EngineKind::lsm(), MaintConfig::enabled());
    assert_eq!(
        lsm_bg.report.render(),
        again.report.render(),
        "background-maintenance reports must render byte-identically"
    );
    println!("determinism: byte-identical background-mode reports across runs — ok");
}
