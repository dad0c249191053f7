//! Maintenance conformance: *disabled* background maintenance must be
//! invisible.
//!
//! The background-maintenance subsystem follows the repo's layering
//! contract: every new knob has an explicit pass-through setting whose
//! output is byte-identical to the code that predates it.
//! `MaintConfig::default()` (`enabled = false`) keeps every engine on
//! its seed inline flush/compaction/GC/checkpoint paths, so runs
//! configured that way must reproduce the pre-maintenance harness
//! output **byte-identically at the rendered level** — same labels,
//! same numbers, no `maint` accounting anywhere — for every registered
//! engine, across the sharded driver and the serving front-end.
//!
//! Like `cache_conformance`, this pins against the golden snapshot
//! (`tests/golden/baseline/`) captured before either subsystem
//! existed, so a regression in *any* layer maintenance touched —
//! engine write paths, the WAL, options, the runner, the report
//! renderer — shows up as a byte diff against history.

use ptsbench::core::runner::run;
use ptsbench::core::sharded::ShardedRun;
use ptsbench::harness::{run_frontend, run_frontend_with_results, run_sharded};
use ptsbench::maint::MaintConfig;
use ptsbench_testkit::assert_golden;

mod common;
use common::{base, engines, serving_shape};

/// The tentpole guarantee: with maintenance off (the default), today's
/// sharded harness reproduces the pre-maintenance golden output
/// byte-for-byte for every engine.
#[test]
fn maint_off_sharded_runs_match_the_golden_output() {
    for engine in engines() {
        let report = run_sharded(&ShardedRun::new(base(engine, 32 << 20), 2)).expect("run");
        assert_golden(&format!("baseline/sharded-{engine}.txt"), &report.render());
        assert!(
            !report.render().contains("maint"),
            "{engine}: no maintenance accounting may appear with the subsystem off"
        );
    }
}

/// The same pin through the serving front-end (fan-in, Zipfian mix —
/// the shape where deferred maintenance would matter most if it were
/// on).
#[test]
fn maint_off_frontend_runs_match_the_golden_output() {
    for engine in engines() {
        let report = run_frontend(&serving_shape(engine)).expect("run");
        assert_golden(&format!("baseline/frontend-{engine}.txt"), &report.render());
    }
}

/// The single-threaded runner keeps the contract at the API level:
/// maintenance-off results carry no maintenance accounting and an
/// unchanged label.
#[test]
fn maint_off_runner_results_carry_no_maint_accounting() {
    for engine in engines() {
        let cfg = base(engine, 32 << 20);
        let r = run(&cfg).expect("run");
        assert!(
            r.maint.is_none(),
            "{engine}: maintenance off means no stats"
        );
        assert!(
            !cfg.label().contains("/bg"),
            "{engine}: default labels must not grow the background tag: {}",
            cfg.label()
        );
    }
}

/// Sanity check of the other direction: turning maintenance on *does*
/// perturb the report — the label gains the `/bg` tag, the maintenance
/// footer appears, every shard carries stats — so the byte-identity
/// above is not a vacuous comparison. And two background runs agree
/// with each other byte-for-byte (run-twice determinism at test
/// scale; `fig_stall` re-asserts it at figure scale).
#[test]
fn maint_on_perturbs_the_report_deterministically() {
    for engine in engines() {
        let mut shape = serving_shape(engine);
        shape.base.maint = MaintConfig::enabled();
        let outcome = run_frontend_with_results(&shape).expect("run");
        let text = outcome.report.render();
        assert!(text.contains("/bg"), "{engine}: label tag: {text}");
        assert!(
            text.contains("maint: jobs=") && text.contains("maint["),
            "{engine}: maintenance accounting must render: {text}"
        );
        let baseline = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("tests/golden/baseline/frontend-{engine}.txt"));
        assert_ne!(
            text,
            std::fs::read_to_string(baseline).expect("the maintenance-off baseline"),
            "{engine}: active maintenance must show up in the report"
        );
        for (i, r) in outcome.shard_results.iter().enumerate() {
            let stats = r.maint.expect("background shards carry stats");
            assert_eq!(
                stats.jobs, stats.installs,
                "{engine} shard{i}: each job installs exactly once"
            );
        }
        let again = run_frontend_with_results(&shape).expect("run");
        assert_eq!(
            text,
            again.report.render(),
            "{engine}: background-mode reports must be deterministic"
        );
    }
}
