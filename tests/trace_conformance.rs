//! Trace conformance: a *disabled* flight recorder must be invisible —
//! and an enabled one must be free.
//!
//! The tracing subsystem follows the repo's layering contract: every
//! new knob has an explicit pass-through setting whose output is
//! byte-identical to the code that predates it. `trace = false` (the
//! default) keeps every engine, the device, and the report renderer on
//! their seed paths, so runs configured that way must reproduce the
//! pre-trace harness output **byte-identically at the rendered level**
//! — same labels, same numbers, no `cause` attribution anywhere — for
//! every registered engine, across the sharded driver and the serving
//! front-end. Like the cache suite, the pin is against the
//! `tests/golden/baseline/` snapshot captured before either
//! tier existed, so a regression in *any* layer the recorder touched
//! shows up as a byte diff against history.
//!
//! Tracing also carries a stronger promise than invisibility-when-off:
//! spans never advance the virtual clock and never consume workload
//! randomness, so a *traced* run executes the same ops, moves the same
//! bytes, and measures the same latencies as its untraced twin — the
//! recorder only observes. The last test pins that zero-cost claim.

use ptsbench::core::runner::run;
use ptsbench::core::sharded::ShardedRun;
use ptsbench::harness::{run_frontend, run_sharded};
use ptsbench_testkit::assert_golden;

mod common;
use common::{base, engines, serving_shape};

/// The tentpole guarantee: with the recorder off, today's sharded
/// harness reproduces the pre-trace golden output byte-for-byte for
/// every engine that existed when the snapshot was taken.
#[test]
fn trace_off_sharded_runs_match_the_pre_trace_golden_output() {
    for engine in engines() {
        let report = run_sharded(&ShardedRun::new(base(engine, 32 << 20), 2)).expect("run");
        assert_golden(&format!("baseline/sharded-{engine}.txt"), &report.render());
        assert!(
            !report.render().contains("cause"),
            "{engine}: no cause attribution may appear with the recorder off"
        );
    }
}

/// The same pin through the serving front-end (fan-in, Zipfian mixed
/// load — the shape `fig_anatomy` traces).
#[test]
fn trace_off_frontend_runs_match_the_pre_trace_golden_output() {
    for engine in engines() {
        let report = run_frontend(&serving_shape(engine)).expect("run");
        assert_golden(&format!("baseline/frontend-{engine}.txt"), &report.render());
    }
}

/// The single-threaded runner keeps the contract at the API level:
/// trace-off results carry no cause stats and no recorder, and the
/// label carries no `/tr` tag.
#[test]
fn trace_off_runner_results_carry_no_trace_accounting() {
    for engine in engines() {
        let cfg = base(engine, 32 << 20);
        let r = run(&cfg).expect("run");
        assert!(
            r.cause.is_none(),
            "{engine}: trace off means no cause stats"
        );
        assert!(
            r.recorder.is_none(),
            "{engine}: trace off means no recorder"
        );
        // `/tr` must match as a whole tag — the device label's `/trim`
        // segment contains it as a prefix.
        let label = cfg.label();
        assert!(
            !label.ends_with("/tr") && !label.contains("/tr/"),
            "{engine}: default labels must not grow the trace tag: {label}"
        );
    }
}

/// The zero-cost claim: tracing observes without perturbing. A traced
/// run executes the same ops, moves the same bytes, and records the
/// same latency distribution as its untraced twin — only the label tag,
/// the cause attribution, and the recorder differ.
#[test]
fn trace_on_is_zero_cost_and_perturbs_only_the_report() {
    for engine in engines() {
        let plain_cfg = base(engine, 32 << 20);
        let mut traced_cfg = base(engine, 32 << 20);
        traced_cfg.trace = true;
        assert!(
            traced_cfg.label().ends_with("/tr"),
            "{engine}: traced labels must carry the tag: {}",
            traced_cfg.label()
        );
        let plain = run(&plain_cfg).expect("run");
        let traced = run(&traced_cfg).expect("run");
        assert_eq!(
            plain.ops_executed, traced.ops_executed,
            "{engine}: tracing must not change the op count"
        );
        assert_eq!(
            plain.host_bytes_written, traced.host_bytes_written,
            "{engine}: tracing must not change device writes"
        );
        assert_eq!(
            plain.host_bytes_read, traced.host_bytes_read,
            "{engine}: tracing must not change device reads"
        );
        for q in [0.5, 0.99, 0.999] {
            assert_eq!(
                plain.latency.quantile(q),
                traced.latency.quantile(q),
                "{engine}: tracing must not change the latency distribution"
            );
        }
        let cause = traced.cause.expect("traced runs attribute device traffic");
        assert_eq!(
            cause.total_bytes_written(),
            traced.host_bytes_written,
            "{engine}: per-cause written bytes must sum to host writes"
        );
        assert_eq!(
            cause.total_bytes_read(),
            traced.host_bytes_read,
            "{engine}: per-cause read bytes must sum to host reads"
        );
        let recorder = traced.recorder.expect("traced runs keep their spans");
        assert!(
            !recorder.lock().is_empty(),
            "{engine}: a traced measured phase must record spans"
        );
    }
}

/// Sanity check of the other direction through the harness: tracing a
/// sharded run *does* perturb the rendered report — the label gains
/// `/tr` and the cause attribution appears — so the byte-identity above
/// is not a vacuous comparison.
#[test]
fn trace_on_perturbs_the_report() {
    for engine in engines() {
        let shape = ShardedRun::new(base(engine, 32 << 20), 2);
        let mut traced_shape = shape.clone();
        traced_shape.base.trace = true;
        let plain = run_sharded(&shape).expect("run");
        let traced = run_sharded(&traced_shape).expect("run");
        assert_ne!(
            plain.render(),
            traced.render(),
            "{engine}: an active recorder must show up in the report"
        );
        let text = traced.render();
        assert!(
            text.contains("/tr/") || text.contains("/tr\n") || text.contains("/tr "),
            "{engine}: label tag: {text}"
        );
        assert!(
            text.contains("cause: ") && text.contains("cause["),
            "{engine}: cause attribution must render: {text}"
        );
        let totals = traced.cause_totals().expect("cause totals");
        assert!(
            totals.total_bytes_written() + totals.total_bytes_read() > 0,
            "{engine}: a measured phase must move device bytes"
        );
    }
}
