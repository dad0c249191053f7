//! Cache conformance: a *disabled* read-path tier must be invisible.
//!
//! The read-path acceleration tier (block cache + compression) follows
//! the repo's layering contract: every new knob has an explicit
//! pass-through setting whose output is byte-identical to the code
//! that predates it. `cache_bytes = 0` and `compression_level = 0`
//! (the defaults) keep every engine on its seed read path and on-disk
//! format, so runs configured that way must reproduce the pre-cache
//! harness output **byte-identically at the rendered level** — same
//! labels, same numbers, no `cache` accounting anywhere — for every
//! registered engine, across the sharded driver and the serving
//! front-end.
//!
//! Unlike the other conformance suites, which compare two live runs,
//! this one also pins against a **golden snapshot**
//! (`tests/golden/baseline/`) captured from the harness before
//! the cache tier existed, so a regression in *any* layer the tier
//! touched — builders, readers, options, the report renderer — shows
//! up as a byte diff against history, not just against a sibling code
//! path.

use ptsbench::core::registry::EngineKind;
use ptsbench::core::runner::run;
use ptsbench::core::sharded::ShardedRun;
use ptsbench::harness::{run_frontend, run_sharded};
use ptsbench::workload::KeyDistribution;
use ptsbench_testkit::assert_golden;

mod common;
use common::{base, engines, serving_shape};

/// The tentpole guarantee: with the tier off, today's sharded harness
/// reproduces the pre-cache golden output byte-for-byte for every
/// engine that existed when the snapshot was taken.
#[test]
fn cache_off_sharded_runs_match_the_pre_cache_golden_output() {
    for engine in engines() {
        let report = run_sharded(&ShardedRun::new(base(engine, 32 << 20), 2)).expect("run");
        assert_golden(&format!("baseline/sharded-{engine}.txt"), &report.render());
        assert!(
            !report.render().contains("cache"),
            "{engine}: no cache accounting may appear with the tier off"
        );
    }
}

/// The same pin through the serving front-end (fan-in, Zipfian reads —
/// the shape where the cache would matter most if it were on).
#[test]
fn cache_off_frontend_runs_match_the_pre_cache_golden_output() {
    for engine in engines() {
        let report = run_frontend(&serving_shape(engine)).expect("run");
        assert_golden(&format!("baseline/frontend-{engine}.txt"), &report.render());
    }
}

/// The single-threaded runner keeps the contract at the API level:
/// cache-off results carry no cache accounting and an unchanged label,
/// and two cache-off runs agree with each other exactly.
#[test]
fn cache_off_runner_results_carry_no_cache_accounting() {
    for engine in engines() {
        let cfg = base(engine, 32 << 20);
        let r = run(&cfg).expect("run");
        assert!(r.cache.is_none(), "{engine}: cache off means no stats");
        assert!(
            !cfg.label().contains("/c") && !cfg.label().contains("/z"),
            "{engine}: default labels must not grow cache/compression tags: {}",
            cfg.label()
        );
        let again = run(&cfg).expect("run");
        assert_eq!(r.ops_executed, again.ops_executed);
        assert_eq!(r.host_bytes_written, again.host_bytes_written);
        assert_eq!(r.host_bytes_read, again.host_bytes_read);
    }
}

/// Sanity check of the other direction: turning the cache on *does*
/// perturb the report — the label gains the budget tag and the cache
/// accounting appears — so the byte-identity above is not a vacuous
/// comparison.
#[test]
fn cache_on_perturbs_the_report() {
    for engine in engines() {
        let mut shape = ShardedRun::new(base(engine, 32 << 20), 2);
        shape.base.read_fraction = 0.5;
        shape.base.distribution = KeyDistribution::Zipfian { theta: 0.9 };
        let mut cached_shape = shape.clone();
        cached_shape.base.cache_bytes = 2 << 20;
        let plain = run_sharded(&shape).expect("run");
        let cached = run_sharded(&cached_shape).expect("run");
        assert_ne!(
            plain.render(),
            cached.render(),
            "{engine}: an active cache must show up in the report"
        );
        let text = cached.render();
        assert!(text.contains("/c2048k"), "{engine}: label tag: {text}");
        assert!(
            text.contains("cache: hits=") && text.contains("cache[hit="),
            "{engine}: cache accounting must render: {text}"
        );
        let totals = cached.cache_totals().expect("cache totals");
        assert!(
            totals.hits + totals.misses > 0,
            "{engine}: a Zipfian read phase must touch the cache"
        );
    }
}

/// Compression rides the same contract: level 0 output is pinned by
/// the golden tests above, and an active level changes only what it
/// must (label tag; fewer device read bytes stay an engine-level
/// property checked in `examples/fig_readamp.rs`).
#[test]
fn compression_level_tags_the_label_and_round_trips_the_run() {
    let mut cfg = base(EngineKind::lsm(), 32 << 20);
    cfg.read_fraction = 0.5;
    cfg.cache_bytes = 1 << 20;
    cfg.compression_level = 3;
    assert!(cfg.label().ends_with("/c1024k/z3"), "{}", cfg.label());
    let r = run(&cfg).expect("run");
    assert!(!r.out_of_space);
    assert!(r.ops_executed > 0);
    let cache = r.cache.expect("cache configured");
    assert!(cache.hits + cache.misses > 0);
}
