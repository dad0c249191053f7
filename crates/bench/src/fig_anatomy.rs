//! Latency anatomy — beyond the paper: decomposing the serving tail
//! into engine phase spans via the flight recorder, for every
//! registered engine.
//!
//! `fig_tail` shows *where in the stack* the tail lives (the dispatch
//! queue vs the engine); this figure goes one level deeper and asks
//! *what the engine was doing* during its slowest requests. Every run
//! here is traced: the flight recorder captures a `req.put`/`req.get`
//! root span per request with the queue wait, the engine op and every
//! engine phase (WAL append, memtable flush, compaction, block load,
//! cache hit, page walk, ...) nested beneath it, and the device charges
//! every host byte to the cause scope that issued it.
//!
//! Each quantile band of engine service time is printed with its four
//! largest phases and with the share of its time inside maintenance
//! phases (flush/compaction/GC/seal/checkpoint), device commands and
//! cache-hit marks. Phase shares may overlap (a device command inside a
//! compaction counts toward both) and queued device commands proceed
//! concurrently in virtual time, so the span sum can exceed the
//! enclosing op's wall time at queue depth 16 — shares need not sum to
//! 100%.
//!
//! Four claims, asserted below:
//!
//! 1. **The LSM's p99 is a compaction stall.** Under sustained Zipfian
//!    writes, requests at or above the p99 of engine service time spend
//!    the majority of that time inside `lsm.flush`/`lsm.compaction`
//!    spans — the inline-maintenance stall the paper's steady-state
//!    methodology is designed to reach.
//! 2. **A cache converts block loads into hits.** With the block cache
//!    on, `lsm.cache_hit` marks appear and the per-get time under
//!    `lsm.block_load` drops — the same reads, shifted to a cheaper
//!    phase.
//! 3. **Provenance accounting closes exactly.** Per shard, the
//!    per-cause device byte totals equal `host_bytes_written +
//!    host_bytes_read` — every device byte is attributed to exactly one
//!    cause, with nothing dropped and nothing double-counted.
//! 4. **Traced runs are deterministic** — byte-identical reports and
//!    identical phase rollups run-to-run.
//!
//! Each fleet serves 40 simulated minutes (`examples/fig_anatomy.rs`),
//! and one shard's trace is written as Chrome trace-event JSON
//! (`target/fig_anatomy_trace.json` under the working directory,
//! loadable in `chrome://tracing` or Perfetto; CI validates that it
//! parses).

use std::collections::BTreeMap;
use std::path::Path;

use ptsbench_core::frontend::FrontendRun;
use ptsbench_core::registry::{EngineKind, EngineRegistry};
use ptsbench_core::runner::RunConfig;
use ptsbench_harness::{run_frontend_with_results, HarnessOutcome};
use ptsbench_ssd::{Ns, MINUTE};
use ptsbench_trace::OpBreakdown;
use ptsbench_workload::KeyDistribution;

/// 64 MiB total: four 16 MiB shards, the smallest SSD1 geometry.
const TOTAL_BYTES: u64 = 64 << 20;
const SHARDS: usize = 4;
/// The fig_tail fan-in maximum: enough closed-loop clients to keep
/// every shard saturated for the whole measured phase.
const FAN_IN: usize = 64;
/// Virtual time per traced fleet.
const DURATION: Ns = 40 * MINUTE;
/// Where the cached LSM fleet's first shard's span forest is written.
const TRACE_OUT: &str = "target/fig_anatomy_trace.json";

/// Inline-maintenance phases, across all three engines.
const MAINT: [&str; 5] = [
    "lsm.flush",
    "lsm.compaction",
    "hashlog.gc",
    "hashlog.seal",
    "btree.checkpoint",
];
/// Device command spans.
const DEV: [&str; 2] = ["dev.read", "dev.write"];
/// Block/segment/page cache hit marks.
const CACHE: [&str; 3] = ["lsm.cache_hit", "btree.cache_hit", "hashlog.cache_hit"];

/// Requests with their engine service time, ascending by it.
type ByService<'a> = [(Ns, &'a OpBreakdown)];

/// A traced serving run: the fig_tail shape (Zipfian fan-in over four
/// shards, 50:50 read:write) with closed-loop clients for sustained
/// load, and the flight recorder on.
fn serve(engine: EngineKind, cache_bytes: u64) -> HarnessOutcome {
    let mut cfg = FrontendRun::new(
        RunConfig {
            engine,
            device_bytes: TOTAL_BYTES,
            distribution: KeyDistribution::Zipfian { theta: 0.99 },
            read_fraction: 0.5,
            duration: DURATION,
            sample_window: DURATION / 4,
            cache_bytes,
            trace: true,
            ..RunConfig::default()
        },
        FAN_IN,
    );
    cfg.shards = SHARDS;
    run_frontend_with_results(&cfg).expect("frontend run")
}

/// Every request rollup across the fleet's flight recorders, in shard
/// order (deterministic).
fn breakdowns(outcome: &HarnessOutcome) -> Vec<OpBreakdown> {
    outcome
        .shard_results
        .iter()
        .filter_map(|r| r.recorder.as_ref())
        .flat_map(|rec| rec.lock().op_breakdowns())
        .collect()
}

/// `(span count, total ns)` per phase name, summed across the fleet.
fn fleet_phases(outcome: &HarnessOutcome) -> BTreeMap<&'static str, (u64, Ns)> {
    let mut agg: BTreeMap<&'static str, (u64, Ns)> = BTreeMap::new();
    for r in &outcome.shard_results {
        if let Some(rec) = &r.recorder {
            for (name, total, count) in rec.lock().time_by_name() {
                let e = agg.entry(name).or_insert((0, 0));
                e.0 += count;
                e.1 += total;
            }
        }
    }
    agg
}

/// Requests rooted at `root`, as `(engine service ns, rollup)` sorted
/// ascending by service time. Service time is the `op.*` span beneath
/// the request root — queue wait excluded, exactly what the latency
/// histogram records.
fn by_service<'a>(ops: &'a [OpBreakdown], root: &str) -> Vec<(Ns, &'a OpBreakdown)> {
    let op_phase = if root == "req.put" {
        "op.put"
    } else {
        "op.get"
    };
    let mut v: Vec<(Ns, &OpBreakdown)> = ops
        .iter()
        .filter(|o| o.root.name == root)
        .map(|o| (o.time_in(op_phase), o))
        .collect();
    v.sort_by_key(|&(s, _)| s);
    v
}

/// The requests at or above the `q`-quantile of service time, plus the
/// band's total service time.
fn band<'a, 'b>(sorted: &'b ByService<'a>, q: f64) -> (&'b ByService<'a>, Ns) {
    assert!(!sorted.is_empty(), "no requests to decompose");
    let idx = ((sorted.len() - 1) as f64 * q) as usize;
    let cut = sorted[idx].0;
    let start = sorted.partition_point(|&(s, _)| s < cut);
    let b = &sorted[start..];
    (b, b.iter().map(|&(s, _)| s).sum())
}

/// Total time in any of `names` across the band, as a share of the
/// band's total service time.
fn share(band: &ByService, total: Ns, names: &[&str]) -> f64 {
    let t: Ns = band
        .iter()
        .map(|&(_, o)| names.iter().map(|n| o.time_in(n)).sum::<Ns>())
        .sum();
    t as f64 / total.max(1) as f64
}

/// Prints, per request kind and quantile band, the band's four largest
/// phases and its maintenance / device / cache-hit shares.
fn print_anatomy(outcome: &HarnessOutcome) {
    let ops = breakdowns(outcome);
    for root in ["req.put", "req.get"] {
        let sorted = by_service(&ops, root);
        if sorted.is_empty() {
            continue;
        }
        println!("  {root}: n={}", sorted.len());
        for (label, q) in [("p50", 0.50), ("p99", 0.99), ("p999", 0.999)] {
            let (b, total) = band(&sorted, q);
            let pct = |t: Ns| 100.0 * t as f64 / total.max(1) as f64;
            let mut phases: BTreeMap<&'static str, Ns> = BTreeMap::new();
            for &(_, o) in b {
                for &(name, t) in &o.by_name {
                    if name.starts_with("op.") || name.starts_with("req.") {
                        continue; // the envelope, not a phase within it
                    }
                    *phases.entry(name).or_insert(0) += t;
                }
            }
            let mut rows: Vec<(&'static str, Ns)> = phases.into_iter().collect();
            rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
            let top: Vec<String> = rows
                .iter()
                .take(4)
                .map(|&(name, t)| format!("{name}={:.1}%", pct(t)))
                .collect();
            println!(
                "    {label:>5} >= {:>13} ns ({:>4} reqs)  {}",
                b[0].0,
                b.len(),
                top.join(" ")
            );
            println!(
                "{:>17} {:>10.3} ms{:12}maint={:.1}% dev={:.1}% cache={:.1}%",
                "mean",
                total as f64 / b.len() as f64 / 1e6,
                "",
                100.0 * share(b, total, &MAINT),
                100.0 * share(b, total, &DEV),
                100.0 * share(b, total, &CACHE),
            );
        }
    }
}

/// Serves 40 simulated minutes per traced fleet — every registered
/// engine, then the LSM again with a block cache — printing each
/// engine's tail anatomy, the cached fleet's report and its first
/// shard's phase table; writes that shard's span forest as Chrome
/// trace-event JSON to `target/fig_anatomy_trace.json`.
///
/// Asserts the four claims in the module doc.
pub fn fig_anatomy() {
    println!("ptsbench fig_anatomy — what the engine does during its slowest requests");
    println!(
        "{} MiB over {SHARDS} shards, Zipfian(0.99) 50:50 read:write, {FAN_IN} \
         closed-loop clients, flight recorder on",
        TOTAL_BYTES >> 20
    );
    println!("{} simulated minutes per fleet", DURATION / MINUTE);

    let mut lsm_outcome = None;
    for engine in EngineRegistry::all() {
        let outcome = serve(engine, 0);
        println!();
        println!("== {} ==", engine.name());
        print_anatomy(&outcome);

        // Claim 3: per-cause device bytes close exactly against the
        // SMART host counters, shard by shard, for every engine.
        for (i, r) in outcome.shard_results.iter().enumerate() {
            let cause = r.cause.expect("traced runs attribute device traffic");
            assert_eq!(
                cause.total_bytes_written(),
                r.host_bytes_written,
                "{engine} shard{i}: per-cause written bytes must sum to host writes"
            );
            assert_eq!(
                cause.total_bytes_read(),
                r.host_bytes_read,
                "{engine} shard{i}: per-cause read bytes must sum to host reads"
            );
        }
        println!("  per-cause bytes == host bytes on every shard — ok");

        if engine == EngineKind::lsm() {
            lsm_outcome = Some(outcome);
        }
    }

    // Claim 1: the LSM's slowest puts are inline-maintenance stalls.
    let lsm = lsm_outcome.expect("the LSM is a built-in engine");
    let ops = breakdowns(&lsm);
    let sorted = by_service(&ops, "req.put");
    let (b, total) = band(&sorted, 0.99);
    let stall = share(b, total, &["lsm.flush", "lsm.compaction"]);
    println!();
    println!(
        "lsm puts >= p99 ({} reqs): {:.1}% of service time inside \
         lsm.flush/lsm.compaction spans",
        b.len(),
        100.0 * stall
    );
    assert!(
        stall >= 0.5,
        "the LSM p99 must be dominated by inline-maintenance stalls: {stall:.3}"
    );

    // Claim 2: the block cache shifts block-load time into cache hits.
    let cached = serve(EngineKind::lsm(), 2 << 20);
    let off = fleet_phases(&lsm);
    let on = fleet_phases(&cached);
    let gets = |m: &BTreeMap<&str, (u64, Ns)>| m.get("op.get").map_or(0, |e| e.0).max(1);
    let load_per_get_off = off.get("lsm.block_load").map_or(0, |e| e.1) as f64 / gets(&off) as f64;
    let load_per_get_on = on.get("lsm.block_load").map_or(0, |e| e.1) as f64 / gets(&on) as f64;
    let hits_off = off.get("lsm.cache_hit").map_or(0, |e| e.0);
    let hits_on = on.get("lsm.cache_hit").map_or(0, |e| e.0);
    println!();
    println!(
        "lsm block cache: block_load/get {:.0} ns -> {:.0} ns, cache_hit marks {} -> {}",
        load_per_get_off, load_per_get_on, hits_off, hits_on
    );
    assert_eq!(hits_off, 0, "no cache phase may fire with the cache off");
    assert!(hits_on > 0, "a Zipfian read phase must hit the cache");
    assert!(
        load_per_get_on < load_per_get_off,
        "the cache must shift block-load time into hits: \
         {load_per_get_off:.0} vs {load_per_get_on:.0} ns/get"
    );

    // Claim 4: traced runs are deterministic — the report text and the
    // full phase rollup are identical run-to-run.
    let again = serve(EngineKind::lsm(), 0);
    assert_eq!(
        lsm.report.render(),
        again.report.render(),
        "traced serving reports must render byte-identically"
    );
    assert_eq!(
        off,
        fleet_phases(&again),
        "phase rollups must be identical run-to-run"
    );
    println!();
    println!("determinism: byte-identical traced reports across runs — ok");

    // The fleet report carries the cause footer and the /tr label tag.
    println!();
    println!("cached LSM fleet report:");
    println!();
    println!("{}", cached.report.render());

    let rec = cached.shard_results[0]
        .recorder
        .as_ref()
        .expect("traced run");
    // One guard for every read: the recorder mutex is not reentrant,
    // and format-argument temporaries live to the end of the statement.
    let rec = rec.lock();
    // For chrome://tracing or Perfetto (CI validates that it parses).
    let json = rec.export_chrome();
    let path = Path::new(TRACE_OUT);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).expect("trace directory");
    }
    std::fs::write(path, &json).expect("write trace");
    println!(
        "wrote {} ({} bytes, {} spans, {} dropped)",
        path.display(),
        json.len(),
        rec.len(),
        rec.dropped()
    );
    println!();
    println!("shard0 phase table (cached LSM):");
    println!("{}", rec.phase_table());
}
