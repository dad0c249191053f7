//! The traced run: everything the timed rounds leave out.
//!
//! Per workload, separately from the timed rounds:
//!
//! 1. one plain round;
//! 2. the same configuration with `RunConfig.trace = true` — the
//!    program's own virtual-time phase table and per-cause byte ledger,
//!    and, against round 1, the tracing overhead;
//! 3. the replays of [`crate::replay`] with host-time spans, the
//!    top-level one also counting allocations;
//! 4. the workload-independent unit costs of [`crate::layers`].
//!
//! Every step is checked: rounds 1 and 2 and the top-level replay must
//! agree on every virtual result, the cause ledger must close against
//! SMART, and the engine-level replay must read back what it wrote.

use std::collections::BTreeMap;

use ptsbench::core::MaintStats;
use ptsbench::metrics::load::{LoadImbalance, ShardLoad};
use ptsbench::ssd::MILLISECOND;

use crate::host::Summary;
use crate::layers::unit_costs;
use crate::measure::{fingerprint, quantile_ns, run_round, Round, ShardOut};
use crate::replay::{engine_level, frontend_loop, serve_level, EngineLevel, LoopCost};
use crate::report::{WorkloadResult, PER_LAYER};
use crate::spans::SpanLog;
use crate::workloads::{Scenario, Workload};

/// The traced run's result plus the host-span logs for `--trace-out`.
pub struct Traced {
    pub result: WorkloadResult,
    pub logs: Vec<(&'static str, SpanLog)>,
}

/// Metric values by name; [`PER_LAYER`] fixes the reporting order.
type Values = BTreeMap<&'static str, f64>;

/// The engines and the three structural counters reported for each.
const ENGINES: [(&str, [&str; 3]); 3] = [
    ("lsm", ["flushes", "compactions", "bloom_false_positives"]),
    ("btree", ["splits", "merges", "checkpoints"]),
    ("hashlog", ["segments", "gc_runs", "gc_bytes_rewritten"]),
];

/// The table's own `'static` copy of a metric name built at run time.
fn key(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|def| def.name == name)
        .map(|def| def.name)
        .unwrap_or_else(|| panic!("{name} is not in the per-layer table"))
}

pub fn traced_run(w: &Workload, seed: u64) -> Traced {
    let mut result = WorkloadResult::new(w, seed, true);
    let mut logs = Vec::new();
    match collect(w, &mut result, &mut logs) {
        Ok(values) => {
            for def in PER_LAYER {
                match values.get(def.name) {
                    Some(&v) => result.push(PER_LAYER, def.name, Summary::exact(v)),
                    None => result.fail(format!("{} was not measured", def.name)),
                }
            }
            result.check_against(PER_LAYER);
        }
        Err(e) => result.fail(format!("traced run failed: {e}")),
    }
    Traced { result, logs }
}

/// Checks the traced round against the plain one and prints the
/// program's own virtual-time phase table.
fn check_traced_round(plain: &Round, traced: &Round, result: &mut WorkloadResult, m: &mut Values) {
    if fingerprint(&plain.shards) != fingerprint(&traced.shards) {
        result.fail("tracing changed the virtual results".to_string());
    }
    let mut phases: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    let (mut recorded, mut dropped) = (0u64, 0u64);
    for (i, shard) in traced.shards.iter().enumerate() {
        let r = &shard.result;
        match &r.cause {
            Some(cause) => {
                let (w, rd) = (cause.total_bytes_written(), cause.total_bytes_read());
                if w != r.host_bytes_written || rd != r.host_bytes_read {
                    result.fail(format!(
                        "shard {i}: per-cause bytes (w {w}, r {rd}) do not sum to SMART host \
                         bytes (w {}, r {})",
                        r.host_bytes_written, r.host_bytes_read
                    ));
                }
            }
            None => result.fail(format!("shard {i}: traced run has no cause ledger")),
        }
        if let Some(recorder) = &r.recorder {
            let recorder = recorder.lock();
            recorded += recorder.len() as u64;
            dropped += recorder.dropped();
            for (name, ns, count) in recorder.time_by_name() {
                let e = phases.entry(name).or_default();
                e.0 += ns;
                e.1 += count;
            }
        }
    }
    m.insert("trace.spans_recorded", recorded as f64);
    m.insert("trace.spans_dropped", dropped as f64);
    m.insert(
        "trace.overhead_pct",
        (traced.measured.wall_s / plain.measured.wall_s - 1.0) * 100.0,
    );
    println!("  virtual-time phases (program's own spans, retained ring, all shards):");
    let mut rows: Vec<_> = phases.into_iter().collect();
    rows.sort_by(|a, b| b.1 .0.cmp(&a.1 .0).then(a.0.cmp(b.0)));
    for (name, (ns, count)) in rows.into_iter().take(12) {
        println!(
            "    {:<28} n={:<9} total {:>14.3} virt ms",
            name,
            count,
            ns as f64 / MILLISECOND as f64
        );
    }
    if let Some(cause) = traced
        .shards
        .iter()
        .filter_map(|s| s.result.cause)
        .reduce(|mut a, b| {
            a.merge(&b);
            a
        })
    {
        println!("  device bytes by cause: {}", cause.render_compact());
    }
}

fn collect(
    w: &Workload,
    result: &mut WorkloadResult,
    logs: &mut Vec<(&'static str, SpanLog)>,
) -> Result<Values, Box<dyn std::error::Error>> {
    let mut m = Values::new();

    let plain = run_round(&w.scenario)?;
    result.check_accounting(&plain);
    result.rounds = 1;
    result.attempted = plain.attempted;
    result.failed = plain.failed;
    m.insert("host.wall_s", plain.measured.wall_s);
    m.insert("host.cpu_s", plain.measured.cpu_s);
    m.insert(
        "host.cpu_per_wall",
        plain.measured.cpu_s / plain.measured.wall_s,
    );
    m.insert(
        "host.virt_s_per_host_s",
        w.scenario.base().duration as f64 / 1e9 / plain.measured.wall_s,
    );

    let traced = run_round(&w.scenario.traced())?;
    check_traced_round(&plain, &traced, result, &mut m);
    drop(traced);

    // Top-level replay: must reproduce the plain round exactly.
    let shards: Vec<_> = (0..w.scenario.shards())
        .map(|i| w.scenario.shard(i))
        .collect();
    let mut top_log = SpanLog::new();
    // Host ns per simulated op of the top-level replay (one thread):
    // the basis every `*_share` is a share of.
    let per_op_ns;
    let mut serve_samples;
    match &w.scenario {
        Scenario::Single(_) | Scenario::Sharded(_) => {
            let replay = serve_level(&mut top_log, &shards)?;
            compare(
                "the serve-level replay",
                &plain.shards,
                &replay.shards,
                result,
            );
            per_op_ns = loop_metrics(replay.measured, replay.ops, &mut m);
            m.insert("core.finish.host_ms", replay.finish.mean() / 1e6);
            serve_samples = replay.serve;
            for name in HARNESS_LOOP_METRICS {
                m.insert(name, 0.0);
            }
            m.insert("harness.host_share", 0.0);
        }
        Scenario::Serve(run) => {
            let mut replay = frontend_loop(&mut top_log, run)?;
            compare(
                "the event-loop replay",
                &plain.shards,
                &replay.shards,
                result,
            );
            let requests = replay.requests.max(1) as f64;
            per_op_ns = loop_metrics(replay.measured, replay.requests, &mut m);
            let fifo = run.discipline.is_fifo();
            let (p50, p99) = (replay.submit.quantile(0.5), replay.submit.quantile(0.99));
            for (path, taken) in [("submit_fifo", fifo), ("submit_wfq", !fifo)] {
                let (p50, p99) = if taken { (p50, p99) } else { (0.0, 0.0) };
                m.insert(key(&format!("harness.{path}.host_ns_p50")), p50);
                m.insert(key(&format!("harness.{path}.host_ns_p99")), p99);
            }
            // The real driver's measured time, less the time the replay
            // spent inside `Frontend`, is what the driver itself costs:
            // its O(clients) scans, generators and request building.
            m.insert(
                "harness.driver_self.host_ns_per_req",
                (plain.measured.wall_s * 1e9 - replay.frontend_ns as f64) / requests,
            );
            m.insert("harness.pending_peak", replay.pending_peak as f64);
            m.insert("harness.backlog_peak", replay.backlog_peak as f64);
            // Closed-loop `serve` costs come from shard 0 on its own.
            let mut shard_log = SpanLog::new();
            let shard0 = serve_level(&mut shard_log, &shards[..1])?;
            m.insert("core.finish.host_ms", shard0.finish.mean() / 1e6);
            serve_samples = shard0.serve;
            logs.push(("serve-level replay, shard 0", shard_log));
        }
    }
    serving_metrics(&plain.shards, w, &mut m);
    m.insert("core.serve.host_ns_p50", serve_samples.quantile(0.5));
    m.insert("core.serve.host_ns_p99", serve_samples.quantile(0.99));
    let serve_mean = serve_samples.mean();
    top_log.print_table("top-level replay");
    logs.push(("top-level replay", top_log));

    // Engine-level replay on shard 0.
    let (cfg, workload) = &shards[0];
    let mut engine_log = SpanLog::new();
    let mut engine = engine_level(&mut engine_log, cfg, workload)?;
    engine_log.print_table("engine-level replay, shard 0");
    logs.push(("engine-level replay, shard 0", engine_log));
    if engine.readback_mismatches > 0 || engine.readback_checked == 0 {
        result.fail(format!(
            "engine-level replay: {} of {} keys read back wrong",
            engine.readback_mismatches, engine.readback_checked
        ));
    }
    if let Scenario::Single(_) = w.scenario {
        if engine.ops != plain.shards[0].result.ops_executed {
            result.fail(format!(
                "engine-level replay ran {} ops, run() ran {}",
                engine.ops, plain.shards[0].result.ops_executed
            ));
        }
    }
    let engine_ops = engine.ops.max(1) as f64;
    let engine_op_ns = engine.engine_ns as f64 / engine_ops;
    m.insert("core.serve_self.host_ns", serve_mean - engine_op_ns);
    m.insert("core.host_share", (serve_mean - engine_op_ns) / per_op_ns);
    m.insert("core.build_stack.host_ms", engine.build_stack_ms);
    m.insert("core.bulk_load.host_ms", engine.bulk_load_ms);
    if let Scenario::Serve(_) = w.scenario {
        // What a request costs beyond the closed-loop `serve` call.
        m.insert("harness.host_share", (per_op_ns - serve_mean) / per_op_ns);
    }

    m.extend(unit_costs()?.iter().copied());
    let below_engine_ns =
        lower_layer_metrics(&engine, cfg.compression_level > 0, per_op_ns, &mut m);
    let engine_share = (engine.engine_ns as f64 - below_engine_ns) / engine_ops / per_op_ns;
    engine_metrics(
        cfg.engine.label(),
        cfg.maint.enabled,
        engine_share,
        &mut engine,
        &mut m,
    );
    maint_metrics(&plain.shards, &mut m);

    // With this one the layer shares sum to 1.
    let attributed: f64 = m
        .iter()
        .filter(|(name, _)| name.ends_with(".host_share"))
        .map(|(_, share)| share)
        .sum();
    m.insert("host.unattributed_share", 1.0 - attributed);
    Ok(m)
}

/// The harness metrics only a serving event loop produces.
const HARNESS_LOOP_METRICS: [&str; 7] = [
    "harness.submit_fifo.host_ns_p50",
    "harness.submit_fifo.host_ns_p99",
    "harness.submit_wfq.host_ns_p50",
    "harness.submit_wfq.host_ns_p99",
    "harness.driver_self.host_ns_per_req",
    "harness.pending_peak",
    "harness.backlog_peak",
];

/// Reports the top-level replay's allocation rate and returns its host
/// ns per simulated op.
fn loop_metrics(cost: LoopCost, ops: u64, m: &mut Values) -> f64 {
    let ops = ops.max(1) as f64;
    m.insert("host.allocs_per_sim_op", cost.allocs as f64 / ops);
    m.insert("host.alloc_bytes_per_sim_op", cost.alloc_bytes as f64 / ops);
    cost.ns as f64 / ops
}

fn compare(what: &str, want: &[ShardOut], got: &[ShardOut], result: &mut WorkloadResult) {
    if fingerprint(want) != fingerprint(got) {
        result.fail(format!(
            "{what} did not reproduce the run's virtual results"
        ));
    }
}

/// Queueing and load balance as the model reports them (serving
/// workloads; 0 for closed loops, which have neither).
fn serving_metrics(shards: &[ShardOut], w: &Workload, m: &mut Values) {
    let loads: Vec<ShardLoad> = shards.iter().filter_map(|s| s.load).collect();
    let imbalance = LoadImbalance::from_shards(&loads);
    m.insert(
        "harness.max_utilization",
        imbalance.map_or(0.0, |i| i.max_utilization),
    );
    m.insert(
        "harness.request_ratio",
        imbalance.map_or(0.0, |i| i.request_ratio()),
    );
    // The interactive class's queue delay where classes exist (the
    // guarantee weighted-fair dispatch is there to keep), the fleet's
    // otherwise.
    let mut queue_delay = ptsbench::metrics::histogram::LatencyHistogram::new();
    for shard in shards {
        match (&shard.mt, &shard.queue_delay) {
            (Some(mt), _) => {
                queue_delay.merge(&mt.class(ptsbench::core::ReqClass::Interactive).queue_delay)
            }
            (None, Some(qd)) => queue_delay.merge(qd),
            (None, None) => {}
        }
    }
    let scale = match &w.scenario {
        Scenario::Serve(run) => run.topology().scale(),
        _ => 1.0,
    };
    m.insert(
        "harness.qdelay_p99.virt_ms",
        if queue_delay.count() == 0 {
            0.0
        } else {
            quantile_ns(&queue_delay, 0.99) / scale / 1e6
        },
    );
}

/// `<engine>.*`: host-time quantiles of the replayed engine calls, the
/// engine's structural counters and its share (its calls less what the
/// layers below it cost); zero for the engines this workload does not
/// run.
fn engine_metrics(label: &str, background: bool, share: f64, e: &mut EngineLevel, m: &mut Values) {
    let (put50, put99) = (e.put.quantile(0.5), e.put.quantile(0.99));
    let (inline, bg) = if background {
        ((0.0, 0.0), (put50, put99))
    } else {
        ((put50, put99), (0.0, 0.0))
    };
    let calls = [
        ("put.host_ns_p50", inline.0),
        ("put.host_ns_p99", inline.1),
        ("get.host_ns_p50", e.get.quantile(0.5)),
        ("get.host_ns_p99", e.get.quantile(0.99)),
        ("bg_put.host_ns_p50", bg.0),
        ("bg_put.host_ns_p99", bg.1),
        ("bg_slice.host_ns_p50", e.slice.quantile(0.5)),
        (
            "bulk_load.host_ns_per_key",
            e.bulk_load_ms * 1e6 / e.keys_loaded.max(1) as f64,
        ),
        ("host_share", share),
    ];
    for (engine, counters) in ENGINES {
        let mine = engine == label;
        for (suffix, value) in calls {
            let value = if mine { value } else { 0.0 };
            m.insert(key(&format!("{engine}.{suffix}")), value);
        }
        for counter in counters {
            let value = e.stats.structural.iter().find(|(n, _)| *n == counter);
            let value = value.map_or(0.0, |(_, v)| *v as f64);
            m.insert(
                key(&format!("{engine}.{counter}")),
                if mine { value } else { 0.0 },
            );
        }
    }
}

/// Counts of the layers under the engine, and the `*_share` estimates:
/// count x unit cost, per engine-level op, over the top-level replay's
/// host ns per op.
///
/// Returns the estimated host ns the engine-level replay spent below
/// the engine.
fn lower_layer_metrics(e: &EngineLevel, compressed: bool, per_op_ns: f64, m: &mut Values) -> f64 {
    let ops = e.ops.max(1) as f64;
    let s = &e.smart;
    m.insert("ssd.host_pages_written", s.host_pages_written as f64);
    m.insert("ssd.host_pages_read", s.host_pages_read as f64);
    m.insert("ssd.nand_pages_written", s.nand_pages_written as f64);
    m.insert("ssd.gc_pages_relocated", s.gc_pages_relocated as f64);
    m.insert("ssd.blocks_erased", s.blocks_erased as f64);
    m.insert("ssd.gc_invocations", s.gc_invocations as f64);
    m.insert("ssd.io_submitted", e.io_depth.submitted as f64);
    m.insert("ssd.io_max_in_flight", e.io_depth.max_in_flight as f64);
    m.insert("vfs.peak_used_pages", e.fs.peak_used_pages as f64);
    m.insert("vfs.live_files", e.fs.live_files as f64);

    let written = s.host_pages_written as f64;
    let read = s.host_pages_read as f64;
    // The steady-GC write cost already carries its share of relocation.
    let ssd_write = m["ssd.write_range64.host_ns_per_page"];
    let ssd_read = m["ssd.read_page.host_ns"];
    let ssd_ns = written * ssd_write + read * ssd_read;
    m.insert("ssd.host_share", ssd_ns / ops / per_op_ns);
    // What the filesystem adds per page on top of the device.
    let vfs_write = (m["vfs.append_64k.host_ns"] / 16.0 - ssd_write).max(0.0);
    let vfs_read = (m["vfs.read_at_4k.host_ns"] - ssd_read).max(0.0);
    let vfs_ns = written * vfs_write + read * vfs_read;
    m.insert("vfs.host_share", vfs_ns / ops / per_op_ns);

    let cache = e.stats.cache.unwrap_or_default();
    m.insert("cache.hits", cache.hits as f64);
    m.insert("cache.misses", cache.misses as f64);
    m.insert("cache.evictions", cache.evictions as f64);
    m.insert(
        "cache.hit_rate",
        if cache.hits + cache.misses == 0 {
            0.0
        } else {
            cache.hit_rate()
        },
    );
    m.insert("cache.device_bytes_saved", cache.bytes_saved as f64);
    let mut cache_ns = cache.hits as f64 * m["cache.block_get_hit.host_ns"]
        + cache.misses as f64
            * (m["cache.block_get_miss.host_ns"] + m["cache.block_insert_evict.host_ns"]);
    if compressed {
        // Every block read from the device is decoded, every page
        // written was encoded first.
        cache_ns += read * m["cache.codec_decode_4k.host_ns"]
            + written * m["cache.codec_encode_4k.host_ns"];
    }
    m.insert("cache.host_share", cache_ns / ops / per_op_ns);

    ssd_ns + vfs_ns + cache_ns
}

/// Background maintenance as the run itself accounted it, all shards.
fn maint_metrics(shards: &[ShardOut], m: &mut Values) {
    let ledgers: Vec<MaintStats> = shards.iter().filter_map(|s| s.result.maint).collect();
    let active = !ledgers.is_empty();
    let mut total = MaintStats::default();
    for ledger in &ledgers {
        total.merge(ledger);
    }
    m.insert("maint.jobs", total.jobs as f64);
    m.insert("maint.slices", total.slices as f64);
    m.insert("maint.installs", total.installs as f64);
    m.insert(
        "maint.bg_bytes",
        (total.bytes_read + total.bytes_written) as f64,
    );
    m.insert(
        "maint.stall_virt_ms",
        total.stall_ns as f64 / MILLISECOND as f64,
    );
    m.insert(
        "maint.write_amp",
        if active { total.write_amp() } else { 0.0 },
    );
    m.insert(
        "maint.space_amp",
        if active { total.space_amp() } else { 0.0 },
    );
}
