//! The metric tables (the benchmark's contract, mirrored in
//! `BENCHMARK.json`) and the result a workload run prints.

use ptsbench::ssd::MINUTE;

use crate::host::Summary;
use crate::json::Json;
use crate::measure::Round;
use crate::workloads::Workload;

/// Host seconds one contract-mode run measures for (`run_seconds`).
pub const RUN_SECONDS: u64 = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before it counts as a regression (end-to-end metrics only).
    pub bound: f64,
    /// Absolute slack, in the metric's unit, that `perf compare` allows
    /// on top of the bound (a quarter of a millisecond-scale set-up is
    /// not a regression anyone can see).
    pub floor: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
        floor: 0.0,
    }
}

/// The end-to-end metrics, reported on every workload. `host` metrics
/// are timed on the wall clock; `virt_*`, `wa_*` and `space_amp` are the
/// model's own outputs and repeat exactly for a fixed seed.
pub const END_TO_END: &[MetricDef] = &[
    e2e("sim_ops_per_host_s", "ops/s", Better::Higher, 0.25),
    MetricDef {
        floor: 0.25,
        ..e2e("setup_s", "s", Better::Lower, 0.25)
    },
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.15),
    e2e("virt_kops", "Kops/s", Better::Higher, 0.08),
    e2e("virt_svc_p50_ms", "ms", Better::Lower, 0.05),
    e2e("virt_svc_p99_ms", "ms", Better::Lower, 0.06),
    e2e("wa_a", "ratio", Better::Lower, 0.12),
    e2e("wa_d", "ratio", Better::Lower, 0.12),
    e2e("space_amp", "ratio", Better::Lower, 0.20),
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
        floor: 0.0,
    }
}

use Better::{Higher, Lower};

/// The per-layer metrics of the traced run, layer by layer (the layers
/// are the crates). `host_ns*` are unit costs timed from outside;
/// counts and `virt_*` values come from the model and repeat exactly;
/// `*_share` is an estimate: count x unit cost / host time per op.
/// A metric that does not apply to a workload reads 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    // ssd: SMART counts of the engine-level replay's device (shard 0
    // of a fleet), unit costs on a preconditioned 64 MiB device.
    layer("ssd.host_pages_written", "count", Lower),
    layer("ssd.host_pages_read", "count", Lower),
    layer("ssd.nand_pages_written", "count", Lower),
    layer("ssd.gc_pages_relocated", "count", Lower),
    layer("ssd.blocks_erased", "count", Lower),
    layer("ssd.gc_invocations", "count", Lower),
    layer("ssd.io_submitted", "count", Lower),
    layer("ssd.io_max_in_flight", "count", Higher),
    layer("ssd.write_page.host_ns", "ns", Lower),
    layer("ssd.write_range64.host_ns_per_page", "ns/page", Lower),
    layer("ssd.read_page.host_ns", "ns", Lower),
    layer("ssd.ioqueue_roundtrip.host_ns", "ns", Lower),
    layer("ssd.shared_lock.host_ns", "ns", Lower),
    layer("ssd.precondition.host_ms_per_gib", "ms/GiB", Lower),
    layer("ssd.host_share", "ratio", Lower),
    // vfs
    layer("vfs.append_64k.host_ns", "ns", Lower),
    layer("vfs.append_bg_64k.host_ns", "ns", Lower),
    layer("vfs.write_at_4k.host_ns", "ns", Lower),
    layer("vfs.read_at_4k.host_ns", "ns", Lower),
    layer("vfs.fsync.host_ns", "ns", Lower),
    layer("vfs.create_delete.host_ns", "ns", Lower),
    layer("vfs.peak_used_pages", "count", Lower),
    layer("vfs.live_files", "count", Lower),
    layer("vfs.host_share", "ratio", Lower),
    // engines, through `EngineKind::open` -> `PtsEngine`, on the
    // workload's own stack and op stream (shard 0 of a fleet).
    layer("lsm.put.host_ns_p50", "ns", Lower),
    layer("lsm.put.host_ns_p99", "ns", Lower),
    layer("lsm.get.host_ns_p50", "ns", Lower),
    layer("lsm.get.host_ns_p99", "ns", Lower),
    layer("lsm.bg_put.host_ns_p50", "ns", Lower),
    layer("lsm.bg_put.host_ns_p99", "ns", Lower),
    layer("lsm.bg_slice.host_ns_p50", "ns", Lower),
    layer("lsm.bulk_load.host_ns_per_key", "ns/key", Lower),
    layer("lsm.host_share", "ratio", Lower),
    layer("lsm.flushes", "count", Lower),
    layer("lsm.compactions", "count", Lower),
    layer("lsm.bloom_false_positives", "count", Lower),
    layer("btree.put.host_ns_p50", "ns", Lower),
    layer("btree.put.host_ns_p99", "ns", Lower),
    layer("btree.get.host_ns_p50", "ns", Lower),
    layer("btree.get.host_ns_p99", "ns", Lower),
    layer("btree.bg_put.host_ns_p50", "ns", Lower),
    layer("btree.bg_put.host_ns_p99", "ns", Lower),
    layer("btree.bg_slice.host_ns_p50", "ns", Lower),
    layer("btree.bulk_load.host_ns_per_key", "ns/key", Lower),
    layer("btree.host_share", "ratio", Lower),
    layer("btree.splits", "count", Lower),
    layer("btree.merges", "count", Lower),
    layer("btree.checkpoints", "count", Lower),
    layer("hashlog.put.host_ns_p50", "ns", Lower),
    layer("hashlog.put.host_ns_p99", "ns", Lower),
    layer("hashlog.get.host_ns_p50", "ns", Lower),
    layer("hashlog.get.host_ns_p99", "ns", Lower),
    layer("hashlog.bg_put.host_ns_p50", "ns", Lower),
    layer("hashlog.bg_put.host_ns_p99", "ns", Lower),
    layer("hashlog.bg_slice.host_ns_p50", "ns", Lower),
    layer("hashlog.bulk_load.host_ns_per_key", "ns/key", Lower),
    layer("hashlog.host_share", "ratio", Lower),
    layer("hashlog.segments", "count", Lower),
    layer("hashlog.gc_runs", "count", Lower),
    layer("hashlog.gc_bytes_rewritten", "B", Lower),
    // cache
    layer("cache.block_get_hit.host_ns", "ns", Lower),
    layer("cache.block_get_miss.host_ns", "ns", Lower),
    layer("cache.block_insert_evict.host_ns", "ns", Lower),
    layer("cache.codec_encode_4k.host_ns", "ns", Lower),
    layer("cache.codec_decode_4k.host_ns", "ns", Lower),
    layer("cache.hits", "count", Higher),
    layer("cache.misses", "count", Lower),
    layer("cache.evictions", "count", Lower),
    layer("cache.hit_rate", "ratio", Higher),
    layer("cache.device_bytes_saved", "B", Higher),
    layer("cache.host_share", "ratio", Lower),
    // maint
    layer("maint.try_charge.host_ns", "ns", Lower),
    layer("maint.sched_cycle.host_ns", "ns", Lower),
    layer("maint.jobs", "count", Lower),
    layer("maint.slices", "count", Lower),
    layer("maint.installs", "count", Lower),
    layer("maint.bg_bytes", "B", Lower),
    layer("maint.stall_virt_ms", "ms", Lower),
    layer("maint.write_amp", "ratio", Lower),
    layer("maint.space_amp", "ratio", Lower),
    // trace
    layer("trace.span_off.host_ns", "ns", Lower),
    layer("trace.span_on.host_ns", "ns", Lower),
    layer("trace.export_chrome.host_ms", "ms", Lower),
    layer("trace.overhead_pct", "%", Lower),
    layer("trace.spans_recorded", "count", Lower),
    layer("trace.spans_dropped", "count", Lower),
    // workload
    layer("workload.next_op_uniform.host_ns", "ns", Lower),
    layer("workload.next_op_zipf.host_ns", "ns", Lower),
    layer("workload.generator_new_zipf.host_us", "us", Lower),
    layer("workload.generator_bytes", "B", Lower),
    layer("workload.arrival_next.host_ns", "ns", Lower),
    layer("workload.loader_next.host_ns", "ns", Lower),
    // metrics
    layer("metrics.hist_record.host_ns", "ns", Lower),
    layer("metrics.hist_quantile.host_ns", "ns", Lower),
    layer("metrics.report_merge_render.host_us", "us", Lower),
    // core
    layer("core.serve.host_ns_p50", "ns", Lower),
    layer("core.serve.host_ns_p99", "ns", Lower),
    layer("core.serve_self.host_ns", "ns", Lower),
    layer("core.build_stack.host_ms", "ms", Lower),
    layer("core.bulk_load.host_ms", "ms", Lower),
    layer("core.finish.host_ms", "ms", Lower),
    layer("core.host_share", "ratio", Lower),
    // harness
    layer("harness.submit_fifo.host_ns_p50", "ns", Lower),
    layer("harness.submit_fifo.host_ns_p99", "ns", Lower),
    layer("harness.submit_wfq.host_ns_p50", "ns", Lower),
    layer("harness.submit_wfq.host_ns_p99", "ns", Lower),
    layer("harness.settle_one_backlog1k.host_ns", "ns", Lower),
    layer("harness.settle_one_backlog30k.host_ns", "ns", Lower),
    layer("harness.take.host_ns_p50", "ns", Lower),
    layer("harness.poll_pending100k.host_ns", "ns", Lower),
    layer("harness.driver_self.host_ns_per_req", "ns/req", Lower),
    layer("harness.barrier_arrive.host_ns", "ns", Lower),
    layer("harness.pending_peak", "count", Lower),
    layer("harness.backlog_peak", "count", Lower),
    layer("harness.max_utilization", "ratio", Lower),
    layer("harness.request_ratio", "ratio", Lower),
    layer("harness.qdelay_p99.virt_ms", "ms", Lower),
    layer("harness.host_share", "ratio", Lower),
    // host: the benchmark process itself
    layer("host.wall_s", "s", Lower),
    layer("host.cpu_s", "s", Lower),
    layer("host.cpu_per_wall", "ratio", Higher),
    layer("host.virt_s_per_host_s", "ratio", Higher),
    layer("host.allocs_per_sim_op", "1/op", Lower),
    layer("host.alloc_bytes_per_sim_op", "B/op", Lower),
    layer("host.unattributed_share", "ratio", Lower),
];

/// One reported metric value with the spread of its samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    pub name: &'static str,
    pub unit: &'static str,
    pub summary: Summary,
}

/// What one run of one workload reports.
pub struct WorkloadResult {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks, one line each (empty when `correct`).
    pub problems: Vec<String>,
    pub rounds: usize,
    pub virtual_minutes: f64,
    pub values: Vec<Value>,
}

impl WorkloadResult {
    pub fn new(w: &Workload, seed: u64, traced: bool) -> Self {
        Self {
            workload: w.name.to_string(),
            seed,
            traced,
            correct: true,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            rounds: 0,
            virtual_minutes: w.scenario.base().duration as f64 / MINUTE as f64,
            values: Vec::new(),
        }
    }

    /// Records a failed output check.
    pub fn fail(&mut self, problem: String) {
        self.correct = false;
        self.problems.push(problem);
    }

    /// Reports `summary` under `name`, with the unit `defs` gives it.
    pub fn push(&mut self, defs: &[MetricDef], name: &'static str, summary: Summary) {
        match defs.iter().find(|d| d.name == name) {
            Some(def) => self.values.push(Value {
                name,
                unit: def.unit,
                summary,
            }),
            None => self.fail(format!("{name} is not in the metric table")),
        }
    }

    /// The accounting identities every run must satisfy: nothing ran
    /// out of space, and attempted = served + failed on every shard.
    pub fn check_accounting(&mut self, round: &Round) {
        for (i, s) in round.shards.iter().enumerate() {
            if s.result.out_of_space || s.result.failed_during_load {
                self.fail(format!("shard {i} ran out of space"));
            }
            if let Some(load) = &s.load {
                let turned_away = s
                    .slo
                    .map_or(0, |slo| slo.rejected + slo.shed + slo.throttled);
                if load.requests != load.served + load.dropped + turned_away {
                    self.fail(format!(
                        "shard {i}: {} requests != {} served + {} dropped + {turned_away} turned away",
                        load.requests, load.served, load.dropped
                    ));
                }
                if load.served != s.result.ops_executed {
                    self.fail(format!(
                        "shard {i}: served {} != engine ops {}",
                        load.served, s.result.ops_executed
                    ));
                }
            }
        }
        if round.failed > 0 {
            self.fail(format!(
                "{} of {} ops failed",
                round.failed, round.attempted
            ));
        }
    }

    /// Checks that `values` holds exactly the metrics of `defs`, in
    /// table order; a mismatch is a bug in the benchmark itself.
    pub fn check_against(&mut self, defs: &[MetricDef]) {
        let got: Vec<&str> = self.values.iter().map(|v| v.name).collect();
        let want: Vec<&str> = defs.iter().map(|d| d.name).collect();
        if got != want {
            self.fail(format!(
                "metric set mismatch: reported {got:?}, table has {want:?}"
            ));
        }
        let not_finite: Vec<&str> = self
            .values
            .iter()
            .filter(|v| !v.summary.median.is_finite())
            .map(|v| v.name)
            .collect();
        for name in not_finite {
            self.fail(format!("{name} is not finite"));
        }
    }

    pub fn print_table(&self) {
        println!(
            "== {} (seed {}, {} round{}, {:.0} virtual min{}) ==",
            self.workload,
            self.seed,
            self.rounds,
            if self.rounds == 1 { "" } else { "s" },
            self.virtual_minutes,
            if self.traced { ", traced" } else { "" }
        );
        for v in &self.values {
            let s = &v.summary;
            if s.n > 1 {
                println!(
                    "  {:<44} {:>16.6} {:<8} (n={}, min {:.6}, max {:.6})",
                    v.name, s.median, v.unit, s.n, s.min, s.max
                );
            } else {
                println!("  {:<44} {:>16.6} {}", v.name, s.median, v.unit);
            }
        }
        println!(
            "  ops attempted {}, failed {}; checks {}",
            self.attempted,
            self.failed,
            if self.correct { "passed" } else { "FAILED" }
        );
        for p in &self.problems {
            println!("  check failed: {p}");
        }
    }

    /// The full record (`detail` line, `--json` reports).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("workload", Json::str(&self.workload)),
            ("seed", Json::Num(self.seed as f64)),
            ("traced", Json::Bool(self.traced)),
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("rounds", Json::Num(self.rounds as f64)),
            ("virtual_minutes", Json::Num(self.virtual_minutes)),
            (
                "problems",
                Json::Arr(self.problems.iter().map(Json::str).collect()),
            ),
            (
                "metrics",
                Json::obj(self.values.iter().map(|v| {
                    (
                        v.name,
                        Json::obj([
                            ("value", Json::Num(v.summary.median)),
                            ("unit", Json::str(v.unit)),
                            ("min", Json::Num(v.summary.min)),
                            ("max", Json::Num(v.summary.max)),
                            ("n", Json::Num(v.summary.n as f64)),
                        ]),
                    )
                })),
            ),
        ])
    }

    /// The driver's contract: exactly `correct`, `attempted`, `failed`
    /// and `metrics` of `{value, unit}`.
    pub fn contract_line(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.values.iter().map(|v| {
                    (
                        v.name,
                        Json::obj([
                            ("value", Json::Num(v.summary.median)),
                            ("unit", Json::str(v.unit)),
                        ]),
                    )
                })),
            ),
        ])
    }
}
