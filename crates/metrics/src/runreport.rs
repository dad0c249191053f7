//! Merged reports of concurrent, sharded runs.
//!
//! The concurrent harness drives several clients, each measuring its
//! own shard with a private [`LatencyHistogram`] and per-window
//! [`TimeSeries`]. A [`RunReport`] folds those per-client
//! [`ShardReport`]s into one experiment-level result: summed additive
//! series, one merged latency distribution, and aggregate
//! write-amplification from the summed byte counters.
//!
//! Rendering is deliberately deterministic: every number is formatted
//! with fixed precision and shards are ordered by index, so two runs
//! with the same seed produce **byte-identical** report text — the
//! property the CI determinism check diffs for.

use ptsbench_maint::MaintStats;
use ptsbench_trace::CauseStats;

use crate::cache::CacheStats;
use crate::histogram::LatencyHistogram;
use crate::load::{LoadImbalance, ShardLoad};
use crate::mt::MtStats;
use crate::report::render_series_table;
use crate::slo::SloStats;
use crate::timeseries::TimeSeries;

/// Submission-queue depth summary of one shard: how deep its engine's
/// asynchronous I/O actually ran during the measured phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueueDepthSummary {
    /// Commands submitted through I/O queues.
    pub submitted: u64,
    /// Maximum commands in flight at any submission.
    pub max_in_flight: u64,
    /// Mean in-flight count over all submissions.
    pub mean_in_flight: f64,
}

/// One client's view of its shard, as handed to [`RunReport::merge`].
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// Shard name (e.g. `shard0`); reports render shards sorted by
    /// their position in the merge input, so pass them in index order.
    pub name: String,
    /// Operations executed in the measured phase.
    pub ops: u64,
    /// Whether the shard ended early because its partition filled up.
    pub out_of_space: bool,
    /// Per-op latency distribution (simulated ns).
    pub latency: LatencyHistogram,
    /// Application payload bytes written during the measured phase.
    pub app_bytes: u64,
    /// Host bytes reaching the device during the measured phase.
    pub host_bytes: u64,
    /// In-flight-depth metrics of the shard's submission queues.
    /// `None` for synchronous (queue-depth-1) runs — and rendered only
    /// when `Some`, so depth-1 reports stay byte-identical to the
    /// pre-queue renderer.
    pub io_depth: Option<QueueDepthSummary>,
    /// Per-request queue-delay distribution (time between front-end
    /// submission and service start) when the shard was driven through
    /// the serving front-end. `None` — and unrendered — for direct
    /// harness runs and for the front-end's conformance configuration,
    /// which must reproduce direct reports byte-identically.
    pub queue_delay: Option<LatencyHistogram>,
    /// Serving-load accounting (requests routed, engine busy time) when
    /// driven through the front-end; same `None` contract as
    /// [`ShardReport::queue_delay`].
    pub load: Option<ShardLoad>,
    /// SLO accounting (admitted/rejected/shed, goodput) when the
    /// front-end ran with an *active* admission policy. `None` — and
    /// unrendered — otherwise, so policy-free reports stay
    /// byte-identical to pre-SLO output (pinned in
    /// `tests/slo_conformance.rs`).
    pub slo: Option<SloStats>,
    /// Multi-tenant accounting (per-class SLO lanes, starvation maxima,
    /// per-tenant quota ledgers) when the front-end ran with classes,
    /// a reordering discipline or tenant quotas active. `None` — and
    /// unrendered — otherwise, so class-less reports stay
    /// byte-identical to pre-multi-tenant output (pinned in
    /// `tests/tenant_conformance.rs`).
    pub mt: Option<MtStats>,
    /// Read-path cache accounting (block cache and/or pager) when the
    /// run was configured with a cache budget. `None` — and unrendered
    /// — otherwise, so cache-off reports stay byte-identical to
    /// pre-cache output (pinned in `tests/cache_conformance.rs`).
    pub cache: Option<CacheStats>,
    /// Per-cause device traffic attribution (which request kinds and
    /// background activities each device byte belongs to) when the run
    /// was traced. `None` — and unrendered — otherwise, so untraced
    /// reports stay byte-identical to pre-trace output (pinned in
    /// `tests/trace_conformance.rs`).
    pub cause: Option<CauseStats>,
    /// Background-maintenance accounting (jobs, slices, stall time,
    /// write/space amplification) when the run deferred maintenance.
    /// `None` — and unrendered — otherwise, so maintenance-off reports
    /// stay byte-identical to pre-maintenance output (pinned in
    /// `tests/maint_conformance.rs`).
    pub maint: Option<MaintStats>,
    /// Additive per-window series (throughput, device MB/s, ...). All
    /// shards must emit the same series names in the same order, on the
    /// same window boundaries.
    pub series: Vec<TimeSeries>,
}

/// The merged outcome of one concurrent sharded experiment.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Configuration label.
    pub label: String,
    /// Client threads that drove the run.
    pub clients: usize,
    /// Total operations across all shards.
    pub ops: u64,
    /// Merged latency distribution.
    pub latency: LatencyHistogram,
    /// Merged queue-delay distribution across all shards that reported
    /// one (`None` when no shard did).
    pub queue_delay: Option<LatencyHistogram>,
    /// Aggregate application bytes written.
    pub app_bytes: u64,
    /// Aggregate host bytes written.
    pub host_bytes: u64,
    /// Summed additive series (same names/order as the shard inputs).
    pub series: Vec<TimeSeries>,
    /// The per-shard inputs, in merge order.
    pub shards: Vec<ShardReport>,
}

impl RunReport {
    /// Folds per-shard reports into one run-level report. Shards must
    /// be passed in shard-index order for deterministic rendering.
    pub fn merge(label: impl Into<String>, clients: usize, shards: Vec<ShardReport>) -> Self {
        assert!(!shards.is_empty(), "a run needs at least one shard");
        let mut ops: u64 = 0;
        let mut app_bytes: u64 = 0;
        let mut host_bytes: u64 = 0;
        let mut latency = LatencyHistogram::new();
        let mut queue_delay: Option<LatencyHistogram> = None;
        let mut series: Vec<TimeSeries> = Vec::new();
        for shard in &shards {
            ops = ops.saturating_add(shard.ops);
            app_bytes = app_bytes.saturating_add(shard.app_bytes);
            host_bytes = host_bytes.saturating_add(shard.host_bytes);
            latency.merge(&shard.latency);
            if let Some(qd) = &shard.queue_delay {
                queue_delay
                    .get_or_insert_with(LatencyHistogram::new)
                    .merge(qd);
            }
            for (i, s) in shard.series.iter().enumerate() {
                match series.get_mut(i) {
                    Some(agg) => {
                        assert_eq!(
                            agg.name(),
                            s.name(),
                            "shards must emit the same series in the same order"
                        );
                        agg.merge(s);
                    }
                    None => series.push(s.clone()),
                }
            }
        }
        Self {
            label: label.into(),
            clients,
            ops,
            latency,
            queue_delay,
            app_bytes,
            host_bytes,
            series,
            shards,
        }
    }

    /// Aggregate write amplification above the device (WA-A): host
    /// bytes per application byte.
    pub fn wa_a(&self) -> f64 {
        if self.app_bytes == 0 {
            1.0
        } else {
            self.host_bytes as f64 / self.app_bytes as f64
        }
    }

    /// The merged series of a given name, if any shard emitted it.
    pub fn series_named(&self, name: &str) -> Option<&TimeSeries> {
        self.series.iter().find(|s| s.name() == name)
    }

    /// Mean of the last half of a merged series (steady-state view).
    pub fn steady_mean(&self, name: &str) -> Option<f64> {
        let s = self.series_named(name)?;
        s.tail_mean((s.len() / 2).max(1))
    }

    /// Shards that ran out of space.
    pub fn out_of_space_shards(&self) -> usize {
        self.shards.iter().filter(|s| s.out_of_space).count()
    }

    /// A merged queue-delay quantile in nanoseconds (`None` when no
    /// shard reported queue delays).
    pub fn queue_delay_quantile(&self, q: f64) -> Option<u64> {
        self.queue_delay.as_ref().map(|qd| qd.quantile(q))
    }

    /// Cross-shard load imbalance, folded over every shard that
    /// reported serving-load accounting (`None` when none did).
    pub fn load_imbalance(&self) -> Option<LoadImbalance> {
        let loads: Vec<ShardLoad> = self.shards.iter().filter_map(|s| s.load).collect();
        LoadImbalance::from_shards(&loads)
    }

    /// The one fold over an optional report section: `merge`s the
    /// section of every shard that carries one into a default-started
    /// total, `None` when no shard does.
    fn fold_sections<T: Default>(
        &self,
        section: impl Fn(&ShardReport) -> Option<&T>,
        merge: impl Fn(&mut T, &T),
    ) -> Option<T> {
        self.shards.iter().filter_map(section).fold(None, |acc, s| {
            let mut total = acc.unwrap_or_default();
            merge(&mut total, s);
            Some(total)
        })
    }

    /// Fleet-level SLO accounting, folded over every shard that
    /// reported it (`None` when none did — i.e. no admission policy was
    /// active). Counters sum; the span stays the shared measurement
    /// window, so [`SloStats::goodput_per_sec`] is the fleet rate.
    pub fn slo_totals(&self) -> Option<SloStats> {
        self.fold_sections(|s| s.slo.as_ref(), SloStats::merge)
    }

    /// Fleet-level multi-tenant accounting, folded over every shard
    /// that reported it (`None` when none did — i.e. classes, tenant
    /// quotas and reordering disciplines were all inactive). Class
    /// lanes merge lane-wise; tenant ledgers merge by id; starvation
    /// maxima take the fleet-wide max.
    pub fn mt_totals(&self) -> Option<MtStats> {
        self.fold_sections(|s| s.mt.as_ref(), MtStats::merge)
    }

    /// Run-level cache accounting, folded over every shard that
    /// reported it (`None` when none did — i.e. no cache budget was
    /// configured). Counters sum across shards; the hit rate is the
    /// fleet-wide rate.
    pub fn cache_totals(&self) -> Option<CacheStats> {
        self.fold_sections(|s| s.cache.as_ref(), CacheStats::merge)
    }

    /// Fleet-level per-cause device traffic, folded over every shard
    /// that reported attribution (`None` when none did — i.e. no shard
    /// was traced). Counters sum across shards, so the totals row is
    /// the fleet's whole device traffic by provenance.
    pub fn cause_totals(&self) -> Option<CauseStats> {
        self.fold_sections(|s| s.cause.as_ref(), CauseStats::merge)
    }

    /// Fleet-level background-maintenance accounting, folded over every
    /// shard that reported it (`None` when none did — i.e. maintenance
    /// ran inline). Counters and byte ledgers sum across shards, so the
    /// footer's write/space amplification is the fleet-wide figure.
    pub fn maint_totals(&self) -> Option<MaintStats> {
        self.fold_sections(|s| s.maint.as_ref(), MaintStats::merge)
    }

    /// Deterministic plain-text rendering (byte-identical for
    /// byte-identical inputs): an aggregate header, one aligned table
    /// of all merged series (via [`render_series_table`]), the merged
    /// latency quantiles, and one line per shard.
    pub fn render(&self) -> String {
        let mut out = format!(
            "== {} | clients={} shards={} ==\n",
            self.label,
            self.clients,
            self.shards.len()
        );
        out.push_str(&format!(
            "ops={} wa_a={:.4} out_of_space_shards={}\n",
            self.ops,
            self.wa_a(),
            self.out_of_space_shards()
        ));
        out.push_str(&render_series_table(
            &self.series.iter().collect::<Vec<_>>(),
        ));
        out.push_str(&format!(
            "latency ns: mean={:.0} p50={} p99={} max={}\n",
            self.latency.mean(),
            self.latency.quantile(0.5),
            self.latency.quantile(0.99),
            self.latency.max()
        ));
        if let Some(qd) = &self.queue_delay {
            out.push_str(&format!(
                "queue delay ns: mean={:.0} p50={} p99={} max={} (requests={})\n",
                qd.mean(),
                qd.quantile(0.5),
                qd.quantile(0.99),
                qd.max(),
                qd.count()
            ));
        }
        let footers = [
            self.load_imbalance().map(|s| s.render()),
            self.slo_totals().map(|s| s.render()),
            self.mt_totals().map(|s| s.render()),
            self.cache_totals().map(|s| s.render()),
            self.cause_totals().map(|s| s.render()),
            self.maint_totals().map(|s| s.render()),
        ];
        for footer in footers.into_iter().flatten() {
            out.push_str(&footer);
            out.push('\n');
        }
        for shard in &self.shards {
            out.push_str(&format!(
                "{}: ops={} app_bytes={} host_bytes={}{}{}{}{}{}{}{}{}{}\n",
                shard.name,
                shard.ops,
                shard.app_bytes,
                shard.host_bytes,
                match &shard.io_depth {
                    Some(io) => format!(
                        " qd[submitted={} max_in_flight={} mean={:.2}]",
                        io.submitted, io.max_in_flight, io.mean_in_flight
                    ),
                    None => String::new(),
                },
                match &shard.queue_delay {
                    Some(qd) => format!(" qdelay[p99={}]", qd.quantile(0.99)),
                    None => String::new(),
                },
                compact(&shard.load, ShardLoad::render_compact),
                compact(&shard.slo, SloStats::render_compact),
                compact(&shard.mt, MtStats::render_compact),
                compact(&shard.cache, CacheStats::render_compact),
                compact(&shard.cause, CauseStats::render_compact),
                compact(&shard.maint, MaintStats::render_compact),
                if shard.out_of_space {
                    " OUT-OF-SPACE"
                } else {
                    ""
                }
            ));
        }
        out
    }

    /// The deepest in-flight depth any shard reported (`None` when every
    /// shard ran synchronously).
    pub fn max_in_flight(&self) -> Option<u64> {
        self.shards
            .iter()
            .filter_map(|s| s.io_depth.map(|io| io.max_in_flight))
            .max()
    }
}

/// A shard line's rendering of an optional section: a space and the
/// compact form, or nothing.
fn compact<T>(section: &Option<T>, render: impl Fn(&T) -> String) -> String {
    section
        .as_ref()
        .map_or_else(String::new, |s| format!(" {}", render(s)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shard(name: &str, ops: u64, lat: &[u64], kops: &[f64]) -> ShardReport {
        let mut latency = LatencyHistogram::new();
        for &l in lat {
            latency.record(l);
        }
        let mut series = TimeSeries::new("kops");
        for (i, &v) in kops.iter().enumerate() {
            series.push((i as u64 + 1) * 600 * 1_000_000_000, v);
        }
        ShardReport {
            name: name.to_string(),
            ops,
            out_of_space: false,
            latency,
            app_bytes: ops * 100,
            host_bytes: ops * 250,
            io_depth: None,
            queue_delay: None,
            load: None,
            slo: None,
            mt: None,
            cache: None,
            cause: None,
            maint: None,
            series: vec![series],
        }
    }

    #[test]
    fn merge_aggregates_everything() {
        let r = RunReport::merge(
            "test",
            2,
            vec![
                shard("shard0", 10, &[1_000, 2_000], &[1.0, 2.0]),
                shard("shard1", 30, &[5_000], &[3.0, 4.0]),
            ],
        );
        assert_eq!(r.ops, 40);
        assert_eq!(r.latency.count(), 3);
        assert_eq!(r.latency.max(), 5_000);
        assert_eq!(r.series.len(), 1);
        assert_eq!(r.series_named("kops").expect("kops").values(), [4.0, 6.0]);
        assert!((r.wa_a() - 2.5).abs() < 1e-12);
        assert_eq!(r.out_of_space_shards(), 0);
    }

    #[test]
    fn render_is_deterministic_and_complete() {
        let make = || {
            RunReport::merge(
                "lsm/SSD1",
                2,
                vec![
                    shard("shard0", 10, &[1_000], &[1.5]),
                    shard("shard1", 20, &[2_000], &[2.5]),
                ],
            )
        };
        let a = make().render();
        let b = make().render();
        assert_eq!(a, b, "same inputs must render byte-identically");
        assert!(a.contains("clients=2"));
        assert!(a.contains("shard0: ops=10"));
        assert!(a.contains("shard1: ops=20"));
        assert!(a.contains("ops=30"));
        assert!(a.contains("time(min)"));
        assert!(a.contains("kops"));
    }

    #[test]
    fn queue_depth_renders_only_when_present() {
        let plain = RunReport::merge("x", 1, vec![shard("shard0", 5, &[1_000], &[1.0])]);
        assert!(
            !plain.render().contains("qd["),
            "synchronous shards must render exactly as before"
        );
        assert_eq!(plain.max_in_flight(), None);

        let mut s = shard("shard0", 5, &[1_000], &[1.0]);
        s.io_depth = Some(QueueDepthSummary {
            submitted: 120,
            max_in_flight: 8,
            mean_in_flight: 5.25,
        });
        let deep = RunReport::merge("x", 1, vec![s]);
        let text = deep.render();
        assert!(text.contains("qd[submitted=120 max_in_flight=8 mean=5.25]"));
        assert_eq!(deep.max_in_flight(), Some(8));
    }

    #[test]
    fn queue_delay_and_load_render_only_when_present() {
        // Absent: the report must render exactly as before the serving
        // front-end existed (the conformance-suite contract).
        let plain = RunReport::merge("x", 1, vec![shard("shard0", 5, &[1_000], &[1.0])]);
        let plain_text = plain.render();
        assert!(!plain_text.contains("queue delay"));
        assert!(!plain_text.contains("shard load"));
        assert!(!plain_text.contains("qdelay["));
        assert!(!plain_text.contains("load["));
        assert!(plain.queue_delay.is_none());
        assert!(plain.load_imbalance().is_none());

        // Present: merged queue-delay quantiles, per-shard tails, and
        // the imbalance footer all appear.
        let mut a = shard("shard0", 5, &[1_000], &[1.0]);
        let mut qd = LatencyHistogram::new();
        qd.record(10_000);
        qd.record(90_000);
        a.queue_delay = Some(qd);
        a.load = Some(ShardLoad {
            requests: 40,
            served: 40,
            dropped: 0,
            busy_ns: 600,
            span_ns: 1_000,
        });
        let mut b = shard("shard1", 5, &[1_000], &[1.0]);
        let mut qd = LatencyHistogram::new();
        qd.record(20_000);
        b.queue_delay = Some(qd);
        b.load = Some(ShardLoad {
            requests: 10,
            served: 10,
            dropped: 0,
            busy_ns: 200,
            span_ns: 1_000,
        });
        let served = RunReport::merge("x", 2, vec![a, b]);
        let text = served.render();
        assert!(text.contains("queue delay ns: mean="));
        assert!(text.contains("(requests=3)"));
        assert!(text.contains("shard load: req_ratio=4.00"));
        assert!(text.contains("qdelay[p99="));
        assert!(text.contains("load[req=40 served=40 util=0.6000]"));
        assert_eq!(
            served.queue_delay.as_ref().map(|qd| qd.count()),
            Some(3),
            "shard queue delays merge"
        );
        assert!(served.queue_delay_quantile(0.99).expect("p99") >= 90_000);
        let imbalance = served.load_imbalance().expect("imbalance");
        assert_eq!(imbalance.max_requests, 40);
        assert_eq!(imbalance.min_requests, 10);
    }

    #[test]
    fn slo_stats_render_only_when_present() {
        // Absent: the report must render exactly as before admission
        // control existed (the slo_conformance-suite contract).
        let plain = RunReport::merge("x", 1, vec![shard("shard0", 5, &[1_000], &[1.0])]);
        let plain_text = plain.render();
        assert!(plain.slo_totals().is_none());
        assert!(!plain_text.contains("slo"));

        // Present: the fleet footer sums shard counters and each shard
        // line carries its compact accounting.
        let mut a = shard("shard0", 5, &[1_000], &[1.0]);
        a.slo = Some(SloStats {
            offered: 100,
            admitted: 90,
            rejected: 10,
            shed: 2,
            throttled: 0,
            served: 88,
            span_ns: 1_000_000_000,
        });
        let mut b = shard("shard1", 5, &[1_000], &[1.0]);
        b.slo = Some(SloStats {
            offered: 50,
            admitted: 50,
            rejected: 0,
            shed: 0,
            throttled: 0,
            served: 50,
            span_ns: 1_000_000_000,
        });
        let report = RunReport::merge("x", 2, vec![a, b]);
        let totals = report.slo_totals().expect("slo totals");
        assert_eq!(totals.offered, 150);
        assert_eq!(totals.rejected, 10);
        assert_eq!(totals.served, 138);
        assert_eq!(totals.span_ns, 1_000_000_000);
        let text = report.render();
        assert!(text
            .contains("slo: offered=150 admitted=140 rejected=10 shed=2 throttled=0 served=138"));
        assert!(text.contains("goodput=138.0/s"));
        assert!(text.contains("slo[adm=90 rej=10 shed=2 thr=0 att=0.8800]"));
        assert!(text.contains("slo[adm=50 rej=0 shed=0 thr=0 att=1.0000]"));
    }

    #[test]
    fn mt_stats_render_only_when_present() {
        // Absent: the report must render exactly as before multi-tenant
        // serving existed (the tenant_conformance-suite contract).
        let plain = RunReport::merge("x", 1, vec![shard("shard0", 5, &[1_000], &[1.0])]);
        let plain_text = plain.render();
        assert!(plain.mt_totals().is_none());
        assert!(!plain_text.contains("mt"));
        assert!(!plain_text.contains("tenants"));

        // Present: the fleet footer folds class lanes and tenant
        // ledgers, and each shard line carries its compact accounting.
        let mut a = shard("shard0", 5, &[1_000], &[1.0]);
        let mut ma = MtStats::new(1);
        {
            let lane = ma.class_mut(crate::mt::ReqClass::Interactive);
            lane.slo.offered = 20;
            lane.slo.admitted = 20;
            lane.slo.served = 20;
            lane.starve_max_ns = 4_000;
        }
        ma.tenants[0].offered = 20;
        ma.tenants[0].admitted = 20;
        a.mt = Some(ma);
        let mut b = shard("shard1", 5, &[1_000], &[1.0]);
        let mut mb = MtStats::new(1);
        {
            let lane = mb.class_mut(crate::mt::ReqClass::Batch);
            lane.slo.offered = 10;
            lane.slo.admitted = 6;
            lane.slo.throttled = 4;
            lane.slo.served = 6;
            lane.starve_max_ns = 9_000;
        }
        mb.tenants[0].offered = 10;
        mb.tenants[0].admitted = 6;
        mb.tenants[0].throttled = 4;
        b.mt = Some(mb);
        let report = RunReport::merge("x", 2, vec![a, b]);
        let totals = report.mt_totals().expect("mt totals");
        assert_eq!(
            totals.class(crate::mt::ReqClass::Interactive).slo.served,
            20
        );
        assert_eq!(totals.class(crate::mt::ReqClass::Batch).slo.throttled, 4);
        assert_eq!(totals.tenants[0].throttled, 4);
        let text = report.render();
        assert!(text.contains("mt: int[off=20 srv=20"));
        assert!(text.contains("bat[off=10 srv=6"));
        assert!(text.contains("tenants: t0[off=30 adm=26 thr=4]"));
        assert!(text.contains("mt[int=20/20]"));
        assert!(text.contains("mt[bat=6/10]"));
    }

    #[test]
    fn cache_stats_render_only_when_present() {
        // Absent: the report must render exactly as before the read-path
        // cache existed (the cache_conformance-suite contract).
        let plain = RunReport::merge("x", 1, vec![shard("shard0", 5, &[1_000], &[1.0])]);
        let plain_text = plain.render();
        assert!(plain.cache_totals().is_none());
        assert!(!plain_text.contains("cache"));

        // Present: the fleet footer sums shard counters and each shard
        // line carries its compact accounting.
        let mut a = shard("shard0", 5, &[1_000], &[1.0]);
        a.cache = Some(CacheStats {
            hits: 60,
            misses: 40,
            admissions: 30,
            rejections: 10,
            evictions: 8,
            bytes_saved: 240_000,
        });
        let mut b = shard("shard1", 5, &[1_000], &[1.0]);
        b.cache = Some(CacheStats {
            hits: 40,
            misses: 60,
            admissions: 50,
            rejections: 10,
            evictions: 42,
            bytes_saved: 160_000,
        });
        let report = RunReport::merge("x", 2, vec![a, b]);
        let totals = report.cache_totals().expect("cache totals");
        assert_eq!(totals.hits, 100);
        assert_eq!(totals.misses, 100);
        assert_eq!(totals.bytes_saved, 400_000);
        let text = report.render();
        assert!(text.contains(
            "cache: hits=100 misses=100 hit_rate=0.5000 admitted=80 rejected=20 \
             evicted=50 bytes_saved=400000"
        ));
        assert!(text.contains("cache[hit=60 miss=40 rate=0.6000 saved=240000]"));
        assert!(text.contains("cache[hit=40 miss=60 rate=0.4000 saved=160000]"));
    }

    #[test]
    fn cause_stats_render_only_when_present() {
        use ptsbench_trace::Cause;

        // Absent: the report must render exactly as before tracing
        // existed (the trace_conformance-suite contract).
        let plain = RunReport::merge("x", 1, vec![shard("shard0", 5, &[1_000], &[1.0])]);
        let plain_text = plain.render();
        assert!(plain.cause_totals().is_none());
        assert!(!plain_text.contains("cause"));

        // Present: the fleet footer folds shard attribution and each
        // shard line carries its compact breakdown.
        let mut a = shard("shard0", 5, &[1_000], &[1.0]);
        let mut sa = CauseStats::new();
        sa.note_write(Cause::Put, 4_096);
        sa.note_write(Cause::Compaction, 8_192);
        sa.note_read(Cause::Get, 2_048);
        sa.note_erases(Cause::Compaction, 3);
        a.cause = Some(sa);
        let mut b = shard("shard1", 5, &[1_000], &[1.0]);
        let mut sb = CauseStats::new();
        sb.note_write(Cause::Put, 1_024);
        sb.note_read(Cause::Get, 512);
        b.cause = Some(sb);
        let report = RunReport::merge("x", 2, vec![a, b]);
        let totals = report.cause_totals().expect("cause totals");
        assert_eq!(totals.total_bytes_written(), 13_312);
        assert_eq!(totals.total_bytes_read(), 2_560);
        assert_eq!(totals.total_erases(), 3);
        let text = report.render();
        assert!(text.contains(
            "cause: get[w=0 r=2560 e=0] put[w=5120 r=0 e=0] \
             compaction[w=8192 r=0 e=3] total[w=13312 r=2560 e=3]"
        ));
        assert!(text.contains("cause[get=0+2048 put=4096+0 compaction=8192+0]"));
        assert!(text.contains("cause[get=0+512 put=1024+0]"));
    }

    #[test]
    fn maint_stats_render_only_when_present() {
        // Absent: the report must render exactly as before background
        // maintenance existed (the maint_conformance-suite contract).
        let plain = RunReport::merge("x", 1, vec![shard("shard0", 5, &[1_000], &[1.0])]);
        let plain_text = plain.render();
        assert!(plain.maint_totals().is_none());
        assert!(!plain_text.contains("maint"));

        // Present: the fleet footer sums shard ledgers and each shard
        // line carries its compact accounting.
        let mut a = shard("shard0", 5, &[1_000], &[1.0]);
        a.maint = Some(MaintStats {
            jobs: 4,
            slices: 20,
            installs: 4,
            bytes_read: 1_000,
            bytes_written: 3_000,
            stall_ns: 500,
            app_bytes: 1_000,
            host_bytes: 4_000,
            live_bytes: 2_000,
            used_bytes: 3_000,
        });
        let mut b = shard("shard1", 5, &[1_000], &[1.0]);
        b.maint = Some(MaintStats {
            jobs: 2,
            slices: 10,
            installs: 2,
            bytes_read: 500,
            bytes_written: 1_000,
            stall_ns: 100,
            app_bytes: 1_000,
            host_bytes: 2_000,
            live_bytes: 2_000,
            used_bytes: 5_000,
        });
        let report = RunReport::merge("x", 2, vec![a, b]);
        let totals = report.maint_totals().expect("maint totals");
        assert_eq!(totals.jobs, 6);
        assert_eq!(totals.installs, 6);
        assert_eq!(totals.bytes_written, 4_000);
        assert!((totals.write_amp() - 3.0).abs() < 1e-12);
        assert!((totals.space_amp() - 2.0).abs() < 1e-12);
        let text = report.render();
        assert!(text.contains(
            "maint: jobs=6 installs=6 slices=30 bg_write=4000 bg_read=1500 stall_ns=600 \
             write_amp=3.0000 space_amp=2.0000"
        ));
        assert!(text.contains("maint[jobs=4 slices=20 stall=500 wa=4.0000 sa=1.5000]"));
        assert!(text.contains("maint[jobs=2 slices=10 stall=100 wa=2.0000 sa=2.5000]"));
    }

    #[test]
    fn imbalance_renders_deterministically() {
        let make = || {
            let mut s = shard("shard0", 5, &[1_000], &[1.0]);
            s.load = Some(ShardLoad {
                requests: 7,
                served: 7,
                dropped: 0,
                busy_ns: 333,
                span_ns: 1_000,
            });
            let mut qd = LatencyHistogram::new();
            qd.record(5_000);
            s.queue_delay = Some(qd);
            RunReport::merge("x", 1, vec![s]).render()
        };
        assert_eq!(make(), make(), "identical inputs, identical bytes");
    }

    #[test]
    fn out_of_space_shards_are_flagged() {
        let mut s = shard("shard0", 5, &[1_000], &[1.0]);
        s.out_of_space = true;
        let r = RunReport::merge("x", 1, vec![s]);
        assert_eq!(r.out_of_space_shards(), 1);
        assert!(r.render().contains("OUT-OF-SPACE"));
    }

    #[test]
    #[should_panic(expected = "same series")]
    fn misnamed_series_are_rejected() {
        let a = shard("a", 1, &[1_000], &[1.0]);
        let mut b = shard("b", 1, &[1_000], &[1.0]);
        b.series[0] = TimeSeries::new("other");
        RunReport::merge("x", 1, vec![a, b]);
    }
}
