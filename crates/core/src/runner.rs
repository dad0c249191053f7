//! The experiment runner.
//!
//! One [`run`] reproduces the paper's measurement procedure end to end:
//!
//! 1. build a simulated drive in a controlled initial state (§3.4);
//! 2. mount a filesystem on a partition (whole drive, or less when
//!    testing software over-provisioning, §4.6);
//! 3. bulk-load the dataset in sequential key order (§3.2);
//! 4. reset observability (SMART baseline, traces) and run the
//!    single-threaded update/read phase for a fixed simulated duration,
//!    charging per-op CPU cost on the same clock as the device;
//! 5. sample every §3.3 metric once per window (default: 10 simulated
//!    minutes) and summarize steady state with CUSUM (§4.1).
//!
//! All reported rates are *reference-scale*: simulated ops/s multiplied
//! by the capacity ratio, directly comparable to the paper's figures.
//!
//! The mechanics live in [`crate::measure`], shared with the concurrent
//! sharded harness; `run` is the single-threaded driver. Engine
//! failures surface as [`PtsError`] — out-of-space is an *outcome*
//! ([`RunResult::out_of_space`]), any other failure an `Err`.

use ptsbench_metrics::histogram::LatencyHistogram;
use ptsbench_metrics::timeseries::TimeSeries;
use ptsbench_ssd::{DeviceProfile, Ns, MINUTE};
use ptsbench_workload::{KeyDistribution, WorkloadSpec};

use crate::engine::PtsError;
use crate::measure::Experiment;
use crate::registry::{EngineKind, EngineTuning};
use crate::state::DriveState;

/// Full description of one experiment run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Engine under test.
    pub engine: EngineKind,
    /// Device profile (SSD1/SSD2/SSD3 or custom).
    pub profile: DeviceProfile,
    /// Simulated device capacity in bytes.
    pub device_bytes: u64,
    /// Dataset size as a fraction of device capacity (paper default 0.5).
    pub dataset_fraction: f64,
    /// Initial drive state.
    pub drive_state: DriveState,
    /// Fraction of the device given to the PTS partition; the remainder
    /// is trimmed, acting as software over-provisioning (1.0 = all).
    pub partition_fraction: f64,
    /// Value size in bytes (paper default 4000; Fig 11 uses 128).
    pub value_size: usize,
    /// Fraction of read operations (0.0 = write-only; Fig 11 uses 0.5).
    pub read_fraction: f64,
    /// Key distribution for the update phase.
    pub distribution: KeyDistribution,
    /// Simulated duration of the measured phase.
    pub duration: Ns,
    /// Sampling window (paper reports 10-minute averages).
    pub sample_window: Ns,
    /// Per-op CPU cost at reference scale (ns); `None` = engine default.
    pub cpu_cost_ns: Option<u64>,
    /// [`EngineTuning::queue_depth`] (1 reproduces pre-queue reports
    /// byte-identically).
    pub queue_depth: usize,
    /// [`EngineTuning::cache_bytes`], per shard (0 reproduces pre-cache
    /// reports byte-identically).
    pub cache_bytes: u64,
    /// [`EngineTuning::compression_level`] (0 keeps the seed on-disk
    /// formats).
    pub compression_level: u8,
    /// End the measured phase early once CUSUM declares throughput
    /// steady *and* cumulative host writes reach 3x device capacity —
    /// the paper's §4.1 steady-state criteria, used adaptively.
    pub stop_when_steady: bool,
    /// Record the per-LBA write trace (Fig 4).
    pub trace_lba: bool,
    /// [`EngineTuning::trace`], plus the flight recorder: a tracer is
    /// attached to the device before the engine opens, and the result
    /// gains per-cause traffic totals and a recorder handle. False
    /// reproduces untraced reports byte-identically.
    pub trace: bool,
    /// [`EngineTuning::maint`] (disabled reproduces pre-maintenance
    /// reports byte-identically).
    pub maint: ptsbench_maint::MaintConfig,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RunConfig {
    fn default() -> Self {
        Self {
            engine: EngineKind::lsm(),
            profile: DeviceProfile::ssd1(),
            device_bytes: 64 << 20,
            dataset_fraction: 0.5,
            drive_state: DriveState::Trimmed,
            partition_fraction: 1.0,
            value_size: 4000,
            read_fraction: 0.0,
            distribution: KeyDistribution::Uniform,
            duration: 210 * MINUTE,
            sample_window: 10 * MINUTE,
            cpu_cost_ns: None,
            queue_depth: 1,
            cache_bytes: 0,
            compression_level: 0,
            stop_when_steady: false,
            trace_lba: false,
            trace: false,
            maint: ptsbench_maint::MaintConfig::default(),
            seed: 42,
        }
    }
}

impl RunConfig {
    /// Capacity ratio between the reference device and the simulated
    /// one; multiplying simulated rates by this yields reference-scale
    /// numbers.
    pub fn scale(&self) -> f64 {
        self.profile.reference_capacity as f64 / self.device_bytes as f64
    }

    /// The derived workload specification.
    pub fn workload(&self) -> WorkloadSpec {
        WorkloadSpec {
            key_size: 16,
            value_size: self.value_size,
            read_fraction: self.read_fraction,
            distribution: self.distribution,
            seed: self.seed,
            ..WorkloadSpec::default()
        }
        .sized_to(self.device_bytes, self.dataset_fraction)
    }

    /// The tuning every engine of this run is built with: the one map
    /// from the run's knobs to the engines'.
    pub fn tuning(&self) -> EngineTuning {
        EngineTuning::for_device(self.device_bytes)
            .with_queue_depth(self.queue_depth)
            .with_cache_bytes(self.cache_bytes)
            .with_compression_level(self.compression_level)
            .with_trace(self.trace)
            .with_maint(self.maint)
    }

    /// Human-readable label for report rows. Queue depth, cache budget
    /// and compression level appear only when they depart from their
    /// seed defaults, so default labels (and therefore rendered
    /// reports) match the pre-queue/pre-cache ones byte-for-byte. The
    /// compression level is the one the codec runs.
    pub fn label(&self) -> String {
        format!(
            "{}/{}/{}/ds{:.2}{}{}{}{}{}{}",
            self.engine.label(),
            self.profile.name,
            self.drive_state.label(),
            self.dataset_fraction,
            if self.partition_fraction < 1.0 {
                format!("/op{:.2}", 1.0 - self.partition_fraction)
            } else {
                String::new()
            },
            if self.queue_depth > 1 {
                format!("/qd{}", self.queue_depth)
            } else {
                String::new()
            },
            if self.cache_bytes > 0 {
                format!("/c{}k", self.cache_bytes >> 10)
            } else {
                String::new()
            },
            if self.compression_level > 0 {
                format!(
                    "/z{}",
                    ptsbench_cache::Compression::from_level(self.compression_level).level()
                )
            } else {
                String::new()
            },
            if self.maint.enabled { "/bg" } else { "" },
            if self.trace { "/tr" } else { "" }
        )
    }
}

/// One sampling window's metrics (all rates reference-scale).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Window end, relative to the start of the measured phase.
    pub t: Ns,
    /// KV-store throughput, Kops/s.
    pub kv_kops: f64,
    /// Device write throughput, MB/s (the `iostat` view).
    pub device_write_mbps: f64,
    /// Device read throughput, MB/s.
    pub device_read_mbps: f64,
    /// Cumulative application-level write amplification since t0.
    pub wa_a: f64,
    /// Cumulative device-level write amplification since t0.
    pub wa_d: f64,
    /// WA-D over this window alone.
    pub wa_d_window: f64,
    /// Space amplification (disk used / dataset bytes).
    pub space_amp: f64,
    /// Fraction of logical device space holding data.
    pub device_utilization: f64,
}

/// Steady-state summary (§4.1 guidelines).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SteadySummary {
    /// First window index from which CUSUM declares throughput steady.
    pub steady_from: Option<usize>,
    /// Mean throughput of the first two windows (the "short test"
    /// measurement), Kops/s.
    pub early_kops: f64,
    /// Mean throughput over the last half of the run, Kops/s (windowed
    /// means are noisy under compaction cycles; the paper's bar charts
    /// likewise average long steady periods).
    pub steady_kops: f64,
    /// WA-A at the end of the run (cumulative).
    pub wa_a: f64,
    /// WA-D at the end of the run (cumulative).
    pub wa_d: f64,
    /// End-to-end write amplification (WA-A x WA-D, §4.2).
    pub end_to_end_wa: f64,
    /// Whether cumulative host writes reached 3x device capacity (the
    /// §4.1 rule of thumb for device steady state).
    pub three_times_capacity: bool,
}

/// The outcome of one experiment run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Label of the generating configuration.
    pub label: String,
    /// Windowed samples.
    pub samples: Vec<Sample>,
    /// Whether the run ended early because the partition filled up.
    pub out_of_space: bool,
    /// Whether out-of-space happened during the load phase.
    pub failed_during_load: bool,
    /// Operations executed in the measured phase.
    pub ops_executed: u64,
    /// Per-op latency distribution (simulated ns, reference-scale after
    /// dividing by the capacity ratio — see [`RunConfig::scale`]).
    pub latency: LatencyHistogram,
    /// Fig 4 curve: CDF of write probability over LBAs sorted by
    /// decreasing write count (when tracing was enabled).
    pub lba_cdf: Option<Vec<(f64, f64)>>,
    /// Fraction of the LBA space never written (when tracing).
    pub untouched_lba_fraction: Option<f64>,
    /// Disk bytes used by the PTS at the end of the run.
    pub disk_used_bytes: u64,
    /// Logical dataset bytes.
    pub dataset_bytes: u64,
    /// PTS partition size in bytes.
    pub partition_bytes: u64,
    /// Simulated device capacity in bytes.
    pub device_bytes: u64,
    /// Application payload bytes written during the measured phase
    /// (the WA-A denominator; the harness sums these across shards).
    pub app_bytes_written: u64,
    /// Host bytes reaching the device during the measured phase (the
    /// WA-A numerator).
    pub host_bytes_written: u64,
    /// Host bytes *read* from the device during the measured phase —
    /// the read-amplification view the cache/compression study sweeps
    /// (`examples/fig_readamp.rs`). Not rendered in reports.
    pub host_bytes_read: u64,
    /// Read-cache traffic for this run, present only when the
    /// configuration enabled a cache (`cache_bytes > 0`), so cache-off
    /// results — and their rendered reports — are unchanged from seed.
    pub cache: Option<ptsbench_cache::CacheStats>,
    /// Submission-depth statistics of the shard's device: how many
    /// commands went through `IoQueue`s and how deep they actually ran
    /// (all zeros for queue-depth-1 runs, whose engines stay on the
    /// synchronous path).
    pub io_depth: ptsbench_ssd::IoDepthStats,
    /// Per-cause device traffic attribution for the measured phase,
    /// present only when the configuration enabled tracing
    /// (`trace = true`), so untraced results — and their rendered
    /// reports — are unchanged from seed.
    pub cause: Option<ptsbench_ssd::CauseStats>,
    /// The span flight recorder of the run's device, present only when
    /// tracing was enabled; holds the measured phase's spans (the
    /// recorder is cleared at the load/measure boundary).
    pub recorder: Option<ptsbench_ssd::SharedTraceRecorder>,
    /// Background-maintenance counters (jobs, slices, stall time, the
    /// write/space-amplification ledger), present only when the
    /// configuration enabled maintenance (`maint.enabled`), so
    /// maintenance-off results — and their rendered reports — are
    /// unchanged from seed.
    pub maint: Option<ptsbench_maint::MaintStats>,
    /// Steady-state summary.
    pub steady: SteadySummary,
}

impl RunResult {
    /// Extracts a named time series from the samples.
    pub fn series(&self, name: &str, f: impl Fn(&Sample) -> f64) -> TimeSeries {
        let mut s = TimeSeries::new(name);
        for sample in &self.samples {
            s.push(sample.t, f(sample));
        }
        s
    }

    /// Throughput series (Kops/s).
    pub fn throughput_series(&self) -> TimeSeries {
        self.series("kv_kops", |s| s.kv_kops)
    }

    /// Device write throughput series (MB/s).
    pub fn device_write_series(&self) -> TimeSeries {
        self.series("dev_w_mbps", |s| s.device_write_mbps)
    }

    /// Cumulative WA-A series.
    pub(crate) fn wa_a_series(&self) -> TimeSeries {
        self.series("wa_a", |s| s.wa_a)
    }

    /// Cumulative WA-D series.
    pub(crate) fn wa_d_series(&self) -> TimeSeries {
        self.series("wa_d", |s| s.wa_d)
    }

    /// Final space amplification.
    pub fn space_amplification(&self) -> f64 {
        if self.dataset_bytes == 0 {
            1.0
        } else {
            self.disk_used_bytes as f64 / self.dataset_bytes as f64
        }
    }
}

/// Executes one experiment single-threaded.
///
/// Out-of-space is reported in the result; any other engine failure —
/// construction, load, or a per-op error — is returned as `Err` so
/// callers (and harness shards) can fail without aborting the process.
pub fn run(cfg: &RunConfig) -> Result<RunResult, PtsError> {
    let mut exp = Experiment::prepare(cfg)?;
    exp.run_until(cfg.duration)?;
    Ok(exp.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptsbench_ssd::MINUTE;

    /// A configuration small enough for debug-mode unit tests.
    fn quick(engine: EngineKind) -> RunConfig {
        RunConfig {
            engine,
            device_bytes: 48 << 20,
            duration: 40 * MINUTE,
            sample_window: 5 * MINUTE,
            ..RunConfig::default()
        }
    }

    fn run_ok(cfg: &RunConfig) -> RunResult {
        run(cfg).expect("run")
    }

    #[test]
    fn lsm_run_produces_samples_and_metrics() {
        let r = run_ok(&quick(EngineKind::lsm()));
        assert!(!r.out_of_space, "default dataset must fit");
        assert_eq!(r.samples.len(), 8, "40 min / 5 min windows");
        assert!(r.ops_executed > 100, "ops: {}", r.ops_executed);
        assert!(
            r.steady.wa_a > 1.5,
            "LSM WA-A must show amplification: {}",
            r.steady.wa_a
        );
        assert!(r.steady.early_kops > 0.0);
        assert!(r.app_bytes_written > 0);
        assert!(r.host_bytes_written > r.app_bytes_written);
        let last = r.samples.last().expect("samples");
        assert!(last.space_amp >= 1.0);
        assert!(last.device_utilization > 0.3);
    }

    #[test]
    fn btree_run_produces_samples_and_metrics() {
        let r = run_ok(&quick(EngineKind::btree()));
        assert!(!r.out_of_space);
        assert!(r.ops_executed > 50, "ops: {}", r.ops_executed);
        assert!(
            r.steady.wa_a > 2.0,
            "B+Tree leaf writes amplify: {}",
            r.steady.wa_a
        );
        // Space amplification near 1 (the Fig 6b signature).
        assert!(
            r.space_amplification() < 1.6,
            "B+Tree space amp too high: {}",
            r.space_amplification()
        );
    }

    #[test]
    fn trace_produces_cdf() {
        let cfg = RunConfig {
            trace_lba: true,
            ..quick(EngineKind::btree())
        };
        let r = run_ok(&cfg);
        let cdf = r.lba_cdf.expect("trace enabled");
        assert!(cdf.len() > 10);
        let untouched = r.untouched_lba_fraction.expect("trace enabled");
        assert!(
            untouched > 0.2,
            "B+Tree must leave a large LBA fraction untouched, got {untouched}"
        );
    }

    #[test]
    fn oversized_dataset_reports_out_of_space() {
        let cfg = RunConfig {
            dataset_fraction: 0.95,
            ..quick(EngineKind::lsm())
        };
        let r = run_ok(&cfg);
        assert!(
            r.out_of_space,
            "a 95% dataset cannot fit an LSM's space amplification"
        );
    }

    #[test]
    fn labels_are_descriptive() {
        let cfg = RunConfig {
            partition_fraction: 0.75,
            ..quick(EngineKind::lsm())
        };
        let label = cfg.label();
        assert!(label.contains("lsm"));
        assert!(label.contains("SSD1"));
        assert!(label.contains("trim"));
        assert!(label.contains("op0.25"));
    }

    #[test]
    fn labels_name_the_compression_level_the_codec_runs() {
        let at = |compression_level| {
            RunConfig {
                compression_level,
                ..quick(EngineKind::lsm())
            }
            .label()
        };
        assert!(at(3).ends_with("/z3"), "{}", at(3));
        assert!(at(12).ends_with("/z9"), "{}", at(12));
        assert_eq!(at(12), at(9), "levels above 9 run as 9");
        assert!(!at(0).contains("/z"));
    }

    #[test]
    fn maintenance_run_reports_stats_and_tags_label() {
        let cfg = RunConfig {
            maint: ptsbench_maint::MaintConfig::enabled(),
            ..quick(EngineKind::lsm())
        };
        assert!(cfg.label().contains("/bg"));
        let r = run_ok(&cfg);
        let ms = r.maint.expect("maintenance stats present");
        assert!(ms.jobs > 0, "background jobs must have run");
        assert_eq!(ms.jobs, ms.installs, "every job installs exactly once");
        assert!(ms.write_amp() >= 1.0, "write amp: {}", ms.write_amp());
        assert!(ms.space_amp() >= 1.0, "space amp: {}", ms.space_amp());
        // Maintenance off: no stats, no label tag — report-identical to
        // the seed.
        let off = run_ok(&quick(EngineKind::lsm()));
        assert!(off.maint.is_none());
        assert!(!off.label.contains("/bg"));
    }

    #[test]
    fn maintenance_runs_are_deterministic() {
        let cfg = RunConfig {
            maint: ptsbench_maint::MaintConfig::enabled(),
            ..quick(EngineKind::lsm())
        };
        let a = run_ok(&cfg);
        let b = run_ok(&cfg);
        assert_eq!(a.ops_executed, b.ops_executed);
        assert_eq!(a.samples, b.samples);
        assert_eq!(a.maint, b.maint);
        assert_eq!(a.host_bytes_written, b.host_bytes_written);
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run_ok(&quick(EngineKind::lsm()));
        let b = run_ok(&quick(EngineKind::lsm()));
        assert_eq!(a.ops_executed, b.ops_executed);
        assert_eq!(a.samples.len(), b.samples.len());
        for (x, y) in a.samples.iter().zip(&b.samples) {
            assert_eq!(x.kv_kops, y.kv_kops);
            assert_eq!(x.wa_d, y.wa_d);
        }
    }

    #[test]
    fn stepped_experiment_matches_single_shot() {
        // Experiment::run_until may be called with growing deadlines;
        // stepping must not change any measured number vs one big call.
        let cfg = quick(EngineKind::lsm());
        let single = run_ok(&cfg);
        let mut exp = crate::measure::Experiment::prepare(&cfg).expect("prepare");
        let mut rel = 0;
        while rel < cfg.duration {
            rel += 5 * MINUTE;
            exp.run_until(rel).expect("step");
        }
        let stepped = exp.finish();
        assert_eq!(single.ops_executed, stepped.ops_executed);
        assert_eq!(single.samples, stepped.samples);
        assert_eq!(single.latency.count(), stepped.latency.count());
        assert_eq!(single.host_bytes_written, stepped.host_bytes_written);
    }
}
