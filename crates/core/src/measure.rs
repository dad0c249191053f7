//! Reusable experiment building blocks.
//!
//! The paper's measurement procedure — build a drive in a controlled
//! state, mount a partition, bulk-load sequentially, then run a timed
//! update/read phase sampling every §3.3 metric — is shared by two
//! drivers: the single-threaded [`crate::runner::run`] and the
//! concurrent sharded harness (`ptsbench-harness`), which runs one
//! [`Experiment`] per shard on its own client thread. This module
//! factors the procedure into pieces both can drive:
//!
//! * [`build_stack`] — device + partition + filesystem in the
//!   configured initial state;
//! * [`bulk_load`] — the batched sequential load phase;
//! * [`Experiment`] — the whole lifecycle behind a resumable cursor:
//!   [`Experiment::run_until`] advances the measured phase to a virtual
//!   deadline and can be called repeatedly (the runner and the sharded
//!   harness call it once, to the configured duration), and
//!   [`Experiment::finish`] produces the final [`RunResult`].
//!
//! Failures surface as [`PtsError`] values, never panics, so a harness
//! shard can fail without aborting the process; running out of space is
//! reported as a result state ([`RunResult::out_of_space`]), matching
//! the paper's treatment of over-full datasets as an outcome.

use std::sync::Arc;

use ptsbench_metrics::cusum::CusumDetector;
use ptsbench_metrics::histogram::LatencyHistogram;
use ptsbench_ssd::{Cause, LpnRange, Ns, SharedSsd, SimClock, SmartCounters, Ssd, Tracer};
use ptsbench_vfs::{TraceHandle, Vfs, VfsOptions};
use ptsbench_workload::{Loader, OpGenerator, OpKind, WorkloadSpec};

use crate::engine::{PtsEngine, PtsError, WriteBatch};
use crate::runner::{RunConfig, RunResult, Sample, SteadySummary};
use crate::state::DriveState;

/// Operations per [`WriteBatch`] during the bulk-load phase.
pub(crate) const LOAD_BATCH_OPS: usize = 128;

/// The outcome of serving one routed request ([`Experiment::serve`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Served {
    /// Executed: service began at `start` and completed at `done`, both
    /// in nanoseconds relative to the start of the measured phase.
    Done {
        /// Service start (phase-relative ns).
        start: Ns,
        /// Host-visible completion (phase-relative ns).
        done: Ns,
    },
    /// The shard's partition is full; the request was not executed and
    /// the shard will serve nothing more.
    OutOfSpace,
}

/// The simulated storage stack under one engine: shared device,
/// mounted partition, clock.
pub struct Stack {
    /// The simulated drive.
    pub shared: SharedSsd,
    /// The filesystem mounted on the PTS partition.
    pub vfs: Vfs,
    /// The device's virtual clock.
    pub clock: Arc<SimClock>,
    /// Device page size in bytes.
    pub page_size: u64,
    /// PTS partition size in bytes.
    pub partition_bytes: u64,
}

/// Builds the simulated drive + partition + filesystem for a run
/// configuration (steps 1–2 of the paper's procedure): device in its
/// configured initial state, reserved tail trimmed as software
/// over-provisioning, filesystem mounted on the PTS partition. Device
/// failures (a mis-configured geometry surfacing as `SsdError`)
/// propagate as [`PtsError::Device`] instead of panicking.
pub fn build_stack(cfg: &RunConfig) -> Result<Stack, PtsError> {
    let mut device_cfg = cfg.profile.scaled_to(cfg.device_bytes);
    device_cfg.trace_writes = cfg.trace_lba;
    let mut device = Ssd::new(device_cfg);
    if cfg.trace {
        device.attach_tracer(Tracer::recording());
    }
    if cfg.drive_state == DriveState::Preconditioned {
        device.precondition(cfg.seed)?;
    }
    let logical = device.logical_pages();
    let partition_pages = ((logical as f64 * cfg.partition_fraction) as u64).max(1);
    if partition_pages < logical {
        device.trim_range(LpnRange::new(partition_pages, logical))?;
    }
    let clock = Arc::clone(device.clock());
    let page_size = device.page_size() as u64;
    let shared = device.into_shared();
    let vfs = Vfs::new(
        Arc::clone(&shared),
        LpnRange::new(0, partition_pages),
        VfsOptions::default(),
    );
    Ok(Stack {
        shared,
        vfs,
        clock,
        page_size,
        partition_bytes: partition_pages * page_size,
    })
}

/// CPUs the process may run on beyond `busy` threads of its own: what
/// a stack builder can hand its engines as helper threads.
pub fn idle_cpus(busy: usize) -> usize {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    cpus.saturating_sub(busy)
}

/// Bulk-loads `workload`'s dataset sequentially in write batches and
/// flushes (step 3 of the paper's procedure).
pub fn bulk_load(system: &mut dyn PtsEngine, workload: &WorkloadSpec) -> Result<(), PtsError> {
    let mut loader = Loader::new(workload.clone());
    let mut batch = WriteBatch::new();
    while let Some((key, value)) = loader.next_pair() {
        batch.put(key, value);
        if batch.len() >= LOAD_BATCH_OPS {
            system.apply_batch(&batch)?;
            batch.clear();
            // Deferred maintenance must make progress during the load
            // too, or its backlog (journal tails, frozen memtables,
            // GC debt) outgrows the partition. A no-op for inline
            // engines, so maintenance-off loads are unchanged.
            while system.run_maintenance_slice()? {}
        }
    }
    if !batch.is_empty() {
        system.apply_batch(&batch)?;
    }
    system.flush()
}

/// One experiment behind a resumable cursor.
///
/// [`Experiment::prepare`] performs stack construction, engine build
/// and bulk load; [`Experiment::run_until`] advances the measured
/// phase to a virtual deadline (relative to the start of the phase)
/// and may be called repeatedly with growing deadlines;
/// [`Experiment::finish`] emits any trailing window samples and
/// produces the [`RunResult`].
pub struct Experiment {
    cfg: RunConfig,
    workload: WorkloadSpec,
    stack: Stack,
    /// `None` only when engine construction itself ran out of space.
    system: Option<Box<dyn PtsEngine>>,
    gen: OpGenerator,
    scale: f64,
    dataset_bytes: u64,
    cpu_cost_sim: Ns,
    window_secs: f64,
    t0: Ns,
    app_bytes_t0: u64,
    next_sample: Ns,
    prev_smart: SmartCounters,
    prev_ops: u64,
    max_disk_used: u64,
    steady_detector: CusumDetector,
    samples: Vec<Sample>,
    latency: LatencyHistogram,
    ops_executed: u64,
    out_of_space: bool,
    failed_during_load: bool,
    stopped_steady: bool,
    /// Tracing context of the stack (inert unless `cfg.trace`).
    trace: TraceHandle,
}

impl Experiment {
    /// Prepares an experiment on the configuration's derived workload:
    /// the single-stack runner, whose engine may run a helper thread
    /// while the process has a CPU beside the caller's.
    pub fn prepare(cfg: &RunConfig) -> Result<Self, PtsError> {
        let workload = cfg.workload();
        Self::prepare_with_helpers(cfg, workload, idle_cpus(1).min(1))
    }

    /// Prepares an experiment on an explicit workload specification —
    /// the sharded harness passes one slice of a global key space per
    /// shard (see `WorkloadSpec::shard`) — with no helper thread.
    ///
    /// Running out of space while building or loading is an *outcome*
    /// (`out_of_space`/`failed_during_load` set, measured phase a
    /// no-op), not an `Err`; any other engine failure is returned.
    pub fn prepare_with(cfg: &RunConfig, workload: WorkloadSpec) -> Result<Self, PtsError> {
        Self::prepare_with_helpers(cfg, workload, 0)
    }

    /// [`Experiment::prepare_with`], handing the engine a budget of
    /// `helper_threads` (0 or 1) host threads beside the caller's
    /// ([`EngineTuning::helper_threads`](crate::EngineTuning)). The
    /// fleet drivers give it out from [`idle_cpus`]; it changes host
    /// time only, never a result.
    pub fn prepare_with_helpers(
        cfg: &RunConfig,
        workload: WorkloadSpec,
        helper_threads: usize,
    ) -> Result<Self, PtsError> {
        let scale = cfg.scale();
        let dataset_bytes = workload.dataset_bytes();
        let stack = build_stack(cfg)?;

        let trace = TraceHandle::from_vfs(&stack.vfs, cfg.trace);
        let tuning = cfg.tuning().with_helper_threads(helper_threads);
        let mut out_of_space = false;
        let mut failed_during_load = false;
        let mut system = match cfg.engine.open(stack.vfs.clone(), &tuning) {
            Ok(s) => Some(s),
            Err(PtsError::OutOfSpace) => {
                out_of_space = true;
                failed_during_load = true;
                None
            }
            Err(e) => return Err(e),
        };
        if let Some(system) = system.as_mut() {
            let _load_cause = trace.cause(Cause::BulkLoad);
            match bulk_load(system.as_mut(), &workload) {
                Ok(()) => {}
                Err(PtsError::OutOfSpace) => {
                    out_of_space = true;
                    failed_during_load = true;
                }
                Err(e) => return Err(e),
            }
        }

        // Reset observability; the measured phase starts at t0.
        stack.shared.lock().reset_observability();
        stack.vfs.reset_peak_usage();
        let t0 = stack.clock.now();
        let app_bytes_t0 = system.as_ref().map_or(0, |s| s.stats().app_bytes_written);
        let cpu_cost_sim = ((cfg.cpu_cost_ns.unwrap_or(cfg.engine.default_cpu_cost_ns()) as f64)
            * scale)
            .round() as Ns;
        let gen = OpGenerator::new(workload.clone());
        let max_disk_used = stack.vfs.stats().used_bytes;
        Ok(Self {
            cfg: cfg.clone(),
            workload,
            next_sample: t0 + cfg.sample_window,
            window_secs: cfg.sample_window as f64 / 1e9,
            stack,
            system,
            gen,
            scale,
            dataset_bytes,
            cpu_cost_sim,
            t0,
            app_bytes_t0,
            prev_smart: SmartCounters::default(),
            prev_ops: 0,
            max_disk_used,
            steady_detector: CusumDetector::default(),
            samples: Vec::new(),
            latency: LatencyHistogram::new(),
            ops_executed: 0,
            out_of_space,
            failed_during_load,
            stopped_steady: false,
            trace,
        })
    }

    /// The workload this experiment drives.
    pub fn workload(&self) -> &WorkloadSpec {
        &self.workload
    }

    /// Operations executed so far in the measured phase.
    pub fn ops_executed(&self) -> u64 {
        self.ops_executed
    }

    /// Whether the run hit an out-of-space condition.
    pub fn out_of_space(&self) -> bool {
        self.out_of_space
    }

    /// Whether the out-of-space condition struck while building or
    /// bulk-loading (the measured phase never ran).
    pub fn failed_during_load(&self) -> bool {
        self.failed_during_load
    }

    /// Measured-phase time elapsed on this experiment's private clock.
    pub fn elapsed(&self) -> Ns {
        self.stack.clock.now().saturating_sub(self.t0)
    }

    /// The tracing context of this experiment's stack (inert unless the
    /// configuration enabled tracing). The front-end harness uses it to
    /// wrap request-level spans around [`Experiment::serve`].
    pub fn trace_handle(&self) -> &TraceHandle {
        &self.trace
    }

    /// Absolute virtual time at which the measured phase started; the
    /// offset that converts phase-relative times (as [`Experiment::serve`]
    /// takes) into the absolute timeline spans are recorded on.
    pub fn phase_start(&self) -> Ns {
        self.t0
    }

    /// Whether the measured phase can make no further progress (ended
    /// early, or the configured duration is exhausted).
    pub fn done(&self) -> bool {
        self.failed_during_load
            || self.out_of_space
            || self.stopped_steady
            || self.elapsed() >= self.cfg.duration
    }

    /// Advances the measured phase until `rel_deadline` nanoseconds
    /// after its start (capped by the configured duration). Safe to
    /// call again with a later deadline: stepping changes no measured
    /// number (`runner::tests::stepped_experiment_matches_single_shot`).
    /// Out-of-space ends
    /// the phase and is reported by [`Experiment::out_of_space`]; hard
    /// engine failures return `Err`.
    pub fn run_until(&mut self, rel_deadline: Ns) -> Result<(), PtsError> {
        if self.done() {
            return Ok(());
        }
        let deadline = self.t0 + rel_deadline.min(self.cfg.duration);
        loop {
            let now = self.stack.clock.now();
            if now >= deadline {
                break;
            }
            self.emit_due_samples(now);
            if self.cfg.stop_when_steady && self.samples.len() >= 6 {
                let host_bytes =
                    self.stack.shared.lock().smart().host_pages_written * self.stack.page_size;
                if host_bytes >= 3 * self.cfg.device_bytes {
                    let tput: Vec<f64> = self.samples.iter().map(|s| s.kv_kops).collect();
                    if self.steady_detector.is_steady(&tput) {
                        self.stopped_steady = true;
                        break;
                    }
                }
            }
            self.execute(None)?;
            if self.out_of_space {
                break;
            }
        }
        Ok(())
    }

    /// Executes one operation at the clock's current instant — the one
    /// body under [`Experiment::run_until`] and [`Experiment::serve`]:
    /// `op.*` span, engine call, per-op CPU charge, latency record, then
    /// the maintenance pump. `routed` is a front-end request; `None`
    /// draws the next operation from this experiment's own generator
    /// (drawn in here because the operation borrows the generator's
    /// buffers). Returns the completion instant, or `None` when the
    /// operation hit out-of-space (`out_of_space` set, nothing recorded).
    /// An out-of-space met by a maintenance slice *after* the operation
    /// completed only sets the flag.
    fn execute(&mut self, routed: Option<(OpKind, &[u8], &[u8])>) -> Result<Option<Ns>, PtsError> {
        let op_start = self.stack.clock.now();
        let (kind, key, value) = match routed {
            Some(op) => op,
            None => {
                let op = self.gen.next_op();
                (op.kind, op.key, op.value)
            }
        };
        let system = self
            .system
            .as_mut()
            .expect("loaded experiment has an engine");
        let (span_name, cause) = match kind {
            OpKind::Update => ("op.put", Cause::Put),
            OpKind::Read => ("op.get", Cause::Get),
        };
        let _op_cause = self.trace.cause(cause);
        let span = self.trace.begin(span_name, cause);
        let outcome = match kind {
            OpKind::Update => system.put(key, value),
            OpKind::Read => system.get_with(key, &mut |_| ()),
        };
        match outcome {
            Ok(()) => {}
            Err(PtsError::OutOfSpace) => {
                self.trace.end(span);
                self.out_of_space = true;
                return Ok(None);
            }
            Err(e) => return Err(e),
        }
        self.stack.clock.advance(self.cpu_cost_sim);
        self.trace.end(span);
        self.ops_executed += 1;
        let done = self.stack.clock.now();
        self.latency.record(done - op_start);
        self.pump_maintenance()?;
        Ok(Some(done))
    }

    /// Yields to deferred background maintenance between foreground
    /// ops: runs budgeted slices until the engine's scheduler has
    /// nothing runnable. Out-of-space during a slice ends the measured
    /// phase like a foreground op would (`out_of_space` set); a no-op
    /// for engines that run maintenance inline.
    fn pump_maintenance(&mut self) -> Result<(), PtsError> {
        let Some(system) = self.system.as_mut() else {
            return Ok(());
        };
        loop {
            match system.run_maintenance_slice() {
                Ok(true) => {}
                Ok(false) => return Ok(()),
                Err(PtsError::OutOfSpace) => {
                    self.out_of_space = true;
                    return Ok(());
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Serves one externally routed request, as the virtual-time
    /// front-end (`ptsbench-harness`) drives it: advances this shard's
    /// private clock to `at` nanoseconds after the start of the
    /// measured phase (never backwards — the engine is a single server,
    /// so a request arriving while the shard is busy starts when the
    /// clock has already passed `at`), emits any due window samples,
    /// executes the operation, charges the per-op CPU cost, and records
    /// the service latency exactly as the generator-driven loop in
    /// [`Experiment::run_until`] would.
    ///
    /// Returns the service interval in phase-relative nanoseconds.
    /// Out-of-space is an outcome ([`Served::OutOfSpace`], after which
    /// the shard serves nothing more); hard engine failures are `Err`.
    /// Callers must not combine front-end serving with
    /// `stop_when_steady` (the steady-state early exit is a property of
    /// the closed single-client loop).
    pub fn serve(
        &mut self,
        at: Ns,
        kind: OpKind,
        key: &[u8],
        value: &[u8],
    ) -> Result<Served, PtsError> {
        if self.failed_during_load || self.out_of_space {
            return Ok(Served::OutOfSpace);
        }
        self.stack.clock.advance_to(self.t0 + at);
        let now = self.stack.clock.now();
        // Window samples are pinned to the configured duration: a drain
        // request serviced past the end must not mint extra windows
        // (finish() emits the trailing ones).
        self.emit_due_samples(now.min(self.t0 + self.cfg.duration));
        let Some(done) = self.execute(Some((kind, key, value)))? else {
            return Ok(Served::OutOfSpace);
        };
        // This request completed; if a maintenance slice hit
        // out-of-space after it, the *next* serve reports it.
        Ok(Served::Done {
            start: now - self.t0,
            done: done - self.t0,
        })
    }

    /// Emits all window samples due at or before `now`.
    fn emit_due_samples(&mut self, now: Ns) {
        while self.next_sample <= now {
            let at = self.next_sample;
            self.emit_sample(at);
            self.next_sample += self.cfg.sample_window;
        }
    }

    /// One window sample (all rates reference-scale), ending at `at`.
    fn emit_sample(&mut self, at: Ns) {
        let page_size = self.stack.page_size;
        let smart = self.stack.shared.lock().smart();
        let delta = smart.delta_since(&self.prev_smart);
        let ops_window = self.ops_executed - self.prev_ops;
        let host_bytes_cum = smart.host_pages_written * page_size;
        let app_bytes_cum = self
            .system
            .as_ref()
            .map_or(0, |s| s.stats().app_bytes_written - self.app_bytes_t0);
        let fs = self.stack.vfs.stats();
        self.max_disk_used = self.max_disk_used.max(fs.peak_used_pages * page_size);
        self.samples.push(Sample {
            t: at - self.t0,
            kv_kops: ops_window as f64 / self.window_secs * self.scale / 1_000.0,
            device_write_mbps: delta.host_pages_written as f64 * page_size as f64
                / self.window_secs
                * self.scale
                / 1e6,
            device_read_mbps: delta.host_pages_read as f64 * page_size as f64 / self.window_secs
                * self.scale
                / 1e6,
            wa_a: if app_bytes_cum == 0 {
                1.0
            } else {
                host_bytes_cum as f64 / app_bytes_cum as f64
            },
            wa_d: smart.wa_d(),
            wa_d_window: delta.wa_d(),
            space_amp: if self.dataset_bytes == 0 {
                1.0
            } else {
                self.max_disk_used as f64 / self.dataset_bytes as f64
            },
            device_utilization: self.stack.shared.lock().utilization(),
        });
        self.prev_smart = smart;
        self.prev_ops = self.ops_executed;
    }

    /// Emits trailing boundary samples, computes the steady-state
    /// summary and returns the final [`RunResult`] (step 6).
    ///
    /// Ends the measured phase properly: the engine's asynchronous I/O
    /// is drained first ([`PtsEngine::drain_io`]), so detached
    /// background commands still in flight are accounted on this
    /// shard's timeline before any caller treats the run as finished.
    pub fn finish(mut self) -> RunResult {
        if let Some(system) = self.system.as_mut() {
            // Deferred maintenance first, so the version state and the
            // per-cause ledgers close (frozen memtables flushed,
            // in-flight compactions installed) before the queues drain.
            match system.drain_maintenance() {
                Ok(()) => {}
                Err(PtsError::OutOfSpace) => self.out_of_space = true,
                // finish() is infallible; a hard engine failure here
                // leaves the counters as they stand.
                Err(_) => {}
            }
            system.drain_io();
        }
        // Trailing samples up to the configured duration (skipped when
        // the run ended early on out-of-space, steady-state detection,
        // or a failed load).
        if !self.out_of_space && !self.stopped_steady && !self.failed_during_load {
            let deadline = self.t0 + self.cfg.duration;
            while self.next_sample <= deadline {
                let at = self.next_sample;
                self.emit_sample(at);
                self.next_sample += self.cfg.sample_window;
            }
        }

        let mut result = RunResult {
            label: self.cfg.label(),
            samples: self.samples,
            out_of_space: self.out_of_space,
            failed_during_load: self.failed_during_load,
            ops_executed: self.ops_executed,
            latency: self.latency,
            lba_cdf: None,
            untouched_lba_fraction: None,
            disk_used_bytes: self.stack.vfs.stats().used_bytes,
            dataset_bytes: self.dataset_bytes,
            partition_bytes: self.stack.partition_bytes,
            device_bytes: self.cfg.device_bytes,
            app_bytes_written: 0,
            host_bytes_written: 0,
            host_bytes_read: 0,
            cache: None,
            io_depth: self.stack.shared.lock().io_depth_stats(),
            cause: None,
            recorder: None,
            maint: None,
            steady: SteadySummary {
                steady_from: None,
                early_kops: 0.0,
                steady_kops: 0.0,
                wa_a: 1.0,
                wa_d: 1.0,
                end_to_end_wa: 1.0,
                three_times_capacity: false,
            },
        };
        let Some(system) = self.system else {
            return result;
        };
        if result.failed_during_load {
            return result;
        }

        result.disk_used_bytes = self
            .max_disk_used
            .max(self.stack.vfs.stats().peak_used_pages * self.stack.page_size);
        let app_bytes = system.stats().app_bytes_written - self.app_bytes_t0;
        {
            let dev = self.stack.shared.lock();
            result.cause = dev.cause_stats();
            result.recorder = dev.tracer().shared();
            if let Some(trace) = dev.write_trace() {
                result.lba_cdf = Some(trace.cdf_by_descending_frequency(100));
                result.untouched_lba_fraction = Some(trace.untouched_fraction());
            }
            let smart = dev.smart();
            let host_bytes = smart.host_pages_written * self.stack.page_size;
            result.app_bytes_written = app_bytes;
            result.host_bytes_written = host_bytes;
            result.host_bytes_read = smart.host_pages_read * self.stack.page_size;
            result.steady.wa_a = if app_bytes == 0 {
                1.0
            } else {
                host_bytes as f64 / app_bytes as f64
            };
            result.steady.wa_d = smart.wa_d();
            result.steady.end_to_end_wa = result.steady.wa_a * result.steady.wa_d;
            result.steady.three_times_capacity = host_bytes >= 3 * self.cfg.device_bytes;
        }
        if self.cfg.cache_bytes > 0 {
            result.cache = system.stats().cache;
        }
        if let Some(mut ms) = system.maint_stats() {
            // Close the amplification ledger: the scheduler only sees
            // its own slice traffic, the run-level denominators live
            // here.
            ms.app_bytes = app_bytes;
            ms.host_bytes = result.host_bytes_written;
            ms.live_bytes = self.dataset_bytes;
            ms.used_bytes = result.disk_used_bytes;
            result.maint = Some(ms);
        }
        let tput = result.throughput_series();
        result.steady.early_kops = tput.early_mean(2).unwrap_or(0.0);
        let tail_n = (tput.len() / 2).max(3);
        result.steady.steady_kops = tput.tail_mean(tail_n).unwrap_or(0.0);
        result.steady.steady_from = CusumDetector::default().steady_from(&tput.values());
        result
    }
}
