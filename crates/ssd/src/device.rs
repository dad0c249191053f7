//! The simulated drive: FTL + service-time model + cache + counters.
//!
//! [`Ssd`] is the type the rest of the workspace talks to. It exposes the
//! host interface of a block device (page reads/writes, TRIM) plus the
//! observability surface the paper's methodology requires (SMART
//! counters, LBA write traces, utilization) and the drive-state controls
//! of §3.4 ([`Ssd::discard_all`], [`Ssd::precondition`]).
//!
//! # Time semantics
//!
//! The device never advances the shared [`SimClock`] itself; it computes
//! completion times and the *caller* decides what blocks. A direct-I/O
//! write in the filesystem layer advances the clock to
//! [`WriteCompletion::host_done`]; an `fsync` advances it to the maximum
//! [`WriteCompletion::durable_at`] seen for the file.
//!
//! # Submission paths
//!
//! All host commands funnel through [`Ssd::execute_at`], the engine of
//! the asynchronous submission/completion API ([`crate::queue`]). The
//! synchronous calls ([`Ssd::write_page`], [`Ssd::read_page`], ...) are
//! thin wrappers that execute one command at the current clock time —
//! exactly what an [`crate::IoQueue`] of depth 1 does, so the two paths
//! are byte-identical (property-tested in `tests/proptest_io_queue.rs`).
//! Queued reads additionally occupy one of the device's
//! [`DeviceConfig::channels`] read lanes, which bounds how much media
//! time concurrent reads may overlap.

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use ptsbench_trace::{Cause, CauseStats, Tracer};

use crate::cache::DestageQueue;
use crate::clock::{Ns, SimClock};
use crate::config::{DeviceConfig, MediaKind};
use crate::ftl::Ftl;
use crate::latency::Backend;
use crate::probe::DeviceProbe;
use crate::queue::{IoCmd, IoDepthStats, IoTimes};
use crate::stats::{SmartCounters, WearStats};
use crate::trace::WriteTrace;
use crate::types::{Lpn, LpnRange};
use crate::SsdError;

/// A shared, lockable handle to a device (the canonical way the
/// filesystem and a measurement harness both observe one drive).
pub type SharedSsd = Arc<parking_lot::Mutex<Ssd>>;

/// Completion times of a host write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteCompletion {
    /// When the host's write command completes (cache admission for
    /// cached drives). A direct-I/O writer blocks until this time.
    pub host_done: Ns,
    /// When the data is actually on media (destage completes). An
    /// `fsync` blocks until this time.
    pub durable_at: Ns,
}

/// A simulated flash (or 3D-XPoint) drive.
#[derive(Debug)]
pub struct Ssd {
    cfg: DeviceConfig,
    clock: Arc<SimClock>,
    ftl: Ftl,
    backend: Backend,
    /// Read service lanes for *queued* reads: one lane per configured
    /// channel. Synchronous reads keep the legacy constant-latency model
    /// (they are prioritized and never queue), so this state is only
    /// touched by [`Ssd::execute_at`] with `queued = true`.
    read_lanes: Backend,
    cache: DestageQueue,
    smart: SmartCounters,
    probe: DeviceProbe,
    /// For in-place media only: which LPNs hold data (utilization).
    inplace_written: Vec<bool>,
    inplace_mapped: u64,
}

impl Ssd {
    /// Builds a device with its own fresh clock.
    pub fn new(cfg: DeviceConfig) -> Self {
        Self::with_clock(cfg, SimClock::new())
    }

    /// Builds a device sharing an existing clock.
    pub(crate) fn with_clock(cfg: DeviceConfig, clock: Arc<SimClock>) -> Self {
        cfg.validate();
        let ftl = Ftl::new(cfg.geometry, cfg.gc);
        let cache = DestageQueue::new(cfg.cache.capacity_pages);
        let trace = cfg
            .trace_writes
            .then(|| WriteTrace::new(cfg.geometry.logical_pages));
        let inplace = matches!(cfg.media, MediaKind::InPlace);
        Self {
            ftl,
            cache,
            backend: Backend::new(),
            read_lanes: Backend::with_lanes(cfg.channels as usize),
            smart: SmartCounters::default(),
            probe: DeviceProbe::new(trace),
            inplace_written: if inplace {
                vec![false; cfg.geometry.logical_pages as usize]
            } else {
                Vec::new()
            },
            inplace_mapped: 0,
            clock,
            cfg,
        }
    }

    /// Wraps the device for shared access.
    pub fn into_shared(self) -> SharedSsd {
        Arc::new(parking_lot::Mutex::new(self))
    }

    /// The device's clock.
    pub fn clock(&self) -> &Arc<SimClock> {
        &self.clock
    }

    /// The device's configuration.
    pub fn config(&self) -> &DeviceConfig {
        &self.cfg
    }

    /// Number of logical pages advertised.
    pub fn logical_pages(&self) -> u64 {
        self.cfg.geometry.logical_pages
    }

    /// Page size in bytes.
    pub fn page_size(&self) -> u32 {
        self.cfg.geometry.page_size
    }

    /// Executes one host command issued at virtual time `at` and returns
    /// its completion times — the engine behind both the synchronous
    /// wrappers and the [`crate::IoQueue`] submission path.
    ///
    /// `queued` selects the read service model: queued reads occupy one
    /// of the device's [`DeviceConfig::channels`] read lanes (their media
    /// time overlaps only up to the channel count), while synchronous
    /// reads keep the legacy prioritized constant-latency model. Both
    /// charge the same bandwidth against the destage backend, and a
    /// depth-1 queue produces identical times to the synchronous calls.
    pub fn execute_at(&mut self, at: Ns, cmd: IoCmd, queued: bool) -> Result<IoTimes, SsdError> {
        match cmd {
            IoCmd::Write { range } => {
                self.check_range(range)?;
                let mut times = IoTimes {
                    done: at,
                    durable_at: at,
                };
                for lpn in range.iter() {
                    let c = self.service_write(at, lpn)?;
                    times.done = c.host_done;
                    times.durable_at = times.durable_at.max(c.durable_at);
                }
                if !range.is_empty() {
                    self.probe
                        .note_write_bytes(range.len() * self.cfg.geometry.page_size as u64);
                    let cause = self.probe.current_cause();
                    self.probe.tracer().leaf("dev.write", cause, at, times.done);
                }
                Ok(times)
            }
            IoCmd::Read { range } => {
                if range.is_empty() {
                    return Ok(IoTimes {
                        done: at,
                        durable_at: at,
                    });
                }
                self.check_range(range)?;
                let lat = self.cfg.latency;
                let mut media_pages = 0u64;
                for lpn in range.iter() {
                    self.smart.host_pages_read += 1;
                    let mapped = match self.cfg.media {
                        MediaKind::Flash => self.ftl.is_mapped(lpn),
                        MediaKind::InPlace => self.inplace_written[lpn as usize],
                    };
                    if mapped {
                        media_pages += 1;
                    }
                }
                self.smart.nand_pages_read += media_pages;
                let done = if media_pages == 0 {
                    // Reading never-written space returns zeroes without
                    // media work.
                    at + lat.read_base_latency_ns
                } else {
                    // Steal bandwidth from the destage stream without
                    // queueing the read behind it.
                    self.backend
                        .reserve(at, media_pages * lat.read_occupancy_ns);
                    if queued {
                        let media_done = self
                            .read_lanes
                            .reserve(at, media_pages * lat.read_occupancy_ns);
                        media_done + lat.read_base_latency_ns
                    } else {
                        at + lat.read_base_latency_ns + media_pages * lat.read_occupancy_ns
                    }
                };
                self.probe
                    .note_read_bytes(range.len() * self.cfg.geometry.page_size as u64);
                let cause = self.probe.current_cause();
                self.probe.tracer().leaf("dev.read", cause, at, done);
                Ok(IoTimes {
                    done,
                    durable_at: done,
                })
            }
        }
    }

    /// Validates that a command range lies inside the advertised space.
    fn check_range(&self, range: LpnRange) -> Result<(), SsdError> {
        let logical_pages = self.cfg.geometry.logical_pages;
        if range.end > logical_pages {
            return Err(SsdError::LpnOutOfRange {
                lpn: range.end - 1,
                logical_pages,
            });
        }
        Ok(())
    }

    /// One page write issued at `at`: FTL write (with any GC it drags
    /// in), backend reservations, cache admission.
    fn service_write(&mut self, at: Ns, lpn: Lpn) -> Result<WriteCompletion, SsdError> {
        self.smart.host_pages_written += 1;
        self.probe.note_host_write(lpn);
        let lat = self.cfg.latency;
        match self.cfg.media {
            MediaKind::InPlace => {
                if !self.inplace_written[lpn as usize] {
                    self.inplace_written[lpn as usize] = true;
                    self.inplace_mapped += 1;
                }
                self.smart.nand_pages_written += 1;
                let durable = self.backend.reserve(at, lat.program_occupancy_ns);
                Ok(WriteCompletion {
                    host_done: durable.max(at + lat.cache_write_latency_ns),
                    durable_at: durable,
                })
            }
            MediaKind::Flash => {
                let start = self.cache.admit(at);
                let ops = self.ftl.write(lpn)?;
                self.smart.nand_pages_written += ops.programs as u64;
                self.smart.nand_pages_read += ops.reads as u64;
                self.smart.blocks_erased += ops.erases as u64;
                self.smart.gc_pages_relocated += ops.relocated as u64;
                self.smart.gc_invocations += ops.gc_runs as u64;
                self.probe.note_erases(ops.erases as u64);

                // Charge GC work to the backend, then the host page itself;
                // the host page's program completion is the durability point.
                if ops.reads > 0 {
                    self.backend
                        .reserve(start, ops.reads as Ns * lat.read_occupancy_ns);
                }
                if ops.relocated > 0 {
                    self.backend
                        .reserve(start, ops.relocated as Ns * lat.program_occupancy_ns);
                }
                if ops.erases > 0 {
                    self.backend
                        .reserve(start, ops.erases as Ns * lat.erase_occupancy_ns);
                }
                let durable = self.backend.reserve(start, lat.program_occupancy_ns);

                if self.cache.enabled() {
                    self.cache.push(durable);
                    Ok(WriteCompletion {
                        host_done: start + lat.cache_write_latency_ns,
                        durable_at: durable,
                    })
                } else {
                    Ok(WriteCompletion {
                        host_done: durable.max(start + lat.cache_write_latency_ns),
                        durable_at: durable,
                    })
                }
            }
        }
    }

    /// Writes one logical page — the synchronous (queue-depth-1) wrapper
    /// over [`Ssd::execute_at`].
    ///
    /// # Errors
    /// [`SsdError::LpnOutOfRange`] for an address beyond the advertised
    /// space; [`SsdError::NoFreeBlocks`] when garbage collection cannot
    /// reclaim a block (a mis-configured geometry).
    pub fn write_page(&mut self, lpn: Lpn) -> Result<WriteCompletion, SsdError> {
        let times = self.execute_at(self.clock.now(), IoCmd::write_page(lpn), false)?;
        Ok(WriteCompletion {
            host_done: times.done,
            durable_at: times.durable_at,
        })
    }

    /// Writes `range` sequentially; returns the completion of the final
    /// page with `durable_at` covering the whole range.
    pub fn write_range(&mut self, range: LpnRange) -> Result<WriteCompletion, SsdError> {
        let times = self.execute_at(self.clock.now(), IoCmd::Write { range }, false)?;
        Ok(WriteCompletion {
            host_done: times.done,
            durable_at: times.durable_at,
        })
    }

    /// Reads one logical page; returns the completion time.
    ///
    /// Host reads are prioritized over background destage traffic (as on
    /// real NVMe devices): their latency does not queue behind the write
    /// backlog, but they *do* steal media bandwidth from it.
    ///
    /// # Panics
    /// Panics if `lpn` is out of range (a programming error; the queued
    /// submission path reports it as [`SsdError::LpnOutOfRange`]).
    pub fn read_page(&mut self, lpn: Lpn) -> Ns {
        self.execute_at(self.clock.now(), IoCmd::read_page(lpn), false)
            .unwrap_or_else(|e| panic!("{e}"))
            .done
    }

    /// Reads a contiguous range of logical pages as one host command
    /// (base latency paid once, bandwidth per page). Returns the
    /// completion time.
    ///
    /// # Panics
    /// Panics if the range is out of range (see [`Ssd::read_page`]).
    pub fn read_pages(&mut self, range: LpnRange) -> Ns {
        self.execute_at(self.clock.now(), IoCmd::Read { range }, false)
            .unwrap_or_else(|e| panic!("{e}"))
            .done
    }

    /// TRIMs a range of logical pages (the `fstrim`/discard path).
    /// Returns the number of pages that actually held data.
    ///
    /// # Errors
    /// [`SsdError::LpnOutOfRange`] when the range exceeds the advertised
    /// space (no partial trim is performed).
    pub fn trim_range(&mut self, range: LpnRange) -> Result<u64, SsdError> {
        self.check_range(range)?;
        let mut discarded = 0;
        for lpn in range.iter() {
            match self.cfg.media {
                MediaKind::Flash => {
                    if self.ftl.trim(lpn)? {
                        discarded += 1;
                    }
                }
                MediaKind::InPlace => {
                    if std::mem::replace(&mut self.inplace_written[lpn as usize], false) {
                        self.inplace_mapped -= 1;
                        discarded += 1;
                    }
                }
            }
        }
        self.smart.pages_trimmed += discarded;
        Ok(discarded)
    }

    /// The `blkdiscard` equivalent: erases the entire device state. After
    /// this the drive behaves like a factory-fresh unit (modulo wear).
    pub fn discard_all(&mut self) {
        match self.cfg.media {
            MediaKind::Flash => self.ftl.discard_all(),
            MediaKind::InPlace => {
                self.inplace_written.fill(false);
                self.inplace_mapped = 0;
            }
        }
        self.cache.clear();
        self.backend.reset(self.clock.now());
        self.read_lanes.reset(self.clock.now());
    }

    /// Preconditions the drive per paper §3.4: a full sequential fill
    /// followed by random overwrites totalling twice the logical
    /// capacity, so that every LBA holds data and the garbage collector
    /// has reached steady state. The preconditioning traffic itself is
    /// *not* timed and *not* reflected in SMART counters or traces (they
    /// are reset afterwards), mirroring a baseline snapshot taken after
    /// preconditioning real hardware.
    pub fn precondition(&mut self, seed: u64) -> Result<(), SsdError> {
        let logical = self.cfg.geometry.logical_pages;
        match self.cfg.media {
            MediaKind::InPlace => {
                // In-place media has no FTL state: preconditioning only
                // marks the space as occupied.
                self.inplace_written.fill(true);
                self.inplace_mapped = logical;
            }
            MediaKind::Flash => {
                for lpn in 0..logical {
                    self.ftl.write(lpn)?;
                }
                let mut rng = SmallRng::seed_from_u64(seed);
                for _ in 0..(2 * logical) {
                    let lpn = rng.gen_range(0..logical);
                    self.ftl.write(lpn)?;
                }
            }
        }
        self.reset_observability();
        self.reset_trace();
        Ok(())
    }

    /// Resets SMART counters, the backend timeline and cache backlog —
    /// the "take a baseline snapshot" step between experiment phases.
    /// FTL state (mappings, wear) is preserved, and so is the LBA write
    /// trace: the paper's Figure 4 footprint covers the whole traced
    /// session (use [`Ssd::reset_trace`] to clear it explicitly).
    pub fn reset_observability(&mut self) {
        self.smart.reset();
        self.probe.reset();
        self.backend.reset(self.clock.now());
        self.read_lanes.reset(self.clock.now());
        self.cache.clear();
    }

    /// Clears the LBA write trace.
    pub fn reset_trace(&mut self) {
        self.probe.reset_write_trace();
    }

    /// Current SMART counters.
    pub fn smart(&self) -> SmartCounters {
        self.smart
    }

    /// Aggregate submission-depth statistics across every [`crate::IoQueue`]
    /// attached to this device (reset by [`Ssd::reset_observability`]).
    pub fn io_depth_stats(&self) -> IoDepthStats {
        self.probe.io_depth()
    }

    /// Records one queued submission with `in_flight` commands
    /// outstanding (called by [`crate::IoQueue::submit`]).
    pub(crate) fn note_queue_submission(&mut self, in_flight: u64) {
        self.probe.note_queue_submission(in_flight);
    }

    /// Attaches a span tracer to the device's probe; subsequent host
    /// commands emit `dev.write`/`dev.read` leaf spans and per-cause
    /// traffic accounting becomes active.
    pub fn attach_tracer(&mut self, tracer: Tracer) {
        self.probe.attach_tracer(tracer);
    }

    /// The device's tracer handle (the off tracer unless one was
    /// attached) — the filesystem and engines clone this at build time.
    pub fn tracer(&self) -> &Tracer {
        self.probe.tracer()
    }

    /// Enters a cause scope: device traffic until the matching
    /// [`Ssd::pop_cause`] is charged to `cause`.
    pub fn push_cause(&mut self, cause: Cause) {
        self.probe.push_cause(cause);
    }

    /// Leaves the innermost cause scope.
    pub fn pop_cause(&mut self) {
        self.probe.pop_cause();
    }

    /// The innermost active cause ([`Cause::Other`] outside any scope).
    pub fn current_cause(&self) -> Cause {
        self.probe.current_cause()
    }

    /// Per-cause device traffic since the last
    /// [`Ssd::reset_observability`]; `None` unless a tracer is attached.
    pub fn cause_stats(&self) -> Option<CauseStats> {
        self.probe.cause_stats()
    }

    /// Fraction of logical space holding data.
    pub fn utilization(&self) -> f64 {
        match self.cfg.media {
            MediaKind::Flash => self.ftl.utilization(),
            MediaKind::InPlace => {
                self.inplace_mapped as f64 / self.cfg.geometry.logical_pages as f64
            }
        }
    }

    /// Number of mapped logical pages.
    pub fn mapped_pages(&self) -> u64 {
        match self.cfg.media {
            MediaKind::Flash => self.ftl.mapped_pages(),
            MediaKind::InPlace => self.inplace_mapped,
        }
    }

    /// Free physical blocks (flash only; in-place media reports 0).
    pub fn free_blocks(&self) -> usize {
        match self.cfg.media {
            MediaKind::Flash => self.ftl.free_blocks(),
            MediaKind::InPlace => 0,
        }
    }

    /// Wear distribution across erase blocks.
    pub fn wear(&self) -> WearStats {
        WearStats::from_counts(&self.ftl.erase_counts())
    }

    /// Enables per-LBA write tracing (idempotent).
    pub fn enable_trace(&mut self) {
        self.probe
            .enable_write_trace(self.cfg.geometry.logical_pages);
    }

    /// The write trace, if tracing is enabled.
    pub fn write_trace(&self) -> Option<&WriteTrace> {
        self.probe.write_trace()
    }

    /// Current backlog of the media backend relative to `now` (ns) — a
    /// window into internal queueing for diagnostics and tests.
    pub fn backend_backlog(&self) -> Ns {
        self.backend.backlog(self.clock.now())
    }

    /// Exhaustive FTL invariant check (tests only; O(physical pages)).
    pub fn check_invariants(&self) {
        if matches!(self.cfg.media, MediaKind::Flash) {
            self.ftl.check_invariants();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DeviceProfile, MB};

    fn ssd1(bytes: u64) -> Ssd {
        Ssd::new(DeviceConfig::from_profile(DeviceProfile::ssd1(), bytes))
    }

    #[test]
    fn sequential_fill_has_unit_wa() {
        let mut d = ssd1(16 * MB);
        let pages = d.logical_pages();
        for lpn in 0..pages {
            let c = d.write_page(lpn).expect("write");
            d.clock().advance_to(c.host_done);
        }
        assert_eq!(d.smart().host_pages_written, pages);
        assert!((d.smart().wa_d() - 1.0).abs() < 1e-9);
        assert!((d.utilization() - 1.0).abs() < 1e-9);
        d.check_invariants();
    }

    #[test]
    fn random_overwrites_raise_wa_d() {
        let mut d = ssd1(16 * MB);
        let pages = d.logical_pages();
        for lpn in 0..pages {
            d.write_page(lpn).expect("write");
        }
        let baseline = d.smart();
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..(3 * pages) {
            d.write_page(rng.gen_range(0..pages)).expect("write");
        }
        let delta = d.smart().delta_since(&baseline);
        assert!(
            delta.wa_d() > 1.3,
            "random overwrite WA-D {} too low",
            delta.wa_d()
        );
        d.check_invariants();
    }

    #[test]
    fn preconditioned_device_amplifies_immediately() {
        // Paper §3.4: on a preconditioned drive even the first write is
        // effectively an overwrite.
        let mut trimmed = ssd1(16 * MB);
        let mut prec = ssd1(16 * MB);
        prec.precondition(7).expect("precondition");
        assert_eq!(
            prec.smart().host_pages_written,
            0,
            "precondition resets SMART"
        );
        assert!((prec.utilization() - 1.0).abs() < 1e-9);

        let pages = trimmed.logical_pages();
        let mut rng = SmallRng::seed_from_u64(9);
        let lpns: Vec<u64> = (0..pages / 2)
            .map(|_| rng.gen_range(0..pages / 2))
            .collect();
        for &lpn in &lpns {
            trimmed.write_page(lpn).expect("write");
            prec.write_page(lpn).expect("write");
        }
        assert!(
            prec.smart().wa_d() > trimmed.smart().wa_d(),
            "preconditioned WA-D {} must exceed trimmed {}",
            prec.smart().wa_d(),
            trimmed.smart().wa_d()
        );
    }

    #[test]
    fn trimming_unused_space_lowers_wa_d() {
        // The software over-provisioning effect (Pitfall 6): after
        // preconditioning, trimming half the LBA space and confining
        // writes to the other half must lower WA-D versus not trimming.
        let run = |trim: bool| -> f64 {
            let mut d = ssd1(16 * MB);
            d.precondition(1).expect("precondition");
            let pages = d.logical_pages();
            if trim {
                d.trim_range(LpnRange::new(pages / 2, pages)).expect("trim");
            }
            let mut rng = SmallRng::seed_from_u64(2);
            for _ in 0..(2 * pages) {
                d.write_page(rng.gen_range(0..pages / 2)).expect("write");
            }
            d.smart().wa_d()
        };
        let (with_trim, without) = (run(true), run(false));
        assert!(
            with_trim < without,
            "extra OP must reduce WA-D: {with_trim} vs {without}"
        );
    }

    #[test]
    fn cache_burst_stalls_but_absorbs_small_writes() {
        let mut cfg = DeviceConfig::from_profile(DeviceProfile::ssd2(), 64 * MB);
        // Shrink cache for test brevity.
        cfg.cache.capacity_pages = 32;
        let mut d = Ssd::new(cfg);
        // Small trickle: writes complete at cache latency.
        let mut latencies = Vec::new();
        for lpn in 0..16 {
            let now = d.clock().now();
            let c = d.write_page(lpn).expect("write");
            latencies.push(c.host_done - now);
            d.clock().advance_to(c.host_done);
            d.clock().advance(10 * crate::MILLISECOND); // idle gap
        }
        let trickle_max = *latencies.iter().max().expect("some");
        // Burst: thousands of back-to-back pages overwhelm the cache.
        let mut burst_max = 0;
        for lpn in 0..4096u64 {
            let now = d.clock().now();
            let c = d.write_page(lpn % d.logical_pages()).expect("write");
            burst_max = burst_max.max(c.host_done - now);
            d.clock().advance_to(c.host_done);
        }
        assert!(
            burst_max > 3 * trickle_max,
            "burst latency {burst_max} should dwarf trickle latency {trickle_max}"
        );
    }

    #[test]
    fn in_place_media_never_amplifies() {
        let mut d = Ssd::new(DeviceConfig::from_profile(DeviceProfile::ssd3(), 16 * MB));
        let pages = d.logical_pages();
        let mut rng = SmallRng::seed_from_u64(4);
        for _ in 0..(4 * pages) {
            d.write_page(rng.gen_range(0..pages)).expect("write");
        }
        assert!((d.smart().wa_d() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn reads_do_not_queue_behind_write_backlog() {
        let mut d = ssd1(16 * MB);
        for lpn in 0..d.logical_pages() {
            d.write_page(lpn).expect("write");
        }
        // Big unadvanced backlog exists now; a read must still be fast.
        let now = d.clock().now();
        let done = d.read_page(0);
        let lat = done - now;
        assert!(
            lat < 2 * d.config().latency.read_base_latency_ns
                + d.config().latency.read_occupancy_ns,
            "read latency {lat} queued behind the write backlog"
        );
    }

    #[test]
    fn discard_all_restores_fresh_behaviour() {
        let mut d = ssd1(16 * MB);
        d.precondition(5).expect("precondition");
        d.discard_all();
        d.reset_observability();
        let pages = d.logical_pages();
        for lpn in 0..pages {
            d.write_page(lpn).expect("write");
        }
        assert!(
            (d.smart().wa_d() - 1.0).abs() < 1e-9,
            "discarded drive must behave fresh"
        );
    }

    #[test]
    fn trace_records_host_pattern() {
        let mut d = ssd1(16 * MB);
        d.enable_trace();
        for lpn in 0..d.logical_pages() / 2 {
            d.write_page(lpn).expect("write");
        }
        let trace = d.write_trace().expect("enabled");
        assert!((trace.untouched_fraction() - 0.5).abs() < 0.01);
    }

    #[test]
    fn out_of_range_write_errors() {
        let mut d = ssd1(16 * MB);
        let pages = d.logical_pages();
        let err = d.write_page(pages).expect_err("beyond logical space");
        assert!(matches!(err, SsdError::LpnOutOfRange { .. }));
        let err = d
            .trim_range(LpnRange::new(pages - 1, pages + 1))
            .expect_err("beyond logical space");
        assert!(matches!(err, SsdError::LpnOutOfRange { .. }));
        assert_eq!(d.smart().pages_trimmed, 0, "no partial trim");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_read_panics() {
        let mut d = ssd1(16 * MB);
        let pages = d.logical_pages();
        d.read_page(pages);
    }
}
