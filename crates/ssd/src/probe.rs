//! The device's unified instrumentation seam.
//!
//! Before this module existed the device carried three ad-hoc
//! instrumentation channels: the per-LBA [`WriteTrace`], the
//! [`IoDepthStats`] submission counters, and (with PR 7) per-cause
//! traffic accounting. [`DeviceProbe`] folds them behind one seam: the
//! device calls a small set of `note_*` hooks from its command path and
//! the probe routes each observation to whichever sinks are enabled —
//! so adding a new observability channel touches the probe, not the
//! service-time code.
//!
//! The probe also owns the device end of the tracing subsystem: the
//! attached [`Tracer`] (off by default — every hook is then a branch
//! and nothing more) and the *cause stack*. Layers above wrap device
//! activity in cause scopes ([`DeviceProbe::push_cause`] /
//! [`DeviceProbe::pop_cause`]); every host byte and erase the device
//! serves is charged to the innermost active [`Cause`], which is what
//! lets `fig_anatomy` close per-cause bytes exactly against the SMART
//! totals.

use ptsbench_trace::{Cause, CauseStats, Tracer};

use crate::queue::IoDepthStats;
use crate::trace::WriteTrace;
use crate::types::Lpn;

/// Unified instrumentation state for one device.
///
/// Groups the LBA write trace, queued-submission depth counters,
/// per-cause traffic counters and the span tracer behind one set of
/// hooks. All sinks are disabled by default; the device's command path
/// calls the hooks unconditionally and the probe filters.
#[derive(Debug, Default)]
pub(crate) struct DeviceProbe {
    trace: Option<WriteTrace>,
    io_depth: IoDepthStats,
    cause: CauseStats,
    cause_stack: Vec<Cause>,
    tracer: Tracer,
}

impl DeviceProbe {
    /// A probe with every sink disabled.
    pub(crate) fn new(trace: Option<WriteTrace>) -> Self {
        Self {
            trace,
            ..Self::default()
        }
    }

    // ---- host-command hooks (called by the device's service path) ----

    /// One host page written at `lpn`.
    pub(crate) fn note_host_write(&mut self, lpn: Lpn) {
        if let Some(t) = self.trace.as_mut() {
            t.record(lpn);
        }
    }

    /// One queued submission with `in_flight` commands outstanding.
    pub(crate) fn note_queue_submission(&mut self, in_flight: u64) {
        self.io_depth.submitted += 1;
        self.io_depth.depth_sum += in_flight;
        self.io_depth.max_in_flight = self.io_depth.max_in_flight.max(in_flight);
    }

    /// Charges `bytes` of host writes to the current cause (only while
    /// a tracer is attached — cause accounting is part of tracing).
    pub(crate) fn note_write_bytes(&mut self, bytes: u64) {
        if self.tracer.is_on() {
            self.cause.note_write(self.current_cause(), bytes);
        }
    }

    /// Charges `bytes` of host reads to the current cause.
    pub(crate) fn note_read_bytes(&mut self, bytes: u64) {
        if self.tracer.is_on() {
            self.cause.note_read(self.current_cause(), bytes);
        }
    }

    /// Charges `erases` block erases to the current cause.
    pub(crate) fn note_erases(&mut self, erases: u64) {
        if erases > 0 && self.tracer.is_on() {
            self.cause.note_erases(self.current_cause(), erases);
        }
    }

    // ---- cause scopes ----

    /// Enters a cause scope: subsequent device traffic is charged to
    /// `cause` until the matching [`DeviceProbe::pop_cause`].
    pub(crate) fn push_cause(&mut self, cause: Cause) {
        self.cause_stack.push(cause);
    }

    /// Leaves the innermost cause scope.
    pub(crate) fn pop_cause(&mut self) {
        self.cause_stack.pop();
    }

    /// The innermost active cause ([`Cause::Other`] outside any scope).
    pub(crate) fn current_cause(&self) -> Cause {
        self.cause_stack.last().copied().unwrap_or(Cause::Other)
    }

    // ---- sink management ----

    /// Attaches a span tracer (enables cause accounting too).
    pub(crate) fn attach_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The attached tracer (the off tracer when none was attached).
    pub(crate) fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Per-cause traffic since the last reset; `None` when no tracer is
    /// attached (cause accounting is then inactive).
    pub(crate) fn cause_stats(&self) -> Option<CauseStats> {
        self.tracer.is_on().then_some(self.cause)
    }

    /// Queued-submission depth statistics.
    pub(crate) fn io_depth(&self) -> IoDepthStats {
        self.io_depth
    }

    /// Enables per-LBA write tracing (idempotent).
    pub(crate) fn enable_write_trace(&mut self, logical_pages: u64) {
        if self.trace.is_none() {
            self.trace = Some(WriteTrace::new(logical_pages));
        }
    }

    /// The LBA write trace, if enabled.
    pub(crate) fn write_trace(&self) -> Option<&WriteTrace> {
        self.trace.as_ref()
    }

    /// Clears the LBA write trace (keeps it enabled).
    pub(crate) fn reset_write_trace(&mut self) {
        if let Some(t) = self.trace.as_mut() {
            t.reset();
        }
    }

    /// The baseline-snapshot reset: clears depth counters, per-cause
    /// traffic and any recorded spans (span ids restart at 1, so the
    /// measured phase gets deterministic ids). The LBA write trace and
    /// the cause stack survive — the trace covers the whole session by
    /// design, and a reset can happen inside an open scope.
    pub(crate) fn reset(&mut self) {
        self.io_depth.reset();
        self.cause = CauseStats::new();
        self.tracer.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cause_scopes_nest_and_default_to_other() {
        let mut p = DeviceProbe::default();
        assert_eq!(p.current_cause(), Cause::Other);
        p.push_cause(Cause::Put);
        p.push_cause(Cause::Compaction);
        assert_eq!(p.current_cause(), Cause::Compaction);
        p.pop_cause();
        assert_eq!(p.current_cause(), Cause::Put);
        p.pop_cause();
        assert_eq!(p.current_cause(), Cause::Other);
        p.pop_cause(); // extra pop is harmless
        assert_eq!(p.current_cause(), Cause::Other);
    }

    #[test]
    fn cause_accounting_requires_an_attached_tracer() {
        let mut p = DeviceProbe::default();
        p.push_cause(Cause::Put);
        p.note_write_bytes(4096);
        assert!(p.cause_stats().is_none(), "no tracer, no accounting");

        p.attach_tracer(Tracer::recording());
        p.note_write_bytes(4096);
        p.note_read_bytes(512);
        p.note_erases(2);
        let stats = p.cause_stats().expect("tracer attached");
        assert_eq!(stats.get(Cause::Put).bytes_written, 4096);
        assert_eq!(stats.get(Cause::Put).bytes_read, 512);
        assert_eq!(stats.get(Cause::Put).erases, 2);
        assert_eq!(stats.total_bytes_written(), 4096);
    }

    #[test]
    fn reset_clears_counters_but_keeps_scopes_and_trace() {
        let mut p = DeviceProbe::default();
        p.enable_write_trace(64);
        p.attach_tracer(Tracer::recording());
        p.push_cause(Cause::BulkLoad);
        p.note_host_write(3);
        p.note_write_bytes(4096);
        p.note_queue_submission(2);
        p.tracer().leaf("dev.write", Cause::BulkLoad, 0, 10);

        p.reset();
        assert_eq!(p.io_depth().submitted, 0);
        assert!(p.cause_stats().expect("tracer still on").is_empty());
        assert_eq!(p.current_cause(), Cause::BulkLoad, "scope survives reset");
        assert_eq!(
            p.write_trace().expect("enabled").touched_lpns(),
            1,
            "LBA trace survives reset"
        );
        let rec = p.tracer().shared().expect("on");
        assert_eq!(rec.lock().len(), 0, "spans cleared");
    }

    #[test]
    fn write_trace_hook_records_and_resets() {
        let mut p = DeviceProbe::default();
        p.enable_write_trace(16);
        p.note_host_write(1);
        assert_eq!(p.write_trace().expect("enabled").touched_lpns(), 1);
        p.reset_write_trace();
        assert_eq!(p.write_trace().expect("enabled").touched_lpns(), 0);
    }

    #[test]
    fn queue_submissions_aggregate_depth() {
        let mut p = DeviceProbe::default();
        p.note_queue_submission(1);
        p.note_queue_submission(3);
        let d = p.io_depth();
        assert_eq!(d.submitted, 2);
        assert_eq!(d.depth_sum, 4);
        assert_eq!(d.max_in_flight, 3);
    }
}
