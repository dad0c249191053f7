//! # ptsbench-trace — virtual-time tracing and cause attribution
//!
//! The paper's core methodological claim is that benchmarks mislead
//! unless device-internal effects (write amplification, GC, inline
//! maintenance) are *attributed* to the logical operations that caused
//! them. This crate is the observability layer that makes that
//! attribution possible across the whole `ptsbench` stack:
//!
//! * [`TraceRecorder`] — a bounded ring-buffer flight recorder of
//!   nested [`Span`]s with virtual-clock timestamps and deterministic
//!   sequential span ids. Exports Chrome trace-event JSON
//!   ([`TraceRecorder::export_chrome`]) and a per-phase breakdown
//!   table ([`TraceRecorder::phase_table`]).
//! * [`Cause`] — provenance tags (`Get`, `Put`, `Compaction`,
//!   `SegmentGc`, `Wal`, ...) propagated down to the simulated device
//!   so every device byte and erase is attributed to the logical
//!   operation class that caused it.
//! * [`CauseStats`] — per-cause device-traffic counters whose totals
//!   close *exactly* against the device's host byte counters (asserted
//!   in `examples/fig_anatomy.rs` and
//!   `crates/harness/tests/proptest_trace.rs`).
//! * [`Tracer`] — the cheap handle every layer holds. When tracing is
//!   off (`Tracer::off`, the default everywhere) every call is a
//!   branch on a `None` — no lock, no allocation, no clock access —
//!   so trace-off runs stay byte-identical to the pre-trace harness.
//!
//! Time is whatever the caller's virtual clock says: the recorder
//! never reads a clock itself, callers pass `now`. That keeps the
//! subsystem deterministic and strictly passive — recording a span can
//! never advance simulated time or consume randomness.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod cause;
mod recorder;

pub use cause::{Cause, CauseCounters, CauseStats};
pub use recorder::{OpBreakdown, SharedTraceRecorder, Span, SpanId, TraceRecorder, Tracer};

/// Virtual-time nanoseconds (mirrors `ptsbench_ssd::Ns`; this crate
/// sits below the device simulator in the dependency graph).
pub type Ns = u64;
