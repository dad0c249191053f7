//! # ptsbench-ssd — a flash SSD simulator
//!
//! This crate implements the storage substrate for the `ptsbench` workspace:
//! a discrete-time flash SSD simulator with the internal mechanics that drive
//! every benchmarking pitfall described in *"Toward a Better Understanding
//! and Evaluation of Tree Structures on Flash SSDs"* (Didona et al.,
//! VLDB 2020):
//!
//! * **Page-mapped FTL** — out-of-place page writes, logical-to-physical
//!   mapping, block erase-before-program semantics ([`ftl`]).
//! * **Garbage collection** — greedy victim selection (fewest valid
//!   pages first), valid-page relocation, and the resulting
//!   *device-level write amplification* (WA-D) ([`ftl`]).
//! * **Over-provisioning** — hardware OP baked into the geometry, plus
//!   software OP created by trimming and never writing part of the LBA
//!   space ([`config`], [`Ssd::trim_range`]).
//! * **Drive state control** — [`Ssd::discard_all`] (the `blkdiscard`
//!   equivalent) and [`Ssd::precondition`] (sequential fill + 2x random
//!   overwrite, paper §3.4).
//! * **Write-back cache** — a DRAM staging buffer with background destage,
//!   which absorbs small uniform writes and stalls under large bursts
//!   (the SSD2 dynamics of paper §4.7) ([`cache`]).
//! * **Service-time model** — per-page read/program occupancy, per-block
//!   erase occupancy, and a shared backend timeline, so device throughput
//!   and latency *emerge* from FTL activity ([`latency`]).
//! * **SMART counters and LBA write traces** — host vs NAND traffic for
//!   WA-D, and a `blktrace`-like per-LBA write recorder for the CDF of
//!   Figure 4 ([`stats`], [`trace`]).
//!
//! Time is virtual: all latencies advance a shared [`SimClock`], making
//! experiments deterministic and independent of the host machine.
//!
//! ## Quick example
//!
//! ```
//! use ptsbench_ssd::{DeviceConfig, DeviceProfile, Ssd};
//!
//! // A small enterprise-class drive (SSD1 profile), 64 MiB logical space.
//! let cfg = DeviceConfig::from_profile(DeviceProfile::ssd1(), 64 * 1024 * 1024);
//! let mut ssd = Ssd::new(cfg);
//!
//! // Write the first 1024 logical pages.
//! for lpn in 0..1024 {
//!     let done = ssd.write_page(lpn).expect("lpn in range");
//!     ssd.clock().advance_to(done.host_done);
//! }
//! assert_eq!(ssd.smart().host_pages_written, 1024);
//! // Nothing has been overwritten yet, so no garbage collection happened.
//! assert_eq!(ssd.smart().wa_d(), 1.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
mod clock;
pub mod config;
mod device;
pub mod ftl;
mod gc;
pub mod latency;
mod probe;
pub mod queue;
pub mod stats;
pub mod trace;
mod types;

pub use clock::{ClockBarrier, Ns, SimClock, MICROSECOND, MILLISECOND, MINUTE, SECOND};
pub use config::{CacheConfig, DeviceConfig, DeviceProfile, GcConfig, Geometry, MediaKind};
pub use device::SharedSsd;
pub use device::{Ssd, WriteCompletion};
pub use ftl::{Ftl, NandOps};
pub use latency::LatencyConfig;
pub use ptsbench_trace::{
    Cause, CauseCounters, CauseStats, SharedTraceRecorder, Span, SpanId, TraceRecorder, Tracer,
};
pub use queue::{IoCmd, IoCompletion, IoDepthStats, IoQueue, IoToken, SharedIoQueue};
pub use stats::SmartCounters;
pub use trace::WriteTrace;
pub use types::{Lpn, LpnRange};

/// Errors surfaced by the SSD simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SsdError {
    /// A logical page number is outside the advertised logical capacity.
    LpnOutOfRange {
        /// The offending logical page number.
        lpn: Lpn,
        /// The number of logical pages the device exposes.
        logical_pages: u64,
    },
    /// The device ran out of free physical blocks even after garbage
    /// collection. This indicates a mis-configured geometry (no
    /// over-provisioning at all), not a normal runtime condition.
    NoFreeBlocks,
}

impl std::fmt::Display for SsdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SsdError::LpnOutOfRange { lpn, logical_pages } => write!(
                f,
                "logical page {lpn} out of range (device has {logical_pages} logical pages)"
            ),
            SsdError::NoFreeBlocks => {
                write!(
                    f,
                    "no free physical blocks (geometry has no over-provisioning)"
                )
            }
        }
    }
}

impl std::error::Error for SsdError {}
