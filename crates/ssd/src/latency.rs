//! Service-time model.
//!
//! The simulator does not model individual channels and dies; instead the
//! whole NAND array is a single *backend timeline* with aggregate
//! throughput. Every media operation (page read, page program, block
//! erase) reserves an *occupancy* on that timeline; the timeline's
//! backlog relative to the current simulated time is the device's queue.
//!
//! This is the standard fluid approximation used by analytic SSD models
//! (e.g. Desnoyers, *Analytic Models of SSD Write Performance*): it
//! reproduces the first-order phenomena the paper relies on — garbage
//! collection stealing host bandwidth (WA-D directly scales service
//! demand), bursty writes overwhelming a write cache, and read/write
//! interference — without a per-die event simulation.

use crate::clock::Ns;

/// Timing parameters of the simulated device (already scaled to the
/// simulated capacity; see [`crate::DeviceProfile::scaled_to`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyConfig {
    /// Backend occupancy of one page program (ns). The reciprocal is the
    /// device's sustained write bandwidth in pages/second.
    pub program_occupancy_ns: Ns,
    /// Backend occupancy of one page read (ns).
    pub read_occupancy_ns: Ns,
    /// Backend occupancy of one block erase (ns).
    pub erase_occupancy_ns: Ns,
    /// Host-visible latency of a write accepted into the cache (ns).
    pub cache_write_latency_ns: Ns,
    /// Host-visible base latency of a read (added on top of queueing, ns).
    pub read_base_latency_ns: Ns,
}

/// A backend timeline: one or more service lanes fed by a common
/// reservation stream.
///
/// With one lane (the default, [`Backend::new`]) this is the classic
/// single-server fluid queue: every reservation starts when the previous
/// one ends, exactly the pre-queue behaviour of the simulator. With
/// `n > 1` lanes ([`Backend::with_lanes`]) each reservation is placed on
/// the earliest-free lane, so up to `n` in-flight commands overlap — the
/// NAND-channel model the asynchronous submission path uses for reads.
#[derive(Debug, Clone)]
pub struct Backend {
    /// Per-lane busy horizon.
    lanes: Vec<Ns>,
}

impl Default for Backend {
    fn default() -> Self {
        Self::new()
    }
}

impl Backend {
    /// Creates an idle single-lane backend (strictly serialized).
    pub fn new() -> Self {
        Self::with_lanes(1)
    }

    /// Creates an idle backend with `lanes` parallel service lanes.
    pub fn with_lanes(lanes: usize) -> Self {
        assert!(lanes > 0, "backend needs at least one lane");
        Self {
            lanes: vec![0; lanes],
        }
    }

    /// Reserves `cost` nanoseconds of backend time starting no earlier
    /// than `now` on the earliest-free lane (lowest index on ties, so
    /// placement is deterministic); returns the completion time of this
    /// reservation.
    pub(crate) fn reserve(&mut self, now: Ns, cost: Ns) -> Ns {
        let lane = self
            .lanes
            .iter()
            .enumerate()
            .min_by_key(|(_, &busy)| busy)
            .map(|(i, _)| i)
            .expect("at least one lane");
        let start = self.lanes[lane].max(now);
        self.lanes[lane] = start + cost;
        self.lanes[lane]
    }

    /// Time at which all currently queued work completes (the horizon of
    /// the busiest lane).
    pub(crate) fn busy_until(&self) -> Ns {
        self.lanes.iter().copied().max().unwrap_or(0)
    }

    /// Backlog (queued work) relative to `now`, in nanoseconds.
    pub(crate) fn backlog(&self, now: Ns) -> Ns {
        self.busy_until().saturating_sub(now)
    }

    /// Clears backlog (used when resetting drive state between
    /// experiment phases).
    pub(crate) fn reset(&mut self, now: Ns) {
        self.lanes.fill(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reservations_serialize() {
        let mut b = Backend::new();
        assert_eq!(b.reserve(0, 10), 10);
        assert_eq!(b.reserve(0, 10), 20, "second op queues behind the first");
        assert_eq!(b.reserve(100, 10), 110, "idle gap is not carried over");
    }

    #[test]
    fn backlog_reflects_queue() {
        let mut b = Backend::new();
        b.reserve(0, 50);
        assert_eq!(b.backlog(20), 30);
        assert_eq!(b.backlog(60), 0);
    }

    #[test]
    fn reset_clears_backlog() {
        let mut b = Backend::new();
        b.reserve(0, 1000);
        b.reset(500);
        assert_eq!(b.backlog(500), 0);
        assert_eq!(b.reserve(500, 10), 510);
    }

    #[test]
    fn lanes_overlap_reservations() {
        let mut b = Backend::with_lanes(2);
        assert_eq!(b.lanes.len(), 2);
        assert_eq!(b.reserve(0, 10), 10, "lane 0");
        assert_eq!(b.reserve(0, 10), 10, "lane 1 runs concurrently");
        assert_eq!(b.reserve(0, 10), 20, "third op queues on lane 0");
        assert_eq!(b.busy_until(), 20);
        b.reset(100);
        assert_eq!(b.backlog(100), 0);
        assert_eq!(b.reserve(100, 5), 105);
    }

    #[test]
    fn single_lane_matches_legacy_serialization() {
        // Backend::new() must preserve the exact pre-lanes semantics.
        let mut b = Backend::new();
        assert_eq!(b.lanes.len(), 1);
        assert_eq!(b.reserve(0, 10), 10);
        assert_eq!(b.reserve(0, 10), 20);
    }
}
