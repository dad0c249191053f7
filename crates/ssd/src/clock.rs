//! Virtual time.
//!
//! All latencies in the simulator are expressed against a shared
//! [`SimClock`] with nanosecond resolution. The clock only moves forward;
//! components compute *completion times* and the party that semantically
//! blocks (e.g. a direct-I/O write in the filesystem layer) advances the
//! clock to that completion. This makes whole experiments deterministic:
//! "minutes" on a plot are simulated minutes, not wall-clock minutes.
//!
//! The [`ClockBarrier`] is kept only so the host-cost table of the
//! `examples/perf` benchmark can time [`ClockBarrier::arrive`] (its
//! `harness.barrier_arrive.host_ns` row). No driver uses it: sharded
//! clients simulate shared-nothing stacks, each on its own
//! [`SimClock`], and never wait for one another.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Nanoseconds of simulated time.
pub type Ns = u64;

/// One microsecond in [`Ns`].
pub const MICROSECOND: Ns = 1_000;
/// One millisecond in [`Ns`].
pub const MILLISECOND: Ns = 1_000_000;
/// One second in [`Ns`].
pub const SECOND: Ns = 1_000_000_000;
/// One minute in [`Ns`].
pub const MINUTE: Ns = 60 * SECOND;

/// A monotonically non-decreasing virtual clock shared by every component
/// of a simulated storage stack.
///
/// Cloning the surrounding `Arc<SimClock>` shares the same timeline.
#[derive(Debug, Default)]
pub struct SimClock {
    now_ns: AtomicU64,
}

impl SimClock {
    /// A new clock at time zero, wrapped for sharing.
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            now_ns: AtomicU64::new(0),
        })
    }

    /// Current simulated time.
    pub fn now(&self) -> Ns {
        self.now_ns.load(Ordering::Relaxed)
    }

    /// Advance the clock to `t` if `t` is in the future; never moves
    /// backwards. Returns the (possibly unchanged) current time.
    pub fn advance_to(&self, t: Ns) -> Ns {
        self.now_ns.fetch_max(t, Ordering::Relaxed).max(t)
    }

    /// Advance the clock by `delta` nanoseconds and return the new time.
    pub fn advance(&self, delta: Ns) -> Ns {
        self.now_ns.fetch_add(delta, Ordering::Relaxed) + delta
    }

    /// Reset to time zero. Only used between experiment phases (e.g. after
    /// preconditioning) so plots start at t=0.
    pub fn reset(&self) {
        self.now_ns.store(0, Ordering::Relaxed);
    }
}

/// Mutable barrier state (under the mutex).
#[derive(Debug)]
struct BarrierState {
    /// Clients that must arrive before an epoch completes.
    parties: usize,
    /// Clients that have arrived at the current epoch boundary.
    arrived: usize,
    /// Completed epochs; epoch `e` ends at virtual time `e * quantum`.
    epoch: u64,
}

/// A virtual-time barrier: `parties` threads advance one global clock
/// in `quantum`-sized epochs.
///
/// [`ClockBarrier::arrive`] blocks the caller until every party has
/// reached the same epoch boundary, then advances the global clock to
/// `epoch * quantum` and releases everyone. Kept only for the
/// `harness.barrier_arrive.host_ns` row of the perf benchmark (see the
/// module docs).
#[derive(Debug)]
pub struct ClockBarrier {
    quantum: Ns,
    clock: Arc<SimClock>,
    state: Mutex<BarrierState>,
    cv: Condvar,
}

impl ClockBarrier {
    /// A barrier for `parties` clients advancing in `quantum`-sized
    /// epochs, with a fresh global clock at zero.
    pub fn new(parties: usize, quantum: Ns) -> Arc<Self> {
        assert!(parties > 0, "barrier needs at least one party");
        assert!(quantum > 0, "quantum must be positive");
        Arc::new(Self {
            quantum,
            clock: SimClock::new(),
            state: Mutex::new(BarrierState {
                parties,
                arrived: 0,
                epoch: 0,
            }),
            cv: Condvar::new(),
        })
    }

    /// The shared global clock. It only moves at epoch boundaries, and
    /// never runs ahead of the slowest party.
    pub fn clock(&self) -> Arc<SimClock> {
        Arc::clone(&self.clock)
    }

    /// Completed epochs so far.
    pub fn epoch(&self) -> u64 {
        self.lock().epoch
    }

    /// Announces that the caller has simulated up to the next epoch
    /// boundary and blocks until every other party has too. The
    /// last arrival advances the global clock to the boundary and wakes
    /// everyone. Returns the number of completed epochs.
    pub fn arrive(&self) -> u64 {
        let mut g = self.lock();
        let my_epoch = g.epoch;
        g.arrived += 1;
        if g.arrived >= g.parties {
            self.release(&mut g);
        } else {
            while g.epoch == my_epoch {
                g = self.cv.wait(g).unwrap_or_else(|e| e.into_inner());
            }
        }
        g.epoch
    }

    fn release(&self, g: &mut BarrierState) {
        g.arrived = 0;
        g.epoch += 1;
        self.clock.advance_to(g.epoch.saturating_mul(self.quantum));
        self.cv.notify_all();
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BarrierState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_advances_monotonically() {
        let c = SimClock::new();
        assert_eq!(c.now(), 0);
        assert_eq!(c.advance(10), 10);
        assert_eq!(c.advance_to(5), 10, "advance_to must not move backwards");
        assert_eq!(c.now(), 10);
        assert_eq!(c.advance_to(25), 25);
        assert_eq!(c.now(), 25);
    }

    #[test]
    fn clock_reset() {
        let c = SimClock::new();
        c.advance(100);
        c.reset();
        assert_eq!(c.now(), 0);
    }

    #[test]
    fn unit_constants() {
        assert_eq!(SECOND, 1_000 * MILLISECOND);
        assert_eq!(MILLISECOND, 1_000 * MICROSECOND);
        assert_eq!(MINUTE, 60 * SECOND);
    }

    #[test]
    fn barrier_advances_global_clock_in_lockstep() {
        let barrier = ClockBarrier::new(3, 100);
        let clock = barrier.clock();
        assert_eq!(clock.now(), 0);
        std::thread::scope(|s| {
            for _ in 0..3 {
                let b = Arc::clone(&barrier);
                s.spawn(move || {
                    for e in 1..=5u64 {
                        let epoch = b.arrive();
                        assert!(epoch >= e);
                        // Global time never runs ahead of the epochs
                        // all clients completed.
                        assert!(b.clock().now() >= e * 100);
                    }
                });
            }
        });
        assert_eq!(barrier.epoch(), 5);
        assert_eq!(clock.now(), 500);
    }

    #[test]
    fn barrier_single_party_never_blocks() {
        let b = ClockBarrier::new(1, 7);
        assert_eq!(b.arrive(), 1);
        assert_eq!(b.arrive(), 2);
        assert_eq!(b.clock().now(), 14);
    }
}
