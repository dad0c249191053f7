//! Write-back cache admission model.
//!
//! Real SSDs stage host writes in DRAM (or an SLC region) and destage to
//! NAND in the background. A host write therefore completes quickly *as
//! long as a cache slot is free*; once the cache fills — e.g. under the
//! large bursty writes of LSM compaction — the host blocks at media
//! speed. Paper §4.7 attributes WiredTiger's surprising win on SSD2 and
//! RocksDB's long stalls on the same drive exactly to this mechanism.
//!
//! [`DestageQueue`] models the cache as a FIFO of destage completion
//! times (completions are produced by the shared [`crate::latency::Backend`]
//! timeline, so garbage collection naturally slows the drain).

use std::collections::VecDeque;

use crate::clock::Ns;

/// FIFO of in-flight destage completion times.
#[derive(Debug)]
pub struct DestageQueue {
    capacity: usize,
    inflight: VecDeque<Ns>,
}

impl DestageQueue {
    /// A queue with room for `capacity` pages. Capacity 0 means
    /// "no cache": [`DestageQueue::admit`] always returns `now` and the
    /// caller must treat the media completion as the host completion.
    pub(crate) fn new(capacity: u32) -> Self {
        Self {
            capacity: capacity as usize,
            inflight: VecDeque::new(),
        }
    }

    /// Whether the device has a cache at all.
    pub(crate) fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Earliest time (>= `now`) at which the host may *start* a new write,
    /// i.e. when a cache slot is available. Entries that completed by the
    /// returned time are drained.
    pub(crate) fn admit(&mut self, now: Ns) -> Ns {
        if self.capacity == 0 {
            return now;
        }
        self.drain(now);
        if self.inflight.len() < self.capacity {
            return now;
        }
        // FIFO: completions are monotone, so the slot frees when the
        // (len - capacity + 1)-th oldest entry completes.
        let wait_until = self.inflight[self.inflight.len() - self.capacity];
        self.drain(wait_until);
        wait_until
    }

    /// Registers the destage completion time of an admitted write.
    pub(crate) fn push(&mut self, completion: Ns) {
        if self.capacity == 0 {
            return;
        }
        debug_assert!(
            self.inflight.back().is_none_or(|&b| completion >= b),
            "destage completions must be monotone"
        );
        self.inflight.push_back(completion);
    }

    /// Forgets all in-flight state (device reset).
    pub(crate) fn clear(&mut self) {
        self.inflight.clear();
    }

    fn drain(&mut self, now: Ns) {
        while self.inflight.front().is_some_and(|&t| t <= now) {
            self.inflight.pop_front();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Dirty pages still in flight at `now`.
    fn occupancy(q: &mut DestageQueue, now: Ns) -> usize {
        q.drain(now);
        q.inflight.len()
    }

    #[test]
    fn admits_freely_when_room() {
        let mut q = DestageQueue::new(4);
        assert_eq!(q.admit(100), 100);
        q.push(500);
        assert_eq!(q.admit(100), 100);
        assert_eq!(occupancy(&mut q, 100), 1);
    }

    #[test]
    fn blocks_when_full() {
        let mut q = DestageQueue::new(2);
        q.admit(0);
        q.push(100);
        q.admit(0);
        q.push(200);
        // Cache holds 2 in-flight pages; third write waits for the first
        // destage (t=100).
        assert_eq!(q.admit(0), 100);
        q.push(300);
        // Fourth waits for the second destage.
        assert_eq!(q.admit(0), 200);
    }

    #[test]
    fn drains_completed_entries() {
        let mut q = DestageQueue::new(2);
        q.push(100);
        q.push(200);
        assert_eq!(occupancy(&mut q, 150), 1);
        assert_eq!(occupancy(&mut q, 250), 0);
        assert_eq!(q.admit(250), 250);
    }

    #[test]
    fn zero_capacity_is_pass_through() {
        let mut q = DestageQueue::new(0);
        assert!(!q.enabled());
        assert_eq!(q.admit(42), 42);
        q.push(1000); // ignored
        assert_eq!(occupancy(&mut q, 42), 0);
    }

    #[test]
    fn burst_then_idle_recovers() {
        // A burst fills the cache; after enough idle time admission is
        // immediate again (the SSD2 recovery behaviour).
        let mut q = DestageQueue::new(3);
        for i in 0..3 {
            let start = q.admit(0);
            assert_eq!(start, 0);
            q.push(1_000 * (i + 1));
        }
        assert_eq!(q.admit(0), 1_000, "burst write blocks on first destage");
        q.push(4_000);
        assert_eq!(q.admit(10_000), 10_000, "after idle the cache is clean");
    }
}
