//! Asynchronous submission/completion I/O — the io_uring view of the
//! simulated drive.
//!
//! The synchronous device API ([`crate::Ssd::write_page`],
//! [`crate::Ssd::read_page`]) completes every command on the spot, so a
//! single client can never have two commands in flight and the device's
//! internal parallelism is invisible — exactly the effect Roh et al.
//! measure when they drive B+-trees through synchronous I/O. An
//! [`IoQueue`] removes that restriction while staying fully
//! deterministic in virtual time:
//!
//! * [`IoQueue::submit`] hands a command to the device **without
//!   advancing the clock** and returns an [`IoToken`]. Up to the queue
//!   depth commands may be outstanding; submitting into a full queue
//!   implicitly waits (in virtual time) for the earliest completion to
//!   free a slot, like a blocked `io_uring_enter` with a full SQ.
//! * [`IoQueue::wait`] advances the simulated clock to a command's
//!   completion and returns its [`IoCompletion`];
//!   [`IoQueue::poll`] collects already-completed commands without
//!   blocking; [`IoQueue::wait_all`] drains everything.
//!
//! Because all latencies are computed at submission from deterministic
//! device state, the completion times of a command stream depend only
//! on the stream itself — never on host scheduling. A queue of depth 1
//! reproduces the synchronous calls **byte-identically** (property-tested
//! in `tests/proptest_io_queue.rs`): each submission waits for the
//! previous completion, which is exactly what a synchronous caller does.
//!
//! Reads submitted through a queue occupy one of the device's
//! [`crate::DeviceConfig::channels`] read lanes, so their media time
//! overlaps up to the channel count while their fixed base latency
//! pipelines arbitrarily — throughput rises with queue depth until the
//! device's aggregate bandwidth saturates, the first-order behaviour of
//! real NVMe queues.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::clock::{Ns, SimClock};
use crate::device::SharedSsd;
use crate::types::LpnRange;
use crate::SsdError;

/// One host command submitted through an [`IoQueue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoCmd {
    /// Read a contiguous range of logical pages (one host command: base
    /// latency paid once, media bandwidth per mapped page).
    Read {
        /// Pages to read.
        range: LpnRange,
    },
    /// Write a contiguous range of logical pages sequentially.
    Write {
        /// Pages to write.
        range: LpnRange,
    },
}

impl IoCmd {
    /// Convenience: a single-page read.
    pub fn read_page(lpn: u64) -> Self {
        IoCmd::Read {
            range: LpnRange::new(lpn, lpn + 1),
        }
    }

    /// Convenience: a single-page write.
    pub fn write_page(lpn: u64) -> Self {
        IoCmd::Write {
            range: LpnRange::new(lpn, lpn + 1),
        }
    }
}

/// Raw completion times computed by the device for one command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoTimes {
    /// Host-visible completion (cache admission for cached writes, data
    /// transfer done for reads).
    pub done: Ns,
    /// Media durability point (equals `done` for reads).
    pub durable_at: Ns,
}

/// Handle to one in-flight (or completed-but-uncollected) command.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct IoToken(pub(crate) u64);

/// The completion record of one submitted command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoCompletion {
    /// The token returned by the submission.
    pub token: IoToken,
    /// The submitted command.
    pub cmd: IoCmd,
    /// Virtual time at which the host called `submit`.
    pub submitted_at: Ns,
    /// Virtual time at which the command actually entered the device
    /// (later than `submitted_at` when the queue was full).
    pub issued_at: Ns,
    /// Host-visible completion time.
    pub done: Ns,
    /// Media durability time (writes; equals `done` for reads).
    pub durable_at: Ns,
}

/// Aggregate submission-depth statistics a device accumulates across
/// every [`IoQueue`] attached to it — the per-shard "how deep did the
/// queue actually run" observability the harness reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoDepthStats {
    /// Commands submitted through queues.
    pub submitted: u64,
    /// Sum over submissions of the in-flight count at submission
    /// (including the submitted command); `depth_sum / submitted` is the
    /// mean in-flight depth.
    pub depth_sum: u64,
    /// Maximum in-flight count observed at any submission.
    pub max_in_flight: u64,
}

impl IoDepthStats {
    /// Mean in-flight depth over all queued submissions. Synchronous
    /// wrappers never submit through a queue, so a device driven only
    /// by them reports 0.0 (no queued traffic at all).
    pub fn mean_in_flight(&self) -> f64 {
        if self.submitted == 0 {
            0.0
        } else {
            self.depth_sum as f64 / self.submitted as f64
        }
    }

    /// Zeroes the counters.
    pub fn reset(&mut self) {
        *self = IoDepthStats::default();
    }
}

/// A shared, lockable queue handle (engines clone one queue between a
/// database object and its table readers/iterators).
pub type SharedIoQueue = Arc<parking_lot::Mutex<IoQueue>>;

/// A per-shard submission/completion queue over a shared device.
///
/// See the [module documentation](self) for semantics. Queues are cheap;
/// several queues may target the same device (they contend for the same
/// read lanes and media bandwidth, but each enforces its own depth).
#[derive(Debug)]
pub struct IoQueue {
    ssd: SharedSsd,
    clock: Arc<SimClock>,
    depth: usize,
    next_token: u64,
    /// Completion times of commands occupying submission slots (slots
    /// free as virtual time passes their completion).
    slots: Vec<Ns>,
    /// Completions not yet collected via `wait`/`poll`.
    pending: BTreeMap<u64, IoCompletion>,
}

impl IoQueue {
    /// A queue of `depth` outstanding commands over `ssd`.
    pub fn new(ssd: SharedSsd, depth: usize) -> Self {
        assert!(depth >= 1, "queue depth must be at least 1");
        let clock = Arc::clone(ssd.lock().clock());
        Self {
            ssd,
            clock,
            depth,
            next_token: 0,
            slots: Vec::with_capacity(depth),
            pending: BTreeMap::new(),
        }
    }

    /// Wraps the queue for shared access.
    pub fn into_shared(self) -> SharedIoQueue {
        Arc::new(parking_lot::Mutex::new(self))
    }

    /// Configured queue depth.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Commands currently in flight (submitted, not yet complete at the
    /// current virtual time).
    pub fn in_flight(&self) -> usize {
        let now = self.clock.now();
        self.slots.iter().filter(|&&d| d > now).count()
    }

    /// Completions collected by the device but not yet retrieved via
    /// [`IoQueue::wait`]/[`IoQueue::poll`].
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Submits a command; returns its token without advancing the clock.
    ///
    /// If the queue is at depth, the submission itself stalls (in
    /// virtual time) until the earliest outstanding completion frees a
    /// slot; the command's `issued_at` records that stall.
    pub fn submit(&mut self, cmd: IoCmd) -> Result<IoToken, SsdError> {
        let now = self.clock.now();
        self.slots.retain(|&done| done > now);
        // Plan the slot reclamation on a scratch copy: a rejected
        // command must leave the in-flight accounting untouched, or a
        // later valid submission would overlap commands the depth should
        // have serialized.
        let mut slots = self.slots.clone();
        let mut issue = now;
        while slots.len() >= self.depth {
            let (idx, &earliest) = slots
                .iter()
                .enumerate()
                .min_by_key(|(_, &done)| done)
                .expect("non-empty at depth");
            issue = issue.max(earliest);
            slots.swap_remove(idx);
        }
        let token = IoToken(self.next_token);
        self.next_token += 1;
        let times = {
            let mut dev = self.ssd.lock();
            let times = dev.execute_at(issue, cmd, true)?;
            dev.note_queue_submission(slots.len() as u64 + 1);
            times
        };
        slots.push(times.done);
        self.slots = slots;
        self.pending.insert(
            token.0,
            IoCompletion {
                token,
                cmd,
                submitted_at: now,
                issued_at: issue,
                done: times.done,
                durable_at: times.durable_at,
            },
        );
        Ok(token)
    }

    /// Submits a command and immediately detaches it: the command's
    /// device work is charged (and it occupies a submission slot until
    /// its completion time) but nothing will ever `wait` on it. This is
    /// the background-I/O shape: compaction input reads steal bandwidth
    /// and queue slots without blocking the simulated foreground.
    pub fn submit_detached(&mut self, cmd: IoCmd) -> Result<IoCompletion, SsdError> {
        let token = self.submit(cmd)?;
        Ok(self
            .pending
            .remove(&token.0)
            .expect("completion of the command just submitted"))
    }

    /// Blocks (advances the virtual clock) until `token`'s command
    /// completes, and returns its completion record.
    ///
    /// # Panics
    /// Panics if the token was never issued by this queue or was already
    /// collected — a programming error, like a double `io_uring` reap.
    pub fn wait(&mut self, token: IoToken) -> IoCompletion {
        let completion = self
            .pending
            .remove(&token.0)
            .expect("waiting on an unknown or already-collected IoToken");
        self.clock.advance_to(completion.done);
        completion
    }

    /// Collects one already-completed command (the earliest by
    /// completion time, then token order) without advancing the clock.
    pub fn poll(&mut self) -> Option<IoCompletion> {
        let now = self.clock.now();
        let key = self
            .pending
            .iter()
            .filter(|(_, c)| c.done <= now)
            .min_by_key(|(t, c)| (c.done, **t))
            .map(|(t, _)| *t)?;
        self.pending.remove(&key)
    }

    /// Advances the clock to the earliest outstanding completion and
    /// returns it (`None` if nothing is pending).
    pub fn wait_any(&mut self) -> Option<IoCompletion> {
        let key = self
            .pending
            .iter()
            .min_by_key(|(t, c)| (c.done, **t))
            .map(|(t, _)| *t)?;
        let completion = self.pending.remove(&key).expect("key just found");
        self.clock.advance_to(completion.done);
        Some(completion)
    }

    /// Drains every pending completion, advancing the clock to the
    /// latest one; returns them ordered by (completion time, token).
    pub fn wait_all(&mut self) -> Vec<IoCompletion> {
        let mut all: Vec<IoCompletion> = std::mem::take(&mut self.pending).into_values().collect();
        all.sort_by_key(|c| (c.done, c.token));
        if let Some(last) = all.last() {
            self.clock.advance_to(last.done);
        }
        all
    }

    /// Drops a pending completion without waiting on it (the command's
    /// device work stays charged). Returns the record, if it was still
    /// pending.
    pub fn forget(&mut self, token: IoToken) -> Option<IoCompletion> {
        self.pending.remove(&token.0)
    }

    /// Commands still occupying submission slots at the current virtual
    /// time — **including detached ones** that no `wait` will ever
    /// collect. This is the count [`IoQueue::quiesce`] drains to zero.
    pub fn outstanding(&self) -> usize {
        self.in_flight()
    }

    /// Advances the virtual clock past the completion of **every**
    /// outstanding command — detached submissions included — and
    /// returns the new time. Pending completion records stay
    /// collectable via [`IoQueue::poll`]/[`IoQueue::wait`].
    ///
    /// [`IoQueue::wait_all`] only drains completions somebody will
    /// collect; detached background commands (compaction input reads)
    /// keep occupying slots until virtual time passes their completion.
    /// A caller that ends a run must quiesce first, or the run it
    /// reports as finished under-counts simulated work still in its
    /// queue.
    pub fn quiesce(&mut self) -> Ns {
        let latest = self
            .slots
            .iter()
            .copied()
            .chain(self.pending.values().map(|c| c.done))
            .max();
        if let Some(done) = latest {
            self.clock.advance_to(done);
        }
        self.clock.now()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DeviceConfig, DeviceProfile, MB};
    use crate::device::Ssd;

    fn shared(bytes: u64) -> SharedSsd {
        Ssd::new(DeviceConfig::from_profile(DeviceProfile::ssd1(), bytes)).into_shared()
    }

    fn read_lat(dev: &SharedSsd) -> (Ns, Ns) {
        let d = dev.lock();
        let lat = d.config().latency;
        (lat.read_base_latency_ns, lat.read_occupancy_ns)
    }

    #[test]
    fn depth_one_submission_waits_for_the_previous_completion() {
        let dev = shared(16 * MB);
        // Map two pages first so reads do media work.
        {
            let mut d = dev.lock();
            d.write_page(0).expect("write");
            d.write_page(1).expect("write");
        }
        let mut q = IoQueue::new(Arc::clone(&dev), 1);
        let (base, occ) = read_lat(&dev);
        let t0 = q.submit(IoCmd::read_page(0)).expect("submit");
        let t1 = q.submit(IoCmd::read_page(1)).expect("submit");
        let c0 = q.wait(t0);
        let c1 = q.wait(t1);
        assert_eq!(c0.done, c0.issued_at + occ + base);
        assert_eq!(c1.issued_at, c0.done, "QD=1 serializes submissions");
        assert_eq!(c1.done, c0.done + occ + base);
    }

    #[test]
    fn deeper_queues_pipeline_the_base_latency() {
        let dev = shared(16 * MB);
        {
            let mut d = dev.lock();
            for lpn in 0..8 {
                d.write_page(lpn).expect("write");
            }
        }
        let (base, occ) = read_lat(&dev);
        let clock = Arc::clone(dev.lock().clock());
        let start = clock.now();
        let mut q = IoQueue::new(Arc::clone(&dev), 8);
        let tokens: Vec<IoToken> = (0..8)
            .map(|lpn| q.submit(IoCmd::read_page(lpn)).expect("submit"))
            .collect();
        assert_eq!(q.in_flight(), 8);
        let completions: Vec<IoCompletion> = tokens.into_iter().map(|t| q.wait(t)).collect();
        let last = completions.last().expect("eight completions").done;
        // One channel: media time serializes, the base latency overlaps.
        assert_eq!(last - start, base + 8 * occ);
        let serial = 8 * (base + occ);
        assert!(
            last - start < serial / 4,
            "QD=8 must beat serial reads: {} vs {}",
            last - start,
            serial
        );
    }

    #[test]
    fn channels_overlap_media_occupancy() {
        let mut cfg = DeviceConfig::from_profile(DeviceProfile::ssd1(), 16 * MB);
        cfg.channels = 4;
        let dev = Ssd::new(cfg).into_shared();
        {
            let mut d = dev.lock();
            for lpn in 0..4 {
                d.write_page(lpn).expect("write");
            }
        }
        let (base, occ) = read_lat(&dev);
        let start = dev.lock().clock().now();
        let mut q = IoQueue::new(Arc::clone(&dev), 4);
        for lpn in 0..4 {
            q.submit(IoCmd::read_page(lpn)).expect("submit");
        }
        let all = q.wait_all();
        assert_eq!(all.len(), 4);
        // Four lanes: all four reads overlap completely.
        assert_eq!(all.last().expect("last").done - start, base + occ);
    }

    #[test]
    fn poll_collects_only_completed_commands() {
        let dev = shared(16 * MB);
        dev.lock().write_page(0).expect("write");
        let mut q = IoQueue::new(Arc::clone(&dev), 4);
        let t = q.submit(IoCmd::read_page(0)).expect("submit");
        assert!(q.poll().is_none(), "nothing completed yet");
        let done = q.pending.get(&t.0).expect("pending").done;
        dev.lock().clock().advance_to(done);
        let c = q.poll().expect("completed after the clock passed `done`");
        assert_eq!(c.token, t);
        assert_eq!(q.pending(), 0);
    }

    #[test]
    fn writes_report_host_and_durable_times() {
        let dev = shared(16 * MB);
        let mut q = IoQueue::new(Arc::clone(&dev), 2);
        let t = q
            .submit(IoCmd::Write {
                range: LpnRange::new(0, 4),
            })
            .expect("submit");
        let c = q.wait(t);
        assert!(c.durable_at >= c.done - 1, "durability never precedes ack");
        let sync = dev.lock().write_page(4).expect("write");
        assert!(sync.host_done >= c.done, "clock advanced to completion");
    }

    #[test]
    fn wait_all_orders_by_completion_then_token() {
        let dev = shared(16 * MB);
        {
            let mut d = dev.lock();
            for lpn in 0..4 {
                d.write_page(lpn).expect("write");
            }
        }
        let mut q = IoQueue::new(Arc::clone(&dev), 4);
        for lpn in 0..4 {
            q.submit(IoCmd::read_page(lpn)).expect("submit");
        }
        let all = q.wait_all();
        assert_eq!(all.len(), 4);
        for pair in all.windows(2) {
            assert!((pair[0].done, pair[0].token) < (pair[1].done, pair[1].token));
        }
        assert_eq!(q.pending(), 0);
    }

    #[test]
    fn device_accumulates_depth_stats() {
        let dev = shared(16 * MB);
        {
            let mut d = dev.lock();
            for lpn in 0..4 {
                d.write_page(lpn).expect("write");
            }
        }
        let mut q = IoQueue::new(Arc::clone(&dev), 4);
        for lpn in 0..4 {
            q.submit(IoCmd::read_page(lpn)).expect("submit");
        }
        q.wait_all();
        let stats = dev.lock().io_depth_stats();
        assert_eq!(stats.submitted, 4);
        assert_eq!(stats.max_in_flight, 4);
        assert!(stats.mean_in_flight() > 2.0);
        dev.lock().reset_observability();
        assert_eq!(dev.lock().io_depth_stats(), IoDepthStats::default());
    }

    #[test]
    fn quiesce_drains_detached_commands_too() {
        let dev = shared(16 * MB);
        {
            let mut d = dev.lock();
            for lpn in 0..4 {
                d.write_page(lpn).expect("write");
            }
        }
        let mut q = IoQueue::new(Arc::clone(&dev), 4);
        // One collectable command and one detached background command.
        let token = q.submit(IoCmd::read_page(0)).expect("submit");
        let detached = q.submit_detached(IoCmd::read_page(1)).expect("detached");
        assert_eq!(q.outstanding(), 2);

        // wait() collects the pending command but the detached one may
        // still be in flight; quiesce() pushes time past it as well.
        let c = q.wait(token);
        let done = q.quiesce();
        assert!(done >= c.done);
        assert!(done >= detached.done, "quiesce covers detached commands");
        assert_eq!(q.outstanding(), 0, "nothing in flight after quiesce");
        assert_eq!(dev.lock().clock().now(), done);

        // Idempotent: a second quiesce does not move time.
        assert_eq!(q.quiesce(), done);
    }

    #[test]
    fn quiesce_keeps_pending_completions_collectable() {
        let dev = shared(16 * MB);
        dev.lock().write_page(0).expect("write");
        let mut q = IoQueue::new(Arc::clone(&dev), 2);
        let t = q.submit(IoCmd::read_page(0)).expect("submit");
        q.quiesce();
        let c = q.poll().expect("completed after quiesce");
        assert_eq!(c.token, t);
    }

    #[test]
    fn out_of_range_submission_errors_instead_of_panicking() {
        let dev = shared(16 * MB);
        let pages = dev.lock().logical_pages();
        let mut q = IoQueue::new(Arc::clone(&dev), 1);
        let err = q.submit(IoCmd::read_page(pages)).expect_err("out of range");
        assert!(matches!(err, SsdError::LpnOutOfRange { .. }));
        let err = q
            .submit(IoCmd::write_page(pages))
            .expect_err("out of range");
        assert!(matches!(err, SsdError::LpnOutOfRange { .. }));
    }

    #[test]
    fn rejected_submission_keeps_depth_accounting() {
        // A failed submit into a full queue must not free the slot of
        // the in-flight command: the next valid submission still
        // serializes behind it (the QD=1-equals-sync invariant).
        let dev = shared(16 * MB);
        let pages = dev.lock().logical_pages();
        dev.lock().write_page(0).expect("write");
        dev.lock().write_page(1).expect("write");
        let mut q = IoQueue::new(Arc::clone(&dev), 1);
        let a = q.submit(IoCmd::read_page(0)).expect("submit a");
        let a_done = q.pending.get(&a.0).expect("pending").done;
        q.submit(IoCmd::read_page(pages)).expect_err("out of range");
        assert_eq!(q.in_flight(), 1, "rejected command must not free a's slot");
        let b = q.submit(IoCmd::read_page(1)).expect("submit b");
        let b_issue = q.pending.get(&b.0).expect("pending").issued_at;
        assert_eq!(
            b_issue, a_done,
            "b must still serialize behind a on a depth-1 queue"
        );
    }
}
