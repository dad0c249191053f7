//! Virtual-time background maintenance: scheduler, rate budget, stats.
//!
//! Tree structures on flash pay for their writes twice — once at the
//! foreground op, and again when flush/compaction/GC rewrites the data.
//! Drained inside the op that triggers it (the seed behavior,
//! [`Drive::Inline`]), a single compaction can cost seconds of virtual
//! time charged to one unlucky put. This crate models the production
//! alternative ([`Drive::Paced`]): the same job as a *background tenant*
//! that runs in bounded slices interleaved with foreground ops, paced by
//! a bytes-per-virtual-second token bucket, so the foreground tail under
//! sustained writes becomes a measurable quantity instead of a
//! pathology.
//!
//! The scheduling rules follow Marble's background compactor:
//! `merge_window` (how many runs may accumulate before merging), a
//! level-size hysteresis before a merge is scheduled (the LSM's
//! `MERGE_RATIO`), and [`MAX_SPACE_AMP`] (the space-amplification
//! ceiling past which pacing yields to urgency). Engines own a
//! [`MaintScheduler`] per shard; the harness pumps
//! [`slices`](MaintScheduler) between foreground ops on the shard's
//! private clock.

#![forbid(unsafe_code)]

use std::collections::VecDeque;

mod rate;

pub use rate::RateBudget;

/// Virtual nanoseconds (mirrors `ptsbench_ssd::Ns`; redeclared so this
/// crate stays dependency-free and usable from every layer).
pub type Ns = u64;

/// Marble `max_space_amp`: once an engine's measured space
/// amplification exceeds this factor, pacing is bypassed and
/// maintenance runs at urgency (the bucket may overdraw freely).
pub const MAX_SPACE_AMP: u64 = 2;

/// Device-backlog gate: when outstanding background traffic already
/// queues more than this many virtual nanoseconds of device time, slices
/// wait rather than pile on (keeps foreground reads from queueing behind
/// a compaction burst).
const MAX_BACKLOG_NS: Ns = 2_000_000;

/// Pacing and scheduling knobs for background maintenance.
///
/// Every engine has one resumable job per kind of maintenance;
/// `enabled` only chooses who drives it ([`Drive`]). Off (the default)
/// must leave every engine's behavior — and every report byte —
/// identical to the inline-maintenance seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MaintConfig {
    /// Master switch. Off = the same jobs, drained in place by the op
    /// that triggers them, under foreground I/O rules.
    pub enabled: bool,
    /// Token-bucket refill rate for background device traffic, in bytes
    /// per virtual second.
    pub rate_bytes_per_sec: u64,
    /// Token-bucket capacity: how large a burst may run ahead of the
    /// refill rate.
    pub burst_bytes: u64,
    /// Upper bound on bytes processed per maintenance slice. Slices are
    /// the interleaving quantum: smaller slices bound foreground stalls
    /// tighter at the cost of more scheduling overhead.
    pub slice_bytes: u64,
    /// Marble `merge_window`: how many L0 runs may accumulate before a
    /// background merge is scheduled.
    pub merge_window: usize,
}

impl Default for MaintConfig {
    fn default() -> Self {
        Self {
            enabled: false,
            rate_bytes_per_sec: 64 << 20,
            burst_bytes: 1 << 20,
            slice_bytes: 128 << 10,
            merge_window: 10,
        }
    }
}

impl MaintConfig {
    /// An enabled config with the default pacing knobs: jobs run in
    /// bounded slices pumped between foreground ops ([`Drive::Paced`])
    /// instead of being drained inside the triggering op.
    pub fn enabled() -> Self {
        Self {
            enabled: true,
            ..Self::default()
        }
    }
}

/// The kinds of background job the scheduler orders.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// LSM memtable flush (frozen immutable memtable → L0 table).
    Flush,
    /// LSM level compaction (merge source level into target).
    Compaction,
    /// Hashlog segment garbage collection (victim rewrite).
    SegmentGc,
    /// B+Tree dirty-page checkpoint.
    Checkpoint,
}

impl JobKind {
    /// Span label for the `maint.*` trace root of this job.
    pub fn span_label(self) -> &'static str {
        match self {
            JobKind::Flush => "maint.flush",
            JobKind::Compaction => "maint.compaction",
            JobKind::SegmentGc => "maint.gc",
            JobKind::Checkpoint => "maint.checkpoint",
        }
    }
}

/// Who drives a maintenance job, and under which I/O rules. The job —
/// its phases, its bytes, its install — is the same either way; the
/// drive is the short list of places the two genuinely differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Drive {
    /// The op that triggers the job drains it in place: unbounded
    /// slices, foreground I/O rules, immediate install, nothing charged
    /// to a scheduler.
    Inline,
    /// The harness pumps bounded slices between foreground ops:
    /// detached I/O, durability-gated install, every byte charged to
    /// the scheduler's budget.
    Paced,
}

impl Drive {
    /// The pacing source under this drive: the engine's scheduler when
    /// paced, none when inline.
    pub fn pacing(self, sched: &mut Option<MaintScheduler>) -> Option<&mut MaintScheduler> {
        match self {
            Drive::Paced => sched.as_mut(),
            Drive::Inline => None,
        }
    }

    /// The byte bound of one slice (unbounded when inline).
    pub fn slice_bytes(self, sched: &Option<MaintScheduler>) -> u64 {
        match (self, sched) {
            (Drive::Paced, Some(s)) => s.cfg.slice_bytes.max(1),
            _ => u64::MAX,
        }
    }

    /// Charges job traffic against the budget (a no-op when inline).
    pub fn charge(self, sched: &mut Option<MaintScheduler>, now: Ns, bytes: u64, read: bool) {
        if let Some(s) = self.pacing(sched) {
            s.charge(now, bytes, read);
        }
    }

    /// Counts a job that ran to completion and installed its edit.
    pub fn installed(self, sched: &mut Option<MaintScheduler>) {
        if let Some(s) = self.pacing(sched) {
            s.stats.jobs += 1;
            s.stats.installs += 1;
        }
    }
}

/// What [`MaintScheduler::admit`] allows at this instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Nothing may run: the device backlog is too deep, the budget is in
    /// debt, or no ticket is pending.
    Gated,
    /// The job already in flight may run its next slice.
    Continue,
    /// A ticket was consumed: run a slice of this kind of job.
    Start(JobKind),
}

/// The forced-drain loop behind every `drain_maintenance` and
/// backpressure stall: runs `slice` on `target` while `pending` holds. A
/// slice that reports no progress consumed only a stale ticket; three
/// such rounds in a row end the drain instead of spinning.
pub fn drain_forced<T, E>(
    target: &mut T,
    pending: impl Fn(&T) -> bool,
    mut slice: impl FnMut(&mut T) -> Result<bool, E>,
) -> Result<(), E> {
    let mut spins = 0u32;
    while pending(target) && spins <= 2 {
        spins = if slice(target)? { 0 } else { spins + 1 };
    }
    Ok(())
}

/// Counters for background maintenance, surfaced as first-class run
/// stats. `app_bytes`/`host_bytes` and `live_bytes`/`used_bytes` feed
/// the paper's write-amplification and space-amplification figures.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MaintStats {
    /// Jobs run to completion.
    pub jobs: u64,
    /// Bounded slices executed (including forced backpressure slices).
    pub slices: u64,
    /// Version/install edits applied (each exactly once per job).
    pub installs: u64,
    /// Bytes read by background jobs.
    pub bytes_read: u64,
    /// Bytes written by background jobs.
    pub bytes_written: u64,
    /// Virtual time foreground ops spent stalled on backpressure
    /// (memtable frozen and flush behind budget, or L0 overful).
    pub stall_ns: Ns,
    /// Application bytes written (foreground payload).
    pub app_bytes: u64,
    /// Host bytes written to the device (app + maintenance rewrites).
    pub host_bytes: u64,
    /// Live (logical) data bytes.
    pub live_bytes: u64,
    /// Occupied capacity (peak used bytes on the partition).
    pub used_bytes: u64,
}

impl MaintStats {
    /// Application-level write amplification: host bytes per app byte.
    pub fn write_amp(&self) -> f64 {
        if self.app_bytes == 0 {
            return 0.0;
        }
        self.host_bytes as f64 / self.app_bytes as f64
    }

    /// Space amplification: occupied capacity per live byte.
    pub fn space_amp(&self) -> f64 {
        if self.live_bytes == 0 {
            return 0.0;
        }
        self.used_bytes as f64 / self.live_bytes as f64
    }

    /// Fleet-footer rendering: one line, fixed precision, so identical
    /// inputs render byte-identically (the report determinism
    /// contract).
    pub fn render(&self) -> String {
        format!(
            "maint: jobs={} installs={} slices={} bg_write={} bg_read={} stall_ns={} \
             write_amp={:.4} space_amp={:.4}",
            self.jobs,
            self.installs,
            self.slices,
            self.bytes_written,
            self.bytes_read,
            self.stall_ns,
            self.write_amp(),
            self.space_amp()
        )
    }

    /// Compact rendering for per-shard report lines.
    pub fn render_compact(&self) -> String {
        format!(
            "maint[jobs={} slices={} stall={} wa={:.4} sa={:.4}]",
            self.jobs,
            self.slices,
            self.stall_ns,
            self.write_amp(),
            self.space_amp()
        )
    }

    /// Folds another shard's stats into this one (fleet totals).
    pub fn merge(&mut self, other: &MaintStats) {
        self.jobs += other.jobs;
        self.slices += other.slices;
        self.installs += other.installs;
        self.bytes_read += other.bytes_read;
        self.bytes_written += other.bytes_written;
        self.stall_ns += other.stall_ns;
        self.app_bytes += other.app_bytes;
        self.host_bytes += other.host_bytes;
        self.live_bytes += other.live_bytes;
        self.used_bytes += other.used_bytes;
    }
}

/// Per-shard background-job scheduler: a FIFO of job tickets paced by a
/// [`RateBudget`]. Engines enqueue tickets when maintenance becomes due
/// (memtable full, GC threshold, checkpoint interval) and pop them from
/// `run_maintenance_slice`, executing one bounded slice per pop.
#[derive(Debug)]
pub struct MaintScheduler {
    cfg: MaintConfig,
    budget: RateBudget,
    queue: VecDeque<JobKind>,
    /// Running counters, drained into run results at finish.
    pub stats: MaintStats,
}

impl MaintScheduler {
    /// A scheduler with a full budget as of virtual time `now`.
    pub fn new(cfg: MaintConfig, now: Ns) -> Self {
        Self {
            cfg,
            budget: RateBudget::new(cfg.rate_bytes_per_sec, cfg.burst_bytes, now),
            queue: VecDeque::new(),
            stats: MaintStats::default(),
        }
    }

    /// The pacing source an engine opened at `now` runs under `cfg`: a
    /// scheduler when maintenance is enabled, none (jobs drain in place)
    /// when it is off.
    pub fn for_config(cfg: MaintConfig, now: Ns) -> Option<Self> {
        cfg.enabled.then(|| Self::new(cfg, now))
    }

    /// The pacing knobs this scheduler runs under.
    pub fn cfg(&self) -> &MaintConfig {
        &self.cfg
    }

    /// Queues a job ticket unless one of the same kind is already
    /// pending (jobs are idempotent units of "catch up on X").
    pub fn enqueue(&mut self, kind: JobKind) {
        if !self.queue.contains(&kind) {
            self.queue.push_back(kind);
        }
    }

    /// Whether a ticket of `kind` is pending.
    pub fn has(&self, kind: JobKind) -> bool {
        self.queue.contains(&kind)
    }

    /// Number of pending tickets.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Whether the budget permits a slice at `now`. `forced` bypasses
    /// pacing (backpressure or space-amp urgency).
    pub(crate) fn budget_ready(&mut self, now: Ns, forced: bool) -> bool {
        forced || self.budget.ready(now)
    }

    /// Pops the next ticket if one is pending and the budget allows
    /// (or `forced`). The ticket is *consumed*; engines re-enqueue if
    /// the job still has slices left after this one.
    pub fn pop_ready(&mut self, now: Ns, forced: bool) -> Option<JobKind> {
        if self.queue.is_empty() || !self.budget_ready(now, forced) {
            return None;
        }
        self.queue.pop_front()
    }

    /// The admission check every slice starts with: the device-backlog
    /// gate, then the budget. A job `in_flight` continues without a
    /// ticket; otherwise the next ticket is consumed. `forced` bypasses
    /// both gates.
    pub fn admit(&mut self, now: Ns, backlog: Ns, forced: bool, in_flight: bool) -> Admission {
        if !forced && backlog > MAX_BACKLOG_NS {
            return Admission::Gated;
        }
        if !in_flight {
            return self
                .pop_ready(now, forced)
                .map_or(Admission::Gated, Admission::Start);
        }
        if self.budget_ready(now, forced) {
            Admission::Continue
        } else {
            Admission::Gated
        }
    }

    /// Re-queues a ticket at the front (job not yet finished).
    pub fn requeue_front(&mut self, kind: JobKind) {
        if !self.queue.contains(&kind) {
            self.queue.push_front(kind);
        }
    }

    /// Charges `bytes` of background device traffic against the budget
    /// and the slice counters. `read` selects which byte counter.
    pub fn charge(&mut self, now: Ns, bytes: u64, read: bool) {
        self.budget.charge(now, bytes);
        if read {
            self.stats.bytes_read += bytes;
        } else {
            self.stats.bytes_written += bytes;
        }
    }

    /// Earliest virtual time the budget clears its debt.
    pub fn ready_at(&mut self, now: Ns) -> Ns {
        self.budget.ready_at(now)
    }

    /// Current budget balance (diagnostics and tests).
    pub fn balance(&self) -> i64 {
        self.budget.balance()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_off() {
        let cfg = MaintConfig::default();
        assert!(!cfg.enabled);
        assert!(MaintConfig::enabled().enabled);
    }

    #[test]
    fn scheduler_dedupes_and_orders_tickets() {
        let mut s = MaintScheduler::new(MaintConfig::enabled(), 0);
        s.enqueue(JobKind::Flush);
        s.enqueue(JobKind::Compaction);
        s.enqueue(JobKind::Flush); // duplicate ignored
        assert_eq!(s.pending(), 2);
        assert!(s.has(JobKind::Flush));
        assert_eq!(s.pop_ready(0, false), Some(JobKind::Flush));
        s.requeue_front(JobKind::Flush);
        assert_eq!(s.pop_ready(0, false), Some(JobKind::Flush));
        assert_eq!(s.pop_ready(0, false), Some(JobKind::Compaction));
        assert_eq!(s.pop_ready(0, false), None);
    }

    #[test]
    fn scheduler_gates_on_budget_unless_forced() {
        let cfg = MaintConfig {
            rate_bytes_per_sec: 1 << 20,
            burst_bytes: 4096,
            ..MaintConfig::enabled()
        };
        let mut s = MaintScheduler::new(cfg, 0);
        s.enqueue(JobKind::Compaction);
        s.charge(0, 1 << 20, false); // deep debt
        assert_eq!(s.pop_ready(0, false), None, "budget-gated");
        assert_eq!(
            s.pop_ready(0, true),
            Some(JobKind::Compaction),
            "forced slices bypass pacing"
        );
        assert_eq!(s.stats.bytes_written, 1 << 20);
        let at = s.ready_at(0);
        assert!(at > 0);
    }

    #[test]
    fn admission_gates_on_backlog_then_budget_then_tickets() {
        let cfg = MaintConfig {
            rate_bytes_per_sec: 1 << 20,
            burst_bytes: 4096,
            ..MaintConfig::enabled()
        };
        let mut s = MaintScheduler::new(cfg, 0);
        assert_eq!(s.admit(0, 0, false, false), Admission::Gated, "no ticket");
        s.enqueue(JobKind::SegmentGc);
        let deep = MAX_BACKLOG_NS + 1;
        assert_eq!(s.admit(0, deep, false, false), Admission::Gated);
        assert_eq!(s.pending(), 1, "a gated slice keeps its ticket");
        assert_eq!(
            s.admit(0, deep, true, false),
            Admission::Start(JobKind::SegmentGc),
            "forced slices bypass the backlog gate"
        );
        // A job in flight continues without a ticket, on the budget alone.
        assert_eq!(s.admit(0, 0, false, true), Admission::Continue);
        s.charge(0, 1 << 20, false);
        assert_eq!(s.admit(0, 0, false, true), Admission::Gated, "in debt");
        assert_eq!(s.admit(0, 0, true, true), Admission::Continue);
    }

    #[test]
    fn inline_drive_has_no_pacing_source() {
        let mut sched = Some(MaintScheduler::new(MaintConfig::enabled(), 0));
        assert_eq!(Drive::Inline.slice_bytes(&sched), u64::MAX);
        Drive::Inline.charge(&mut sched, 0, 4096, false);
        Drive::Inline.installed(&mut sched);
        assert_eq!(sched.as_ref().map(|s| s.stats), Some(MaintStats::default()));
        assert_eq!(Drive::Paced.slice_bytes(&sched), 128 << 10);
        Drive::Paced.charge(&mut sched, 0, 4096, true);
        Drive::Paced.installed(&mut sched);
        let stats = sched.as_ref().map(|s| s.stats).unwrap_or_default();
        assert_eq!((stats.bytes_read, stats.jobs, stats.installs), (4096, 1, 1));
        // Paced without a scheduler degrades to unbounded and uncharged.
        assert_eq!(Drive::Paced.slice_bytes(&None), u64::MAX);
        Drive::Paced.installed(&mut None);
    }

    #[test]
    fn forced_drain_stops_after_three_rounds_without_progress() {
        // Two units of work, then stale tickets for ever.
        let mut state = (2u32, 0u32); // (work left, slices run)
        let slice = |s: &mut (u32, u32)| -> Result<bool, ()> {
            s.1 += 1;
            let progressed = s.0 > 0;
            s.0 = s.0.saturating_sub(1);
            Ok(progressed)
        };
        drain_forced(&mut state, |_| true, slice).expect("drain");
        assert_eq!(state, (0, 5), "two useful slices, then three empty rounds");
        // Nothing pending: not a single slice runs.
        drain_forced(&mut state, |_| false, slice).expect("drain");
        assert_eq!(state.1, 5);
        // Errors surface at once.
        let failed = drain_forced(&mut state, |_| true, |_| Err::<bool, u8>(7));
        assert_eq!(failed, Err(7));
    }

    #[test]
    fn stats_merge_and_amplification() {
        let mut a = MaintStats {
            jobs: 1,
            slices: 2,
            installs: 1,
            bytes_read: 10,
            bytes_written: 20,
            stall_ns: 5,
            app_bytes: 100,
            host_bytes: 250,
            live_bytes: 100,
            used_bytes: 180,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.jobs, 2);
        assert_eq!(a.host_bytes, 500);
        assert!((b.write_amp() - 2.5).abs() < 1e-9);
        assert!((b.space_amp() - 1.8).abs() < 1e-9);
        assert_eq!(MaintStats::default().write_amp(), 0.0);
        assert_eq!(MaintStats::default().space_amp(), 0.0);
    }

    #[test]
    fn span_labels_are_maint_rooted() {
        for k in [
            JobKind::Flush,
            JobKind::Compaction,
            JobKind::SegmentGc,
            JobKind::Checkpoint,
        ] {
            assert!(k.span_label().starts_with("maint."));
        }
    }
}
