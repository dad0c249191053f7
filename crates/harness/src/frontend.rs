//! The virtual-time serving front-end: clients → dispatcher → shard
//! queues → engines.
//!
//! This is the [`IoQueue`](ptsbench_ssd::IoQueue) submission/completion
//! pattern lifted one level up the stack. A [`Frontend`] owns a fleet
//! of shard experiments (the same per-shard simulations the sharded
//! harness drives); [`Frontend::submit`] hands it a [`Request`]
//! **without advancing the front-end clock** and returns a
//! [`ReqToken`]; completions are collected with [`Frontend::poll`] /
//! [`Frontend::wait`] / [`Frontend::wait_all`] and carry three
//! timestamps —
//!
//! * `submitted_at` — when the client submitted,
//! * `issued_at` — when the dispatcher admitted the request into its
//!   shard's bounded queue (later than `submitted_at` when the queue
//!   was full, exactly like a stalled submission into a full
//!   `IoQueue`),
//! * `done_at` — when the shard's engine completed it,
//!
//! — so queueing delay (`done_at - submitted_at - service_ns`) is
//! separable from device/engine latency (`service_ns`). Each shard is a
//! single server: under the default FIFO [`DispatchDiscipline`]
//! admitted requests are serviced in admission order on the shard's
//! private simulated stack, and at most `FrontendRun::queue_depth`
//! requests may be admitted-but-incomplete at once (property-tested in
//! `tests/proptest_frontend.rs`). A reordering discipline (strict
//! priority with age promotion, weighted-fair queueing) instead admits
//! into a waiting room and decides service order lazily, by
//! [`ReqClass`], as virtual time reaches each dispatch instant;
//! per-tenant token buckets throttle over-quota submissions before any
//! of that (property-tested in `tests/proptest_tenant.rs`).
//!
//! The waiting room is one FIFO lane per class, and a dispatch decision
//! looks at the lane heads only — its cost does not depend on the
//! backlog. Three things make a head stand for its whole lane: within a
//! class, requests enter with nondecreasing arrival times (the
//! front-end clock never moves backwards), with rising tokens, and —
//! under WFQ — with nondecreasing finish tags (a class's next tag
//! starts no earlier than its last). So the head is its class's oldest,
//! first-submitted and lowest-tagged request at once, the requests
//! present at a decision instant are a prefix of each lane, and every
//! rule a discipline applies (`min (finish tag, token)`; "the oldest
//! request once it has aged past the promotion bound, else
//! `min (priority, arrival, token)`") picks among at most three
//! candidates what a scan over every waiting request would pick. The
//! scan survives in this file's tests, as the oracle.
//!
//! A request whose completion nobody will collect — every request of
//! an open-loop client — goes in through [`Frontend::submit_detached`]:
//! served and accounted like any other, never parked.
//!
//! Because service times are computed at submission from deterministic
//! per-shard state, a fixed request stream produces byte-identical
//! completions run-to-run; [`run_frontend`] drives seeded arrival
//! processes on top, so whole serving experiments — including the
//! `fig_tail` fan-in sweep — inherit the repo's run-twice-diff CI
//! pattern unchanged.

use ptsbench_core::engine::PtsError;
use ptsbench_core::frontend::{ClientBinding, DispatchDiscipline, FrontendRun, SloPolicy};
use ptsbench_core::measure::{idle_cpus, Experiment, Served};
use ptsbench_core::runner::RunResult;
use ptsbench_core::sharded::Sharding;
use ptsbench_metrics::histogram::LatencyHistogram;
use ptsbench_metrics::load::ShardLoad;
use ptsbench_metrics::mt::{MtStats, ReqClass, TenantId};
use ptsbench_metrics::runreport::RunReport;
use ptsbench_metrics::slo::SloStats;
use ptsbench_metrics::RateBudget;
use ptsbench_ssd::{Cause, Ns};
use ptsbench_workload::{encode_key, route_hash, ArrivalClock, OpGenerator, OpKind};

use crate::driver::{base_shard_report, HarnessOutcome};

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};

/// Rejection turnaround of a request dropped by an out-of-space shard,
/// in virtual nanoseconds: the error response still takes a round
/// trip. Charging it also guarantees a zero-think closed-loop client
/// retrying a dead shard advances virtual time instead of livelocking
/// at one instant.
pub const DROP_LATENCY: ptsbench_ssd::Ns = ptsbench_ssd::MILLISECOND;

/// Rejection turnaround of a request turned away by an admission
/// policy, in virtual nanoseconds: the dispatcher answers immediately
/// but the response still takes a round trip, and — exactly like
/// [`DROP_LATENCY`] — a nonzero turnaround keeps a zero-think
/// closed-loop client that retries a rejecting shard advancing virtual
/// time instead of livelocking at one instant.
pub const REJECT_LATENCY: ptsbench_ssd::Ns = ptsbench_ssd::MILLISECOND;

/// One client request entering the front-end.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Read or update.
    pub kind: OpKind,
    /// Global key index (encoded to the workload's fixed-width key on
    /// dispatch).
    pub key_index: u64,
    /// Value payload for updates (ignored for reads).
    pub value: Vec<u8>,
    /// The request's scheduling class
    /// ([`ReqClass::Interactive`] by default — class-less callers get
    /// the pre-multi-tenant behavior unchanged).
    pub class: ReqClass,
    /// The submitting tenant (tenant 0 — the implicit single tenant —
    /// by default; quotas apply only to tenants the run declared).
    pub tenant: TenantId,
}

impl Default for Request {
    /// An interactive tenant-0 read of key 0 — the neutral template
    /// struct-update syntax fills class-less requests from.
    fn default() -> Self {
        Self {
            kind: OpKind::Read,
            key_index: 0,
            value: Vec::new(),
            class: ReqClass::Interactive,
            tenant: 0,
        }
    }
}

/// Handle to one submitted (not yet collected) request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ReqToken(u64);

/// How a request left the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReqOutcome {
    /// Executed by its shard's engine.
    Served,
    /// Dropped: the owning shard had run (or ran) out of space.
    ShardOutOfSpace,
    /// Turned away at submission by the admission policy
    /// ([`SloPolicy::QueueBound`] / [`SloPolicy::PredictedSojourn`]):
    /// never queued, never touched the device. Completes after a fixed
    /// [`REJECT_LATENCY`] turnaround.
    Rejected,
    /// Admitted, but dropped at dispatch time because it was already
    /// past its [`SloPolicy::Deadline`] budget when the engine would
    /// have started it: queued, but never touched the device. Completes
    /// at the instant it was shed.
    Shed,
    /// Turned away by the submitting tenant's token-bucket quota before
    /// admission control even saw it: never queued, never touched the
    /// device. Completes after a fixed [`REJECT_LATENCY`] turnaround,
    /// exactly like a policy rejection.
    Throttled,
}

/// The completion record of one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReqCompletion {
    /// The token returned by the submission.
    pub token: ReqToken,
    /// The shard the dispatcher routed the request to.
    pub shard: usize,
    /// The request's operation kind.
    pub kind: OpKind,
    /// The request's global key index.
    pub key_index: u64,
    /// Front-end virtual time at submission.
    pub submitted_at: Ns,
    /// When the dispatcher admitted the request into the shard queue
    /// (`> submitted_at` when the bounded queue was full).
    pub issued_at: Ns,
    /// When the shard's engine completed the request.
    pub done_at: Ns,
    /// Engine service time (device I/O + CPU charge); 0 for dropped,
    /// rejected, shed and throttled requests, which never reach the
    /// device.
    pub service_ns: Ns,
    /// Served, dropped, rejected, shed or throttled.
    pub outcome: ReqOutcome,
    /// The request's scheduling class (copied from the submission).
    pub class: ReqClass,
    /// The submitting tenant (copied from the submission).
    pub tenant: TenantId,
    /// Resolution sequence number: the order the front-end *decided*
    /// this completion in, assigned when the outcome became known. The
    /// collector tiebreak ([`Frontend::poll`] / [`Frontend::wait_any`] /
    /// [`Frontend::wait_all`] order by `(done_at, seq)`) — NOT the
    /// token: under a reordering [`DispatchDiscipline`] a later-submitted
    /// interactive request is legitimately decided (and completed)
    /// before an earlier batch one, so token order would silently
    /// re-impose FIFO exactly where the discipline broke it. Under FIFO
    /// dispatch outcomes are decided in submission order, so `seq` order
    /// and token order coincide and pre-multi-tenant collection order is
    /// unchanged.
    pub seq: u64,
}

impl ReqCompletion {
    /// Time spent queueing — everything between submission and service
    /// start: dispatch stall plus in-queue wait. The quantity `fig_tail`
    /// separates from device latency.
    pub fn queue_delay(&self) -> Ns {
        self.done_at - self.submitted_at - self.service_ns
    }

    /// Total time in the system (queue delay + service).
    pub fn sojourn(&self) -> Ns {
        self.done_at - self.submitted_at
    }
}

/// One request admitted into a reordering shard's waiting room, not
/// yet decided by the dispatch discipline. It entered the room at
/// `submitted_at`: the lazy dispatcher admits immediately (see
/// [`Frontend::submit`]).
struct WaitingReq {
    token: ReqToken,
    kind: OpKind,
    key_index: u64,
    value: Vec<u8>,
    class: ReqClass,
    tenant: TenantId,
    submitted_at: Ns,
    /// WFQ virtual finish tag (0 under strict priority).
    finish_tag: u128,
    /// Submitted through [`Frontend::submit_detached`]: the decided
    /// record is dropped, not parked for collection.
    detached: bool,
}

impl WaitingReq {
    /// The record of this request dropped by `shard` at the dispatch
    /// instant `t0` — also the template [`Frontend::decide`] fills in
    /// when the request is shed or served instead.
    fn dropped(&self, shard: usize, t0: Ns) -> ReqCompletion {
        ReqCompletion {
            token: self.token,
            shard,
            kind: self.kind,
            key_index: self.key_index,
            submitted_at: self.submitted_at,
            issued_at: self.submitted_at,
            done_at: t0 + DROP_LATENCY,
            service_ns: 0,
            outcome: ReqOutcome::ShardOutOfSpace,
            class: self.class,
            tenant: self.tenant,
            seq: 0,
        }
    }
}

/// A reordering shard's waiting room: one FIFO lane per [`ReqClass`].
/// Arrival times, tokens and finish tags never fall along a lane
/// (`push` asserts it), which is what lets a dispatch decision look at
/// the heads alone — see the module documentation.
#[derive(Default)]
struct WaitingRoom {
    lanes: [VecDeque<WaitingReq>; 3],
}

impl WaitingRoom {
    fn push(&mut self, w: WaitingReq) {
        let lane = &mut self.lanes[w.class.index()];
        debug_assert!(
            lane.back().is_none_or(|last| {
                last.submitted_at <= w.submitted_at
                    && last.token < w.token
                    && last.finish_tag <= w.finish_tag
            }),
            "a lane's arrival times, tokens and finish tags never fall"
        );
        lane.push_back(w);
    }

    /// The oldest request of each non-empty lane, in class order.
    fn heads(&self) -> impl Iterator<Item = &WaitingReq> {
        self.lanes.iter().filter_map(VecDeque::front)
    }

    /// When the oldest waiting request arrived (`None` when empty).
    fn earliest(&self) -> Option<Ns> {
        self.heads().map(|w| w.submitted_at).min()
    }

    fn pop(&mut self, class: ReqClass) -> WaitingReq {
        self.lanes[class.index()]
            .pop_front()
            .expect("the discipline picked the head of a non-empty lane")
    }

    /// Empties the room, in submission order.
    fn drain_by_token(&mut self) -> Vec<WaitingReq> {
        let mut all: Vec<WaitingReq> = self.lanes.iter_mut().flat_map(|l| l.drain(..)).collect();
        all.sort_by_key(|w| w.token);
        all
    }

    fn len(&self) -> usize {
        self.lanes.iter().map(VecDeque::len).sum()
    }
}

/// One shard's state behind the dispatcher.
struct ShardState {
    experiment: Experiment,
    /// Completion times of admitted-but-incomplete requests (the
    /// bounded dispatcher queue, exactly the `IoQueue` slot discipline).
    /// Shed requests occupy a slot from admission until the instant
    /// they are dropped.
    slots: Vec<Ns>,
    /// The single-server serialization point: when the engine frees up.
    busy_until: Ns,
    /// Requests admitted but not yet decided, under a reordering
    /// [`DispatchDiscipline`] only (always empty under FIFO, whose
    /// outcomes are decided eagerly at submission).
    waiting: WaitingRoom,
    load: ShardLoad,
    queue_delay: LatencyHistogram,
    /// SLO accounting (tracked unconditionally; attached to reports
    /// only when the configured policy is active).
    slo: SloStats,
    /// Multi-tenant accounting: per-class lanes and per-tenant ledgers
    /// (tracked unconditionally; attached to reports only when
    /// [`FrontendRun::mt_active`]).
    mt: MtStats,
    /// Self-clocked WFQ virtual time: the finish tag of the last
    /// dispatched request. New backlog of an idle class starts at this
    /// frontier, which is what makes the discipline work-conserving.
    vtime: u128,
    /// Per-class last-assigned finish tag, so a backlogged class's
    /// arrivals queue behind its own previous work.
    last_finish: [u128; 3],
    /// EWMA of observed service times (α = 1/8, integer arithmetic so
    /// the estimate is deterministic), feeding
    /// [`SloPolicy::PredictedSojourn`]'s sojourn prediction and the
    /// WFQ finish tags. `None` until the first request is served.
    service_ewma: Option<Ns>,
    /// Out of space: nothing more is served.
    dead: bool,
}

impl ShardState {
    /// Predicted service time of the next request: the EWMA of what
    /// this shard actually served, 0 before any observation (the
    /// optimistic prior admits early requests, whose queue delay is
    /// still bounded by the full deadline).
    fn predicted_service(&self) -> Ns {
        self.service_ewma.unwrap_or(0)
    }

    /// Folds a served request's service time into the EWMA. The caller
    /// clamps pathological observations (see the call site): an
    /// estimate that exceeds the admission deadline would reject every
    /// request — including on an idle shard — and nothing could ever
    /// be served to bring it back down.
    fn observe_service(&mut self, service_ns: Ns) {
        self.service_ewma = Some(match self.service_ewma {
            None => service_ns,
            Some(ewma) => (service_ns + 7 * ewma) / 8,
        });
    }

    /// Decays the service estimate by one EWMA step (×7/8). Called on
    /// each [`SloPolicy::PredictedSojourn`] rejection when observations
    /// run unclamped (maintenance mode): a rejection produces no
    /// service observation, so without decay an estimate past the
    /// deadline could never fall and an idle shard would reject
    /// forever. With decay, rejections act as probes — under sustained
    /// overload the still-admitted ops keep the estimate honest, while
    /// on a quiet shard a few rejection turnarounds bring it back under
    /// the deadline and real observations take over again.
    fn decay_service_estimate(&mut self) {
        if let Some(ewma) = self.service_ewma.as_mut() {
            *ewma -= *ewma / 8;
        }
    }
}

/// What one shard produced: its ordinary harness-level [`RunResult`]
/// plus the serving-layer accounting.
pub struct FrontendShardResult {
    /// The shard experiment's result (identical in shape to a sharded
    /// harness shard's).
    pub result: RunResult,
    /// Serving-load accounting (requests routed, busy time).
    pub load: ShardLoad,
    /// Per-request queue-delay distribution (served requests only —
    /// rejected and shed requests never start service).
    pub queue_delay: LatencyHistogram,
    /// SLO accounting: admitted/rejected/shed counts and conformance.
    pub slo: SloStats,
    /// Multi-tenant accounting: per-class lanes (whose SLO counters sum
    /// to `slo`, lane by lane) and per-tenant quota ledgers.
    pub mt: MtStats,
}

/// The serving front-end over a fleet of shard experiments: the
/// `IoQueue` submission/completion pattern one level up. [`submit`]
/// hands in a [`Request`] without advancing the clock; [`poll`] /
/// [`wait`] / [`wait_all`] / [`take`] collect [`ReqCompletion`]s whose
/// timestamps separate queueing delay from service latency.
///
/// Single-threaded by design: virtual time makes concurrency a
/// *modelled* property, not an execution property, so request
/// interleavings are deterministic. [`run_frontend`] does generate its
/// open-loop clients' requests on a second thread, but that thread
/// never touches a `Frontend`: it computes what seeds alone fix (arrival
/// times and ops) and hands them over in the order one thread would
/// have made them, so every call on the `Frontend` — and with it every
/// decision — is the same.
///
/// [`submit`]: Frontend::submit
/// [`poll`]: Frontend::poll
/// [`wait`]: Frontend::wait
/// [`wait_all`]: Frontend::wait_all
/// [`take`]: Frontend::take
pub struct Frontend {
    cfg: FrontendRun,
    shards: Vec<ShardState>,
    /// Contiguous routing table (`slice_bounds`); empty under hashing.
    bounds: Vec<u64>,
    key_size: usize,
    key_end: u64,
    now: Ns,
    next_token: u64,
    /// Resolution counter feeding [`ReqCompletion::seq`].
    next_seq: u64,
    /// Per-tenant token buckets (index = [`TenantId`]), in request
    /// units; `None` for unthrottled tenants. One bucket per tenant
    /// across the whole fleet — a quota caps the tenant, not each
    /// shard.
    buckets: Vec<Option<RateBudget>>,
    pending: BTreeMap<u64, ReqCompletion>,
    key_buf: Vec<u8>,
}

impl Frontend {
    /// Builds the shard fleet (device + filesystem + engine + bulk load
    /// per shard, in shard order). A shard that runs out of space while
    /// loading starts dead — requests routed to it are dropped — which
    /// mirrors how the sharded harness reports such shards.
    pub fn new(cfg: &FrontendRun) -> Result<Self, PtsError> {
        cfg.validate();
        let global = cfg.base.workload();
        // `run_frontend`'s threads: the dispatcher, which drives every
        // shard, and the open loops' generator. Only the dispatcher
        // runs engine work, one shard at a time, so every shard may
        // have a helper when a CPU is left beside them.
        let open = (0..cfg.clients).any(|c| !cfg.client_arrival(c).is_closed());
        let helpers = idle_cpus(1 + usize::from(open)).min(1);
        let mut shards = Vec::with_capacity(cfg.shards);
        for index in 0..cfg.shards {
            let experiment = Experiment::prepare_with_helpers(
                &cfg.shard_config(index),
                cfg.shard_workload(index),
                helpers,
            )?;
            let dead = experiment.failed_during_load();
            let mut mt = MtStats::new(cfg.tenants.len());
            for lane in &mut mt.classes {
                lane.slo.span_ns = cfg.base.duration;
            }
            shards.push(ShardState {
                experiment,
                slots: Vec::with_capacity(cfg.queue_depth),
                busy_until: 0,
                waiting: WaitingRoom::default(),
                load: ShardLoad {
                    span_ns: cfg.base.duration,
                    ..ShardLoad::default()
                },
                queue_delay: LatencyHistogram::new(),
                slo: SloStats {
                    span_ns: cfg.base.duration,
                    ..SloStats::default()
                },
                mt,
                vtime: 0,
                last_finish: [0; 3],
                service_ewma: None,
                dead,
            });
        }
        Ok(Self {
            buckets: cfg
                .tenants
                .iter()
                .map(|t| {
                    t.quota
                        .map(|q| RateBudget::new(q.rate_ops_per_sec, q.burst_ops, 0))
                })
                .collect(),
            bounds: match cfg.sharding {
                Sharding::Contiguous => cfg.slice_bounds(),
                Sharding::Hashed => Vec::new(),
            },
            key_size: global.key_size,
            key_end: global.key_end(),
            cfg: cfg.clone(),
            shards,
            now: 0,
            next_token: 0,
            next_seq: 0,
            pending: BTreeMap::new(),
            key_buf: Vec::new(),
        })
    }

    /// Current front-end virtual time (ns since the measured phase
    /// began).
    pub fn now(&self) -> Ns {
        self.now
    }

    /// Moves the front-end clock forward to `t` (never backwards) —
    /// how a driver models request arrival times.
    pub fn advance_to(&mut self, t: Ns) {
        self.now = self.now.max(t);
    }

    /// The shard that owns a key under the configured routing.
    pub fn route(&self, key_index: u64) -> usize {
        assert!(key_index < self.key_end, "key {key_index} out of range");
        match self.cfg.sharding {
            Sharding::Contiguous => self.bounds.partition_point(|&end| end <= key_index),
            Sharding::Hashed => (route_hash(key_index) % self.cfg.shards as u64) as usize,
        }
    }

    /// Requests admitted to `shard` and not yet complete at the current
    /// front-end time: the occupied queue slots (bounded by the
    /// configured queue depth under FIFO dispatch) plus, under a
    /// reordering discipline, everything still undecided in the
    /// waiting room's class lanes (unbounded).
    pub fn in_flight(&self, shard: usize) -> usize {
        self.shards[shard]
            .slots
            .iter()
            .filter(|&&done| done > self.now)
            .count()
            + self.shards[shard].waiting.len()
    }

    /// Completions not yet collected.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Whether every shard has run out of space (nothing can be served
    /// any more).
    pub fn all_shards_dead(&self) -> bool {
        self.shards.iter().all(|s| s.dead)
    }

    /// Submits a request without advancing the front-end clock; returns
    /// its token. The request is routed to its key's shard, held
    /// against the configured [`SloPolicy`], admitted to that shard's
    /// bounded queue (stalling in virtual time while the queue is
    /// full), serviced in admission order by the shard's engine, and
    /// its completion record becomes collectable.
    ///
    /// Requests to a dead (out-of-space) shard are dropped: they
    /// complete with [`ReqOutcome::ShardOutOfSpace`] after a fixed
    /// [`DROP_LATENCY`] rejection turnaround (the error response of a
    /// full shard — also what keeps a zero-think closed-loop client
    /// that retries the dead shard from livelocking virtual time). A
    /// request that *hits* out-of-space kills its shard the same way.
    ///
    /// Under an active admission policy a request may instead resolve
    /// as [`ReqOutcome::Rejected`] (turned away at submission, after a
    /// [`REJECT_LATENCY`] turnaround, never queued) or
    /// [`ReqOutcome::Shed`] ([`SloPolicy::Deadline`] only: queued, but
    /// already past its budget when the engine would start it, dropped
    /// at that instant). Neither consumes any device or engine time.
    /// Hard engine failures return `Err`.
    pub fn submit(&mut self, req: Request) -> Result<ReqToken, PtsError> {
        self.submit_inner(req, false)
    }

    /// [`Frontend::submit`] for a request whose completion nobody will
    /// collect — the name and meaning of
    /// [`IoQueue::submit_detached`](ptsbench_ssd::IoQueue::submit_detached)
    /// one level up. The request is routed, admitted, served,
    /// accounted, traced and numbered in the decision order
    /// ([`ReqCompletion::seq`]) exactly as if submitted, but its decided
    /// record is dropped instead of parked: it never shows in
    /// [`Frontend::pending`] and no collector returns it. This is what
    /// keeps an open-loop run's memory independent of how many
    /// requests it has served.
    pub fn submit_detached(&mut self, req: Request) -> Result<(), PtsError> {
        self.submit_inner(req, true).map(drop)
    }

    /// The one body of [`Frontend::submit`] and
    /// [`Frontend::submit_detached`].
    fn submit_inner(&mut self, req: Request, detached: bool) -> Result<ReqToken, PtsError> {
        let shard_idx = self.route(req.key_index);
        let token = ReqToken(self.next_token);
        self.next_token += 1;
        let now = self.now;
        let policy = self.cfg.slo.get(req.class);
        let track_tenants = !self.cfg.tenants.is_empty();
        let shard = &mut self.shards[shard_idx];
        shard.load.requests += 1;
        shard.slo.offered += 1;
        shard.mt.class_mut(req.class).slo.offered += 1;
        if track_tenants {
            shard.mt.tenant_mut(req.tenant).offered += 1;
        }

        let mut completion = ReqCompletion {
            token,
            shard: shard_idx,
            kind: req.kind,
            key_index: req.key_index,
            submitted_at: now,
            issued_at: now,
            done_at: now + DROP_LATENCY,
            service_ns: 0,
            outcome: ReqOutcome::ShardOutOfSpace,
            class: req.class,
            tenant: req.tenant,
            seq: 0,
        };

        // Tenant quota: the token bucket sits in front of *everything*
        // — admission control, the shard queue, even the dead-shard
        // drop path. An over-quota request is turned away at the front
        // door without consuming queue residence or device time, which
        // is the point: one tenant's excess must not take capacity
        // another tenant's SLO depends on. The strict bucket never
        // overdrafts, so over any window `W` the tenant passes at most
        // `rate·W + burst` requests (property-tested in
        // `tests/proptest_tenant.rs`).
        if let Some(Some(bucket)) = self.buckets.get_mut(req.tenant as usize) {
            if !bucket.try_charge(now, 1) {
                shard.slo.throttled += 1;
                shard.mt.class_mut(req.class).slo.throttled += 1;
                shard.mt.tenant_mut(req.tenant).throttled += 1;
                completion.done_at = now + REJECT_LATENCY;
                completion.outcome = ReqOutcome::Throttled;
                self.resolve(completion, detached);
                return Ok(token);
            }
        }
        if track_tenants {
            shard.mt.tenant_mut(req.tenant).admitted += 1;
        }

        if shard.dead {
            shard.load.dropped += 1;
            self.resolve(completion, detached);
            return Ok(token);
        }
        if !self.cfg.discipline.is_fifo() {
            return self.submit_lazy(shard_idx, req, completion, policy, detached);
        }
        let shard = &mut self.shards[shard_idx];
        shard.slots.retain(|&done| done > now);

        // Admission into the bounded shard queue: slots whose
        // completion has passed are free; a full queue stalls the
        // submission (in virtual time) until the earliest outstanding
        // completion frees one — the IoQueue discipline, one level up.
        // Reclamation is planned on a scratch copy: a submission that
        // is rejected below, or fails hard, must leave the live
        // accounting untouched, or a later valid submission would
        // overlap requests the depth should have serialized (the same
        // guard `IoQueue::submit` carries).
        let mut slots = shard.slots.clone();
        let issue = admission_time(&mut slots, self.cfg.queue_depth, now);

        // Admission control: turn the request away *before* it enters
        // the queue — a rejected request must never consume queue
        // residence or device time. `PredictedSojourn` judges the very
        // `issue` time the request would get below, and admission is
        // deterministic, so its deadline is a guarantee on admitted
        // queue delay, not a heuristic.
        let rejected = match policy {
            SloPolicy::QueueBound { max_pending } => shard.slots.len() >= max_pending,
            SloPolicy::PredictedSojourn { deadline_ns } => {
                let predicted_start = issue.max(shard.busy_until);
                predicted_start - now + shard.predicted_service() > deadline_ns
            }
            SloPolicy::None | SloPolicy::Deadline { .. } => false,
        };
        if rejected {
            self.reject(completion, detached);
            return Ok(token);
        }
        shard.slo.admitted += 1;
        shard.mt.class_mut(req.class).slo.admitted += 1;
        completion.issued_at = issue;
        completion.done_at = issue + DROP_LATENCY;

        // Service: the engine is a single server, so the request starts
        // when both it is admitted and the engine is free. The planned
        // slots go live only with a decision: a hard engine failure
        // leaves the queue as it was, and so does the request that hits
        // out-of-space.
        let start_lb = issue.max(shard.busy_until);
        match self.decide(completion, &req.value, start_lb, detached)? {
            Decided::Served { done } => slots.push(done),
            // A shed request held its slot from admission until the
            // instant it would have started.
            Decided::Shed => slots.push(start_lb),
            Decided::OutOfSpace => return Ok(token),
        }
        self.shards[shard_idx].slots = slots;
        Ok(token)
    }

    /// Turns `completion`'s request away at admission: counted, answered
    /// after [`REJECT_LATENCY`], never queued.
    fn reject(&mut self, mut completion: ReqCompletion, detached: bool) {
        let shard = &mut self.shards[completion.shard];
        shard.slo.rejected += 1;
        shard.mt.class_mut(completion.class).slo.rejected += 1;
        // Unclamped-estimator recovery (maintenance mode only; see the
        // clamp in `decide`): each rejection decays the service EWMA one
        // step so the estimator can re-probe once pressure subsides
        // instead of wedging.
        if self.cfg.base.maint.enabled {
            if let SloPolicy::PredictedSojourn { .. } = self.cfg.slo.get(completion.class) {
                shard.decay_service_estimate();
            }
        }
        completion.done_at = completion.submitted_at + REJECT_LATENCY;
        completion.outcome = ReqOutcome::Rejected;
        self.resolve(completion, detached);
    }

    /// The one place an admitted request meets its shard's engine: at
    /// the known start instant `start`, `completion`'s request (filled
    /// in as the drop it becomes if the shard turns out to be full) is
    /// shed if it outlived its [`SloPolicy::Deadline`] budget, else
    /// served, and resolved either way. What differs between the two
    /// dispatchers is how they got here — their admission rule and what
    /// it does to the queue slots, which the returned [`Decided`] lets
    /// each settle for itself. A hard engine failure returns `Err` with
    /// nothing resolved and no counter past admission touched.
    fn decide(
        &mut self,
        mut completion: ReqCompletion,
        value: &[u8],
        start: Ns,
        detached: bool,
    ) -> Result<Decided, PtsError> {
        let policy = self.cfg.slo.get(completion.class);
        let shard = &mut self.shards[completion.shard];
        let submitted_at = completion.submitted_at;
        if let SloPolicy::Deadline { budget_ns } = policy {
            // Shed at dispatch: the request aged past its budget while
            // queueing, so starting it now would only waste device time
            // on an answer nobody is waiting for.
            if start - submitted_at > budget_ns {
                shard.slo.shed += 1;
                shard.mt.class_mut(completion.class).slo.shed += 1;
                completion.done_at = start;
                completion.outcome = ReqOutcome::Shed;
                self.resolve(completion, detached);
                return Ok(Decided::Shed);
            }
        }
        encode_key(completion.key_index, self.key_size, &mut self.key_buf);
        // Request-level spans (traced runs only): a `req.get`/`req.put`
        // root opening at submission, with the dispatch/queue wait as a
        // `req.queue` child, so the engine's `op.*` span — and every
        // phase and device span below it — nests under the request that
        // caused it. Timestamps are front-end (phase-relative) times
        // shifted onto the absolute span timeline.
        let trace = shard.experiment.trace_handle().clone();
        let phase0 = shard.experiment.phase_start();
        let req_span = trace.is_on().then(|| {
            let (name, cause) = match completion.kind {
                OpKind::Update => ("req.put", Cause::Put),
                OpKind::Read => ("req.get", Cause::Get),
            };
            let id = trace.tracer().begin(name, cause, phase0 + submitted_at);
            trace
                .tracer()
                .leaf("req.queue", cause, phase0 + submitted_at, phase0 + start);
            id
        });
        let served = shard
            .experiment
            .serve(start, completion.kind, &self.key_buf, value);
        if let Some(id) = req_span {
            // The experiment clock sits at the service completion time,
            // which is exactly where the request span closes.
            trace.end(id);
        }
        let decided = match served? {
            Served::Done { start, done } => {
                shard.busy_until = done;
                shard.load.served += 1;
                shard.load.busy_ns += done - start;
                let wait = start - submitted_at;
                shard.queue_delay.record(wait);
                shard.slo.served += 1;
                let lane = shard.mt.class_mut(completion.class);
                lane.slo.served += 1;
                lane.queue_delay.record(wait);
                lane.starve_max_ns = lane.starve_max_ns.max(wait);
                completion.done_at = done;
                completion.service_ns = done - start;
                completion.outcome = ReqOutcome::Served;
                // Inline maintenance clamps the estimator's observation
                // to the deadline: an op that absorbs an inline
                // compaction/GC stall can run 30x the typical service
                // time, and folding that in raw can push the EWMA past
                // the deadline — at which point even an idle shard
                // rejects everything, nothing is served, and the
                // estimate can never recover. Beyond the deadline the
                // exact magnitude cannot change any admission decision
                // anyway. With background maintenance enabled the clamp
                // comes off: budgeted slices bound routine stalls, raw
                // observations let admission control see genuine
                // backpressure overload, and the decay-on-reject step
                // (see `reject`) guarantees the estimator re-probes
                // instead of wedging (regression-tested by
                // `maintenance_mode_estimator_runs_unclamped_without_wedging`).
                let estimator_cap = if self.cfg.base.maint.enabled {
                    Ns::MAX
                } else {
                    policy.deadline_ns().unwrap_or(Ns::MAX)
                };
                shard.observe_service(completion.service_ns.min(estimator_cap));
                Decided::Served { done }
            }
            Served::OutOfSpace => {
                shard.dead = true;
                shard.load.dropped += 1;
                Decided::OutOfSpace
            }
        };
        self.resolve(completion, detached);
        Ok(decided)
    }

    /// Stamps a decided completion with its resolution sequence number
    /// (see [`ReqCompletion::seq`]) and parks it for collection — or,
    /// for a detached submission, drops it. Every outcome — served,
    /// dropped, rejected, shed, throttled — of either kind of
    /// submission resolves through here, so `seq` is a total order over
    /// decisions.
    fn resolve(&mut self, mut completion: ReqCompletion, detached: bool) {
        completion.seq = self.next_seq;
        self.next_seq += 1;
        if !detached {
            self.pending.insert(completion.token.0, completion);
        }
    }

    /// Admission under a reordering [`DispatchDiscipline`]: the request
    /// enters the shard's waiting room *immediately* and [`pump`]
    /// decides its fate when virtual time reaches the dispatch
    /// decision.
    ///
    /// Two deliberate deviations from the eager FIFO model:
    ///
    /// * the waiting room is unbounded — `queue_depth` does not stall
    ///   the submission, because a stalled submission would need to
    ///   know *which* queued request frees a slot first, and that is
    ///   exactly what the discipline only decides later. `QueueBound`
    ///   admission control still applies, over queue slots *plus*
    ///   waiting room;
    /// * [`SloPolicy::PredictedSojourn`] degrades from an exact
    ///   guarantee to a backlog heuristic: it assumes the new request
    ///   starts after the whole current backlog, which reorderings can
    ///   only improve for favored classes (and worsen for disfavored
    ///   ones).
    ///
    /// [`pump`]: Frontend::settle_to
    fn submit_lazy(
        &mut self,
        shard_idx: usize,
        req: Request,
        completion: ReqCompletion,
        policy: SloPolicy,
        detached: bool,
    ) -> Result<ReqToken, PtsError> {
        let now = self.now;
        let token = completion.token;
        let shard = &mut self.shards[shard_idx];
        // `pump` pushes one slot per served request; `now` never moves
        // backwards, so completions at or before it are free for good.
        shard.slots.retain(|&done| done > now);
        let backlog = shard.waiting.len() + shard.slots.len();
        let rejected = match policy {
            SloPolicy::QueueBound { max_pending } => backlog >= max_pending,
            SloPolicy::PredictedSojourn { deadline_ns } => {
                let est = shard.predicted_service();
                let queue_ahead = est.saturating_mul(backlog as u64);
                let idle_gap = shard.busy_until.saturating_sub(now);
                idle_gap.saturating_add(queue_ahead).saturating_add(est) > deadline_ns
            }
            SloPolicy::None | SloPolicy::Deadline { .. } => false,
        };
        if rejected {
            self.reject(completion, detached);
            return Ok(token);
        }
        shard.slo.admitted += 1;
        shard.mt.class_mut(req.class).slo.admitted += 1;
        let finish_tag = if let DispatchDiscipline::WeightedFair { weights } = self.cfg.discipline {
            // Self-clocked fair queueing: the virtual start is the
            // later of the dispatcher's virtual time and this class's
            // own last finish tag (a backlogged class queues behind its
            // previous work; an idle class starts at the frontier). The
            // virtual finish adds the estimated service scaled down by
            // the class weight — heavier classes accrue virtual time
            // slower, so they win more dispatch decisions.
            let est = u128::from(shard.predicted_service().max(1));
            let start = shard.vtime.max(shard.last_finish[req.class.index()]);
            let tag = start + est * WFQ_SCALE / u128::from(weights[req.class.index()]);
            shard.last_finish[req.class.index()] = tag;
            tag
        } else {
            0
        };
        shard.waiting.push(WaitingReq {
            token,
            kind: req.kind,
            key_index: req.key_index,
            value: req.value,
            class: req.class,
            tenant: req.tenant,
            submitted_at: now,
            finish_tag,
            detached,
        });
        Ok(token)
    }

    /// Decides waiting requests on one shard whose service start falls
    /// at or before `horizon`: repeatedly finds the next dispatch
    /// instant (engine free and at least one request present), lets the
    /// discipline pick among the lane heads present at that instant,
    /// and serves or sheds the pick. Each decision costs the same
    /// however long the lanes are. A no-op for empty waiting rooms,
    /// hence for FIFO dispatch entirely.
    fn pump(&mut self, shard_idx: usize, horizon: Ns) -> Result<(), PtsError> {
        loop {
            let shard = &mut self.shards[shard_idx];
            let Some(earliest) = shard.waiting.earliest() else {
                return Ok(());
            };
            // The next dispatch decision: the engine is free and at
            // least one request has arrived. Nondecreasing across
            // iterations (serving raises `busy_until` past it; shedding
            // keeps it and removes a request), so per-shard service
            // order is decided in time order.
            let t0 = shard.busy_until.max(earliest);
            if t0 > horizon {
                return Ok(());
            }
            if shard.dead {
                // The shard died with requests still waiting: they all
                // drop, in submission order, with the same turnaround a
                // direct submission to a dead shard gets.
                for w in shard.waiting.drain_by_token() {
                    self.shards[shard_idx].load.dropped += 1;
                    self.resolve(w.dropped(shard_idx, t0), w.detached);
                }
                return Ok(());
            }
            let w = shard
                .waiting
                .pop(select_next(&shard.waiting, t0, self.cfg.discipline));
            if let DispatchDiscipline::WeightedFair { .. } = self.cfg.discipline {
                // Self-clocking: virtual time jumps to the dispatched
                // tag, so classes going idle don't bank credit.
                shard.vtime = shard.vtime.max(w.finish_tag);
            }
            // Served, the request takes a queue slot until it is done;
            // shed or dropped it never held one. When it hit
            // out-of-space, the next iteration drains the rest as drops.
            if let Decided::Served { done } =
                self.decide(w.dropped(shard_idx, t0), &w.value, t0, w.detached)?
            {
                self.shards[shard_idx].slots.push(done);
            }
        }
    }

    /// Decides every waiting dispatch whose service start falls at or
    /// before `horizon` (a no-op under FIFO dispatch, which decides at
    /// submission). Drivers call this as virtual time advances, so
    /// discipline decisions are made in event order — each one sees
    /// exactly the requests that had arrived by its instant.
    pub fn settle_to(&mut self, horizon: Ns) -> Result<(), PtsError> {
        for shard_idx in 0..self.shards.len() {
            self.pump(shard_idx, horizon)?;
        }
        Ok(())
    }

    /// Decides every waiting dispatch on every shard, unboundedly.
    pub fn settle(&mut self) -> Result<(), PtsError> {
        self.settle_to(Ns::MAX)
    }

    /// Forces the single next dispatch decision fleet-wide: the shard
    /// whose next service start is earliest (ties by shard index)
    /// decides at least one waiting request. Returns `false` when no
    /// shard has anything waiting. This is how the driver makes
    /// progress when every client is blocked on an undecided request —
    /// deciding only the earliest instant keeps later decisions open to
    /// arrivals those completions trigger.
    pub fn settle_one(&mut self) -> Result<bool, PtsError> {
        let next = self
            .shards
            .iter()
            .enumerate()
            .filter_map(|(idx, s)| Some((idx, s.busy_until.max(s.waiting.earliest()?))))
            .min_by_key(|&(idx, t0)| (t0, idx));
        let Some((shard_idx, t0)) = next else {
            return Ok(false);
        };
        self.pump(shard_idx, t0)?;
        Ok(true)
    }

    /// Collects a completion record without touching the front-end
    /// clock (the completion was computed at submission). `None` if the
    /// token is unknown or already collected.
    ///
    /// This is how a driver implements a closed loop without running
    /// time ahead of other clients' arrivals: take the completion,
    /// schedule the next submission at `done_at`, and only advance the
    /// clock when that submission actually happens.
    pub fn take(&mut self, token: ReqToken) -> Option<ReqCompletion> {
        self.pending.remove(&token.0)
    }

    /// Blocks (advances the front-end clock) until `token`'s request
    /// completes and returns its record. Under a reordering discipline
    /// the token may still sit undecided in a waiting room; waiting on
    /// it settles every outstanding dispatch decision first, and a hard
    /// engine failure met while settling returns `Err`.
    ///
    /// # Panics
    /// Panics if the token was never issued or was already collected.
    pub fn wait(&mut self, token: ReqToken) -> Result<ReqCompletion, PtsError> {
        if !self.pending.contains_key(&token.0) {
            self.settle()?;
        }
        let completion = self
            .pending
            .remove(&token.0)
            .expect("waiting on an unknown or already-collected ReqToken");
        self.now = self.now.max(completion.done_at);
        Ok(completion)
    }

    /// Collects one already-completed request (earliest in the
    /// completion order — `done_at`, then resolution order) without
    /// advancing the clock. Rejected and shed completions surface
    /// through the same order as served ones, not after them. Purely a
    /// view over resolved completions: requests still undecided in a
    /// reordering discipline's waiting room do not surface until a
    /// settle ([`Frontend::settle_to`] or any blocking collector).
    pub fn poll(&mut self) -> Option<ReqCompletion> {
        let key = self
            .pending
            .iter()
            .filter(|(_, c)| c.done_at <= self.now)
            .min_by_key(|(_, c)| completion_order(c))
            .map(|(t, _)| *t)?;
        self.pending.remove(&key)
    }

    /// Advances the clock to the earliest outstanding completion — of
    /// *any* outcome; a rejection turned around at `REJECT_LATENCY` can
    /// precede a served request submitted before it — and returns it
    /// (`None` if nothing is pending). Settles every outstanding
    /// dispatch decision first; a hard engine failure met there returns
    /// `Err`.
    pub fn wait_any(&mut self) -> Result<Option<ReqCompletion>, PtsError> {
        self.settle()?;
        let Some(key) = self
            .pending
            .iter()
            .min_by_key(|(_, c)| completion_order(c))
            .map(|(t, _)| *t)
        else {
            return Ok(None);
        };
        let completion = self.pending.remove(&key).expect("key just found");
        self.now = self.now.max(completion.done_at);
        Ok(Some(completion))
    }

    /// Drains every pending completion, advancing the clock to the
    /// latest; returns them in completion order (`done_at`, then
    /// resolution order), interleaving served, rejected and shed
    /// records by when each actually resolved. Settles every
    /// outstanding dispatch decision first; a hard engine failure met
    /// there returns `Err` and leaves what had resolved collectable.
    pub fn wait_all(&mut self) -> Result<Vec<ReqCompletion>, PtsError> {
        self.settle()?;
        let mut all: Vec<ReqCompletion> = std::mem::take(&mut self.pending).into_values().collect();
        all.sort_by_key(completion_order);
        if let Some(last) = all.last() {
            self.now = self.now.max(last.done_at);
        }
        Ok(all)
    }

    /// Finishes every shard experiment (emitting trailing samples and
    /// draining engine-level asynchronous I/O) and returns the
    /// per-shard results in shard order. Settles any waiting dispatch
    /// decisions first (panicking on hard engine failures — drivers
    /// that must propagate them call [`Frontend::settle`] themselves
    /// beforehand). Completions still parked go with the front-end —
    /// their work was executed and is accounted in the shard results
    /// either way; a driver that never means to collect a completion
    /// does not park it in the first place
    /// ([`Frontend::submit_detached`]).
    pub fn finish(mut self) -> Vec<FrontendShardResult> {
        self.settle()
            .expect("engine failure while settling the dispatch backlog");
        self.shards
            .into_iter()
            .map(|shard| FrontendShardResult {
                result: shard.experiment.finish(),
                load: shard.load,
                queue_delay: shard.queue_delay,
                slo: shard.slo,
                mt: shard.mt,
            })
            .collect()
    }
}

/// What [`Frontend::decide`] did with a request, for the slot
/// bookkeeping of the dispatcher that called it.
enum Decided {
    /// Served; the engine is busy until `done`.
    Served {
        /// Host-visible completion (phase-relative ns).
        done: Ns,
    },
    /// Past its deadline budget at the start instant: dropped there.
    Shed,
    /// The request hit out-of-space; the shard is dead.
    OutOfSpace,
}

/// Fixed-point scale of the WFQ virtual clock, so integer division by
/// a class weight keeps enough resolution to order sub-microsecond
/// service estimates.
const WFQ_SCALE: u128 = 1 << 10;

/// The lane the discipline serves next at instant `t0`, among the lane
/// heads already present (`submitted_at <= t0` — guaranteed non-empty,
/// since `t0` is never earlier than the earliest waiting request). A
/// head stands for its whole lane (see [`WaitingRoom`]), so this is the
/// choice a scan over every waiting request would make. Ties always
/// fall back to token (submission) order, so dispatch is deterministic.
fn select_next(waiting: &WaitingRoom, t0: Ns, discipline: DispatchDiscipline) -> ReqClass {
    let candidates = || waiting.heads().filter(move |w| w.submitted_at <= t0);
    let pick = match discipline {
        DispatchDiscipline::Fifo => unreachable!("FIFO dispatch decides eagerly at submission"),
        DispatchDiscipline::StrictPriority { promote_after_ns } => {
            // Highest class first — unless the oldest candidate has
            // aged past the promotion bound, in which case it jumps the
            // class order. This is the starvation bound the property
            // suite pins: no request waits beyond `promote_after_ns`
            // plus the residual service ahead of it.
            let oldest = candidates()
                .min_by_key(|w| (w.submitted_at, w.token))
                .expect("select_next requires a candidate");
            if t0 - oldest.submitted_at > promote_after_ns {
                Some(oldest)
            } else {
                candidates().min_by_key(|w| (w.class.priority(), w.submitted_at, w.token))
            }
        }
        DispatchDiscipline::WeightedFair { .. } => {
            candidates().min_by_key(|w| (w.finish_tag, w.token))
        }
    };
    pick.expect("select_next requires a candidate").class
}

/// Pops freed slots (on the caller's scratch copy) until the queue is
/// below `depth`, returning the virtual time at which the next request
/// is admitted: `now` when a slot is free, otherwise the completion
/// time of the outstanding request(s) that must drain first. Shared by
/// actual admission and by [`SloPolicy::PredictedSojourn`]'s
/// prediction, which is what makes the prediction exact.
fn admission_time(slots: &mut Vec<Ns>, depth: usize, now: Ns) -> Ns {
    let mut issue = now;
    while slots.len() >= depth {
        let (idx, &earliest) = slots
            .iter()
            .enumerate()
            .min_by_key(|(_, &done)| done)
            .expect("non-empty at depth");
        issue = issue.max(earliest);
        slots.swap_remove(idx);
    }
    issue
}

/// The total order completions are surfaced in by [`Frontend::poll`],
/// [`Frontend::wait_any`] and [`Frontend::wait_all`]: completion time
/// first, *resolution* order ([`ReqCompletion::seq`]) on ties — across
/// all outcomes. Rejections resolve after [`REJECT_LATENCY`], so a
/// request rejected at `t` must surface *before* an earlier-submitted
/// request still queueing at `t + REJECT_LATENCY` (pinned by
/// `collectors_interleave_diverging_outcomes_in_timestamp_order`). The
/// tiebreak is deliberately NOT the token: under a reordering
/// [`DispatchDiscipline`] two requests can complete at the same
/// instant with the later-submitted one decided first, and token order
/// would silently re-impose FIFO exactly where the discipline broke it
/// (pinned by `collectors_surface_reordered_completions_in_decision_order`).
/// Under FIFO, decisions happen in submission order, so `seq` order and
/// token order coincide.
fn completion_order(c: &ReqCompletion) -> (Ns, u64) {
    (c.done_at, c.seq)
}

/// Per-client driver state for [`run_frontend`].
struct ClientState {
    index: usize,
    generator: OpGenerator,
    arrivals: ArrivalClock,
    class: ReqClass,
    tenant: TenantId,
}

/// A generated request, with its client and submission instant.
struct Submission {
    at: Ns,
    client: usize,
    request: Request,
}

/// A set of clients and their due arrivals, earliest first, ties by
/// client index: the one place [`run_frontend`] generates requests —
/// the closed-loop clients' on the dispatcher's thread, the open-loop
/// clients' on the generator thread.
struct DueClients {
    /// In increasing client index, so a slot orders like its client.
    clients: Vec<ClientState>,
    /// `(time, slot)`. Invariant: slot `s` has exactly one entry iff
    /// `clients[s].arrivals.next_submit()` is `Some` — pushed when a
    /// submission or a collected completion schedules the next
    /// arrival, never for a retired client.
    due: BinaryHeap<Reverse<(Ns, usize)>>,
}

impl DueClients {
    fn new(cfg: &FrontendRun, clients: Vec<usize>) -> Self {
        let clients: Vec<ClientState> = clients
            .into_iter()
            .map(|c| ClientState {
                index: c,
                generator: OpGenerator::new(cfg.client_workload(c)),
                arrivals: ArrivalClock::new(cfg.client_arrival(c), cfg.client_arrival_seed(c)),
                class: cfg.client_class(c),
                tenant: cfg.tenant_of_client(c),
            })
            .collect();
        let due = clients
            .iter()
            .enumerate()
            .filter_map(|(slot, c)| Some(Reverse((c.arrivals.next_submit()?, slot))))
            .collect();
        Self { clients, due }
    }

    /// The earliest due arrival before `deadline`, as `(time, client
    /// index)` (an entry at or past the deadline on top means nobody
    /// here submits).
    fn peek(&self, deadline: Ns) -> Option<(Ns, usize)> {
        let &Reverse((at, slot)) = self.due.peek()?;
        (at < deadline).then(|| (at, self.clients[slot].index))
    }

    /// Pops the earliest due arrival and generates its request. A client
    /// whose clock already knows its next submission — an open loop —
    /// is due again at once; a closed loop waits for
    /// [`DueClients::note_completed`].
    fn pop(&mut self) -> (usize, Submission) {
        let Reverse((at, slot)) = self.due.pop().expect("a due arrival");
        let client = &mut self.clients[slot];
        let op = client.generator.next_op();
        let request = Request {
            kind: op.kind,
            key_index: op.key_index,
            value: op.value.to_vec(),
            class: client.class,
            tenant: client.tenant,
        };
        client.arrivals.note_submitted();
        if let Some(next) = client.arrivals.next_submit() {
            self.due.push(Reverse((next, slot)));
        }
        let submission = Submission {
            at,
            client: client.index,
            request,
        };
        (slot, submission)
    }

    /// Schedules a closed loop's next arrival after its request
    /// completed at `done_at`.
    fn note_completed(&mut self, slot: usize, done_at: Ns) {
        let arrivals = &mut self.clients[slot].arrivals;
        arrivals.note_completed(done_at);
        if let Some(next) = arrivals.next_submit() {
            self.due.push(Reverse((next, slot)));
        }
    }

    /// Stops a closed loop for good.
    fn retire(&mut self, slot: usize) {
        self.clients[slot].arrivals.retire();
    }

    /// The generator thread: sends every arrival before `deadline`, in
    /// order, in batches of [`ARRIVAL_BATCH`]. Stops early when the
    /// dispatcher hangs up.
    fn generate(mut self, deadline: Ns, tx: SyncSender<Vec<Submission>>) {
        let mut batch = Vec::with_capacity(ARRIVAL_BATCH);
        while self.peek(deadline).is_some() {
            batch.push(self.pop().1);
            if batch.len() == ARRIVAL_BATCH {
                let full = std::mem::replace(&mut batch, Vec::with_capacity(ARRIVAL_BATCH));
                if tx.send(full).is_err() {
                    return;
                }
            }
        }
        if !batch.is_empty() {
            // A hung-up dispatcher has nothing left to take it.
            let _ = tx.send(batch);
        }
    }
}

/// Open-loop arrivals per message from the generator thread.
const ARRIVAL_BATCH: usize = 256;

/// Messages the channel from the generator thread holds: with the
/// batch being filled and the one being submitted, at most
/// `(ARRIVAL_BATCHES + 2) * ARRIVAL_BATCH` generated requests exist
/// ahead of the dispatcher.
const ARRIVAL_BATCHES: usize = 4;

/// The open-loop arrivals as the generator thread sends them, in
/// `(time, client index)` order; none when the run has no open loop.
struct OpenArrivals {
    rx: Option<Receiver<Vec<Submission>>>,
    batch: std::iter::Peekable<std::vec::IntoIter<Submission>>,
}

impl OpenArrivals {
    fn new(rx: Option<Receiver<Vec<Submission>>>) -> Self {
        Self {
            rx,
            batch: Vec::new().into_iter().peekable(),
        }
    }

    /// The next arrival, waiting for the generator thread when it has
    /// not sent it yet; `None` once the generator has sent everything.
    fn peek(&mut self) -> Option<&Submission> {
        if self.batch.peek().is_none() {
            if let Some(batch) = self.rx.as_ref().and_then(|rx| rx.recv().ok()) {
                self.batch = batch.into_iter().peekable();
            }
        }
        self.batch.peek()
    }

    /// Takes the arrival [`OpenArrivals::peek`] returned.
    fn pop(&mut self) -> Submission {
        self.batch.next().expect("a peeked arrival")
    }
}

/// Runs a full serving experiment and returns the merged report.
///
/// Spawns `cfg.clients` *logical* clients, each generating requests
/// from its seeded workload stream and submitting them through a
/// [`Frontend`] at the times its seeded
/// [`ArrivalClock`](ptsbench_workload::ArrivalClock) dictates
/// (submissions stop at `cfg.base.duration`; admitted requests drain).
/// Requests routed to an out-of-space shard are dropped (counted in
/// the shard's [`ShardLoad`], completing after [`DROP_LATENCY`]); a
/// closed-loop client retires once its traffic can never be served
/// again — its bound shard died, or every shard did — while a routed
/// client with healthy shards left keeps submitting.
///
/// The driver is an event queue, not a scan: clients with a known next
/// submission time sit in binary heaps keyed `(time, client index)`,
/// and the closed-loop clients waiting on an undecided request sit in a
/// blocked list, so a request costs O(log clients) however wide the
/// fan-in. An open-loop client's arrivals and requests are fixed by its
/// seeds — no completion feeds back into them — so when the run has
/// any, a second thread generates them and sends them, in `(time,
/// client index)` order, to the dispatcher over a bounded channel (at
/// most 1 536 requests ahead). The dispatcher submits the earlier of
/// that stream's head and the closed-loop heap's top, ties by client
/// index: the order one heap over every client would pop, so every
/// decision is the same. A run without open loops spawns no thread;
/// the [`Frontend`] itself is only ever touched by the calling thread.
///
/// Deterministic in virtual time: fixed seeds produce byte-identical
/// rendered reports. In the conformant shape
/// ([`FrontendRun::conformant`]) the report is byte-identical to
/// [`crate::run_sharded`]'s — the latency-conformance suite pins this
/// for every registered engine.
pub fn run_frontend(cfg: &FrontendRun) -> Result<RunReport, PtsError> {
    Ok(run_frontend_with_results(cfg)?.report)
}

/// [`run_frontend`], also returning the per-shard [`RunResult`]s.
pub fn run_frontend_with_results(cfg: &FrontendRun) -> Result<HarnessOutcome, PtsError> {
    let (open, closed): (Vec<usize>, Vec<usize>) =
        (0..cfg.clients).partition(|&c| !cfg.client_arrival(c).is_closed());
    let shards = if open.is_empty() {
        dispatch(cfg, closed, OpenArrivals::new(None))?
    } else {
        std::thread::scope(|s| {
            let (tx, rx) = sync_channel(ARRIVAL_BATCHES);
            let generator =
                s.spawn(move || DueClients::new(cfg, open).generate(cfg.base.duration, tx));
            // Returning drops the receiver, which stops the generator
            // if the run ended early.
            let shards = dispatch(cfg, closed, OpenArrivals::new(Some(rx)));
            if let Err(panic) = generator.join() {
                std::panic::resume_unwind(panic);
            }
            shards
        })?
    };

    let attach_serving_metrics = !cfg.is_conformant();
    let attach_slo = cfg.slo.is_active();
    let attach_mt = cfg.mt_active();
    let reports = shards
        .iter()
        .enumerate()
        .map(|(index, shard)| {
            let mut report = base_shard_report(cfg.base.queue_depth, index, &shard.result);
            if attach_serving_metrics {
                report.queue_delay = Some(shard.queue_delay.clone());
                report.load = Some(shard.load);
            }
            if attach_slo {
                report.slo = Some(shard.slo);
            }
            if attach_mt {
                report.mt = Some(shard.mt.clone());
            }
            report
        })
        .collect();
    let report = RunReport::merge(cfg.label(), cfg.clients, reports);
    Ok(HarnessOutcome {
        report,
        shard_results: shards.into_iter().map(|s| s.result).collect(),
    })
}

/// [`run_frontend`]'s dispatcher: builds the fleet and the closed-loop
/// clients, submits every arrival — the closed loops' and `open`'s — in
/// `(time, client index)` order, and drains the fleet.
fn dispatch(
    cfg: &FrontendRun,
    closed: Vec<usize>,
    mut open: OpenArrivals,
) -> Result<Vec<FrontendShardResult>, PtsError> {
    let mut frontend = Frontend::new(cfg)?;
    let mut closed = DueClients::new(cfg, closed);
    // Closed-loop clients (by slot) whose request in flight has not
    // been collected yet. Resolved immediately under FIFO dispatch;
    // under a reordering discipline a client stays here until the
    // dispatcher decides its request.
    let mut blocked: Vec<(usize, ReqToken)> = Vec::new();

    // Event loop, three moves per iteration:
    //
    // 1. collect resolved completions for blocked closed-loop clients
    //    (so they can schedule their next arrival),
    // 2. submit the earliest due arrival (ties by client index),
    //    settling dispatch decisions strictly before it so the
    //    discipline decides in event order,
    // 3. when neither is possible, force the dispatcher's single next
    //    decision to unblock somebody.
    //
    // Under FIFO dispatch every submission resolves at submit, step 3
    // never fires, and the loop degenerates to the pre-multi-tenant
    // submit/collect cycle in the identical order.
    loop {
        // 1. Blocked clients whose requests have resolved.
        let mut resolved_any = false;
        blocked.retain(|&(slot, token)| {
            let Some(completion) = frontend.take(token) else {
                return true;
            };
            resolved_any = true;
            // A closed-loop client retires when its traffic can never
            // be served again: a bound client's shard died (mirroring
            // how a sharded-harness shard stops), or the whole fleet is
            // dead. A *routed* client with healthy shards left keeps
            // going — its next keys may well route elsewhere, and its
            // drops complete after `DROP_LATENCY` so retries advance
            // virtual time.
            if completion.outcome == ReqOutcome::ShardOutOfSpace
                && (cfg.binding == ClientBinding::Bound || frontend.all_shards_dead())
            {
                closed.retire(slot);
            } else {
                closed.note_completed(slot, completion.done_at);
            }
            false
        });

        // 2. The earliest due arrival within the submission window: the
        //    open-loop stream's head (the generator sends nothing at or
        //    past the deadline) or the closed-loop heap's top, whichever
        //    comes first by `(time, client index)`.
        let next_open = open.peek().map(|a| (a.at, a.client));
        let next = match (next_open, closed.peek(cfg.base.duration)) {
            // A client is on one side only, so the two never tie.
            (Some(o), c) if c.is_none_or(|c| o < c) => Some((None, open.pop())),
            (_, Some(_)) => {
                let (slot, arrival) = closed.pop();
                Some((Some(slot), arrival))
            }
            _ => None,
        };
        if let Some((slot, arrival)) = next {
            frontend.advance_to(arrival.at);
            // Settle strictly *before* the arrival instant: a decision
            // at exactly `at` must still see this (and any
            // simultaneous) submission as a candidate.
            frontend.settle_to(arrival.at.saturating_sub(1))?;
            match slot {
                // Open loop: the next arrival is already known, so
                // nobody will ever collect this completion.
                None => frontend.submit_detached(arrival.request)?,
                // Closed loop: step 1 collects the completion once it
                // resolves (immediately under FIFO, at the dispatch
                // decision otherwise).
                Some(slot) => blocked.push((slot, frontend.submit(arrival.request)?)),
            }
            // Only what a blocked client will come back for is parked,
            // so the run's memory does not grow with the number of
            // requests it has served.
            debug_assert!(frontend.pending() <= blocked.len());
            continue;
        }

        // 3. Nothing submitted: if a completion just resolved, loop so
        //    its client can schedule; otherwise the dispatcher itself
        //    must decide its next waiting request — and when even it
        //    has nothing left, the run is over.
        if resolved_any {
            continue;
        }
        if !frontend.settle_one()? {
            break;
        }
    }
    frontend.settle()?;
    Ok(frontend.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptsbench_core::frontend::{ClientBinding, TenantQuota, TenantSpec};
    use ptsbench_core::registry::EngineKind;
    use ptsbench_core::runner::RunConfig;
    use ptsbench_ssd::{MINUTE, SECOND};
    use ptsbench_workload::{ArrivalSpec, KeyDistribution};

    use proptest::prelude::*;

    fn base(total_bytes: u64) -> RunConfig {
        RunConfig {
            engine: EngineKind::lsm(),
            device_bytes: total_bytes,
            duration: 10 * MINUTE,
            sample_window: 5 * MINUTE,
            ..RunConfig::default()
        }
    }

    #[test]
    fn submit_take_round_trips_and_timestamps_are_ordered() {
        let cfg = FrontendRun::new(base(16 << 20), 1);
        let mut fe = Frontend::new(&cfg).expect("frontend");
        let token = fe
            .submit(Request {
                kind: OpKind::Update,
                key_index: 0,
                value: vec![7; 64],
                ..Default::default()
            })
            .expect("submit");
        assert_eq!(fe.pending(), 1);
        let c = fe.take(token).expect("completion");
        assert_eq!(c.outcome, ReqOutcome::Served);
        assert!(c.submitted_at <= c.issued_at && c.issued_at <= c.done_at);
        assert_eq!(c.queue_delay() + c.service_ns, c.sojourn());
        assert!(c.service_ns > 0, "an update does device + CPU work");
        assert!(fe.take(token).is_none(), "collected exactly once");
    }

    #[test]
    fn depth_one_serializes_and_wait_advances_the_clock() {
        let mut cfg = FrontendRun::new(base(16 << 20), 1);
        cfg.queue_depth = 1;
        let mut fe = Frontend::new(&cfg).expect("frontend");
        let t0 = fe
            .submit(Request {
                kind: OpKind::Update,
                key_index: 1,
                value: vec![1; 64],
                ..Default::default()
            })
            .expect("submit");
        let t1 = fe
            .submit(Request {
                kind: OpKind::Update,
                key_index: 2,
                value: vec![2; 64],
                ..Default::default()
            })
            .expect("submit");
        let c0 = fe.wait(t0).expect("wait");
        assert_eq!(fe.now(), c0.done_at, "wait advances the front-end clock");
        let c1 = fe.wait(t1).expect("wait");
        assert_eq!(
            c1.issued_at, c0.done_at,
            "depth 1 admits the next request only when the previous completes"
        );
        assert!(c1.queue_delay() >= c0.service_ns);
    }

    #[test]
    fn poll_only_returns_requests_done_by_now() {
        let cfg = FrontendRun::new(base(16 << 20), 1);
        let mut fe = Frontend::new(&cfg).expect("frontend");
        let token = fe
            .submit(Request {
                kind: OpKind::Read,
                key_index: 3,
                value: Vec::new(),
                ..Default::default()
            })
            .expect("submit");
        assert!(fe.poll().is_none(), "not complete at time 0");
        let done_at = fe.pending.get(&token.0).expect("pending").done_at;
        fe.advance_to(done_at);
        assert_eq!(fe.poll().expect("complete now").token, token);
    }

    #[test]
    fn hashed_and_contiguous_routing_agree_with_ownership() {
        for sharding in [Sharding::Contiguous, Sharding::Hashed] {
            let mut cfg = FrontendRun::new(base(64 << 20), 4);
            cfg.sharding = sharding;
            cfg.validate();
            let fe = Frontend::new(&cfg).expect("frontend");
            let keys = cfg.base.workload().num_keys;
            for key in (0..keys).step_by(97) {
                let owner = fe.route(key);
                let spec = cfg.shard_workload(owner);
                assert!(spec.owns_key(key), "{sharding:?}: shard {owner} ∌ {key}");
            }
        }
    }

    #[test]
    fn conformant_run_matches_run_sharded_byte_for_byte() {
        let sharded =
            crate::run_sharded(&ptsbench_core::sharded::ShardedRun::new(base(32 << 20), 2))
                .expect("sharded");
        let served = run_frontend(&FrontendRun::conformant(base(32 << 20), 2)).expect("frontend");
        assert_eq!(sharded.render(), served.render());
    }

    #[test]
    fn fan_in_over_a_hot_shard_builds_queue_delay() {
        // 8 clients, 2 shards, Zipfian keys over contiguous slices: the
        // hot prefix shard queues; queue delay must be visible and
        // separable, and the report must carry the serving metrics.
        let mut cfg = FrontendRun::new(base(32 << 20), 8);
        cfg.shards = 2;
        cfg.base.distribution = KeyDistribution::Zipfian { theta: 0.99 };
        cfg.base.read_fraction = 0.5;
        let report = run_frontend(&cfg).expect("run");
        let qd = report.queue_delay.as_ref().expect("serving metrics");
        assert!(qd.count() > 0);
        assert!(
            report.queue_delay_quantile(0.99).expect("p99") > 0,
            "8 closed-loop clients on a hot shard must queue"
        );
        let imbalance = report.load_imbalance().expect("load metrics");
        assert!(imbalance.request_ratio() > 1.0, "Zipfian skews the load");
        let text = report.render();
        assert!(text.contains("queue delay ns:"));
        assert!(text.contains("shard load:"));
    }

    #[test]
    fn open_loop_overload_queues_without_backoff() {
        // One shard, an open-loop client arriving much faster than the
        // engine can serve: queue delay must grow far beyond service
        // time (the open-vs-closed distinction in one assertion).
        let mut cfg = FrontendRun::new(base(16 << 20), 1);
        cfg.arrival = ArrivalSpec::Open {
            interarrival_ns: MINUTE / 600, // 100 ms virtual: faster than service
        };
        cfg.queue_depth = 4;
        let report = run_frontend(&cfg).expect("run");
        let p50_delay = report.queue_delay_quantile(0.5).expect("p50");
        let p50_service = report.latency.quantile(0.5);
        assert!(
            p50_delay > 4 * p50_service,
            "open-loop overload must queue: delay {p50_delay} vs service {p50_service}"
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let cfg = || {
            let mut c = FrontendRun::new(base(32 << 20), 4);
            c.shards = 2;
            c.sharding = Sharding::Hashed;
            c.base.distribution = KeyDistribution::Zipfian { theta: 0.9 };
            c.arrival = ArrivalSpec::OpenPoisson {
                mean_interarrival_ns: 200 * MINUTE / 1000,
            };
            c
        };
        let a = run_frontend(&cfg()).expect("run a").render();
        let b = run_frontend(&cfg()).expect("run b").render();
        assert_eq!(a, b, "fixed seeds must reproduce the report exactly");
    }

    #[test]
    fn out_of_space_shards_drop_requests_and_retire_closed_clients() {
        let mut cfg = FrontendRun::new(base(16 << 20), 2);
        cfg.shards = 1;
        cfg.base.dataset_fraction = 0.95; // cannot fit an LSM's space amp
        let outcome = run_frontend_with_results(&cfg).expect("run");
        assert_eq!(outcome.report.out_of_space_shards(), 1);
        let load = outcome.report.shards[0].load.expect("load metrics");
        assert!(load.dropped > 0, "the request hitting ENOSPC is a drop");
        assert!(
            load.dropped <= 2,
            "each closed-loop client retires at its first drop, got {}",
            load.dropped
        );
        assert_eq!(load.requests, load.served + load.dropped);
        assert_eq!(outcome.report.ops, load.served, "report counts served ops");
    }

    #[test]
    fn routed_clients_outlive_a_dead_shard() {
        // Near-full shards + Zipfian updates: the hot contiguous shard
        // dies mid-run, the cold one survives. Routed closed-loop
        // clients must keep driving the survivor instead of retiring on
        // their first drop (they retire only when every shard is dead).
        let mut cfg = FrontendRun::new(base(32 << 20), 4);
        cfg.shards = 2;
        cfg.base.dataset_fraction = 0.95;
        cfg.base.distribution = KeyDistribution::Zipfian { theta: 0.99 };
        let outcome = run_frontend_with_results(&cfg).expect("run");
        let report = &outcome.report;
        assert!(report.out_of_space_shards() >= 1, "{}", report.render());
        // The hot shard dies first and keeps *receiving*: its drop
        // count far exceeds one-per-client, proving clients were not
        // retired while other shards still served (the old behavior
        // capped drops at `clients`).
        let hot = report.shards[0].load.expect("load");
        assert!(
            hot.dropped > 10 * cfg.clients as u64,
            "clients must keep retrying past one drop each: {}",
            report.render()
        );
        // And the cold shard kept serving after the hot one died —
        // far more ops than the hot shard's own lifetime would allow
        // if everyone had retired with it.
        let cold = report.shards[1].load.expect("load");
        assert!(
            cold.served > 50,
            "the cold shard must keep serving: {}",
            report.render()
        );
    }

    #[test]
    fn dead_shards_reject_with_turnaround_while_healthy_shards_serve() {
        let cfg = FrontendRun::new(base(32 << 20), 2);
        let mut fe = Frontend::new(&cfg).expect("frontend");
        fe.shards[0].dead = true; // simulate an out-of-space shard
        let shard1_key = cfg.shard_workload(1).key_base;

        let t0 = fe
            .submit(Request {
                kind: OpKind::Read,
                key_index: 0, // shard 0's slice
                value: Vec::new(),
                ..Default::default()
            })
            .expect("submit");
        let dropped = fe.take(t0).expect("completion");
        assert_eq!(dropped.outcome, ReqOutcome::ShardOutOfSpace);
        assert_eq!(
            dropped.done_at,
            dropped.submitted_at + DROP_LATENCY,
            "drops complete after the rejection turnaround, not instantly"
        );
        assert!(!fe.all_shards_dead());

        let t1 = fe
            .submit(Request {
                kind: OpKind::Update,
                key_index: shard1_key,
                value: vec![9; 64],
                ..Default::default()
            })
            .expect("submit");
        let served = fe.take(t1).expect("completion");
        assert_eq!(served.outcome, ReqOutcome::Served, "shard 1 still serves");
    }

    #[test]
    fn queue_bound_rejects_at_the_bound_without_device_time() {
        let mut cfg = FrontendRun::new(base(16 << 20), 1);
        cfg.slo = SloPolicy::QueueBound { max_pending: 2 }.into();
        let mut fe = Frontend::new(&cfg).expect("frontend");
        let update = |key| Request {
            kind: OpKind::Update,
            key_index: key,
            value: vec![5; 64],
            ..Default::default()
        };
        let t0 = fe.submit(update(1)).expect("submit");
        let t1 = fe.submit(update(2)).expect("submit");
        let t2 = fe.submit(update(3)).expect("submit");
        let c0 = fe.take(t0).expect("completion");
        let c1 = fe.take(t1).expect("completion");
        let c2 = fe.take(t2).expect("completion");
        assert_eq!(c0.outcome, ReqOutcome::Served);
        assert_eq!(c1.outcome, ReqOutcome::Served);
        assert_eq!(c2.outcome, ReqOutcome::Rejected, "third finds 2 pending");
        assert_eq!(c2.service_ns, 0, "rejections never touch the device");
        assert_eq!(c2.issued_at, c2.submitted_at, "rejections are never queued");
        assert_eq!(c2.done_at, c2.submitted_at + REJECT_LATENCY);

        // Once the pending requests complete, admission resumes.
        fe.advance_to(c1.done_at);
        let t3 = fe.submit(update(4)).expect("submit");
        let c3 = fe.take(t3).expect("completion");
        assert_eq!(c3.outcome, ReqOutcome::Served);

        let shard = fe.finish().pop().expect("one shard");
        assert_eq!(shard.slo.offered, 4);
        assert_eq!(shard.slo.admitted, 3);
        assert_eq!(shard.slo.rejected, 1);
        assert_eq!(shard.slo.shed, 0);
        assert_eq!(shard.slo.served, 3);
        assert_eq!(
            shard.slo.attainment(),
            0.75,
            "3 of 4 offered requests were served within the SLO"
        );
        assert_eq!(
            shard.load.busy_ns,
            c0.service_ns + c1.service_ns + c3.service_ns,
            "engine busy time is exactly the served requests' service time \
             (the rejected request contributed none)"
        );
    }

    #[test]
    fn predicted_sojourn_rejects_what_would_miss_the_deadline() {
        use ptsbench_ssd::SECOND;
        let mut cfg = FrontendRun::new(base(16 << 20), 1);
        cfg.slo = SloPolicy::PredictedSojourn {
            deadline_ns: 2 * SECOND,
        }
        .into();
        let mut fe = Frontend::new(&cfg).expect("frontend");
        let mut served = 0u64;
        let mut rejected = 0u64;
        for key in 0..30 {
            let token = fe
                .submit(Request {
                    kind: OpKind::Update,
                    key_index: key,
                    value: vec![9; 64],
                    ..Default::default()
                })
                .expect("submit");
            let c = fe.take(token).expect("completion");
            match c.outcome {
                ReqOutcome::Served => {
                    served += 1;
                    assert!(
                        c.queue_delay() <= 2 * SECOND,
                        "the admission prediction is exact, so no admitted \
                         request may start past the deadline: {c:?}"
                    );
                }
                ReqOutcome::Rejected => {
                    rejected += 1;
                    assert_eq!(c.service_ns, 0);
                }
                other => panic!("unexpected outcome {other:?}"),
            }
        }
        assert!(served >= 2, "the first requests fit the deadline");
        assert!(
            rejected > 0,
            "30 simultaneous sub-second ops cannot all start within 2 s"
        );
    }

    #[test]
    fn maintenance_mode_estimator_runs_unclamped_without_wedging() {
        use ptsbench_ssd::SECOND;
        // PR 5 clamped EWMA observations at the deadline because one
        // inline compaction could wedge PredictedSojourn permanently:
        // rejections never update the estimate, so an estimate past
        // the deadline could never fall again. With background
        // maintenance the clamp is off — raw observations may exceed
        // the deadline under genuine backpressure (and reject honest
        // overload), but decay-on-reject must always bring an idle
        // shard back to serving within a bounded number of probes.
        let mut cfg = FrontendRun::new(base(16 << 20), 1);
        cfg.base.maint = ptsbench_core::MaintConfig::enabled();
        cfg.slo = SloPolicy::PredictedSojourn {
            deadline_ns: 2 * SECOND,
        }
        .into();
        let mut fe = Frontend::new(&cfg).expect("frontend");
        let mut served = 0u64;
        let total = 400u64;
        for i in 0..total {
            let token = fe
                .submit(Request {
                    kind: OpKind::Update,
                    key_index: i % 64,
                    value: vec![0xAB; 2048],
                    ..Default::default()
                })
                .expect("submit");
            if fe.wait(token).expect("wait").outcome == ReqOutcome::Served {
                served += 1;
            }
        }
        assert!(
            served > total / 2,
            "the storm must be mostly served, not a shard death spiral: \
             {served}/{total}"
        );
        // The wedge failure mode: storm over, shard idle, estimator
        // stuck past the deadline, *nothing ever served again*. With
        // decay-on-reject each probe shrinks the estimate by 1/8, so
        // recovery must land within a few dozen turnarounds.
        fe.advance_to(fe.now() + 10 * SECOND);
        let mut probes = 0u32;
        let recovered = loop {
            let probe = fe
                .submit(Request {
                    kind: OpKind::Update,
                    key_index: 1,
                    value: vec![1; 64],
                    ..Default::default()
                })
                .expect("submit");
            let c = fe.wait(probe).expect("wait");
            probes += 1;
            match c.outcome {
                ReqOutcome::Served => break true,
                ReqOutcome::Rejected if probes < 100 => continue,
                _ => break false,
            }
        };
        assert!(
            recovered,
            "the unclamped estimator must recover on an idle shard \
             within 100 probes"
        );
        let shard = fe.finish().pop().expect("one shard");
        let maint = shard.result.maint.expect("maintenance stats");
        assert!(
            maint.jobs > 0,
            "the storm must actually exercise background jobs"
        );
        assert!(
            shard.slo.served > 0 && shard.slo.served == served + 1,
            "accounting covers the storm and the recovery probe"
        );
    }

    #[test]
    fn deadline_policy_sheds_stale_requests_at_dispatch() {
        use ptsbench_ssd::SECOND;
        let mut cfg = FrontendRun::new(base(16 << 20), 1);
        cfg.slo = SloPolicy::Deadline { budget_ns: SECOND }.into();
        let mut fe = Frontend::new(&cfg).expect("frontend");
        let mut outcomes = Vec::new();
        for key in 0..10 {
            let token = fe
                .submit(Request {
                    kind: OpKind::Update,
                    key_index: key,
                    value: vec![3; 64],
                    ..Default::default()
                })
                .expect("submit");
            outcomes.push(fe.take(token).expect("completion"));
        }
        let shed: Vec<_> = outcomes
            .iter()
            .filter(|c| c.outcome == ReqOutcome::Shed)
            .collect();
        let served = outcomes
            .iter()
            .filter(|c| c.outcome == ReqOutcome::Served)
            .count();
        assert!(served >= 1, "the first request is never past its budget");
        assert!(!shed.is_empty(), "later requests age out while queued");
        for c in &shed {
            assert_eq!(c.service_ns, 0, "shed requests never touch the device");
            assert!(
                c.done_at - c.submitted_at > SECOND,
                "a request is shed only once it is already past its budget: {c:?}"
            );
            assert!(c.issued_at <= c.done_at);
        }
        // The budget is an age cut, not a death sentence for the shard:
        // an idle-system submission is served again.
        fe.advance_to(20 * SECOND);
        let token = fe
            .submit(Request {
                kind: OpKind::Update,
                key_index: 11,
                value: vec![4; 64],
                ..Default::default()
            })
            .expect("submit");
        assert_eq!(
            fe.take(token).expect("completion").outcome,
            ReqOutcome::Served
        );

        let shard = fe.finish().pop().expect("one shard");
        assert_eq!(shard.slo.offered, 11);
        assert_eq!(shard.slo.rejected, 0, "Deadline never rejects at submit");
        assert_eq!(shard.slo.admitted, 11);
        assert_eq!(shard.slo.shed, shed.len() as u64);
        assert_eq!(shard.slo.served, served as u64 + 1);
    }

    #[test]
    fn collectors_interleave_diverging_outcomes_in_timestamp_order() {
        let mut cfg = FrontendRun::new(base(16 << 20), 1);
        cfg.slo = SloPolicy::QueueBound { max_pending: 1 }.into();
        let mut fe = Frontend::new(&cfg).expect("frontend");
        let update = |key| Request {
            kind: OpKind::Update,
            key_index: key,
            value: vec![7; 64],
            ..Default::default()
        };
        // A is admitted and served (sub-second service, well past the
        // 1 ms rejection turnaround); B and C find the queue at its
        // bound and are rejected, resolving at +REJECT_LATENCY — i.e.
        // *before* the earlier-submitted A.
        let a = fe.submit(update(1)).expect("submit");
        let b = fe.submit(update(2)).expect("submit");
        let c = fe.submit(update(3)).expect("submit");

        // poll honors the clock and the cross-outcome order.
        assert!(fe.poll().is_none(), "nothing has resolved at t=0");
        fe.advance_to(REJECT_LATENCY);
        let first = fe.poll().expect("rejections resolved at 1 ms");
        assert_eq!((first.token, first.outcome), (b, ReqOutcome::Rejected));

        // wait_any surfaces the earliest completion of any outcome:
        // the remaining rejection precedes the served request even
        // though the served one was submitted first.
        let second = fe.wait_any().expect("wait").expect("pending");
        assert_eq!((second.token, second.outcome), (c, ReqOutcome::Rejected));
        let third = fe.wait_any().expect("wait").expect("pending");
        assert_eq!((third.token, third.outcome), (a, ReqOutcome::Served));
        assert!(second.done_at < third.done_at);
        assert_eq!(fe.wait_any().expect("wait").map(|c| c.token), None);

        // wait_all over a fresh identical scenario interleaves by
        // (done_at, token), not by submission or outcome.
        let mut fe = Frontend::new(&cfg).expect("frontend");
        let a = fe.submit(update(1)).expect("submit");
        let b = fe.submit(update(2)).expect("submit");
        let c = fe.submit(update(3)).expect("submit");
        let all = fe.wait_all().expect("wait");
        assert_eq!(
            all.iter().map(|c| c.token).collect::<Vec<_>>(),
            vec![b, c, a],
            "timestamp order, rejections first"
        );
        assert!(all
            .windows(2)
            .all(|w| (w[0].done_at, w[0].token) <= (w[1].done_at, w[1].token)));
        assert_eq!(fe.now(), all.last().expect("non-empty").done_at);
    }

    #[test]
    fn slo_accounting_lands_in_reports_only_when_a_policy_is_active() {
        use ptsbench_workload::ArrivalSpec;
        let serve = |slo: SloPolicy| {
            let mut cfg = FrontendRun::new(base(32 << 20), 4);
            cfg.shards = 2;
            cfg.arrival = ArrivalSpec::OpenPoisson {
                mean_interarrival_ns: MINUTE / 100,
            };
            cfg.slo = slo.into();
            run_frontend(&cfg).expect("run")
        };
        let plain = serve(SloPolicy::None);
        assert!(plain.slo_totals().is_none());
        assert!(!plain.render().contains("slo"));

        let bounded = serve(SloPolicy::QueueBound { max_pending: 2 });
        let totals = bounded.slo_totals().expect("slo accounting");
        assert!(totals.rejected > 0, "0.6 s mean interarrival must overload");
        assert_eq!(totals.offered, totals.admitted + totals.rejected);
        assert_eq!(totals.served, totals.admitted, "nothing shed by QueueBound");
        assert!(bounded.label.ends_with("/slo-qb2"), "{}", bounded.label);
        let text = bounded.render();
        assert!(text.contains("slo: offered="));
        assert!(text.contains("slo[adm="));
        // Queue-delay samples exist only for served requests.
        let qd = bounded.queue_delay.as_ref().expect("queue delay");
        assert_eq!(qd.count(), totals.served);
    }

    #[test]
    fn collectors_surface_reordered_completions_in_decision_order() {
        // Satellite of the multi-tenant PR: the collector tiebreak used
        // to be the token, which silently encoded "completions happen
        // in submission order" — true under FIFO only. Under WFQ a
        // later-submitted interactive request is decided (and done)
        // before an earlier batch one; collectors must surface it
        // first.
        let mut cfg = FrontendRun::new(base(16 << 20), 1);
        cfg.discipline = DispatchDiscipline::WeightedFair { weights: [8, 1, 1] };
        let mut fe = Frontend::new(&cfg).expect("frontend");
        let batch = |key| Request {
            kind: OpKind::Update,
            key_index: key,
            value: vec![7; 64],
            class: ReqClass::Batch,
            ..Default::default()
        };
        let b0 = fe.submit(batch(1)).expect("submit");
        let b1 = fe.submit(batch(2)).expect("submit");
        let i0 = fe
            .submit(Request {
                kind: OpKind::Read,
                key_index: 3,
                ..Default::default()
            })
            .expect("submit");
        let all = fe.wait_all().expect("wait");
        let tokens: Vec<_> = all.iter().map(|c| c.token).collect();
        assert_eq!(
            tokens,
            vec![i0, b0, b1],
            "the last-submitted interactive request is decided first \
             (weight 8 vs 1), so it must surface first"
        );
        assert!(
            all.windows(2)
                .all(|w| (w[0].done_at, w[0].seq) <= (w[1].done_at, w[1].seq)),
            "collection order is (done_at, seq)"
        );
        assert!(
            tokens != {
                let mut sorted = tokens.clone();
                sorted.sort();
                sorted
            },
            "the scenario genuinely inverts submission order"
        );
        let served: Vec<_> = all
            .iter()
            .filter(|c| c.outcome == ReqOutcome::Served)
            .collect();
        assert_eq!(served.len(), 3);
        assert!(
            served[0].done_at <= served[1].done_at,
            "completion timestamps stay monotone in collection order"
        );
    }

    #[test]
    fn wfq_dispatches_by_weighted_virtual_finish_time() {
        let mut cfg = FrontendRun::new(base(16 << 20), 1);
        cfg.discipline = DispatchDiscipline::WeightedFair { weights: [6, 2, 1] };
        let mut fe = Frontend::new(&cfg).expect("frontend");
        // Build a same-instant backlog: 4 batch, then 4 interactive.
        let mut batch_tokens = Vec::new();
        let mut int_tokens = Vec::new();
        for k in 0..4u64 {
            batch_tokens.push(
                fe.submit(Request {
                    kind: OpKind::Update,
                    key_index: k,
                    value: vec![1; 64],
                    class: ReqClass::Batch,
                    ..Default::default()
                })
                .expect("submit"),
            );
        }
        for k in 4..8u64 {
            int_tokens.push(
                fe.submit(Request {
                    kind: OpKind::Update,
                    key_index: k,
                    value: vec![2; 64],
                    ..Default::default()
                })
                .expect("submit"),
            );
        }
        let all = fe.wait_all().expect("wait");
        assert_eq!(all.len(), 8);
        let int_mean: u64 = all
            .iter()
            .filter(|c| c.class == ReqClass::Interactive)
            .map(|c| c.queue_delay())
            .sum::<u64>()
            / 4;
        let bat_mean: u64 = all
            .iter()
            .filter(|c| c.class == ReqClass::Batch)
            .map(|c| c.queue_delay())
            .sum::<u64>()
            / 4;
        assert!(
            int_mean < bat_mean,
            "weight 6 vs 2 must favor interactive queue delay: {int_mean} vs {bat_mean}"
        );
        // Class lanes partition the shard's SLO accounting.
        let shard = fe.finish().pop().expect("one shard");
        let lane_sums = shard.mt.classes.iter().fold((0u64, 0u64, 0u64), |acc, l| {
            (
                acc.0 + l.slo.offered,
                acc.1 + l.slo.admitted,
                acc.2 + l.slo.served,
            )
        });
        assert_eq!(
            lane_sums,
            (shard.slo.offered, shard.slo.admitted, shard.slo.served)
        );
        assert_eq!(shard.slo.served, 8);
    }

    #[test]
    fn strict_priority_serves_classes_in_order_but_promotes_aged_work() {
        let mut cfg = FrontendRun::new(base(16 << 20), 1);
        cfg.discipline = DispatchDiscipline::StrictPriority {
            promote_after_ns: 1,
        };
        let mut fe = Frontend::new(&cfg).expect("frontend");
        let req = |key, class| Request {
            kind: OpKind::Update,
            key_index: key,
            value: vec![3; 64],
            class,
            ..Default::default()
        };
        // One background request, then three interactive, all at t=0.
        let bg = fe.submit(req(0, ReqClass::Background)).expect("submit");
        let i0 = fe.submit(req(1, ReqClass::Interactive)).expect("submit");
        let i1 = fe.submit(req(2, ReqClass::Interactive)).expect("submit");
        let i2 = fe.submit(req(3, ReqClass::Interactive)).expect("submit");
        let order: Vec<_> = fe
            .wait_all()
            .expect("wait")
            .iter()
            .map(|c| c.token)
            .collect();
        // First decision at t=0: nothing has aged, interactive wins.
        // Second decision: the background request has aged past the
        // 1 ns promotion bound and jumps the remaining interactives.
        assert_eq!(
            order,
            vec![i0, bg, i1, i2],
            "age promotion must bound background starvation"
        );
        let shard = fe.finish().pop().expect("one shard");
        let bg_lane = shard.mt.class(ReqClass::Background);
        assert!(
            bg_lane.starve_max_ns > 0,
            "the promoted request still waited one service time"
        );
        assert!(
            bg_lane.starve_max_ns <= shard.mt.class(ReqClass::Interactive).slo.span_ns,
            "sanity: starvation is bounded by the run span"
        );
    }

    #[test]
    fn tenant_token_buckets_throttle_over_quota_submissions() {
        let mut cfg = FrontendRun::new(base(32 << 20), 2);
        cfg.shards = 1;
        cfg.tenants = vec![
            TenantSpec::new(ReqClass::Interactive, 1),
            TenantSpec {
                quota: Some(TenantQuota {
                    rate_ops_per_sec: 0,
                    burst_ops: 2,
                }),
                ..TenantSpec::new(ReqClass::Batch, 1)
            },
        ];
        let mut fe = Frontend::new(&cfg).expect("frontend");
        let from_tenant = |key, tenant| Request {
            kind: OpKind::Update,
            key_index: key,
            value: vec![9; 64],
            class: if tenant == 1 {
                ReqClass::Batch
            } else {
                ReqClass::Interactive
            },
            tenant,
        };
        // Zero refill rate, burst 2: exactly two batch submissions pass,
        // every later one is throttled — forever.
        let mut outcomes = Vec::new();
        for key in 0..4 {
            let t = fe.submit(from_tenant(key, 1)).expect("submit");
            outcomes.push(fe.wait(t).expect("wait"));
        }
        assert_eq!(outcomes[0].outcome, ReqOutcome::Served);
        assert_eq!(outcomes[1].outcome, ReqOutcome::Served);
        for c in &outcomes[2..] {
            assert_eq!(c.outcome, ReqOutcome::Throttled);
            assert_eq!(c.service_ns, 0, "throttled requests never touch the device");
            assert_eq!(
                c.issued_at, c.submitted_at,
                "throttled requests never queue"
            );
            assert_eq!(c.done_at, c.submitted_at + REJECT_LATENCY);
        }
        // The unthrottled tenant is untouched by its neighbor's quota.
        let t = fe.submit(from_tenant(5, 0)).expect("submit");
        assert_eq!(fe.wait(t).expect("wait").outcome, ReqOutcome::Served);

        let shard = fe.finish().pop().expect("one shard");
        assert_eq!(shard.slo.throttled, 2);
        let aggressor = &shard.mt.tenants[1];
        assert_eq!(
            (aggressor.offered, aggressor.admitted, aggressor.throttled),
            (4, 2, 2),
            "the ledger splits offered into bucket passes and throttles"
        );
        let quiet = &shard.mt.tenants[0];
        assert_eq!((quiet.offered, quiet.admitted, quiet.throttled), (1, 1, 0));
        assert_eq!(
            shard.mt.class(ReqClass::Batch).slo.throttled,
            2,
            "throttles land in the submitting class's lane too"
        );
    }

    /// The LSM with every point lookup failing: hard, or — `full` — as
    /// the out-of-space outcome.
    fn failing_gets(full: bool) -> EngineKind {
        use ptsbench_core::engine::{EngineStats, PtsEngine, ScanCursor, WriteBatch};
        use ptsbench_core::registry::{EngineDescriptor, EngineRegistry, EngineTuning, Lifecycle};
        use ptsbench_vfs::Vfs;

        struct FailingGets {
            lsm: Box<dyn PtsEngine>,
            full: bool,
        }
        impl PtsEngine for FailingGets {
            fn put(&mut self, key: &[u8], value: &[u8]) -> Result<(), PtsError> {
                self.lsm.put(key, value)
            }
            fn get_with(
                &mut self,
                _key: &[u8],
                _f: &mut dyn FnMut(Option<&[u8]>),
            ) -> Result<(), PtsError> {
                Err(if self.full {
                    PtsError::OutOfSpace
                } else {
                    PtsError::engine(
                        "failing-gets",
                        std::io::Error::other("injected read failure"),
                    )
                })
            }
            fn delete(&mut self, key: &[u8]) -> Result<(), PtsError> {
                self.lsm.delete(key)
            }
            fn apply_batch(&mut self, batch: &WriteBatch) -> Result<(), PtsError> {
                self.lsm.apply_batch(batch)
            }
            fn scan(
                &mut self,
                start: &[u8],
                end: Option<&[u8]>,
                limit: usize,
            ) -> Result<ScanCursor<'_>, PtsError> {
                self.lsm.scan(start, end, limit)
            }
            fn flush(&mut self) -> Result<(), PtsError> {
                self.lsm.flush()
            }
            fn stats(&self) -> EngineStats {
                self.lsm.stats()
            }
            fn vfs(&self) -> &Vfs {
                self.lsm.vfs()
            }
            fn kind(&self) -> EngineKind {
                self.lsm.kind()
            }
        }
        fn build<const FULL: bool>(
            vfs: Vfs,
            tuning: &EngineTuning,
            lifecycle: Lifecycle,
        ) -> Result<Box<dyn PtsEngine>, PtsError> {
            let lsm =
                (EngineRegistry::descriptor(EngineKind::lsm()).build)(vfs, tuning, lifecycle)?;
            Ok(Box::new(FailingGets { lsm, full: FULL }))
        }
        EngineRegistry::register(if full {
            EngineDescriptor {
                name: "Full on gets (test)",
                label: "full-on-gets",
                default_cpu_cost_ns: 1,
                build: build::<true>,
            }
        } else {
            EngineDescriptor {
                name: "Failing gets (test)",
                label: "failing-gets",
                default_cpu_cost_ns: 1,
                build: build::<false>,
            }
        })
    }

    fn read(key_index: u64) -> Request {
        Request {
            key_index,
            ..Default::default()
        }
    }

    fn update(key_index: u64) -> Request {
        Request {
            kind: OpKind::Update,
            key_index,
            value: vec![5; 64],
            ..Default::default()
        }
    }

    #[test]
    fn blocking_collectors_return_a_hard_engine_failure() {
        let mut run = base(16 << 20);
        run.engine = failing_gets(false);
        let mut cfg = FrontendRun::new(run, 1);
        cfg.discipline = DispatchDiscipline::WeightedFair { weights: [8, 1, 1] };
        let mut fe = Frontend::new(&cfg).expect("frontend");

        // A reordering discipline decides nothing at submission, so the
        // read is accepted; the failure surfaces where the backlog is
        // settled — as an error from each blocking collector, not a
        // panic. The failed request has left the waiting room, so each
        // call below meets the next one.
        fe.submit(read(0)).expect("submit");
        assert!(matches!(fe.wait_all(), Err(PtsError::Engine { .. })));
        fe.submit(read(1)).expect("submit");
        assert!(matches!(fe.wait_any(), Err(PtsError::Engine { .. })));
        let token = fe.submit(read(2)).expect("submit");
        assert!(matches!(fe.wait(token), Err(PtsError::Engine { .. })));
    }

    #[test]
    fn a_hard_engine_failure_ends_an_open_loop_run_and_its_generator() {
        // 64 Poisson clients at one request per virtual second each
        // arrive ~38 000 times in the window: far more than the channel
        // from the generator thread holds, so the generator is still
        // sending when the first read fails and ends only because the
        // dispatcher hangs up. A hang fails the test instead of stalling
        // the suite.
        let mut run = base(16 << 20);
        run.engine = failing_gets(false);
        run.read_fraction = 0.5;
        let mut cfg = FrontendRun::new(run, 64);
        cfg.shards = 1;
        cfg.arrival = ArrivalSpec::OpenPoisson {
            mean_interarrival_ns: SECOND,
        };
        let (tx, rx) = std::sync::mpsc::channel();
        let runner = std::thread::spawn(move || {
            let outcome = run_frontend(&cfg).map(|_| ());
            tx.send(()).expect("the test waits for the run");
            outcome
        });
        rx.recv_timeout(std::time::Duration::from_secs(120))
            .expect("the run returns instead of hanging");
        let outcome = runner.join().expect("the run does not panic");
        assert!(
            matches!(outcome, Err(PtsError::Engine { .. })),
            "{outcome:?}"
        );
    }

    #[test]
    fn a_hard_engine_failure_under_fifo_leaves_the_queue_as_it_was() {
        // Two front-ends served the same two updates, which fill the
        // depth-2 queue; one of them is then handed a read that fails
        // hard. FIFO decides at submission, so `submit` itself returns
        // the error — and the queue slots, the engine's busy horizon and
        // what the next valid submission gets are what they are on the
        // front-end that never saw the read. Only the front door counted
        // it: one more request offered and admitted, with no outcome.
        let mut run = base(16 << 20);
        run.engine = failing_gets(false);
        let mut cfg = FrontendRun::new(run, 1);
        cfg.queue_depth = 2;
        let mut control = Frontend::new(&cfg).expect("frontend");
        let mut fe = Frontend::new(&cfg).expect("frontend");
        for f in [&mut control, &mut fe] {
            f.submit(update(0)).expect("submit");
            f.submit(update(1)).expect("submit");
        }
        assert!(matches!(fe.submit(read(2)), Err(PtsError::Engine { .. })));

        assert_eq!(fe.in_flight(0), 2);
        assert_eq!(fe.pending(), 2);
        let (failed, clean) = (&fe.shards[0], &control.shards[0]);
        assert_eq!(failed.slots, clean.slots);
        assert_eq!(failed.busy_until, clean.busy_until);
        assert_eq!(failed.service_ewma, clean.service_ewma);
        assert!(!failed.dead);
        let counted = |s: &ShardState, extra: u64| {
            let mut load = s.load;
            let mut slo = s.slo;
            let mut lane = s.mt.class(ReqClass::Interactive).slo;
            load.requests += extra;
            slo.offered += extra;
            slo.admitted += extra;
            lane.offered += extra;
            lane.admitted += extra;
            format!("{load:?} {slo:?} {lane:?} {}", s.queue_delay.count())
        };
        assert_eq!(counted(failed, 0), counted(clean, 1));

        let next = |f: &mut Frontend| {
            let token = f.submit(update(3)).expect("submit");
            let c = f.take(token).expect("completion");
            (c.issued_at, c.done_at, c.service_ns, c.outcome, c.seq)
        };
        assert_eq!(next(&mut fe), next(&mut control));
    }

    #[test]
    fn the_request_that_hits_out_of_space_is_answered_from_where_it_was_admitted() {
        // An update keeps the engine busy until `busy`; a read submitted
        // at the same instant is admitted at once (depth 2) and would
        // start at `busy`, where the engine reports out-of-space. FIFO
        // stamped the drop when it admitted the request:
        // `issue + DROP_LATENCY`. A reordering discipline decides at the
        // dispatch instant: `t0 + DROP_LATENCY`.
        for (discipline, lazy) in [
            (DispatchDiscipline::Fifo, false),
            (
                DispatchDiscipline::WeightedFair { weights: [8, 1, 1] },
                true,
            ),
        ] {
            let mut run = base(16 << 20);
            run.engine = failing_gets(true);
            let mut cfg = FrontendRun::new(run, 1);
            cfg.queue_depth = 2;
            cfg.discipline = discipline;
            let mut fe = Frontend::new(&cfg).expect("frontend");
            let served = fe.submit(update(0)).expect("submit");
            let dropped = fe.submit(read(1)).expect("submit");
            let served = fe.wait(served).expect("wait");
            let dropped = fe.wait(dropped).expect("wait");
            assert_eq!(served.outcome, ReqOutcome::Served);
            assert!(served.done_at > 0);
            assert_eq!(dropped.outcome, ReqOutcome::ShardOutOfSpace);
            assert_eq!((dropped.submitted_at, dropped.issued_at), (0, 0));
            let from = if lazy { served.done_at } else { 0 };
            assert_eq!(dropped.done_at, from + DROP_LATENCY, "{discipline:?}");
            let shard = &fe.shards[0];
            assert!(shard.dead);
            assert_eq!((shard.load.served, shard.load.dropped), (1, 1));
            assert_eq!(shard.slots, vec![served.done_at]);
        }
    }

    /// Everything a shard reports, rendered exactly.
    fn shard_print(shard: &FrontendShardResult) -> String {
        let histogram =
            |h: &LatencyHistogram| format!("{} {:?} {:?}", h.count(), h.mean(), h.cdf_points());
        format!(
            "ops={} latency[{}] qdelay[{}] {:?} {:?} {}",
            shard.result.ops_executed,
            histogram(&shard.result.latency),
            histogram(&shard.queue_delay),
            shard.load,
            shard.slo,
            shard.mt.render()
        )
    }

    #[test]
    fn detached_submissions_change_nothing_but_what_is_parked() {
        // The same 300-request stream twice — rejections, sheds and a
        // backlog included — once all collected, once with two requests
        // in three detached: identical shard results, and the collected
        // third carries the same records, `seq` included.
        use ptsbench_ssd::SECOND;
        for discipline in [
            DispatchDiscipline::Fifo,
            DispatchDiscipline::WeightedFair { weights: [4, 2, 1] },
            DispatchDiscipline::StrictPriority {
                promote_after_ns: 2 * SECOND,
            },
        ] {
            let mut cfg = FrontendRun::new(base(32 << 20), 1);
            cfg.shards = 2;
            cfg.discipline = discipline;
            cfg.slo = ptsbench_core::frontend::ClassPolicyMap::default()
                .with(ReqClass::Batch, SloPolicy::Deadline { budget_ns: SECOND })
                .with(
                    ReqClass::Background,
                    SloPolicy::QueueBound { max_pending: 3 },
                );
            let keys = cfg.base.workload().num_keys;
            let run = |detach: fn(u64) -> bool| {
                let mut fe = Frontend::new(&cfg).expect("frontend");
                for i in 0..300u64 {
                    fe.advance_to(i * SECOND / 8);
                    fe.settle_to((i * SECOND / 8).saturating_sub(1))
                        .expect("settle");
                    let request = Request {
                        kind: if i % 4 == 0 {
                            OpKind::Update
                        } else {
                            OpKind::Read
                        },
                        key_index: i * 7919 % keys,
                        value: vec![i as u8; 48],
                        class: ReqClass::ALL[(i % 3) as usize],
                        tenant: 0,
                    };
                    if detach(i) {
                        fe.submit_detached(request).expect("submit");
                    } else {
                        fe.submit(request).expect("submit");
                    }
                }
                let collected = fe.wait_all().expect("wait");
                let shards: Vec<String> = fe.finish().iter().map(shard_print).collect();
                (collected, shards)
            };
            let (all, shards) = run(|_| false);
            let (third, shards_detached) = run(|i| i % 3 != 0);
            assert_eq!(shards, shards_detached, "{discipline:?}");
            assert_eq!(all.len(), 300);
            assert!(
                all.iter().any(|c| c.outcome == ReqOutcome::Shed)
                    && all.iter().any(|c| c.outcome == ReqOutcome::Rejected),
                "{discipline:?}: the stream must not only be served"
            );
            // Tokens count submissions of either kind.
            let kept: Vec<ReqCompletion> = all.into_iter().filter(|c| c.token.0 % 3 == 0).collect();
            assert_eq!(third, kept, "{discipline:?}");
        }
    }

    #[test]
    fn only_requests_somebody_will_collect_are_parked() {
        use ptsbench_ssd::SECOND;
        // By hand, on both dispatch paths: an open-loop fleet parks
        // nothing at any step; with two closed-loop clients beside it,
        // never more than their two requests.
        for discipline in [
            DispatchDiscipline::Fifo,
            DispatchDiscipline::WeightedFair { weights: [4, 2, 1] },
        ] {
            for closed_clients in [0, 2] {
                let mut cfg = FrontendRun::new(base(16 << 20), 1);
                cfg.discipline = discipline;
                let mut fe = Frontend::new(&cfg).expect("frontend");
                let mut blocked: Vec<ReqToken> = Vec::new();
                let mut parked_peak = 0;
                for i in 0..400u64 {
                    fe.advance_to(i * SECOND / 4);
                    fe.settle_to((i * SECOND / 4).saturating_sub(1))
                        .expect("settle");
                    // Lazily decided requests resolve in the settle.
                    parked_peak = parked_peak.max(fe.pending());
                    assert!(fe.pending() <= blocked.len(), "step {i}");
                    blocked.retain(|&token| fe.take(token).is_none());
                    let request = Request {
                        key_index: i,
                        class: ReqClass::ALL[(i % 3) as usize],
                        ..Default::default()
                    };
                    if blocked.len() < closed_clients {
                        blocked.push(fe.submit(request).expect("submit"));
                    } else {
                        fe.submit_detached(request).expect("submit");
                    }
                    assert!(fe.pending() <= blocked.len(), "step {i}");
                    parked_peak = parked_peak.max(fe.pending());
                }
                fe.settle().expect("settle");
                assert!(fe.pending() <= closed_clients);
                assert_eq!(parked_peak > 0, closed_clients > 0, "{discipline:?}");
                let served: u64 = fe.finish().iter().map(|s| s.load.served).sum();
                assert!(served > 300, "the detached requests were served: {served}");
            }
        }
    }

    #[test]
    fn run_frontend_parks_only_what_blocked_clients_will_collect() {
        use ptsbench_ssd::SECOND;
        // The driver holds itself to that bound after every submission
        // (a `debug_assert!` in its loop): open-loop fleets and a mixed
        // one, eager and lazy.
        for discipline in [
            DispatchDiscipline::Fifo,
            DispatchDiscipline::WeightedFair { weights: [4, 2, 1] },
        ] {
            let tenant = |class, clients, arrival| TenantSpec {
                arrival: Some(arrival),
                ..TenantSpec::new(class, clients)
            };
            let poisson = ArrivalSpec::OpenPoisson {
                mean_interarrival_ns: 4 * SECOND,
            };
            for closed in [false, true] {
                let mut cfg = FrontendRun::new(base(32 << 20), 6);
                cfg.shards = 2;
                cfg.discipline = discipline;
                cfg.tenants = vec![
                    tenant(ReqClass::Interactive, 3, poisson),
                    tenant(
                        ReqClass::Batch,
                        3,
                        if closed {
                            ArrivalSpec::Closed { think_ns: SECOND }
                        } else {
                            poisson
                        },
                    ),
                ];
                let report = run_frontend(&cfg).expect("run");
                assert!(report.ops > 100, "{}", report.render());
            }
        }
    }

    /// The waiting room as the dispatcher kept it before it became
    /// per-class lanes: one `Vec` in arrival order, and every decision
    /// a scan over all of it. Copied from `pump`, `settle_one` and
    /// `select_next` while they were the live code (`issued_at`, which
    /// never differed from `submitted_at` there, is read as the
    /// latter), and kept as the oracle the lanes are held to: the only
    /// scan over waiting requests left in this file.
    mod scan_oracle {
        use super::super::*;

        pub(super) fn earliest(waiting: &[WaitingReq]) -> Option<Ns> {
            waiting.iter().map(|w| w.submitted_at).min()
        }

        pub(super) fn select_next(
            waiting: &[WaitingReq],
            t0: Ns,
            discipline: DispatchDiscipline,
        ) -> usize {
            let candidates = || {
                waiting
                    .iter()
                    .enumerate()
                    .filter(move |(_, w)| w.submitted_at <= t0)
            };
            match discipline {
                DispatchDiscipline::Fifo => {
                    unreachable!("FIFO dispatch decides eagerly at submission")
                }
                DispatchDiscipline::StrictPriority { promote_after_ns } => {
                    let (oldest_idx, oldest) = candidates()
                        .min_by_key(|(_, w)| (w.submitted_at, w.token))
                        .expect("select_next requires a candidate");
                    if t0 - oldest.submitted_at > promote_after_ns {
                        oldest_idx
                    } else {
                        candidates()
                            .min_by_key(|(_, w)| (w.class.priority(), w.submitted_at, w.token))
                            .expect("select_next requires a candidate")
                            .0
                    }
                }
                DispatchDiscipline::WeightedFair { .. } => {
                    candidates()
                        .min_by_key(|(_, w)| (w.finish_tag, w.token))
                        .expect("select_next requires a candidate")
                        .0
                }
            }
        }

        /// A dead shard's drain order.
        pub(super) fn drain(waiting: &mut Vec<WaitingReq>) -> Vec<WaitingReq> {
            let mut rest = std::mem::take(waiting);
            rest.sort_by_key(|w| w.token);
            rest
        }
    }

    /// One arrival of the dispatch model below: class index, virtual ns
    /// since the previous arrival, the shard's service estimate when it
    /// arrives, how long the request occupies the engine once picked
    /// (0: shed at dispatch, the engine stays free), and whether the
    /// driver settles up to the arrival instant first (`run_frontend`
    /// always does; a caller that submits a burst and then blocks does
    /// not, which is what leaves requests in the room that have not yet
    /// arrived at the decision instant).
    type Arrival = (usize, Ns, Ns, Ns, bool);

    fn arrivals() -> impl Strategy<Value = Vec<Arrival>> {
        proptest::collection::vec(
            (
                0usize..3,
                // Mostly same-instant and near-instant arrivals, so ties
                // on time are the common case, not the rare one.
                prop_oneof![3 => Just(0u64), 3 => 0u64..4, 1 => 0u64..40],
                0u64..4,
                0u64..7,
                any::<bool>(),
            ),
            1..160,
        )
    }

    /// Weights on both sides of `WFQ_SCALE` × the largest estimate: past
    /// it a class's tag increment is 0, its tags stand still, and only
    /// the token orders it against the others.
    fn weight() -> impl Strategy<Value = u32> {
        prop_oneof![1u32..10, 900u32..5000, 5000u32..1_000_000]
    }

    /// Replays `arrivals` through the lanes and the scan oracle side by
    /// side under one discipline: the same dispatch instants
    /// (`busy_until.max(earliest)`, bounded by the same horizons), the
    /// same WFQ tags, and after `die_after` decisions the shard dies and
    /// drains. Returns how many decisions were compared.
    fn replay_against_the_scan(
        arrivals: &[Arrival],
        discipline: DispatchDiscipline,
        die_after: usize,
    ) -> Result<usize, TestCaseError> {
        let request = |token, class, at, finish_tag| WaitingReq {
            token: ReqToken(token),
            kind: OpKind::Read,
            key_index: token,
            value: Vec::new(),
            class,
            tenant: 0,
            submitted_at: at,
            finish_tag,
            detached: false,
        };
        let mut lanes = WaitingRoom::default();
        let mut oracle: Vec<WaitingReq> = Vec::new();
        let (mut now, mut busy_until, mut decisions) = (0, 0, 0);
        let (mut vtime, mut last_finish) = (0u128, [0u128; 3]);
        let mut service_of = std::collections::HashMap::new();
        // One extra turn after the last arrival settles without bound.
        for turn in 0..=arrivals.len() {
            let arrival = arrivals.get(turn);
            let horizon = match arrival {
                Some(&(_, gap, _, _, settle_first)) => {
                    now += gap;
                    // Strictly before the arrival instant, as the driver
                    // settles.
                    settle_first.then(|| now.saturating_sub(1))
                }
                None => Some(Ns::MAX),
            };
            while let Some(horizon) = horizon {
                prop_assert_eq!(lanes.len(), oracle.len());
                prop_assert_eq!(lanes.earliest(), scan_oracle::earliest(&oracle));
                let Some(earliest) = lanes.earliest() else {
                    break;
                };
                let t0 = busy_until.max(earliest);
                if t0 > horizon {
                    break;
                }
                if decisions == die_after {
                    let tokens = |drained: Vec<WaitingReq>| -> Vec<ReqToken> {
                        drained.iter().map(|w| w.token).collect()
                    };
                    prop_assert_eq!(
                        tokens(lanes.drain_by_token()),
                        tokens(scan_oracle::drain(&mut oracle)),
                        "a dead shard drains in token order"
                    );
                    prop_assert_eq!(lanes.len(), 0);
                    return Ok(decisions);
                }
                let picked = lanes.pop(select_next(&lanes, t0, discipline));
                let expected = oracle.remove(scan_oracle::select_next(&oracle, t0, discipline));
                prop_assert_eq!(
                    picked.token,
                    expected.token,
                    "decision {} at t0={} under {:?}",
                    decisions,
                    t0,
                    discipline
                );
                decisions += 1;
                if let DispatchDiscipline::WeightedFair { .. } = discipline {
                    vtime = vtime.max(picked.finish_tag);
                }
                busy_until = t0 + service_of[&picked.token];
            }
            let Some(&(class, _, estimate, service, _)) = arrival else {
                break;
            };
            let finish_tag = match discipline {
                DispatchDiscipline::WeightedFair { weights } => {
                    let start = vtime.max(last_finish[class]);
                    let tag = start
                        + u128::from(estimate.max(1)) * WFQ_SCALE / u128::from(weights[class]);
                    last_finish[class] = tag;
                    tag
                }
                _ => 0,
            };
            let token = turn as u64;
            service_of.insert(ReqToken(token), service);
            lanes.push(request(token, ReqClass::ALL[class], now, finish_tag));
            oracle.push(request(token, ReqClass::ALL[class], now, finish_tag));
        }
        Ok(decisions)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// At every decision instant the lanes pick the request the
        /// scanning waiting room picks, and a dead shard drains in the
        /// same order — under weighted fair queueing with
        /// arbitrary weights and under strict priority with arbitrary
        /// promotion bounds, over arbitrary class / arrival-time /
        /// service-estimate sequences.
        #[test]
        fn every_dispatch_decision_is_the_scan_oracles(
            arrivals in arrivals(),
            weights in (weight(), weight(), weight()),
            promote_after_ns in 1u64..12,
            die_after in prop_oneof![0usize..160, Just(usize::MAX)],
        ) {
            for discipline in [
                DispatchDiscipline::WeightedFair { weights: [weights.0, weights.1, weights.2] },
                DispatchDiscipline::StrictPriority { promote_after_ns },
            ] {
                let decisions = replay_against_the_scan(&arrivals, discipline, die_after)?;
                prop_assert!(decisions <= arrivals.len());
            }
        }
    }

    #[test]
    fn bound_binding_requires_matching_counts() {
        let mut cfg = FrontendRun::new(base(32 << 20), 2);
        cfg.binding = ClientBinding::Bound;
        cfg.validate(); // 2 clients, 2 shards: fine
        cfg.clients = 3;
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| cfg.validate()));
        assert!(err.is_err());
    }
}
