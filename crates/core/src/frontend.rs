//! Configuration of virtual-time serving front-end runs.
//!
//! A [`FrontendRun`] describes a *request/response* experiment: `N`
//! logical clients submit requests against a fleet of `M` shared-nothing
//! engine shards through a dispatcher with a bounded per-shard queue —
//! the whole serving path, not just the engine API. The paper's central
//! claim is that fair tree-structure comparison must measure that whole
//! path; at high fan-in the dispatch queue, not the device, becomes the
//! bottleneck (the effect Roh et al. measure and the KVell design
//! works around), and it is invisible to a harness that stops at
//! `PtsEngine`.
//!
//! The *driver* lives in `ptsbench-harness` (`Frontend`,
//! `run_frontend`); this module only derives the per-shard and
//! per-client pieces, keeping `ptsbench-core` free of dispatch
//! mechanics — the same split as [`crate::sharded`].
//!
//! Everything stays deterministic in virtual time: arrivals come from
//! seeded [`ArrivalClock`](ptsbench_workload::ArrivalClock)s, service
//! happens on each shard's private simulated stack, and completions
//! carry `submitted_at`/`issued_at`/`done_at` so queueing delay is
//! separable from device latency in the merged report.

use ptsbench_metrics::{ReqClass, TenantId};
use ptsbench_ssd::Ns;
use ptsbench_workload::{split_seed, ArrivalSpec, WorkloadSpec};

use crate::runner::RunConfig;
use crate::sharded::{ShardedRun, Sharding};

/// Salt decorrelating per-client op streams from per-shard streams
/// (both derive from the base seed via `split_seed`).
const CLIENT_SEED_SALT: u64 = 0xC11E_47F0_57AC_0FFE;

/// Admission-control / load-shedding policy of the serving dispatcher.
///
/// A serving stack is characterized by its goodput-vs-offered-load
/// curve, not its unloaded latency: past saturation an open-loop
/// stream's queue delay grows without bound, and every admitted request
/// makes the tail worse. These policies give the dispatcher the lever
/// that keeps the tail flat — bound the in-flight work and turn the
/// excess away *before* it consumes device time:
///
/// * [`SloPolicy::None`] — admit everything (the pre-SLO behavior,
///   byte-identical reports);
/// * [`SloPolicy::QueueBound`] — reject a request at submission when
///   its shard already holds `max_pending` admitted-but-incomplete
///   requests ([`SloPolicy::UNBOUNDED`] never rejects and is also
///   byte-identical to `None`);
/// * [`SloPolicy::PredictedSojourn`] — reject at submission when the
///   request's predicted queue delay plus an EWMA of observed service
///   times exceeds `deadline_ns` (admission is deterministic, so the
///   prediction equals the actual queue delay — admitted requests are
///   *guaranteed* to start within the deadline);
/// * [`SloPolicy::Deadline`] — admit everything, but shed a request at
///   dispatch time if it is already past its `budget_ns` when the
///   engine would start it (the classic drop-stale-work discipline).
///
/// Rejected requests never reach the shard queue or the device; shed
/// requests queue but never reach the device. Both resolve through the
/// ordinary completion path (`ReqOutcome::Rejected` / `Shed` in the
/// harness) so clients can account every request exactly once.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SloPolicy {
    /// Admit every request — exactly the pre-SLO dispatcher.
    #[default]
    None,
    /// Reject at submission when the shard's pending count has reached
    /// the bound.
    QueueBound {
        /// Maximum admitted-but-incomplete requests per shard before
        /// submissions are rejected. A bound *equal to* the dispatcher
        /// `queue_depth` rejects exactly the submissions that would
        /// otherwise stall on a full queue; bounds *above* the depth
        /// can never trip, because the depth already caps how many
        /// requests are pending at once ([`SloPolicy::UNBOUNDED`] is
        /// the explicit pass-through). The useful range is therefore
        /// `1..=queue_depth`.
        max_pending: usize,
    },
    /// Reject at submission when predicted queue delay + an EWMA of
    /// observed service time exceeds the deadline.
    PredictedSojourn {
        /// Upper bound on the predicted sojourn (queue delay plus
        /// estimated service), in virtual nanoseconds.
        deadline_ns: Ns,
    },
    /// Shed at dispatch time when a request is already older than its
    /// budget by the time the engine would start it.
    Deadline {
        /// Request age budget from submission to service start, in
        /// virtual nanoseconds.
        budget_ns: Ns,
    },
}

impl SloPolicy {
    /// The [`SloPolicy::QueueBound`] bound that never rejects: the
    /// explicit pass-through configuration, byte-identical to
    /// [`SloPolicy::None`] (pinned in `tests/slo_conformance.rs`).
    pub const UNBOUNDED: usize = usize::MAX;

    /// Whether the policy can ever reject or shed a request. Inactive
    /// policies ([`SloPolicy::None`] and an [`SloPolicy::UNBOUNDED`]
    /// queue bound) attach no SLO accounting to reports, keeping them
    /// byte-identical to pre-SLO output.
    pub fn is_active(&self) -> bool {
        !matches!(
            self,
            SloPolicy::None
                | SloPolicy::QueueBound {
                    max_pending: SloPolicy::UNBOUNDED,
                }
        )
    }

    /// The deadline served requests are measured against for SLO
    /// attainment (`None` for policies without one, under which every
    /// served request counts as conformant).
    pub fn deadline_ns(&self) -> Option<Ns> {
        match *self {
            SloPolicy::None | SloPolicy::QueueBound { .. } => None,
            SloPolicy::PredictedSojourn { deadline_ns } => Some(deadline_ns),
            SloPolicy::Deadline { budget_ns } => Some(budget_ns),
        }
    }

    /// Panics with a description if the policy is degenerate.
    pub fn validate(&self) {
        match *self {
            SloPolicy::None => {}
            SloPolicy::QueueBound { max_pending } => {
                assert!(max_pending >= 1, "a zero queue bound rejects everything");
            }
            SloPolicy::PredictedSojourn { deadline_ns } => {
                assert!(deadline_ns > 0, "sojourn deadline must be > 0");
            }
            SloPolicy::Deadline { budget_ns } => {
                assert!(budget_ns > 0, "deadline budget must be > 0");
            }
        }
    }

    /// Short deterministic tag for report labels (`qb8`, `ps50ms`,
    /// `dl2500us`); empty for inactive policies, which must not perturb
    /// labels.
    pub fn label(&self) -> String {
        if !self.is_active() {
            return String::new();
        }
        match *self {
            SloPolicy::None => unreachable!("inactive"),
            SloPolicy::QueueBound { max_pending } => format!("qb{max_pending}"),
            SloPolicy::PredictedSojourn { deadline_ns } => {
                format!("ps{}", fmt_ns_compact(deadline_ns))
            }
            SloPolicy::Deadline { budget_ns } => format!("dl{}", fmt_ns_compact(budget_ns)),
        }
    }
}

/// One [`SloPolicy`] per request class.
///
/// Multi-tenant serving wants different guarantees per class — a tight
/// sojourn deadline for interactive traffic, a lax (or absent) one for
/// batch. A `ClassPolicyMap` is the per-class generalization of the
/// single `slo` field: a uniform map (every lane the same policy) is
/// exactly the old single-policy configuration and renders the same
/// label, so pre-multi-tenant configs written as
/// `fe.slo = policy.into()` stay byte-identical (pinned in
/// `tests/tenant_conformance.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClassPolicyMap {
    policies: [SloPolicy; 3],
}

impl ClassPolicyMap {
    /// The same policy for every class — the single-policy
    /// configuration every pre-multi-tenant call site means.
    pub fn uniform(policy: SloPolicy) -> Self {
        Self {
            policies: [policy; 3],
        }
    }

    /// The policy of `class`.
    pub fn get(&self, class: ReqClass) -> SloPolicy {
        self.policies[class.index()]
    }

    /// Builder-style override of one class's policy.
    pub fn with(mut self, class: ReqClass, policy: SloPolicy) -> Self {
        self.policies[class.index()] = policy;
        self
    }

    /// Whether any class's policy can reject or shed.
    pub fn is_active(&self) -> bool {
        self.policies.iter().any(|p| p.is_active())
    }

    /// Whether every class runs the same policy (the single-policy
    /// shape, labelled exactly like the old `slo` field).
    pub(crate) fn is_uniform(&self) -> bool {
        self.policies[1] == self.policies[0] && self.policies[2] == self.policies[0]
    }

    /// Panics with a description if any class's policy is degenerate.
    pub fn validate(&self) {
        for p in &self.policies {
            p.validate();
        }
    }

    /// Label fragment: the plain policy tag (`qb8`) for uniform maps —
    /// byte-identical to the pre-multi-tenant label — or the active
    /// per-class tags joined with `+` (`int=ps50ms+bat=qb8`) otherwise.
    /// Empty when no class's policy is active.
    pub fn label(&self) -> String {
        if !self.is_active() {
            return String::new();
        }
        if self.is_uniform() {
            return self.policies[0].label();
        }
        ReqClass::ALL
            .into_iter()
            .filter(|c| self.get(*c).is_active())
            .map(|c| format!("{}={}", c.tag(), self.get(c).label()))
            .collect::<Vec<_>>()
            .join("+")
    }
}

impl From<SloPolicy> for ClassPolicyMap {
    fn from(policy: SloPolicy) -> Self {
        Self::uniform(policy)
    }
}

/// The order in which a shard's dispatcher starts queued requests.
///
/// FIFO is the conformant default: with one class it is exactly the
/// pre-multi-tenant dispatcher. The reordering disciplines trade that
/// neutrality for isolation: strict priority always serves the most
/// urgent class (with an age bound so batch work cannot starve
/// forever), weighted fair queueing shares the shard's service capacity
/// in proportion to per-class weights — a Zipfian batch aggressor gets
/// its weight's share and no more, which is what keeps an interactive
/// tenant's p99 queue delay near its isolated baseline (the `fig_tenant`
/// experiment).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DispatchDiscipline {
    /// Serve in submission order, classes interleaved — exactly the
    /// pre-multi-tenant dispatcher.
    #[default]
    Fifo,
    /// Always serve the most urgent class ([`ReqClass::priority`]),
    /// unless some waiting request's age exceeds `promote_after_ns`, in
    /// which case the oldest waiting request is served instead — the
    /// anti-starvation escape hatch that bounds every class's maximum
    /// wait.
    StrictPriority {
        /// Waiting age (submission to service start, virtual ns) past
        /// which a request of *any* class preempts the priority order.
        promote_after_ns: Ns,
    },
    /// Weighted fair queueing over virtual finish times: each class
    /// accrues virtual service inversely proportional to its weight,
    /// and the dispatcher serves the smallest finish tag. A class with
    /// weight 8 gets 8× the service share of a class with weight 1 when
    /// both are backlogged — and the full shard when alone (the
    /// discipline is work-conserving).
    WeightedFair {
        /// Per-class service-share weights, indexed by
        /// [`ReqClass::index`]. All weights must be >= 1.
        weights: [u32; 3],
    },
}

impl DispatchDiscipline {
    /// Whether this is the conformant submission-order dispatcher.
    pub fn is_fifo(&self) -> bool {
        matches!(self, DispatchDiscipline::Fifo)
    }

    /// Panics with a description if the discipline is degenerate.
    pub fn validate(&self) {
        match *self {
            DispatchDiscipline::Fifo => {}
            DispatchDiscipline::StrictPriority { promote_after_ns } => {
                assert!(
                    promote_after_ns > 0,
                    "a zero promotion age serves in pure FIFO age order"
                );
            }
            DispatchDiscipline::WeightedFair { weights } => {
                assert!(
                    weights.iter().all(|&w| w >= 1),
                    "WFQ weights must all be >= 1 (a zero weight starves the class)"
                );
            }
        }
    }

    /// Short deterministic tag for report labels (`sp5ms`, `wfq8-1-1`);
    /// empty for FIFO, which must not perturb labels.
    pub fn label(&self) -> String {
        match *self {
            DispatchDiscipline::Fifo => String::new(),
            DispatchDiscipline::StrictPriority { promote_after_ns } => {
                format!("sp{}", fmt_ns_compact(promote_after_ns))
            }
            DispatchDiscipline::WeightedFair { weights } => {
                format!("wfq{}-{}-{}", weights[0], weights[1], weights[2])
            }
        }
    }
}

/// A tenant's token-bucket quota, in requests (not bytes): sustained
/// rate plus burst headroom. Enforced *before* admission control — an
/// over-quota submission resolves as `Throttled` without ever touching
/// the shard queue or the device, so one tenant's excess cannot consume
/// capacity another tenant's SLO depends on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantQuota {
    /// Sustained request rate (requests per virtual second). Zero is
    /// the explicit deny-all quota.
    pub rate_ops_per_sec: u64,
    /// Burst capacity above the sustained rate, in requests. The bucket
    /// starts full, so over any window `W` the tenant is admitted at
    /// most `rate·W + burst` requests (exactly — the strict bucket
    /// never overdrafts).
    pub burst_ops: u64,
}

/// One tenant: a block of clients sharing a class, an optional quota,
/// and an optional arrival-process override.
///
/// Tenants partition the run's clients in declaration order: the first
/// spec owns clients `0..clients`, the next the following block, and so
/// on; the blocks must sum to the run's `clients`. A run with no
/// tenants has one implicit tenant: every client, interactive, no
/// quota — exactly the pre-multi-tenant front-end.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// The request class every op this tenant submits is tagged with.
    pub class: ReqClass,
    /// How many of the run's clients belong to this tenant.
    pub clients: usize,
    /// Token-bucket quota (`None` = unthrottled).
    pub quota: Option<TenantQuota>,
    /// Arrival-process override for this tenant's clients (`None` =
    /// the run's shared [`FrontendRun::arrival`]). This is how a paced
    /// interactive tenant and a closed-loop batch aggressor share one
    /// run.
    pub arrival: Option<ArrivalSpec>,
}

impl TenantSpec {
    /// An unthrottled tenant of `clients` clients in `class`, using the
    /// run's shared arrival process.
    pub fn new(class: ReqClass, clients: usize) -> Self {
        Self {
            class,
            clients,
            quota: None,
            arrival: None,
        }
    }
}

/// Renders a duration with the coarsest exact unit (`50ms`, `2500us`,
/// `123ns`) so policy labels stay readable and deterministic.
fn fmt_ns_compact(ns: Ns) -> String {
    if ns.is_multiple_of(ptsbench_ssd::MILLISECOND) {
        format!("{}ms", ns / ptsbench_ssd::MILLISECOND)
    } else if ns.is_multiple_of(ptsbench_ssd::MICROSECOND) {
        format!("{}us", ns / ptsbench_ssd::MICROSECOND)
    } else {
        format!("{ns}ns")
    }
}

/// How logical clients pick the keys of their requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClientBinding {
    /// Every client draws from the **whole** key space (so a skewed
    /// distribution concentrates traffic on hot keys) and the
    /// dispatcher routes each request to the shard owning its key.
    /// The serving default.
    #[default]
    Routed,
    /// Client `i` draws exactly shard `i`'s workload slice and routes
    /// only to shard `i` (requires `clients == shards`). This is the
    /// conformance configuration: with a closed loop, zero think time
    /// and queue depth 1 it reproduces the sharded harness — and
    /// therefore the direct [`crate::measure::Experiment`] path —
    /// byte-identically (see `tests/latency_conformance.rs`).
    Bound,
}

/// A serving-path experiment: `clients` logical clients over `shards`
/// engine shards behind a bounded dispatcher, in virtual time.
#[derive(Debug, Clone)]
pub struct FrontendRun {
    /// The experiment template. `device_bytes` is the total simulated
    /// capacity across shards; `duration` bounds *submissions* (every
    /// request submitted before the deadline is still drained).
    /// `stop_when_steady` is not supported on the serving path.
    pub base: RunConfig,
    /// Logical clients submitting requests (the fan-in). Unlike the
    /// sharded harness's `clients`, these are simulated — no OS threads.
    pub clients: usize,
    /// Engine shards (each its own device slice + engine instance).
    pub shards: usize,
    /// Key-to-shard routing (contiguous slices by default).
    pub sharding: Sharding,
    /// The request arrival process of each client.
    pub arrival: ArrivalSpec,
    /// How clients pick keys ([`ClientBinding::Routed`] by default).
    pub binding: ClientBinding,
    /// Per-shard dispatcher bound: at most this many requests may be
    /// admitted to one shard and not yet completed; submissions beyond
    /// it stall (in virtual time) until a slot frees, exactly like a
    /// full `IoQueue`. Depth 1 serializes the shard completely.
    pub queue_depth: usize,
    /// Admission-control / load-shedding policy at the dispatcher, per
    /// request class (uniformly [`SloPolicy::None`] — admit everything
    /// — by default). Single-policy call sites assign
    /// `policy.into()`.
    pub slo: ClassPolicyMap,
    /// The order in which each shard's dispatcher starts queued
    /// requests ([`DispatchDiscipline::Fifo`] — submission order, the
    /// pre-multi-tenant dispatcher — by default).
    pub discipline: DispatchDiscipline,
    /// The run's tenants, partitioning its clients in declaration
    /// order. Empty (the default) means one implicit tenant: every
    /// client, [`ReqClass::Interactive`], no quota — exactly the
    /// pre-multi-tenant front-end.
    pub tenants: Vec<TenantSpec>,
}

impl FrontendRun {
    /// A front-end run with one shard per client, closed-loop arrivals
    /// with zero think time, routed keys, and a dispatcher depth of 16.
    pub fn new(base: RunConfig, clients: usize) -> Self {
        Self {
            base,
            clients,
            shards: clients,
            sharding: Sharding::default(),
            arrival: ArrivalSpec::Closed { think_ns: 0 },
            binding: ClientBinding::default(),
            queue_depth: 16,
            slo: ClassPolicyMap::default(),
            discipline: DispatchDiscipline::Fifo,
            tenants: Vec::new(),
        }
    }

    /// The conformance configuration over `n` shards: `n` bound
    /// clients, closed loop, zero think, queue depth 1, no admission
    /// control — the front-end run that must reproduce `run_sharded`
    /// (and through it the direct `Experiment` path) byte-identically.
    pub fn conformant(base: RunConfig, n: usize) -> Self {
        Self {
            base,
            clients: n,
            shards: n,
            sharding: Sharding::default(),
            arrival: ArrivalSpec::Closed { think_ns: 0 },
            binding: ClientBinding::Bound,
            queue_depth: 1,
            slo: ClassPolicyMap::default(),
            discipline: DispatchDiscipline::Fifo,
            tenants: Vec::new(),
        }
    }

    /// Whether this configuration is the depth-1 equivalence shape:
    /// bound clients, closed loop, zero think time, queue depth 1, an
    /// inactive admission policy, and no multi-tenant machinery.
    /// Conformant runs attach no queue-delay or load metrics to the
    /// report, so their render diffs empty against `run_sharded`.
    pub fn is_conformant(&self) -> bool {
        self.binding == ClientBinding::Bound
            && self.arrival == ArrivalSpec::Closed { think_ns: 0 }
            && self.queue_depth == 1
            && !self.slo.is_active()
            && !self.mt_active()
    }

    /// Whether multi-tenant accounting is live: tenants declared, a
    /// reordering discipline configured, or per-class (non-uniform)
    /// admission policies. Inactive multi-tenancy attaches no
    /// [`ptsbench_metrics::MtStats`] to reports and adds nothing to
    /// labels, keeping class-less runs byte-identical to
    /// pre-multi-tenant output.
    pub fn mt_active(&self) -> bool {
        !self.tenants.is_empty() || !self.discipline.is_fifo() || !self.slo.is_uniform()
    }

    /// The tenant owning client `client` (tenants partition clients in
    /// declaration order; tenant 0 when none are declared).
    pub fn tenant_of_client(&self, client: usize) -> TenantId {
        assert!(client < self.clients, "client {client} out of range");
        let mut start = 0usize;
        for (id, t) in self.tenants.iter().enumerate() {
            if client < start + t.clients {
                return id as TenantId;
            }
            start += t.clients;
        }
        0
    }

    /// The request class client `client` submits
    /// ([`ReqClass::Interactive`] when no tenants are declared).
    pub fn client_class(&self, client: usize) -> ReqClass {
        if self.tenants.is_empty() {
            assert!(client < self.clients, "client {client} out of range");
            return ReqClass::default();
        }
        self.tenants[self.tenant_of_client(client) as usize].class
    }

    /// The arrival process of client `client`: its tenant's override
    /// when one is declared, the run's shared process otherwise.
    pub fn client_arrival(&self, client: usize) -> ArrivalSpec {
        if self.tenants.is_empty() {
            assert!(client < self.clients, "client {client} out of range");
            return self.arrival;
        }
        self.tenants[self.tenant_of_client(client) as usize]
            .arrival
            .unwrap_or(self.arrival)
    }

    /// Panics with a description if the configuration is inconsistent.
    pub fn validate(&self) {
        assert!(self.clients > 0, "need at least one client");
        assert!(self.shards > 0, "need at least one shard");
        assert!(self.queue_depth >= 1, "dispatcher depth must be >= 1");
        self.arrival.validate();
        self.slo.validate();
        self.discipline.validate();
        if !self.tenants.is_empty() {
            let mut sum = 0usize;
            for t in &self.tenants {
                assert!(t.clients > 0, "a tenant needs at least one client");
                if let Some(arrival) = &t.arrival {
                    arrival.validate();
                }
                sum += t.clients;
            }
            assert_eq!(
                sum, self.clients,
                "tenant client blocks must partition the run's clients"
            );
        }
        assert!(
            !self.base.stop_when_steady,
            "stop_when_steady is a closed single-client criterion; \
             the serving front-end does not support it"
        );
        if self.binding == ClientBinding::Bound {
            assert_eq!(
                self.clients, self.shards,
                "bound clients map one-to-one onto shards"
            );
        }
        // Shard slicing constraints are the sharded harness's.
        self.topology().validate();
    }

    /// The equivalent [`ShardedRun`] topology (one driver client per
    /// shard): the front-end reuses its capacity slicing, per-shard
    /// configurations and workload splitting verbatim, so a shard
    /// behind the dispatcher is *the same simulation* as a shard in the
    /// concurrent harness.
    pub fn topology(&self) -> ShardedRun {
        let mut sharded = ShardedRun::new(self.base.clone(), self.shards);
        sharded.sharding = self.sharding;
        sharded
    }

    /// Shard `index`'s run configuration (equal capacity slice,
    /// identically sliced reference scale).
    pub fn shard_config(&self, index: usize) -> RunConfig {
        self.topology().shard_config(index)
    }

    /// Shard `index`'s slice of the global workload.
    pub fn shard_workload(&self, index: usize) -> WorkloadSpec {
        self.topology().shard_workload(index)
    }

    /// The op-stream specification client `client` generates from:
    /// shard `client`'s slice for [`ClientBinding::Bound`], the whole
    /// key space with a decorrelated per-client seed for
    /// [`ClientBinding::Routed`].
    pub fn client_workload(&self, client: usize) -> WorkloadSpec {
        assert!(client < self.clients, "client {client} out of range");
        match self.binding {
            ClientBinding::Bound => self.shard_workload(client),
            ClientBinding::Routed => {
                let global = self.base.workload();
                WorkloadSpec {
                    seed: split_seed(global.seed ^ CLIENT_SEED_SALT, client as u64),
                    ..global
                }
            }
        }
    }

    /// The arrival-clock seed of client `client` (decorrelated from
    /// both op streams and shard seeds).
    pub fn client_arrival_seed(&self, client: usize) -> u64 {
        split_seed(
            self.base.seed ^ CLIENT_SEED_SALT.rotate_left(17),
            client as u64,
        )
    }

    /// Contiguous-slice upper bounds, one per shard: shard `i` owns
    /// keys in `[bounds[i-1], bounds[i])` (with `bounds[-1] = key_base`).
    /// Used by the dispatcher for O(log shards) contiguous routing;
    /// hashed routing needs no table.
    pub fn slice_bounds(&self) -> Vec<u64> {
        (0..self.shards)
            .map(|i| self.shard_workload(i).key_end())
            .collect()
    }

    /// Barrier-free virtual duration of the submission window.
    pub fn duration(&self) -> Ns {
        self.base.duration
    }

    /// Human-readable label for report headers. Conformant runs use the
    /// sharded harness's label verbatim (they *are* that run, served
    /// through one more layer); all other shapes append the fan-in,
    /// arrival process and dispatcher depth, plus the admission policy
    /// when one is active and a `/mt` segment when multi-tenancy is
    /// (inactive policies, FIFO dispatch and an empty tenant table must
    /// not perturb labels).
    pub fn label(&self) -> String {
        let topo = self.topology().label();
        if self.is_conformant() {
            topo
        } else {
            let mut label = format!(
                "{}/fan{}/{}/d{}",
                topo,
                self.clients,
                self.arrival.label(),
                self.queue_depth
            );
            if self.slo.is_active() {
                label.push_str(&format!("/slo-{}", self.slo.label()));
            }
            if self.mt_active() {
                label.push_str("/mt");
                if !self.tenants.is_empty() {
                    label.push_str(&self.tenants.len().to_string());
                }
                if !self.discipline.is_fifo() {
                    label.push('-');
                    label.push_str(&self.discipline.label());
                }
            }
            label
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::EngineKind;
    use ptsbench_workload::KeyDistribution;

    fn base() -> RunConfig {
        RunConfig {
            engine: EngineKind::lsm(),
            device_bytes: 64 << 20,
            ..RunConfig::default()
        }
    }

    #[test]
    fn conformant_shape_matches_the_sharded_label() {
        let fe = FrontendRun::conformant(base(), 4);
        fe.validate();
        assert!(fe.is_conformant());
        assert_eq!(fe.label(), ShardedRun::new(base(), 4).label());
        for i in 0..4 {
            assert_eq!(
                fe.shard_workload(i),
                ShardedRun::new(base(), 4).shard_workload(i)
            );
            assert_eq!(
                fe.client_workload(i),
                fe.shard_workload(i),
                "bound client {i} drives its shard's slice"
            );
        }
    }

    #[test]
    fn any_departure_from_the_conformant_shape_is_labelled() {
        let mut fe = FrontendRun::conformant(base(), 2);
        fe.queue_depth = 8;
        assert!(!fe.is_conformant());
        assert!(fe.label().contains("/fan2/closed/d8"), "{}", fe.label());

        let mut fe = FrontendRun::new(base(), 4);
        fe.shards = 2;
        fe.sharding = Sharding::Hashed;
        fe.arrival = ArrivalSpec::OpenPoisson {
            mean_interarrival_ns: 1_000_000,
        };
        fe.validate();
        let label = fe.label();
        assert!(label.contains("/hash"), "{label}");
        assert!(label.contains("/fan4/poisson1000000/d16"), "{label}");
    }

    #[test]
    fn routed_clients_draw_from_the_whole_space_with_distinct_seeds() {
        let mut fe = FrontendRun::new(base(), 3);
        fe.shards = 1;
        fe.base.distribution = KeyDistribution::Zipfian { theta: 0.99 };
        fe.validate();
        let global = fe.base.workload();
        let specs: Vec<WorkloadSpec> = (0..3).map(|c| fe.client_workload(c)).collect();
        for (c, spec) in specs.iter().enumerate() {
            assert_eq!(spec.num_keys, global.num_keys, "client {c} sees all keys");
            assert_eq!(spec.key_base, global.key_base);
            assert_eq!(spec.distribution, global.distribution);
            assert_ne!(spec.seed, global.seed, "client {c} seed decorrelated");
        }
        assert_ne!(specs[0].seed, specs[1].seed);
        assert_ne!(fe.client_arrival_seed(0), fe.client_arrival_seed(1));
        assert_ne!(specs[0].seed, fe.client_arrival_seed(0));
    }

    #[test]
    fn slice_bounds_tile_the_key_space() {
        let mut fe = FrontendRun::new(base(), 4);
        fe.shards = 4;
        let bounds = fe.slice_bounds();
        assert_eq!(bounds.len(), 4);
        assert_eq!(*bounds.last().unwrap(), fe.base.workload().key_end());
        for pair in bounds.windows(2) {
            assert!(pair[0] < pair[1]);
        }
    }

    #[test]
    #[should_panic(expected = "one-to-one")]
    fn bound_clients_must_match_shards() {
        let mut fe = FrontendRun::new(base(), 4);
        fe.shards = 2;
        fe.binding = ClientBinding::Bound;
        fe.validate();
    }

    #[test]
    #[should_panic(expected = "does not support")]
    fn steady_state_early_exit_is_rejected() {
        let mut fe = FrontendRun::new(base(), 2);
        fe.base.stop_when_steady = true;
        fe.validate();
    }

    #[test]
    fn inactive_policies_perturb_neither_labels_nor_conformance() {
        let plain = FrontendRun::new(base(), 4);
        assert_eq!(plain.slo, ClassPolicyMap::default());
        assert_eq!(plain.slo, SloPolicy::None.into());
        assert!(!plain.slo.is_active());
        assert_eq!(plain.slo.label(), "");

        let mut unbounded = FrontendRun::new(base(), 4);
        unbounded.slo = SloPolicy::QueueBound {
            max_pending: SloPolicy::UNBOUNDED,
        }
        .into();
        unbounded.validate();
        assert!(!unbounded.slo.is_active());
        assert_eq!(unbounded.label(), plain.label());

        let mut conformant = FrontendRun::conformant(base(), 2);
        conformant.slo = SloPolicy::QueueBound {
            max_pending: SloPolicy::UNBOUNDED,
        }
        .into();
        assert!(
            conformant.is_conformant(),
            "an unbounded queue bound is still the conformance shape"
        );
    }

    #[test]
    fn active_policies_are_labelled_and_break_conformance() {
        let mut fe = FrontendRun::new(base(), 4);
        fe.slo = SloPolicy::QueueBound { max_pending: 8 }.into();
        fe.validate();
        assert!(fe.slo.is_active());
        assert!(fe.label().ends_with("/slo-qb8"), "{}", fe.label());
        assert_eq!(fe.slo.get(ReqClass::Interactive).deadline_ns(), None);

        fe.slo = SloPolicy::PredictedSojourn {
            deadline_ns: 50 * ptsbench_ssd::MILLISECOND,
        }
        .into();
        assert!(fe.label().ends_with("/slo-ps50ms"), "{}", fe.label());
        assert_eq!(
            fe.slo.get(ReqClass::Batch).deadline_ns(),
            Some(50 * ptsbench_ssd::MILLISECOND)
        );

        fe.slo = SloPolicy::Deadline {
            budget_ns: 2_500 * ptsbench_ssd::MICROSECOND,
        }
        .into();
        assert!(fe.label().ends_with("/slo-dl2500us"), "{}", fe.label());
        assert_eq!(
            fe.slo.get(ReqClass::Background).deadline_ns(),
            Some(2_500 * ptsbench_ssd::MICROSECOND)
        );

        fe.slo = SloPolicy::Deadline { budget_ns: 123 }.into();
        assert!(fe.label().ends_with("/slo-dl123ns"), "{}", fe.label());

        let mut conformant = FrontendRun::conformant(base(), 2);
        conformant.slo = SloPolicy::QueueBound { max_pending: 1 }.into();
        assert!(!conformant.is_conformant());
    }

    #[test]
    #[should_panic(expected = "rejects everything")]
    fn zero_queue_bound_is_rejected() {
        let mut fe = FrontendRun::new(base(), 2);
        fe.slo = SloPolicy::QueueBound { max_pending: 0 }.into();
        fe.validate();
    }

    #[test]
    #[should_panic(expected = "deadline must be > 0")]
    fn zero_sojourn_deadline_is_rejected() {
        let mut fe = FrontendRun::new(base(), 2);
        fe.slo = SloPolicy::PredictedSojourn { deadline_ns: 0 }.into();
        fe.validate();
    }

    #[test]
    #[should_panic(expected = "budget must be > 0")]
    fn zero_deadline_budget_is_rejected() {
        let mut fe = FrontendRun::new(base(), 2);
        fe.slo = SloPolicy::Deadline { budget_ns: 0 }.into();
        fe.validate();
    }

    #[test]
    fn class_policy_maps_generalize_the_single_policy() {
        let uniform = ClassPolicyMap::uniform(SloPolicy::QueueBound { max_pending: 8 });
        assert!(uniform.is_uniform());
        assert!(uniform.is_active());
        assert_eq!(uniform.label(), "qb8", "uniform maps keep the old tag");

        let split = ClassPolicyMap::default()
            .with(
                ReqClass::Interactive,
                SloPolicy::PredictedSojourn {
                    deadline_ns: 50 * ptsbench_ssd::MILLISECOND,
                },
            )
            .with(ReqClass::Batch, SloPolicy::QueueBound { max_pending: 8 });
        assert!(!split.is_uniform());
        assert!(split.is_active());
        assert_eq!(split.label(), "int=ps50ms+bat=qb8");
        assert_eq!(split.get(ReqClass::Background), SloPolicy::None);

        // A non-uniform map turns multi-tenant accounting on by itself.
        let mut fe = FrontendRun::new(base(), 4);
        assert!(!fe.mt_active());
        fe.slo = split;
        fe.validate();
        assert!(fe.mt_active());
        assert!(
            fe.label().contains("/slo-int=ps50ms+bat=qb8"),
            "{}",
            fe.label()
        );
        assert!(fe.label().ends_with("/mt"), "{}", fe.label());
    }

    #[test]
    fn disciplines_label_and_validate() {
        assert!(DispatchDiscipline::default().is_fifo());
        assert_eq!(DispatchDiscipline::Fifo.label(), "");

        let sp = DispatchDiscipline::StrictPriority {
            promote_after_ns: 5 * ptsbench_ssd::MILLISECOND,
        };
        sp.validate();
        assert_eq!(sp.label(), "sp5ms");

        let wfq = DispatchDiscipline::WeightedFair { weights: [8, 1, 1] };
        wfq.validate();
        assert_eq!(wfq.label(), "wfq8-1-1");

        let mut fe = FrontendRun::new(base(), 4);
        fe.discipline = wfq;
        fe.validate();
        assert!(fe.mt_active());
        assert!(fe.label().ends_with("/mt-wfq8-1-1"), "{}", fe.label());

        let mut conformant = FrontendRun::conformant(base(), 2);
        conformant.discipline = sp;
        assert!(!conformant.is_conformant(), "reordering breaks conformance");
    }

    #[test]
    #[should_panic(expected = "starves the class")]
    fn zero_wfq_weights_are_rejected() {
        let mut fe = FrontendRun::new(base(), 2);
        fe.discipline = DispatchDiscipline::WeightedFair { weights: [8, 0, 1] };
        fe.validate();
    }

    #[test]
    #[should_panic(expected = "zero promotion age")]
    fn zero_promotion_age_is_rejected() {
        let mut fe = FrontendRun::new(base(), 2);
        fe.discipline = DispatchDiscipline::StrictPriority {
            promote_after_ns: 0,
        };
        fe.validate();
    }

    #[test]
    fn tenants_partition_clients_in_declaration_order() {
        let mut fe = FrontendRun::new(base(), 6);
        fe.shards = 2;
        fe.tenants = vec![
            TenantSpec::new(ReqClass::Interactive, 2),
            TenantSpec {
                class: ReqClass::Batch,
                clients: 4,
                quota: Some(TenantQuota {
                    rate_ops_per_sec: 1_000,
                    burst_ops: 50,
                }),
                arrival: Some(ArrivalSpec::Closed { think_ns: 0 }),
            },
        ];
        fe.arrival = ArrivalSpec::OpenPoisson {
            mean_interarrival_ns: 1_000_000,
        };
        fe.validate();
        assert!(fe.mt_active());
        assert!(!fe.is_conformant());
        for c in 0..2 {
            assert_eq!(fe.tenant_of_client(c), 0);
            assert_eq!(fe.client_class(c), ReqClass::Interactive);
            assert_eq!(
                fe.client_arrival(c),
                ArrivalSpec::OpenPoisson {
                    mean_interarrival_ns: 1_000_000
                },
                "no override falls back to the shared arrival process"
            );
        }
        for c in 2..6 {
            assert_eq!(fe.tenant_of_client(c), 1);
            assert_eq!(fe.client_class(c), ReqClass::Batch);
            assert_eq!(fe.client_arrival(c), ArrivalSpec::Closed { think_ns: 0 });
        }
        assert!(fe.label().contains("/mt2"), "{}", fe.label());
    }

    #[test]
    fn an_empty_tenant_table_is_the_implicit_single_tenant() {
        let fe = FrontendRun::new(base(), 3);
        assert!(!fe.mt_active());
        for c in 0..3 {
            assert_eq!(fe.tenant_of_client(c), 0);
            assert_eq!(fe.client_class(c), ReqClass::Interactive);
            assert_eq!(fe.client_arrival(c), fe.arrival);
        }
    }

    #[test]
    #[should_panic(expected = "partition the run's clients")]
    fn tenant_blocks_must_sum_to_the_fan_in() {
        let mut fe = FrontendRun::new(base(), 6);
        fe.tenants = vec![TenantSpec::new(ReqClass::Interactive, 2)];
        fe.validate();
    }
}
