//! Property tests of the multi-tenant serving front-end.
//!
//! Arbitrary request streams — random classes, tenants, kinds, keys,
//! inter-submission gaps, shard counts, dispatch disciplines and
//! tenant quotas — must uphold the subsystem's contracts:
//!
//! 1. **exactly-once resolution, now with throttling**: every
//!    submitted request produces exactly one completion, and
//!    `Throttled` appears only for tenants that declared a quota;
//! 2. **throttled work is free**: a throttled request is never queued
//!    (`issued_at == submitted_at`, fixed `REJECT_LATENCY` turnaround)
//!    and consumes no device time;
//! 3. **the token bucket is a hard window invariant**: over the whole
//!    run a quota'd tenant is admitted at most
//!    `rate · elapsed + burst` requests, exactly — and its ledger
//!    closes (`offered == admitted + throttled`, summed across
//!    shards);
//! 4. **class lanes sum to the shard**: per shard, every counter of
//!    the per-class `SloStats` lanes sums to the shard-level counter,
//!    and each lane's queue-delay histogram holds exactly its served
//!    count;
//! 5. **dispatch never reorders within a class**: under FIFO, strict
//!    priority *and* weighted fair queueing, same-class requests on a
//!    shard start service in submission order — the structural
//!    guarantee that no discipline starves a request in favor of its
//!    own classmates;
//! 6. **promotion serves the oldest**: under strict priority, a
//!    lower-priority request starts ahead of a waiting higher-priority
//!    one only when it is the oldest waiting request on the shard and
//!    its age exceeds `promote_after_ns`.
//!
//! A plain unit test at the bottom exercises the `RateBudget`
//! re-export shared with the maintenance scheduler: one bucket,
//! interleaved overdraft (maintenance) and strict (tenant) charges.

use proptest::prelude::*;

use ptsbench_core::frontend::{DispatchDiscipline, FrontendRun, TenantQuota, TenantSpec};
use ptsbench_core::registry::EngineKind;
use ptsbench_core::runner::RunConfig;
use ptsbench_core::sharded::Sharding;
use ptsbench_core::ReqClass;
use ptsbench_harness::{Frontend, ReqCompletion, ReqOutcome, Request, REJECT_LATENCY};
use ptsbench_ssd::{Ns, MILLISECOND, MINUTE, SECOND};
use ptsbench_workload::OpKind;

/// A small stack per case: 16 MiB shards, thin dataset, two tenants —
/// tenant 0 unthrottled, tenant 1 behind a token bucket.
fn config(
    shards: usize,
    hashed: bool,
    discipline: DispatchDiscipline,
    quota: TenantQuota,
) -> FrontendRun {
    let mut cfg = FrontendRun::new(
        RunConfig {
            engine: EngineKind::lsm(),
            device_bytes: (shards as u64) * (16 << 20),
            dataset_fraction: 0.1,
            duration: 30 * MINUTE,
            sample_window: 10 * MINUTE,
            ..RunConfig::default()
        },
        2,
    );
    cfg.shards = shards;
    cfg.sharding = if hashed {
        Sharding::Hashed
    } else {
        Sharding::Contiguous
    };
    cfg.discipline = discipline;
    let mut throttled = TenantSpec::new(ReqClass::Batch, 1);
    throttled.quota = Some(quota);
    cfg.tenants = vec![TenantSpec::new(ReqClass::Interactive, 1), throttled];
    cfg.validate();
    cfg
}

/// One of the three disciplines, drawn from an index + parameters.
fn discipline(which: u8, promote_ms: u64, weights: [u32; 3]) -> DispatchDiscipline {
    match which % 3 {
        0 => DispatchDiscipline::Fifo,
        1 => DispatchDiscipline::StrictPriority {
            promote_after_ns: promote_ms * MILLISECOND,
        },
        _ => DispatchDiscipline::WeightedFair { weights },
    }
}

fn class(index: u64) -> ReqClass {
    ReqClass::ALL[(index % 3) as usize]
}

/// Service start of a served completion (the dispatch instant).
fn start(c: &ReqCompletion) -> Ns {
    c.done_at - c.service_ns
}

/// SplitMix64 — the deterministic stream driving each case's requests.
fn splitmix(state: &mut u64, bound: u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) % bound
}

/// Drives `ops` random submissions through a fresh front-end and
/// returns the completions plus the per-shard results.
fn drive(
    cfg: &FrontendRun,
    ops: usize,
    seed: u64,
) -> (
    Vec<ReqCompletion>,
    Vec<ptsbench_harness::FrontendShardResult>,
    Ns,
) {
    let num_keys = cfg.base.workload().num_keys;
    let mut frontend = Frontend::new(cfg).expect("frontend");
    let mut rng = seed;
    let mut collected = Vec::new();
    for _ in 0..ops {
        frontend.advance_to(frontend.now() + splitmix(&mut rng, 2 * SECOND));
        let kind = if splitmix(&mut rng, 2) == 0 {
            OpKind::Read
        } else {
            OpKind::Update
        };
        frontend
            .submit(Request {
                kind,
                key_index: splitmix(&mut rng, num_keys),
                value: if kind == OpKind::Update {
                    vec![0xAB; 32]
                } else {
                    Vec::new()
                },
                class: class(splitmix(&mut rng, 3)),
                tenant: splitmix(&mut rng, 2) as u32,
            })
            .expect("submit");
        if splitmix(&mut rng, 4) == 0 {
            if let Some(c) = frontend.poll() {
                collected.push(c);
            }
        }
    }
    let last_submit = frontend.now();
    collected.extend(frontend.wait_all().expect("wait"));
    assert_eq!(frontend.pending(), 0);
    (collected, frontend.finish(), last_submit)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Contracts 1–4: exactly-once with throttling, free throttled
    /// work, the token-bucket window invariant, and lane-sum
    /// accounting — under every discipline.
    #[test]
    fn tenant_quotas_throttle_exactly_and_lanes_sum_to_the_shard(
        shards in 1usize..4,
        hashed in any::<bool>(),
        which_disc in any::<u8>(),
        promote_ms in 1u64..3_000,
        w0 in 1u32..9, w1 in 1u32..9, w2 in 1u32..9,
        rate in 0u64..40,
        burst in 0u64..8,
        ops in 40usize..160,
        seed in any::<u64>(),
    ) {
        let quota = TenantQuota { rate_ops_per_sec: rate, burst_ops: burst };
        let cfg = config(shards, hashed, discipline(which_disc, promote_ms, [w0, w1, w2]), quota);
        let (collected, results, last_submit) = drive(&cfg, ops, seed);

        // 1. Exactly-once, and Throttled only from the quota'd tenant.
        prop_assert_eq!(collected.len(), ops, "every request resolves");
        let mut tokens: Vec<_> = collected.iter().map(|c| c.token).collect();
        tokens.sort();
        tokens.dedup();
        prop_assert_eq!(tokens.len(), ops, "no token resolves twice");
        for c in &collected {
            if c.outcome == ReqOutcome::Throttled {
                prop_assert_eq!(c.tenant, 1, "only the quota'd tenant throttles: {:?}", c);
                // 2. Throttled work is free.
                prop_assert_eq!(c.service_ns, 0, "{:?}", c);
                prop_assert_eq!(c.issued_at, c.submitted_at, "never queued: {:?}", c);
                prop_assert_eq!(c.done_at, c.submitted_at + REJECT_LATENCY, "{:?}", c);
            }
        }

        // 3. The hard window invariant: tenant 1 passed the bucket at
        // most rate·elapsed + burst times (the bucket starts full at
        // t = 0 and the last charge is at `last_submit`).
        let admitted_1 = collected
            .iter()
            .filter(|c| c.tenant == 1 && c.outcome != ReqOutcome::Throttled)
            .count() as u64;
        let allowance =
            (last_submit as u128 * rate as u128 / 1_000_000_000) as u64 + burst;
        prop_assert!(
            admitted_1 <= allowance,
            "bucket overdraft: {admitted_1} > {allowance} (rate {rate}, burst {burst})"
        );

        // ...and the fleet-summed ledgers close against the stream.
        let mut ledgers = [(0u64, 0u64, 0u64); 2];
        for shard in &results {
            for (id, t) in shard.mt.tenants.iter().enumerate() {
                ledgers[id].0 += t.offered;
                ledgers[id].1 += t.admitted;
                ledgers[id].2 += t.throttled;
            }
        }
        for (id, (offered, admitted, throttled)) in ledgers.iter().enumerate() {
            let sent = collected.iter().filter(|c| c.tenant == id as u32).count() as u64;
            prop_assert_eq!(*offered, sent, "tenant {} ledger covers its stream", id);
            prop_assert_eq!(*offered, admitted + throttled, "tenant {} ledger closes", id);
        }
        prop_assert_eq!(ledgers[1].1, admitted_1);
        prop_assert_eq!(ledgers[0].2, 0, "no quota, no throttling");

        // 4. Per shard, class lanes sum to the shard-level counters,
        // and each lane's queue-delay histogram is exactly its served
        // set.
        for shard in &results {
            let lanes = &shard.mt.classes;
            let sum = |f: fn(&ptsbench_metrics::SloStats) -> u64| {
                lanes.iter().map(|l| f(&l.slo)).sum::<u64>()
            };
            prop_assert_eq!(sum(|s| s.offered), shard.slo.offered);
            prop_assert_eq!(sum(|s| s.admitted), shard.slo.admitted);
            prop_assert_eq!(sum(|s| s.rejected), shard.slo.rejected);
            prop_assert_eq!(sum(|s| s.shed), shard.slo.shed);
            prop_assert_eq!(sum(|s| s.throttled), shard.slo.throttled);
            prop_assert_eq!(sum(|s| s.served), shard.slo.served);
            for lane in lanes {
                prop_assert_eq!(lane.queue_delay.count(), lane.slo.served);
            }
        }
    }

    /// Contracts 5–6: no discipline reorders a class against itself,
    /// and strict-priority inversions happen only through promotion of
    /// the oldest waiting request. (No admission policy here: every
    /// admitted request runs, so the waiting room is fully
    /// reconstructible from the completions.)
    #[test]
    fn dispatch_preserves_class_order_and_promotes_only_the_oldest(
        shards in 1usize..3,
        hashed in any::<bool>(),
        which_disc in any::<u8>(),
        promote_ms in 1u64..3_000,
        w0 in 1u32..9, w1 in 1u32..9, w2 in 1u32..9,
        ops in 40usize..120,
        seed in any::<u64>(),
    ) {
        let disc = discipline(which_disc, promote_ms, [w0, w1, w2]);
        // A burst far beyond the op count: the quota machinery is wired
        // in but never throttles, so every submission is admitted and
        // the waiting room is reconstructible from the completions.
        let quota = TenantQuota { rate_ops_per_sec: 1, burst_ops: 1 << 20 };
        let cfg = config(shards, hashed, disc, quota);
        let (collected, _, _) = drive(&cfg, ops, seed);

        let served: Vec<&ReqCompletion> = collected
            .iter()
            .filter(|c| c.outcome == ReqOutcome::Served)
            .collect();

        // 5. Within a (shard, class), service starts in token order —
        // tokens are issued in submission order, so this is FIFO
        // within the class under every discipline.
        for shard in 0..shards {
            for class in ReqClass::ALL {
                let mut lane: Vec<&&ReqCompletion> = served
                    .iter()
                    .filter(|c| c.shard == shard && c.class == class)
                    .collect();
                lane.sort_by_key(|c| c.token);
                for pair in lane.windows(2) {
                    prop_assert!(
                        start(pair[0]) <= start(pair[1]),
                        "same-class reorder on shard {shard}: {:?} vs {:?}",
                        pair[0],
                        pair[1]
                    );
                }
            }
        }

        // 6. Priority inversions only through aged promotion: if b
        // (lower priority) started while a (strictly higher priority,
        // already waiting) had not, then b was the oldest waiting
        // request and older than the promotion age.
        if let DispatchDiscipline::StrictPriority { promote_after_ns } = disc {
            for b in &served {
                let waiting: Vec<&&ReqCompletion> = served
                    .iter()
                    .filter(|a| {
                        a.shard == b.shard
                            && a.issued_at < start(b)
                            && start(a) > start(b)
                    })
                    .collect();
                let inverted = waiting
                    .iter()
                    .any(|a| a.class.priority() < b.class.priority());
                if inverted {
                    prop_assert!(
                        start(b) - b.issued_at > promote_after_ns,
                        "inversion without an aged request: {:?}",
                        b
                    );
                    for a in &waiting {
                        prop_assert!(
                            b.issued_at <= a.issued_at,
                            "promotion must pick the oldest: {:?} vs {:?}",
                            b,
                            a
                        );
                    }
                }
            }
        }
    }
}

/// The `RateBudget` re-export is one primitive shared by two callers:
/// the maintenance scheduler charges with overdraft (`charge`), the
/// tenant throttle charges strictly (`try_charge`). Interleaved on one
/// bucket, the strict side must be denied exactly while the overdraft
/// side holds the balance below the charge — the behavior a combined
/// "maintenance + tenants" deployment depends on.
#[test]
fn rate_budget_reexport_serves_maintenance_and_tenant_callers_on_one_bucket() {
    use ptsbench_metrics::RateBudget;

    let mut shared = RateBudget::new(1_000, 10, 0);
    // The tenant side spends the burst...
    for i in 0..10 {
        assert!(shared.try_charge(0, 1), "burst charge {i}");
    }
    assert!(!shared.try_charge(0, 1), "burst spent");
    // ...then maintenance overdrafts on top: the bucket goes into debt
    // and the strict side stays denied until the refill clears it.
    shared.charge(0, 5);
    assert_eq!(shared.balance(), -5);
    assert!(!shared.try_charge(0, 1), "strict charges never overdraw");
    let ready = shared.ready_at(0);
    assert_eq!(ready, 5 * MILLISECOND, "5 units of debt at 1000/s");
    assert!(
        !shared.try_charge(ready, 1),
        "at ready_at the balance is exactly zero — still short of 1"
    );
    assert!(
        shared.try_charge(ready + MILLISECOND, 1),
        "refilled past the debt"
    );
    // Over the whole window the combined spend stays within the
    // documented overdraft bound: rate·W + burst + max single charge.
    let window = ready + MILLISECOND;
    let spent = 10 + 5 + 1;
    assert!(spent <= (window * 1_000) / 1_000_000_000 + 10 + 5);
}
