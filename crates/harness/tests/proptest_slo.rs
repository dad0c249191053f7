//! Property tests of admission control at the serving dispatcher.
//!
//! Arbitrary request streams — random kinds, keys, inter-submission
//! gaps, shard counts, routing modes, dispatcher depths and admission
//! policies — must uphold the SLO subsystem's contracts:
//!
//! 1. **exactly-once resolution**: every submitted request produces
//!    exactly one completion record, as Served, Rejected or Shed (or an
//!    out-of-space drop), under any policy;
//! 2. **turned-away work is free**: rejected requests are never queued
//!    (`issued_at == submitted_at`, fixed `REJECT_LATENCY` turnaround)
//!    and neither rejected nor shed requests consume any device or
//!    engine time — per shard, the engine's busy time equals exactly
//!    the sum of the *served* requests' service times;
//! 3. **bounded inflight**: a `QueueBound` policy caps each shard's
//!    admitted-but-incomplete requests at `min(bound, depth)`; the
//!    dispatcher depth alone keeps capping them under every other
//!    policy;
//! 4. **the deadline guarantees hold**: under `PredictedSojourn` every
//!    served request starts within the deadline; under `Deadline`
//!    every served request starts within its budget and every shed
//!    request was already past it;
//! 5. **accounting closes**: per shard,
//!    `offered == admitted + rejected + dropped` and
//!    `admitted == served + shed`.

use proptest::prelude::*;

use ptsbench_core::frontend::{FrontendRun, SloPolicy};
use ptsbench_core::registry::EngineKind;
use ptsbench_core::runner::RunConfig;
use ptsbench_core::sharded::Sharding;
use ptsbench_harness::{Frontend, ReqCompletion, ReqOutcome, Request, REJECT_LATENCY};
use ptsbench_ssd::{MILLISECOND, MINUTE, SECOND};
use ptsbench_workload::OpKind;

/// A small stack per case: 16 MiB shards (the SSD1 geometry floor) and
/// a thin dataset so debug-mode bulk loads stay cheap.
fn config(shards: usize, depth: usize, hashed: bool, slo: SloPolicy) -> FrontendRun {
    let mut cfg = FrontendRun::new(
        RunConfig {
            engine: EngineKind::lsm(),
            device_bytes: (shards as u64) * (16 << 20),
            dataset_fraction: 0.1,
            duration: 30 * MINUTE,
            sample_window: 10 * MINUTE,
            ..RunConfig::default()
        },
        shards,
    );
    cfg.shards = shards;
    cfg.queue_depth = depth;
    cfg.sharding = if hashed {
        Sharding::Hashed
    } else {
        Sharding::Contiguous
    };
    cfg.slo = slo.into();
    cfg.validate();
    cfg
}

/// One of the four policies, drawn from a compact index + parameters.
fn policy(which: u8, bound: usize, deadline_ms: u64) -> SloPolicy {
    match which % 4 {
        0 => SloPolicy::None,
        1 => SloPolicy::QueueBound { max_pending: bound },
        2 => SloPolicy::PredictedSojourn {
            deadline_ns: deadline_ms * MILLISECOND,
        },
        _ => SloPolicy::Deadline {
            budget_ns: deadline_ms * MILLISECOND,
        },
    }
}

/// Sweeps each shard's occupancy intervals (served *and* shed requests
/// hold a queue slot from `issued_at` until they resolve) and asserts
/// the concurrent count never exceeds `cap`. Departures sort before
/// arrivals at the same instant: a slot whose completion time has
/// arrived is free.
fn assert_inflight_bounded(completions: &[ReqCompletion], shards: usize, cap: usize) {
    for shard in 0..shards {
        let mut events: Vec<(u64, i64)> = Vec::new();
        for c in completions.iter().filter(|c| {
            c.shard == shard && matches!(c.outcome, ReqOutcome::Served | ReqOutcome::Shed)
        }) {
            events.push((c.issued_at, 1));
            events.push((c.done_at, -1));
        }
        events.sort_by_key(|&(t, delta)| (t, delta)); // -1 before +1 on ties
        let mut inflight = 0i64;
        let mut max_inflight = 0i64;
        for (_, delta) in events {
            inflight += delta;
            max_inflight = max_inflight.max(inflight);
        }
        assert!(
            max_inflight as usize <= cap,
            "shard {shard}: {max_inflight} in flight exceeds the cap {cap}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn every_request_resolves_exactly_once_and_turned_away_work_is_free(
        shards in 1usize..4,
        depth in 1usize..6,
        hashed in any::<bool>(),
        which_policy in any::<u8>(),
        bound in 1usize..8,
        deadline_ms in 200u64..5_000,
        ops in 40usize..160,
        seed in any::<u64>(),
    ) {
        let slo = policy(which_policy, bound, deadline_ms);
        let cfg = config(shards, depth, hashed, slo);
        let num_keys = cfg.base.workload().num_keys;
        let mut frontend = Frontend::new(&cfg).expect("frontend");

        let mut rng = seed;
        let mut next = move |bound: u64| {
            // SplitMix64: deterministic stream driving the request mix.
            rng = rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = rng;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % bound
        };

        let mut submitted = 0u64;
        let mut collected: Vec<ReqCompletion> = Vec::new();
        let mut outstanding = Vec::new();
        for _ in 0..ops {
            // Arbitrary arrival gaps: bursts at one instant through
            // multi-second lulls (queues drain, slots free, deadlines
            // pass — every admission branch gets exercised).
            frontend.advance_to(frontend.now() + next(2 * SECOND));
            let kind = if next(2) == 0 { OpKind::Read } else { OpKind::Update };
            let token = frontend
                .submit(Request {
                    kind,
                    key_index: next(num_keys),
                    value: if kind == OpKind::Update { vec![0xAB; 32] } else { Vec::new() },
                    ..Default::default()
                })
                .expect("submit");
            submitted += 1;
            outstanding.push(token);

            // Randomly interleave collection styles.
            match next(4) {
                0 => {
                    if let Some(c) = frontend.poll() {
                        collected.push(c);
                        outstanding.retain(|t| Some(*t) != collected.last().map(|c| c.token));
                    }
                }
                1 if !outstanding.is_empty() => {
                    let token = outstanding.swap_remove(next(outstanding.len() as u64) as usize);
                    collected.push(frontend.wait(token).expect("wait"));
                }
                _ => {}
            }
        }
        collected.extend(frontend.wait_all().expect("wait"));
        prop_assert_eq!(frontend.pending(), 0);

        // 1. Exactly-once resolution, with a policy-consistent outcome.
        prop_assert_eq!(collected.len() as u64, submitted, "every request resolves");
        let mut tokens: Vec<_> = collected.iter().map(|c| c.token).collect();
        tokens.sort();
        tokens.dedup();
        prop_assert_eq!(tokens.len() as u64, submitted, "no token resolves twice");
        for c in &collected {
            match c.outcome {
                ReqOutcome::Rejected => prop_assert!(
                    matches!(slo, SloPolicy::QueueBound { .. } | SloPolicy::PredictedSojourn { .. }),
                    "only admission policies reject: {c:?}"
                ),
                ReqOutcome::Shed => prop_assert!(
                    matches!(slo, SloPolicy::Deadline { .. }),
                    "only the Deadline policy sheds: {c:?}"
                ),
                ReqOutcome::Throttled => prop_assert!(
                    false,
                    "no tenant declares a quota here, so nothing throttles: {c:?}"
                ),
                ReqOutcome::Served | ReqOutcome::ShardOutOfSpace => {}
            }
        }

        // 2. Turned-away work is free.
        for c in &collected {
            prop_assert!(c.submitted_at <= c.issued_at && c.issued_at <= c.done_at, "{c:?}");
            match c.outcome {
                ReqOutcome::Rejected => {
                    prop_assert_eq!(c.service_ns, 0, "{:?}", c);
                    prop_assert_eq!(c.issued_at, c.submitted_at, "never queued: {:?}", c);
                    prop_assert_eq!(c.done_at, c.submitted_at + REJECT_LATENCY, "{:?}", c);
                }
                ReqOutcome::Shed => {
                    prop_assert_eq!(c.service_ns, 0, "{:?}", c);
                    if let SloPolicy::Deadline { budget_ns } = slo {
                        prop_assert!(
                            c.done_at - c.submitted_at > budget_ns,
                            "shed only past the budget: {c:?}"
                        );
                    }
                }
                ReqOutcome::Served => {
                    prop_assert!(c.service_ns > 0, "served requests do work: {c:?}");
                    let start = c.done_at - c.service_ns;
                    match slo {
                        SloPolicy::PredictedSojourn { deadline_ns } => prop_assert!(
                            start - c.submitted_at <= deadline_ns,
                            "admitted requests start within the deadline: {c:?}"
                        ),
                        SloPolicy::Deadline { budget_ns } => prop_assert!(
                            start - c.submitted_at <= budget_ns,
                            "served requests started within their budget: {c:?}"
                        ),
                        _ => {}
                    }
                }
                ReqOutcome::ShardOutOfSpace | ReqOutcome::Throttled => {
                    prop_assert_eq!(c.service_ns, 0)
                }
            }
        }

        // 3. Bounded inflight: a QueueBound tightens the dispatcher cap.
        let cap = match slo {
            SloPolicy::QueueBound { max_pending } => max_pending.min(depth),
            _ => depth,
        };
        assert_inflight_bounded(&collected, shards, cap);

        // 2b + 5. Per-shard accounting closes exactly, and the engine's
        // busy time is precisely the served requests' service time —
        // rejected and shed requests never touched the device.
        let results = frontend.finish();
        for (index, shard) in results.iter().enumerate() {
            let of = |outcome: ReqOutcome| {
                collected
                    .iter()
                    .filter(|c| c.shard == index && c.outcome == outcome)
                    .count() as u64
            };
            prop_assert_eq!(shard.slo.served, of(ReqOutcome::Served));
            prop_assert_eq!(shard.slo.rejected, of(ReqOutcome::Rejected));
            prop_assert_eq!(shard.slo.shed, of(ReqOutcome::Shed));
            // Out-of-space completions are either dead-shard drops
            // (never admitted) or admitted requests that hit ENOSPC, so
            // the exact identity folds them in on both sides.
            prop_assert_eq!(
                shard.slo.offered,
                shard.slo.rejected
                    + shard.slo.served
                    + shard.slo.shed
                    + of(ReqOutcome::ShardOutOfSpace)
            );
            prop_assert!(shard.slo.admitted >= shard.slo.served + shard.slo.shed);
            prop_assert!(shard.slo.offered >= shard.slo.admitted + shard.slo.rejected);
            let served_service: u64 = collected
                .iter()
                .filter(|c| c.shard == index && c.outcome == ReqOutcome::Served)
                .map(|c| c.service_ns)
                .sum();
            prop_assert_eq!(
                shard.load.busy_ns,
                served_service,
                "device time must come only from served requests (shard {})",
                index
            );
            prop_assert_eq!(shard.queue_delay.count(), shard.slo.served);
        }
    }
}
