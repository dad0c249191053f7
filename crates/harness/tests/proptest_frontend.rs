//! Property tests of the serving front-end dispatcher.
//!
//! Arbitrary request streams — random kinds, keys, inter-submission
//! gaps, shard counts, routing modes and dispatcher depths, with
//! completions collected through a random mix of `take`/`poll`/
//! `wait`/`wait_all` — must uphold the dispatcher's three contracts:
//!
//! 1. **exactly-once completion**: every submitted request produces
//!    exactly one completion record, under any collection pattern;
//! 2. **timestamp sanity**: `submitted_at <= issued_at <= done_at`,
//!    submission times never decrease along the stream, and
//!    `queue_delay + service == sojourn`;
//! 3. **bounded inflight**: at no virtual instant does a shard hold
//!    more admitted-but-incomplete requests than the configured
//!    dispatcher depth (departures at time `t` free their slot before
//!    admissions at `t`, the `IoQueue` discipline).
//!
//! A second property holds the `run_frontend` driver — whose event loop
//! keeps due arrivals in heaps and takes open-loop requests from a
//! generator thread — to a reference model: the loop it replaced, which
//! scanned every client per event on one thread, written here over
//! `Frontend`'s public calls. Arbitrary client mixes must produce a
//! byte-identical rendered report and identical per-shard results.

use proptest::prelude::*;

use ptsbench_core::engine::PtsError;
use ptsbench_core::frontend::{ClientBinding, DispatchDiscipline, FrontendRun, TenantSpec};
use ptsbench_core::registry::EngineKind;
use ptsbench_core::runner::{RunConfig, RunResult};
use ptsbench_core::sharded::Sharding;
use ptsbench_core::ReqClass;
use ptsbench_harness::{
    run_frontend_with_results, Frontend, FrontendShardResult, ReqCompletion, ReqOutcome, ReqToken,
    Request,
};
use ptsbench_metrics::runreport::{QueueDepthSummary, RunReport, ShardReport};
use ptsbench_ssd::{MINUTE, SECOND};
use ptsbench_workload::{ArrivalClock, ArrivalSpec, OpGenerator, OpKind};

/// A small stack per case: 16 MiB shards (the SSD1 geometry floor) and
/// a thin dataset so debug-mode bulk loads stay cheap.
fn config(shards: usize, depth: usize, hashed: bool) -> FrontendRun {
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
    cfg
}

/// Sweeps each shard's admission intervals and asserts the concurrent
/// count never exceeds `depth`. Departures sort before arrivals at the
/// same instant: a slot whose completion time has arrived is free.
fn assert_inflight_bounded(completions: &[ReqCompletion], shards: usize, depth: usize) {
    for shard in 0..shards {
        let mut events: Vec<(u64, i64)> = Vec::new();
        for c in completions
            .iter()
            .filter(|c| c.shard == shard && c.outcome == ReqOutcome::Served)
        {
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
            max_inflight as usize <= depth,
            "shard {shard}: {max_inflight} in flight exceeds depth {depth}"
        );
    }
}

/// One logical client of the reference driver.
struct OracleClient {
    generator: OpGenerator,
    arrivals: ArrivalClock,
    closed: bool,
    class: ReqClass,
    tenant: u32,
    inflight: Option<ReqToken>,
}

/// The reference model of `run_frontend_with_results`: the event loop
/// that scans every client twice per iteration — once for resolved
/// in-flight tokens, once for the earliest next submission, ties by
/// client index — and so costs O(clients) per request. Kept only here,
/// as the oracle the heap-driven driver is checked against.
fn scanning_driver(cfg: &FrontendRun) -> Result<(RunReport, Vec<RunResult>), PtsError> {
    let mut frontend = Frontend::new(cfg)?;
    let mut clients: Vec<OracleClient> = (0..cfg.clients)
        .map(|c| OracleClient {
            generator: OpGenerator::new(cfg.client_workload(c)),
            arrivals: ArrivalClock::new(cfg.client_arrival(c), cfg.client_arrival_seed(c)),
            closed: cfg.client_arrival(c).is_closed(),
            class: cfg.client_class(c),
            tenant: cfg.tenant_of_client(c),
            inflight: None,
        })
        .collect();
    loop {
        // 1. Blocked closed-loop clients whose requests have resolved.
        let mut resolved_any = false;
        for client in clients.iter_mut() {
            let Some(token) = client.inflight else {
                continue;
            };
            let Some(completion) = frontend.take(token) else {
                continue;
            };
            client.inflight = None;
            resolved_any = true;
            if completion.outcome == ReqOutcome::ShardOutOfSpace
                && (cfg.binding == ClientBinding::Bound || frontend.all_shards_dead())
            {
                client.arrivals.retire();
            } else {
                client.arrivals.note_completed(completion.done_at);
            }
        }

        // 2. The earliest pending arrival within the submission window.
        if let Some((client_idx, at)) = clients
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.arrivals.next_submit().map(|t| (i, t)))
            .min_by_key(|&(i, t)| (t, i))
        {
            if at < cfg.base.duration {
                frontend.advance_to(at);
                frontend.settle_to(at.saturating_sub(1))?;
                let client = &mut clients[client_idx];
                let op = client.generator.next_op();
                let request = Request {
                    kind: op.kind,
                    key_index: op.key_index,
                    value: op.value.to_vec(),
                    class: client.class,
                    tenant: client.tenant,
                };
                client.arrivals.note_submitted();
                let token = frontend.submit(request)?;
                if client.closed {
                    client.inflight = Some(token);
                }
                continue;
            }
        }

        // 3. Nothing submitted: force the dispatcher's next decision.
        if resolved_any {
            continue;
        }
        if !frontend.settle_one()? {
            break;
        }
    }
    frontend.settle()?;

    let shards = frontend.finish();
    let reports = shards
        .iter()
        .enumerate()
        .map(|(index, shard)| shard_report(cfg, index, shard))
        .collect();
    Ok((
        RunReport::merge(cfg.label(), cfg.clients, reports),
        shards.into_iter().map(|s| s.result).collect(),
    ))
}

/// The shard report `run_frontend` assembles from one shard's results.
fn shard_report(cfg: &FrontendRun, index: usize, shard: &FrontendShardResult) -> ShardReport {
    let r = &shard.result;
    let serving = !cfg.is_conformant();
    ShardReport {
        name: format!("shard{index}"),
        ops: r.ops_executed,
        out_of_space: r.out_of_space,
        latency: r.latency.clone(),
        app_bytes: r.app_bytes_written,
        host_bytes: r.host_bytes_written,
        io_depth: (cfg.base.queue_depth > 1).then(|| QueueDepthSummary {
            submitted: r.io_depth.submitted,
            max_in_flight: r.io_depth.max_in_flight,
            mean_in_flight: r.io_depth.mean_in_flight(),
        }),
        cache: r.cache,
        cause: r.cause,
        maint: r.maint,
        queue_delay: serving.then(|| shard.queue_delay.clone()),
        load: serving.then_some(shard.load),
        slo: cfg.slo.is_active().then_some(shard.slo),
        mt: cfg.mt_active().then(|| shard.mt.clone()),
        series: vec![r.throughput_series(), r.device_write_series()],
    }
}

/// Runs `cfg` through both drivers and asserts the outputs identical;
/// returns the report for shape checks.
fn assert_matches_scanning_driver(cfg: &FrontendRun) -> RunReport {
    let (want_report, want_results) = scanning_driver(cfg).expect("reference run");
    let got = run_frontend_with_results(cfg).expect("driver run");
    assert_eq!(got.report.render(), want_report.render(), "{cfg:?}");
    assert_eq!(got.shard_results.len(), want_results.len());
    for (shard, (got, want)) in got.shard_results.iter().zip(&want_results).enumerate() {
        assert_eq!(
            format!("{got:?}"),
            format!("{want:?}"),
            "shard {shard}: {cfg:?}"
        );
    }
    got.report
}

/// The serving shape the driver property draws from: 16 MiB shards, a
/// short submission window, and client blocks with their own arrival
/// processes. `dying` fills the shards to 95% so the LSM runs out of
/// space mid-run and closed-loop clients retire.
fn mixed_fleet(
    shards: usize,
    hashed: bool,
    dying: bool,
    minutes: u64,
    discipline: DispatchDiscipline,
    blocks: &[(usize, ArrivalSpec)],
) -> FrontendRun {
    let clients = blocks.iter().map(|&(n, _)| n).sum();
    let mut cfg = FrontendRun::new(
        RunConfig {
            engine: EngineKind::lsm(),
            device_bytes: (shards as u64) * (16 << 20),
            dataset_fraction: if dying { 0.95 } else { 0.1 },
            read_fraction: if dying { 0.0 } else { 0.5 },
            duration: minutes * MINUTE,
            sample_window: minutes * MINUTE / 2,
            ..RunConfig::default()
        },
        clients,
    );
    cfg.shards = shards;
    cfg.sharding = if hashed {
        Sharding::Hashed
    } else {
        Sharding::Contiguous
    };
    cfg.discipline = discipline;
    cfg.tenants = blocks
        .iter()
        .enumerate()
        .map(|(i, &(n, arrival))| TenantSpec {
            arrival: Some(arrival),
            ..TenantSpec::new(ReqClass::ALL[i % 3], n)
        })
        .collect();
    cfg
}

/// Arrival processes from small fixed menus, so that clients of
/// different blocks share interarrival gaps and `(time, client)` ties
/// keep occurring past t = 0.
fn arrival() -> impl Strategy<Value = ArrivalSpec> {
    prop_oneof![
        (0u64..3).prop_map(|i| ArrivalSpec::Closed {
            think_ns: [0, 5, 40][i as usize] * SECOND,
        }),
        (0u64..2).prop_map(|i| ArrivalSpec::Open {
            interarrival_ns: [20, 40][i as usize] * SECOND,
        }),
        (0u64..2).prop_map(|i| ArrivalSpec::OpenPoisson {
            mean_interarrival_ns: [15, 90][i as usize] * SECOND,
        }),
    ]
}

/// The shapes the property must not miss, whatever it happens to draw:
/// shards that die mid-run under bound closed loops (every client
/// retires), under routed clients (they retire only with the last
/// shard), and under a reordering discipline (waiting rooms drain as
/// drops).
#[test]
fn heap_driver_matches_scanning_driver_when_shards_die() {
    let closed = ArrivalSpec::Closed { think_ns: 0 };
    let paced = ArrivalSpec::Open {
        interarrival_ns: 2 * SECOND,
    };
    let mut bound = mixed_fleet(2, false, true, 10, DispatchDiscipline::Fifo, &[(2, closed)]);
    bound.binding = ClientBinding::Bound;
    let routed = mixed_fleet(
        2,
        true,
        true,
        10,
        DispatchDiscipline::Fifo,
        &[(3, closed), (2, paced)],
    );
    let reordered = mixed_fleet(
        1,
        false,
        true,
        10,
        DispatchDiscipline::WeightedFair { weights: [4, 2, 1] },
        &[(2, closed), (1, paced)],
    );
    for cfg in [bound, routed, reordered] {
        let report = assert_matches_scanning_driver(&cfg);
        assert!(report.out_of_space_shards() >= 1, "{}", report.render());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn every_request_completes_exactly_once_with_sane_timestamps(
        shards in 1usize..4,
        depth in 1usize..6,
        hashed in any::<bool>(),
        ops in 40usize..160,
        seed in any::<u64>(),
    ) {
        let cfg = config(shards, depth, hashed);
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
        let mut last_submit_time = 0;
        for _ in 0..ops {
            // Arbitrary arrival gaps, including bursts at the same time.
            frontend.advance_to(frontend.now() + next(2_000_000));
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
            prop_assert!(frontend.now() >= last_submit_time);
            last_submit_time = frontend.now();

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
                2 if !outstanding.is_empty() => {
                    let token = outstanding.swap_remove(next(outstanding.len() as u64) as usize);
                    if let Some(c) = frontend.take(token) {
                        collected.push(c);
                    }
                }
                _ => {}
            }
        }
        collected.extend(frontend.wait_all().expect("wait"));
        prop_assert_eq!(frontend.pending(), 0);

        // 1. Exactly once.
        prop_assert_eq!(collected.len() as u64, submitted, "every request completes");
        let mut tokens: Vec<_> = collected.iter().map(|c| c.token).collect();
        tokens.sort();
        tokens.dedup();
        prop_assert_eq!(tokens.len() as u64, submitted, "no token completes twice");

        // 2. Timestamp sanity.
        for c in &collected {
            prop_assert!(c.submitted_at <= c.issued_at, "{c:?}");
            prop_assert!(c.issued_at <= c.done_at, "{c:?}");
            prop_assert_eq!(c.queue_delay() + c.service_ns, c.sojourn());
            prop_assert!(c.shard < shards);
            if c.outcome == ReqOutcome::Served {
                prop_assert!(c.service_ns > 0, "served requests do work: {c:?}");
            } else {
                prop_assert_eq!(c.service_ns, 0);
            }
        }

        // 3. Bounded per-shard inflight.
        assert_inflight_bounded(&collected, shards, depth);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn heap_driver_matches_the_scanning_driver(
        shards in 1usize..4,
        hashed in any::<bool>(),
        bound in any::<bool>(),
        dying in any::<bool>(),
        minutes in 2u64..8,
        which in 0u8..3,
        promote_s in 1u64..30,
        weights in (1u32..9, 1u32..9, 1u32..9),
        blocks in proptest::collection::vec((1usize..=16, arrival()), 1..=4),
        seed in any::<u64>(),
    ) {
        // Bound clients map one-to-one onto shards; otherwise 1-64
        // clients in up to four blocks.
        let mut budget = if bound { shards } else { 64 };
        let blocks: Vec<(usize, ArrivalSpec)> = blocks
            .into_iter()
            .map(|(n, arrival)| {
                let n = n.min(budget);
                budget -= n;
                (n, arrival)
            })
            .filter(|&(n, _)| n > 0)
            .collect();
        let discipline = match which {
            0 => DispatchDiscipline::Fifo,
            1 => DispatchDiscipline::StrictPriority { promote_after_ns: promote_s * SECOND },
            _ => DispatchDiscipline::WeightedFair { weights: [weights.0, weights.1, weights.2] },
        };
        let mut cfg = mixed_fleet(shards, hashed, dying, minutes, discipline, &blocks);
        cfg.base.seed = seed;
        if bound && cfg.clients == shards {
            cfg.binding = ClientBinding::Bound;
        }
        assert_matches_scanning_driver(&cfg);
    }
}
