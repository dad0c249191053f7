//! Multi-tenant conformance: a class-less configuration must be
//! invisible.
//!
//! The multi-tenant front-end follows the repo's layering contract:
//! every new knob has an explicit pass-through setting whose output is
//! byte-identical to the code that predates it. The defaults — a
//! uniform [`ClassPolicyMap`] (every lane the same policy, exactly the
//! old single `slo` field), `DispatchDiscipline::Fifo`, and an empty
//! tenant table — keep the dispatcher on the seed's eager
//! decide-at-submit path, so runs configured that way must reproduce
//! the pre-multi-tenant harness output **byte-identically at the
//! rendered level** — same labels, same numbers, no `mt` accounting
//! anywhere — for every registered engine.
//!
//! Like `tests/cache_conformance.rs`, the pin is against the **golden
//! snapshot** (`tests/golden/baseline/`) captured from the
//! harness before either subsystem existed, so a regression in any
//! layer the front-end rework touched — the dispatcher, the completion
//! ordering, the report renderer — shows up as a byte diff against
//! history, not just against a sibling code path.

use ptsbench::core::frontend::{
    ClassPolicyMap, DispatchDiscipline, FrontendRun, SloPolicy, TenantSpec,
};
use ptsbench::core::registry::EngineKind;
use ptsbench::core::runner::RunConfig;
use ptsbench::core::ReqClass;
use ptsbench::harness::{run_frontend, Frontend, ReqOutcome, Request};
use ptsbench::metrics::runreport::{RunReport, ShardReport};
use ptsbench::ssd::{MILLISECOND, MINUTE, SECOND};
use ptsbench::workload::{ArrivalSpec, KeyDistribution, OpKind};
use ptsbench_testkit::{assert_golden, Fnv};

mod common;
use common::{base, engines, serving_shape};

/// The tentpole guarantee: a front-end run whose multi-tenant knobs are
/// all at their explicit pass-through settings reproduces the
/// pre-multi-tenant golden output byte-for-byte, for every engine that
/// existed when the snapshot was taken.
#[test]
fn classless_frontend_runs_match_the_pre_mt_golden_output() {
    for engine in engines() {
        let mut cfg = serving_shape(engine);
        // Spell out every multi-tenant default explicitly: the uniform
        // policy map, FIFO dispatch, no tenants.
        cfg.slo = ClassPolicyMap::uniform(SloPolicy::None);
        cfg.discipline = DispatchDiscipline::Fifo;
        cfg.tenants = Vec::new();
        assert!(!cfg.mt_active(), "{engine}: these are the pass-throughs");
        let text = run_frontend(&cfg).expect("run").render();
        assert_golden(&format!("baseline/frontend-{engine}.txt"), &text);
        assert!(
            !text.contains("mt:") && !text.contains("mt[") && !text.contains("/mt"),
            "{engine}: no multi-tenant accounting may appear when inactive: {text}"
        );
    }
}

/// A uniform *active* policy written through the `ClassPolicyMap` stays
/// byte-identical to the same policy written through the old
/// single-policy `From<SloPolicy>` conversion — the map is a
/// generalization, not a new behavior, until the lanes actually differ.
#[test]
fn uniform_policy_maps_match_the_single_policy_conversion() {
    let policy = SloPolicy::PredictedSojourn {
        deadline_ns: 2 * SECOND,
    };
    let mut via_into = serving_shape(EngineKind::lsm());
    via_into.slo = policy.into();
    let mut via_uniform = serving_shape(EngineKind::lsm());
    via_uniform.slo = ClassPolicyMap::uniform(policy);
    let a = run_frontend(&via_into).expect("run");
    let b = run_frontend(&via_uniform).expect("run");
    assert_eq!(a.render(), b.render());
    assert!(a.label.ends_with("/slo-ps2000ms"), "{}", a.label);
}

/// Sanity check of the other direction: each multi-tenant knob, alone,
/// perturbs the report — the label gains the `/mt` tag and the `mt`
/// accounting appears — so the byte-identity above is not a vacuous
/// comparison.
#[test]
fn active_mt_knobs_do_perturb_the_report() {
    let plain = run_frontend(&serving_shape(EngineKind::lsm())).expect("run");

    // A non-FIFO discipline alone.
    let mut wfq = serving_shape(EngineKind::lsm());
    wfq.discipline = DispatchDiscipline::WeightedFair { weights: [8, 1, 1] };
    let wfq_report = run_frontend(&wfq).expect("run");
    assert_ne!(plain.render(), wfq_report.render());
    assert!(wfq_report.label.contains("/mt"), "{}", wfq_report.label);
    assert!(wfq_report.render().contains("mt:"), "mt accounting renders");

    // A declared tenant table alone (even one uniform interactive
    // tenant: declaring tenants opts into per-tenant ledgers).
    let mut tenanted = serving_shape(EngineKind::lsm());
    tenanted.tenants = vec![TenantSpec::new(ReqClass::Interactive, 6)];
    let tenanted_report = run_frontend(&tenanted).expect("run");
    assert!(
        tenanted_report.label.contains("/mt"),
        "{}",
        tenanted_report.label
    );
    assert!(
        tenanted_report.render().contains("tenants: t0["),
        "tenant ledgers render: {}",
        tenanted_report.render()
    );

    // A non-uniform policy map alone.
    let mut split = serving_shape(EngineKind::lsm());
    split.slo =
        ClassPolicyMap::default().with(ReqClass::Batch, SloPolicy::QueueBound { max_pending: 2 });
    let split_report = run_frontend(&split).expect("run");
    assert!(split.mt_active());
    assert!(split_report.label.contains("/mt"), "{}", split_report.label);
}

/// The lazy dispatch path's event order, pinned against history: the
/// `fig_tenant` WFQ overload (two paced interactive Poisson clients and
/// one open-loop batch aggressor at 1.75x fleet capacity over four LSM
/// shards, rates frozen from that study's calibration). The snapshot
/// was rendered by the driver that scanned every client per event,
/// before `run_frontend` kept its arrivals in a heap.
#[test]
fn wfq_overload_matches_the_scanning_driver_golden_output() {
    let mut cfg = FrontendRun::new(
        RunConfig {
            device_bytes: 64 << 20,
            read_fraction: 1.0,
            distribution: KeyDistribution::Zipfian { theta: 0.9 },
            duration: 2 * MINUTE,
            sample_window: MINUTE,
            ..base(EngineKind::lsm(), 32 << 20)
        },
        3,
    );
    cfg.shards = 4;
    cfg.discipline = DispatchDiscipline::WeightedFair { weights: [8, 1, 1] };
    let tenant = |class, clients, mean_interarrival_ns| TenantSpec {
        arrival: Some(ArrivalSpec::OpenPoisson {
            mean_interarrival_ns,
        }),
        ..TenantSpec::new(class, clients)
    };
    cfg.tenants = vec![
        tenant(ReqClass::Interactive, 2, 3_837_000_000),
        tenant(ReqClass::Batch, 1, 109_640_000),
    ];
    let got = run_frontend(&cfg).expect("run").render();
    assert_golden("frontend_wfq_overload.txt", &got);
}

/// Strict priority's decisions, pinned against history: two LSM shards
/// at about twice their capacity for two simulated minutes, traffic in
/// all three classes (bursts of simultaneous submissions included), a
/// promotion bound short enough that aged batch and background work
/// keeps jumping the class order, and the batch lane under a
/// [`SloPolicy::Deadline`] so stale requests are shed at dispatch. The
/// front-end is driven by hand the way `run_frontend` drives an
/// open-loop fleet and drained with `wait_all`, so the snapshot holds
/// the rendered report *and* a checksum over every completion's
/// identity, placement, outcome, timestamps and decision order. It was
/// recorded from the dispatcher that scanned one `Vec` of waiting
/// requests per decision, before the waiting room became per-class
/// lanes.
#[test]
fn strict_priority_overload_matches_the_scanning_dispatcher_golden_output() {
    let mut cfg = FrontendRun::new(
        RunConfig {
            distribution: KeyDistribution::Zipfian { theta: 0.9 },
            duration: 2 * MINUTE,
            sample_window: MINUTE,
            ..base(EngineKind::lsm(), 32 << 20)
        },
        3,
    );
    cfg.shards = 2;
    cfg.discipline = DispatchDiscipline::StrictPriority {
        promote_after_ns: 6 * SECOND,
    };
    cfg.slo = ClassPolicyMap::default().with(
        ReqClass::Batch,
        SloPolicy::Deadline {
            budget_ns: 5 * SECOND,
        },
    );
    let num_keys = cfg.base.workload().num_keys;
    let mut frontend = Frontend::new(&cfg).expect("frontend");

    // Knuth's MMIX LCG, high bits: the stream is part of the snapshot.
    let mut state = 0x5eed_u64;
    let mut draw = move |bound: u64| {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) % bound
    };
    let mut tokens = Vec::new();
    let mut at = 0;
    while at < cfg.base.duration {
        frontend.advance_to(at);
        frontend.settle_to(at.saturating_sub(1)).expect("settle");
        let kind = if draw(4) == 0 {
            OpKind::Update
        } else {
            OpKind::Read
        };
        let request = Request {
            kind,
            key_index: draw(num_keys),
            value: match kind {
                OpKind::Update => vec![0xA5; 64],
                OpKind::Read => Vec::new(),
            },
            // Half batch, a third background, a sixth interactive.
            class: [
                ReqClass::Batch,
                ReqClass::Background,
                ReqClass::Batch,
                ReqClass::Interactive,
                ReqClass::Batch,
                ReqClass::Background,
            ][draw(6) as usize],
            tenant: 0,
        };
        tokens.push(frontend.submit(request).expect("submit"));
        // One arrival in four shares its instant with the next.
        if draw(4) != 0 {
            at += 1 + draw(1200 * MILLISECOND);
        }
    }

    let completions = frontend.wait_all().expect("wait_all");
    assert_eq!(completions.len(), tokens.len(), "exactly-once resolution");
    let mut fnv = Fnv::new();
    let (mut served, mut shed) = (0, 0);
    for c in &completions {
        let index = tokens.binary_search(&c.token).expect("a submitted token");
        let outcome = match c.outcome {
            ReqOutcome::Served => 0,
            ReqOutcome::Shed => 1,
            other => panic!("nothing rejects, throttles or runs out of space here: {other:?}"),
        };
        served += u64::from(outcome == 0);
        shed += u64::from(outcome == 1);
        for word in [
            index as u64,
            c.shard as u64,
            outcome,
            c.issued_at,
            c.done_at,
            c.seq,
        ] {
            fnv.word(word);
        }
    }

    let reports = frontend
        .finish()
        .into_iter()
        .enumerate()
        .map(|(index, shard)| {
            let r = &shard.result;
            ShardReport {
                name: format!("shard{index}"),
                ops: r.ops_executed,
                out_of_space: r.out_of_space,
                latency: r.latency.clone(),
                app_bytes: r.app_bytes_written,
                host_bytes: r.host_bytes_written,
                io_depth: None,
                queue_delay: Some(shard.queue_delay),
                load: Some(shard.load),
                slo: Some(shard.slo),
                mt: Some(shard.mt),
                cache: r.cache,
                cause: r.cause,
                maint: r.maint,
                series: vec![r.throughput_series(), r.device_write_series()],
            }
        })
        .collect();
    let report = RunReport::merge(cfg.label(), cfg.clients, reports);
    let rendered = format!(
        "{}completions={} served={served} shed={shed}\n\
         fnv1a(token, shard, outcome, issued_at, done_at, seq)={:016x}\n",
        report.render(),
        completions.len(),
        fnv.0,
    );
    assert!(
        shed > 0 && served > 0,
        "the shed branch must run: {rendered}"
    );
    assert_golden("frontend_strict_overload.txt", &rendered);
}
