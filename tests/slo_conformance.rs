//! SLO conformance: an *inactive* admission policy must be invisible.
//!
//! The admission-control subsystem follows the repo's layering
//! contract: every new knob has an explicit pass-through setting whose
//! output is byte-identical to the code that predates it.
//! `SloPolicy::None` (the default) and a `QueueBound` at
//! `SloPolicy::UNBOUNDED` can never reject a request, so a front-end
//! run configured with either must reproduce the policy-free
//! `run_frontend` report **byte-identically at the rendered level** —
//! same label, same queue-delay and load lines, no `slo` accounting
//! anywhere — for every registered engine, including hashed sharding
//! and engine-level queue depth above 1. The suite resolves engines
//! purely through the registry, so a newly registered engine is
//! automatically held to the same spec.

use ptsbench::core::frontend::{FrontendRun, SloPolicy};
use ptsbench::core::registry::EngineKind;
use ptsbench::core::sharded::{ShardedRun, Sharding};
use ptsbench::harness::{run_frontend, run_sharded};
use ptsbench::ssd::SECOND;
use ptsbench::workload::ArrivalSpec;

mod common;
use common::{base, engines, serving_shape};

/// The tentpole guarantee: for every registered engine, a fan-in
/// serving run under `SloPolicy::None` and under an infinite
/// `QueueBound` render byte-identical reports — and both match the
/// exact output the pre-SLO front-end produced for this shape (no
/// `slo` lines, unchanged label).
#[test]
fn unbounded_queue_bound_diffs_empty_against_no_policy_for_every_engine() {
    for engine in engines() {
        let plain = run_frontend(&serving_shape(engine)).expect("run");
        let mut unbounded_cfg = serving_shape(engine);
        unbounded_cfg.slo = SloPolicy::QueueBound {
            max_pending: SloPolicy::UNBOUNDED,
        }
        .into();
        let unbounded = run_frontend(&unbounded_cfg).expect("run");
        assert_eq!(
            plain.render(),
            unbounded.render(),
            "{engine}: an unbounded queue bound must be byte-identical to no policy"
        );
        let text = plain.render();
        assert!(
            !text.contains("slo"),
            "{engine}: inactive policies must attach no SLO accounting: {text}"
        );
        assert!(
            text.contains("queue delay ns:"),
            "{engine}: the serving metrics themselves must still be present"
        );
    }
}

/// The equivalence holds under hashed sharding and through the
/// engines' own asynchronous read paths (engine-level queue depth
/// above 1): the admission check sits in the dispatcher, above both.
#[test]
fn inactive_policies_survive_hashed_sharding_and_engine_queue_depth() {
    for engine in engines() {
        let mut plain_cfg = serving_shape(engine);
        plain_cfg.sharding = Sharding::Hashed;
        plain_cfg.base.queue_depth = 8;
        let mut unbounded_cfg = plain_cfg.clone();
        unbounded_cfg.slo = SloPolicy::QueueBound {
            max_pending: SloPolicy::UNBOUNDED,
        }
        .into();
        let plain = run_frontend(&plain_cfg).expect("run");
        let unbounded = run_frontend(&unbounded_cfg).expect("run");
        assert_eq!(
            plain.render(),
            unbounded.render(),
            "{engine}: hashed + engine QD>1 must not perturb the equivalence"
        );
        assert!(plain.render().contains("/hash"), "{engine}");
        assert!(
            plain.render().contains("qd[submitted="),
            "{engine}: engine-level depth metrics must be present"
        );
    }
}

/// The conformance chain still reaches the sharded harness: the
/// depth-1 conformant shape with an inactive policy reproduces
/// `run_sharded` byte-identically (the PR 4 guarantee, now with the
/// policy field in the configuration).
#[test]
fn conformant_shape_with_inactive_policy_still_matches_run_sharded() {
    for engine in engines() {
        let direct = run_sharded(&ShardedRun::new(base(engine, 32 << 20), 2)).expect("sharded run");
        let mut served_cfg = FrontendRun::conformant(base(engine, 32 << 20), 2);
        served_cfg.slo = SloPolicy::QueueBound {
            max_pending: SloPolicy::UNBOUNDED,
        }
        .into();
        assert!(served_cfg.is_conformant());
        let served = run_frontend(&served_cfg).expect("frontend run");
        assert_eq!(
            direct.render(),
            served.render(),
            "{engine}: the depth-1 equivalence must hold with an inactive policy"
        );
    }
}

/// Sanity check of the other direction: an *active* policy on the same
/// shape does change the report — the label gains the policy tag and
/// the SLO accounting appears — so the byte-identity above is not a
/// vacuous comparison.
#[test]
fn active_policies_do_perturb_the_report() {
    let mut cfg = serving_shape(EngineKind::lsm());
    cfg.slo = SloPolicy::PredictedSojourn {
        deadline_ns: 2 * SECOND,
    }
    .into();
    let report = run_frontend(&cfg).expect("run");
    assert!(report.label.ends_with("/slo-ps2000ms"), "{}", report.label);
    let totals = report.slo_totals().expect("slo accounting");
    assert_eq!(totals.offered, totals.admitted + totals.rejected);
    assert!(report.render().contains("slo: offered="));

    let plain = run_frontend(&serving_shape(EngineKind::lsm())).expect("run");
    assert_ne!(plain.render(), report.render());
}

/// Policy-free behavior is also pinned against arrival-process shape:
/// an open-loop run with `SloPolicy::None` and one with the unbounded
/// bound agree byte-for-byte (arrival handling and admission control
/// are independent code paths).
#[test]
fn open_loop_runs_agree_too() {
    let shape = || {
        let mut cfg = FrontendRun::new(base(EngineKind::lsm(), 32 << 20), 4);
        cfg.shards = 2;
        cfg.arrival = ArrivalSpec::OpenPoisson {
            mean_interarrival_ns: 2 * SECOND,
        };
        cfg
    };
    let plain = run_frontend(&shape()).expect("run");
    let mut unbounded_cfg = shape();
    unbounded_cfg.slo = SloPolicy::QueueBound {
        max_pending: SloPolicy::UNBOUNDED,
    }
    .into();
    let unbounded = run_frontend(&unbounded_cfg).expect("run");
    assert_eq!(plain.render(), unbounded.render());
}
