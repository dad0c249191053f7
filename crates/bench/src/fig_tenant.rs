//! Multi-tenant serving — beyond the paper: what a dispatch discipline
//! and a tenant quota actually buy.
//!
//! The paper evaluates tree structures under *one* workload at a time;
//! a production fleet serves several at once, and the steady-state
//! lesson carries over: what separates configurations is how the
//! latency-sensitive tenant's tail behaves while a bulk tenant holds
//! the device at saturation for minutes.
//!
//! One LSM fleet, two tenants. The *interactive* tenant sends a gentle
//! paced trickle (the latency-sensitive traffic an SLO protects); the
//! *batch* tenant is an open-loop Zipfian aggressor offering well past
//! the fleet's capacity (the bulk ingest that does not back off). Four
//! serving configurations:
//!
//! * **isolated** — the interactive tenant alone: the p99 queue delay
//!   a shared fleet should be measured against;
//! * **FIFO shared** — the default discipline. The aggressor's backlog
//!   grows without bound and every interactive request queues behind
//!   it: interactive p99 queue delay collapses by orders of magnitude;
//! * **WFQ shared** — weighted-fair dispatch (8:1:1). Interactive
//!   requests overtake the batch backlog at every dispatch decision,
//!   holding interactive p99 near the isolated baseline while batch
//!   keeps the device saturated (work conservation);
//! * **quota** — no discipline at all, just a token bucket on the
//!   batch tenant: admissions are capped at exactly `rate·T + burst`
//!   over the run, no matter how hard the aggressor pushes.
//!
//! A fifth run demonstrates strict-priority dispatch with age
//! promotion: a closed-loop batch fleet saturates the device, and a
//! paced *background* tenant — the lowest class — is served only
//! through promotion, so its worst-case wait lands just past the
//! configured promotion age instead of growing without bound.
//!
//! Each configuration runs 2 simulated minutes (`examples/fig_tenant.rs`).

use ptsbench_core::frontend::{DispatchDiscipline, FrontendRun, TenantQuota, TenantSpec};
use ptsbench_core::registry::EngineKind;
use ptsbench_core::runner::RunConfig;
use ptsbench_core::ReqClass;
use ptsbench_harness::run_frontend;
use ptsbench_metrics::mt::MtStats;
use ptsbench_metrics::runreport::RunReport;
use ptsbench_ssd::{Ns, MILLISECOND, MINUTE, SECOND};
use ptsbench_workload::{ArrivalSpec, KeyDistribution};

/// 64 MiB total: four 16 MiB shards, the smallest SSD1 geometry.
const TOTAL_BYTES: u64 = 64 << 20;
const SHARDS: usize = 4;
/// WFQ class weights: interactive 8, batch 1, background 1.
const WEIGHTS: [u32; 3] = [8, 1, 1];
/// Strict-priority promotion age for the background-starvation run.
const PROMOTE_AFTER: Ns = 2 * SECOND;
/// Closed-loop batch aggressor fleet size in the strict-priority run.
const BATCH_CLIENTS: usize = 16;
/// Virtual time per configuration.
const DURATION: Ns = 2 * MINUTE;

fn config(clients: usize) -> FrontendRun {
    let mut cfg = FrontendRun::new(
        RunConfig {
            engine: EngineKind::lsm(),
            device_bytes: TOTAL_BYTES,
            read_fraction: 1.0,
            distribution: KeyDistribution::Zipfian { theta: 0.9 },
            duration: DURATION,
            sample_window: DURATION / 2,
            ..RunConfig::default()
        },
        clients,
    );
    cfg.shards = SHARDS;
    cfg
}

/// The paced interactive tenant: two clients, Poisson arrivals, ~10%
/// of fleet capacity in aggregate.
fn interactive_tenant(mean_service: Ns) -> TenantSpec {
    let mut spec = TenantSpec::new(ReqClass::Interactive, 2);
    spec.arrival = Some(ArrivalSpec::OpenPoisson {
        mean_interarrival_ns: 5 * mean_service,
    });
    spec
}

/// The open-loop batch aggressor: one client offering ~1.75× the
/// fleet's capacity, never backing off.
fn batch_aggressor(mean_service: Ns) -> TenantSpec {
    let mut spec = TenantSpec::new(ReqClass::Batch, 1);
    spec.arrival = Some(ArrivalSpec::OpenPoisson {
        mean_interarrival_ns: (mean_service / 7).max(1),
    });
    spec
}

fn shared_run(mean_service: Ns, discipline: DispatchDiscipline) -> RunReport {
    let mut cfg = config(3);
    cfg.tenants = vec![
        interactive_tenant(mean_service),
        batch_aggressor(mean_service),
    ];
    cfg.discipline = discipline;
    run_frontend(&cfg).expect("shared run")
}

fn int_p99_queue_delay(mt: &MtStats) -> Ns {
    mt.class(ReqClass::Interactive).queue_delay.quantile(0.99)
}

/// Runs the five serving configurations for 2 simulated minutes each and prints the interactive tenant's p99 queue delay against
/// its isolated baseline, the quota ledger and the starvation bound.
///
/// Asserts the five claims — FIFO collapses interactive latency (>= 10x
/// baseline), WFQ holds it within 2x while staying work-conserving, the
/// token bucket is a hard cap that a sustained over-offer nearly fills,
/// age promotion bounds background starvation — and that multi-tenant
/// reports render byte-identically run-to-run.
pub fn fig_tenant() {
    println!("ptsbench fig_tenant — multi-tenant serving: dispatch disciplines and quotas");
    println!(
        "{} MiB over {SHARDS} shards, lsm, Zipfian(0.9) reads, {} simulated minutes; \
         paced interactive tenant vs open-loop batch aggressor",
        TOTAL_BYTES >> 20,
        DURATION / MINUTE
    );

    // One zero-think closed-loop client: no queueing, pure service.
    let mean_service = crate::mean_service(&run_frontend(&config(1)).expect("calibration run"));
    println!(
        "calibration: mean service {:.1} ms → fleet capacity ≈ {:.0} ops/s",
        mean_service as f64 / MILLISECOND as f64,
        SHARDS as f64 * 1e9 / mean_service as f64
    );

    // --- Isolated baseline: the interactive tenant alone. -------------
    let iso = {
        let mut cfg = config(2);
        cfg.tenants = vec![interactive_tenant(mean_service)];
        run_frontend(&cfg).expect("isolated run")
    };
    let iso_mt = iso.mt_totals().expect("per-class stats");
    let iso_p99 = int_p99_queue_delay(&iso_mt);
    // The yardstick: isolated p99 queue delay plus one p99 service time
    // (a shared fleet can never do better than "behind one in-service
    // op", so the baseline must include that residual).
    let baseline = iso_p99 + iso.latency.quantile(0.99);

    // --- FIFO vs WFQ under the aggressor. ------------------------------
    let fifo = shared_run(mean_service, DispatchDiscipline::Fifo);
    let wfq = shared_run(
        mean_service,
        DispatchDiscipline::WeightedFair { weights: WEIGHTS },
    );
    let fifo_mt = fifo.mt_totals().expect("per-class stats");
    let wfq_mt = wfq.mt_totals().expect("per-class stats");
    let fifo_p99 = int_p99_queue_delay(&fifo_mt);
    let wfq_p99 = int_p99_queue_delay(&wfq_mt);

    println!();
    println!("interactive p99 queue delay (baseline = isolated p99 + p99 service):");
    println!(
        "  {:>22} {:>12.1} ms",
        "isolated baseline",
        baseline as f64 / 1e6
    );
    println!(
        "  {:>22} {:>12.1} ms ({:.0}x baseline)",
        "FIFO shared",
        fifo_p99 as f64 / 1e6,
        fifo_p99 as f64 / baseline as f64
    );
    println!(
        "  {:>22} {:>12.1} ms ({:.2}x baseline)",
        "WFQ 8:1:1 shared",
        wfq_p99 as f64 / 1e6,
        wfq_p99 as f64 / baseline as f64
    );

    assert!(
        fifo_p99 >= 10 * baseline,
        "FIFO must let the aggressor collapse interactive latency \
         ({fifo_p99} < 10x {baseline})"
    );
    assert!(
        wfq_p99 <= 2 * baseline,
        "WFQ must hold interactive near the isolated baseline \
         ({wfq_p99} > 2x {baseline})"
    );
    // Work conservation: favoring interactive must not idle the device
    // — batch throughput under WFQ stays within a few percent of FIFO.
    let batch_served = |mt: &MtStats| mt.class(ReqClass::Batch).slo.served;
    println!(
        "  batch requests served: FIFO {}, WFQ {}",
        batch_served(&fifo_mt),
        batch_served(&wfq_mt)
    );
    assert!(
        batch_served(&wfq_mt) as f64 >= 0.9 * batch_served(&fifo_mt) as f64,
        "WFQ must stay work-conserving: batch {} vs FIFO {}",
        batch_served(&wfq_mt),
        batch_served(&fifo_mt)
    );

    // --- Token-bucket quota on the aggressor. --------------------------
    // Cap the batch tenant at ~25% of fleet capacity with a small burst;
    // the aggressor keeps offering ~2x its quota.
    let quota_rate = (SHARDS as u64 * 1_000_000_000 / mean_service / 4).max(1);
    let quota = TenantQuota {
        rate_ops_per_sec: quota_rate,
        burst_ops: 16,
    };
    let quota_report = {
        let mut cfg = config(3);
        let mut aggressor = TenantSpec::new(ReqClass::Batch, 1);
        aggressor.arrival = Some(ArrivalSpec::OpenPoisson {
            mean_interarrival_ns: (1_000_000_000 / (2 * quota_rate)).max(1),
        });
        aggressor.quota = Some(quota);
        cfg.tenants = vec![interactive_tenant(mean_service), aggressor];
        run_frontend(&cfg).expect("quota run")
    };
    let quota_mt = quota_report.mt_totals().expect("per-tenant stats");
    let aggressor_ledger = &quota_mt.tenants[1];
    let cap = quota_rate * (DURATION / SECOND) + quota.burst_ops;
    println!();
    println!(
        "token bucket on batch ({} ops/s + {} burst): offered {} admitted {} \
         throttled {} (hard cap {})",
        quota_rate,
        quota.burst_ops,
        aggressor_ledger.offered,
        aggressor_ledger.admitted,
        aggressor_ledger.throttled,
        cap
    );
    assert!(
        aggressor_ledger.admitted <= cap,
        "the bucket is a hard cap: {} > {cap}",
        aggressor_ledger.admitted
    );
    assert!(
        aggressor_ledger.admitted as f64 >= 0.9 * (quota_rate * (DURATION / SECOND)) as f64,
        "a sustained over-offer must come out near its full quota: {} of {cap}",
        aggressor_ledger.admitted
    );
    assert!(
        aggressor_ledger.throttled > 0,
        "the over-offer must throttle"
    );
    assert_eq!(
        quota_mt.tenants[0].throttled, 0,
        "the unthrottled tenant is untouched by its neighbor's quota"
    );

    // --- Strict priority with age promotion. ---------------------------
    // A closed-loop batch fleet saturates the device; a paced
    // *background* tenant is only served through promotion. Promotion
    // serves the oldest waiting request, so a background request waits
    // at most until it *is* the oldest: the promotion age plus the time
    // to drain every batch request already in flight — in the worst
    // case the whole closed-loop fleet piled onto the Zipfian-hot shard
    // — while without promotion it would starve for the rest of the run.
    let sp = {
        let mut cfg = config(2 + BATCH_CLIENTS);
        let mut bg = TenantSpec::new(ReqClass::Background, 1);
        bg.arrival = Some(ArrivalSpec::OpenPoisson {
            mean_interarrival_ns: 20 * mean_service,
        });
        let mut int = TenantSpec::new(ReqClass::Interactive, 1);
        int.arrival = Some(ArrivalSpec::OpenPoisson {
            mean_interarrival_ns: 10 * mean_service,
        });
        cfg.tenants = vec![int, bg, TenantSpec::new(ReqClass::Batch, BATCH_CLIENTS)];
        cfg.discipline = DispatchDiscipline::StrictPriority {
            promote_after_ns: PROMOTE_AFTER,
        };
        run_frontend(&cfg).expect("strict-priority run")
    };
    let sp_mt = sp.mt_totals().expect("per-class stats");
    let bg_starve = sp_mt.class(ReqClass::Background).starve_max_ns;
    let starve_bound = PROMOTE_AFTER + (BATCH_CLIENTS as u64 + 2) * mean_service + SECOND;
    println!();
    println!(
        "strict priority (promote after {:.1} s): background starve max {:.2} s \
         (bound {:.2} s), interactive p99 {:.1} ms",
        PROMOTE_AFTER as f64 / 1e9,
        bg_starve as f64 / 1e9,
        starve_bound as f64 / 1e9,
        int_p99_queue_delay(&sp_mt) as f64 / 1e6
    );
    assert!(
        sp_mt.class(ReqClass::Background).slo.served > 0,
        "the background tenant must be served, not starved out"
    );
    assert!(
        bg_starve >= PROMOTE_AFTER,
        "strict priority must actually deprioritize background first: \
         {bg_starve} < {PROMOTE_AFTER}"
    );
    assert!(
        bg_starve <= starve_bound,
        "age promotion must bound background starvation: {bg_starve} > {starve_bound}"
    );

    // Headline guarantee: multi-tenant reports are deterministic.
    let rerun = shared_run(
        mean_service,
        DispatchDiscipline::WeightedFair { weights: WEIGHTS },
    );
    assert_eq!(
        wfq.render(),
        rerun.render(),
        "multi-tenant reports must render byte-identically"
    );
    println!();
    println!("determinism: byte-identical multi-tenant reports across runs — ok");
}
