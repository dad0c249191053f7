//! End-to-end rounds: one round is one full run of a workload through
//! the repository's own driver (`Experiment` for `run()` workloads,
//! `run_sharded_with_results`, `run_frontend_with_results`), with the
//! set-up and the measured phase timed apart on the host clock and the
//! model's results read off the virtual one.

use std::time::Instant;

use ptsbench::core::measure::Experiment;
use ptsbench::core::runner::RunResult;
use ptsbench::core::{FrontendRun, PtsError, ShardedRun};
use ptsbench::harness::{
    run_frontend_with_results, run_sharded_with_results, Frontend, FrontendShardResult,
    HarnessOutcome,
};
use ptsbench::metrics::histogram::LatencyHistogram;
use ptsbench::metrics::load::ShardLoad;
use ptsbench::metrics::mt::MtStats;
use ptsbench::metrics::slo::SloStats;
use ptsbench::workload::{ArrivalClock, OpGenerator};

use crate::host::{cpu_seconds, peak_rss_mib, Summary};
use crate::report::{WorkloadResult, END_TO_END};
use crate::workloads::{Scenario, Workload};

/// What one shard of a run produced, in the one shape the real drivers
/// and the benchmark's replays can both be reduced to — so "the replay
/// reproduced the run" is a string comparison of [`fingerprint`]s.
pub struct ShardOut {
    pub result: RunResult,
    pub queue_delay: Option<LatencyHistogram>,
    pub load: Option<ShardLoad>,
    pub slo: Option<SloStats>,
    pub mt: Option<MtStats>,
}

impl ShardOut {
    pub fn plain(result: RunResult) -> Self {
        Self {
            result,
            queue_delay: None,
            load: None,
            slo: None,
            mt: None,
        }
    }

    /// A front-end shard, with the serving sections attached under the
    /// same conditions `run_frontend_with_results` attaches them.
    pub fn served(shard: FrontendShardResult, cfg: &FrontendRun) -> Self {
        let serving = !cfg.is_conformant();
        Self {
            result: shard.result,
            queue_delay: serving.then_some(shard.queue_delay),
            load: serving.then_some(shard.load),
            slo: cfg.slo.is_active().then_some(shard.slo),
            mt: cfg.mt_active().then_some(shard.mt),
        }
    }
}

pub fn shards_of(outcome: HarnessOutcome) -> Vec<ShardOut> {
    outcome
        .shard_results
        .into_iter()
        .zip(outcome.report.shards)
        .map(|(result, report)| ShardOut {
            result,
            queue_delay: report.queue_delay,
            load: report.load,
            slo: report.slo,
            mt: report.mt,
        })
        .collect()
}

fn histogram_print(h: &LatencyHistogram) -> String {
    format!(
        "n={} mean={:?} min={} max={} cdf={:?}",
        h.count(),
        h.mean(),
        h.min(),
        h.max(),
        h.cdf_points()
    )
}

/// Every virtual-clock quantity of a run, rendered exactly (floats in
/// round-trip form). Leaves out what tracing legitimately changes: the
/// label's `/tr` suffix, the cause ledger and the recorder handle.
pub fn fingerprint(shards: &[ShardOut]) -> String {
    let mut out = String::new();
    for (i, s) in shards.iter().enumerate() {
        let r = &s.result;
        out.push_str(&format!(
            "shard{i} ops={} oos={} fdl={} samples={:?} latency[{}] disk={} dataset={} \
             partition={} app={} hostw={} hostr={} cache={:?} io={:?} maint={:?} steady={:?}\n",
            r.ops_executed,
            r.out_of_space,
            r.failed_during_load,
            r.samples,
            histogram_print(&r.latency),
            r.disk_used_bytes,
            r.dataset_bytes,
            r.partition_bytes,
            r.app_bytes_written,
            r.host_bytes_written,
            r.host_bytes_read,
            r.cache,
            r.io_depth,
            r.maint,
            r.steady,
        ));
        if let Some(qd) = &s.queue_delay {
            out.push_str(&format!(" queue_delay[{}]\n", histogram_print(qd)));
        }
        if let Some(load) = &s.load {
            out.push_str(&format!(" load={load:?}\n"));
        }
        if let Some(slo) = &s.slo {
            out.push_str(&format!(" slo={slo:?}\n"));
        }
        if let Some(mt) = &s.mt {
            out.push_str(&format!(" mt={}\n", mt.render()));
        }
    }
    out
}

/// The model's own outputs for one run (virtual clock, reference scale).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Virt {
    pub kops: f64,
    pub svc_p50_ms: f64,
    pub svc_p99_ms: f64,
    pub wa_a: f64,
    pub wa_d: f64,
    pub space_amp: f64,
}

/// The histogram's bucket growth factor (its documented ~4 %
/// resolution): a bucket with upper edge `e` covers `[e / 1.04, e)`.
const BUCKET_GROWTH: f64 = 1.04;

/// The `q`-quantile of a latency histogram in ns, interpolated
/// log-linearly inside the bucket the quantile falls in.
/// `LatencyHistogram::quantile` returns the bucket's upper edge, which
/// reads identically for every seed whose quantile lands in the same 4 %
/// bucket; the interpolated estimate stays within that bucket but moves
/// with the counts, so it resolves differences smaller than a bucket.
pub fn quantile_ns(h: &LatencyHistogram, q: f64) -> f64 {
    let mut below = 0.0;
    for (edge, cum) in h.cdf_points() {
        if cum >= q {
            let edge = edge as f64;
            let share = if cum > below {
                (q - below) / (cum - below)
            } else {
                1.0
            };
            return edge / BUCKET_GROWTH * BUCKET_GROWTH.powf(share);
        }
        below = cum;
    }
    h.max() as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        1.0
    } else {
        num / den
    }
}

impl Virt {
    /// `scale` is the capacity ratio that converts simulated latencies
    /// to reference scale (`RunConfig::scale`).
    fn new(kops: f64, latency: &LatencyHistogram, scale: f64, shards: &[ShardOut]) -> Self {
        let sum = |f: fn(&RunResult) -> f64| shards.iter().map(|s| f(&s.result)).sum::<f64>();
        let host_w = sum(|r| r.host_bytes_written as f64);
        Self {
            kops,
            svc_p50_ms: quantile_ns(latency, 0.5) / scale / 1e6,
            svc_p99_ms: quantile_ns(latency, 0.99) / scale / 1e6,
            // Fleet amplifications are byte-weighted over shards.
            wa_a: ratio(host_w, sum(|r| r.app_bytes_written as f64)),
            wa_d: ratio(sum(|r| r.steady.wa_d * r.host_bytes_written as f64), host_w),
            space_amp: ratio(
                sum(|r| r.disk_used_bytes as f64),
                sum(|r| r.dataset_bytes as f64),
            ),
        }
    }
}

/// What a stretch of benchmark work cost the host.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Cost {
    pub wall_s: f64,
    /// CPU seconds over all threads.
    pub cpu_s: f64,
}

impl std::ops::Sub for Cost {
    type Output = Cost;
    fn sub(self, rhs: Cost) -> Cost {
        Cost {
            wall_s: self.wall_s - rhs.wall_s,
            cpu_s: self.cpu_s - rhs.cpu_s,
        }
    }
}

/// Runs `f` and reports what it cost.
pub fn observe<T>(f: impl FnOnce() -> T) -> (T, Cost) {
    let cpu0 = cpu_seconds();
    let t = Instant::now();
    let out = f();
    let wall_s = t.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds() - cpu0;
    (out, Cost { wall_s, cpu_s })
}

/// One measured round.
pub struct Round {
    /// Everything before the first measured op.
    pub setup: Cost,
    /// The measured phase.
    pub measured: Cost,
    /// Simulated ops resolved in the measured phase.
    pub attempted: u64,
    /// Of those, how many did not succeed.
    pub failed: u64,
    pub virt: Virt,
    pub shards: Vec<ShardOut>,
}

/// Prepares every shard of a sharded run the way the harness's client
/// threads do (one thread per client, each preparing its own shards).
fn prepare_fleet(run: &ShardedRun) -> Result<Vec<Experiment>, PtsError> {
    let per_client: Vec<Result<Vec<Experiment>, PtsError>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..run.clients)
            .map(|client| {
                s.spawn(move || {
                    run.shards_of_client(client)
                        .into_iter()
                        .map(|shard| {
                            Experiment::prepare_with(
                                &run.shard_config(shard),
                                run.shard_workload(shard),
                            )
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("set-up thread panicked"))
            .collect()
    });
    let mut fleet = Vec::new();
    for experiments in per_client {
        fleet.extend(experiments?);
    }
    Ok(fleet)
}

/// Everything `run_frontend` builds before its first submission: the
/// shard fleet plus each client's generator and arrival clock.
fn prepare_frontend(
    run: &FrontendRun,
) -> Result<(Frontend, Vec<(OpGenerator, ArrivalClock)>), PtsError> {
    let frontend = Frontend::new(run)?;
    let clients = (0..run.clients)
        .map(|c| {
            (
                OpGenerator::new(run.client_workload(c)),
                ArrivalClock::new(run.client_arrival(c), run.client_arrival_seed(c)),
            )
        })
        .collect();
    Ok((frontend, clients))
}

/// Costs one set-up of `scenario` on its own and throws the result away
/// (the extra `setup_s` samples, and the figure subtracted from the
/// fleet drivers' totals). Dropping the stack is not part of the cost.
pub fn observe_setup(scenario: &Scenario) -> Result<Cost, PtsError> {
    match scenario {
        Scenario::Single(cfg) => {
            let (prepared, cost) = observe(|| Experiment::prepare(cfg));
            prepared.map(|_| cost)
        }
        Scenario::Sharded(run) => {
            let (prepared, cost) = observe(|| prepare_fleet(run));
            prepared.map(|_| cost)
        }
        Scenario::Serve(run) => {
            let (prepared, cost) = observe(|| prepare_frontend(run));
            prepared.map(|_| cost)
        }
    }
}

fn count_failures(shards: &[ShardOut]) -> (u64, u64) {
    let mut attempted = 0;
    let mut failed = 0;
    for s in shards {
        match &s.load {
            // Serving: every routed request resolves one way or another.
            Some(load) => {
                attempted += load.requests;
                failed += load.requests - load.served;
            }
            // Closed loops stop at the first op that finds no space.
            None => {
                let oos = u64::from(s.result.out_of_space);
                attempted += s.result.ops_executed + oos;
                failed += oos;
            }
        }
    }
    (attempted, failed)
}

/// Runs one round of `scenario`.
///
/// The fleet drivers build their shards internally, so their set-up is
/// costed standalone first and subtracted from the driver's total.
pub fn run_round(scenario: &Scenario) -> Result<Round, PtsError> {
    let (setup, measured, virt, shards) = match scenario {
        Scenario::Single(cfg) => {
            let (experiment, setup) = observe(|| Experiment::prepare(cfg));
            let mut experiment = experiment?;
            let (result, measured) = observe(|| {
                experiment.run_until(cfg.duration)?;
                Ok::<_, PtsError>(experiment.finish())
            });
            let result = result?;
            let kops = result.steady.steady_kops;
            let latency = result.latency.clone();
            let shards = vec![ShardOut::plain(result)];
            let virt = Virt::new(kops, &latency, cfg.scale(), &shards);
            (setup, measured, virt, shards)
        }
        Scenario::Sharded(run) => {
            let setup = observe_setup(scenario)?;
            let (outcome, total) = observe(|| run_sharded_with_results(run));
            let (virt, shards) = fleet_outputs(outcome?, run.scale());
            (setup, total - setup, virt, shards)
        }
        Scenario::Serve(run) => {
            let setup = observe_setup(scenario)?;
            let (outcome, total) = observe(|| run_frontend_with_results(run));
            let (virt, shards) = fleet_outputs(outcome?, run.topology().scale());
            (setup, total - setup, virt, shards)
        }
    };
    let (attempted, failed) = count_failures(&shards);
    Ok(Round {
        setup,
        measured,
        attempted,
        failed,
        virt,
        shards,
    })
}

fn fleet_outputs(outcome: HarnessOutcome, scale: f64) -> (Virt, Vec<ShardOut>) {
    let kops = outcome.report.steady_mean("kv_kops").unwrap_or(0.0);
    let latency = outcome.report.latency.clone();
    let shards = shards_of(outcome);
    (Virt::new(kops, &latency, scale, &shards), shards)
}

/// The timed (untraced) run of one workload: rounds until `seconds` of
/// measured host time have accumulated, at least one, then the medians.
pub fn timed_run(w: &Workload, seed: u64, seconds: f64) -> WorkloadResult {
    let mut result = WorkloadResult::new(w, seed, false);
    let mut rounds: Vec<Round> = Vec::new();
    let mut measured = 0.0;
    while rounds.is_empty() || measured < seconds {
        match run_round(&w.scenario) {
            Ok(round) => {
                measured += round.measured.wall_s;
                rounds.push(round);
            }
            Err(e) => {
                result.fail(format!("round {} failed: {e}", rounds.len() + 1));
                break;
            }
        }
    }
    // `setup_s` is a median of at least three set-ups; cheap set-ups
    // are repeated until a second of them has been sampled. (A smoke
    // run, `seconds` = 0, makes do with its one round's.)
    let mut setups: Vec<f64> = rounds.iter().map(|r| r.setup.wall_s).collect();
    while !rounds.is_empty()
        && seconds > 0.0
        && (setups.len() < 3 || (setups.len() < 15 && setups.iter().sum::<f64>() < 1.0))
    {
        match observe_setup(&w.scenario) {
            Ok(cost) => setups.push(cost.wall_s),
            Err(e) => {
                result.fail(format!("extra set-up failed: {e}"));
                break;
            }
        }
    }
    let Some(first) = rounds.first() else {
        return result;
    };

    let reference = fingerprint(&first.shards);
    for (i, round) in rounds.iter().enumerate().skip(1) {
        if fingerprint(&round.shards) != reference {
            result.fail(format!(
                "round {} produced different virtual results",
                i + 1
            ));
        }
    }
    result.check_accounting(first);
    result.rounds = rounds.len();
    result.attempted = rounds.iter().map(|r| r.attempted).sum();
    result.failed = rounds.iter().map(|r| r.failed).sum();

    let rates: Vec<f64> = rounds
        .iter()
        .map(|r| r.attempted as f64 / r.measured.wall_s)
        .collect();
    let v = first.virt;
    for (name, summary) in [
        ("sim_ops_per_host_s", Summary::of(&rates)),
        ("setup_s", Summary::of(&setups)),
        ("peak_rss_mb", Summary::exact(peak_rss_mib())),
        ("virt_kops", Summary::exact(v.kops)),
        ("virt_svc_p50_ms", Summary::exact(v.svc_p50_ms)),
        ("virt_svc_p99_ms", Summary::exact(v.svc_p99_ms)),
        ("wa_a", Summary::exact(v.wa_a)),
        ("wa_d", Summary::exact(v.wa_d)),
        ("space_amp", Summary::exact(v.space_amp)),
    ] {
        result.push(END_TO_END, name, summary);
    }
    result.check_against(END_TO_END);
    result
}
