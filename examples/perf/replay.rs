//! Boundary-by-boundary replays of a workload's op stream, with the
//! benchmark's own host-time spans around each call into a layer.
//!
//! Three replays, from the top of the stack down:
//!
//! * [`frontend_loop`] — a copy of the `run_frontend` event loop over
//!   the public `Frontend` calls (serving workloads);
//! * [`serve_level`] — `OpGenerator::next_op` → `Experiment::serve`, the
//!   closed loop `run()` and the sharded harness drive;
//! * [`engine_level`] — `build_stack` + `EngineKind::open` + `bulk_load`
//!   + `PtsEngine::{put, get, run_maintenance_slice}` on one shard.
//!
//! The first two must reproduce the real driver's virtual results
//! exactly (the caller compares fingerprints); the third reads back
//! sampled keys against the generator's model.

use std::time::Instant;

use ptsbench::core::measure::{build_stack, bulk_load, Experiment, Served};
use ptsbench::core::runner::RunConfig;
use ptsbench::core::{
    ClientBinding, EngineStats, EngineTuning, FrontendRun, PtsError, ReqClass, TenantId,
};
use ptsbench::harness::{Frontend, ReqOutcome, ReqToken, Request};
use ptsbench::ssd::{IoDepthStats, SmartCounters};
use ptsbench::vfs::FsStats;
use ptsbench::workload::{
    encode_key, fill_value, ArrivalClock, ArrivalSpec, OpGenerator, OpKind, WorkloadSpec,
};

use crate::host::{alloc_counters, arm_alloc_counting, NsSamples};
use crate::measure::ShardOut;
use crate::spans::SpanLog;

/// What a top-level replay's measured loop cost: host ns, and the
/// allocations the program made meanwhile.
#[derive(Debug, Default, Clone, Copy)]
pub struct LoopCost {
    pub ns: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

/// Times a measured loop with the allocation counter armed. The loops
/// run on one thread, so counting costs an uncontended atomic add per
/// allocation; the span log is preallocated, and what the sample
/// vectors add by doubling is a few dozen bytes per op.
struct CountedLoop {
    started: Instant,
    before: (u64, u64),
}

impl CountedLoop {
    fn start() -> Self {
        let before = alloc_counters();
        arm_alloc_counting(true);
        Self {
            started: Instant::now(),
            before,
        }
    }

    /// Adds this loop's cost to `total`.
    fn stop(self, total: &mut LoopCost) {
        total.ns += self.started.elapsed().as_nanos() as u64;
        arm_alloc_counting(false);
        let after = alloc_counters();
        total.allocs += after.0 - self.before.0;
        total.alloc_bytes += after.1 - self.before.1;
    }
}

/// What the closed-loop replay through `Experiment::serve` measured.
#[derive(Default)]
pub struct ServeLevel {
    pub shards: Vec<ShardOut>,
    pub ops: u64,
    /// The measured loops, all shards, one thread.
    pub measured: LoopCost,
    pub serve: NsSamples,
    pub finish: NsSamples,
}

/// Replays each `(config, workload)` shard as the closed loop
/// `Experiment::run_until` runs, but one `serve` call at a time.
pub fn serve_level(
    log: &mut SpanLog,
    shards: &[(RunConfig, WorkloadSpec)],
) -> Result<ServeLevel, PtsError> {
    let mut out = ServeLevel::default();
    for (cfg, workload) in shards {
        let mut experiment = log.span("core.prepare", || {
            Experiment::prepare_with(cfg, workload.clone())
        })?;
        let mut generator = OpGenerator::new(workload.clone());
        let counted = CountedLoop::start();
        while !experiment.done() {
            out.ops += 1;
            log.set_request(out.ops);
            log.begin("op");
            log.begin("workload.next_op");
            let op = generator.next_op();
            log.end();
            log.begin("core.serve");
            let served = experiment.serve(0, op.kind, op.key, op.value);
            out.serve.push(log.end());
            log.end();
            if served? == Served::OutOfSpace {
                out.ops -= 1;
                break;
            }
        }
        counted.stop(&mut out.measured);
        log.set_request(0);
        let result = log.timed("core.finish", &mut out.finish, || experiment.finish());
        out.shards.push(ShardOut::plain(result));
    }
    Ok(out)
}

/// What the engine-level replay measured on its one shard.
pub struct EngineLevel {
    pub build_stack_ms: f64,
    pub bulk_load_ms: f64,
    pub keys_loaded: u64,
    pub ops: u64,
    pub put: NsSamples,
    pub get: NsSamples,
    /// `run_maintenance_slice` calls that did work.
    pub slice: NsSamples,
    /// Host ns inside engine calls (puts, gets, every slice poll).
    pub engine_ns: u64,
    pub smart: SmartCounters,
    pub io_depth: IoDepthStats,
    pub fs: FsStats,
    pub stats: EngineStats,
    pub readback_checked: u64,
    pub readback_mismatches: u64,
}

/// Keys read back after the engine-level replay.
const READBACK_KEYS: u64 = 1000;

/// Replays one shard below `Experiment`: the stack is built, the engine
/// opened and loaded, and the generator's ops applied through the
/// `PtsEngine` trait with the same virtual CPU charge and maintenance
/// pumping `Experiment::run_until` applies, for the same virtual
/// duration.
pub fn engine_level(
    log: &mut SpanLog,
    cfg: &RunConfig,
    workload: &WorkloadSpec,
) -> Result<EngineLevel, PtsError> {
    let t = Instant::now();
    let stack = log.span("core.build_stack", || build_stack(cfg))?;
    let build_stack_ms = t.elapsed().as_secs_f64() * 1e3;
    let tuning = EngineTuning::for_device(cfg.device_bytes)
        .with_queue_depth(cfg.queue_depth)
        .with_cache_bytes(cfg.cache_bytes)
        .with_compression_level(cfg.compression_level)
        .with_maint(cfg.maint);
    let mut engine = log.span("engine.open", || {
        cfg.engine.open(stack.vfs.clone(), &tuning)
    })?;
    let t = Instant::now();
    log.span("core.bulk_load", || bulk_load(engine.as_mut(), workload))?;
    let bulk_load_ms = t.elapsed().as_secs_f64() * 1e3;

    stack.shared.lock().reset_observability();
    stack.vfs.reset_peak_usage();
    let t0 = stack.clock.now();
    let cpu_cost = ((cfg.cpu_cost_ns.unwrap_or(cfg.engine.default_cpu_cost_ns()) as f64)
        * cfg.scale())
    .round() as u64;
    let mut generator = OpGenerator::new(workload.clone());
    let mut out = EngineLevel {
        build_stack_ms,
        bulk_load_ms,
        keys_loaded: workload.owned_keys(),
        ops: 0,
        put: NsSamples::default(),
        get: NsSamples::default(),
        slice: NsSamples::default(),
        engine_ns: 0,
        smart: SmartCounters::default(),
        io_depth: IoDepthStats::default(),
        fs: stack.vfs.stats(),
        stats: engine.stats(),
        readback_checked: 0,
        readback_mismatches: 0,
    };
    while stack.clock.now() - t0 < cfg.duration {
        out.ops += 1;
        log.set_request(out.ops);
        log.begin("op");
        log.begin("workload.next_op");
        let op = generator.next_op();
        log.end();
        let ns = match op.kind {
            OpKind::Update => {
                log.begin("engine.put");
                let r = engine.put(op.key, op.value);
                let ns = log.end();
                r?;
                out.put.push(ns);
                ns
            }
            OpKind::Read => {
                log.begin("engine.get");
                let r = engine.get(op.key);
                let ns = log.end();
                r?;
                out.get.push(ns);
                ns
            }
        };
        out.engine_ns += ns;
        stack.clock.advance(cpu_cost);
        loop {
            log.begin("engine.bg_slice");
            let worked = engine.run_maintenance_slice();
            let ns = log.end();
            out.engine_ns += ns;
            if !worked? {
                break;
            }
            out.slice.push(ns);
        }
        log.end();
    }
    log.set_request(0);
    log.span("engine.drain", || {
        engine.drain_maintenance()?;
        engine.drain_io();
        Ok::<_, PtsError>(())
    })?;

    {
        let dev = stack.shared.lock();
        out.smart = dev.smart();
        out.io_depth = dev.io_depth_stats();
    }
    out.fs = stack.vfs.stats();
    out.stats = engine.stats();

    // Read back evenly spaced owned keys against the generator's model.
    let stride = (workload.num_keys / READBACK_KEYS).max(1);
    let (mut key, mut want) = (Vec::new(), Vec::new());
    let mut index = workload.key_base;
    while index < workload.key_end() && out.readback_checked < READBACK_KEYS {
        if workload.owns_key(index) {
            encode_key(index, workload.key_size, &mut key);
            let version = generator.version_of(index) as u64;
            fill_value(index, version, workload.value_size, &mut want);
            out.readback_checked += 1;
            if engine.get(&key)?.as_deref() != Some(want.as_slice()) {
                out.readback_mismatches += 1;
            }
            index += stride;
        } else {
            index += 1;
        }
    }
    Ok(out)
}

/// What the copy of the `run_frontend` event loop measured.
#[derive(Default)]
pub struct FrontendLoop {
    pub shards: Vec<ShardOut>,
    pub requests: u64,
    pub measured: LoopCost,
    pub submit: NsSamples,
    /// Host ns inside `Frontend` calls (everything but the driver's own
    /// scans, generator calls and request construction).
    pub frontend_ns: u64,
    pub pending_peak: usize,
    pub backlog_peak: usize,
}

struct Client {
    generator: OpGenerator,
    arrivals: ArrivalClock,
    spec: ArrivalSpec,
    class: ReqClass,
    tenant: TenantId,
    inflight: Option<ReqToken>,
}

/// A copy of `ptsbench_harness::run_frontend_with_results`'s event loop
/// (same three moves per iteration, same order, same tie-breaks) over
/// the public `Frontend` API, with a span around every call.
pub fn frontend_loop(log: &mut SpanLog, cfg: &FrontendRun) -> Result<FrontendLoop, PtsError> {
    let mut out = FrontendLoop::default();
    let mut frontend = log.span("harness.frontend_new", || Frontend::new(cfg))?;
    let mut clients: Vec<Client> = log.span("workload.clients_new", || {
        (0..cfg.clients)
            .map(|c| Client {
                generator: OpGenerator::new(cfg.client_workload(c)),
                arrivals: ArrivalClock::new(cfg.client_arrival(c), cfg.client_arrival_seed(c)),
                spec: cfg.client_arrival(c),
                class: cfg.client_class(c),
                tenant: cfg.tenant_of_client(c),
                inflight: None,
            })
            .collect()
    });
    let counted = CountedLoop::start();
    loop {
        // 1. Blocked closed-loop clients whose requests have resolved.
        let mut resolved_any = false;
        for client in clients.iter_mut() {
            let Some(token) = client.inflight else {
                continue;
            };
            log.begin("harness.take");
            let completion = frontend.take(token);
            out.frontend_ns += log.end();
            let Some(completion) = completion else {
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
                out.requests += 1;
                log.set_request(out.requests);
                log.begin("request");
                frontend.advance_to(at);
                log.begin("harness.settle_to");
                let settled = frontend.settle_to(at.saturating_sub(1));
                out.frontend_ns += log.end();
                settled?;
                let client = &mut clients[client_idx];
                log.begin("workload.next_op");
                let op = client.generator.next_op();
                log.end();
                let request = Request {
                    kind: op.kind,
                    key_index: op.key_index,
                    value: op.value.to_vec(),
                    class: client.class,
                    tenant: client.tenant,
                };
                client.arrivals.note_submitted();
                log.begin("harness.submit");
                let token = frontend.submit(request);
                let ns = log.end();
                out.submit.push(ns);
                out.frontend_ns += ns;
                if client.spec.is_closed() {
                    client.inflight = Some(token?);
                } else {
                    token?;
                }
                log.end();
                out.pending_peak = out.pending_peak.max(frontend.pending());
                let backlog: usize = (0..cfg.shards).map(|s| frontend.in_flight(s)).sum();
                out.backlog_peak = out.backlog_peak.max(backlog);
                continue;
            }
        }

        // 3. Nothing submitted: force the dispatcher's next decision.
        if resolved_any {
            continue;
        }
        log.set_request(0);
        log.begin("harness.settle_one");
        let settled = frontend.settle_one();
        out.frontend_ns += log.end();
        if !settled? {
            break;
        }
    }
    log.begin("harness.settle");
    let settled = frontend.settle();
    out.frontend_ns += log.end();
    settled?;
    log.begin("harness.finish");
    let shards = frontend.finish();
    out.frontend_ns += log.end();
    counted.stop(&mut out.measured);
    out.shards = shards
        .into_iter()
        .map(|shard| ShardOut::served(shard, cfg))
        .collect();
    Ok(out)
}
