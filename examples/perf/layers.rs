//! Per-layer unit costs: host nanoseconds per call into each crate's
//! public functions, measured from outside on small fixed fixtures that
//! do not depend on the workload. Each cost is the median over batches
//! of the batch's mean per-call time, at least 10 k calls in all, so the
//! ~25 ns a clock read costs is amortised away.

use std::hint::black_box;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use ptsbench::cache::{BlockCache, Compression};
use ptsbench::core::frontend::{DispatchDiscipline, FrontendRun};
use ptsbench::core::registry::EngineKind;
use ptsbench::core::runner::RunConfig;
use ptsbench::core::sharded::Sharding;
use ptsbench::core::{MaintConfig, PtsError, ReqClass};
use ptsbench::harness::{Frontend, ReqToken, Request};
use ptsbench::maint::{JobKind, MaintScheduler, RateBudget};
use ptsbench::metrics::histogram::LatencyHistogram;
use ptsbench::metrics::runreport::{RunReport, ShardReport};
use ptsbench::metrics::timeseries::TimeSeries;
use ptsbench::ssd::{
    Cause, ClockBarrier, DeviceProfile, IoCmd, IoQueue, LpnRange, Ssd, Tracer, MINUTE, SECOND,
};
use ptsbench::vfs::{Vfs, VfsOptions};
use ptsbench::workload::{
    fill_value, ArrivalClock, ArrivalSpec, KeyDistribution, Loader, OpGenerator, OpKind,
    WorkloadSpec,
};

use crate::host::{alloc_counters, arm_alloc_counting, quantile, Summary};

/// Named unit costs, in the order measured.
pub type Costs = Vec<(&'static str, f64)>;

/// A tiny deterministic generator for fixture addresses (the fixtures
/// must not consume workload randomness or depend on `--seed`).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self, bound: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) % bound
    }
}

/// Median over `batches` of the mean ns per call of `per_batch` calls.
fn per_call_ns(batches: usize, per_batch: usize, mut call: impl FnMut()) -> f64 {
    let mut means = Vec::with_capacity(batches);
    for _ in 0..batches {
        let t = Instant::now();
        for _ in 0..per_batch {
            call();
        }
        means.push(t.elapsed().as_nanos() as f64 / per_batch as f64);
    }
    Summary::of(&means).median
}

/// Like [`per_call_ns`], with untimed preparation before each batch;
/// both steps work on the fixture `on`.
fn per_call_ns_prepared<F, S>(
    on: &mut F,
    batches: usize,
    per_batch: usize,
    mut prepare: impl FnMut(&mut F) -> S,
    mut call: impl FnMut(&mut F, &mut S, usize),
) -> f64 {
    let mut means = Vec::with_capacity(batches);
    for _ in 0..batches {
        let mut state = prepare(on);
        let t = Instant::now();
        for i in 0..per_batch {
            call(on, &mut state, i);
        }
        means.push(t.elapsed().as_nanos() as f64 / per_batch as f64);
    }
    Summary::of(&means).median
}

const FIXTURE_BYTES: u64 = 64 << 20;

fn ssd(out: &mut Costs) -> Result<(), PtsError> {
    let mut device = Ssd::new(DeviceProfile::ssd1().scaled_to(FIXTURE_BYTES));
    let t = Instant::now();
    device.precondition(7)?;
    let gib = FIXTURE_BYTES as f64 / (1u64 << 30) as f64;
    out.push((
        "ssd.precondition.host_ms_per_gib",
        t.elapsed().as_secs_f64() * 1e3 / gib,
    ));
    // The preconditioned device is full and fragmented: every write
    // below pays its share of steady-state garbage collection.
    let pages = device.logical_pages();
    let mut rng = Lcg(1);
    let mut failed = None;
    out.push((
        "ssd.write_page.host_ns",
        per_call_ns(200, 100, || {
            if let Err(e) = device.write_page(rng.next(pages)) {
                failed = Some(e);
            }
        }),
    ));
    out.push((
        "ssd.write_range64.host_ns_per_page",
        per_call_ns(100, 10, || {
            let base = rng.next(pages - 64);
            if let Err(e) = device.write_range(LpnRange::new(base, base + 64)) {
                failed = Some(e);
            }
        }) / 64.0,
    ));
    out.push((
        "ssd.read_page.host_ns",
        per_call_ns(200, 100, || {
            black_box(device.read_page(rng.next(pages)));
        }),
    ));
    if let Some(e) = failed {
        return Err(e.into());
    }
    let shared = device.into_shared();
    out.push((
        "ssd.shared_lock.host_ns",
        per_call_ns(200, 1000, || {
            black_box(shared.lock().page_size());
        }),
    ));
    let mut queue = IoQueue::new(Arc::clone(&shared), 8);
    let mut failed = None;
    out.push((
        "ssd.ioqueue_roundtrip.host_ns",
        per_call_ns(200, 100, || {
            match queue.submit(IoCmd::read_page(rng.next(pages))) {
                Ok(token) => {
                    black_box(queue.wait(token));
                }
                Err(e) => failed = Some(e),
            }
        }),
    ));
    match failed {
        Some(e) => Err(e.into()),
        None => Ok(()),
    }
}

fn vfs(out: &mut Costs) -> Result<(), PtsError> {
    let device = Ssd::new(DeviceProfile::ssd1().scaled_to(FIXTURE_BYTES));
    let pages = device.logical_pages();
    let fs = Vfs::new(
        device.into_shared(),
        LpnRange::new(0, pages),
        VfsOptions::default(),
    );
    let block = vec![0xA5u8; 64 << 10];
    let mut failed = None;
    // Each batch appends 8 MiB to a fresh file, which is then deleted.
    for (name, background) in [
        ("vfs.append_64k.host_ns", false),
        ("vfs.append_bg_64k.host_ns", true),
    ] {
        let cost = per_call_ns_prepared(
            &mut failed,
            80,
            128,
            |failed| {
                fs.delete("appended").ok();
                fs.create("appended").map_err(|e| *failed = Some(e)).ok()
            },
            |failed, file, _| {
                let Some(id) = *file else { return };
                let result = if background {
                    fs.append_bg(id, &block)
                } else {
                    fs.append(id, &block)
                };
                if let Err(e) = result {
                    *failed = Some(e);
                }
            },
        );
        fs.delete("appended").ok();
        out.push((name, cost));
    }

    let vfs_error = |e| PtsError::engine("vfs", e);
    let paged = fs.create("paged").map_err(vfs_error)?;
    let file_pages = 4096u64;
    for _ in 0..file_pages / 16 {
        fs.append(paged, &block).map_err(vfs_error)?;
    }
    let page = &block[..4096];
    let mut rng = Lcg(2);
    out.push((
        "vfs.write_at_4k.host_ns",
        per_call_ns(200, 100, || {
            if let Err(e) = fs.write_at(paged, rng.next(file_pages) * 4096, page) {
                failed = Some(e);
            }
        }),
    ));
    out.push((
        "vfs.read_at_4k.host_ns",
        per_call_ns(200, 100, || {
            black_box(fs.read_at(paged, rng.next(file_pages) * 4096, 4096).ok());
        }),
    ));
    out.push((
        "vfs.fsync.host_ns",
        per_call_ns(200, 100, || {
            black_box(fs.fsync(paged).ok());
        }),
    ));
    let mut n = 0u64;
    out.push((
        "vfs.create_delete.host_ns",
        per_call_ns(200, 50, || {
            n += 1;
            let name = format!("tmp-{n}");
            black_box(fs.create(&name).ok());
            black_box(fs.delete(&name).ok());
        }),
    ));
    match failed {
        Some(e) => Err(vfs_error(e)),
        None => Ok(()),
    }
}

/// A 4 KiB block shaped like an engine's: keys followed by the
/// generator's (incompressible) value bytes.
fn data_block() -> Vec<u8> {
    let mut block = Vec::with_capacity(4096);
    let mut value = Vec::new();
    let mut key = 0u64;
    while block.len() < 4096 {
        block.extend_from_slice(format!("k{key:015}").as_bytes());
        fill_value(key, 1, 496, &mut value);
        block.extend_from_slice(&value);
        key += 1;
    }
    block.truncate(4096);
    block
}

fn cache(out: &mut Costs) {
    const BUDGET: u64 = 8 << 20;
    let resident = BUDGET / 4096;
    let block = Arc::new(data_block());
    let mut cache = BlockCache::new(BUDGET);
    for i in 0..resident {
        cache.insert((1, i * 4096), Arc::clone(&block), 4096);
    }
    let mut rng = Lcg(3);
    out.push((
        "cache.block_get_hit.host_ns",
        per_call_ns(200, 100, || {
            black_box(cache.get(&(1, rng.next(resident) * 4096)));
        }),
    ));
    out.push((
        "cache.block_get_miss.host_ns",
        per_call_ns(200, 100, || {
            black_box(cache.get(&(2, rng.next(1 << 30) * 4096)));
        }),
    ));
    // A full cache admits a newcomer only when the TinyLFU sketch rates
    // it above the victim, so each candidate is looked up (and missed)
    // a few times, untimed, before its timed insert evicts somebody.
    let mut next = 0u64;
    out.push((
        "cache.block_insert_evict.host_ns",
        per_call_ns_prepared(
            &mut cache,
            160,
            64,
            |cache| {
                let first = next;
                next += 64;
                for i in first..next {
                    for _ in 0..4 {
                        cache.get(&(3, i * 4096));
                    }
                }
                first
            },
            |cache, first, i| {
                cache.insert((3, (*first + i as u64) * 4096), Arc::clone(&block), 4096)
            },
        ),
    ));
    let codec = Compression::from_level(1);
    let encoded = codec.encode(&block);
    out.push((
        "cache.codec_encode_4k.host_ns",
        per_call_ns(200, 50, || {
            black_box(codec.encode(black_box(&block)));
        }),
    ));
    out.push((
        "cache.codec_decode_4k.host_ns",
        per_call_ns(200, 50, || {
            black_box(Compression::decode(black_box(&encoded)));
        }),
    ));
}

fn maint(out: &mut Costs) {
    let cfg = MaintConfig::enabled();
    let mut now = 0u64;
    let mut budget = RateBudget::new(cfg.rate_bytes_per_sec, cfg.burst_bytes, now);
    out.push((
        "maint.try_charge.host_ns",
        per_call_ns(200, 1000, || {
            now += 1_000_000;
            black_box(budget.try_charge(now, 4096));
        }),
    ));
    let mut scheduler = MaintScheduler::new(cfg, 0);
    out.push((
        "maint.sched_cycle.host_ns",
        per_call_ns(200, 1000, || {
            now += 1_000_000;
            scheduler.enqueue(JobKind::Flush);
            if black_box(scheduler.pop_ready(now, true)).is_some() {
                scheduler.charge(now, 4096, false);
            }
        }),
    ));
}

fn trace(out: &mut Costs) {
    let off = Tracer::off();
    let mut now = 0u64;
    out.push((
        "trace.span_off.host_ns",
        per_call_ns(200, 1000, || {
            now += 10;
            let id = off.begin("op.put", Cause::Put, now);
            off.end(black_box(id), now + 5);
        }),
    ));
    let on = Tracer::recording();
    out.push((
        "trace.span_on.host_ns",
        per_call_ns(200, 1000, || {
            now += 10;
            let id = on.begin("op.put", Cause::Put, now);
            on.end(black_box(id), now + 5);
        }),
    ));
    // 200 k spans were just recorded; export what the ring retained.
    let recorder = on.shared().expect("a recording tracer has a recorder");
    let exports: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            black_box(recorder.lock().export_chrome());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    out.push(("trace.export_chrome.host_ms", Summary::of(&exports).median));
}

fn spec(distribution: KeyDistribution) -> WorkloadSpec {
    WorkloadSpec {
        value_size: 4000,
        read_fraction: 0.5,
        distribution,
        seed: 7,
        ..WorkloadSpec::default()
    }
    .sized_to(256 << 20, 0.5)
}

fn workload(out: &mut Costs) {
    for (name, distribution) in [
        ("workload.next_op_uniform.host_ns", KeyDistribution::Uniform),
        (
            "workload.next_op_zipf.host_ns",
            KeyDistribution::Zipfian { theta: 0.99 },
        ),
    ] {
        let mut generator = OpGenerator::new(spec(distribution));
        out.push((
            name,
            per_call_ns(200, 100, || {
                black_box(generator.next_op().key_index);
            }),
        ));
    }
    let zipf = spec(KeyDistribution::Zipfian { theta: 0.99 });
    let news: Vec<f64> = (0..30)
        .map(|_| {
            let t = Instant::now();
            black_box(OpGenerator::new(zipf.clone()));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    out.push((
        "workload.generator_new_zipf.host_us",
        Summary::of(&news).median,
    ));
    let (_, bytes_before) = alloc_counters();
    arm_alloc_counting(true);
    let generator = OpGenerator::new(zipf.clone());
    arm_alloc_counting(false);
    drop(generator);
    let (_, bytes_after) = alloc_counters();
    out.push((
        "workload.generator_bytes",
        (bytes_after - bytes_before) as f64,
    ));

    let mut arrivals = ArrivalClock::new(
        ArrivalSpec::OpenPoisson {
            mean_interarrival_ns: SECOND,
        },
        7,
    );
    out.push((
        "workload.arrival_next.host_ns",
        per_call_ns(200, 1000, || {
            black_box(arrivals.next_submit());
            arrivals.note_submitted();
        }),
    ));
    let mut loader = Loader::new(zipf.clone());
    out.push((
        "workload.loader_next.host_ns",
        per_call_ns(200, 100, || {
            if loader.next_pair().is_none() {
                loader = Loader::new(zipf.clone());
            }
        }),
    ));
}

fn shard_report(index: usize) -> ShardReport {
    let mut latency = LatencyHistogram::new();
    let mut rng = Lcg(index as u64 + 11);
    for _ in 0..10_000 {
        latency.record(50_000 + rng.next(5_000_000));
    }
    let series = |name: &str| {
        let mut s = TimeSeries::new(name);
        for w in 1..=20u64 {
            s.push(w * MINUTE, series_value(index, w));
        }
        s
    };
    ShardReport {
        name: format!("shard{index}"),
        ops: 10_000,
        out_of_space: false,
        latency,
        app_bytes: 40_000_000,
        host_bytes: 400_000_000,
        io_depth: None,
        queue_delay: None,
        load: None,
        slo: None,
        mt: None,
        cache: None,
        cause: None,
        maint: None,
        series: vec![series("kv_kops"), series("dev_w_mbps")],
    }
}

fn series_value(index: usize, window: u64) -> f64 {
    (index as f64 + 1.0) * 3.5 + window as f64 * 0.25
}

fn metrics(out: &mut Costs) {
    let mut histogram = LatencyHistogram::new();
    let mut rng = Lcg(4);
    out.push((
        "metrics.hist_record.host_ns",
        per_call_ns(200, 1000, || {
            histogram.record(black_box(10_000 + rng.next(100_000_000)));
        }),
    ));
    out.push((
        "metrics.hist_quantile.host_ns",
        per_call_ns(200, 50, || {
            black_box(histogram.quantile(black_box(0.99)));
        }),
    ));
    let shards: Vec<ShardReport> = (0..8).map(shard_report).collect();
    out.push((
        "metrics.report_merge_render.host_us",
        per_call_ns(100, 2, || {
            black_box(RunReport::merge("fixture", 2, shards.clone()).render());
        }) / 1e3,
    ));
}

fn small_frontend(engine: EngineKind, discipline: DispatchDiscipline) -> FrontendRun {
    let mut run = FrontendRun::new(
        RunConfig {
            engine,
            device_bytes: 64 << 20,
            read_fraction: 1.0,
            duration: 600 * MINUTE,
            sample_window: 300 * MINUTE,
            seed: 7,
            ..RunConfig::default()
        },
        1,
    );
    run.shards = 4;
    run.sharding = Sharding::Hashed;
    run.discipline = discipline;
    run
}

fn read_request(key_index: u64) -> Request {
    Request {
        kind: OpKind::Read,
        key_index,
        class: ReqClass::Batch,
        ..Request::default()
    }
}

/// Median host ns of one `settle_one` with `backlog` requests waiting
/// across the fleet: each call scans every waiting room for the
/// earliest arrival, lets the discipline pick, removes the pick and
/// serves it.
fn settle_one_at(backlog: u64) -> Result<f64, PtsError> {
    let cfg = small_frontend(
        EngineKind::lsm(),
        DispatchDiscipline::WeightedFair { weights: [8, 1, 1] },
    );
    let keys = cfg.base.workload().num_keys;
    let mut frontend = Frontend::new(&cfg)?;
    let mut rng = Lcg(5);
    // Keep the backlog level while timing: one in for every one out.
    for _ in 0..backlog {
        frontend.submit(read_request(rng.next(keys)))?;
    }
    let mut samples = Vec::with_capacity(400);
    for _ in 0..400 {
        let t = Instant::now();
        let settled = frontend.settle_one()?;
        samples.push(t.elapsed().as_nanos() as f64);
        assert!(settled, "the backlog cannot drain while it is topped up");
        frontend.submit(read_request(rng.next(keys)))?;
    }
    samples.sort_by(f64::total_cmp);
    Ok(quantile(&samples, 0.5))
}

fn harness(out: &mut Costs) -> Result<(), PtsError> {
    out.push((
        "harness.settle_one_backlog1k.host_ns",
        settle_one_at(1_000)?,
    ));
    out.push((
        "harness.settle_one_backlog30k.host_ns",
        settle_one_at(30_000)?,
    ));

    // 100 k uncollected completions, as an open-loop run leaves behind.
    let cfg = small_frontend(ptsbench::hashlog::register(), DispatchDiscipline::Fifo);
    let keys = cfg.base.workload().num_keys;
    let mut frontend = Frontend::new(&cfg)?;
    let mut rng = Lcg(6);
    let mut tokens: Vec<ReqToken> = Vec::with_capacity(100_000);
    for _ in 0..100_000 {
        tokens.push(frontend.submit(read_request(rng.next(keys)))?);
    }
    frontend.advance_to(u64::MAX / 2);
    let mut polls: Vec<f64> = (0..50)
        .map(|_| {
            let t = Instant::now();
            black_box(frontend.poll());
            t.elapsed().as_nanos() as f64
        })
        .collect();
    polls.sort_by(f64::total_cmp);
    out.push(("harness.poll_pending100k.host_ns", quantile(&polls, 0.5)));
    let mut next = tokens.len();
    out.push((
        "harness.take.host_ns_p50",
        per_call_ns(200, 100, || {
            next -= 1;
            black_box(frontend.take(tokens[next]));
        }),
    ));

    // Two parties, as in the sharded workload: the cost of an epoch
    // boundary is the partner's wake-up, not the lock.
    const ARRIVALS: usize = 10_000;
    let barrier = ClockBarrier::new(2, SECOND);
    let per_arrival = std::thread::scope(|s| {
        let partner = Arc::clone(&barrier);
        let handle = s.spawn(move || {
            for _ in 0..ARRIVALS {
                partner.arrive();
            }
        });
        let t = Instant::now();
        for _ in 0..ARRIVALS {
            barrier.arrive();
        }
        let ns = t.elapsed().as_nanos() as f64 / ARRIVALS as f64;
        handle.join().expect("barrier partner panicked");
        ns
    });
    out.push(("harness.barrier_arrive.host_ns", per_arrival));
    Ok(())
}

/// Every workload-independent unit cost. Measured once per process:
/// the fixtures do not depend on the workload or the seed, and
/// `--self-test` runs twelve traced runs in one process.
pub fn unit_costs() -> Result<&'static Costs, String> {
    static COSTS: OnceLock<Result<Costs, String>> = OnceLock::new();
    COSTS
        .get_or_init(|| {
            let mut out = Costs::new();
            ssd(&mut out)
                .and_then(|()| vfs(&mut out))
                .and_then(|()| harness(&mut out))
                .map_err(|e| format!("unit costs: {e}"))?;
            cache(&mut out);
            maint(&mut out);
            trace(&mut out);
            workload(&mut out);
            metrics(&mut out);
            Ok(out)
        })
        .as_ref()
        .map_err(String::clone)
}
