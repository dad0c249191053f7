//! Read-amplification sweep — beyond the paper: device read traffic of
//! every registered engine under a fixed, seeded Zipfian point-read
//! stream, as the read-path tier's block-cache budget grows and the
//! compression codec switches on.
//!
//! Each probe builds a stack, bulk-loads the default dataset, then
//! replays an identical skewed get stream and measures device read
//! bytes over it. The stream is the same at every sweep point, so the
//! sweep isolates exactly one variable: the tier configuration. The
//! LSM and the hash log consult the shared TinyLFU-gated block cache;
//! the B+Tree's paper pager (its budget overridable through the same
//! knob) serves as the baseline the tier's accounting was unified with.
//!
//! The claims asserted:
//!
//! * device read bytes fall monotonically as the cache budget grows,
//!   and a real budget beats the seed read path outright (LSM and hash
//!   log; the B+Tree's paper pager is its own baseline);
//! * compression shrinks the on-disk footprint when data is actually
//!   compressible (workload fill values are pseudorandom, so the
//!   footprint check uses a dedicated compressible dataset);
//! * the whole sweep is bit-reproducible;
//! * a cache-off harness run renders with no cache accounting at all,
//!   while a cache-on run reports per-shard hit rates.
//!
//! Each probe replays 4 000 gets (`examples/fig_readamp.rs`).

use ptsbench_core::measure::{build_stack, bulk_load};
use ptsbench_core::registry::{EngineKind, EngineRegistry};
use ptsbench_core::runner::RunConfig;
use ptsbench_core::sharded::ShardedRun;
use ptsbench_harness::run_sharded;
use ptsbench_lsm::{LsmDb, LsmOptions};
use ptsbench_ssd::{DeviceConfig, DeviceProfile, Ssd, MINUTE};
use ptsbench_vfs::{EngineTuning, Vfs, VfsOptions};
use ptsbench_workload::{encode_key, KeyDistribution, Sampler};

/// 64 MiB stand-in for the 400 GB reference drive.
const DEVICE_BYTES: u64 = 64 << 20;

/// Cache budgets swept per engine (0 = the seed read path).
const BUDGETS: [u64; 4] = [0, 256 << 10, 1 << 20, 4 << 20];
/// Zipfian point gets per probe.
const GETS: u64 = 4_000;

/// One sweep point's measurements.
struct Probe {
    device_read_bytes: u64,
    hit_rate: Option<f64>,
}

/// Builds a stack + engine with the given tier knobs, loads the default
/// dataset, replays [`GETS`] seeded Zipfian point gets, and measures
/// device read traffic. Fully deterministic per configuration.
fn read_probe(engine: EngineKind, cache_bytes: u64, level: u8) -> Probe {
    let cfg = RunConfig {
        engine,
        device_bytes: DEVICE_BYTES,
        cache_bytes,
        compression_level: level,
        ..RunConfig::default()
    };
    let stack = build_stack(&cfg).expect("stack");
    let mut system = engine
        .open(stack.vfs.clone(), &cfg.tuning())
        .expect("open engine");
    let workload = cfg.workload();
    bulk_load(system.as_mut(), &workload).expect("bulk load");
    system.flush().expect("flush");
    stack.shared.lock().reset_observability();

    // The same seed at every sweep point: identical key stream, so the
    // only variable is the tier configuration.
    let mut sampler = Sampler::new(
        KeyDistribution::Zipfian { theta: 0.9 },
        workload.num_keys,
        0xAC_CE55,
    );
    let mut key = Vec::new();
    for _ in 0..GETS {
        encode_key(
            workload.key_base + sampler.sample(),
            workload.key_size,
            &mut key,
        );
        let hit = system.get(&key).expect("get");
        assert!(hit.is_some(), "every loaded key must be readable");
    }
    system.drain_io();

    let read_bytes = stack.shared.lock().smart().host_pages_read * stack.page_size;
    let cache = system.stats().cache;
    Probe {
        device_read_bytes: read_bytes,
        hit_rate: cache.and_then(|c| {
            let total = c.hits + c.misses;
            (total > 0).then(|| c.hits as f64 / total as f64)
        }),
    }
}

/// On-disk footprint of a *compressible* dataset at a given level
/// (the sweep's workload values are pseudorandom, i.e. incompressible,
/// so the compression claim needs its own dataset).
fn compressible_footprint(level: u8) -> u64 {
    let ssd = Ssd::new(DeviceConfig::from_profile(DeviceProfile::ssd1(), 48 << 20));
    let vfs = Vfs::whole_device(ssd.into_shared(), VfsOptions::default());
    let opts = LsmOptions {
        tuning: EngineTuning::for_device(0).with_compression_level(level),
        ..LsmOptions::small()
    };
    let mut db = LsmDb::open(vfs.clone(), opts).expect("open");
    for i in 0..4_000u64 {
        let key = format!("key{i:08}");
        let value = format!("v{:02}", i % 10).repeat(64);
        db.put(key.as_bytes(), value.as_bytes()).expect("put");
    }
    db.flush().expect("flush");
    vfs.stats().used_bytes
}

/// Sweeps cache budget x compression level on every registered engine,
/// 4 000 Zipfian point gets per probe, printing one line per probe and
/// a cache-on harness report; asserts the claims in the module doc.
pub fn fig_readamp() {
    println!("ptsbench fig_readamp — read-path acceleration tier demo");
    println!(
        "{} MiB simulated drive, {GETS} Zipfian(0.9) point gets per probe",
        DEVICE_BYTES >> 20
    );
    println!();

    for engine in EngineRegistry::all() {
        let label = engine.label();
        // The B+Tree ignores the compression knob (fixed-size page
        // slots), so only its cache axis is swept.
        let levels: &[u8] = if label == "btree" { &[0] } else { &[0, 3] };
        for &level in levels {
            let mut probes = Vec::new();
            for budget in BUDGETS {
                let p = read_probe(engine, budget, level);
                println!(
                    "{:>18}  device reads {:>10} B  ({:>10.2} B/get, cache hit {})",
                    format!("{label}/c{}k/z{level}", budget >> 10),
                    p.device_read_bytes,
                    p.device_read_bytes as f64 / GETS as f64,
                    p.hit_rate
                        .map_or_else(|| "   n/a".into(), |r| format!("{:>5.1}%", r * 100.0)),
                );
                probes.push(p);
            }

            // The figure's claim: device read bytes fall monotonically
            // with the cache budget for the engines that gained the
            // shared block cache, and a real budget beats the seed read
            // path outright.
            if label == "btree" {
                // The paper pager is the budget-0 baseline; explicit
                // budgets only override its size, so compare within
                // those.
                for w in probes[1..].windows(2) {
                    assert!(
                        w[1].device_read_bytes <= w[0].device_read_bytes,
                        "btree: a larger pager budget must not read more"
                    );
                }
                assert!(
                    probes[0].hit_rate.is_some(),
                    "btree: the pager always accounts its cache"
                );
                continue;
            }
            for (i, w) in probes.windows(2).enumerate() {
                assert!(
                    w[1].device_read_bytes <= w[0].device_read_bytes,
                    "{label}/z{level}: {} -> {} budget step raised device reads \
                     ({} -> {} bytes)",
                    BUDGETS[i],
                    BUDGETS[i + 1],
                    w[0].device_read_bytes,
                    w[1].device_read_bytes
                );
            }
            let (seed_path, top) = (&probes[0], &probes[BUDGETS.len() - 1]);
            assert!(
                top.device_read_bytes < seed_path.device_read_bytes,
                "{label}/z{level}: the largest budget must beat the seed read path"
            );
            assert!(
                top.hit_rate.expect("cache configured") > 0.0,
                "{label}/z{level}: the cache must take hits"
            );
            assert!(
                seed_path.hit_rate.is_none(),
                "{label}: budget 0 must stay on the seed read path (no cache stats)"
            );
        }
    }
    println!();
    println!("monotonicity check: device read bytes fall with cache budget (lsm, hashlog)");

    // Compression earns its keep on compressible data.
    let (plain, packed) = (compressible_footprint(0), compressible_footprint(3));
    assert!(
        packed < plain,
        "level 3 must shrink a compressible dataset: {plain} -> {packed} bytes"
    );
    println!(
        "compression check: compressible LSM dataset {plain} B stored -> {packed} B at level 3"
    );

    // Determinism: an identical probe reproduces identical measurements.
    let a = read_probe(EngineKind::lsm(), 1 << 20, 3);
    let b = read_probe(EngineKind::lsm(), 1 << 20, 3);
    assert_eq!(a.device_read_bytes, b.device_read_bytes);
    assert_eq!(
        a.hit_rate.map(f64::to_bits),
        b.hit_rate.map(f64::to_bits),
        "identical probes must measure bit-identically"
    );
    println!("determinism check: identical probes measured bit-identically");
    println!();

    // Compatibility + reporting: a cache-off harness run carries no
    // cache accounting; a cache-on run reports per-shard hit rates.
    let harness_cfg = |cache_bytes: u64| {
        let base = RunConfig {
            device_bytes: DEVICE_BYTES,
            duration: 20 * MINUTE,
            sample_window: 5 * MINUTE,
            read_fraction: 0.5,
            distribution: KeyDistribution::Zipfian { theta: 0.9 },
            cache_bytes,
            ..RunConfig::default()
        };
        ShardedRun::new(base, 2)
    };
    let off = run_sharded(&harness_cfg(0)).expect("run").render();
    assert!(
        !off.contains("cache"),
        "cache-off harness output must carry no cache accounting"
    );
    let on = run_sharded(&harness_cfg(2 << 20)).expect("run");
    let totals = on.cache_totals().expect("cache totals");
    assert!(totals.hits > 0, "a Zipfian read phase must hit the cache");
    println!("cache-on harness report (per-shard hit rates, fleet totals):");
    println!();
    println!("{}", on.render());
}
