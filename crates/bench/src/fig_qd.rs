//! Queue-depth sweep — beyond the paper: aggregate read throughput of
//! every registered engine as the I/O submission queue deepens from 1
//! (the paper's synchronous methodology).
//!
//! Each probe builds a stack, bulk-loads the default dataset, then
//! drives a fixed, seeded set of range scans and measures the device
//! read throughput over the virtual time they take. The scan streams
//! are identical across queue depths, so the sweep isolates exactly
//! one variable: how many commands the engine may keep in flight. This
//! is the dimension Roh et al. show flash needs before it reveals its
//! internal parallelism — the LSM batches its scan chunk loads across
//! tables, the hash log issues its per-entry point reads in parallel,
//! and the B+Tree (untouched by the async API) serves as the
//! synchronous control.
//!
//! The study also asserts the redesign's compatibility guarantee: a
//! queue-depth-1 harness run renders **byte-identically** to one with
//! an untouched (pre-queue) configuration.
//!
//! Each probe runs 16 seeded scans of 512 entries, at QD 1 to 32
//! (`examples/fig_qd.rs`).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use ptsbench_core::measure::{build_stack, bulk_load};
use ptsbench_core::registry::{EngineKind, EngineRegistry};
use ptsbench_core::runner::RunConfig;
use ptsbench_core::sharded::ShardedRun;
use ptsbench_harness::run_sharded;
use ptsbench_ssd::{IoDepthStats, MINUTE};
use ptsbench_workload::encode_key;

/// 64 MiB stand-in for the 400 GB reference drive.
const DEVICE_BYTES: u64 = 64 << 20;
/// Seeded range scans per probe.
const SCANS: u64 = 16;
/// Entries per scan.
const SCAN_LEN: usize = 512;
/// The deepest queue swept (powers of two from 1; the claims compare
/// QD 8 with QD 1).
const MAX_QD: usize = 32;

/// One probe's measurements (reference-scale rates).
struct Probe {
    read_mbps: f64,
    kentries_per_sec: f64,
    entries: u64,
    io: IoDepthStats,
}

/// Builds a stack + engine at `qd`, loads the default dataset, runs
/// [`SCANS`] seeded range scans of [`SCAN_LEN`] entries, and measures the
/// read path. Fully deterministic per (engine, qd).
fn scan_probe(engine: EngineKind, qd: usize) -> Probe {
    let cfg = RunConfig {
        engine,
        device_bytes: DEVICE_BYTES,
        queue_depth: qd,
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

    // The same seed for every depth: identical scan starts, so the only
    // variable across the sweep is the queue depth itself.
    let mut rng = SmallRng::seed_from_u64(0xF1D0);
    let t0 = stack.clock.now();
    let mut entries = 0u64;
    let mut key = Vec::new();
    for _ in 0..SCANS {
        let start = rng.gen_range(0..workload.num_keys.saturating_sub(SCAN_LEN as u64));
        encode_key(workload.key_base + start, workload.key_size, &mut key);
        for item in system.scan(&key, None, SCAN_LEN).expect("scan") {
            item.expect("scan item");
            entries += 1;
        }
    }
    let elapsed_secs = (stack.clock.now() - t0) as f64 / 1e9;
    assert!(elapsed_secs > 0.0, "scans must consume virtual time");
    let dev = stack.shared.lock();
    let read_bytes = dev.smart().host_pages_read as f64 * stack.page_size as f64;
    Probe {
        read_mbps: read_bytes * cfg.scale() / elapsed_secs / 1e6,
        kentries_per_sec: entries as f64 * cfg.scale() / elapsed_secs / 1e3,
        entries,
        io: dev.io_depth_stats(),
    }
}

/// Sweeps the queue depth over 1, 2, 4, … 32 on every registered
/// engine, each probe 16 seeded scans of 512 entries, then prints the
/// QD=1 harness report.
///
/// Asserts that QD=1 stays synchronous, that the LSM and the hash log
/// gain read throughput from QD=1 to QD=8 and really fill their queues,
/// that an identical probe measures bit-identically, and that a QD=1
/// harness run renders byte-identically to an untouched configuration.
pub fn fig_qd() {
    println!("ptsbench fig_qd — asynchronous submission/completion I/O demo");
    println!(
        "{} MiB simulated drive, {SCANS} seeded scans x {SCAN_LEN} entries per probe",
        DEVICE_BYTES >> 20
    );
    println!();

    let mut lsm_qd8 = None;
    for engine in EngineRegistry::all() {
        let label = engine.label();
        let mut probes = Vec::new();
        for qd in (0..).map(|i| 1usize << i).take_while(|&qd| qd <= MAX_QD) {
            let p = scan_probe(engine, qd);
            println!(
                "{label:>10}/qd{qd:<2}  read {:>9.2} MB/s  ({} entries)",
                p.read_mbps, p.entries
            );
            println!(
                "{:>15}  scan {:>9.2} kentries/s  (in flight: max {}, mean {:.3})",
                "",
                p.kentries_per_sec,
                p.io.max_in_flight,
                p.io.mean_in_flight()
            );
            probes.push(p);
        }

        // The two async-capable engines must gain read throughput from
        // QD=1 to QD=8; the hash log (parallel point reads) must gain a
        // lot. The B+Tree is the synchronous control: no claim.
        // (Powers of two from 1: index 3 is QD 8.)
        let (qd1, qd8) = (&probes[0], &probes[3]);
        assert_eq!(qd1.io.submitted, 0, "{label}: QD=1 stays synchronous");
        match label {
            "lsm" => {
                assert!(
                    qd8.kentries_per_sec > 1.2 * qd1.kentries_per_sec,
                    "{label}: QD=8 must lift scan read throughput: {:.2} vs {:.2} kentries/s",
                    qd8.kentries_per_sec,
                    qd1.kentries_per_sec
                );
                assert!(
                    qd8.io.max_in_flight > 1,
                    "{label}: queue must actually fill"
                );
                lsm_qd8 = Some((qd8.read_mbps.to_bits(), qd8.io));
            }
            "hashlog" => {
                assert!(
                    qd8.read_mbps > 2.0 * qd1.read_mbps
                        && qd8.kentries_per_sec > 2.0 * qd1.kentries_per_sec,
                    "{label}: QD=8 parallel point reads must scale: {:.2} vs {:.2} MB/s",
                    qd8.read_mbps,
                    qd1.read_mbps
                );
                assert!(qd8.io.max_in_flight > 4, "{label}: queue must run deep");
            }
            _ => {}
        }
    }
    println!("scaling check: QD=8 beats QD=1 on lsm and hashlog read throughput");

    // Determinism: an identical probe reproduces bit-identical rates.
    let again = scan_probe(EngineKind::lsm(), 8);
    assert_eq!(
        lsm_qd8.expect("the LSM is a built-in engine"),
        (again.read_mbps.to_bits(), again.io)
    );
    println!("determinism check: identical QD=8 probes measured bit-identically");

    // Compatibility: QD=1 harness output diffs empty against the
    // untouched default configuration.
    let harness = |qd: Option<usize>| {
        let mut base = RunConfig {
            device_bytes: DEVICE_BYTES,
            duration: 20 * MINUTE,
            sample_window: 5 * MINUTE,
            ..RunConfig::default()
        };
        if let Some(qd) = qd {
            base.queue_depth = qd;
        }
        run_sharded(&ShardedRun::new(base, 2))
            .expect("harness run")
            .render()
    };
    let untouched = harness(None);
    assert_eq!(
        untouched,
        harness(Some(1)),
        "QD=1 must render byte-identically to the pre-queue configuration"
    );
    assert!(!untouched.contains("qd["));
    println!();
    println!("QD=1 harness report (byte-identical to the pre-queue renderer):");
    println!();
    println!("{untouched}");
}
