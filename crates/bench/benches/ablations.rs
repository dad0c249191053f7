//! Ablation studies of the stack's design choices: GC victim-selection
//! policy, filesystem allocation policy, WAL recycling, bloom filters,
//! and erase-superblock size. Each ablation isolates one
//! knob on an otherwise fixed stack and reports the metric it moves.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use ptsbench_lsm::{LsmDb, LsmOptions};
use ptsbench_ssd::{DeviceConfig, DeviceProfile, GcPolicy, SharedSsd, Ssd};
use ptsbench_vfs::{AllocPolicy, Vfs, VfsOptions};

const DEVICE_BYTES: u64 = 48 << 20;

fn device(profile: DeviceProfile) -> (SharedSsd, Vfs) {
    device_with(profile, VfsOptions::default())
}

fn device_with(profile: DeviceProfile, opts: VfsOptions) -> (SharedSsd, Vfs) {
    let ssd = Ssd::new(DeviceConfig::from_profile(profile, DEVICE_BYTES)).into_shared();
    let vfs = Vfs::whole_device(ssd.clone(), opts);
    (ssd, vfs)
}

/// Loads a ~50%-of-capacity dataset and runs updates through an LSM;
/// returns (WA-D, WA-A, device reads per op). `skew` raises update
/// locality (0.0 = uniform; higher concentrates on low keys).
fn lsm_workout(
    ssd: &SharedSsd,
    vfs: Vfs,
    lsm_opts: LsmOptions,
    updates: u32,
    skew: f64,
) -> (f64, f64, f64) {
    let mut db = LsmDb::open(vfs, lsm_opts).expect("open");
    let keys = 7_000u32;
    for i in 0..keys {
        db.put(format!("key{i:08}").as_bytes(), &[0u8; 3400])
            .expect("load");
    }
    db.flush().expect("flush");
    ssd.lock().reset_observability();
    let app0 = db.stats().app_bytes_written;
    let mut rng = SmallRng::seed_from_u64(77);
    for _ in 0..updates {
        let u: f64 = rng.gen();
        let i = (u.powf(1.0 + skew) * keys as f64) as u32;
        db.put(
            format!("key{:08}", i.min(keys - 1)).as_bytes(),
            &[1u8; 3400],
        )
        .expect("update");
    }
    db.flush().expect("flush");
    let smart = ssd.lock().smart();
    let app = (db.stats().app_bytes_written - app0) as f64;
    let host = smart.host_pages_written as f64 * 4096.0;
    (
        smart.wa_d(),
        host / app,
        smart.host_pages_read as f64 / updates as f64,
    )
}

fn ablate_gc_policy() {
    println!("-- ablation: GC victim-selection policy (preconditioned LSM) --");
    println!("{:>14} {:>8} {:>8}", "policy", "WA-D", "WA-A");
    for policy in [GcPolicy::Greedy, GcPolicy::CostBenefit] {
        let mut profile = DeviceProfile::ssd1();
        profile.gc_policy = policy;
        let (ssd, vfs) = device(profile);
        ssd.lock().precondition(3).expect("precondition");
        // Skewed updates create hot/cold separation work for the cleaner.
        let (wa_d, wa_a, _) = lsm_workout(
            &ssd,
            vfs,
            LsmOptions::scaled_to_partition(DEVICE_BYTES),
            40_000,
            2.0,
        );
        println!("{policy:>14?} {wa_d:>8.2} {wa_a:>8.2}");
    }
}

fn ablate_alloc_policy() {
    println!("\n-- ablation: filesystem allocation policy (trimmed LSM) --");
    println!("{:>14} {:>8} {:>10}", "policy", "WA-D", "untouched");
    for policy in [
        AllocPolicy::NextFit,
        AllocPolicy::FirstFit,
        AllocPolicy::BestFit,
    ] {
        let (ssd, vfs) = device_with(
            DeviceProfile::ssd1(),
            VfsOptions {
                policy,
                ..VfsOptions::default()
            },
        );
        ssd.lock().enable_trace();
        let (wa_d, _, _) = lsm_workout(
            &ssd,
            vfs,
            LsmOptions::scaled_to_partition(DEVICE_BYTES),
            40_000,
            0.0,
        );
        let untouched = ssd
            .lock()
            .write_trace()
            .expect("traced")
            .untouched_fraction();
        println!("{policy:>14?} {wa_d:>8.2} {untouched:>10.2}");
    }
    println!("(NextFit roves the LBA space; FirstFit concentrates — the paper's");
    println!(" Fig 4 contrast is an allocation-policy phenomenon as much as an engine one)");
}

fn ablate_wal_recycling() {
    println!("\n-- ablation: WAL recycling vs churn (preconditioned LSM) --");
    println!("{:>14} {:>8} {:>8}", "mode", "WA-D", "WA-A");
    for recycle in [true, false] {
        let (ssd, vfs) = device(DeviceProfile::ssd1());
        ssd.lock().precondition(3).expect("precondition");
        let opts = LsmOptions {
            recycle_wal: recycle,
            ..LsmOptions::scaled_to_partition(DEVICE_BYTES)
        };
        let (wa_d, wa_a, _) = lsm_workout(&ssd, vfs, opts, 40_000, 0.0);
        let label = if recycle { "recycled" } else { "churned" };
        println!("{label:>14} {wa_d:>8.2} {wa_a:>8.2}");
    }
}

fn ablate_bloom_filters() {
    println!("\n-- ablation: bloom filters (read amplification on absent keys) --");
    println!("{:>14} {:>14}", "bits/key", "dev reads/get");
    for bits in [0u32, 5, 10] {
        let (ssd, vfs) = device(DeviceProfile::ssd1());
        let opts = LsmOptions {
            bloom_bits_per_key: bits,
            ..LsmOptions::scaled_to_partition(DEVICE_BYTES)
        };
        let mut db = LsmDb::open(vfs, opts).expect("open");
        // Load only even keys; odd keys are absent but inside every
        // table's key range (so blooms, not range checks, must filter).
        for i in (0..12_000u32).step_by(2) {
            db.put(format!("key{i:08}").as_bytes(), &[0u8; 1000])
                .expect("put");
        }
        db.flush().expect("flush");
        ssd.lock().reset_observability();
        let lookups = 2_000u32;
        for i in 0..lookups {
            let absent = format!("key{:08}", i * 2 + 1);
            let _ = db.get(absent.as_bytes()).expect("get");
        }
        let reads = ssd.lock().smart().host_pages_read as f64 / lookups as f64;
        println!("{bits:>14} {reads:>14.2}");
    }
}

fn ablate_superblock_size() {
    println!("\n-- ablation: erase-superblock size (stream mixing, trimmed LSM) --");
    println!("{:>14} {:>8}", "pages/block", "WA-D");
    for ppb in [128u32, 256, 512, 1024] {
        let mut profile = DeviceProfile::ssd1();
        profile.pages_per_block = ppb;
        let (ssd, vfs) = device(profile);
        let (wa_d, _, _) = lsm_workout(
            &ssd,
            vfs,
            LsmOptions::scaled_to_partition(DEVICE_BYTES),
            40_000,
            0.0,
        );
        println!("{ppb:>14} {wa_d:>8.2}");
    }
    println!("(larger superblocks mix more file streams per erase unit -> higher WA-D;");
    println!(" this is the scaling knob the 64 MiB stand-in is sized by; that calibration");
    println!(" to the paper's WA-D ~2.1 is not yet measured across sizes)");
}

fn main() {
    ptsbench_bench::rule_banner(
        "ablation studies",
        &format!("{} MiB simulated SSD1", DEVICE_BYTES >> 20),
    );
    ablate_gc_policy();
    ablate_alloc_policy();
    ablate_wal_recycling();
    ablate_bloom_filters();
    ablate_superblock_size();
}
