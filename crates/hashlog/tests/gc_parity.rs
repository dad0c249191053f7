//! Byte and counter parity across refactors of the hash log's segment
//! GC: a fixed seeded put/delete/get run over `HashLogOptions::small()`
//! segments must leave every model-side number — engine and maintenance
//! counters, device SMART counters, the virtual clock, what the reads
//! returned — and every surviving segment's bytes exactly where the two
//! separate GC implementations of PR 15 (inline `rewrite_segment`,
//! sliced `gc_start`/`gc_run_slice`) left them. The constants were
//! recorded on that commit; a change that only reshapes the code must
//! not move any of them.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use ptsbench_cache::Compression;
use ptsbench_hashlog::{HashLogDb, HashLogOptions};
use ptsbench_maint::MaintConfig;
use ptsbench_ssd::{DeviceConfig, DeviceProfile, Ssd};
use ptsbench_testkit::{assert_golden, Fnv};
use ptsbench_vfs::{EngineTuning, Vfs, VfsOptions};

mod common;
use common::{feed_get, key};

const KEYS: u32 = 160;

/// Runs the mix and renders every number and byte that must not move.
fn run_mix(maint: MaintConfig, compression: Compression) -> String {
    let ssd = Ssd::new(DeviceConfig::from_profile(DeviceProfile::ssd1(), 64 << 20));
    let vfs = Vfs::whole_device(ssd.into_shared(), VfsOptions::default());
    let opts = HashLogOptions {
        tuning: EngineTuning::for_device(0)
            .with_maint(maint)
            .with_compression_level(compression.level()),
        ..HashLogOptions::small()
    };
    let mut db = HashLogDb::open(vfs, opts).expect("open");
    let pump = |db: &mut HashLogDb| while db.run_maintenance_slice().expect("slice") {};
    let mut rng = SmallRng::seed_from_u64(16);
    let mut reads = Fnv::new();
    for step in 0..8000u32 {
        let i: u32 = rng.gen_range(0..KEYS);
        match rng.gen_range(0..20) {
            0..=11 => {
                let len = rng.gen_range(100..3000);
                let word = rng.gen::<u64>().to_le_bytes();
                let value: Vec<u8> = (0..len)
                    .map(|b| word[b % 8] ^ (step as u8) ^ ((b / 64) as u8))
                    .collect();
                db.put(&key(i), &value).expect("put");
            }
            12..=14 => db.delete(&key(i)).expect("delete"),
            _ => feed_get(&mut reads, db.get(&key(i)).expect("get")),
        }
        pump(&mut db);
        // A forced drain mid-run: the end-of-run path, with a job
        // possibly half relocated.
        if step % 2000 == 1999 {
            db.drain_maintenance().expect("drain");
        }
    }
    db.flush().expect("flush");
    db.drain_maintenance().expect("drain");
    db.quiesce();

    // Model-side numbers first: reading everything back below charges
    // the device.
    let smart = db.vfs().ssd().lock().smart();
    let mut out = format!(
        "{:?}\nmaint={:?}\nsegments={} entries={} garbage={}\n\
         hpw={} hpr={} npw={} clock={} reads={:016x}\n",
        db.stats(),
        db.maint_stats(),
        db.segment_count(),
        db.len(),
        db.garbage_bytes(),
        smart.host_pages_written,
        smart.host_pages_read,
        smart.nand_pages_written,
        db.vfs().clock().now(),
        reads.0,
    );
    let fs = db.vfs().clone();
    let mut segments: Vec<String> = fs
        .list()
        .into_iter()
        .filter(|n| n.starts_with("hlog-"))
        .collect();
    segments.sort();
    for name in segments {
        let id = fs.open(&name).expect("open");
        let size = fs.size(id).expect("size");
        let mut sum = Fnv::new();
        sum.feed(&fs.read_at(id, 0, size as usize).expect("read"));
        out.push_str(&format!("{name} {size} {:016x}\n", sum.0));
    }
    let mut readback = Fnv::new();
    for i in 0..KEYS {
        feed_get(&mut readback, db.get(&key(i)).expect("get"));
    }
    out.push_str(&format!("readback={:016x}\n", readback.0));
    out
}

/// Slices a quarter of a segment long on a budget the run outpaces, so
/// a job spans several foreground ops (which overwrite records it has
/// yet to reach) and is sometimes finished by a forced drain.
fn paced_tight() -> MaintConfig {
    MaintConfig {
        slice_bytes: 8 << 10,
        rate_bytes_per_sec: 2 << 20,
        burst_bytes: 16 << 10,
        ..MaintConfig::enabled()
    }
}

#[test]
fn inline_gc_codec_off_matches_the_recorded_run() {
    let got = run_mix(MaintConfig::default(), Compression::None);
    assert_golden("parity/hashlog/gc_parity/INLINE_RAW.txt", &got);
}

#[test]
fn inline_gc_codec_on_matches_the_recorded_run() {
    let got = run_mix(MaintConfig::default(), Compression::from_level(1));
    assert_golden("parity/hashlog/gc_parity/INLINE_LZ.txt", &got);
}

#[test]
fn background_gc_codec_off_matches_the_recorded_run() {
    let got = run_mix(MaintConfig::enabled(), Compression::None);
    assert_golden("parity/hashlog/gc_parity/BG_RAW.txt", &got);
}

#[test]
fn background_gc_codec_on_matches_the_recorded_run() {
    let got = run_mix(MaintConfig::enabled(), Compression::from_level(1));
    assert_golden("parity/hashlog/gc_parity/BG_LZ.txt", &got);
}

#[test]
fn tightly_paced_gc_codec_off_matches_the_recorded_run() {
    let got = run_mix(paced_tight(), Compression::None);
    assert_golden("parity/hashlog/gc_parity/BG_TIGHT_RAW.txt", &got);
}

#[test]
fn tightly_paced_gc_codec_on_matches_the_recorded_run() {
    let got = run_mix(paced_tight(), Compression::from_level(1));
    assert_golden("parity/hashlog/gc_parity/BG_TIGHT_LZ.txt", &got);
}
