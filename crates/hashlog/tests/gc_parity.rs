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
use ptsbench_vfs::{EngineTuning, Vfs, VfsOptions};

const KEYS: u32 = 160;

fn key(i: u32) -> Vec<u8> {
    format!("key{i:08}").into_bytes()
}

/// FNV-1a, folded over everything a read returned or a segment holds.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn feed(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        // Length-delimit so ("ab", "c") and ("a", "bc") differ.
        self.0 ^= bytes.len() as u64;
        self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
    }

    fn feed_read(&mut self, value: Option<Vec<u8>>) {
        match value {
            Some(v) => self.feed(&v),
            None => self.feed(b"<absent>"),
        }
    }
}

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
            _ => reads.feed_read(db.get(&key(i)).expect("get")),
        }
        pump(&mut db);
        // A forced drain mid-run: the barrier-exit path, with a job
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
        readback.feed_read(db.get(&key(i)).expect("get"));
    }
    out.push_str(&format!("readback={:016x}\n", readback.0));
    out
}

fn assert_parity(actual: &str, expected: &str) {
    assert!(
        actual == expected,
        "the run drifted from the recorded constants; it now renders:\n{actual}"
    );
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

const INLINE_RAW: &str = "\
HashLogStats { puts: 4796, gets: 1988, deletes: 1216, app_bytes_written: 7553250, segments_created: 384, gc_runs: 376, gc_bytes_rewritten: 6544132 }\n\
maint=None\n\
segments=8 entries=125 garbage=67831\n\
hpw=9445 hpr=11501 npw=9445 clock=7291437177636 reads=20d5da517b7964fc\n\
hlog-00000370.log 33396 1a8a4a7f0c88cf7e\n\
hlog-00000375.log 32867 6e696764d70593a5\n\
hlog-00000377.log 33865 75bf7abb942e676a\n\
hlog-00000379.log 34919 af4e6362f2fdfbf5\n\
hlog-00000380.log 44682 081d67ffe6f10f14\n\
hlog-00000381.log 51935 f1ef58bfc71ac825\n\
hlog-00000382.log 35517 90f2433fa8290c6b\n\
hlog-00000383.log 1705 aa32124958a637e0\n\
readback=b32976ed54319e87\n\
";
const INLINE_LZ: &str = "\
HashLogStats { puts: 4796, gets: 1988, deletes: 1216, app_bytes_written: 7553250, segments_created: 385, gc_runs: 376, gc_bytes_rewritten: 6544132 }\n\
maint=None\n\
segments=9 entries=125 garbage=67831\n\
hpw=838 hpr=4093 npw=838 clock=1171310443848 reads=20d5da517b7964fc\n\
hlog-00000370.log 6534 7a183d57aa6721f7\n\
hlog-00000375.log 6516 453078bd7a7240fe\n\
hlog-00000377.log 6666 8c816f623f115d0e\n\
hlog-00000379.log 6975 6da0a7dfad5166a9\n\
hlog-00000380.log 8776 f0f5e84bc2383e34\n\
hlog-00000381.log 10182 cb7cfb303ea22f3a\n\
hlog-00000382.log 7121 0b8d979be19e2dbe\n\
hlog-00000383.log 357 0a290ffced68f7bf\n\
hlog-00000384.log 0 af63bd4c8601b7df\n\
readback=b32976ed54319e87\n\
";
const BG_RAW: &str = "\
HashLogStats { puts: 4796, gets: 1988, deletes: 1216, app_bytes_written: 7553250, segments_created: 384, gc_runs: 376, gc_bytes_rewritten: 6544132 }\n\
maint=Some(MaintStats { jobs: 376, slices: 376, installs: 376, bytes_read: 13923364, bytes_written: 6544132, stall_ns: 0, app_bytes: 0, host_bytes: 0, live_bytes: 0, used_bytes: 0 })\n\
segments=8 entries=125 garbage=67831\n\
hpw=9445 hpr=11501 npw=9445 clock=5572788905592 reads=20d5da517b7964fc\n\
hlog-00000370.log 33396 1a8a4a7f0c88cf7e\n\
hlog-00000375.log 32867 6e696764d70593a5\n\
hlog-00000377.log 33865 75bf7abb942e676a\n\
hlog-00000379.log 34919 af4e6362f2fdfbf5\n\
hlog-00000380.log 44682 081d67ffe6f10f14\n\
hlog-00000381.log 51935 f1ef58bfc71ac825\n\
hlog-00000382.log 35517 90f2433fa8290c6b\n\
hlog-00000383.log 1705 aa32124958a637e0\n\
readback=b32976ed54319e87\n\
";
const BG_LZ: &str = "\
HashLogStats { puts: 4796, gets: 1988, deletes: 1216, app_bytes_written: 7553250, segments_created: 388, gc_runs: 379, gc_bytes_rewritten: 6605558 }\n\
maint=Some(MaintStats { jobs: 379, slices: 379, installs: 379, bytes_read: 2763609, bytes_written: 6605558, stall_ns: 0, app_bytes: 0, host_bytes: 0, live_bytes: 0, used_bytes: 0 })\n\
segments=9 entries=125 garbage=82582\n\
hpw=836 hpr=4063 npw=836 clock=945374055698 reads=20d5da517b7964fc\n\
hlog-00000379.log 7543 da7fe49d0354c728\n\
hlog-00000380.log 7113 f4b6298bd0f9e0fc\n\
hlog-00000381.log 8678 6133a11a61c1daa3\n\
hlog-00000382.log 7819 981aab944d563c7d\n\
hlog-00000383.log 8467 5d451fa1c10d0f86\n\
hlog-00000384.log 6559 1404290fdb8ce395\n\
hlog-00000385.log 6660 5755a9eca60fca67\n\
hlog-00000386.log 3215 28048bb5b4f267fb\n\
hlog-00000387.log 0 af63bd4c8601b7df\n\
readback=b32976ed54319e87\n\
";
const BG_TIGHT_RAW: &str = "\
HashLogStats { puts: 4796, gets: 1988, deletes: 1216, app_bytes_written: 7553250, segments_created: 445, gc_runs: 436, gc_bytes_rewritten: 7715003 }\n\
maint=Some(MaintStats { jobs: 436, slices: 1783, installs: 436, bytes_read: 15082327, bytes_written: 7715003, stall_ns: 0, app_bytes: 0, host_bytes: 0, live_bytes: 0, used_bytes: 0 })\n\
segments=9 entries=125 garbage=79739\n\
hpw=11087 hpr=13116 npw=11087 clock=5702359360572 reads=20d5da517b7964fc\n\
hlog-00000434.log 38176 f02d3750e71785a1\n\
hlog-00000435.log 35351 c03f69b3c47fdd8b\n\
hlog-00000438.log 33505 2079d685abb1cd0a\n\
hlog-00000439.log 32908 8e5da2017a4b7c43\n\
hlog-00000440.log 34567 2eb4d56810bd0c4e\n\
hlog-00000441.log 34099 389bf7023bf7efd5\n\
hlog-00000442.log 34188 933a607b22468233\n\
hlog-00000443.log 33117 471a93f19393a02f\n\
hlog-00000444.log 4883 d77503ba21418fd7\n\
readback=b32976ed54319e87\n\
";
const BG_TIGHT_LZ: &str = "\
HashLogStats { puts: 4796, gets: 1988, deletes: 1216, app_bytes_written: 7553250, segments_created: 420, gc_runs: 411, gc_bytes_rewritten: 6845532 }\n\
maint=Some(MaintStats { jobs: 411, slices: 1685, installs: 411, bytes_read: 2816871, bytes_written: 6845532, stall_ns: 0, app_bytes: 0, host_bytes: 0, live_bytes: 0, used_bytes: 0 })\n\
segments=9 entries=125 garbage=59169\n\
hpw=838 hpr=3722 npw=838 clock=935248756597 reads=20d5da517b7964fc\n\
hlog-00000409.log 6616 7f8d908f71f991f3\n\
hlog-00000412.log 6602 cd268c113a328b6b\n\
hlog-00000413.log 6550 ddae3286b73fae17\n\
hlog-00000414.log 6464 43708fb0e73e0c91\n\
hlog-00000415.log 6890 9d5c4f603786af26\n\
hlog-00000416.log 6586 56362561ee7aa503\n\
hlog-00000417.log 7005 9b24792abaf8cc21\n\
hlog-00000418.log 4761 3d5d5bc97cd6b4d5\n\
hlog-00000419.log 0 af63bd4c8601b7df\n\
readback=b32976ed54319e87\n\
";

#[test]
fn inline_gc_codec_off_matches_the_recorded_run() {
    assert_parity(
        &run_mix(MaintConfig::default(), Compression::None),
        INLINE_RAW,
    );
}

#[test]
fn inline_gc_codec_on_matches_the_recorded_run() {
    assert_parity(
        &run_mix(MaintConfig::default(), Compression::from_level(1)),
        INLINE_LZ,
    );
}

#[test]
fn background_gc_codec_off_matches_the_recorded_run() {
    assert_parity(&run_mix(MaintConfig::enabled(), Compression::None), BG_RAW);
}

#[test]
fn background_gc_codec_on_matches_the_recorded_run() {
    assert_parity(
        &run_mix(MaintConfig::enabled(), Compression::from_level(1)),
        BG_LZ,
    );
}

#[test]
fn tightly_paced_gc_codec_off_matches_the_recorded_run() {
    assert_parity(&run_mix(paced_tight(), Compression::None), BG_TIGHT_RAW);
}

#[test]
fn tightly_paced_gc_codec_on_matches_the_recorded_run() {
    assert_parity(
        &run_mix(paced_tight(), Compression::from_level(1)),
        BG_TIGHT_LZ,
    );
}
