//! Byte and counter parity across data-path refactors of the LSM: a
//! fixed seeded put/delete/get/scan run over `LsmOptions::small()`-scale
//! tables must leave every model-side number — engine and maintenance
//! counters, device SMART counters, the virtual clock, what the reads
//! returned — and every surviving table's bytes exactly where the
//! copying data path of PR 14 left them, and the builder must keep
//! producing the documented file layout. The constants were recorded on
//! that commit; a change that only makes the host faster must not move
//! any of them. The noise-valued, half-noise and codec-level-change
//! mixes were recorded while compaction still re-encoded every block
//! it wrote: most of their compacted blocks are stored-mode input
//! blocks passing through the merge unchanged. The bounded-scan mix was
//! recorded while merges still passed every entry along as two shared
//! ranges: it pins when each scan and compaction reads its windows.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use ptsbench_cache::Compression;
use ptsbench_lsm::bloom::BloomFilter;
use ptsbench_lsm::sstable::SstableBuilder;
use ptsbench_lsm::{LsmDb, LsmOptions};
use ptsbench_maint::MaintConfig;
use ptsbench_ssd::{DeviceConfig, DeviceProfile, Ssd};
use ptsbench_vfs::{EngineTuning, Vfs, VfsOptions};

fn vfs(bytes: u64) -> Vfs {
    let ssd = Ssd::new(DeviceConfig::from_profile(DeviceProfile::ssd1(), bytes));
    Vfs::whole_device(ssd.into_shared(), VfsOptions::default())
}

fn key(i: u32) -> Vec<u8> {
    format!("key{i:08}").into_bytes()
}

/// FNV-1a, folded over everything a read returned or a table holds.
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
}

/// What the mix's puts write.
#[derive(Clone, Copy)]
enum Values {
    /// An 8-byte word varied every 64 bytes: every block compresses.
    Patterned,
    /// xorshift noise, like the workloads' `fill_value`: no block
    /// compresses, so the codec stores every one verbatim.
    Noise,
    /// Noise under the lower half of the keys, patterned above: stored
    /// and compressed blocks in the same tables.
    Halves,
}

impl Values {
    /// The value of one put; `word` is the mix's random draw for it.
    fn make(self, i: u32, step: u32, len: usize, word: u64) -> Vec<u8> {
        let noise = match self {
            Values::Patterned => false,
            Values::Noise => true,
            Values::Halves => i < 80,
        };
        if !noise {
            let word = word.to_le_bytes();
            return (0..len)
                .map(|b| word[b % 8] ^ (step as u8) ^ ((b / 64) as u8))
                .collect();
        }
        let mut state = word | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 32) as u8
            })
            .collect()
    }
}

fn mix_options(maint: MaintConfig, compression: Compression, queue_depth: usize) -> LsmOptions {
    LsmOptions {
        tuning: EngineTuning::for_device(0)
            .with_maint(maint)
            .with_compression_level(compression.level())
            .with_queue_depth(queue_depth),
        ..LsmOptions::small()
    }
}

/// Drives the seeded put/delete/get/scan mix through `db`, then flushes
/// and settles it; returns the checksum of everything the reads saw.
fn drive_mix(db: &mut LsmDb, values: Values) -> Fnv {
    let pump = |db: &mut LsmDb| while db.run_maintenance_slice().expect("slice") {};
    let mut rng = SmallRng::seed_from_u64(15);
    let mut reads = Fnv::new();
    for step in 0..6000u32 {
        let i: u32 = rng.gen_range(0..160);
        match rng.gen_range(0..20) {
            0..=11 => {
                // One value in twelve spans several 4 KiB blocks.
                let len = if rng.gen_range(0..12) == 0 {
                    rng.gen_range(5000..9000)
                } else {
                    rng.gen_range(100..3000)
                };
                let value = values.make(i, step, len, rng.gen::<u64>());
                db.put(&key(i), &value).expect("put");
            }
            12..=14 => db.delete(&key(i)).expect("delete"),
            15..=18 => match db.get(&key(i)).expect("get") {
                Some(v) => reads.feed(&v),
                None => reads.feed(b"<absent>"),
            },
            _ => {
                let limit = rng.gen_range(1..40);
                for (k, v) in db.scan(&key(i), None, limit).expect("scan") {
                    reads.feed(&k);
                    reads.feed(&v);
                }
            }
        }
        pump(db);
    }
    db.flush().expect("flush");
    db.quiesce();
    reads
}

/// Renders every number and byte that must not move: the engine and
/// maintenance counters, the device, the clock, `reads`, and one
/// checksum per surviving table file.
fn render(db: &LsmDb, reads: Fnv) -> String {
    // Model-side numbers first: reading the tables back below charges
    // the device.
    let smart = db.vfs().ssd().lock().smart();
    let mut out = format!(
        "{:?}\nmaint={:?}\nhpw={} hpr={} npw={} clock={} reads={:016x}\n",
        db.stats(),
        db.maint_stats(),
        smart.host_pages_written,
        smart.host_pages_read,
        smart.nand_pages_written,
        db.vfs().clock().now(),
        reads.0,
    );
    let fs = db.vfs();
    let mut tables: Vec<String> = fs
        .list()
        .into_iter()
        .filter(|n| n.starts_with("sst-"))
        .collect();
    tables.sort();
    for name in tables {
        let id = fs.open(&name).expect("open");
        let size = fs.size(id).expect("size");
        let mut sum = Fnv::new();
        sum.feed(&fs.read_at(id, 0, size as usize).expect("read"));
        out.push_str(&format!("{name} {size} {:016x}\n", sum.0));
    }
    out
}

/// Runs the mix on a fresh database and renders it.
fn run_values(
    maint: MaintConfig,
    compression: Compression,
    queue_depth: usize,
    values: Values,
) -> String {
    let opts = mix_options(maint, compression, queue_depth);
    let mut db = LsmDb::open(vfs(64 << 20), opts).expect("open");
    let reads = drive_mix(&mut db, values);
    render(&db, reads)
}

/// The original mix: compressible values.
fn run_mix(maint: MaintConfig, compression: Compression, queue_depth: usize) -> String {
    run_values(maint, compression, queue_depth, Values::Patterned)
}

fn assert_parity(actual: &str, expected: &str) {
    assert!(
        actual == expected,
        "the run drifted from the recorded constants; it now renders:\n{actual}"
    );
}

const INLINE_RAW_QD1: &str = "\
DbStats { puts: 3640, gets: 1156, deletes: 889, app_bytes_written: 7353461, flushes: 404, flush_bytes: 7268153, compactions: 101, compaction_bytes_read: 32396106, compaction_bytes_written: 25362871, trivial_moves: 0, bloom_probes: 2277, bloom_negatives: 1386, bloom_false_positives: 14 }\n\
maint=None\n\
hpw=11686 hpr=29330 npw=11686 clock=3394916809460 reads=fcd831f343d41a1f\n\
sst-00001802 16908 b84bc2065e01d3a2\n\
sst-00001820 17213 005c14d04f4ef32b\n\
sst-00001821 16749 6613fa7aef05a2b2\n\
sst-00001822 19941 0dd04719d73ecbb7\n\
sst-00001823 19074 81a43150905799af\n\
sst-00001824 16740 e1815247efcff185\n\
sst-00001825 16875 437975e34d4a8c72\n\
sst-00001826 18510 cfe060ea8bf147db\n\
sst-00001827 16918 6150c212bad03496\n\
sst-00001828 17212 1d1fdbd0cbd46dc7\n\
sst-00001829 16856 226774a5c6c22969\n\
sst-00001830 22675 c834b1f04f1c8c53\n\
sst-00001831 17133 c0bbf5d345982b31\n\
sst-00001832 2114 364197717f588383\n\
";
const INLINE_RAW_QD8: &str = "\
DbStats { puts: 3640, gets: 1156, deletes: 889, app_bytes_written: 7353461, flushes: 404, flush_bytes: 7268153, compactions: 101, compaction_bytes_read: 32396106, compaction_bytes_written: 25362871, trivial_moves: 0, bloom_probes: 2277, bloom_negatives: 1386, bloom_false_positives: 14 }\n\
maint=None\n\
hpw=11686 hpr=24078 npw=11686 clock=2386581450272 reads=fcd831f343d41a1f\n\
sst-00001802 16908 b84bc2065e01d3a2\n\
sst-00001820 17213 005c14d04f4ef32b\n\
sst-00001821 16749 6613fa7aef05a2b2\n\
sst-00001822 19941 0dd04719d73ecbb7\n\
sst-00001823 19074 81a43150905799af\n\
sst-00001824 16740 e1815247efcff185\n\
sst-00001825 16875 437975e34d4a8c72\n\
sst-00001826 18510 cfe060ea8bf147db\n\
sst-00001827 16918 6150c212bad03496\n\
sst-00001828 17212 1d1fdbd0cbd46dc7\n\
sst-00001829 16856 226774a5c6c22969\n\
sst-00001830 22675 c834b1f04f1c8c53\n\
sst-00001831 17133 c0bbf5d345982b31\n\
sst-00001832 2114 364197717f588383\n\
";
const INLINE_LZ_QD1: &str = "\
DbStats { puts: 3640, gets: 1156, deletes: 889, app_bytes_written: 7353461, flushes: 404, flush_bytes: 1486876, compactions: 101, compaction_bytes_read: 6572086, compaction_bytes_written: 5132432, trivial_moves: 0, bloom_probes: 2295, bloom_negatives: 1400, bloom_false_positives: 18 }\n\
maint=None\n\
hpw=4407 hpr=14753 npw=4407 clock=3257100829604 reads=fcd831f343d41a1f\n\
sst-00000789 16143 f9ca8585eba22d42\n\
sst-00000790 15792 a65b518a00a19f7a\n\
sst-00000791 15287 840af8bca5e236d4\n\
";
const INLINE_LZ_QD8: &str = "\
DbStats { puts: 3640, gets: 1156, deletes: 889, app_bytes_written: 7353461, flushes: 404, flush_bytes: 1486876, compactions: 101, compaction_bytes_read: 6572086, compaction_bytes_written: 5132432, trivial_moves: 0, bloom_probes: 2295, bloom_negatives: 1400, bloom_false_positives: 18 }\n\
maint=None\n\
hpw=4407 hpr=15262 npw=4407 clock=2534943137722 reads=fcd831f343d41a1f\n\
sst-00000789 16143 f9ca8585eba22d42\n\
sst-00000790 15792 a65b518a00a19f7a\n\
sst-00000791 15287 840af8bca5e236d4\n\
";
const BG_RAW_QD1: &str = "\
DbStats { puts: 3640, gets: 1156, deletes: 889, app_bytes_written: 7353461, flushes: 404, flush_bytes: 7268153, compactions: 40, compaction_bytes_read: 17101769, compaction_bytes_written: 10191376, trivial_moves: 0, bloom_probes: 5230, bloom_negatives: 4288, bloom_false_positives: 46 }\n\
maint=Some(MaintStats { jobs: 444, slices: 2304, installs: 444, bytes_read: 17101769, bytes_written: 17459529, stall_ns: 249621999056, app_bytes: 0, host_bytes: 0, live_bytes: 0, used_bytes: 0 })\n\
hpw=7362 hpr=27306 npw=7362 clock=3982583355596 reads=fcd831f343d41a1f\n\
sst-00000944 9294 90118c77084c70e9\n\
sst-00000955 23510 f04db8a991c062d3\n\
sst-00000956 22234 8e5cad42b7698b69\n\
sst-00000957 17722 1ac519aadd31eb71\n\
sst-00000958 22067 38ff54d36f6cbed8\n\
sst-00000959 19304 a2477c9015904697\n\
sst-00000960 18176 8ed30fde6aeb41af\n\
sst-00000961 17467 e0a44f4a593879d7\n\
sst-00000962 21192 811eb555aeda5852\n\
sst-00000963 17001 b1d8d5033532a53e\n\
sst-00000964 19033 8b2ebde5bbb1e798\n\
sst-00000965 24397 6e4bccc95e408319\n\
sst-00000966 17545 ddffbfb3aa5bba48\n\
sst-00000967 11818 a054899fba20d4a2\n\
sst-00000968 17680 75cab69d8861cc1d\n\
sst-00000969 17486 5b12c0951f53839b\n\
sst-00000970 17688 6d60dacdef86d647\n\
sst-00000971 18744 9e3c89f5af3b9727\n\
sst-00000972 18066 d3d7f6c1b9188cf0\n\
sst-00000973 7336 bdc06fdf4fa7a69d\n\
";
const BG_RAW_QD8: &str = "\
DbStats { puts: 3640, gets: 1156, deletes: 889, app_bytes_written: 7353461, flushes: 404, flush_bytes: 7268153, compactions: 40, compaction_bytes_read: 17101769, compaction_bytes_written: 10191376, trivial_moves: 0, bloom_probes: 5230, bloom_negatives: 4288, bloom_false_positives: 46 }\n\
maint=Some(MaintStats { jobs: 444, slices: 2304, installs: 444, bytes_read: 17101769, bytes_written: 17459529, stall_ns: 256988454188, app_bytes: 0, host_bytes: 0, live_bytes: 0, used_bytes: 0 })\n\
hpw=7362 hpr=22217 npw=7362 clock=3012697812472 reads=fcd831f343d41a1f\n\
sst-00000944 9294 90118c77084c70e9\n\
sst-00000955 23510 f04db8a991c062d3\n\
sst-00000956 22234 8e5cad42b7698b69\n\
sst-00000957 17722 1ac519aadd31eb71\n\
sst-00000958 22067 38ff54d36f6cbed8\n\
sst-00000959 19304 a2477c9015904697\n\
sst-00000960 18176 8ed30fde6aeb41af\n\
sst-00000961 17467 e0a44f4a593879d7\n\
sst-00000962 21192 811eb555aeda5852\n\
sst-00000963 17001 b1d8d5033532a53e\n\
sst-00000964 19033 8b2ebde5bbb1e798\n\
sst-00000965 24397 6e4bccc95e408319\n\
sst-00000966 17545 ddffbfb3aa5bba48\n\
sst-00000967 11818 a054899fba20d4a2\n\
sst-00000968 17680 75cab69d8861cc1d\n\
sst-00000969 17486 5b12c0951f53839b\n\
sst-00000970 17688 6d60dacdef86d647\n\
sst-00000971 18744 9e3c89f5af3b9727\n\
sst-00000972 18066 d3d7f6c1b9188cf0\n\
sst-00000973 7336 bdc06fdf4fa7a69d\n\
";
const BG_LZ_QD1: &str = "\
DbStats { puts: 3640, gets: 1156, deletes: 889, app_bytes_written: 7353461, flushes: 404, flush_bytes: 1486876, compactions: 40, compaction_bytes_read: 3464053, compaction_bytes_written: 2049520, trivial_moves: 0, bloom_probes: 5311, bloom_negatives: 4367, bloom_false_positives: 45 }\n\
maint=Some(MaintStats { jobs: 444, slices: 1841, installs: 444, bytes_read: 3464053, bytes_written: 3952590, stall_ns: 97333999448, app_bytes: 0, host_bytes: 0, live_bytes: 0, used_bytes: 0 })\n\
hpw=3496 hpr=12866 npw=3496 clock=4489737138394 reads=fcd831f343d41a1f\n\
sst-00000549 13902 67dbb7e95b0c8240\n\
sst-00000550 15472 8c564a47c9a1a01b\n\
sst-00000551 15644 02b80cf8d8919691\n\
sst-00000552 7198 56b00eaca3ca3c29\n\
sst-00000553 3692 8d77bcb793b18312\n\
sst-00000554 3574 768d2edee3b88c6d\n\
sst-00000555 3629 43b0ad18e14c562f\n\
sst-00000556 3901 fc7446a8b57b05be\n\
sst-00000557 3761 907978a71a617312\n\
sst-00000558 1570 2ddf3cc8ba678878\n\
";
const BG_LZ_QD8: &str = "\
DbStats { puts: 3640, gets: 1156, deletes: 889, app_bytes_written: 7353461, flushes: 404, flush_bytes: 1486876, compactions: 40, compaction_bytes_read: 3464053, compaction_bytes_written: 2049520, trivial_moves: 0, bloom_probes: 5320, bloom_negatives: 4375, bloom_false_positives: 46 }\n\
maint=Some(MaintStats { jobs: 444, slices: 1841, installs: 444, bytes_read: 3464053, bytes_written: 3952590, stall_ns: 184216058589, app_bytes: 0, host_bytes: 0, live_bytes: 0, used_bytes: 0 })\n\
hpw=3496 hpr=13845 npw=3496 clock=3644769485503 reads=fcd831f343d41a1f\n\
sst-00000549 13902 67dbb7e95b0c8240\n\
sst-00000550 15472 8c564a47c9a1a01b\n\
sst-00000551 15644 02b80cf8d8919691\n\
sst-00000552 7198 56b00eaca3ca3c29\n\
sst-00000553 3692 8d77bcb793b18312\n\
sst-00000554 3574 768d2edee3b88c6d\n\
sst-00000555 3629 43b0ad18e14c562f\n\
sst-00000556 3901 fc7446a8b57b05be\n\
sst-00000557 3761 907978a71a617312\n\
sst-00000558 1570 2ddf3cc8ba678878\n\
";

const INLINE_NOISE_LZ1: &str = "\
DbStats { puts: 3640, gets: 1156, deletes: 889, app_bytes_written: 7353461, flushes: 404, flush_bytes: 7278359, compactions: 101, compaction_bytes_read: 32443641, compaction_bytes_written: 25400578, trivial_moves: 0, bloom_probes: 2276, bloom_negatives: 1385, bloom_false_positives: 14 }\n\
maint=None\n\
hpw=11705 hpr=30975 npw=11705 clock=4373386077129 reads=9ecfba7a43fb9cda\n\
sst-00001802 16940 4b455a3c60b3919b\n\
sst-00001820 17245 c19e19c4dd108e3e\n\
sst-00001821 16781 d3319fe39004c31b\n\
sst-00001822 19965 f0fbf36cf7dbfafa\n\
sst-00001823 19106 e4830a043af2ac37\n\
sst-00001824 16764 2a072fecfbbcba74\n\
sst-00001825 16907 d6cb9ace772bac96\n\
sst-00001826 18542 3605d65f794a22bb\n\
sst-00001827 16950 935e3a195e4434f5\n\
sst-00001828 17236 56dec7077359d07d\n\
sst-00001829 16888 2bccc34c311799cd\n\
sst-00001830 22693 0f73cba5d1e2d257\n\
sst-00001831 17157 87b6ecd8090cb80c\n\
sst-00001832 2122 2d9811f102ff4ac1\n\
";
const INLINE_NOISE_LZ3: &str = "\
DbStats { puts: 3640, gets: 1156, deletes: 889, app_bytes_written: 7353461, flushes: 404, flush_bytes: 7278308, compactions: 101, compaction_bytes_read: 32443550, compaction_bytes_written: 25400537, trivial_moves: 0, bloom_probes: 2276, bloom_negatives: 1385, bloom_false_positives: 14 }\n\
maint=None\n\
hpw=11705 hpr=30975 npw=11705 clock=4373386077129 reads=9ecfba7a43fb9cda\n\
sst-00001802 16940 1d4881c327cac521\n\
sst-00001820 17245 27c2a051d70b9104\n\
sst-00001821 16781 f27dcefc06379c0d\n\
sst-00001822 19965 793c0bae186846b2\n\
sst-00001823 19106 9bdb6dab5ee03a25\n\
sst-00001824 16764 4b2ee741b996ec3c\n\
sst-00001825 16907 0f1e23c2daebfd3c\n\
sst-00001826 18542 eab0c666e2b918e5\n\
sst-00001827 16950 bde0dba0ec337667\n\
sst-00001828 17236 522f51c90077f2a5\n\
sst-00001829 16888 e05a916eb5dd6597\n\
sst-00001830 22693 0f38eba79409c9d7\n\
sst-00001831 17156 9267868085ae999e\n\
sst-00001832 2122 296486a14ac5ac09\n\
";
const BG_NOISE_LZ1: &str = "\
DbStats { puts: 3640, gets: 1156, deletes: 889, app_bytes_written: 7353461, flushes: 404, flush_bytes: 7278359, compactions: 40, compaction_bytes_read: 17126283, compaction_bytes_written: 10206185, trivial_moves: 0, bloom_probes: 5230, bloom_negatives: 4288, bloom_false_positives: 46 }\n\
maint=Some(MaintStats { jobs: 444, slices: 2305, installs: 444, bytes_read: 17126283, bytes_written: 17484544, stall_ns: 263091089544, app_bytes: 0, host_bytes: 0, live_bytes: 0, used_bytes: 0 })\n\
hpw=7374 hpr=26860 npw=7374 clock=5410957001056 reads=9ecfba7a43fb9cda\n\
sst-00000945 9310 7d330121da117c50\n\
sst-00000956 23542 eedc5b9bdac339fd\n\
sst-00000957 22266 5c251cc08c8600a7\n\
sst-00000958 17754 a22edc551c593ee8\n\
sst-00000959 22091 23bf98388002983d\n\
sst-00000960 19336 83733b1c48043049\n\
sst-00000961 18200 64145bd3bb585c17\n\
sst-00000962 17499 bd7b4dd5b38c5f98\n\
sst-00000963 21216 16639eb01352e472\n\
sst-00000964 17025 150b88b0d91f6ef9\n\
sst-00000965 19057 eb4fa3a481d80bb3\n\
sst-00000966 24429 c9e67b05b6db79ad\n\
sst-00000967 17561 da0d388cd01013ed\n\
sst-00000968 11842 e5317faa3d4515ff\n\
sst-00000969 17696 dcb05681075a873d\n\
sst-00000970 17510 d0ef4b53df9b5aa7\n\
sst-00000971 17720 b2fb93cce99c4266\n\
sst-00000972 18760 5354dc664747d317\n\
sst-00000973 18098 6dddab3f4f631478\n\
sst-00000974 7349 ff0c5bceca79f820\n\
";
const BG_NOISE_LZ3: &str = "\
DbStats { puts: 3640, gets: 1156, deletes: 889, app_bytes_written: 7353461, flushes: 404, flush_bytes: 7278308, compactions: 40, compaction_bytes_read: 17126217, compaction_bytes_written: 10206169, trivial_moves: 0, bloom_probes: 5230, bloom_negatives: 4288, bloom_false_positives: 46 }\n\
maint=Some(MaintStats { jobs: 444, slices: 2305, installs: 444, bytes_read: 17126217, bytes_written: 17484477, stall_ns: 263091089544, app_bytes: 0, host_bytes: 0, live_bytes: 0, used_bytes: 0 })\n\
hpw=7374 hpr=26860 npw=7374 clock=5410957001056 reads=9ecfba7a43fb9cda\n\
sst-00000945 9310 dcbb42fd34c3f656\n\
sst-00000956 23542 09a19818c7ba8283\n\
sst-00000957 22266 c5d24b5f2d925d4d\n\
sst-00000958 17754 1de79fd9f59e5eb2\n\
sst-00000959 22091 7d973404846e1721\n\
sst-00000960 19336 ba8294af09789abf\n\
sst-00000961 18200 c063a422b91a1543\n\
sst-00000962 17499 61f3d803206d5abe\n\
sst-00000963 21216 e87487712841773e\n\
sst-00000964 17025 4126a96a7011211d\n\
sst-00000965 19057 011544174545780b\n\
sst-00000966 24429 2a1adb84a6604563\n\
sst-00000967 17561 ba8f6528607b8b2b\n\
sst-00000968 11842 07b1894165e8e81f\n\
sst-00000969 17696 392186e4b84d628f\n\
sst-00000970 17510 a76591aa39c34b1f\n\
sst-00000971 17720 6c85cd20c1c2aee0\n\
sst-00000972 18759 64eafb0982b160aa\n\
sst-00000973 18098 31daf653ccef892e\n\
sst-00000974 7349 27d984f0d45b8ba2\n\
";
const INLINE_HALVES_LZ1: &str = "\
DbStats { puts: 3640, gets: 1156, deletes: 889, app_bytes_written: 7353461, flushes: 404, flush_bytes: 4366739, compactions: 101, compaction_bytes_read: 19814700, compaction_bytes_written: 15588666, trivial_moves: 0, bloom_probes: 2289, bloom_negatives: 1397, bloom_false_positives: 15 }\n\
maint=None\n\
hpw=8169 hpr=21855 npw=8169 clock=3560701371240 reads=41d176fd5ea89f8b\n\
sst-00001315 16940 4b455a3c60b3919b\n\
sst-00001328 17245 c19e19c4dd108e3e\n\
sst-00001329 16781 d3319fe39004c31b\n\
sst-00001330 19965 f0fbf36cf7dbfafa\n\
sst-00001331 19106 e4830a043af2ac37\n\
sst-00001332 16764 2a072fecfbbcba74\n\
sst-00001333 15724 9af2732292d271f7\n\
sst-00001334 15742 56c61a067ad4aeda\n\
sst-00001335 2438 62506c5cf20478d5\n\
";
const BG_HALVES_LZ1: &str = "\
DbStats { puts: 3640, gets: 1156, deletes: 889, app_bytes_written: 7353461, flushes: 404, flush_bytes: 4366739, compactions: 40, compaction_bytes_read: 10434733, compaction_bytes_written: 6338559, trivial_moves: 0, bloom_probes: 5231, bloom_negatives: 4285, bloom_false_positives: 39 }\n\
maint=Some(MaintStats { jobs: 444, slices: 2095, installs: 444, bytes_read: 10434733, bytes_written: 11110957, stall_ns: 188351089848, app_bytes: 0, host_bytes: 0, live_bytes: 0, used_bytes: 0 })\n\
hpw=5520 hpr=18722 npw=5520 clock=4733360808229 reads=41d176fd5ea89f8b\n\
sst-00000765 17695 05a846379cee61fd\n\
sst-00000766 17996 53a2f38004c675e4\n\
sst-00000767 19103 3806ddcafd3d9bb6\n\
sst-00000768 18770 e43d3f30600d70e6\n\
sst-00000769 20209 815707dba6213945\n\
sst-00000770 16776 d99340e2f85e3a30\n\
sst-00000771 17189 9993ca3f9f20acbb\n\
sst-00000772 17365 2472273f15e8d45a\n\
sst-00000773 13702 c6b36aa470672f3d\n\
sst-00000774 14176 3c11e7732bb48000\n\
sst-00000775 6872 692bfc3a9d7f3de9\n\
sst-00000776 12549 382331bf51b8d99b\n\
sst-00000777 7531 d692930b53a07755\n\
sst-00000778 14113 03dca48dee2e5f05\n\
sst-00000779 9798 4a1c971bd449b815\n\
sst-00000780 15841 4e59bd5fc550fe04\n\
sst-00000781 14985 57be3aee129a9b78\n\
sst-00000782 10670 c7c8871e5bfbcf22\n\
sst-00000783 5225 660fcecccd908ede\n\
";
const LEVEL_3_TO_1: &str = "\
DbStats { puts: 18, gets: 0, deletes: 0, app_bytes_written: 12798, flushes: 1, flush_bytes: 7546, compactions: 1, compaction_bytes_read: 145811, compaction_bytes_written: 126485, trivial_moves: 0, bloom_probes: 0, bloom_negatives: 0, bloom_false_positives: 0 }\n\
maint=None\n\
hpw=8213 hpr=22015 npw=8213 clock=3592608113346 reads=41d176fd5ea89f8b\n\
sst-00001335 2434 b67da364fdaf2ff1\n\
sst-00001337 16647 41510a7fc61a796e\n\
sst-00001338 17990 5ac7df4ae3e63f90\n\
sst-00001339 17234 1d9581155cd11645\n\
sst-00001340 18419 a05b8b0cbd0a792b\n\
sst-00001341 16846 c90577f2312fd377\n\
sst-00001342 16924 7e3d69b79117f8ed\n\
sst-00001343 15449 f2a895617d92e47f\n\
sst-00001344 6976 490e2209972f7246\n\
";

#[test]
fn inline_codec_off_matches_the_copying_data_path() {
    let off = MaintConfig::default();
    assert_parity(&run_mix(off, Compression::None, 1), INLINE_RAW_QD1);
    assert_parity(&run_mix(off, Compression::None, 8), INLINE_RAW_QD8);
}

#[test]
fn inline_codec_on_matches_the_copying_data_path() {
    let off = MaintConfig::default();
    assert_parity(&run_mix(off, Compression::from_level(1), 1), INLINE_LZ_QD1);
    assert_parity(&run_mix(off, Compression::from_level(1), 8), INLINE_LZ_QD8);
}

#[test]
fn background_codec_off_matches_the_copying_data_path() {
    let on = MaintConfig::enabled();
    assert_parity(&run_mix(on, Compression::None, 1), BG_RAW_QD1);
    assert_parity(&run_mix(on, Compression::None, 8), BG_RAW_QD8);
}

#[test]
fn background_codec_on_matches_the_copying_data_path() {
    let on = MaintConfig::enabled();
    assert_parity(&run_mix(on, Compression::from_level(1), 1), BG_LZ_QD1);
    assert_parity(&run_mix(on, Compression::from_level(1), 8), BG_LZ_QD8);
}

/// Noise-valued and half-noise mixes: the codec stores most blocks
/// verbatim, and most of what a compaction writes is an input block
/// passing through unchanged. Queue depth 1; codec levels 1 and 3.
fn run_noise(maint: MaintConfig, level: u8, values: Values) -> String {
    let opts = mix_options(maint, Compression::from_level(level), 1);
    let mut db = LsmDb::open(vfs(64 << 20), opts).expect("open");
    let reads = drive_mix(&mut db, values);
    // The constants cannot tell a copied block from an encoded one (that
    // is the point), so the count shows the copying path is the one
    // these runs take. It is no part of the render.
    assert!(
        db.compaction_blocks_reused() > 0,
        "no compacted block was copied"
    );
    render(&db, reads)
}

#[test]
fn inline_noise_values_match_the_recorded_tables() {
    let off = MaintConfig::default();
    assert_parity(&run_noise(off, 1, Values::Noise), INLINE_NOISE_LZ1);
    assert_parity(&run_noise(off, 3, Values::Noise), INLINE_NOISE_LZ3);
}

#[test]
fn background_noise_values_match_the_recorded_tables() {
    let on = MaintConfig::enabled();
    assert_parity(&run_noise(on, 1, Values::Noise), BG_NOISE_LZ1);
    assert_parity(&run_noise(on, 3, Values::Noise), BG_NOISE_LZ3);
}

#[test]
fn half_noise_values_match_the_recorded_tables() {
    let (off, on) = (MaintConfig::default(), MaintConfig::enabled());
    assert_parity(&run_noise(off, 1, Values::Halves), INLINE_HALVES_LZ1);
    assert_parity(&run_noise(on, 1, Values::Halves), BG_HALVES_LZ1);
}

/// Tables written at codec level 3, recovered at level 1, updated here
/// and there and fully compacted: every output block is encoded at
/// level 1, including the level-3 blocks that pass through unchanged.
#[test]
fn a_codec_level_change_rewrites_every_compacted_block() {
    let opts = |level| mix_options(MaintConfig::default(), Compression::from_level(level), 1);
    let mut db = LsmDb::open(vfs(64 << 20), opts(3)).expect("open");
    let reads = drive_mix(&mut db, Values::Halves);
    let fs = db.vfs().clone();
    drop(db);
    let mut db = LsmDb::recover(fs, opts(1)).expect("recover");
    for i in (0..160).step_by(9) {
        let value = Values::Halves.make(i, 0, 700, 0x9E37_79B9_7F4A_7C15 ^ i as u64);
        db.put(&key(i), &value).expect("put");
    }
    db.compact_all().expect("compact_all");
    assert_parity(&render(&db, reads), LEVEL_3_TO_1);
}

/// Bounded scans while maintenance advances one slice per step: under
/// the paced drive a frozen memtable, L0 tables and several levels are
/// all live while scans run, so every kind of merge source (memtable
/// ranges, single tables, chained levels with and without a submission
/// queue) lends entries to the scans. Renders like the other mixes, with
/// the scans' results in `reads`.
fn run_scans(maint: MaintConfig, compression: Compression, queue_depth: usize) -> String {
    let opts = mix_options(maint, compression, queue_depth);
    let mut db = LsmDb::open(vfs(64 << 20), opts).expect("open");
    let mut rng = SmallRng::seed_from_u64(31);
    let mut reads = Fnv::new();
    for step in 0..3000u32 {
        let i: u32 = rng.gen_range(0..160);
        match rng.gen_range(0..10) {
            0..=5 => {
                let len = rng.gen_range(100..3000);
                let value = Values::Halves.make(i, step, len, rng.gen::<u64>());
                db.put(&key(i), &value).expect("put");
            }
            6 => db.delete(&key(i)).expect("delete"),
            _ => {
                let end = key(i + rng.gen_range(1..60u32));
                let limit = rng.gen_range(1..40);
                let got = db.scan(&key(i), Some(&end), limit).expect("scan");
                reads.feed(&(got.len() as u32).to_le_bytes());
                for (k, v) in got {
                    reads.feed(&k);
                    reads.feed(&v);
                }
            }
        }
        db.run_maintenance_slice().expect("slice");
    }
    db.flush().expect("flush");
    db.quiesce();
    render(&db, reads)
}

const SCAN_INLINE_RAW_QD1: &str = "\
DbStats { puts: 1832, gets: 0, deletes: 308, app_bytes_written: 2822263, flushes: 161, flush_bytes: 2774925, compactions: 40, compaction_bytes_read: 10669355, compaction_bytes_written: 8130986, trivial_moves: 0, bloom_probes: 0, bloom_negatives: 0, bloom_false_positives: 0 }\n\
maint=None\n\
hpw=4112 hpr=36001 npw=4112 clock=4809155533036 reads=69c58ead09b021e6\n\
sst-00000626 18709 24540d3259f6642d\n\
sst-00000627 19546 efbf58c67570713f\n\
sst-00000628 18729 386bf3fc0142b507\n\
sst-00000629 16849 6b2d674936737af8\n\
sst-00000630 19097 2b4c1c12e1f3480e\n\
sst-00000631 16587 3656baac00954b61\n\
sst-00000632 18515 eb34e3704effe6bc\n\
sst-00000633 18411 800af00c81ec5e1b\n\
sst-00000634 17175 74fc2842bdfef91e\n\
sst-00000635 17511 c0457bebdaf44d73\n\
sst-00000636 16672 7a41cc4e2e3e48b1\n\
sst-00000637 17600 14b65b697e47bb52\n\
sst-00000638 5880 41f16f9c1c97e69d\n\
sst-00000639 15275 13fe5554d0d73f1c\n\
";
const SCAN_INLINE_RAW_QD8: &str = "\
DbStats { puts: 1832, gets: 0, deletes: 308, app_bytes_written: 2822263, flushes: 161, flush_bytes: 2774925, compactions: 40, compaction_bytes_read: 10669355, compaction_bytes_written: 8130986, trivial_moves: 0, bloom_probes: 0, bloom_negatives: 0, bloom_false_positives: 0 }\n\
maint=None\n\
hpw=4112 hpr=19823 npw=4112 clock=2165891448744 reads=69c58ead09b021e6\n\
sst-00000626 18709 24540d3259f6642d\n\
sst-00000627 19546 efbf58c67570713f\n\
sst-00000628 18729 386bf3fc0142b507\n\
sst-00000629 16849 6b2d674936737af8\n\
sst-00000630 19097 2b4c1c12e1f3480e\n\
sst-00000631 16587 3656baac00954b61\n\
sst-00000632 18515 eb34e3704effe6bc\n\
sst-00000633 18411 800af00c81ec5e1b\n\
sst-00000634 17175 74fc2842bdfef91e\n\
sst-00000635 17511 c0457bebdaf44d73\n\
sst-00000636 16672 7a41cc4e2e3e48b1\n\
sst-00000637 17600 14b65b697e47bb52\n\
sst-00000638 5880 41f16f9c1c97e69d\n\
sst-00000639 15275 13fe5554d0d73f1c\n\
";
const SCAN_INLINE_LZ_QD1: &str = "\
DbStats { puts: 1832, gets: 0, deletes: 308, app_bytes_written: 2822263, flushes: 161, flush_bytes: 1638605, compactions: 40, compaction_bytes_read: 6314487, compaction_bytes_written: 4814318, trivial_moves: 0, bloom_probes: 0, bloom_negatives: 0, bloom_false_positives: 0 }\n\
maint=None\n\
hpw=2855 hpr=17466 npw=2855 clock=5049455020984 reads=69c58ead09b021e6\n\
sst-00000460 18741 be95fefb842b75f7\n\
sst-00000461 16594 57debbd36ce44f42\n\
sst-00000462 17114 fa929829d7e7e330\n\
sst-00000463 16888 055877b6a343a67b\n\
sst-00000464 17248 9a6dd5ecbcbe1172\n\
sst-00000465 16619 d4f1db7677070720\n\
sst-00000466 15473 41c57aa27080bb1f\n\
sst-00000467 11147 0c951c141bbbf62c\n\
sst-00000468 8612 b68f50682b2a7001\n\
";
const SCAN_INLINE_LZ_QD8: &str = "\
DbStats { puts: 1832, gets: 0, deletes: 308, app_bytes_written: 2822263, flushes: 161, flush_bytes: 1638605, compactions: 40, compaction_bytes_read: 6314487, compaction_bytes_written: 4814318, trivial_moves: 0, bloom_probes: 0, bloom_negatives: 0, bloom_false_positives: 0 }\n\
maint=None\n\
hpw=2855 hpr=17858 npw=2855 clock=2965646608065 reads=69c58ead09b021e6\n\
sst-00000460 18741 be95fefb842b75f7\n\
sst-00000461 16594 57debbd36ce44f42\n\
sst-00000462 17114 fa929829d7e7e330\n\
sst-00000463 16888 055877b6a343a67b\n\
sst-00000464 17248 9a6dd5ecbcbe1172\n\
sst-00000465 16619 d4f1db7677070720\n\
sst-00000466 15473 41c57aa27080bb1f\n\
sst-00000467 11147 0c951c141bbbf62c\n\
sst-00000468 8612 b68f50682b2a7001\n\
";
const SCAN_BG_RAW_QD1: &str = "\
DbStats { puts: 1832, gets: 0, deletes: 308, app_bytes_written: 2822263, flushes: 161, flush_bytes: 2774925, compactions: 16, compaction_bytes_read: 5758726, compaction_bytes_written: 3293256, trivial_moves: 0, bloom_probes: 0, bloom_negatives: 0, bloom_false_positives: 0 }\n\
maint=Some(MaintStats { jobs: 177, slices: 864, installs: 177, bytes_read: 5758726, bytes_written: 6068181, stall_ns: 70839181676, app_bytes: 0, host_bytes: 0, live_bytes: 0, used_bytes: 0 })\n\
hpw=2698 hpr=46357 npw=2698 clock=6811535983992 reads=69c58ead09b021e6\n\
sst-00000334 17430 62a88d5e6ce03a60\n\
sst-00000335 17133 f2187d051e32c32a\n\
sst-00000336 18102 b79fa56289b6d524\n\
sst-00000337 18767 c06120644c963b36\n\
sst-00000338 18369 e355d45b75669d2f\n\
sst-00000339 17017 515336082cc1c4bc\n\
sst-00000340 16620 4e640e8c036787b2\n\
sst-00000341 18083 32d3131bb318b220\n\
sst-00000342 17607 f1a9554aa08d80f9\n\
sst-00000343 17509 bee164e204b9c7df\n\
sst-00000344 18695 6e03eb08a2295dc4\n\
sst-00000345 17044 a56f495ca719d618\n\
sst-00000346 13578 1aa62c705250f99e\n\
sst-00000347 16784 91810f5b2a4324b4\n\
sst-00000348 16684 2a44547f449b2ad4\n\
sst-00000349 18312 ad250da349bc14c3\n\
sst-00000350 16446 8a70af161b8d08ab\n\
sst-00000351 15275 13fe5554d0d73f1c\n\
";
const SCAN_BG_RAW_QD8: &str = "\
DbStats { puts: 1832, gets: 0, deletes: 308, app_bytes_written: 2822263, flushes: 161, flush_bytes: 2774925, compactions: 16, compaction_bytes_read: 5758726, compaction_bytes_written: 3293256, trivial_moves: 0, bloom_probes: 0, bloom_negatives: 0, bloom_false_positives: 0 }\n\
maint=Some(MaintStats { jobs: 177, slices: 864, installs: 177, bytes_read: 5758726, bytes_written: 6068181, stall_ns: 71420999916, app_bytes: 0, host_bytes: 0, live_bytes: 0, used_bytes: 0 })\n\
hpw=2698 hpr=31071 npw=2698 clock=4355956716616 reads=69c58ead09b021e6\n\
sst-00000334 17430 62a88d5e6ce03a60\n\
sst-00000335 17133 f2187d051e32c32a\n\
sst-00000336 18102 b79fa56289b6d524\n\
sst-00000337 18767 c06120644c963b36\n\
sst-00000338 18369 e355d45b75669d2f\n\
sst-00000339 17017 515336082cc1c4bc\n\
sst-00000340 16620 4e640e8c036787b2\n\
sst-00000341 18083 32d3131bb318b220\n\
sst-00000342 17607 f1a9554aa08d80f9\n\
sst-00000343 17509 bee164e204b9c7df\n\
sst-00000344 18695 6e03eb08a2295dc4\n\
sst-00000345 17044 a56f495ca719d618\n\
sst-00000346 13578 1aa62c705250f99e\n\
sst-00000347 16784 91810f5b2a4324b4\n\
sst-00000348 16684 2a44547f449b2ad4\n\
sst-00000349 18312 ad250da349bc14c3\n\
sst-00000350 16446 8a70af161b8d08ab\n\
sst-00000351 15275 13fe5554d0d73f1c\n\
";
const SCAN_BG_LZ_QD1: &str = "\
DbStats { puts: 1832, gets: 0, deletes: 308, app_bytes_written: 2822263, flushes: 161, flush_bytes: 1638605, compactions: 16, compaction_bytes_read: 3379422, compaction_bytes_written: 1940240, trivial_moves: 0, bloom_probes: 0, bloom_negatives: 0, bloom_false_positives: 0 }\n\
maint=Some(MaintStats { jobs: 177, slices: 789, installs: 177, bytes_read: 3379422, bytes_written: 3759316, stall_ns: 45057908972, app_bytes: 0, host_bytes: 0, live_bytes: 0, used_bytes: 0 })\n\
hpw=2006 hpr=23097 npw=2006 clock=8015266962872 reads=69c58ead09b021e6\n\
sst-00000268 18838 e0bd3bc7fad2fbd0\n\
sst-00000269 17567 4114b88b548064d2\n\
sst-00000270 18823 9aebd58c2daa25c1\n\
sst-00000271 18799 4e8d0001df4d6e6f\n\
sst-00000272 19266 76b7ca94cf6a2206\n\
sst-00000273 17041 bc61b5a339d5a351\n\
sst-00000274 15615 a8d9f4b18bf5a3cf\n\
sst-00000275 15490 9d26c430d5c9ad4a\n\
sst-00000276 3056 1f1ad8028d026652\n\
sst-00000277 9469 c8834a7e9b90625a\n\
sst-00000278 11140 cae07469fb579d65\n\
sst-00000279 10029 b4a9cf0e00cf1feb\n\
sst-00000280 8280 42467e65b480a8bf\n\
sst-00000281 7398 d79273183be3ad96\n\
sst-00000282 8612 b68f50682b2a7001\n\
";
const SCAN_BG_LZ_QD8: &str = "\
DbStats { puts: 1832, gets: 0, deletes: 308, app_bytes_written: 2822263, flushes: 161, flush_bytes: 1638605, compactions: 16, compaction_bytes_read: 3379422, compaction_bytes_written: 1940240, trivial_moves: 0, bloom_probes: 0, bloom_negatives: 0, bloom_false_positives: 0 }\n\
maint=Some(MaintStats { jobs: 177, slices: 789, installs: 177, bytes_read: 3379422, bytes_written: 3759316, stall_ns: 59968636316, app_bytes: 0, host_bytes: 0, live_bytes: 0, used_bytes: 0 })\n\
hpw=2006 hpr=24644 npw=2006 clock=5997641153544 reads=69c58ead09b021e6\n\
sst-00000268 18838 e0bd3bc7fad2fbd0\n\
sst-00000269 17567 4114b88b548064d2\n\
sst-00000270 18823 9aebd58c2daa25c1\n\
sst-00000271 18799 4e8d0001df4d6e6f\n\
sst-00000272 19266 76b7ca94cf6a2206\n\
sst-00000273 17041 bc61b5a339d5a351\n\
sst-00000274 15615 a8d9f4b18bf5a3cf\n\
sst-00000275 15490 9d26c430d5c9ad4a\n\
sst-00000276 3056 1f1ad8028d026652\n\
sst-00000277 9469 c8834a7e9b90625a\n\
sst-00000278 11140 cae07469fb579d65\n\
sst-00000279 10029 b4a9cf0e00cf1feb\n\
sst-00000280 8280 42467e65b480a8bf\n\
sst-00000281 7398 d79273183be3ad96\n\
sst-00000282 8612 b68f50682b2a7001\n\
";

#[test]
fn inline_scans_match_the_recorded_run() {
    let off = MaintConfig::default();
    let lz = Compression::from_level(1);
    assert_parity(&run_scans(off, Compression::None, 1), SCAN_INLINE_RAW_QD1);
    assert_parity(&run_scans(off, Compression::None, 8), SCAN_INLINE_RAW_QD8);
    assert_parity(&run_scans(off, lz, 1), SCAN_INLINE_LZ_QD1);
    assert_parity(&run_scans(off, lz, 8), SCAN_INLINE_LZ_QD8);
}

#[test]
fn background_scans_match_the_recorded_run() {
    let on = MaintConfig::enabled();
    let lz = Compression::from_level(1);
    assert_parity(&run_scans(on, Compression::None, 1), SCAN_BG_RAW_QD1);
    assert_parity(&run_scans(on, Compression::None, 8), SCAN_BG_RAW_QD8);
    assert_parity(&run_scans(on, lz, 1), SCAN_BG_LZ_QD1);
    assert_parity(&run_scans(on, lz, 8), SCAN_BG_LZ_QD8);
}

/// Reference encoder of the table layout documented in
/// `ptsbench_lsm::sstable`: data blocks sealed once they reach
/// `block_bytes` (each stored through the codec when it is on), the
/// index, the bloom filter over every key, the footer.
fn reference_image(
    entries: &[(Vec<u8>, Option<Vec<u8>>)],
    block_bytes: usize,
    bloom_bits_per_key: u32,
    compression: Compression,
) -> Vec<u8> {
    let mut file = Vec::new();
    // (first key, offset, stored length, entries) per block.
    let mut index: Vec<(Vec<u8>, u64, u32, u32)> = Vec::new();
    let mut block = Vec::new();
    let mut block_entries = 0u32;
    let mut first_key: Option<Vec<u8>> = None;
    let mut seal = |block: &mut Vec<u8>, first: &mut Option<Vec<u8>>, n: &mut u32| {
        if block.is_empty() {
            return;
        }
        let stored = if compression.is_active() {
            compression.encode(block)
        } else {
            block.clone()
        };
        index.push((
            first.take().expect("non-empty block"),
            file.len() as u64,
            stored.len() as u32,
            *n,
        ));
        file.extend_from_slice(&stored);
        block.clear();
        *n = 0;
    };
    for (k, v) in entries {
        first_key.get_or_insert_with(|| k.clone());
        block.extend_from_slice(&(k.len() as u16).to_le_bytes());
        match v {
            Some(v) => {
                block.extend_from_slice(&(v.len() as u32).to_le_bytes());
                block.extend_from_slice(k);
                block.extend_from_slice(v);
            }
            None => {
                block.extend_from_slice(&u32::MAX.to_le_bytes());
                block.extend_from_slice(k);
            }
        }
        block_entries += 1;
        if block.len() >= block_bytes {
            seal(&mut block, &mut first_key, &mut block_entries);
        }
    }
    seal(&mut block, &mut first_key, &mut block_entries);

    let index_off = file.len() as u64;
    file.extend_from_slice(&(index.len() as u32).to_le_bytes());
    for (first, offset, len, n) in &index {
        file.extend_from_slice(&(first.len() as u16).to_le_bytes());
        file.extend_from_slice(first);
        file.extend_from_slice(&offset.to_le_bytes());
        file.extend_from_slice(&len.to_le_bytes());
        file.extend_from_slice(&n.to_le_bytes());
    }
    let index_len = (file.len() as u64 - index_off) as u32;

    let bloom_off = file.len() as u64;
    if bloom_bits_per_key > 0 {
        let keys: Vec<&[u8]> = entries.iter().map(|(k, _)| k.as_slice()).collect();
        BloomFilter::build(&keys, bloom_bits_per_key).encode(&mut file);
    }
    let bloom_len = (file.len() as u64 - bloom_off) as u32;

    file.extend_from_slice(&index_off.to_le_bytes());
    file.extend_from_slice(&index_len.to_le_bytes());
    file.extend_from_slice(&bloom_off.to_le_bytes());
    file.extend_from_slice(&bloom_len.to_le_bytes());
    file.extend_from_slice(&(entries.len() as u64).to_le_bytes());
    file.extend_from_slice(&(compression.level() as u32).to_le_bytes());
    file.extend_from_slice(b"PTSS");
    file
}

#[test]
fn sst_image_is_unchanged() {
    // Tombstones, values spanning several blocks, enough bytes to cross
    // the builder's 256 KiB streaming threshold more than once.
    let entries: Vec<(Vec<u8>, Option<Vec<u8>>)> = (0..400u32)
        .map(|i| {
            let value = match i % 7 {
                3 => None,
                5 => Some(vec![i as u8; 9000 + i as usize]),
                _ => Some((0..1200 + i).map(|b| (b ^ i) as u8).collect()),
            };
            (key(i), value)
        })
        .collect();
    for (bloom_bits, compression) in [
        (10, Compression::None),
        (0, Compression::None),
        (10, Compression::from_level(1)),
        (0, Compression::from_level(1)),
    ] {
        for background in [false, true] {
            let fs = vfs(32 << 20);
            // No size hint: the file's buffer grows as the image does.
            let b = if background {
                SstableBuilder::create_bg(fs.clone(), "sst-image", 4096, bloom_bits, 0)
            } else {
                SstableBuilder::create(fs.clone(), "sst-image", 4096, bloom_bits)
            };
            let mut b = b.expect("create").with_compression(compression);
            for (k, v) in &entries {
                b.add(k, v.as_deref()).expect("add");
            }
            let meta = b.finish().expect("finish");
            let id = fs.open("sst-image").expect("open");
            let image = fs.read_at(id, 0, meta.file_bytes as usize).expect("read");
            let want = reference_image(&entries, 4096, bloom_bits, compression);
            assert_eq!(meta.file_bytes, want.len() as u64);
            assert!(
                image == want,
                "table image differs (bloom {bloom_bits}, {compression:?}, bg {background})"
            );
            assert_eq!(meta.entries, entries.len() as u64);
            assert_eq!(meta.min_key, key(0));
            assert_eq!(meta.max_key, key(399));
        }
    }
}

/// A value of 4 000 bytes, the first half noise and the second half a
/// short repeating pattern: with the codec on, a block of two of them
/// compresses to a little over half.
fn build_value(i: u32) -> Vec<u8> {
    let mut state = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 1);
    (0..4000u32)
        .map(|b| {
            if b < 2000 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 32) as u8
            } else {
                (b % 23) as u8 ^ i as u8
            }
        })
        .collect()
}

/// Builds one table of `entries` 4 000-byte values straight through the
/// builder — on a 32 MiB device with `free_pages` left when given — the
/// way the engine drives it (a failed `add` abandons the build), and
/// renders what the device, the clock and the filesystem were left with.
fn build_table(
    background: bool,
    compression: Compression,
    entries: u32,
    free_pages: Option<u64>,
) -> String {
    let fs = vfs(32 << 20);
    if let Some(free) = free_pages {
        let hog = fs.create("hog").expect("create");
        let pages = fs.stats().partition_pages - free;
        fs.write_at(hog, 0, &vec![0u8; (pages * 4096) as usize])
            .expect("fill");
    }
    let before = fs.stats();
    let builder = if background {
        SstableBuilder::create_bg(fs.clone(), "sst-build", 4096, 10, entries as u64 * 4000)
    } else {
        SstableBuilder::create(fs.clone(), "sst-build", 4096, 10)
    };
    let mut builder = Some(builder.expect("create").with_compression(compression));
    let mut outcome = String::from("ok");
    for i in 0..entries {
        let b = builder.as_mut().expect("live");
        if let Err(e) = b.add(&key(i), Some(&build_value(i))) {
            outcome = format!("add {i}: {e}");
            builder.take().expect("live").abandon();
            break;
        }
    }
    let meta = builder.and_then(|b| match b.finish() {
        Ok(meta) => Some(meta),
        Err(e) => {
            outcome = format!("finish: {e}");
            None
        }
    });
    fs.check_invariants();
    let smart = fs.ssd().lock().smart();
    let df = fs.stats();
    let mut out = format!(
        "{outcome} | hpw={} hpr={} npw={} clock={} used={} peak={} data={}",
        smart.host_pages_written,
        smart.host_pages_read,
        smart.nand_pages_written,
        fs.clock().now(),
        df.used_pages,
        df.peak_used_pages,
        df.data_bytes,
    );
    match meta {
        Some(meta) => {
            let id = fs.open("sst-build").expect("open");
            assert_eq!(fs.size(id).expect("size"), meta.file_bytes);
            let mut sum = Fnv::new();
            sum.feed(&fs.read_at(id, 0, meta.file_bytes as usize).expect("read"));
            out.push_str(&format!(
                " | {} bytes, {} entries, durable={} fnv={:016x}",
                meta.file_bytes,
                meta.entries,
                fs.durable_at(id).expect("durable_at"),
                sum.0
            ));
        }
        None => {
            assert!(!fs.exists("sst-build"), "the partial file is gone");
            assert_eq!(df.live_files, before.live_files);
            assert_eq!(df.used_pages, before.used_pages, "its pages are back");
            assert_eq!(df.data_bytes, before.data_bytes);
        }
    }
    out.push('\n');
    out
}

/// The four builder flavours — foreground and background, codec off and
/// level 1 — over one table size and amount of free space.
fn build_tables(entries: u32, free_pages: impl Fn(bool, Compression) -> Option<u64>) -> String {
    let mut out = String::new();
    for (label, compression) in [
        ("raw", Compression::None),
        ("lz1", Compression::from_level(1)),
    ] {
        for background in [false, true] {
            let side = if background { "bg" } else { "fg" };
            out.push_str(&format!("{label} {side}: "));
            out.push_str(&build_table(
                background,
                compression,
                entries,
                free_pages(background, compression),
            ));
        }
    }
    out
}

const BUILD_SMALL: &str = "\
raw fg: ok | hpw=20 hpr=0 npw=20 clock=2000000000 used=20 peak=20 data=80718 | 80718 bytes, 20 entries, durable=2000000000 fnv=4003da8ae9a643c0\n\
raw bg: ok | hpw=20 hpr=0 npw=20 clock=0 used=20 peak=20 data=80718 | 80718 bytes, 20 entries, durable=2000000000 fnv=4003da8ae9a643c0\n\
lz1 fg: ok | hpw=11 hpr=0 npw=11 clock=1100160680 used=11 peak=11 data=42401 | 42401 bytes, 20 entries, durable=1100160680 fnv=d9673334bd7f846a\n\
lz1 bg: ok | hpw=11 hpr=0 npw=11 clock=0 used=11 peak=11 data=42401 | 42401 bytes, 20 entries, durable=1100000000 fnv=d9673334bd7f846a\n\
";
const BUILD_LARGE: &str = "\
raw fg: ok | hpw=296 hpr=0 npw=296 clock=29600000000 used=296 peak=296 data=1209882 | 1209882 bytes, 300 entries, durable=29600000000 fnv=06f670df3a6e7dce\n\
raw bg: ok | hpw=296 hpr=0 npw=296 clock=0 used=296 peak=296 data=1209882 | 1209882 bytes, 300 entries, durable=29600000000 fnv=06f670df3a6e7dce\n\
lz1 fg: ok | hpw=156 hpr=0 npw=156 clock=15601012284 used=156 peak=156 data=635261 | 635261 bytes, 300 entries, durable=15601012284 fnv=a135841893ccffe9\n\
lz1 bg: ok | hpw=156 hpr=0 npw=156 clock=0 used=156 peak=156 data=635261 | 635261 bytes, 300 entries, durable=15600000000 fnv=a135841893ccffe9\n\
";
const BUILD_NO_SPACE_MID_ADD: &str = "\
raw fg: add 131: filesystem error: no space left on device (requested 65 pages, 36 free) | hpw=8156 hpr=0 npw=8156 clock=815120000000 used=8092 peak=8156 data=33144832\n\
raw bg: add 131: filesystem error: no space left on device (requested 65 pages, 36 free) | hpw=8156 hpr=0 npw=8156 clock=808720000000 used=8092 peak=8156 data=33144832\n\
lz1 fg: add 249: filesystem error: no space left on device (requested 64 pages, 36 free) | hpw=8156 hpr=0 npw=8156 clock=815120996216 used=8092 peak=8156 data=33144832\n\
lz1 bg: add 249: filesystem error: no space left on device (requested 64 pages, 36 free) | hpw=8156 hpr=0 npw=8156 clock=808720000000 used=8092 peak=8156 data=33144832\n\
";
const BUILD_NO_SPACE_AT_FINISH: &str = "\
raw fg: finish: filesystem error: no space left on device (requested 38 pages, 37 free) | hpw=8155 hpr=0 npw=8155 clock=815020000000 used=7897 peak=8155 data=32346112\n\
raw bg: finish: filesystem error: no space left on device (requested 38 pages, 37 free) | hpw=8155 hpr=0 npw=8155 clock=789220000000 used=7897 peak=8155 data=32346112\n\
lz1 fg: finish: filesystem error: no space left on device (requested 28 pages, 27 free) | hpw=8165 hpr=0 npw=8165 clock=816020401700 used=8037 peak=8165 data=32919552\n\
lz1 bg: finish: filesystem error: no space left on device (requested 28 pages, 27 free) | hpw=8165 hpr=0 npw=8165 clock=803220000000 used=8037 peak=8165 data=32919552\n\
";

#[test]
fn builder_table_smaller_than_one_append() {
    // 20 x 4 KB: everything leaves in the one write `finish` makes.
    assert_parity(&build_tables(20, |_, _| None), BUILD_SMALL);
}

#[test]
fn builder_table_of_several_appends() {
    // 300 x 4 KB: 256 KiB streamed out at a time, then the tail.
    assert_parity(&build_tables(300, |_, _| None), BUILD_LARGE);
}

#[test]
fn builder_out_of_space_mid_add() {
    // 100 free pages take the first 256 KiB, not the second.
    assert_parity(&build_tables(300, |_, _| Some(100)), BUILD_NO_SPACE_MID_ADD);
}

#[test]
fn builder_out_of_space_at_finish() {
    // One page short of the finished table: every streamed chunk fits,
    // the tail `finish` writes does not.
    let one_short = |_, compression| {
        let fs = vfs(32 << 20);
        let mut b = SstableBuilder::create(fs, "probe", 4096, 10)
            .expect("create")
            .with_compression(compression);
        for i in 0..300 {
            b.add(&key(i), Some(&build_value(i))).expect("add");
        }
        Some(b.finish().expect("finish").file_bytes.div_ceil(4096) - 1)
    };
    assert_parity(&build_tables(300, one_short), BUILD_NO_SPACE_AT_FINISH);
}
