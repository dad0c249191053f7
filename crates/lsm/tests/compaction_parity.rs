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
//! The large-table case writes 1 MiB tables, so an output table commits
//! before its finish, which no `small()` table does.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use ptsbench_cache::Compression;
use ptsbench_lsm::bloom::BloomFilter;
use ptsbench_lsm::sstable::SstableBuilder;
use ptsbench_lsm::{LsmDb, LsmOptions};
use ptsbench_maint::MaintConfig;
use ptsbench_ssd::{DeviceConfig, DeviceProfile, Ssd};
use ptsbench_testkit::{assert_golden, Fnv};
use ptsbench_vfs::{EngineTuning, Vfs, VfsOptions};

fn vfs(bytes: u64) -> Vfs {
    let ssd = Ssd::new(DeviceConfig::from_profile(DeviceProfile::ssd1(), bytes));
    Vfs::whole_device(ssd.into_shared(), VfsOptions::default())
}

fn key(i: u32) -> Vec<u8> {
    format!("key{i:08}").into_bytes()
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

/// `helpers` is the host-thread budget: 0, or a helper thread that
/// lays out or encodes an inline job's tables beside the thread that
/// builds them. It moves no byte, so every inline case runs under both
/// budgets against its one recorded constant ([`assert_both_budgets`]);
/// the paced drive never hands work to a helper.
fn mix_options(
    maint: MaintConfig,
    compression: Compression,
    queue_depth: usize,
    helpers: usize,
) -> LsmOptions {
    LsmOptions {
        tuning: EngineTuning::for_device(0)
            .with_maint(maint)
            .with_compression_level(compression.level())
            .with_queue_depth(queue_depth)
            .with_helper_threads(helpers),
        ..LsmOptions::small()
    }
}

/// Runs an inline case without and with a helper thread, one database
/// at a time, and holds both to the constant `rel`.
fn assert_both_budgets(rel: &str, run: impl Fn(usize) -> String) {
    for helpers in [0, 1] {
        eprintln!("{rel}: {helpers} helper thread(s)");
        assert_golden(rel, &run(helpers));
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
            15..=18 => {
                let value = db.get(&key(i)).expect("get");
                reads.feed(value.as_deref().unwrap_or(b"<absent>"));
            }
            _ => {
                let limit = rng.gen_range(1..40);
                for (k, v) in db.scan(&key(i), None, limit).expect("scan") {
                    reads.feed(&k).feed(&v);
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
    helpers: usize,
) -> String {
    let opts = mix_options(maint, compression, queue_depth, helpers);
    let mut db = LsmDb::open(vfs(64 << 20), opts).expect("open");
    let reads = drive_mix(&mut db, values);
    render(&db, reads)
}

/// The original mix: compressible values.
fn run_mix(
    maint: MaintConfig,
    compression: Compression,
    queue_depth: usize,
    helpers: usize,
) -> String {
    run_values(maint, compression, queue_depth, Values::Patterned, helpers)
}

#[test]
fn inline_codec_off_matches_the_copying_data_path() {
    let (off, raw) = (MaintConfig::default(), Compression::None);
    assert_both_budgets("parity/lsm/compaction_parity/INLINE_RAW_QD1.txt", |h| {
        run_mix(off, raw, 1, h)
    });
    assert_both_budgets("parity/lsm/compaction_parity/INLINE_RAW_QD8.txt", |h| {
        run_mix(off, raw, 8, h)
    });
}

#[test]
fn inline_codec_on_matches_the_copying_data_path() {
    let (off, lz) = (MaintConfig::default(), Compression::from_level(1));
    assert_both_budgets("parity/lsm/compaction_parity/INLINE_LZ_QD1.txt", |h| {
        run_mix(off, lz, 1, h)
    });
    assert_both_budgets("parity/lsm/compaction_parity/INLINE_LZ_QD8.txt", |h| {
        run_mix(off, lz, 8, h)
    });
}

#[test]
fn background_codec_off_matches_the_copying_data_path() {
    let on = MaintConfig::enabled();
    let got = run_mix(on, Compression::None, 1, 0);
    assert_golden("parity/lsm/compaction_parity/BG_RAW_QD1.txt", &got);
    let got = run_mix(on, Compression::None, 8, 0);
    assert_golden("parity/lsm/compaction_parity/BG_RAW_QD8.txt", &got);
}

#[test]
fn background_codec_on_matches_the_copying_data_path() {
    let on = MaintConfig::enabled();
    let got = run_mix(on, Compression::from_level(1), 1, 0);
    assert_golden("parity/lsm/compaction_parity/BG_LZ_QD1.txt", &got);
    let got = run_mix(on, Compression::from_level(1), 8, 0);
    assert_golden("parity/lsm/compaction_parity/BG_LZ_QD8.txt", &got);
}

/// Noise-valued and half-noise mixes: the codec stores most blocks
/// verbatim, and most of what a compaction writes is an input block
/// passing through unchanged. Queue depth 1; codec levels 1 and 3.
fn run_noise(maint: MaintConfig, level: u8, values: Values, helpers: usize) -> String {
    let opts = mix_options(maint, Compression::from_level(level), 1, helpers);
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
    assert_both_budgets("parity/lsm/compaction_parity/INLINE_NOISE_LZ1.txt", |h| {
        run_noise(off, 1, Values::Noise, h)
    });
    assert_both_budgets("parity/lsm/compaction_parity/INLINE_NOISE_LZ3.txt", |h| {
        run_noise(off, 3, Values::Noise, h)
    });
}

#[test]
fn background_noise_values_match_the_recorded_tables() {
    let on = MaintConfig::enabled();
    let got = run_noise(on, 1, Values::Noise, 0);
    assert_golden("parity/lsm/compaction_parity/BG_NOISE_LZ1.txt", &got);
    let got = run_noise(on, 3, Values::Noise, 0);
    assert_golden("parity/lsm/compaction_parity/BG_NOISE_LZ3.txt", &got);
}

#[test]
fn half_noise_values_match_the_recorded_tables() {
    let (off, on) = (MaintConfig::default(), MaintConfig::enabled());
    assert_both_budgets("parity/lsm/compaction_parity/INLINE_HALVES_LZ1.txt", |h| {
        run_noise(off, 1, Values::Halves, h)
    });
    let got = run_noise(on, 1, Values::Halves, 0);
    assert_golden("parity/lsm/compaction_parity/BG_HALVES_LZ1.txt", &got);
}

/// Tables written at codec level 3, recovered at level 1, updated here
/// and there and fully compacted: every output block is encoded at
/// level 1, including the level-3 blocks that pass through unchanged.
#[test]
fn a_codec_level_change_rewrites_every_compacted_block() {
    assert_both_budgets("parity/lsm/compaction_parity/LEVEL_3_TO_1.txt", |helpers| {
        let opts = |level| {
            let lz = Compression::from_level(level);
            mix_options(MaintConfig::default(), lz, 1, helpers)
        };
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
        render(&db, reads)
    });
}

/// Tables past two commits: with a 1 MiB table target, a compaction's
/// output commits 256 KiB at a time before finish. With a helper
/// encoding the queued blocks, the build must append them where an
/// in-place build commits: at queue depth 8 the input reads overlap the
/// output commits, so a commit that moves moves the clock.
#[test]
fn inline_large_tables_commit_where_an_encoding_build_does() {
    let rel = "parity/lsm/compaction_parity/INLINE_LARGE_LZ_QD8.txt";
    assert_both_budgets(rel, |helpers| {
        let lz = Compression::from_level(1);
        let opts = LsmOptions {
            memtable_bytes: 256 << 10,
            l1_target_bytes: 1 << 20,
            sstable_target_bytes: 1 << 20,
            ..mix_options(MaintConfig::default(), lz, 8, helpers)
        };
        let mut db = LsmDb::open(vfs(64 << 20), opts).expect("open");
        let mut rng = SmallRng::seed_from_u64(47);
        let mut reads = Fnv::new();
        for step in 0..2400u32 {
            let i: u32 = rng.gen_range(0..1500);
            if rng.gen_range(0..10) == 0 {
                let value = db.get(&key(i)).expect("get");
                reads.feed(value.as_deref().unwrap_or(b"<absent>"));
                continue;
            }
            // Noise under even keys, patterned under odd: stored and
            // compressed blocks in the same tables.
            let values = [Values::Noise, Values::Patterned][i as usize % 2];
            let len = rng.gen_range(500..3000);
            let value = values.make(i, step, len, rng.gen::<u64>());
            db.put(&key(i), &value).expect("put");
        }
        db.flush().expect("flush");
        db.quiesce();
        // One table must be past two commits, or the case pins nothing.
        let fs = db.vfs();
        let largest = (fs.list().iter())
            .filter(|name| name.starts_with("sst-"))
            .map(|name| fs.size(fs.open(name).expect("open")).expect("size"))
            .max();
        assert!(largest > Some(512 << 10), "largest table: {largest:?}");
        render(&db, reads)
    });
}

/// Bounded scans while maintenance advances one slice per step: under
/// the paced drive a frozen memtable, L0 tables and several levels are
/// all live while scans run, so every kind of merge source (memtable
/// ranges, single tables, chained levels with and without a submission
/// queue) lends entries to the scans. Renders like the other mixes, with
/// the scans' results in `reads`.
fn run_scans(
    maint: MaintConfig,
    compression: Compression,
    queue_depth: usize,
    helpers: usize,
) -> String {
    let opts = mix_options(maint, compression, queue_depth, helpers);
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

#[test]
fn inline_scans_match_the_recorded_run() {
    let off = MaintConfig::default();
    let lz = Compression::from_level(1);
    for (rel, codec, depth) in [
        ("SCAN_INLINE_RAW_QD1", Compression::None, 1),
        ("SCAN_INLINE_RAW_QD8", Compression::None, 8),
        ("SCAN_INLINE_LZ_QD1", lz, 1),
        ("SCAN_INLINE_LZ_QD8", lz, 8),
    ] {
        let rel = format!("parity/lsm/compaction_parity/{rel}.txt");
        assert_both_budgets(&rel, |h| run_scans(off, codec, depth, h));
    }
}

#[test]
fn background_scans_match_the_recorded_run() {
    let on = MaintConfig::enabled();
    let lz = Compression::from_level(1);
    let got = run_scans(on, Compression::None, 1, 0);
    assert_golden("parity/lsm/compaction_parity/SCAN_BG_RAW_QD1.txt", &got);
    let got = run_scans(on, Compression::None, 8, 0);
    assert_golden("parity/lsm/compaction_parity/SCAN_BG_RAW_QD8.txt", &got);
    let got = run_scans(on, lz, 1, 0);
    assert_golden("parity/lsm/compaction_parity/SCAN_BG_LZ_QD1.txt", &got);
    let got = run_scans(on, lz, 8, 0);
    assert_golden("parity/lsm/compaction_parity/SCAN_BG_LZ_QD8.txt", &got);
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

#[test]
fn builder_table_smaller_than_one_append() {
    // 20 x 4 KB: everything leaves in the one write `finish` makes.
    let got = build_tables(20, |_, _| None);
    assert_golden("parity/lsm/compaction_parity/BUILD_SMALL.txt", &got);
}

#[test]
fn builder_table_of_several_appends() {
    // 300 x 4 KB: 256 KiB streamed out at a time, then the tail.
    let got = build_tables(300, |_, _| None);
    assert_golden("parity/lsm/compaction_parity/BUILD_LARGE.txt", &got);
}

#[test]
fn builder_out_of_space_mid_add() {
    // 100 free pages take the first 256 KiB, not the second.
    assert_golden(
        "parity/lsm/compaction_parity/BUILD_NO_SPACE_MID_ADD.txt",
        &build_tables(300, |_, _| Some(100)),
    );
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
    assert_golden(
        "parity/lsm/compaction_parity/BUILD_NO_SPACE_AT_FINISH.txt",
        &build_tables(300, one_short),
    );
}
