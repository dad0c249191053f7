//! Criterion micro-benchmarks of the core data structures: the FTL
//! write path, extent allocator, memtable, bloom filter, SSTable
//! build/lookup, engine puts and the k-way merge — and, layer by
//! layer, the B+Tree's page walk and the LSM's compaction data path at
//! the paper's geometry, the hash log's inline GC at the serving
//! fan-in's, the LSM's point read copied out and lent and through a
//! sorted level of ~128 tables, the block codec
//! over blocks the branch predictor cannot learn, and one
//! serving-dispatch decision at two backlog depths.

use std::cell::RefCell;
use std::collections::VecDeque;

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use ptsbench_btree::node::{Entries, Node};
use ptsbench_btree::pager::Pager;
use ptsbench_btree::{BTreeDb, BTreeOptions, PageNo};
use ptsbench_cache::{Compression, EncodeScratch};
use ptsbench_core::frontend::{DispatchDiscipline, FrontendRun};
use ptsbench_core::measure::idle_cpus;
use ptsbench_core::registry::EngineKind;
use ptsbench_core::runner::RunConfig;
use ptsbench_core::ReqClass;
use ptsbench_harness::{Frontend, Request};
use ptsbench_hashlog::{HashLogDb, HashLogOptions};
use ptsbench_lsm::bloom::BloomFilter;
use ptsbench_lsm::iter::Merge;
use ptsbench_lsm::memtable::Memtable;
use ptsbench_lsm::sstable::format::encode_entry;
use ptsbench_lsm::sstable::reader::WindowScan;
use ptsbench_lsm::sstable::{SstableBuilder, SstableReader};
use ptsbench_lsm::{LsmDb, LsmOptions};
use ptsbench_ssd::{DeviceConfig, DeviceProfile, Ftl, GcConfig, LpnRange, Ssd, MINUTE, SECOND};
use ptsbench_vfs::{EngineTuning, ExtentAllocator, FileAppender, FileSlice, Vfs, VfsOptions};
use ptsbench_workload::{encode_key, fill_value, OpKind};

fn fresh_vfs(mb: u64) -> Vfs {
    let ssd = Ssd::new(DeviceConfig::from_profile(DeviceProfile::ssd1(), mb << 20));
    Vfs::whole_device(ssd.into_shared(), VfsOptions::default())
}

fn bench_ftl(c: &mut Criterion) {
    let mut group = c.benchmark_group("ftl");
    group.bench_function("random_overwrite_with_gc", |b| {
        b.iter_batched(
            || {
                let mut ssd = Ssd::new(DeviceConfig::from_profile(DeviceProfile::ssd1(), 64 << 20));
                let pages = ssd.logical_pages();
                for lpn in 0..pages {
                    ssd.write_page(lpn).expect("write");
                }
                (ssd, SmallRng::seed_from_u64(7))
            },
            |(mut ssd, mut rng)| {
                let pages = ssd.logical_pages();
                for _ in 0..1000 {
                    ssd.write_page(rng.gen_range(0..pages)).expect("write");
                }
                black_box(ssd.smart().wa_d())
            },
            BatchSize::LargeInput,
        )
    });
    group.bench_function("trim_range", |b| {
        b.iter_batched(
            || {
                let mut ssd = Ssd::new(DeviceConfig::from_profile(DeviceProfile::ssd1(), 64 << 20));
                for lpn in 0..ssd.logical_pages() {
                    ssd.write_page(lpn).expect("write");
                }
                ssd
            },
            |mut ssd| {
                let pages = ssd.logical_pages();
                black_box(ssd.trim_range(LpnRange::new(0, pages / 2)))
            },
            BatchSize::LargeInput,
        )
    });
    group.finish();
    // The FTL alone in steady GC: a 64 MiB SSD1 geometry preconditioned
    // like `Ssd::precondition` (a sequential fill, then twice its
    // capacity in uniform random pages), then 10 000 random page writes
    // per iteration, each invalidating a page of a GC candidate.
    c.bench_function("ssd/ftl_write_steady", |b| {
        let geom = DeviceConfig::from_profile(DeviceProfile::ssd1(), 64 << 20).geometry;
        let mut ftl = Ftl::new(geom, GcConfig::default());
        let mut rng = SmallRng::seed_from_u64(7);
        let pages = geom.logical_pages;
        for lpn in 0..pages {
            ftl.write(lpn).expect("fill");
        }
        for _ in 0..2 * pages {
            ftl.write(rng.gen_range(0..pages)).expect("precondition");
        }
        b.iter(|| {
            for _ in 0..10_000 {
                black_box(ftl.write(rng.gen_range(0..pages)).expect("write"));
            }
        })
    });
}

fn bench_allocator(c: &mut Criterion) {
    c.bench_function("allocator/churn", |b| {
        b.iter_batched(
            || ExtentAllocator::new(LpnRange::new(0, 1 << 20)),
            |mut a| {
                let mut live = Vec::new();
                for i in 0..500 {
                    let got = a.alloc(64 + (i % 7) * 16).expect("space");
                    live.extend(got);
                    if i % 3 == 0 && !live.is_empty() {
                        let e = live.swap_remove((i as usize) % live.len());
                        a.release(e);
                    }
                }
                black_box(a.free_pages())
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_memtable(c: &mut Criterion) {
    c.bench_function("memtable/insert_10k", |b| {
        let mut rng = SmallRng::seed_from_u64(1);
        let keys: Vec<Vec<u8>> = (0..10_000)
            .map(|_| rng.gen::<u64>().to_be_bytes().to_vec())
            .collect();
        b.iter(|| {
            let mut m = Memtable::new();
            for k in &keys {
                m.put(k, &[0u8; 100]);
            }
            black_box(m.len())
        })
    });
}

fn bench_workload(c: &mut Criterion) {
    // A distinct (key, version) pair per call: one value's chain each,
    // as a bulk load or an update stream makes them.
    c.bench_function("workload/fill_value_4000", |b| {
        let mut value = Vec::with_capacity(4000);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            fill_value(black_box(i), i % 7, 4000, &mut value);
            black_box(value.last().copied())
        })
    });
}

fn bench_bloom(c: &mut Criterion) {
    let keys: Vec<Vec<u8>> = (0..100_000u32).map(|i| i.to_le_bytes().to_vec()).collect();
    c.bench_function("bloom/build_100k", |b| {
        b.iter(|| black_box(BloomFilter::build(&keys, 10)))
    });
    let filter = BloomFilter::build(&keys, 10);
    c.bench_function("bloom/query", |b| {
        let mut i = 0u32;
        b.iter(|| {
            i = i.wrapping_add(1);
            black_box(filter.may_contain(&i.to_le_bytes()))
        })
    });
}

fn bench_sstable(c: &mut Criterion) {
    c.bench_function("sstable/build_5k_entries", |b| {
        let mut n = 0u64;
        b.iter(|| {
            let vfs = fresh_vfs(64);
            n += 1;
            let mut builder = SstableBuilder::create(vfs, "t", 4096, 10).expect("create");
            for i in 0..5000u32 {
                let key = format!("key{i:08}");
                builder.add(key.as_bytes(), Some(&[0u8; 64])).expect("add");
            }
            black_box(builder.finish().expect("finish"))
        })
    });
    // One table as compaction writes it (background, 4 000 B values) at
    // two sizes: several 256 KiB appends, and less than one. Half of
    // each value is noise and half one byte, so the lz1 rows store a
    // little over half.
    for (label, table_bytes) in [("1MiB", 1usize << 20), ("128KiB", 128 << 10)] {
        for (suffix, compression) in [
            ("", Compression::None),
            ("_lz1", Compression::from_level(1)),
        ] {
            let entries: Vec<(Vec<u8>, Vec<u8>)> = (0..(table_bytes / 4022) as u64)
                .map(|i| {
                    let (mut key, mut value) = (Vec::new(), Vec::new());
                    encode_key(i, 16, &mut key);
                    fill_value(i, 1, 2000, &mut value);
                    value.resize(4000, i as u8);
                    (key, value)
                })
                .collect();
            c.bench_function(&format!("sstable/build_{label}_4k_values{suffix}"), |b| {
                let fs = fresh_vfs(64);
                b.iter_batched(
                    || fs.delete("t").ok(),
                    |_| {
                        let mut builder = SstableBuilder::create_bg(
                            fs.clone(),
                            "t",
                            4096,
                            10,
                            table_bytes as u64,
                        )
                        .expect("create")
                        .with_compression(compression);
                        for (k, v) in &entries {
                            builder.add(k, Some(v)).expect("add");
                        }
                        black_box(builder.finish().expect("finish"))
                    },
                    BatchSize::PerIteration,
                )
            });
        }
    }
    c.bench_function("sstable/point_get", |b| {
        let vfs = fresh_vfs(64);
        let mut builder = SstableBuilder::create(vfs.clone(), "t", 4096, 10).expect("create");
        for i in 0..50_000u32 {
            let key = format!("key{i:08}");
            builder.add(key.as_bytes(), Some(&[0u8; 64])).expect("add");
        }
        builder.finish().expect("finish");
        let reader = SstableReader::open(vfs, "t", true, None).expect("open");
        let mut i = 0u32;
        b.iter(|| {
            i = (i + 7919) % 50_000;
            let key = format!("key{i:08}");
            black_box(reader.get(key.as_bytes()).expect("get"))
        })
    });
}

fn bench_kway_merge(c: &mut Criterion) {
    c.bench_function("kway_merge/8x1k", |b| {
        b.iter_batched(
            // Each source is one window of encoded entries, as a table
            // scan reads them: 11-byte keys, 32-byte values.
            || {
                (0..8usize)
                    .map(|s| {
                        let mut window = Vec::new();
                        for i in 0..1000u32 {
                            let key = format!("key{:08}", i * 8 + s as u32);
                            encode_entry(&mut window, key.as_bytes(), Some(&[0u8; 32]));
                        }
                        WindowScan::over(VecDeque::from([(FileSlice::from(window), 1000)]))
                    })
                    .collect::<Vec<_>>()
            },
            |sources| {
                let mut merge = Merge::new(sources);
                let mut n = 0;
                while merge.next_entry().is_some() {
                    n += 1;
                }
                black_box(n)
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("engines");
    group.sample_size(10);
    group.bench_function("lsm/put_2k_ops", |b| {
        b.iter_batched(
            || LsmDb::open(fresh_vfs(64), LsmOptions::small()).expect("open"),
            |mut db| {
                let mut rng = SmallRng::seed_from_u64(3);
                for _ in 0..2000 {
                    let i: u32 = rng.gen_range(0..500);
                    db.put(format!("key{i:08}").as_bytes(), &[0u8; 256])
                        .expect("put");
                }
                black_box(db.stats().flushes)
            },
            BatchSize::LargeInput,
        )
    });
    group.bench_function("btree/put_2k_ops", |b| {
        b.iter_batched(
            || BTreeDb::open(fresh_vfs(64), BTreeOptions::small()).expect("open"),
            |mut db| {
                let mut rng = SmallRng::seed_from_u64(3);
                for _ in 0..2000 {
                    let i: u32 = rng.gen_range(0..500);
                    db.put(format!("key{i:08}").as_bytes(), &[0u8; 256])
                        .expect("put");
                }
                black_box(db.len())
            },
            BatchSize::LargeInput,
        )
    });
    group.bench_function("hashlog/put_2k_ops", |b| {
        b.iter_batched(
            || HashLogDb::open(fresh_vfs(64), HashLogOptions::small()).expect("open"),
            |mut db| {
                let mut rng = SmallRng::seed_from_u64(3);
                for _ in 0..2000 {
                    let i: u32 = rng.gen_range(0..500);
                    db.put(format!("key{i:08}").as_bytes(), &[0u8; 256])
                        .expect("put");
                }
                black_box(db.stats().gc_runs)
            },
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

/// One put that collects a GC victim inline, at the geometry
/// `serve_fanin_fifo` runs the hash log (256 KiB segments, 4 000 B
/// values, codec off): the victim read, the relocation of its live
/// records into the active segment and the victim's deletion. A seeded
/// churn is replayed once to find which of its puts collect; the
/// measured log replays the same churn, the other puts in the untimed
/// set-up, past 20 collections of warm-up.
fn bench_hashlog(c: &mut Criterion) {
    const SAMPLES: usize = 100;
    const WARM_UP: usize = 20;
    let value = vec![0x5au8; 4000];
    let open = || {
        let opts = HashLogOptions {
            segment_bytes: 256 << 10,
            ..HashLogOptions::default()
        };
        HashLogDb::open(fresh_vfs(64), opts).expect("open")
    };
    // Three in four puts overwrite one of 128 hot keys.
    let churn = |db: &mut HashLogDb, rng: &mut SmallRng| {
        let i: u32 = match rng.gen_range(0..4) {
            0 => rng.gen_range(128..1024),
            _ => rng.gen_range(0..128),
        };
        db.put(format!("user{i:012}").as_bytes(), &value)
            .expect("put");
    };
    let mut collecting = VecDeque::new();
    let (mut probe, mut rng) = (open(), SmallRng::seed_from_u64(5));
    for n in 0u64.. {
        if collecting.len() == WARM_UP + SAMPLES {
            break;
        }
        let runs = probe.stats().gc_runs;
        churn(&mut probe, &mut rng);
        if probe.stats().gc_runs > runs {
            collecting.push_back(n);
        }
    }
    drop(probe);
    let (mut db, mut rng) = (open(), SmallRng::seed_from_u64(5));
    let mut next = 0u64;
    let warm = collecting.drain(..WARM_UP).next_back().expect("warm-up");
    while next <= warm {
        churn(&mut db, &mut rng);
        next += 1;
    }
    let (db, rng, next) = (RefCell::new(db), RefCell::new(rng), RefCell::new(next));
    let mut group = c.benchmark_group("hashlog");
    group.sample_size(SAMPLES);
    group.bench_function("gc_inline_victim", |b| {
        b.iter_batched(
            || {
                let collects = collecting.pop_front().expect("a collecting put");
                let (mut db, mut rng) = (db.borrow_mut(), rng.borrow_mut());
                while *next.borrow() < collects {
                    churn(&mut db, &mut rng);
                    *next.borrow_mut() += 1;
                }
            },
            |()| {
                let runs = db.borrow().stats().gc_runs;
                churn(&mut db.borrow_mut(), &mut rng.borrow_mut());
                *next.borrow_mut() += 1;
                assert_eq!(db.borrow().stats().gc_runs, runs + 1, "a collection");
            },
            BatchSize::PerIteration,
        )
    });
    group.finish();
}

/// The B+Tree's layers at the geometry `paper_btree_mixed` runs
/// (32 KiB pages, 4 000 B values — eight entries to a leaf, ~1 000
/// separators to an internal page), not `BTreeOptions::small()`: a
/// walk served from the cache, a walk whose leaf comes off the device,
/// an in-place update through a four-page cache (every put ends in a
/// page write-back), the reload of one wide internal page and of one
/// full leaf that are unchanged since their last load (a device read,
/// then the parked internal node taken back, the leaf's header walk),
/// the write-back of one dirty full leaf on eviction, and a full leaf
/// loaded, one value overwritten at the same length and the leaf
/// written back.
fn bench_btree_layers(c: &mut Criterion) {
    const KEYS: u32 = 2000;
    const PAGE_BYTES: usize = 32 << 10;
    const FOUR_PAGES: u64 = 4 * PAGE_BYTES as u64 + 1;
    let keys: Vec<Vec<u8>> = (0..KEYS)
        .map(|i| format!("user{i:012}").into_bytes())
        .collect();
    let value = vec![0u8; 4000];
    let loaded = |cache_bytes: u64| {
        let opts = BTreeOptions {
            pager_bytes: cache_bytes,
            ..BTreeOptions::default()
        };
        let mut db = BTreeDb::open(fresh_vfs(64), opts).expect("open");
        for key in &keys {
            db.put(key, &value).expect("put");
        }
        db
    };

    let mut group = c.benchmark_group("btree");
    group.sample_size(2000);
    group.bench_function("get_hit", |b| {
        // The default 10 MB cache holds all ~250 leaves.
        let mut db = loaded(10 << 20);
        for key in &keys {
            db.get(key).expect("get");
        }
        let mut rng = SmallRng::seed_from_u64(5);
        b.iter(|| black_box(db.get(&keys[rng.gen_range(0..keys.len())]).expect("get")))
    });
    group.bench_function("get_leaf_miss_4page_cache", |b| {
        let mut db = loaded(FOUR_PAGES);
        let mut rng = SmallRng::seed_from_u64(5);
        b.iter(|| black_box(db.get(&keys[rng.gen_range(0..keys.len())]).expect("get")))
    });
    group.bench_function("put_update_32k_pages", |b| {
        let mut db = loaded(FOUR_PAGES);
        let mut rng = SmallRng::seed_from_u64(5);
        b.iter(|| {
            db.put(&keys[rng.gen_range(0..keys.len())], &value)
                .expect("put")
        })
    });
    group.finish();

    let mut group = c.benchmark_group("pager");
    group.sample_size(500);
    let internal = Node::Internal {
        children: (1..=1001).collect(),
        separators: keys[..1000].iter().collect(),
    };
    let leaf = Node::Leaf {
        entries: keys[..8].iter().map(|key| (key, &value)).collect(),
    };
    // A four-page cache holding `node`'s page beside four ~30 KB leaves,
    // any four of which push it out.
    let pager_with = |node: &Node| {
        let mut pager = Pager::create(fresh_vfs(64), "t.db", PAGE_BYTES, 4 * PAGE_BYTES as u64)
            .expect("create");
        let page = pager.allocate(node.clone()).expect("allocate");
        let fillers: Vec<PageNo> = (0..4u8)
            .map(|i| {
                let leaf = Node::Leaf {
                    entries: [(vec![i], vec![i; 30_000])].into_iter().collect(),
                };
                pager.allocate(leaf).expect("allocate")
            })
            .collect();
        (RefCell::new(pager), page, fillers)
    };
    for (name, node) in [
        ("load_internal_1k_separators", &internal),
        ("load_leaf_8x4000", &leaf),
    ] {
        group.bench_function(name, |b| {
            let (pager, page, fillers) = pager_with(node);
            b.iter_batched(
                // Four ~30 KB leaves push the page out (untimed)...
                || {
                    for &filler in &fillers {
                        pager.borrow_mut().read(filler).expect("read");
                    }
                },
                // ...so this read is a device read plus the load.
                |()| black_box(pager.borrow_mut().read(page).expect("read").encoded_len()),
                BatchSize::PerIteration,
            )
        });
    }
    group.bench_function("evict_dirty_leaf", |b| {
        let (pager, page, fillers) = pager_with(&leaf);
        // An edit that leaves the leaf as it was: its last entry out and
        // back in.
        let last: Entries = [(&keys[7], &value)].into_iter().collect();
        b.iter_batched(
            // The leaf read and edited, then three fillers read after it
            // (untimed)...
            || {
                let mut pager = pager.borrow_mut();
                pager.read(page).expect("read");
                pager
                    .update(page, |node| {
                        if let Node::Leaf { entries } = node {
                            entries.remove(7);
                            entries.append(&last);
                        }
                    })
                    .expect("edit");
                for &filler in &fillers[..3] {
                    pager.read(filler).expect("read");
                }
            },
            // ...so the fourth filler's load evicts it: the load of a
            // one-entry leaf plus the dirty leaf's write-back.
            |()| black_box(pager.borrow_mut().read(fillers[3]).is_ok()),
            BatchSize::PerIteration,
        )
    });
    group.bench_function("overwrite_loaded_leaf", |b| {
        let (pager, page, fillers) = pager_with(&leaf);
        let mut round = 0u8;
        b.iter_batched(
            // Four fillers push the leaf out (untimed; it is clean)...
            || {
                for &filler in &fillers {
                    pager.borrow_mut().read(filler).expect("read");
                }
                round = round.wrapping_add(1);
                vec![round; 4000]
            },
            // ...so this is a device read and the load, a same-length
            // overwrite of one value, and the page's write-back (the
            // one eviction makes, driven alone so no other load is
            // timed).
            |fresh| {
                let mut pager = pager.borrow_mut();
                pager.read(page).expect("read");
                pager
                    .update(page, |node| node.set_value(3, &fresh))
                    .expect("edit");
                black_box(pager.flush_dirty(u64::MAX, false).expect("write-back"))
            },
            BatchSize::PerIteration,
        )
    });
    group.finish();
}

/// The LSM's compaction data path at the geometry `paper_lsm_write`
/// runs (4 000 B values, 1 MiB memtables and tables, 256 KiB appends
/// and scan windows): storing a staged chunk into a file, reading a
/// scan window back owned and shared, building one table, and merging
/// four overlapping L0 tables into L1 — and a range scan over a level of
/// many small tables.
fn bench_lsm_data_path(c: &mut Criterion) {
    const CHUNK: usize = 256 << 10;
    const TABLE: u64 = 1 << 20;
    let value = vec![0x5au8; 4000];
    let key = |i: u32| format!("user{i:012}").into_bytes();

    let mut group = c.benchmark_group("vfs");
    group.sample_size(400);
    // Growing a table chunk by chunk, the caller's buffer copied in.
    for (name, bytes) in [("append_256k", CHUNK), ("append_64k", 64 << 10)] {
        group.bench_function(name, |b| {
            let fs = fresh_vfs(64);
            let chunk = vec![0xa5u8; bytes];
            let file = RefCell::new(fs.create("t").expect("create"));
            b.iter_batched(
                // A table's worth of chunks per file, then a fresh one.
                || {
                    let mut file = file.borrow_mut();
                    if fs.size(*file).expect("size") >= TABLE {
                        fs.delete("t").expect("delete");
                        *file = fs.create("t").expect("create");
                    }
                    *file
                },
                |file| fs.append_bg(file, &chunk).expect("append"),
                BatchSize::PerIteration,
            )
        });
    }
    // The 64 KiB growth through the file's own buffer: the writer puts
    // the chunk at its tail (room for a table reserved), then commits.
    group.bench_function("appender_commit_64k", |b| {
        let fs = fresh_vfs(64);
        let chunk = vec![0xa5u8; 64 << 10];
        let out = RefCell::new(None);
        b.iter_batched(
            || {
                let mut out = out.borrow_mut();
                if out
                    .as_ref()
                    .is_none_or(|a: &FileAppender| a.buf.len() as u64 >= TABLE)
                {
                    *out = None;
                    fs.delete("t").ok();
                    let file = fs.create("t").expect("create");
                    *out = Some(fs.appender(file, TABLE).expect("appender"));
                }
            },
            |_| {
                let mut out = out.borrow_mut();
                let a = out.as_mut().expect("appender");
                a.buf.extend_from_slice(&chunk);
                a.commit(a.buf.len(), false).expect("commit")
            },
            BatchSize::PerIteration,
        )
    });
    let fs = fresh_vfs(64);
    let table = fs.create("t").expect("create");
    fs.append(table, &vec![0xa5u8; TABLE as usize])
        .expect("append");
    let mut window = 0u64;
    let mut next_window = move || {
        window = (window + CHUNK as u64) % TABLE;
        window
    };
    group.bench_function("read_window_256k", |b| {
        b.iter(|| {
            black_box(
                fs.read_shared_bg(table, next_window(), CHUNK)
                    .expect("read"),
            )
        })
    });
    group.finish();

    let mut group = c.benchmark_group("lsm");
    group.sample_size(30);
    // The compactions run as the single-stack runner's do: with a helper
    // thread while the process has a CPU beside this one.
    let helpers = idle_cpus(1).min(1);
    group.bench_function("compact_4x1mib_into_l1", |b| {
        let scaled = LsmOptions::scaled_to_partition(256 << 20);
        let opts = LsmOptions {
            // Four flushes must pile up in L0 untouched.
            l0_compaction_trigger: 8,
            tuning: scaled.tuning.with_helper_threads(helpers),
            ..scaled
        };
        let db = RefCell::new(None);
        b.iter_batched(
            // Untimed: four memtables of interleaved keys, flushed.
            || {
                let mut fresh = LsmDb::open(fresh_vfs(64), opts.clone()).expect("open");
                let mut i = 0u32;
                while fresh.stats().flushes < 4 {
                    fresh
                        .put(&key(i.wrapping_mul(2_654_435_761) % 100_000), &value)
                        .expect("put");
                    i += 1;
                }
                *db.borrow_mut() = Some(fresh);
            },
            |()| {
                let mut db = db.borrow_mut();
                let db = db.as_mut().expect("set up");
                db.compact_all().expect("compact");
                let stats = db.stats();
                assert_eq!((stats.compactions, stats.trivial_moves), (1, 0));
                black_box(stats.compaction_bytes_written)
            },
            BatchSize::PerIteration,
        )
    });
    // One L1 -> L2 merge at codec level 1 of ~4 MiB of workload values
    // (noise: every block stored verbatim) with every eighth key updated,
    // so that most L2 blocks pass through the merge unchanged.
    group.bench_function("compact_noise_lz1", |b| {
        let opts = LsmOptions {
            max_levels: 3,
            tuning: EngineTuning::for_device(256 << 20)
                .with_compression_level(1)
                .with_helper_threads(helpers),
            ..LsmOptions::scaled_to_partition(256 << 20)
        };
        let db = RefCell::new(None);
        let mut value = Vec::new();
        b.iter_batched(
            // Untimed: a sequential fill, moved untouched to L2, then
            // the updates flushed to L0.
            || {
                let mut fresh = LsmDb::open(fresh_vfs(64), opts.clone()).expect("open");
                for (keys, version) in [(1, 0), (8, 1)] {
                    for i in (0..1000).step_by(keys) {
                        fill_value(i as u64, version, 4000, &mut value);
                        fresh.put(&key(i as u32), &value).expect("put");
                    }
                    if version == 0 {
                        fresh.compact_all().expect("move");
                    }
                }
                fresh.flush().expect("flush");
                assert_eq!(fresh.stats().compactions, 0);
                *db.borrow_mut() = Some(fresh);
            },
            |()| {
                let mut db = db.borrow_mut();
                let db = db.as_mut().expect("set up");
                db.compact_all().expect("compact");
                assert_eq!(db.stats().compactions, 1);
                black_box(db.stats().compaction_bytes_written)
            },
            BatchSize::PerIteration,
        )
    });
    // A full scan without a submission queue over one level of ~150 small
    // tables: every table's first window is read when the scan is built,
    // and the level is one merge source however many tables it has.
    group.bench_function("scan_qd1_many_tables", |b| {
        let opts = LsmOptions {
            max_levels: 3,
            memtable_bytes: 16 << 10,
            sstable_target_bytes: 16 << 10,
            ..LsmOptions::scaled_to_partition(64 << 20)
        };
        let mut db = LsmDb::open(fresh_vfs(64), opts).expect("open");
        for i in 0..8192 {
            db.put(&key(i), &[0x5a; 256]).expect("put");
        }
        db.compact_all().expect("compact");
        let tables: usize = db.level_summary().iter().map(|&(_, t, _)| t).sum();
        assert!(tables >= 128, "{tables} tables");
        b.iter(|| black_box(db.scan_iter(b"", None, usize::MAX).count()))
    });
    group.finish();

    // Point reads of 4 000-byte values, copied out (`get`) and lent
    // (`get_with`), side by side: the gap is what the copy costs. 1 000
    // keys flushed into tables (cache off: every table hit reads the
    // device), then 100 more left in the memtable.
    let mut group = c.benchmark_group("lsm");
    group.sample_size(2000);
    let opts = LsmOptions::scaled_to_partition(256 << 20);
    let mut db = LsmDb::open(fresh_vfs(64), opts).expect("open");
    for i in 0..1000 {
        db.put(&key(i), &value).expect("put");
    }
    db.flush().expect("flush");
    for i in 1000..1100 {
        db.put(&key(i), &value).expect("put");
    }
    let flushes = db.stats().flushes;
    for (tier, keys) in [("memtable_hit", 1000..1100u32), ("table_hit", 0..1000)] {
        let mut rng = SmallRng::seed_from_u64(5);
        let mut next = || key(rng.gen_range(keys.clone()));
        group.bench_function(&format!("get_{tier}"), |b| {
            b.iter(|| black_box(db.get(&next()).expect("get")))
        });
        group.bench_function(&format!("get_with_{tier}"), |b| {
            b.iter(|| black_box(db.get_with(&next(), |v| v.map(<[u8]>::len)).expect("get")))
        });
    }
    assert_eq!(
        db.stats().flushes,
        flushes,
        "the memtable rows stayed in the memtable"
    );
    // Point reads through a sorted level of ~128 tables, as the serving
    // workloads read a key-ordered bulk load: the level's search, the
    // table's block index and the block walk, per get.
    let opts = LsmOptions {
        memtable_bytes: 64 << 10,
        sstable_target_bytes: 64 << 10,
        ..LsmOptions::scaled_to_partition(64 << 20)
    };
    let mut db = LsmDb::open(fresh_vfs(64), opts).expect("open");
    let mut buf = Vec::new();
    for i in 0..2048 {
        encode_key(i, 16, &mut buf);
        db.put(&buf, &value).expect("put");
    }
    db.flush().expect("flush");
    let bottom = db.level_summary().iter().map(|&(_, t, _)| t).max();
    assert!(
        bottom >= Some(120),
        "{bottom:?} tables in the largest level"
    );
    let mut rng = SmallRng::seed_from_u64(5);
    group.bench_function("get_bottom_level", |b| {
        b.iter(|| {
            encode_key(rng.gen_range(0..2048u64), 16, &mut buf);
            black_box(db.get_with(&buf, |v| v.map(<[u8]>::len)).expect("get"))
        })
    });
    group.finish();
}

/// The block codec over inputs shaped like what the engines hand it.
/// Each row cycles 64 *distinct* inputs: re-encoding one block lets the
/// branch predictor learn that block's hash-chain walk, and the row
/// then reports a fraction of what an engine pays per sealed block.
fn bench_codec(c: &mut Criterion) {
    const DISTINCT: u64 = 64;
    // Entries as the LSM lays them out: 16-byte keys in order, values
    // from the workload generator (pseudorandom, so incompressible).
    let entries = |first: u64, bytes: usize, value_size: usize| {
        let (mut key, mut value) = (Vec::new(), Vec::new());
        let mut block = Vec::with_capacity(bytes + value_size + 22);
        let mut idx = first;
        while block.len() < bytes {
            encode_key(idx, 16, &mut key);
            fill_value(idx, 0, value_size, &mut value);
            encode_entry(&mut block, &key, Some(&value));
            idx += 1;
        }
        block
    };
    // Text-like: words of 3-10 letters drawn from a 256-word vocabulary.
    let text = |seed: u64| {
        let mut rng = SmallRng::seed_from_u64(seed);
        let vocabulary: Vec<Vec<u8>> = (0..256)
            .map(|_| {
                (0..rng.gen_range(3..=10))
                    .map(|_| rng.gen_range(b'a'..=b'z'))
                    .collect()
            })
            .collect();
        let mut block = Vec::with_capacity(8192 + 11);
        while block.len() < 8192 {
            block.extend_from_slice(&vocabulary[rng.gen_range(0..256usize)]);
            block.push(b' ');
        }
        block.truncate(8192);
        block
    };
    // What a 4 KiB-block table seals at the paper's 4 000-byte values:
    // two entries, 8 044 bytes — stored mode, like every block of every
    // benchmark workload.
    let two_values: Vec<Vec<u8>> = (0..DISTINCT).map(|b| entries(2 * b, 4096, 4000)).collect();
    let stored: Vec<Vec<u8>> = two_values
        .iter()
        .map(|block| Compression::from_level(1).encode(block))
        .collect();
    let inputs: [(&str, usize, Vec<Vec<u8>>); 3] = [
        ("two_4000B_values_8k", 6400, two_values),
        ("compressible_8k", 6400, (0..DISTINCT).map(text).collect()),
        // A hash-log segment of the same records.
        (
            "segment_1m",
            64,
            (0..DISTINCT)
                .map(|b| entries(1000 * b, 1 << 20, 4000))
                .collect(),
        ),
    ];

    // As `SstableBuilder::seal_block` encodes: one scratch for every
    // block, the container appended to a cleared buffer. `encode` would
    // allocate and zero fresh match tables each call, which no engine
    // does.
    let mut group = c.benchmark_group("codec_encode");
    for (name, samples, blocks) in &inputs {
        for level in [1u8, 3] {
            let codec = Compression::from_level(level);
            let mut scratch = EncodeScratch::default();
            let mut out = Vec::new();
            let mut next = 0usize;
            group.sample_size(*samples);
            group.bench_function(&format!("{name}/l{level}"), |b| {
                b.iter(|| {
                    next = (next + 1) % blocks.len();
                    out.clear();
                    codec.encode_into(black_box(&blocks[next]), &mut scratch, &mut out);
                    black_box(out.len())
                })
            });
        }
    }
    group.finish();

    let mut group = c.benchmark_group("codec_decode");
    group.sample_size(6400);
    let mut next = 0usize;
    group.bench_function("stored_8k", |b| {
        b.iter(|| {
            next = (next + 1) % stored.len();
            black_box(Compression::decode(black_box(&stored[next])))
        })
    });
    group.finish();
}

/// One dispatch decision of the serving front-end's reordering path
/// (`Frontend::settle_one`: find the next dispatch instant, let the
/// discipline pick, serve one cached LSM read) with a standing backlog
/// on one shard, all three classes waiting. The backlog is topped up
/// outside the timed region, so every sample decides at the named
/// depth; the two depths should read alike. The strict-priority rows
/// are the ones that run the promotion test: after the first simulated
/// second every decision finds the oldest request past the bound.
fn bench_frontend_dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("frontend_dispatch");
    group.sample_size(4000);
    for (name, discipline) in [
        (
            "wfq",
            DispatchDiscipline::WeightedFair { weights: [8, 2, 1] },
        ),
        (
            "strict",
            DispatchDiscipline::StrictPriority {
                promote_after_ns: SECOND,
            },
        ),
    ] {
        for (depth, backlog) in [("1k", 1 << 10), ("32k", 32 << 10)] {
            let mut cfg = FrontendRun::new(
                RunConfig {
                    engine: EngineKind::lsm(),
                    device_bytes: 16 << 20,
                    read_fraction: 1.0,
                    duration: 600 * MINUTE,
                    sample_window: 300 * MINUTE,
                    ..RunConfig::default()
                },
                1,
            );
            cfg.discipline = discipline;
            let keys = cfg.base.workload().num_keys;
            let mut rng = SmallRng::seed_from_u64(11);
            let mut read = move || Request {
                kind: OpKind::Read,
                key_index: rng.gen_range(0..keys),
                class: ReqClass::ALL[rng.gen_range(0..3usize)],
                ..Request::default()
            };
            let frontend = RefCell::new(Frontend::new(&cfg).expect("frontend"));
            for _ in 0..backlog {
                frontend.borrow_mut().submit(read()).expect("submit");
            }
            group.bench_function(&format!("{name}_backlog_{depth}"), |b| {
                b.iter_batched(
                    || frontend.borrow_mut().submit(read()).expect("submit"),
                    |_| black_box(frontend.borrow_mut().settle_one().expect("settle")),
                    BatchSize::PerIteration,
                )
            });
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_ftl,
    bench_allocator,
    bench_memtable,
    bench_workload,
    bench_bloom,
    bench_sstable,
    bench_kway_merge,
    bench_engines,
    bench_hashlog,
    bench_btree_layers,
    bench_lsm_data_path,
    bench_codec,
    bench_frontend_dispatch
);
criterion_main!(benches);
