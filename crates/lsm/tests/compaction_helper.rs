//! Inline compaction lays its outputs out on a helper thread only while
//! one database is open in the process; with another open it copies
//! its values in on the compacting thread. Both must leave the same
//! tables, counters, device and clock. This is the only test in its
//! binary, so nothing else is open while the first run goes: test
//! threads running side by side take the copying branch.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use ptsbench_lsm::{LsmDb, LsmOptions};
use ptsbench_ssd::{DeviceConfig, DeviceProfile, Ssd};
use ptsbench_testkit::Fnv;
use ptsbench_vfs::{Vfs, VfsOptions};

fn vfs() -> Vfs {
    let ssd = Ssd::new(DeviceConfig::from_profile(DeviceProfile::ssd1(), 64 << 20));
    Vfs::whole_device(ssd.into_shared(), VfsOptions::default())
}

/// Puts and deletes of 100 B–9 KB noise values over 400 keys on an
/// inline, codec-off database, then renders its counters, device,
/// clock and one checksum per table file.
fn run() -> String {
    let mut db = LsmDb::open(vfs(), LsmOptions::small()).expect("open");
    let mut rng = SmallRng::seed_from_u64(43);
    for _ in 0..8000 {
        let key = format!("key{:08}", rng.gen_range(0..400u32)).into_bytes();
        if rng.gen_range(0..10) == 0 {
            db.delete(&key).expect("delete");
        } else {
            let len = rng.gen_range(100..9000);
            let value: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
            db.put(&key, &value).expect("put");
        }
    }
    db.flush().expect("flush");
    let smart = db.vfs().ssd().lock().smart();
    let mut out = format!(
        "{:?}\n{smart:?}\nclock={}\n",
        db.stats(),
        db.vfs().clock().now()
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

#[test]
fn the_helper_and_the_compacting_thread_write_the_same_tables() {
    let helped = run();
    let other = LsmDb::open(vfs(), LsmOptions::small()).expect("open");
    let copied = run();
    drop(other);
    assert!(helped.matches("sst-").count() > 4, "{helped}");
    assert!(!helped.contains("compactions: 0,"), "{helped}");
    assert_eq!(helped, copied);
}
