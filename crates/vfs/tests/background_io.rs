//! Background vs foreground I/O semantics: background writes/reads
//! consume device bandwidth without advancing the simulated clock, and
//! foreground traffic feels them only through queueing — the mechanism
//! that models background flush/compaction threads.

use ptsbench_ssd::{DeviceConfig, DeviceProfile, Ssd};
use ptsbench_vfs::{Vfs, VfsOptions};

fn stack() -> Vfs {
    let ssd = Ssd::new(DeviceConfig::from_profile(DeviceProfile::ssd1(), 32 << 20));
    Vfs::whole_device(ssd.into_shared(), VfsOptions::default())
}

#[test]
fn background_writes_do_not_advance_the_clock() {
    let v = stack();
    let clock = v.clock();
    let f = v.create("bg").expect("create");
    let t0 = clock.now();
    v.write_at_bg(f, 0, &vec![1u8; 1 << 20]).expect("bg write");
    assert_eq!(clock.now(), t0, "background writes must not block the host");
    // ... but the work is real: the device saw the pages and holds backlog.
    let dev = v.ssd();
    let dev = dev.lock();
    assert_eq!(dev.smart().host_pages_written, 256);
    assert!(dev.backend_backlog() > 0, "the media must be busy");
}

#[test]
fn foreground_write_queues_behind_background_burst() {
    let v = stack();
    let clock = v.clock();
    let bg = v.create("bg").expect("create");
    let fg = v.create("fg").expect("create");
    // Prime the foreground latency without congestion.
    v.write_at(fg, 0, &[0u8; 4096]).expect("fg write");
    let t0 = clock.now();
    v.write_at(fg, 0, &[1u8; 4096]).expect("fg write");
    let quiet_latency = clock.now() - t0;

    // A large background burst fills the device cache...
    v.append_bg(bg, &vec![2u8; 4 << 20]).expect("bg burst");
    // ...so the next foreground write waits for destage room.
    let t1 = clock.now();
    v.write_at(fg, 0, &[3u8; 4096]).expect("fg write");
    let congested_latency = clock.now() - t1;
    assert!(
        congested_latency > 3 * quiet_latency,
        "foreground must feel background congestion: {congested_latency} vs {quiet_latency}"
    );
}

#[test]
fn background_reads_charge_bandwidth_only() {
    let v = stack();
    let clock = v.clock();
    let f = v.create("data").expect("create");
    v.write_at(f, 0, &vec![7u8; 1 << 20]).expect("write");
    let reads_before = v.ssd().lock().smart().host_pages_read;
    let t0 = clock.now();
    let got = v.read_shared_bg(f, 0, 1 << 20).expect("bg read");
    assert_eq!(got.len(), 1 << 20);
    assert_eq!(clock.now(), t0, "background reads must not block the host");
    assert_eq!(v.ssd().lock().smart().host_pages_read, reads_before + 256);
}

#[test]
fn durability_is_tracked_across_bg_writes() {
    let v = stack();
    let clock = v.clock();
    let f = v.create("bg").expect("create");
    v.write_at_bg(f, 0, &vec![1u8; 256 << 10])
        .expect("bg write");
    let durable = v.durable_at(f).expect("durable");
    assert!(durable > clock.now(), "destage completes in the future");
    v.fsync(f).expect("fsync");
    assert!(
        clock.now() >= durable,
        "fsync must wait for background destage"
    );
}

#[test]
fn peak_usage_captures_transients() {
    let v = stack();
    let a = v.create("a").expect("create");
    v.write_at(a, 0, &vec![1u8; 2 << 20]).expect("write");
    let b = v.create("b").expect("create");
    v.write_at(b, 0, &vec![2u8; 2 << 20]).expect("write");
    // Transient peak: both files alive.
    v.delete("a").expect("delete");
    let s = v.stats();
    assert_eq!(s.used_pages, 512, "one 2 MiB file remains");
    assert_eq!(s.peak_used_pages, 1024, "peak saw both files");
    v.reset_peak_usage();
    assert_eq!(v.stats().peak_used_pages, 512, "peak resets to current");
}

#[test]
fn bg_and_fg_data_views_are_identical() {
    let v = stack();
    let f = v.create("mix").expect("create");
    v.write_at_bg(f, 0, &vec![9u8; 64 << 10]).expect("bg");
    v.write_at(f, 32 << 10, &vec![4u8; 16 << 10])
        .expect("fg overwrite");
    let via_fg = v.read_at(f, 0, 64 << 10).expect("read");
    let via_bg = v.read_shared_bg(f, 0, 64 << 10).expect("read");
    assert_eq!(via_fg, &*via_bg);
    assert!(via_fg[..32 << 10].iter().all(|&b| b == 9));
    assert!(via_fg[32 << 10..48 << 10].iter().all(|&b| b == 4));
}
