//! What a record log leaves behind, pinned step by step: the log files
//! on disk with their sizes, durability horizons and an FNV-1a of their
//! bytes, the device's SMART counters, the virtual clock, the `df` view
//! and the records a replay returns. The constants were recorded from
//! the LSM's `Wal` (recycling and churning) and the B+Tree's `Journal`
//! while they were two implementations (`lsm/src/wal.rs`,
//! `btree/src/log.rs`); [`RecordLog`], the one log both trees now
//! write, is held to them under both prefixes — and runs the WAL's
//! whole script under the journal's name too.
//!
//! The replayed list is rendered only while one log file is on disk:
//! with a deferred rotation pending, `Wal::replay` read the newest file
//! alone — a defect, not a contract (`replays_every_log_in_sequence_order`
//! in `log.rs` pins what holds there). A log whose last record is still
//! partly buffered does not parse at all (`<torn>`): tolerating a torn
//! tail is the crash model's business (ROADMAP item 2), not this
//! suite's.

use ptsbench_ssd::{DeviceConfig, DeviceProfile, Ssd};
use ptsbench_vfs::{LogRecord, RecordLog, SharedIoQueue, Vfs, VfsOptions};

const PAGE: usize = 4096;

/// One step of a script.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Eager put of a value of this many bytes.
    Put(&'static str, usize),
    /// Eager delete.
    Delete(&'static str),
    /// `sync(wait_durable)`.
    Sync(bool),
    /// Rotation after a flush / truncation after a checkpoint.
    Rotate,
    /// Rotation that keeps the old file (paced flush).
    RotateDeferred,
    /// The flush install releasing the deferred file.
    ReleaseDeferred,
    /// Group-commit put: buffered, nothing written.
    PutBuffered(&'static str, usize),
    /// Group-commit delete.
    DeleteBuffered(&'static str),
    /// `sync_batched` through the depth-8 queue, or without one.
    SyncBatched { queued: bool, wait: bool },
    /// Another file takes all free space but this many pages.
    Hog(u64),
    /// That file goes away.
    Unhog,
    /// The handle is dropped and the log reopened (`open_or_create`).
    Reopen,
}
use Step::*;

/// Sub-page, page-crossing and multi-page puts; both sync modes; two
/// rotations; a reopen; out of space in the middle of a 25-page record,
/// then the retry once space is back. The retry is the next put: the
/// journal's own `sync` cut a buffer of several pages down to one
/// (`resize(page_size)`), which no constant should hold anyone to.
const JOURNAL_SCRIPT: &[Step] = &[
    Put("tiny", 10),
    Put("entry", 4_000),
    Put("pages", 9_000),
    Delete("tiny"),
    Sync(false),
    Put("tail", 10),
    Sync(true),
    Rotate,
    Put("entry", 4_000),
    Put("entry2", 4_000),
    Sync(false),
    Reopen,
    Put("after", 10),
    Sync(true),
    Rotate,
    Put("kept", 300),
    Hog(1),
    Put("huge", 100_000),
    Unhog,
    Put("next", 10),
    Sync(true),
    Rotate,
];

/// The journal's steps, then what only the LSM asks of its log: a
/// deferred rotation and its release, and group commit with and without
/// a queue. Here the retry after out-of-space is the `sync` itself.
const WAL_SCRIPT: &[Step] = &[
    Put("tiny", 10),
    Put("entry", 4_000),
    Put("pages", 9_000),
    Delete("tiny"),
    Sync(false),
    Put("tail", 10),
    Sync(true),
    Rotate,
    Put("entry", 4_000),
    Put("entry2", 4_000),
    Sync(false),
    RotateDeferred,
    Put("fresh", 10),
    Delete("entry"),
    Sync(true),
    ReleaseDeferred,
    Reopen,
    Put("after", 10),
    Sync(true),
    PutBuffered("b0", 4_000),
    PutBuffered("b1", 4_000),
    PutBuffered("b2", 4_000),
    PutBuffered("b3", 4_000),
    PutBuffered("b4", 4_000),
    PutBuffered("b5", 4_000),
    PutBuffered("b6", 4_000),
    PutBuffered("b7", 4_000),
    PutBuffered("b8", 4_000),
    PutBuffered("b9", 4_000),
    DeleteBuffered("b3"),
    SyncBatched {
        queued: true,
        wait: false,
    },
    PutBuffered("c0", 10),
    PutBuffered("c1", 9_000),
    SyncBatched {
        queued: true,
        wait: true,
    },
    PutBuffered("d0", 5_000),
    DeleteBuffered("c0"),
    SyncBatched {
        queued: false,
        wait: true,
    },
    Rotate,
    Put("kept", 300),
    Hog(1),
    Put("huge", 100_000),
    Unhog,
    Sync(true),
    Rotate,
];

/// Runs a step that is a call on the log.
fn log_step(
    log: &mut RecordLog,
    step: Step,
    value: &[u8],
    queue: &SharedIoQueue,
) -> Result<(), String> {
    match step {
        Put(k, _) => log.log_put(k.as_bytes(), value),
        Delete(k) => log.log_delete(k.as_bytes()),
        Sync(wait) => log.sync(wait),
        Rotate => log.rotate(),
        RotateDeferred => log.rotate_deferred().map(drop),
        PutBuffered(k, _) => {
            log.log_put_buffered(k.as_bytes(), value);
            Ok(())
        }
        DeleteBuffered(k) => {
            log.log_delete_buffered(k.as_bytes());
            Ok(())
        }
        SyncBatched { queued, wait } => log.sync_batched(queued.then_some(queue), wait),
        ReleaseDeferred | Hog(_) | Unhog | Reopen => unreachable!("not a log call"),
    }
    // As both engines word the filesystem's error.
    .map_err(|e| format!("filesystem error: {e}"))
}

fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

fn pattern(step: usize, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (step * 31 + i * 7 + i / 251) as u8)
        .collect()
}

/// The log files on disk, oldest first.
fn log_files(v: &Vfs, prefix: &str) -> Vec<String> {
    let mut logs: Vec<(u64, String)> = v
        .list()
        .into_iter()
        .filter_map(|n| {
            let seq = n.strip_prefix(prefix)?.strip_prefix('-')?.parse().ok()?;
            Some((seq, n))
        })
        .collect();
    logs.sort();
    logs.into_iter().map(|(_, n)| n).collect()
}

/// Everything that must not move, after one step.
fn snapshot(v: &Vfs, prefix: &str) -> String {
    let logs = log_files(v, prefix);
    let files: Vec<String> = logs
        .iter()
        .map(|name| {
            let id = v.open(name).expect("open");
            // Looked at through a checked-out appender: no device
            // traffic, nothing moves.
            let bytes = fnv(&v.appender(id, 0).expect("check out").buf);
            format!(
                "{name}:{}:{}:{bytes:016x}",
                v.size(id).expect("size"),
                v.durable_at(id).expect("durable_at"),
            )
        })
        .collect();
    let replay = if logs.len() != 1 {
        format!("<{} logs>", logs.len())
    } else if let Ok(records) = RecordLog::replay(v, prefix) {
        let records: Vec<String> = records
            .iter()
            .map(|record| match record {
                LogRecord::Put(k, value) => format!(
                    "{}={}:{:08x}",
                    String::from_utf8_lossy(k),
                    value.len(),
                    fnv(value) as u32
                ),
                LogRecord::Delete(k) => format!("{}=X", String::from_utf8_lossy(k)),
            })
            .collect();
        records.join(" ")
    } else {
        "<torn>".to_string()
    };
    let s = v.ssd().lock().smart();
    let df = v.stats();
    format!(
        "files=[{}] w={} r={} nw={} nr={} er={} gc={}/{} trim={} clock={} df={}/{}/{}/{}/{} replay=[{replay}]",
        files.join(" "),
        s.host_pages_written,
        s.host_pages_read,
        s.nand_pages_written,
        s.nand_pages_read,
        s.blocks_erased,
        s.gc_pages_relocated,
        s.gc_invocations,
        s.pages_trimmed,
        v.clock().now(),
        df.used_pages,
        df.free_pages,
        df.live_files,
        df.peak_used_pages,
        df.data_bytes,
    )
}

/// Drives a fresh log on a 16 MiB device through `script`, rendering
/// every step. The snapshot's replay is itself a blocking read of the
/// log: its device reads and clock time are part of what is pinned.
fn run(prefix: &'static str, script: &[Step], recycle: bool) -> String {
    let ssd = Ssd::new(DeviceConfig::from_profile(DeviceProfile::ssd1(), 16 << 20));
    let v = Vfs::whole_device(ssd.into_shared(), VfsOptions::default());
    let queue = v.io_queue(8).into_shared();
    let mut log = Some(RecordLog::create(v.clone(), prefix, recycle).expect("create"));
    let mut out = String::new();
    for (i, &step) in script.iter().enumerate() {
        let result = match step {
            ReleaseDeferred => {
                let logs = log_files(&v, prefix);
                assert_eq!(logs.len(), 2, "one deferred log to release");
                v.delete(&logs[0]).map_err(|e| e.to_string())
            }
            Hog(leave) => {
                let hog = v.create("hog").expect("create");
                let pages = v.stats().free_pages - leave;
                v.append_bg(hog, &vec![0x5au8; pages as usize * PAGE])
                    .map_err(|e| e.to_string())
            }
            Unhog => v.delete("hog").map_err(|e| e.to_string()),
            Reopen => {
                drop(log.take());
                log = Some(RecordLog::open_or_create(v.clone(), prefix, recycle).expect("open"));
                Ok(())
            }
            Put(_, len) | PutBuffered(_, len) => log_step(
                log.as_mut().expect("open log"),
                step,
                &pattern(i, len),
                &queue,
            ),
            _ => log_step(log.as_mut().expect("open log"), step, &[], &queue),
        };
        let verdict = match &result {
            Ok(()) => "ok".to_string(),
            Err(e) => format!("ERR({e})"),
        };
        out.push_str(&format!(
            "{i} {step:?} {verdict} {}\n",
            snapshot(&v, prefix)
        ));
        v.check_invariants();
    }
    out
}

fn assert_parity(actual: &str, expected: &str) {
    assert!(
        actual == expected,
        "the run drifted from the recorded constants; it now renders:\n{actual}"
    );
}

const JOURNAL: &str = "\
0 Put(\"tiny\", 10) ok files=[journal-0:0:0:cbf29ce484222325] w=0 r=0 nw=0 nr=0 er=0 gc=0/0 trim=0 clock=0 df=0/4096/1/0/0 replay=[]\n\
1 Put(\"entry\", 4000) ok files=[journal-0:0:0:cbf29ce484222325] w=0 r=0 nw=0 nr=0 er=0 gc=0/0 trim=0 clock=0 df=0/4096/1/0/0 replay=[]\n\
2 Put(\"pages\", 9000) ok files=[journal-0:12288:1480000000:12cb1e322cc861f1] w=3 r=3 nw=3 nr=3 er=0 gc=0/0 trim=0 clock=8968363635 df=3/4093/1/3/12288 replay=[<torn>]\n\
3 Delete(\"tiny\") ok files=[journal-0:12288:1480000000:12cb1e322cc861f1] w=3 r=6 nw=3 nr=6 er=0 gc=0/0 trim=0 clock=16016727270 df=3/4093/1/3/12288 replay=[<torn>]\n\
4 Sync(false) ok files=[journal-0:16384:16216727270:1d28fc899c5e4b8f] w=4 r=10 nw=4 nr=10 er=0 gc=0/0 trim=0 clock=26054545450 df=4/4092/1/4/16384 replay=[tiny=10:9d330638 entry=4000:0e139e75 pages=9000:9bc70715 tiny=X]\n\
5 Put(\"tail\", 10) ok files=[journal-0:16384:16216727270:1d28fc899c5e4b8f] w=4 r=14 nw=4 nr=14 er=0 gc=0/0 trim=0 clock=35452363630 df=4/4092/1/4/16384 replay=[tiny=10:9d330638 entry=4000:0e139e75 pages=9000:9bc70715 tiny=X]\n\
6 Sync(true) ok files=[journal-0:20480:35652363630:630f21fae37327d5] w=5 r=19 nw=5 nr=19 er=0 gc=0/0 trim=0 clock=47839636355 df=5/4091/1/5/20480 replay=[tiny=10:9d330638 entry=4000:0e139e75 pages=9000:9bc70715 tiny=X tail=10:c9d468b8]\n\
7 Rotate ok files=[journal-0:0:35652363630:cbf29ce484222325] w=5 r=19 nw=5 nr=19 er=0 gc=0/0 trim=0 clock=47839636355 df=5/4091/1/5/0 replay=[]\n\
8 Put(\"entry\", 4000) ok files=[journal-0:0:35652363630:cbf29ce484222325] w=5 r=19 nw=5 nr=19 er=0 gc=0/0 trim=0 clock=47839636355 df=5/4091/1/5/0 replay=[]\n\
9 Put(\"entry2\", 4000) ok files=[journal-0:4096:48039636355:7cbb4937ffa2a3e2] w=6 r=20 nw=6 nr=20 er=0 gc=0/0 trim=0 clock=50829090900 df=5/4091/1/5/4096 replay=[<torn>]\n\
10 Sync(false) ok files=[journal-0:8192:51029090900:ed36c929e439f876] w=7 r=22 nw=7 nr=22 er=0 gc=0/0 trim=0 clock=56167999990 df=5/4091/1/5/8192 replay=[entry=4000:6a06f6c5 entry2=4000:61a159b5]\n\
11 Reopen ok files=[journal-0:8192:51029090900:ed36c929e439f876] w=7 r=24 nw=7 nr=24 er=0 gc=0/0 trim=0 clock=60866909080 df=5/4091/1/5/8192 replay=[entry=4000:6a06f6c5 entry2=4000:61a159b5]\n\
12 Put(\"after\", 10) ok files=[journal-0:8192:51029090900:ed36c929e439f876] w=7 r=26 nw=7 nr=26 er=0 gc=0/0 trim=0 clock=65565818170 df=5/4091/1/5/8192 replay=[entry=4000:6a06f6c5 entry2=4000:61a159b5]\n\
13 Sync(true) ok files=[journal-0:12288:65765818170:5804d1c738a70aed] w=8 r=29 nw=8 nr=29 er=0 gc=0/0 trim=0 clock=73254181805 df=5/4091/1/5/12288 replay=[entry=4000:6a06f6c5 entry2=4000:61a159b5 after=10:ec15c978]\n\
14 Rotate ok files=[journal-0:0:65765818170:cbf29ce484222325] w=8 r=29 nw=8 nr=29 er=0 gc=0/0 trim=0 clock=73254181805 df=5/4091/1/5/0 replay=[]\n\
15 Put(\"kept\", 300) ok files=[journal-0:0:65765818170:cbf29ce484222325] w=8 r=29 nw=8 nr=29 er=0 gc=0/0 trim=0 clock=73254181805 df=5/4091/1/5/0 replay=[]\n\
16 Hog(1) ok files=[journal-0:0:65765818170:cbf29ce484222325] w=4098 r=29 nw=4098 nr=29 er=0 gc=0/0 trim=0 clock=73254181805 df=4095/1/2/4095/16752640 replay=[]\n\
17 Put(\"huge\", 100000) ERR(filesystem error: no space left on device (requested 1 pages, 0 free)) files=[journal-0:24576:893254181805:81c5c44affa2c23e] w=4104 r=35 nw=4104 nr=35 er=0 gc=0/0 trim=0 clock=907790909075 df=4096/0/2/4096/16777216 replay=[<torn>]\n\
18 Unhog ok files=[journal-0:24576:893254181805:81c5c44affa2c23e] w=4104 r=41 nw=4104 nr=41 er=0 gc=0/0 trim=0 clock=921887636345 df=6/4090/1/4096/24576 replay=[<torn>]\n\
19 Put(\"next\", 10) ok files=[journal-0:98304:932967636345:bbe81f19e0b95a71] w=4122 r=65 nw=4122 nr=65 er=0 gc=0/0 trim=0 clock=989794545425 df=24/4072/1/4096/98304 replay=[<torn>]\n\
20 Sync(true) ok files=[journal-0:102400:989994545425:de9d7532710510eb] w=4123 r=90 nw=4123 nr=90 er=0 gc=0/0 trim=0 clock=1049170909050 df=25/4071/1/4096/102400 replay=[kept=300:41cbdfea huge=100000:60571a76 next=10:79f950d4]\n\
21 Rotate ok files=[journal-0:0:989994545425:cbf29ce484222325] w=4123 r=90 nw=4123 nr=90 er=0 gc=0/0 trim=0 clock=1049170909050 df=25/4071/1/4096/0 replay=[]\n\
";
const WAL_RECYCLE: &str = "\
0 Put(\"tiny\", 10) ok files=[wal-0:0:0:cbf29ce484222325] w=0 r=0 nw=0 nr=0 er=0 gc=0/0 trim=0 clock=0 df=0/4096/1/0/0 replay=[]\n\
1 Put(\"entry\", 4000) ok files=[wal-0:0:0:cbf29ce484222325] w=0 r=0 nw=0 nr=0 er=0 gc=0/0 trim=0 clock=0 df=0/4096/1/0/0 replay=[]\n\
2 Put(\"pages\", 9000) ok files=[wal-0:12288:1480000000:12cb1e322cc861f1] w=3 r=3 nw=3 nr=3 er=0 gc=0/0 trim=0 clock=8968363635 df=3/4093/1/3/12288 replay=[<torn>]\n\
3 Delete(\"tiny\") ok files=[wal-0:12288:1480000000:12cb1e322cc861f1] w=3 r=6 nw=3 nr=6 er=0 gc=0/0 trim=0 clock=16016727270 df=3/4093/1/3/12288 replay=[<torn>]\n\
4 Sync(false) ok files=[wal-0:16384:16216727270:1d28fc899c5e4b8f] w=4 r=10 nw=4 nr=10 er=0 gc=0/0 trim=0 clock=26054545450 df=4/4092/1/4/16384 replay=[tiny=10:9d330638 entry=4000:0e139e75 pages=9000:9bc70715 tiny=X]\n\
5 Put(\"tail\", 10) ok files=[wal-0:16384:16216727270:1d28fc899c5e4b8f] w=4 r=14 nw=4 nr=14 er=0 gc=0/0 trim=0 clock=35452363630 df=4/4092/1/4/16384 replay=[tiny=10:9d330638 entry=4000:0e139e75 pages=9000:9bc70715 tiny=X]\n\
6 Sync(true) ok files=[wal-0:20480:35652363630:630f21fae37327d5] w=5 r=19 nw=5 nr=19 er=0 gc=0/0 trim=0 clock=47839636355 df=5/4091/1/5/20480 replay=[tiny=10:9d330638 entry=4000:0e139e75 pages=9000:9bc70715 tiny=X tail=10:c9d468b8]\n\
7 Rotate ok files=[wal-0:0:35652363630:cbf29ce484222325] w=5 r=19 nw=5 nr=19 er=0 gc=0/0 trim=0 clock=47839636355 df=5/4091/1/5/0 replay=[]\n\
8 Put(\"entry\", 4000) ok files=[wal-0:0:35652363630:cbf29ce484222325] w=5 r=19 nw=5 nr=19 er=0 gc=0/0 trim=0 clock=47839636355 df=5/4091/1/5/0 replay=[]\n\
9 Put(\"entry2\", 4000) ok files=[wal-0:4096:48039636355:7cbb4937ffa2a3e2] w=6 r=20 nw=6 nr=20 er=0 gc=0/0 trim=0 clock=50829090900 df=5/4091/1/5/4096 replay=[<torn>]\n\
10 Sync(false) ok files=[wal-0:8192:51029090900:ed36c929e439f876] w=7 r=22 nw=7 nr=22 er=0 gc=0/0 trim=0 clock=56167999990 df=5/4091/1/5/8192 replay=[entry=4000:6a06f6c5 entry2=4000:61a159b5]\n\
11 RotateDeferred ok files=[wal-0:8192:51029090900:ed36c929e439f876 wal-2:0:0:cbf29ce484222325] w=7 r=22 nw=7 nr=22 er=0 gc=0/0 trim=0 clock=56167999990 df=5/4091/2/5/8192 replay=[<2 logs>]\n\
12 Put(\"fresh\", 10) ok files=[wal-0:8192:51029090900:ed36c929e439f876 wal-2:0:0:cbf29ce484222325] w=7 r=22 nw=7 nr=22 er=0 gc=0/0 trim=0 clock=56167999990 df=5/4091/2/5/8192 replay=[<2 logs>]\n\
13 Delete(\"entry\") ok files=[wal-0:8192:51029090900:ed36c929e439f876 wal-2:0:0:cbf29ce484222325] w=7 r=22 nw=7 nr=22 er=0 gc=0/0 trim=0 clock=56167999990 df=5/4091/2/5/8192 replay=[<2 logs>]\n\
14 Sync(true) ok files=[wal-0:8192:51029090900:ed36c929e439f876 wal-2:4096:56367999990:1ef813fb7873fb2d] w=8 r=22 nw=8 nr=22 er=0 gc=0/0 trim=0 clock=56807999990 df=6/4090/2/6/12288 replay=[<2 logs>]\n\
15 ReleaseDeferred ok files=[wal-2:4096:56367999990:1ef813fb7873fb2d] w=8 r=23 nw=8 nr=23 er=0 gc=0/0 trim=0 clock=59157454535 df=1/4095/1/6/4096 replay=[fresh=10:ec15c978 entry=X]\n\
16 Reopen ok files=[wal-2:4096:56367999990:1ef813fb7873fb2d] w=8 r=24 nw=8 nr=24 er=0 gc=0/0 trim=0 clock=61506909080 df=1/4095/1/6/4096 replay=[fresh=10:ec15c978 entry=X]\n\
17 Put(\"after\", 10) ok files=[wal-2:4096:56367999990:1ef813fb7873fb2d] w=8 r=25 nw=8 nr=25 er=0 gc=0/0 trim=0 clock=63856363625 df=1/4095/1/6/4096 replay=[fresh=10:ec15c978 entry=X]\n\
18 Sync(true) ok files=[wal-2:8192:64056363625:460b6da066521cce] w=9 r=27 nw=9 nr=27 er=0 gc=0/0 trim=0 clock=69195272715 df=2/4094/1/6/8192 replay=[fresh=10:ec15c978 entry=X after=10:9fa6cb58]\n\
19 PutBuffered(\"b0\", 4000) ok files=[wal-2:8192:64056363625:460b6da066521cce] w=9 r=29 nw=9 nr=29 er=0 gc=0/0 trim=0 clock=73894181805 df=2/4094/1/6/8192 replay=[fresh=10:ec15c978 entry=X after=10:9fa6cb58]\n\
20 PutBuffered(\"b1\", 4000) ok files=[wal-2:8192:64056363625:460b6da066521cce] w=9 r=31 nw=9 nr=31 er=0 gc=0/0 trim=0 clock=78593090895 df=2/4094/1/6/8192 replay=[fresh=10:ec15c978 entry=X after=10:9fa6cb58]\n\
21 PutBuffered(\"b2\", 4000) ok files=[wal-2:8192:64056363625:460b6da066521cce] w=9 r=33 nw=9 nr=33 er=0 gc=0/0 trim=0 clock=83291999985 df=2/4094/1/6/8192 replay=[fresh=10:ec15c978 entry=X after=10:9fa6cb58]\n\
22 PutBuffered(\"b3\", 4000) ok files=[wal-2:8192:64056363625:460b6da066521cce] w=9 r=35 nw=9 nr=35 er=0 gc=0/0 trim=0 clock=87990909075 df=2/4094/1/6/8192 replay=[fresh=10:ec15c978 entry=X after=10:9fa6cb58]\n\
23 PutBuffered(\"b4\", 4000) ok files=[wal-2:8192:64056363625:460b6da066521cce] w=9 r=37 nw=9 nr=37 er=0 gc=0/0 trim=0 clock=92689818165 df=2/4094/1/6/8192 replay=[fresh=10:ec15c978 entry=X after=10:9fa6cb58]\n\
24 PutBuffered(\"b5\", 4000) ok files=[wal-2:8192:64056363625:460b6da066521cce] w=9 r=39 nw=9 nr=39 er=0 gc=0/0 trim=0 clock=97388727255 df=2/4094/1/6/8192 replay=[fresh=10:ec15c978 entry=X after=10:9fa6cb58]\n\
25 PutBuffered(\"b6\", 4000) ok files=[wal-2:8192:64056363625:460b6da066521cce] w=9 r=41 nw=9 nr=41 er=0 gc=0/0 trim=0 clock=102087636345 df=2/4094/1/6/8192 replay=[fresh=10:ec15c978 entry=X after=10:9fa6cb58]\n\
26 PutBuffered(\"b7\", 4000) ok files=[wal-2:8192:64056363625:460b6da066521cce] w=9 r=43 nw=9 nr=43 er=0 gc=0/0 trim=0 clock=106786545435 df=2/4094/1/6/8192 replay=[fresh=10:ec15c978 entry=X after=10:9fa6cb58]\n\
27 PutBuffered(\"b8\", 4000) ok files=[wal-2:8192:64056363625:460b6da066521cce] w=9 r=45 nw=9 nr=45 er=0 gc=0/0 trim=0 clock=111485454525 df=2/4094/1/6/8192 replay=[fresh=10:ec15c978 entry=X after=10:9fa6cb58]\n\
28 PutBuffered(\"b9\", 4000) ok files=[wal-2:8192:64056363625:460b6da066521cce] w=9 r=47 nw=9 nr=47 er=0 gc=0/0 trim=0 clock=116184363615 df=2/4094/1/6/8192 replay=[fresh=10:ec15c978 entry=X after=10:9fa6cb58]\n\
29 DeleteBuffered(\"b3\") ok files=[wal-2:8192:64056363625:460b6da066521cce] w=9 r=49 nw=9 nr=49 er=0 gc=0/0 trim=0 clock=120883272705 df=2/4094/1/6/8192 replay=[fresh=10:ec15c978 entry=X after=10:9fa6cb58]\n\
30 SyncBatched { queued: true, wait: false } ok files=[wal-2:49152:122883272705:d1ca4f608451f83c] w=19 r=61 nw=19 nr=61 er=0 gc=0/0 trim=0 clock=129380727245 df=12/4084/1/12/49152 replay=[fresh=10:ec15c978 entry=X after=10:9fa6cb58 b0=4000:4f929485 b1=4000:63e0a825 b2=4000:4d7a4fb5 b3=4000:4599bf65 b4=4000:45220ce5 b5=4000:618cc645 b6=4000:c21fe315 b7=4000:67336305 b8=4000:d4716045 b9=4000:eb839ec5 b3=X]\n\
31 PutBuffered(\"c0\", 10) ok files=[wal-2:49152:122883272705:d1ca4f608451f83c] w=19 r=73 nw=19 nr=73 er=0 gc=0/0 trim=0 clock=136838181785 df=12/4084/1/12/49152 replay=[fresh=10:ec15c978 entry=X after=10:9fa6cb58 b0=4000:4f929485 b1=4000:63e0a825 b2=4000:4d7a4fb5 b3=4000:4599bf65 b4=4000:45220ce5 b5=4000:618cc645 b6=4000:c21fe315 b7=4000:67336305 b8=4000:d4716045 b9=4000:eb839ec5 b3=X]\n\
32 PutBuffered(\"c1\", 9000) ok files=[wal-2:49152:122883272705:d1ca4f608451f83c] w=19 r=85 nw=19 nr=85 er=0 gc=0/0 trim=0 clock=144295636325 df=12/4084/1/12/49152 replay=[fresh=10:ec15c978 entry=X after=10:9fa6cb58 b0=4000:4f929485 b1=4000:63e0a825 b2=4000:4d7a4fb5 b3=4000:4599bf65 b4=4000:45220ce5 b5=4000:618cc645 b6=4000:c21fe315 b7=4000:67336305 b8=4000:d4716045 b9=4000:eb839ec5 b3=X]\n\
33 SyncBatched { queued: true, wait: true } ok files=[wal-2:61440:144895636325:f391ea84ea0e4bc7] w=22 r=100 nw=22 nr=100 er=0 gc=0/0 trim=0 clock=154833454500 df=15/4081/1/15/61440 replay=[fresh=10:ec15c978 entry=X after=10:9fa6cb58 b0=4000:4f929485 b1=4000:63e0a825 b2=4000:4d7a4fb5 b3=4000:4599bf65 b4=4000:45220ce5 b5=4000:618cc645 b6=4000:c21fe315 b7=4000:67336305 b8=4000:d4716045 b9=4000:eb839ec5 b3=X c0=10:9a2dee0c c1=9000:eba013a9]\n\
34 PutBuffered(\"d0\", 5000) ok files=[wal-2:61440:144895636325:f391ea84ea0e4bc7] w=22 r=115 nw=22 nr=115 er=0 gc=0/0 trim=0 clock=164731272675 df=15/4081/1/15/61440 replay=[fresh=10:ec15c978 entry=X after=10:9fa6cb58 b0=4000:4f929485 b1=4000:63e0a825 b2=4000:4d7a4fb5 b3=4000:4599bf65 b4=4000:45220ce5 b5=4000:618cc645 b6=4000:c21fe315 b7=4000:67336305 b8=4000:d4716045 b9=4000:eb839ec5 b3=X c0=10:9a2dee0c c1=9000:eba013a9]\n\
35 DeleteBuffered(\"c0\") ok files=[wal-2:61440:144895636325:f391ea84ea0e4bc7] w=22 r=130 nw=22 nr=130 er=0 gc=0/0 trim=0 clock=174629090850 df=15/4081/1/15/61440 replay=[fresh=10:ec15c978 entry=X after=10:9fa6cb58 b0=4000:4f929485 b1=4000:63e0a825 b2=4000:4d7a4fb5 b3=4000:4599bf65 b4=4000:45220ce5 b5=4000:618cc645 b6=4000:c21fe315 b7=4000:67336305 b8=4000:d4716045 b9=4000:eb839ec5 b3=X c0=10:9a2dee0c c1=9000:eba013a9]\n\
36 SyncBatched { queued: false, wait: true } ok files=[wal-2:69632:175029090850:41942caf4bef5924] w=24 r=147 nw=24 nr=147 er=0 gc=0/0 trim=0 clock=187561818115 df=17/4079/1/17/69632 replay=[fresh=10:ec15c978 entry=X after=10:9fa6cb58 b0=4000:4f929485 b1=4000:63e0a825 b2=4000:4d7a4fb5 b3=4000:4599bf65 b4=4000:45220ce5 b5=4000:618cc645 b6=4000:c21fe315 b7=4000:67336305 b8=4000:d4716045 b9=4000:eb839ec5 b3=X c0=10:9a2dee0c c1=9000:eba013a9 d0=5000:ac88e355 c0=X]\n\
37 Rotate ok files=[wal-2:0:175029090850:cbf29ce484222325] w=24 r=147 nw=24 nr=147 er=0 gc=0/0 trim=0 clock=187561818115 df=17/4079/1/17/0 replay=[]\n\
38 Put(\"kept\", 300) ok files=[wal-2:0:175029090850:cbf29ce484222325] w=24 r=147 nw=24 nr=147 er=0 gc=0/0 trim=0 clock=187561818115 df=17/4079/1/17/0 replay=[]\n\
39 Hog(1) ok files=[wal-2:0:175029090850:cbf29ce484222325] w=4102 r=147 nw=4102 nr=147 er=0 gc=0/0 trim=0 clock=187561818115 df=4095/1/2/4095/16703488 replay=[]\n\
40 Put(\"huge\", 100000) ERR(filesystem error: no space left on device (requested 1 pages, 0 free)) files=[wal-2:73728:1012841818115:f8ad0f9672150b50] w=4120 r=165 nw=4120 nr=165 er=0 gc=0/0 trim=0 clock=1027923999925 df=4096/0/2/4096/16777216 replay=[<torn>]\n\
41 Unhog ok files=[wal-2:73728:1012841818115:f8ad0f9672150b50] w=4120 r=183 nw=4120 nr=183 er=0 gc=0/0 trim=0 clock=1042566181735 df=18/4078/1/4096/73728 replay=[<torn>]\n\
42 Sync(true) ok files=[wal-2:102400:1043966181735:f612976ac7fda700] w=4127 r=208 nw=4127 nr=208 er=0 gc=0/0 trim=0 clock=1061230545360 df=25/4071/1/4096/102400 replay=[kept=300:3854a1d4 huge=100000:92f498b0]\n\
43 Rotate ok files=[wal-2:0:1043966181735:cbf29ce484222325] w=4127 r=208 nw=4127 nr=208 er=0 gc=0/0 trim=0 clock=1061230545360 df=25/4071/1/4096/0 replay=[]\n\
";
const WAL_CHURN: &str = "\
0 Put(\"tiny\", 10) ok files=[wal-0:0:0:cbf29ce484222325] w=0 r=0 nw=0 nr=0 er=0 gc=0/0 trim=0 clock=0 df=0/4096/1/0/0 replay=[]\n\
1 Put(\"entry\", 4000) ok files=[wal-0:0:0:cbf29ce484222325] w=0 r=0 nw=0 nr=0 er=0 gc=0/0 trim=0 clock=0 df=0/4096/1/0/0 replay=[]\n\
2 Put(\"pages\", 9000) ok files=[wal-0:12288:1480000000:12cb1e322cc861f1] w=3 r=3 nw=3 nr=3 er=0 gc=0/0 trim=0 clock=8968363635 df=3/4093/1/3/12288 replay=[<torn>]\n\
3 Delete(\"tiny\") ok files=[wal-0:12288:1480000000:12cb1e322cc861f1] w=3 r=6 nw=3 nr=6 er=0 gc=0/0 trim=0 clock=16016727270 df=3/4093/1/3/12288 replay=[<torn>]\n\
4 Sync(false) ok files=[wal-0:16384:16216727270:1d28fc899c5e4b8f] w=4 r=10 nw=4 nr=10 er=0 gc=0/0 trim=0 clock=26054545450 df=4/4092/1/4/16384 replay=[tiny=10:9d330638 entry=4000:0e139e75 pages=9000:9bc70715 tiny=X]\n\
5 Put(\"tail\", 10) ok files=[wal-0:16384:16216727270:1d28fc899c5e4b8f] w=4 r=14 nw=4 nr=14 er=0 gc=0/0 trim=0 clock=35452363630 df=4/4092/1/4/16384 replay=[tiny=10:9d330638 entry=4000:0e139e75 pages=9000:9bc70715 tiny=X]\n\
6 Sync(true) ok files=[wal-0:20480:35652363630:630f21fae37327d5] w=5 r=19 nw=5 nr=19 er=0 gc=0/0 trim=0 clock=47839636355 df=5/4091/1/5/20480 replay=[tiny=10:9d330638 entry=4000:0e139e75 pages=9000:9bc70715 tiny=X tail=10:c9d468b8]\n\
7 Rotate ok files=[wal-1:0:0:cbf29ce484222325] w=5 r=19 nw=5 nr=19 er=0 gc=0/0 trim=0 clock=47839636355 df=0/4096/1/5/0 replay=[]\n\
8 Put(\"entry\", 4000) ok files=[wal-1:0:0:cbf29ce484222325] w=5 r=19 nw=5 nr=19 er=0 gc=0/0 trim=0 clock=47839636355 df=0/4096/1/5/0 replay=[]\n\
9 Put(\"entry2\", 4000) ok files=[wal-1:4096:48039636355:7cbb4937ffa2a3e2] w=6 r=20 nw=6 nr=20 er=0 gc=0/0 trim=0 clock=50829090900 df=1/4095/1/5/4096 replay=[<torn>]\n\
10 Sync(false) ok files=[wal-1:8192:51029090900:ed36c929e439f876] w=7 r=22 nw=7 nr=22 er=0 gc=0/0 trim=0 clock=56167999990 df=2/4094/1/5/8192 replay=[entry=4000:6a06f6c5 entry2=4000:61a159b5]\n\
11 RotateDeferred ok files=[wal-1:8192:51029090900:ed36c929e439f876 wal-2:0:0:cbf29ce484222325] w=7 r=22 nw=7 nr=22 er=0 gc=0/0 trim=0 clock=56167999990 df=2/4094/2/5/8192 replay=[<2 logs>]\n\
12 Put(\"fresh\", 10) ok files=[wal-1:8192:51029090900:ed36c929e439f876 wal-2:0:0:cbf29ce484222325] w=7 r=22 nw=7 nr=22 er=0 gc=0/0 trim=0 clock=56167999990 df=2/4094/2/5/8192 replay=[<2 logs>]\n\
13 Delete(\"entry\") ok files=[wal-1:8192:51029090900:ed36c929e439f876 wal-2:0:0:cbf29ce484222325] w=7 r=22 nw=7 nr=22 er=0 gc=0/0 trim=0 clock=56167999990 df=2/4094/2/5/8192 replay=[<2 logs>]\n\
14 Sync(true) ok files=[wal-1:8192:51029090900:ed36c929e439f876 wal-2:4096:56367999990:1ef813fb7873fb2d] w=8 r=22 nw=8 nr=22 er=0 gc=0/0 trim=0 clock=56807999990 df=3/4093/2/5/12288 replay=[<2 logs>]\n\
15 ReleaseDeferred ok files=[wal-2:4096:56367999990:1ef813fb7873fb2d] w=8 r=23 nw=8 nr=23 er=0 gc=0/0 trim=0 clock=59157454535 df=1/4095/1/5/4096 replay=[fresh=10:ec15c978 entry=X]\n\
16 Reopen ok files=[wal-2:4096:56367999990:1ef813fb7873fb2d] w=8 r=24 nw=8 nr=24 er=0 gc=0/0 trim=0 clock=61506909080 df=1/4095/1/5/4096 replay=[fresh=10:ec15c978 entry=X]\n\
17 Put(\"after\", 10) ok files=[wal-2:4096:56367999990:1ef813fb7873fb2d] w=8 r=25 nw=8 nr=25 er=0 gc=0/0 trim=0 clock=63856363625 df=1/4095/1/5/4096 replay=[fresh=10:ec15c978 entry=X]\n\
18 Sync(true) ok files=[wal-2:8192:64056363625:460b6da066521cce] w=9 r=27 nw=9 nr=27 er=0 gc=0/0 trim=0 clock=69195272715 df=2/4094/1/5/8192 replay=[fresh=10:ec15c978 entry=X after=10:9fa6cb58]\n\
19 PutBuffered(\"b0\", 4000) ok files=[wal-2:8192:64056363625:460b6da066521cce] w=9 r=29 nw=9 nr=29 er=0 gc=0/0 trim=0 clock=73894181805 df=2/4094/1/5/8192 replay=[fresh=10:ec15c978 entry=X after=10:9fa6cb58]\n\
20 PutBuffered(\"b1\", 4000) ok files=[wal-2:8192:64056363625:460b6da066521cce] w=9 r=31 nw=9 nr=31 er=0 gc=0/0 trim=0 clock=78593090895 df=2/4094/1/5/8192 replay=[fresh=10:ec15c978 entry=X after=10:9fa6cb58]\n\
21 PutBuffered(\"b2\", 4000) ok files=[wal-2:8192:64056363625:460b6da066521cce] w=9 r=33 nw=9 nr=33 er=0 gc=0/0 trim=0 clock=83291999985 df=2/4094/1/5/8192 replay=[fresh=10:ec15c978 entry=X after=10:9fa6cb58]\n\
22 PutBuffered(\"b3\", 4000) ok files=[wal-2:8192:64056363625:460b6da066521cce] w=9 r=35 nw=9 nr=35 er=0 gc=0/0 trim=0 clock=87990909075 df=2/4094/1/5/8192 replay=[fresh=10:ec15c978 entry=X after=10:9fa6cb58]\n\
23 PutBuffered(\"b4\", 4000) ok files=[wal-2:8192:64056363625:460b6da066521cce] w=9 r=37 nw=9 nr=37 er=0 gc=0/0 trim=0 clock=92689818165 df=2/4094/1/5/8192 replay=[fresh=10:ec15c978 entry=X after=10:9fa6cb58]\n\
24 PutBuffered(\"b5\", 4000) ok files=[wal-2:8192:64056363625:460b6da066521cce] w=9 r=39 nw=9 nr=39 er=0 gc=0/0 trim=0 clock=97388727255 df=2/4094/1/5/8192 replay=[fresh=10:ec15c978 entry=X after=10:9fa6cb58]\n\
25 PutBuffered(\"b6\", 4000) ok files=[wal-2:8192:64056363625:460b6da066521cce] w=9 r=41 nw=9 nr=41 er=0 gc=0/0 trim=0 clock=102087636345 df=2/4094/1/5/8192 replay=[fresh=10:ec15c978 entry=X after=10:9fa6cb58]\n\
26 PutBuffered(\"b7\", 4000) ok files=[wal-2:8192:64056363625:460b6da066521cce] w=9 r=43 nw=9 nr=43 er=0 gc=0/0 trim=0 clock=106786545435 df=2/4094/1/5/8192 replay=[fresh=10:ec15c978 entry=X after=10:9fa6cb58]\n\
27 PutBuffered(\"b8\", 4000) ok files=[wal-2:8192:64056363625:460b6da066521cce] w=9 r=45 nw=9 nr=45 er=0 gc=0/0 trim=0 clock=111485454525 df=2/4094/1/5/8192 replay=[fresh=10:ec15c978 entry=X after=10:9fa6cb58]\n\
28 PutBuffered(\"b9\", 4000) ok files=[wal-2:8192:64056363625:460b6da066521cce] w=9 r=47 nw=9 nr=47 er=0 gc=0/0 trim=0 clock=116184363615 df=2/4094/1/5/8192 replay=[fresh=10:ec15c978 entry=X after=10:9fa6cb58]\n\
29 DeleteBuffered(\"b3\") ok files=[wal-2:8192:64056363625:460b6da066521cce] w=9 r=49 nw=9 nr=49 er=0 gc=0/0 trim=0 clock=120883272705 df=2/4094/1/5/8192 replay=[fresh=10:ec15c978 entry=X after=10:9fa6cb58]\n\
30 SyncBatched { queued: true, wait: false } ok files=[wal-2:49152:122883272705:d1ca4f608451f83c] w=19 r=61 nw=19 nr=61 er=0 gc=0/0 trim=0 clock=129380727245 df=12/4084/1/12/49152 replay=[fresh=10:ec15c978 entry=X after=10:9fa6cb58 b0=4000:4f929485 b1=4000:63e0a825 b2=4000:4d7a4fb5 b3=4000:4599bf65 b4=4000:45220ce5 b5=4000:618cc645 b6=4000:c21fe315 b7=4000:67336305 b8=4000:d4716045 b9=4000:eb839ec5 b3=X]\n\
31 PutBuffered(\"c0\", 10) ok files=[wal-2:49152:122883272705:d1ca4f608451f83c] w=19 r=73 nw=19 nr=73 er=0 gc=0/0 trim=0 clock=136838181785 df=12/4084/1/12/49152 replay=[fresh=10:ec15c978 entry=X after=10:9fa6cb58 b0=4000:4f929485 b1=4000:63e0a825 b2=4000:4d7a4fb5 b3=4000:4599bf65 b4=4000:45220ce5 b5=4000:618cc645 b6=4000:c21fe315 b7=4000:67336305 b8=4000:d4716045 b9=4000:eb839ec5 b3=X]\n\
32 PutBuffered(\"c1\", 9000) ok files=[wal-2:49152:122883272705:d1ca4f608451f83c] w=19 r=85 nw=19 nr=85 er=0 gc=0/0 trim=0 clock=144295636325 df=12/4084/1/12/49152 replay=[fresh=10:ec15c978 entry=X after=10:9fa6cb58 b0=4000:4f929485 b1=4000:63e0a825 b2=4000:4d7a4fb5 b3=4000:4599bf65 b4=4000:45220ce5 b5=4000:618cc645 b6=4000:c21fe315 b7=4000:67336305 b8=4000:d4716045 b9=4000:eb839ec5 b3=X]\n\
33 SyncBatched { queued: true, wait: true } ok files=[wal-2:61440:144895636325:f391ea84ea0e4bc7] w=22 r=100 nw=22 nr=100 er=0 gc=0/0 trim=0 clock=154833454500 df=15/4081/1/15/61440 replay=[fresh=10:ec15c978 entry=X after=10:9fa6cb58 b0=4000:4f929485 b1=4000:63e0a825 b2=4000:4d7a4fb5 b3=4000:4599bf65 b4=4000:45220ce5 b5=4000:618cc645 b6=4000:c21fe315 b7=4000:67336305 b8=4000:d4716045 b9=4000:eb839ec5 b3=X c0=10:9a2dee0c c1=9000:eba013a9]\n\
34 PutBuffered(\"d0\", 5000) ok files=[wal-2:61440:144895636325:f391ea84ea0e4bc7] w=22 r=115 nw=22 nr=115 er=0 gc=0/0 trim=0 clock=164731272675 df=15/4081/1/15/61440 replay=[fresh=10:ec15c978 entry=X after=10:9fa6cb58 b0=4000:4f929485 b1=4000:63e0a825 b2=4000:4d7a4fb5 b3=4000:4599bf65 b4=4000:45220ce5 b5=4000:618cc645 b6=4000:c21fe315 b7=4000:67336305 b8=4000:d4716045 b9=4000:eb839ec5 b3=X c0=10:9a2dee0c c1=9000:eba013a9]\n\
35 DeleteBuffered(\"c0\") ok files=[wal-2:61440:144895636325:f391ea84ea0e4bc7] w=22 r=130 nw=22 nr=130 er=0 gc=0/0 trim=0 clock=174629090850 df=15/4081/1/15/61440 replay=[fresh=10:ec15c978 entry=X after=10:9fa6cb58 b0=4000:4f929485 b1=4000:63e0a825 b2=4000:4d7a4fb5 b3=4000:4599bf65 b4=4000:45220ce5 b5=4000:618cc645 b6=4000:c21fe315 b7=4000:67336305 b8=4000:d4716045 b9=4000:eb839ec5 b3=X c0=10:9a2dee0c c1=9000:eba013a9]\n\
36 SyncBatched { queued: false, wait: true } ok files=[wal-2:69632:175029090850:41942caf4bef5924] w=24 r=147 nw=24 nr=147 er=0 gc=0/0 trim=0 clock=187561818115 df=17/4079/1/17/69632 replay=[fresh=10:ec15c978 entry=X after=10:9fa6cb58 b0=4000:4f929485 b1=4000:63e0a825 b2=4000:4d7a4fb5 b3=4000:4599bf65 b4=4000:45220ce5 b5=4000:618cc645 b6=4000:c21fe315 b7=4000:67336305 b8=4000:d4716045 b9=4000:eb839ec5 b3=X c0=10:9a2dee0c c1=9000:eba013a9 d0=5000:ac88e355 c0=X]\n\
37 Rotate ok files=[wal-3:0:0:cbf29ce484222325] w=24 r=147 nw=24 nr=147 er=0 gc=0/0 trim=0 clock=187561818115 df=0/4096/1/17/0 replay=[]\n\
38 Put(\"kept\", 300) ok files=[wal-3:0:0:cbf29ce484222325] w=24 r=147 nw=24 nr=147 er=0 gc=0/0 trim=0 clock=187561818115 df=0/4096/1/17/0 replay=[]\n\
39 Hog(1) ok files=[wal-3:0:0:cbf29ce484222325] w=4119 r=147 nw=4119 nr=147 er=0 gc=0/0 trim=0 clock=187561818115 df=4095/1/2/4095/16773120 replay=[]\n\
40 Put(\"huge\", 100000) ERR(filesystem error: no space left on device (requested 1 pages, 0 free)) files=[wal-3:4096:1006761818115:ea67b7cfbc727148] w=4120 r=148 nw=4120 nr=148 er=0 gc=0/0 trim=0 clock=1008151272660 df=4096/0/2/4096/16777216 replay=[<torn>]\n\
41 Unhog ok files=[wal-3:4096:1006761818115:ea67b7cfbc727148] w=4120 r=149 nw=4120 nr=149 er=0 gc=0/0 trim=0 clock=1010500727205 df=1/4095/1/4096/4096 replay=[<torn>]\n\
42 Sync(true) ok files=[wal-3:102400:1015300727205:f612976ac7fda700] w=4144 r=174 nw=4144 nr=174 er=0 gc=0/0 trim=0 clock=1021045090830 df=25/4071/1/4096/102400 replay=[kept=300:3854a1d4 huge=100000:92f498b0]\n\
43 Rotate ok files=[wal-4:0:0:cbf29ce484222325] w=4144 r=174 nw=4144 nr=174 er=0 gc=0/0 trim=0 clock=1021045090830 df=0/4096/1/4096/0 replay=[]\n\
";

#[test]
fn journal_script() {
    assert_parity(&run("journal", JOURNAL_SCRIPT, true), JOURNAL);
}

#[test]
fn wal_script_recycling() {
    assert_parity(&run("wal", WAL_SCRIPT, true), WAL_RECYCLE);
}

#[test]
fn wal_script_churning() {
    assert_parity(&run("wal", WAL_SCRIPT, false), WAL_CHURN);
}

/// The prefix is a name and nothing else: the WAL's script under the
/// journal's prefix renders the WAL's constants with the files renamed.
#[test]
fn the_prefix_only_names_the_files() {
    for (recycle, expected) in [(true, WAL_RECYCLE), (false, WAL_CHURN)] {
        assert_parity(
            &run("journal", WAL_SCRIPT, recycle),
            &expected.replace("wal-", "journal-"),
        );
    }
}
