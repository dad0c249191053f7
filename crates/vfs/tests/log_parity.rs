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
//! tail is the crash model's business (ROADMAP item 4), not this
//! suite's.

use ptsbench_ssd::{DeviceConfig, DeviceProfile, Ssd};
use ptsbench_testkit::{assert_golden, fnv64};
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
        Put(k, _) => log.log(k.as_bytes(), Some(value)),
        Delete(k) => log.log(k.as_bytes(), None),
        Sync(wait) => log.sync(wait),
        Rotate => log.rotate(),
        RotateDeferred => log.rotate_deferred().map(drop),
        PutBuffered(k, _) => {
            log.log_buffered(k.as_bytes(), Some(value));
            Ok(())
        }
        DeleteBuffered(k) => {
            log.log_buffered(k.as_bytes(), None);
            Ok(())
        }
        SyncBatched { queued, wait } => log.sync_batched(queued.then_some(queue), wait),
        ReleaseDeferred | Hog(_) | Unhog | Reopen => unreachable!("not a log call"),
    }
    // As both engines word the filesystem's error.
    .map_err(|e| format!("filesystem error: {e}"))
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
            let bytes = fnv64(&v.appender(id, 0).expect("check out").buf);
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
                    fnv64(value) as u32
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

#[test]
fn journal_script() {
    let got = run("journal", JOURNAL_SCRIPT, true);
    assert_golden("parity/vfs/log_parity/JOURNAL.txt", &got);
}

#[test]
fn wal_script_recycling() {
    let got = run("wal", WAL_SCRIPT, true);
    assert_golden("parity/vfs/log_parity/WAL_RECYCLE.txt", &got);
}

#[test]
fn wal_script_churning() {
    let got = run("wal", WAL_SCRIPT, false);
    assert_golden("parity/vfs/log_parity/WAL_CHURN.txt", &got);
}

/// The prefix is a name and nothing else: the WAL's script under the
/// journal's prefix renders the WAL's recorded runs with the files renamed.
#[test]
fn the_prefix_only_names_the_files() {
    let renamed = |recycle| {
        let actual = run("journal", WAL_SCRIPT, recycle);
        assert!(!actual.contains("wal-"), "{actual}");
        actual.replace("journal-", "wal-")
    };
    assert_golden("parity/vfs/log_parity/WAL_RECYCLE.txt", &renamed(true));
    assert_golden("parity/vfs/log_parity/WAL_CHURN.txt", &renamed(false));
}
