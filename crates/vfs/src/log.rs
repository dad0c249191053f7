//! The record log both trees write ahead of their updates: the LSM's
//! write-ahead log (`wal-<n>`) and the B+Tree's journal (`journal-0`).
//!
//! Each update is appended as a length-prefixed record. Records are
//! buffered and written to the file in whole pages (direct-I/O style);
//! the buffer also flushes on [`RecordLog::sync`], padded with zeroes to
//! a page boundary. When its records are no longer needed — the LSM
//! flushed the owning memtable, the B+Tree checkpointed — the log is
//! *rotated*: recycled in place (truncated keeping its extents, so the
//! same LBAs serve successive logs — WiredTiger's preallocated journal,
//! RocksDB's `recycle_log_file_num`) or deleted and recreated as
//! `<prefix>-<n+1>` — the file churn that, together with SSTable churn,
//! makes an LSM touch the entire LBA space of its partition.
//!
//! Recovery replays **every** `<prefix>-<n>` on disk in sequence order
//! ([`RecordLog::replay`]): a deferred rotation
//! ([`RecordLog::rotate_deferred`]) leaves the frozen records in the
//! older file until their flush installs.

use crate::{FileId, SharedIoQueue, StoreError, Vfs};

/// Record tag for a put.
const TAG_PUT: u8 = 1;
/// Record tag for a delete.
const TAG_DELETE: u8 = 2;
/// Tag, key length, value length.
const HEADER_BYTES: usize = 9;

/// A record recovered from a log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogRecord {
    /// A logged insert/overwrite.
    Put(Vec<u8>, Vec<u8>),
    /// A logged deletion.
    Delete(Vec<u8>),
}

/// An append-only log of put/delete records in `<prefix>-<n>` files.
#[derive(Debug)]
pub struct RecordLog {
    vfs: Vfs,
    prefix: &'static str,
    file: FileId,
    /// Name of the live file. A recycling rotation advances `seq` but
    /// keeps the file, so the name is not always `<prefix>-<seq>`.
    name: String,
    seq: u64,
    buffer: Vec<u8>,
    page_size: usize,
    /// Recycle the log file in place instead of deleting it.
    recycle: bool,
}

impl RecordLog {
    /// Creates `<prefix>-0`. With `recycle` the log file is truncated in
    /// place on rotation (stable LBAs); without it each rotation deletes
    /// the log and creates a fresh file (RocksDB's default behaviour).
    pub fn create(vfs: Vfs, prefix: &'static str, recycle: bool) -> crate::Result<Self> {
        let name = format!("{prefix}-0");
        Ok(Self {
            file: vfs.create(&name)?,
            page_size: vfs.page_size() as usize,
            vfs,
            prefix,
            name,
            seq: 0,
            buffer: Vec::new(),
            recycle,
        })
    }

    /// Opens the newest existing log for appending (recovery path), or
    /// creates `<prefix>-0` if none exists.
    pub fn open_or_create(vfs: Vfs, prefix: &'static str, recycle: bool) -> crate::Result<Self> {
        let Some((seq, name)) = Self::files(&vfs, prefix).pop() else {
            return Self::create(vfs, prefix, recycle);
        };
        Ok(Self {
            file: vfs.open(&name)?,
            page_size: vfs.page_size() as usize,
            vfs,
            prefix,
            name,
            seq,
            buffer: Vec::new(),
            recycle,
        })
    }

    /// Every `<prefix>-<n>` on the filesystem, oldest first.
    fn files(vfs: &Vfs, prefix: &str) -> Vec<(u64, String)> {
        let mut logs: Vec<(u64, String)> = vfs
            .list()
            .into_iter()
            .filter_map(|n| {
                let seq = n.strip_prefix(prefix)?.strip_prefix('-')?.parse().ok()?;
                Some((seq, n))
            })
            .collect();
        logs.sort_unstable();
        logs
    }

    /// Names of the logs older than the newest one, oldest first: after
    /// a crash, the files a deferred rotation left for a flush that
    /// never installed. Whoever recovers from them releases them once
    /// their records are durable elsewhere.
    pub fn stale(vfs: &Vfs, prefix: &str) -> Vec<String> {
        let mut logs = Self::files(vfs, prefix);
        logs.pop();
        logs.into_iter().map(|(_, name)| name).collect()
    }

    /// Appends a record: a put of `value`, or a delete when `value` is
    /// `None`. Whole pages are written as they fill.
    pub fn log(&mut self, key: &[u8], value: Option<&[u8]>) -> crate::Result<()> {
        self.log_buffered(key, value);
        self.write_full_pages()
    }

    /// Buffers a record (see [`RecordLog::log`]) *without* eagerly
    /// writing filled pages — the group-commit path: a batch of records
    /// accumulates here and is written in one
    /// [`RecordLog::sync_batched`] call, so the batch's page appends
    /// overlap on the submission queue and share one fsync.
    pub fn log_buffered(&mut self, key: &[u8], value: Option<&[u8]>) {
        let (tag, value) = match value {
            Some(value) => (TAG_PUT, value),
            None => (TAG_DELETE, &[][..]),
        };
        self.buffer.push(tag);
        self.buffer
            .extend_from_slice(&(key.len() as u32).to_le_bytes());
        self.buffer
            .extend_from_slice(&(value.len() as u32).to_le_bytes());
        self.buffer.extend_from_slice(key);
        self.buffer.extend_from_slice(value);
    }

    /// Writes out whole pages as they fill. A page leaves the buffer
    /// only once the filesystem took it: a failed append (out of space)
    /// keeps the record for the next attempt.
    fn write_full_pages(&mut self) -> crate::Result<()> {
        while self.buffer.len() >= self.page_size {
            self.vfs.append(self.file, &self.buffer[..self.page_size])?;
            self.buffer.drain(..self.page_size);
        }
        Ok(())
    }

    /// Flushes buffered bytes (padding the final partial page) and
    /// optionally blocks until the log is durable.
    pub fn sync(&mut self, wait_durable: bool) -> crate::Result<()> {
        self.sync_batched(None, wait_durable)
    }

    /// Group-commit sync: drains buffered pages through the submission
    /// queue in one batched append (run writes overlap up to the queue
    /// depth, instead of each page charging its base latency serially)
    /// and coalesces the batch into at most one durability wait.
    /// Without a queue the append is the classic blocking one.
    pub fn sync_batched(
        &mut self,
        queue: Option<&SharedIoQueue>,
        wait_durable: bool,
    ) -> crate::Result<()> {
        if !self.buffer.is_empty() {
            // Pad to a page multiple: the eager path keeps the buffer
            // under a page, but group-committed batches — and what a
            // failed append left behind — can span many.
            let mut pages = std::mem::take(&mut self.buffer);
            pages.resize(pages.len().next_multiple_of(self.page_size), 0);
            match queue {
                Some(queue) => self
                    .vfs
                    .append_async(&mut queue.lock(), self.file, &pages)?,
                None => self.vfs.append(self.file, &pages)?,
            }
        }
        if wait_durable {
            self.vfs.fsync(self.file)?;
        }
        Ok(())
    }

    /// Rotates to a fresh `<prefix>-<n+1>` file but **keeps the old log
    /// on disk**, returning its name. Used by background-maintenance
    /// mode: the frozen memtable's records must survive until its flush
    /// installs, at which point the caller deletes the returned file.
    /// Always churns files (never recycles in place), because truncation
    /// would destroy the frozen records.
    pub fn rotate_deferred(&mut self) -> crate::Result<String> {
        self.seq += 1;
        let name = format!("{}-{}", self.prefix, self.seq);
        self.file = self.vfs.create(&name)?;
        self.buffer.clear();
        Ok(std::mem::replace(&mut self.name, name))
    }

    /// Rotates the log once its records are no longer needed: either
    /// recycled in place (truncate keeping extents) or deleted and
    /// recreated at a fresh location, depending on the recycle mode.
    pub fn rotate(&mut self) -> crate::Result<()> {
        if self.recycle {
            self.seq += 1;
            self.vfs.truncate(self.file, 0)?;
            self.buffer.clear();
        } else {
            let old = self.rotate_deferred()?;
            self.vfs.delete(&old)?;
        }
        Ok(())
    }

    /// Replays every record persisted in the `<prefix>-<n>` files, oldest
    /// file first, skipping sync padding. Buffered-but-unsynced records
    /// are, by definition, lost in a crash and do not appear here.
    pub fn replay(vfs: &Vfs, prefix: &str) -> Result<Vec<LogRecord>, StoreError> {
        let page = vfs.page_size() as usize;
        let mut out = Vec::new();
        for (_, name) in Self::files(vfs, prefix) {
            let file = vfs.open(&name)?;
            let size = vfs.size(file)? as usize;
            let buf = vfs.read_shared(file, 0, size)?;
            parse(&buf, page, &mut out)
                .map_err(|what| StoreError::Corruption(format!("{name}: {what}")))?;
        }
        Ok(out)
    }
}

/// Decodes one log file's records into `out`; `Err` says what is wrong
/// with it.
fn parse(buf: &[u8], page: usize, out: &mut Vec<LogRecord>) -> Result<(), String> {
    let length = |at: usize| u32::from_le_bytes(buf[at..at + 4].try_into().expect("4")) as usize;
    let mut pos = 0usize;
    while pos < buf.len() {
        match buf[pos] {
            // Sync padding: skip to the next page boundary.
            0 => pos = (pos / page + 1) * page,
            tag @ (TAG_PUT | TAG_DELETE) => {
                let key_start = pos + HEADER_BYTES;
                if key_start > buf.len() {
                    return Err("truncated record header".into());
                }
                let value_start = key_start + length(pos + 1);
                let end = value_start + length(pos + 5);
                if end > buf.len() {
                    return Err("truncated record payload".into());
                }
                let key = buf[key_start..value_start].to_vec();
                out.push(if tag == TAG_PUT {
                    LogRecord::Put(key, buf[value_start..end].to_vec())
                } else {
                    LogRecord::Delete(key)
                });
                pos = end;
            }
            other => return Err(format!("bad record tag {other}")),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{VfsError, VfsOptions};
    use ptsbench_ssd::{DeviceConfig, DeviceProfile, Ssd};

    fn vfs() -> Vfs {
        let ssd = Ssd::new(DeviceConfig::from_profile(DeviceProfile::ssd1(), 16 << 20));
        Vfs::whole_device(ssd.into_shared(), VfsOptions::default())
    }

    fn size(v: &Vfs, name: &str) -> u64 {
        v.size(v.open(name).expect("open")).expect("size")
    }

    #[test]
    fn appends_whole_pages() {
        let v = vfs();
        let mut w = RecordLog::create(v.clone(), "wal", true).expect("create");
        // Less than a page: nothing hits the fs yet.
        w.log(b"key", Some(&[0u8; 100])).expect("log");
        assert_eq!(size(&v, "wal-0"), 0);
        // Cross a page boundary.
        w.log(b"key2", Some(&[0u8; 8000])).expect("log");
        assert_eq!(size(&v, "wal-0"), 4096, "only whole pages are written");
    }

    #[test]
    fn sync_pads_final_page() {
        let v = vfs();
        let mut w = RecordLog::create(v.clone(), "wal", true).expect("create");
        w.log(b"k", Some(b"v")).expect("log");
        w.sync(true).expect("sync");
        assert_eq!(size(&v, "wal-0"), 4096);
    }

    #[test]
    fn rotation_without_recycle_churns_files() {
        let v = vfs();
        let mut w = RecordLog::create(v.clone(), "wal", false).expect("create");
        w.log(b"k", Some(&[1u8; 5000])).expect("log");
        w.sync(false).expect("sync");
        assert!(v.exists("wal-0"));
        w.rotate().expect("rotate");
        assert!(
            !v.exists("wal-0"),
            "non-recycled rotation deletes the old log"
        );
        assert!(v.exists("wal-1"));
        w.rotate().expect("rotate");
        assert!(v.exists("wal-2"));
    }

    #[test]
    fn rotation_recycles_in_place() {
        let v = vfs();
        let mut j = RecordLog::create(v.clone(), "journal", true).expect("create");
        j.log(b"k", Some(&[1u8; 5000])).expect("log");
        j.sync(false).expect("sync");
        let mapped = v.ssd().lock().mapped_pages();
        j.rotate().expect("rotate");
        assert_eq!(v.list(), ["journal-0"], "recycled, not replaced");
        assert_eq!(size(&v, "journal-0"), 0, "fresh log is empty");
        // Refilling the log reuses the same LBAs.
        j.log(b"k", Some(&[2u8; 5000])).expect("log");
        j.sync(false).expect("sync");
        assert_eq!(
            v.ssd().lock().mapped_pages(),
            mapped,
            "recycled log reuses LBAs"
        );
    }

    #[test]
    fn replays_every_log_in_sequence_order() {
        let v = vfs();
        let mut w = RecordLog::create(v.clone(), "wal", true).expect("create");
        w.log(b"frozen", Some(&[1u8; 3000])).expect("log");
        w.log(b"both", Some(b"old")).expect("log");
        w.sync(false).expect("sync");
        // A recycling rotation keeps `wal-0` under a higher sequence
        // number; the deferred one must still name the file it left.
        w.rotate().expect("rotate");
        w.log(b"frozen", Some(&[2u8; 3000])).expect("log");
        w.log(b"both", Some(b"old")).expect("log");
        w.sync(false).expect("sync");
        let old = w.rotate_deferred().expect("rotate");
        assert_eq!(old, "wal-0");
        assert!(v.exists("wal-0"), "old log survives the rotation");
        assert!(v.exists("wal-2"));
        assert_eq!(RecordLog::stale(&v, "wal"), ["wal-0"]);
        // New records land in the new log; replay reads old, then new.
        w.log(b"both", Some(b"new")).expect("log");
        w.sync(false).expect("sync");
        assert_eq!(
            RecordLog::replay(&v, "wal").expect("replay"),
            vec![
                LogRecord::Put(b"frozen".to_vec(), vec![2u8; 3000]),
                LogRecord::Put(b"both".to_vec(), b"old".to_vec()),
                LogRecord::Put(b"both".to_vec(), b"new".to_vec()),
            ]
        );
        assert!(RecordLog::replay(&v, "journal").expect("replay").is_empty());
        v.delete(&old).expect("delete at install");
        assert!(RecordLog::stale(&v, "wal").is_empty());
        // Reopening finds the newest log and appends to it.
        drop(w);
        let mut w = RecordLog::open_or_create(v.clone(), "wal", true).expect("open");
        w.log(b"both", None).expect("log");
        w.sync(false).expect("sync");
        assert_eq!(
            RecordLog::replay(&v, "wal").expect("replay"),
            vec![
                LogRecord::Put(b"both".to_vec(), b"new".to_vec()),
                LogRecord::Delete(b"both".to_vec()),
            ]
        );
    }

    #[test]
    fn batched_sync_matches_classic_bytes_and_replay() {
        let classic_vfs = vfs();
        let batched_vfs = vfs();
        let mut classic = RecordLog::create(classic_vfs.clone(), "wal", true).expect("create");
        let mut batched = RecordLog::create(batched_vfs.clone(), "wal", true).expect("create");
        let queue = batched_vfs.io_queue(8).into_shared();
        for i in 0..40u32 {
            let key = format!("k{i:04}").into_bytes();
            classic.log(&key, Some(&[i as u8; 400])).expect("log");
            batched.log_buffered(&key, Some(&[i as u8; 400]));
        }
        classic.sync(true).expect("sync");
        batched.sync_batched(Some(&queue), true).expect("sync");
        assert_eq!(size(&classic_vfs, "wal-0"), size(&batched_vfs, "wal-0"));
        assert_eq!(
            RecordLog::replay(&classic_vfs, "wal").expect("replay"),
            RecordLog::replay(&batched_vfs, "wal").expect("replay"),
            "group commit must not change recoverable records"
        );
    }

    #[test]
    fn failed_append_keeps_the_record_buffered() {
        let v = vfs();
        // Leave the log no room: one other file takes the whole device.
        let hog = v.create("hog").expect("create");
        let free = v.stats().free_pages as usize;
        v.append(hog, &vec![0u8; free * 4096]).expect("fill");
        let mut j = RecordLog::create(v.clone(), "journal", true).expect("create");
        let err = j.log(b"key", Some(&[7u8; 5000])).expect_err("no space");
        assert!(matches!(err, VfsError::NoSpace { .. }), "{err}");
        assert_eq!(size(&v, "journal-0"), 0);
        // Space comes back: the record that failed is written, whole —
        // all of its pages, not the first one only.
        v.delete("hog").expect("delete");
        j.sync(true).expect("sync");
        assert_eq!(size(&v, "journal-0"), 2 * 4096);
        assert_eq!(
            RecordLog::replay(&v, "journal").expect("replay"),
            vec![LogRecord::Put(b"key".to_vec(), vec![7u8; 5000])]
        );
    }

    #[test]
    fn a_file_that_is_not_records_and_padding_is_corruption() {
        let v = vfs();
        let mut w = RecordLog::create(v.clone(), "wal", true).expect("create");
        w.log(b"k", Some(&[3u8; 5000])).expect("log");
        // One page is on disk; the record's tail is still buffered.
        let torn = RecordLog::replay(&v, "wal").expect_err("torn record");
        assert!(
            matches!(&torn, StoreError::Corruption(what) if what.starts_with("wal-0: truncated")),
            "{torn:?}"
        );
        let stray = v.create("wal-7").expect("create");
        v.append(stray, &[9u8; 16]).expect("append");
        w.sync(false).expect("sync");
        let bad = RecordLog::replay(&v, "wal").expect_err("bad tag");
        assert_eq!(
            bad,
            StoreError::Corruption("wal-7: bad record tag 9".into())
        );
    }
}
