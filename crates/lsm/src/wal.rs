//! Write-ahead log.
//!
//! Each update is appended as a length-prefixed record. Records are
//! buffered and written to the file in whole pages (direct-I/O style);
//! the buffer also flushes on [`Wal::sync`]. When the owning memtable is
//! flushed the log is *rotated*: a fresh `wal-<n>` file is created and
//! the old one deleted — the file churn that, together with SSTable
//! churn, makes an LSM touch the entire LBA space of its partition.

use ptsbench_vfs::{FileId, SharedIoQueue, Vfs};

use crate::{LsmError, Result};

/// Record tag for a put.
const TAG_PUT: u8 = 1;
/// Record tag for a delete.
const TAG_DELETE: u8 = 2;

/// A record recovered from the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// A logged insert/overwrite.
    Put(Vec<u8>, Vec<u8>),
    /// A logged deletion.
    Delete(Vec<u8>),
}

/// The write-ahead log.
#[derive(Debug)]
pub struct Wal {
    vfs: Vfs,
    file: FileId,
    seq: u64,
    buffer: Vec<u8>,
    page_size: usize,
    /// Recycle the log file in place instead of deleting it.
    recycle: bool,
    /// Bytes handed to the filesystem over the log's lifetime.
    bytes_written: u64,
    /// Bytes of records appended (before page rounding).
    bytes_logged: u64,
}

impl Wal {
    /// Creates `wal-0`. With `recycle` the log file is truncated in
    /// place on rotation (stable LBAs); without it each rotation deletes
    /// the log and creates a fresh file (RocksDB's default behaviour).
    pub fn create(vfs: Vfs, recycle: bool) -> Result<Self> {
        let page_size = vfs.page_size() as usize;
        let file = vfs.create("wal-0")?;
        Ok(Self {
            vfs,
            file,
            seq: 0,
            buffer: Vec::new(),
            page_size,
            recycle,
            bytes_written: 0,
            bytes_logged: 0,
        })
    }

    /// Appends a put record.
    pub fn log_put(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        self.append_record(TAG_PUT, key, Some(value))
    }

    /// Appends a delete record.
    pub fn log_delete(&mut self, key: &[u8]) -> Result<()> {
        self.append_record(TAG_DELETE, key, None)
    }

    fn encode_record(&mut self, tag: u8, key: &[u8], value: Option<&[u8]>) {
        self.buffer.push(tag);
        self.buffer
            .extend_from_slice(&(key.len() as u32).to_le_bytes());
        let vlen = value.map_or(0, |v| v.len());
        self.buffer.extend_from_slice(&(vlen as u32).to_le_bytes());
        self.buffer.extend_from_slice(key);
        if let Some(v) = value {
            self.buffer.extend_from_slice(v);
        }
        self.bytes_logged += (1 + 8 + key.len() + vlen) as u64;
    }

    fn append_record(&mut self, tag: u8, key: &[u8], value: Option<&[u8]>) -> Result<()> {
        self.encode_record(tag, key, value);
        // Write out whole pages as they fill. A page leaves the buffer
        // only once the filesystem took it: a failed append (out of
        // space) keeps the record for the next attempt.
        while self.buffer.len() >= self.page_size {
            self.vfs.append(self.file, &self.buffer[..self.page_size])?;
            self.buffer.drain(..self.page_size);
            self.bytes_written += self.page_size as u64;
        }
        Ok(())
    }

    /// Flushes buffered bytes (padding the final partial page) and
    /// optionally blocks until the log is durable.
    pub fn sync(&mut self, wait_durable: bool) -> Result<()> {
        if !self.buffer.is_empty() {
            let mut page = std::mem::take(&mut self.buffer);
            // Pad to a page multiple: the eager path keeps the buffer
            // under a page, but group-committed batches can span many.
            let padded = page.len().div_ceil(self.page_size) * self.page_size;
            page.resize(padded, 0);
            self.vfs.append(self.file, &page)?;
            self.bytes_written += page.len() as u64;
        }
        if wait_durable {
            self.vfs.fsync(self.file)?;
        }
        Ok(())
    }

    /// Group-commit sync: drains buffered pages through the submission
    /// queue in one batched append (run writes overlap up to the queue
    /// depth, instead of each page charging its base latency serially)
    /// and coalesces the batch into at most one durability wait.
    /// Without a queue this degrades to the classic [`Wal::sync`].
    pub fn sync_batched(
        &mut self,
        queue: Option<&SharedIoQueue>,
        wait_durable: bool,
    ) -> Result<()> {
        let Some(queue) = queue else {
            return self.sync(wait_durable);
        };
        if !self.buffer.is_empty() {
            let mut pages = std::mem::take(&mut self.buffer);
            let padded = pages.len().div_ceil(self.page_size) * self.page_size;
            pages.resize(padded, 0);
            self.vfs
                .append_async(&mut queue.lock(), self.file, &pages)?;
            self.bytes_written += pages.len() as u64;
        }
        if wait_durable {
            self.vfs.fsync(self.file)?;
        }
        Ok(())
    }

    /// Buffers a record *without* eagerly writing filled pages — the
    /// group-commit path: a batch of records accumulates here and is
    /// written in one [`Wal::sync_batched`] call, so the batch's page
    /// appends overlap on the submission queue and share one fsync.
    pub fn log_buffered(&mut self, record: &WalRecord) {
        match record {
            WalRecord::Put(k, v) => self.encode_record(TAG_PUT, k, Some(v)),
            WalRecord::Delete(k) => self.encode_record(TAG_DELETE, k, None),
        }
    }

    /// Slice-based [`Wal::log_buffered`] for a put (no allocation).
    pub fn log_put_buffered(&mut self, key: &[u8], value: &[u8]) {
        self.encode_record(TAG_PUT, key, Some(value));
    }

    /// Slice-based [`Wal::log_buffered`] for a delete (no allocation).
    pub fn log_delete_buffered(&mut self, key: &[u8]) {
        self.encode_record(TAG_DELETE, key, None);
    }

    /// Rotates to a fresh `wal-<n+1>` file but **keeps the old log on
    /// disk**, returning its name. Used by background-maintenance mode:
    /// the frozen memtable's records must survive until its flush
    /// installs, at which point the caller deletes the returned file.
    /// Always churns files (never recycles in place), because truncation
    /// would destroy the frozen records.
    pub fn rotate_deferred(&mut self) -> Result<String> {
        let old = format!("wal-{}", self.seq);
        self.seq += 1;
        self.file = self.vfs.create(&format!("wal-{}", self.seq))?;
        self.buffer.clear();
        Ok(old)
    }

    /// Rotates the log after a memtable flush: either recycled in place
    /// (truncate keeping extents) or deleted and recreated at a fresh
    /// location, depending on the recycle mode.
    pub fn rotate(&mut self) -> Result<()> {
        if self.recycle {
            self.seq += 1;
            self.vfs.truncate(self.file, 0)?;
        } else {
            let old = format!("wal-{}", self.seq);
            self.seq += 1;
            let new_file = self.vfs.create(&format!("wal-{}", self.seq))?;
            self.vfs.delete(&old)?;
            self.file = new_file;
        }
        self.buffer.clear();
        Ok(())
    }

    /// Bytes handed to the filesystem (page-rounded).
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Bytes of raw records appended.
    pub fn bytes_logged(&self) -> u64 {
        self.bytes_logged
    }

    /// Current log file size on the filesystem.
    pub fn file_bytes(&self) -> u64 {
        self.vfs.size(self.file).unwrap_or(0)
    }

    /// Opens the newest existing log for appending (recovery path), or
    /// creates `wal-0` if none exists.
    pub fn open_or_create(vfs: Vfs, recycle: bool) -> Result<Self> {
        let Some((seq, name)) = newest_log(&vfs) else {
            return Self::create(vfs, recycle);
        };
        let page_size = vfs.page_size() as usize;
        let file = vfs.open(&name)?;
        Ok(Self {
            vfs,
            file,
            seq,
            buffer: Vec::new(),
            page_size,
            recycle,
            bytes_written: 0,
            bytes_logged: 0,
        })
    }

    /// Replays every record persisted in the newest log file, skipping
    /// sync padding. Buffered-but-unsynced records are, by definition,
    /// lost in a crash and do not appear here.
    pub fn replay(vfs: &Vfs) -> Result<Vec<WalRecord>> {
        let Some((_, name)) = newest_log(vfs) else {
            return Ok(Vec::new());
        };
        let file = vfs.open(&name)?;
        let size = vfs.size(file)? as usize;
        let buf = vfs.read_at(file, 0, size)?;
        let page = vfs.page_size() as usize;
        let mut out = Vec::new();
        let mut pos = 0usize;
        while pos < buf.len() {
            match buf[pos] {
                0 => {
                    // Sync padding: skip to the next page boundary.
                    pos = ((pos / page) + 1) * page;
                }
                tag @ (TAG_PUT | TAG_DELETE) => {
                    if pos + 9 > buf.len() {
                        return Err(LsmError::Corruption("truncated WAL header".into()));
                    }
                    let klen =
                        u32::from_le_bytes(buf[pos + 1..pos + 5].try_into().expect("4")) as usize;
                    let vlen =
                        u32::from_le_bytes(buf[pos + 5..pos + 9].try_into().expect("4")) as usize;
                    let kstart = pos + 9;
                    if kstart + klen + vlen > buf.len() {
                        return Err(LsmError::Corruption("truncated WAL payload".into()));
                    }
                    let key = buf[kstart..kstart + klen].to_vec();
                    if tag == TAG_PUT {
                        let value = buf[kstart + klen..kstart + klen + vlen].to_vec();
                        out.push(WalRecord::Put(key, value));
                    } else {
                        out.push(WalRecord::Delete(key));
                    }
                    pos = kstart + klen + vlen;
                }
                other => {
                    return Err(LsmError::Corruption(format!("bad WAL tag {other}")));
                }
            }
        }
        Ok(out)
    }
}

/// The newest `wal-<n>` file on the filesystem, if any.
fn newest_log(vfs: &Vfs) -> Option<(u64, String)> {
    vfs.list()
        .into_iter()
        .filter_map(|n| {
            n.strip_prefix("wal-")
                .and_then(|s| s.parse::<u64>().ok())
                .map(|q| (q, n))
        })
        .max()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptsbench_ssd::{DeviceConfig, DeviceProfile, Ssd};
    use ptsbench_vfs::VfsOptions;

    fn vfs() -> Vfs {
        let ssd = Ssd::new(DeviceConfig::from_profile(DeviceProfile::ssd1(), 16 << 20));
        Vfs::whole_device(ssd.into_shared(), VfsOptions::default())
    }

    #[test]
    fn appends_whole_pages() {
        let v = vfs();
        let mut w = Wal::create(v.clone(), true).expect("create");
        // Less than a page: nothing hits the fs yet.
        w.log_put(b"key", &[0u8; 100]).expect("log");
        assert_eq!(w.bytes_written(), 0);
        assert!(w.bytes_logged() > 0);
        // Cross a page boundary.
        w.log_put(b"key2", &[0u8; 8000]).expect("log");
        assert!(w.bytes_written() >= 4096);
        assert_eq!(w.bytes_written() % 4096, 0, "only whole pages are written");
    }

    #[test]
    fn sync_pads_final_page() {
        let v = vfs();
        let mut w = Wal::create(v.clone(), true).expect("create");
        w.log_put(b"k", b"v").expect("log");
        w.sync(true).expect("sync");
        assert_eq!(w.bytes_written(), 4096);
        assert_eq!(w.file_bytes(), 4096);
    }

    #[test]
    fn rotation_without_recycle_churns_files() {
        let v = vfs();
        let mut w = Wal::create(v.clone(), false).expect("create");
        w.log_put(b"k", &[1u8; 5000]).expect("log");
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
        let mut w = Wal::create(v.clone(), true).expect("create");
        w.log_put(b"k", &[1u8; 5000]).expect("log");
        w.sync(false).expect("sync");
        assert!(v.exists("wal-0"));
        let mapped = v.ssd().lock().mapped_pages();
        w.rotate().expect("rotate");
        assert!(v.exists("wal-0"), "log file is recycled, not replaced");
        assert_eq!(w.file_bytes(), 0, "fresh log is empty");
        // Refilling the log reuses the same LBAs.
        w.log_put(b"k", &[2u8; 5000]).expect("log");
        w.sync(false).expect("sync");
        assert_eq!(
            v.ssd().lock().mapped_pages(),
            mapped,
            "recycled log reuses LBAs"
        );
    }

    #[test]
    fn deferred_rotation_keeps_old_log_until_deleted() {
        let v = vfs();
        let mut w = Wal::create(v.clone(), true).expect("create");
        w.log_put(b"frozen", &[1u8; 3000]).expect("log");
        w.sync(false).expect("sync");
        let old = w.rotate_deferred().expect("rotate");
        assert_eq!(old, "wal-0");
        assert!(v.exists("wal-0"), "old log survives the rotation");
        assert!(v.exists("wal-1"));
        // New records land in the new log; replay reads the newest.
        w.log_put(b"fresh", b"x").expect("log");
        w.sync(false).expect("sync");
        let records = Wal::replay(&v).expect("replay");
        assert_eq!(
            records,
            vec![WalRecord::Put(b"fresh".to_vec(), b"x".to_vec())]
        );
        v.delete(&old).expect("delete at install");
        assert!(!v.exists("wal-0"));
    }

    #[test]
    fn batched_sync_matches_classic_bytes_and_replay() {
        let classic_vfs = vfs();
        let batched_vfs = vfs();
        let mut classic = Wal::create(classic_vfs.clone(), true).expect("create");
        let mut batched = Wal::create(batched_vfs.clone(), true).expect("create");
        let queue = batched_vfs.io_queue(8).into_shared();
        let records: Vec<WalRecord> = (0..40u32)
            .map(|i| WalRecord::Put(format!("k{i:04}").into_bytes(), vec![i as u8; 400]))
            .collect();
        for r in &records {
            match r {
                WalRecord::Put(k, v) => classic.log_put(k, v).expect("log"),
                WalRecord::Delete(k) => classic.log_delete(k).expect("log"),
            }
            batched.log_buffered(r);
        }
        classic.sync(true).expect("sync");
        batched.sync_batched(Some(&queue), true).expect("sync");
        assert_eq!(classic.bytes_written(), batched.bytes_written());
        assert_eq!(classic.bytes_logged(), batched.bytes_logged());
        assert_eq!(
            Wal::replay(&classic_vfs).expect("replay"),
            Wal::replay(&batched_vfs).expect("replay"),
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
        let mut w = Wal::create(v.clone(), true).expect("create");
        let err = w.log_put(b"key", &[7u8; 5000]).expect_err("no space");
        assert!(err.is_out_of_space(), "{err}");
        assert_eq!(w.bytes_written(), 0);
        assert_eq!(w.file_bytes(), 0);
        // Space comes back: the record that failed is written, whole.
        v.delete("hog").expect("delete");
        w.sync(true).expect("sync");
        assert_eq!(w.bytes_written(), 2 * 4096);
        assert_eq!(
            Wal::replay(&v).expect("replay"),
            vec![WalRecord::Put(b"key".to_vec(), vec![7u8; 5000])]
        );
    }

    #[test]
    fn delete_records_count() {
        let v = vfs();
        let mut w = Wal::create(v, true).expect("create");
        w.log_delete(b"key").expect("log");
        assert_eq!(w.bytes_logged(), (1 + 8 + 3) as u64);
    }
}
