//! Write-ahead log for the B+Tree (the WiredTiger journal equivalent).
//!
//! Same record framing as the LSM WAL but truncated at checkpoints
//! rather than memtable flushes: after a checkpoint the log's contents
//! are no longer needed for recovery, so the file is rotated.

use ptsbench_vfs::{FileId, Vfs};

use crate::{BTreeError, Result};

/// Journal record tags.
const TAG_PUT: u8 = 1;
const TAG_DELETE: u8 = 2;

/// A record recovered from the journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalRecord {
    /// A logged insert/overwrite.
    Put(Vec<u8>, Vec<u8>),
    /// A logged deletion.
    Delete(Vec<u8>),
}

/// The B+Tree journal.
#[derive(Debug)]
pub struct Journal {
    vfs: Vfs,
    file: FileId,
    seq: u64,
    buffer: Vec<u8>,
    page_size: usize,
    bytes_written: u64,
}

impl Journal {
    /// Creates `journal-0`.
    pub fn create(vfs: Vfs) -> Result<Self> {
        let page_size = vfs.page_size() as usize;
        let file = vfs.create("journal-0")?;
        Ok(Self {
            vfs,
            file,
            seq: 0,
            buffer: Vec::new(),
            page_size,
            bytes_written: 0,
        })
    }

    /// Logs an update.
    pub fn log_put(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        self.append(TAG_PUT, key, Some(value))
    }

    /// Logs a deletion.
    pub fn log_delete(&mut self, key: &[u8]) -> Result<()> {
        self.append(TAG_DELETE, key, None)
    }

    fn append(&mut self, tag: u8, key: &[u8], value: Option<&[u8]>) -> Result<()> {
        self.buffer.push(tag);
        self.buffer
            .extend_from_slice(&(key.len() as u32).to_le_bytes());
        self.buffer
            .extend_from_slice(&(value.map_or(0, |v| v.len()) as u32).to_le_bytes());
        self.buffer.extend_from_slice(key);
        if let Some(v) = value {
            self.buffer.extend_from_slice(v);
        }
        while self.buffer.len() >= self.page_size {
            self.vfs.append(self.file, &self.buffer[..self.page_size])?;
            self.buffer.drain(..self.page_size);
            self.bytes_written += self.page_size as u64;
        }
        Ok(())
    }

    /// Flushes buffered records; optionally blocks until durable.
    pub fn sync(&mut self, wait_durable: bool) -> Result<()> {
        if !self.buffer.is_empty() {
            let mut page = std::mem::take(&mut self.buffer);
            page.resize(self.page_size, 0);
            self.vfs.append(self.file, &page)?;
            self.bytes_written += page.len() as u64;
        }
        if wait_durable {
            self.vfs.fsync(self.file)?;
        }
        Ok(())
    }

    /// Truncates the journal after a checkpoint. The file is recycled in
    /// place (WiredTiger preallocates and reuses journal files), keeping
    /// its LBAs stable.
    pub fn truncate(&mut self) -> Result<()> {
        self.seq += 1;
        self.vfs.truncate(self.file, 0)?;
        self.buffer.clear();
        Ok(())
    }

    /// Bytes handed to the filesystem.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Opens the existing journal for appending (recovery path), or
    /// creates `journal-0` if none exists.
    pub fn open_or_create(vfs: Vfs) -> Result<Self> {
        if !vfs.exists("journal-0") {
            return Self::create(vfs);
        }
        let page_size = vfs.page_size() as usize;
        let file = vfs.open("journal-0")?;
        Ok(Self {
            vfs,
            file,
            seq: 0,
            buffer: Vec::new(),
            page_size,
            bytes_written: 0,
        })
    }

    /// Replays every record persisted in the journal since the last
    /// checkpoint truncation, skipping sync padding.
    pub fn replay(vfs: &Vfs) -> Result<Vec<JournalRecord>> {
        if !vfs.exists("journal-0") {
            return Ok(Vec::new());
        }
        let file = vfs.open("journal-0")?;
        let size = vfs.size(file)? as usize;
        let buf = vfs.read_at(file, 0, size)?;
        let page = vfs.page_size() as usize;
        let mut out = Vec::new();
        let mut pos = 0usize;
        while pos < buf.len() {
            match buf[pos] {
                0 => pos = ((pos / page) + 1) * page,
                tag @ (TAG_PUT | TAG_DELETE) => {
                    if pos + 9 > buf.len() {
                        return Err(BTreeError::Corruption("truncated journal header".into()));
                    }
                    let klen =
                        u32::from_le_bytes(buf[pos + 1..pos + 5].try_into().expect("4")) as usize;
                    let vlen =
                        u32::from_le_bytes(buf[pos + 5..pos + 9].try_into().expect("4")) as usize;
                    let kstart = pos + 9;
                    if kstart + klen + vlen > buf.len() {
                        return Err(BTreeError::Corruption("truncated journal payload".into()));
                    }
                    let key = buf[kstart..kstart + klen].to_vec();
                    if tag == TAG_PUT {
                        out.push(JournalRecord::Put(
                            key,
                            buf[kstart + klen..kstart + klen + vlen].to_vec(),
                        ));
                    } else {
                        out.push(JournalRecord::Delete(key));
                    }
                    pos = kstart + klen + vlen;
                }
                other => return Err(BTreeError::Corruption(format!("bad journal tag {other}"))),
            }
        }
        Ok(out)
    }
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
    fn buffers_until_page_full() {
        let v = vfs();
        let mut j = Journal::create(v).expect("create");
        j.log_put(b"k", &[0u8; 100]).expect("log");
        assert_eq!(j.bytes_written(), 0);
        j.log_put(b"k", &[0u8; 5000]).expect("log");
        assert!(j.bytes_written() >= 4096);
    }

    #[test]
    fn truncate_recycles_in_place() {
        let v = vfs();
        let mut j = Journal::create(v.clone()).expect("create");
        j.log_delete(b"k").expect("log");
        j.sync(true).expect("sync");
        assert!(v.exists("journal-0"));
        j.truncate().expect("truncate");
        assert!(v.exists("journal-0"), "journal recycled in place");
        assert_eq!(v.size(v.open("journal-0").expect("open")).expect("size"), 0);
    }
}
