//! The manifest: a durable log of version edits, enabling recovery.
//!
//! Every change to the level structure (flush, compaction, trivial move)
//! appends `add <level> <table>` / `del <table>` records to the
//! `MANIFEST` file, exactly as RocksDB's MANIFEST logs `VersionEdit`s.
//! [`Manifest::replay`] folds the log back into the live table set; the
//! database's recovery path then reopens those tables and replays the
//! WAL on top.

use std::collections::HashMap;

use ptsbench_vfs::{FileId, StoreError, Vfs};

use crate::Result;

/// Name of the manifest file within the database's filesystem.
pub(crate) const MANIFEST_NAME: &str = "MANIFEST";

/// Append-only log of version edits.
#[derive(Debug)]
pub(crate) struct Manifest {
    vfs: Vfs,
    file: FileId,
    buffer: String,
}

/// One replayed table: `(level, name)`, in log order.
pub(crate) type ReplayedTables = Vec<(usize, String)>;

impl Manifest {
    /// Creates a fresh manifest (fails if one exists).
    pub(crate) fn create(vfs: Vfs) -> Result<Self> {
        let file = vfs.create(MANIFEST_NAME)?;
        Ok(Self {
            vfs,
            file,
            buffer: String::new(),
        })
    }

    /// Opens the existing manifest for appending.
    pub(crate) fn open(vfs: Vfs) -> Result<Self> {
        let file = vfs.open(MANIFEST_NAME)?;
        Ok(Self {
            vfs,
            file,
            buffer: String::new(),
        })
    }

    /// Whether a manifest exists on this filesystem.
    pub(crate) fn exists(vfs: &Vfs) -> bool {
        vfs.exists(MANIFEST_NAME)
    }

    /// Records a table entering a level.
    pub(crate) fn log_add(&mut self, level: usize, name: &str) {
        self.buffer.push_str(&format!("add {level} {name}\n"));
    }

    /// Records a table leaving the version.
    pub(crate) fn log_del(&mut self, name: &str) {
        self.buffer.push_str(&format!("del {name}\n"));
    }

    /// Flushes buffered edits to the filesystem (one edit group = one
    /// append, as RocksDB writes one MANIFEST record per VersionEdit).
    pub(crate) fn commit(&mut self) -> Result<()> {
        if self.buffer.is_empty() {
            return Ok(());
        }
        let bytes = std::mem::take(&mut self.buffer);
        self.vfs.append(self.file, bytes.as_bytes())?;
        Ok(())
    }

    /// Replays the manifest into the set of live tables, in add order
    /// (which preserves L0 recency). Returns the live `(level, name)`
    /// list and the next table number to assign.
    pub(crate) fn replay(vfs: &Vfs) -> Result<(ReplayedTables, u64)> {
        let file = vfs.open(MANIFEST_NAME)?;
        let size = vfs.size(file)? as usize;
        let raw = vfs.read_shared(file, 0, size)?;
        let text = std::str::from_utf8(&raw)
            .map_err(|_| StoreError::Corruption("manifest is not UTF-8".into()))?;

        let mut live: Vec<(usize, String)> = Vec::new();
        let mut seen: HashMap<String, usize> = HashMap::new(); // name -> index in live
        let mut max_table_no: u64 = 0;
        for (lineno, line) in text.lines().enumerate() {
            if line.is_empty() {
                continue;
            }
            let corrupt =
                || StoreError::Corruption(format!("manifest line {}: {line:?}", lineno + 1));
            let mut parts = line.split(' ');
            match parts.next() {
                Some("add") => {
                    let level: usize = parts
                        .next()
                        .ok_or_else(corrupt)?
                        .parse()
                        .map_err(|_| corrupt())?;
                    let name = parts.next().ok_or_else(corrupt)?.to_string();
                    if let Some(n) = name.strip_prefix("sst-") {
                        if let Ok(n) = n.parse::<u64>() {
                            max_table_no = max_table_no.max(n + 1);
                        }
                    }
                    if let Some(&idx) = seen.get(&name) {
                        // A move: update the level in place, keep order.
                        live[idx].0 = level;
                    } else {
                        seen.insert(name.clone(), live.len());
                        live.push((level, name));
                    }
                }
                Some("del") => {
                    let name = parts.next().ok_or_else(corrupt)?;
                    if let Some(idx) = seen.remove(name) {
                        live.remove(idx);
                        for v in seen.values_mut() {
                            if *v > idx {
                                *v -= 1;
                            }
                        }
                    }
                }
                _ => return Err(corrupt()),
            }
        }
        Ok((live, max_table_no))
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
    fn add_del_replay_round_trip() {
        let v = vfs();
        let mut m = Manifest::create(v.clone()).expect("create");
        m.log_add(0, "sst-00000000");
        m.log_add(0, "sst-00000001");
        m.commit().expect("commit");
        m.log_del("sst-00000000");
        m.log_add(1, "sst-00000002");
        m.commit().expect("commit");

        let (live, next) = Manifest::replay(&v).expect("replay");
        assert_eq!(
            live,
            vec![
                (0, "sst-00000001".to_string()),
                (1, "sst-00000002".to_string())
            ]
        );
        assert_eq!(next, 3);
    }

    #[test]
    fn moves_update_level_in_place() {
        let v = vfs();
        let mut m = Manifest::create(v.clone()).expect("create");
        m.log_add(0, "sst-00000007");
        m.log_del("sst-00000007");
        m.log_add(3, "sst-00000007");
        m.commit().expect("commit");
        let (live, next) = Manifest::replay(&v).expect("replay");
        assert_eq!(live, vec![(3, "sst-00000007".to_string())]);
        assert_eq!(next, 8);
    }

    #[test]
    fn uncommitted_edits_are_lost() {
        let v = vfs();
        let mut m = Manifest::create(v.clone()).expect("create");
        m.log_add(0, "sst-00000000");
        m.commit().expect("commit");
        m.log_add(0, "sst-00000001"); // never committed
        let (live, _) = Manifest::replay(&v).expect("replay");
        assert_eq!(live.len(), 1);
    }

    #[test]
    fn empty_manifest_replays_empty() {
        let v = vfs();
        Manifest::create(v.clone()).expect("create");
        let (live, next) = Manifest::replay(&v).expect("replay");
        assert!(live.is_empty());
        assert_eq!(next, 0);
    }

    #[test]
    fn garbage_manifest_is_corruption() {
        let v = vfs();
        let f = v.create(MANIFEST_NAME).expect("create");
        v.write_at(f, 0, b"nonsense line\n").expect("write");
        assert!(matches!(
            Manifest::replay(&v),
            Err(StoreError::Corruption(_))
        ));
    }
}
