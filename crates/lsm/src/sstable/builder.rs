//! SSTable construction.
//!
//! The builder streams sorted entries into data blocks, accumulating
//! page-aligned chunks that are appended to the filesystem as they fill
//! (large sequential writes — the LSM write pattern the paper calls
//! "flash friendly" before measuring otherwise). `finish` writes the
//! index, bloom filter and footer.
//!
//! Each entry is encoded once. Without a codec a block *is* its entries
//! back to back, so they are encoded straight into the staging buffer
//! and sealing a block only records where it began; with a codec the
//! entries collect in a scratch block that the codec then encodes
//! straight onto the staging buffer.

use ptsbench_cache::{Compression, EncodeScratch};
use ptsbench_vfs::{FileId, Vfs};

use crate::bloom::{hash_pair, BloomFilter};
use crate::sstable::format::{
    encode_entry, encode_index, entry_encoded_len, Footer, IndexEntry, SstableMeta,
};
use crate::{LsmError, Result};

/// Staged bytes are appended once this many whole pages have gathered.
const APPEND_BYTES: usize = 256 << 10;

/// Streaming SSTable writer.
pub struct SstableBuilder {
    vfs: Vfs,
    name: String,
    file: FileId,
    /// Background mode: writes are queued on the device without
    /// advancing the simulated clock (flush/compaction threads).
    background: bool,
    block_bytes: usize,
    bloom_bits_per_key: u32,
    /// Block codec. When active, every sealed block is written as a
    /// compressed container and the footer carries the codec level so
    /// the reader knows to decode; the CPU cost is charged to the
    /// simulated clock on the foreground path.
    compression: Compression,
    /// The codec's match-finder tables, reused block after block.
    codec_scratch: EncodeScratch,
    /// The codec's input: the current block's entries. Stays empty when
    /// the codec is off.
    block: Vec<u8>,
    block_entries: u32,
    block_first_key: Option<Vec<u8>>,
    /// Staging buffer awaiting append: sealed blocks and, when the
    /// codec is off, the current block's entries from `block_start` on.
    pending: Vec<u8>,
    /// Where the current block begins in `pending` (codec off).
    block_start: usize,
    flushed_bytes: u64,
    index: Vec<IndexEntry>,
    /// One [`hash_pair`] per key, for the bloom filter.
    key_hashes: Vec<(u64, u64)>,
    min_key: Option<Vec<u8>>,
    /// The newest key (the ordering check now, the max key at the end).
    last_key: Vec<u8>,
    entries: u64,
    page_size: usize,
}

impl SstableBuilder {
    /// Creates the output file and an empty builder (foreground I/O).
    pub fn create(
        vfs: Vfs,
        name: &str,
        block_bytes: usize,
        bloom_bits_per_key: u32,
    ) -> Result<Self> {
        Self::create_opts(vfs, name, block_bytes, bloom_bits_per_key, false)
    }

    /// Creates a builder whose writes are issued by a background thread
    /// (device-queued, non-blocking).
    pub fn create_bg(
        vfs: Vfs,
        name: &str,
        block_bytes: usize,
        bloom_bits_per_key: u32,
    ) -> Result<Self> {
        Self::create_opts(vfs, name, block_bytes, bloom_bits_per_key, true)
    }

    fn create_opts(
        vfs: Vfs,
        name: &str,
        block_bytes: usize,
        bloom_bits_per_key: u32,
        background: bool,
    ) -> Result<Self> {
        let file = vfs.create(name)?;
        let page_size = vfs.page_size() as usize;
        Ok(Self {
            vfs,
            name: name.to_string(),
            file,
            background,
            block_bytes,
            bloom_bits_per_key,
            compression: Compression::None,
            codec_scratch: EncodeScratch::default(),
            block: Vec::new(),
            block_entries: 0,
            block_first_key: None,
            // The threshold is crossed by up to a block (and a page of
            // remainder stays behind): leave room for that, or every
            // table reallocates its staging buffer on the first chunk.
            pending: Vec::with_capacity(APPEND_BYTES + APPEND_BYTES / 4),
            block_start: 0,
            flushed_bytes: 0,
            index: Vec::new(),
            key_hashes: Vec::new(),
            min_key: None,
            last_key: Vec::new(),
            entries: 0,
            page_size,
        })
    }

    /// Sets the block codec (builder style; call before the first
    /// `add`). [`Compression::None`] keeps the on-disk bytes identical
    /// to the pre-codec format.
    pub fn with_compression(mut self, compression: Compression) -> Self {
        self.compression = compression;
        self
    }

    /// Appends an entry; keys must arrive in strictly increasing order.
    pub fn add(&mut self, key: &[u8], value: Option<&[u8]>) -> Result<()> {
        if self.entries == 0 {
            self.min_key = Some(key.to_vec());
        } else {
            assert!(
                key > self.last_key.as_slice(),
                "SSTable keys must be strictly increasing"
            );
        }
        self.last_key.clear();
        self.last_key.extend_from_slice(key);
        if self.block_first_key.is_none() {
            self.block_first_key = Some(key.to_vec());
        }
        let block = if self.compression.is_active() {
            &mut self.block
        } else {
            &mut self.pending
        };
        encode_entry(block, key, value);
        self.block_entries += 1;
        self.entries += 1;
        if self.bloom_bits_per_key > 0 {
            self.key_hashes.push(hash_pair(key));
        }
        if self.block_len() >= self.block_bytes {
            self.seal_block()?;
        }
        Ok(())
    }

    /// Encoded bytes of the current (unsealed) block.
    fn block_len(&self) -> usize {
        self.block.len() + self.pending.len() - self.block_start
    }

    /// Approximate file size if finished now (compaction output split
    /// decisions).
    pub fn estimated_bytes(&self) -> u64 {
        self.flushed_bytes + self.pending.len() as u64 + self.block.len() as u64
    }

    /// Name of the table file under construction.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of entries added so far.
    pub fn entries(&self) -> u64 {
        self.entries
    }

    /// Cost in bytes an entry would add.
    pub fn entry_cost(key: &[u8], value: Option<&[u8]>) -> usize {
        entry_encoded_len(key, value)
    }

    fn seal_block(&mut self) -> Result<()> {
        if self.block_len() == 0 {
            return Ok(());
        }
        let offset = self.flushed_bytes + self.block_start as u64;
        let first_key = self
            .block_first_key
            .take()
            .expect("non-empty block has a first key");
        if self.compression.is_active() {
            self.compression
                .encode_into(&self.block, &mut self.codec_scratch, &mut self.pending);
            if !self.background {
                // Foreground builds pay the codec's CPU time on the
                // simulated clock; background (flush/compaction) builds
                // charge device bandwidth only, like their writes.
                self.vfs
                    .clock()
                    .advance(self.compression.encode_cost_ns(self.block.len()));
            }
            self.block.clear();
        }
        self.index.push(IndexEntry {
            first_key,
            offset,
            len: (self.pending.len() - self.block_start) as u32,
            entries: self.block_entries,
        });
        self.block_entries = 0;
        self.block_start = self.pending.len();
        // Stream out whole pages to keep appends aligned.
        let aligned = (self.pending.len() / self.page_size) * self.page_size;
        if aligned >= APPEND_BYTES {
            if self.background {
                self.vfs.append_bg(self.file, &self.pending[..aligned])?;
            } else {
                self.vfs.append(self.file, &self.pending[..aligned])?;
            }
            self.pending.drain(..aligned);
            self.block_start -= aligned;
            self.flushed_bytes += aligned as u64;
        }
        Ok(())
    }

    /// Finalizes the table: writes remaining data, index, bloom and
    /// footer, fsyncs, and returns the metadata. A failed finish removes
    /// the partial file.
    pub fn finish(mut self) -> Result<SstableMeta> {
        if self.entries == 0 {
            // An empty table is a caller bug upstream; fail cleanly.
            self.vfs.delete(&self.name)?;
            return Err(LsmError::Corruption(
                "refusing to write empty SSTable".into(),
            ));
        }
        if let Err(e) = self.seal_block() {
            self.abandon();
            return Err(e);
        }
        let mut tail = std::mem::take(&mut self.pending);
        let index_off = self.flushed_bytes + tail.len() as u64;
        let index_start = tail.len();
        encode_index(&self.index, &mut tail);
        let index_len = (tail.len() - index_start) as u32;

        let bloom_off = self.flushed_bytes + tail.len() as u64;
        let bloom_len = if self.bloom_bits_per_key > 0 {
            let start = tail.len();
            BloomFilter::from_hashes(&self.key_hashes, self.bloom_bits_per_key).encode(&mut tail);
            (tail.len() - start) as u32
        } else {
            0
        };

        Footer {
            index_off,
            index_len,
            bloom_off,
            bloom_len,
            entries: self.entries,
            // The codec level doubles as the block-format tag: 0 keeps
            // the seed format byte-identical, non-zero tells the reader
            // that data blocks are compressed containers.
            reserved: self.compression.level() as u32,
        }
        .encode(&mut tail);

        let appended = if self.background {
            self.vfs.append_bg(self.file, &tail)
        } else {
            self.vfs.append(self.file, &tail)
        };
        if let Err(e) = appended {
            // Out of space mid-finish: remove the partial file.
            let _ = self.vfs.delete(&self.name);
            return Err(e.into());
        }
        // Background builds install without waiting for durability (the
        // version edit is logical; durability arrives when the destage
        // completes). Foreground builds fsync.
        if !self.background {
            self.vfs.fsync(self.file)?;
        }
        let file_bytes = self.vfs.size(self.file)?;
        Ok(SstableMeta {
            name: self.name,
            min_key: self.min_key.expect("non-empty"),
            max_key: self.last_key,
            entries: self.entries,
            file_bytes,
        })
    }

    /// Abandons the build, deleting the partial file.
    pub fn abandon(self) {
        let _ = self.vfs.delete(&self.name);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptsbench_ssd::{DeviceConfig, DeviceProfile, Ssd};
    use ptsbench_vfs::VfsOptions;

    fn vfs() -> Vfs {
        let ssd = Ssd::new(DeviceConfig::from_profile(DeviceProfile::ssd1(), 32 << 20));
        Vfs::whole_device(ssd.into_shared(), VfsOptions::default())
    }

    #[test]
    fn build_produces_valid_meta() {
        let v = vfs();
        let mut b = SstableBuilder::create(v.clone(), "sst-1", 4096, 10).expect("create");
        for i in 0..100u32 {
            let key = format!("key{:05}", i);
            b.add(key.as_bytes(), Some(&[i as u8; 50])).expect("add");
        }
        let meta = b.finish().expect("finish");
        assert_eq!(meta.entries, 100);
        assert_eq!(meta.min_key, b"key00000");
        assert_eq!(meta.max_key, b"key00099");
        assert_eq!(
            meta.file_bytes,
            v.size(v.open("sst-1").expect("open")).expect("size")
        );
        assert!(meta.file_bytes > 100 * 50);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_keys_panic() {
        let v = vfs();
        let mut b = SstableBuilder::create(v, "sst-1", 4096, 10).expect("create");
        b.add(b"b", Some(b"1")).expect("add");
        b.add(b"a", Some(b"2")).expect("add");
    }

    #[test]
    fn empty_build_fails_cleanly() {
        let v = vfs();
        let b = SstableBuilder::create(v.clone(), "sst-1", 4096, 10).expect("create");
        assert!(b.finish().is_err());
        assert!(!v.exists("sst-1"), "partial file removed");
    }

    #[test]
    fn abandon_removes_file() {
        let v = vfs();
        let mut b = SstableBuilder::create(v.clone(), "sst-1", 4096, 10).expect("create");
        b.add(b"a", Some(b"1")).expect("add");
        b.abandon();
        assert!(!v.exists("sst-1"));
    }

    #[test]
    fn large_values_span_blocks() {
        let v = vfs();
        let mut b = SstableBuilder::create(v.clone(), "sst-1", 4096, 10).expect("create");
        for i in 0..20u32 {
            let key = format!("k{:03}", i);
            b.add(key.as_bytes(), Some(&vec![7u8; 4000])).expect("add");
        }
        let meta = b.finish().expect("finish");
        assert!(meta.file_bytes > 20 * 4000);
    }
}
