//! SSTable construction.
//!
//! The builder streams sorted entries into data blocks **in the table
//! file's own buffer** — it holds the file's [`FileAppender`]; there is
//! no staging buffer — and commits whole pages to the filesystem
//! 256 KiB at a time (large sequential writes — the LSM write pattern
//! the paper calls "flash friendly" before measuring otherwise).
//! `finish` puts index, bloom filter and footer behind the last block
//! and commits the rest. Spare capacity in that buffer is resident
//! memory for as long as the table lives: it is sized once, from the
//! size the caller expects, and the tail is reserved exactly.
//!
//! Without a codec a block *is* its entries back to back, so sealing
//! one only records where it began; with a codec the entries collect in
//! a scratch block that the codec then encodes onto the file buffer.

use ptsbench_cache::{Compression, EncodeScratch};
use ptsbench_vfs::{FileAppender, FileId, Vfs};

use crate::bloom::{hash_pair, BloomFilter};
use crate::sstable::format::{
    encode_entry, encode_index_entry, entry_ranges, Footer, SstableMeta, FOOTER_LEN,
};
use crate::{LsmError, Result};

/// Written bytes are committed once this many whole pages have gathered.
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
    /// The table file's buffer: sealed blocks and, when the codec is
    /// off, the current block's entries from `block_start` on.
    out: FileAppender,
    /// Where the current block begins in `out` (codec off).
    block_start: usize,
    /// The index block's entries, encoded as blocks are sealed.
    index: Vec<u8>,
    blocks: u32,
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
        Self::create_opts(vfs, name, block_bytes, bloom_bits_per_key, 0, false)
    }

    /// Creates a builder whose writes are issued by a background thread
    /// (device-queued, non-blocking). `expected_bytes` is the table
    /// size the caller aims for; the file's buffer is sized from it.
    pub fn create_bg(
        vfs: Vfs,
        name: &str,
        block_bytes: usize,
        bloom_bits_per_key: u32,
        expected_bytes: u64,
    ) -> Result<Self> {
        Self::create_opts(
            vfs,
            name,
            block_bytes,
            bloom_bits_per_key,
            expected_bytes,
            true,
        )
    }

    fn create_opts(
        vfs: Vfs,
        name: &str,
        block_bytes: usize,
        bloom_bits_per_key: u32,
        expected_bytes: u64,
        background: bool,
    ) -> Result<Self> {
        let file = vfs.create(name)?;
        let page_size = vfs.page_size() as usize;
        // A caller stops at its target by up to an entry, and the tail
        // is about 1 % of a table of 4 KB values: with a block and
        // 1/64 of slack neither regrows the buffer.
        let reserve = expected_bytes + block_bytes as u64 + expected_bytes / 64;
        let out = vfs.appender(file, reserve)?;
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
            out,
            block_start: 0,
            index: Vec::new(),
            blocks: 0,
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
        let block = if self.compression.is_active() {
            &mut self.block
        } else {
            &mut self.out.buf
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
        self.block.len() + self.out.buf.len() - self.block_start
    }

    /// Approximate file size if finished now (compaction output split
    /// decisions).
    pub fn estimated_bytes(&self) -> u64 {
        (self.out.buf.len() + self.block.len()) as u64
    }

    /// Name of the table file under construction.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of entries added so far.
    pub fn entries(&self) -> u64 {
        self.entries
    }

    fn seal_block(&mut self) -> Result<()> {
        if self.block_len() == 0 {
            return Ok(());
        }
        let start = self.block_start;
        let out = &mut self.out.buf;
        let codec = self.compression.is_active();
        if codec {
            self.compression
                .encode_into(&self.block, &mut self.codec_scratch, out);
            if !self.background {
                // Foreground builds pay the codec's CPU time on the
                // simulated clock; background (flush/compaction) builds
                // charge device bandwidth only, like their writes.
                self.vfs
                    .clock()
                    .advance(self.compression.encode_cost_ns(self.block.len()));
            }
        }
        // The block's first key is where its first entry put it.
        let entries = if codec { &self.block } else { &out[start..] };
        let (first_key, _, _) = entry_ranges(entries, 0)?;
        let (key, len) = (&entries[first_key], (out.len() - start) as u32);
        encode_index_entry(&mut self.index, key, start as u64, len, self.block_entries);
        self.blocks += 1;
        self.block.clear();
        self.block_entries = 0;
        self.block_start = out.len();
        // Stream out whole pages to keep the writes aligned.
        let aligned = (out.len() / self.page_size) * self.page_size;
        if aligned - self.out.committed() >= APPEND_BYTES {
            self.out.commit(aligned, !self.background)?;
        }
        Ok(())
    }

    /// Finalizes the table: encodes index, bloom and footer, writes
    /// everything not yet written, fsyncs, and returns the metadata. A
    /// failed finish removes the partial file.
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
        let bloom = (self.bloom_bits_per_key > 0)
            .then(|| BloomFilter::from_hashes(&self.key_hashes, self.bloom_bits_per_key));
        let index_len = 4 + self.index.len();
        let bloom_len = bloom.as_ref().map_or(0, BloomFilter::encoded_len);
        let out = &mut self.out.buf;
        out.reserve_exact(index_len + bloom_len + FOOTER_LEN);
        let index_off = out.len() as u64;
        out.extend_from_slice(&self.blocks.to_le_bytes());
        out.extend_from_slice(&self.index);
        let bloom_off = out.len() as u64;
        if let Some(bloom) = bloom {
            bloom.encode(out);
        }
        Footer {
            index_off,
            index_len: index_len as u32,
            bloom_off,
            bloom_len: bloom_len as u32,
            entries: self.entries,
            // The codec level doubles as the block-format tag: 0 keeps
            // the seed format byte-identical, non-zero tells the reader
            // that data blocks are compressed containers.
            reserved: self.compression.level() as u32,
        }
        .encode(out);

        if let Err(e) = self.out.commit(self.out.buf.len(), !self.background) {
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
        Ok(SstableMeta {
            name: self.name,
            min_key: self.min_key.expect("non-empty"),
            max_key: self.last_key,
            entries: self.entries,
            file_bytes: self.out.committed() as u64,
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
