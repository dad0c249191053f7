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
//! a scratch block that the codec then encodes onto the file buffer —
//! unless the block is one an input table already stored verbatim
//! ([`SstableBuilder::add_reusing`]), which is then copied.

use ptsbench_cache::{Compression, EncodeScratch};
use ptsbench_vfs::{FileAppender, FileId, FileSlice, StoreError, Vfs};

use crate::bloom::{hash_pair, BloomFilter};
use crate::sstable::format::{
    encode_entry, encode_index_entry, entry_ranges, Footer, SstableMeta, FOOTER_LEN,
};
use crate::Result;

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
    /// A stored-mode container another table holds that the current
    /// block may turn out to equal (see [`SstableBuilder::seal_block`]).
    donor: Option<FileSlice>,
    /// Blocks sealed by copying their donor.
    reused_blocks: u64,
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
            donor: None,
            reused_blocks: 0,
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
        self.add_reusing(key, value, || None)
    }

    /// [`SstableBuilder::add`] for an entry that may begin a block some
    /// other table holds already (a compaction's input). When the entry
    /// begins a block and the codec is on, `donor` is asked for that
    /// block's container — [`crate::sstable::SstableReader::stored_block_at`]
    /// — and the block is sealed by copying that container if it is a
    /// stored-mode container of this builder's level holding exactly the
    /// block's bytes (the exactness argument is at `seal_block`).
    pub fn add_reusing(
        &mut self,
        key: &[u8],
        value: Option<&[u8]>,
        donor: impl FnOnce() -> Option<FileSlice>,
    ) -> Result<()> {
        if self.block_entries == 0 && self.compression.is_active() {
            self.donor = donor();
        }
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

    /// Seals the current block onto the file buffer and indexes it.
    ///
    /// With the codec on, the block is copied from its donor instead of
    /// encoded when all of these hold:
    /// 1. the donor is a data block of a table written by this codec,
    ///    beginning with this block's first entry (what
    ///    [`crate::sstable::SstableReader::stored_block_at`] returns:
    ///    an index entry of the input table, by offset arithmetic);
    /// 2. it is a stored-mode container tagged with this builder's
    ///    level ([`Compression::stored_payload_at_level`]);
    /// 3. its payload is this block, byte for byte.
    ///
    /// That is exact, not probable: the donor is what `encode_into` at
    /// this level appended for those bytes, and the codec is
    /// deterministic, so encoding this block would append the donor
    /// again. Every table byte, index entry and clock charge is the same
    /// either way; only the match finder's host time is saved.
    fn seal_block(&mut self) -> Result<()> {
        if self.block_len() == 0 {
            return Ok(());
        }
        let start = self.block_start;
        let out = &mut self.out.buf;
        let codec = self.compression.is_active();
        if codec {
            let donor = self.donor.take();
            let same = (donor.as_deref())
                .filter(|d| self.compression.stored_payload_at_level(d) == Some(&self.block[..]));
            match same {
                Some(container) => {
                    out.extend_from_slice(container);
                    self.reused_blocks += 1;
                }
                None => self
                    .compression
                    .encode_into(&self.block, &mut self.codec_scratch, out),
            }
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
    pub fn finish(self) -> Result<SstableMeta> {
        self.finish_counted().map(|(meta, _)| meta)
    }

    /// [`SstableBuilder::finish`], also returning how many blocks were
    /// copied from a donor instead of encoded.
    pub(crate) fn finish_counted(mut self) -> Result<(SstableMeta, u64)> {
        if self.entries == 0 {
            // An empty table is a caller bug upstream; fail cleanly.
            self.vfs.delete(&self.name)?;
            return Err(StoreError::Corruption(
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
        let meta = SstableMeta {
            name: self.name,
            min_key: self.min_key.expect("non-empty"),
            max_key: self.last_key,
            entries: self.entries,
            file_bytes: self.out.committed() as u64,
        };
        Ok((meta, self.reused_blocks))
    }

    /// Abandons the build, deleting the partial file.
    pub fn abandon(self) {
        let _ = self.vfs.delete(&self.name);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iter::Merge;
    use crate::sstable::format::{BlockIndex, Footer};
    use crate::sstable::SstableReader;
    use ptsbench_ssd::{DeviceConfig, DeviceProfile, Ssd};
    use ptsbench_vfs::VfsOptions;

    fn vfs() -> Vfs {
        let ssd = Ssd::new(DeviceConfig::from_profile(DeviceProfile::ssd1(), 32 << 20));
        Vfs::whole_device(ssd.into_shared(), VfsOptions::default())
    }

    /// An entry with its key as a range: of the window a scan lent it
    /// from (what `stored_block_at` looks a block up by, at offset 0 of
    /// the range), or of a buffer of its own.
    type Scanned = (FileSlice, Option<FileSlice>);

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

    /// `len` xorshift bytes: no block of them compresses.
    fn noise(seed: u64, len: usize) -> Vec<u8> {
        let mut state = seed | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 32) as u8
            })
            .collect()
    }

    /// Entries `range`, each an 11-byte key and a 2 000-byte value —
    /// three to a 4 KiB block — tombstones at `tombstones`; noise values
    /// unless `compressible`. (Blocks of five 1 000-byte noise values do
    /// compress: their keys and entry headers repeat.)
    fn entries(
        range: std::ops::Range<u32>,
        tombstones: &[u32],
        compressible: bool,
    ) -> Vec<Scanned> {
        range
            .map(|i| {
                let key = FileSlice::from(format!("key{i:08}").into_bytes());
                let value = if compressible {
                    format!("value-{i}-").repeat(300).into_bytes()[..2000].to_vec()
                } else {
                    noise((i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15), 2000)
                };
                (key, (!tombstones.contains(&i)).then(|| value.into()))
            })
            .collect()
    }

    /// Builds `name` at codec `level` from `entries`, offering every
    /// entry the blocks of `inputs` the way a compaction does; returns
    /// the table's bytes and how many blocks were copied.
    fn build(
        v: &Vfs,
        name: &str,
        level: u8,
        entries: &[Scanned],
        inputs: &[&SstableReader],
    ) -> (Vec<u8>, u64) {
        let mut b = SstableBuilder::create_bg(v.clone(), name, 4096, 10, 0)
            .expect("create")
            .with_compression(Compression::from_level(level));
        for (k, value) in entries {
            b.add_reusing(k, value.as_deref(), || {
                inputs.iter().find_map(|r| r.stored_block_at(k, 0))
            })
            .expect("add");
        }
        let (meta, reused) = b.finish_counted().expect("finish");
        let image = v.read_at(v.open(name).expect("open"), 0, meta.file_bytes as usize);
        (image.expect("read"), reused)
    }

    /// A table written from `entries` and opened, with its scan.
    fn input(v: &Vfs, name: &str, level: u8, entries: &[Scanned]) -> (SstableReader, Vec<Scanned>) {
        build(v, name, level, entries, &[]);
        let r = SstableReader::open(v.clone(), name, true, None).expect("open");
        let mut scanned = Vec::new();
        let mut scan = Merge::new(vec![r.iter_bg()]);
        while let Some(e) = scan.next_entry() {
            let (window, at) = e.window.expect("a table entry");
            let value = e.value.map(|v| v.to_vec().into());
            scanned.push((window.slice(at..at + e.key.len()), value));
        }
        drop(scan);
        (r, scanned)
    }

    fn blocks(image: &[u8]) -> usize {
        let footer = Footer::decode(&image[image.len() - FOOTER_LEN..]).expect("footer");
        u32::from_le_bytes(
            image[footer.index_off as usize..][..4]
                .try_into()
                .expect("4"),
        ) as usize
    }

    #[test]
    fn a_copied_block_is_the_block_a_fresh_build_encodes() {
        let v = vfs();
        let (r, scan) = input(&v, "in", 1, &entries(0..20, &[], false));
        let (image, reused) = build(&v, "out", 1, &scan, &[&r]);
        let (fresh, _) = build(&v, "fresh", 1, &scan, &[]);
        assert_eq!(blocks(&image), 7);
        assert_eq!(reused, 7, "every block, the short last one too");
        assert!(image == fresh, "copied image differs from a fresh build");
    }

    #[test]
    fn a_dropped_tombstone_re_encodes_its_block() {
        // The tombstone makes the input's first block four entries long;
        // without it the output's first is three, and the rest line up.
        let v = vfs();
        let (r, scan) = input(&v, "in", 1, &entries(0..20, &[1], false));
        let live: Vec<Scanned> = scan.into_iter().filter(|(_, v)| v.is_some()).collect();
        let (image, reused) = build(&v, "out", 1, &live, &[&r]);
        let (fresh, _) = build(&v, "fresh", 1, &live, &[]);
        assert_eq!((blocks(&image), reused), (7, 6));
        assert!(image == fresh);
    }

    #[test]
    fn another_levels_blocks_are_re_encoded() {
        let v = vfs();
        let (r, scan) = input(&v, "in", 3, &entries(0..20, &[], false));
        assert!(
            r.stored_block_at(&scan[0].0, 0).is_some(),
            "offered, stored at level 3"
        );
        let (image, reused) = build(&v, "out", 1, &scan, &[&r]);
        let (fresh, _) = build(&v, "fresh", 1, &scan, &[]);
        assert_eq!(reused, 0);
        assert!(image == fresh);
    }

    #[test]
    fn an_lz_container_is_never_copied() {
        // Offered its own block's LZ container, the builder encodes
        // anyway: only stored containers are copied.
        let v = vfs();
        let all = entries(0..20, &[], true);
        let (want, _) = build(&v, "in", 1, &all, &[]);
        let footer = Footer::decode(&want[want.len() - FOOTER_LEN..]).expect("footer");
        let index_bytes = &want[footer.index_off as usize..footer.bloom_off as usize];
        let index = BlockIndex::decode(index_bytes.to_vec().into()).expect("index");
        let mut containers = (index.entries.iter())
            .map(|e| FileSlice::from(want[e.offset as usize..][..e.len as usize].to_vec()));
        let mut b = SstableBuilder::create_bg(v.clone(), "out", 4096, 10, 0)
            .expect("create")
            .with_compression(Compression::from_level(1));
        for (k, value) in &all {
            b.add_reusing(k, value.as_deref(), || containers.next())
                .expect("add");
        }
        let (meta, reused) = b.finish_counted().expect("finish");
        assert_eq!(reused, 0);
        assert_eq!(containers.next(), None, "offered once per block");
        let image = v.read_at(v.open("out").expect("open"), 0, meta.file_bytes as usize);
        assert!(image.expect("read") == want);
    }

    #[test]
    fn memtable_entries_are_re_encoded() {
        // The same bytes, but owned rather than ranges of the input.
        let v = vfs();
        let owned = entries(0..20, &[], false);
        let (r, _) = input(&v, "in", 1, &owned);
        let (image, reused) = build(&v, "out", 1, &owned, &[&r]);
        assert_eq!(reused, 0);
        assert!(image == build(&v, "fresh", 1, &owned, &[]).0);
    }

    #[test]
    fn a_short_last_block_followed_by_more_entries_is_re_encoded() {
        // Input one is blocks of 3, 3 and 2 entries; the output's third
        // block adds one of input two's, and stays out of step with
        // input two's blocks from there on.
        let v = vfs();
        let (one, mut scan) = input(&v, "in-1", 1, &entries(0..8, &[], false));
        let (two, rest) = input(&v, "in-2", 1, &entries(8..26, &[], false));
        scan.extend(rest);
        let (image, reused) = build(&v, "out", 1, &scan, &[&one, &two]);
        assert_eq!(reused, 2);
        assert!(image == build(&v, "fresh", 1, &scan, &[]).0);
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
