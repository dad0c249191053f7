//! Binary encoding of SSTable entries, index and footer.

use std::ops::Range;

use ptsbench_vfs::{cmp_keys, FileSlice, StoreError};

/// Value tag marking a tombstone (no value bytes follow).
pub(crate) const TOMBSTONE_TAG: u32 = u32::MAX;

/// Magic bytes terminating a valid SSTable.
pub const MAGIC: &[u8; 4] = b"PTSS";

/// Bytes of an entry before its key: `u16` key length, `u32` value tag.
pub(crate) const ENTRY_HEADER_LEN: usize = 2 + 4;

/// Footer size in bytes.
pub(crate) const FOOTER_LEN: usize = 8 + 4 + 8 + 4 + 8 + 4 + 4;

/// Summary of a finished SSTable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SstableMeta {
    /// File name within the VFS.
    pub name: String,
    /// Smallest key in the table.
    pub min_key: Vec<u8>,
    /// Largest key in the table.
    pub max_key: Vec<u8>,
    /// Number of entries (including tombstones).
    pub entries: u64,
    /// Total file size in bytes.
    pub file_bytes: u64,
}

impl SstableMeta {
    /// Whether the table's key range overlaps `[min, max]` (inclusive).
    pub fn overlaps(&self, min: &[u8], max: &[u8]) -> bool {
        cmp_keys(&self.min_key, max).is_le() && cmp_keys(&self.max_key, min).is_ge()
    }
}

/// One index entry: a data block's location. Its first key is a range
/// of the index block its [`BlockIndex`] keeps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexEntry {
    first_key: Range<u32>,
    /// Byte offset of the block in the file.
    pub offset: u64,
    /// Byte length of the block.
    pub len: u32,
    /// Number of entries in the block.
    pub entries: u32,
}

/// A table's block index, decoded in place: the first keys stay where
/// they are in the index block as it was read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockIndex {
    block: FileSlice,
    /// The blocks, in file order.
    pub entries: Vec<IndexEntry>,
}

impl BlockIndex {
    /// First key stored in `block`, an entry of this index.
    pub(crate) fn first_key(&self, block: &IndexEntry) -> &[u8] {
        &self.block[block.first_key.start as usize..block.first_key.end as usize]
    }

    /// Whether `slice` is a range of the bytes this index was decoded
    /// from: of the table file's contents as read, when both came from
    /// reads of the file.
    pub(crate) fn shares_buffer(&self, slice: &FileSlice) -> bool {
        self.block.shares_buffer(slice)
    }

    /// How many blocks begin at or before `key`: the block that can
    /// hold it is the last of them.
    pub(crate) fn blocks_from(&self, key: &[u8]) -> usize {
        let block: &[u8] = &self.block;
        self.entries.partition_point(|e| {
            let first = &block[e.first_key.start as usize..e.first_key.end as usize];
            cmp_keys(first, key).is_le()
        })
    }

    /// Decodes an index block: `u32` entry count, then the entries.
    pub(crate) fn decode(block: FileSlice) -> Result<Self, StoreError> {
        let corrupt = || StoreError::Corruption("truncated index".into());
        let buf = &block[..];
        if buf.len() < 4 || buf.len() > u32::MAX as usize {
            return Err(corrupt());
        }
        let n = u32::from_le_bytes(buf[0..4].try_into().expect("4 bytes")) as usize;
        let mut pos = 4;
        // An entry takes at least 18 bytes: a count beyond that is corrupt.
        let mut entries = Vec::with_capacity(n.min(buf.len() / 18));
        for _ in 0..n {
            if pos + 2 > buf.len() {
                return Err(corrupt());
            }
            let klen = u16::from_le_bytes(buf[pos..pos + 2].try_into().expect("2 bytes")) as usize;
            pos += 2;
            if pos + klen + 16 > buf.len() {
                return Err(corrupt());
            }
            let first_key = pos as u32..(pos + klen) as u32;
            pos += klen;
            let offset = u64::from_le_bytes(buf[pos..pos + 8].try_into().expect("8 bytes"));
            let len = u32::from_le_bytes(buf[pos + 8..pos + 12].try_into().expect("4 bytes"));
            let count = u32::from_le_bytes(buf[pos + 12..pos + 16].try_into().expect("4 bytes"));
            pos += 16;
            entries.push(IndexEntry {
                first_key,
                offset,
                len,
                entries: count,
            });
        }
        Ok(Self { block, entries })
    }
}

/// Appends one entry of the index block to `out`.
pub(crate) fn encode_index_entry(
    out: &mut Vec<u8>,
    first_key: &[u8],
    offset: u64,
    len: u32,
    entries: u32,
) {
    out.extend_from_slice(&(first_key.len() as u16).to_le_bytes());
    out.extend_from_slice(first_key);
    out.extend_from_slice(&offset.to_le_bytes());
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&entries.to_le_bytes());
}

/// Appends an entry encoding to `out`. The key is at most `u16::MAX`
/// bytes: `LsmDb` refuses a longer one before it reaches the WAL.
pub fn encode_entry(out: &mut Vec<u8>, key: &[u8], value: Option<&[u8]>) {
    encode_entry_head(out, key, value.map(<[u8]>::len));
    if let Some(v) = value {
        out.extend_from_slice(v);
    }
}

/// Appends an entry's header and key to `out`: everything but the
/// value bytes, which follow them (`value_len` of them; `None` is a
/// tombstone).
pub(crate) fn encode_entry_head(out: &mut Vec<u8>, key: &[u8], value_len: Option<usize>) {
    debug_assert!(key.len() <= u16::MAX as usize, "key too long");
    let tag = value_len.map_or(TOMBSTONE_TAG, |len| len as u32);
    debug_assert!(value_len.is_none() || tag != TOMBSTONE_TAG);
    out.extend_from_slice(&(key.len() as u16).to_le_bytes());
    out.extend_from_slice(&tag.to_le_bytes());
    out.extend_from_slice(key);
}

/// A decoded entry: `(key, value-or-tombstone, next_position)`.
pub(crate) type DecodedEntry<'a> = (&'a [u8], Option<&'a [u8]>, usize);

/// Where an entry's key and value sit in the buffer it was decoded
/// from: `(key range, value range or tombstone, next_position)`.
pub(crate) type EntryRanges = (Range<usize>, Option<Range<usize>>, usize);

/// Locates the entry at `buf[pos..]` without touching its bytes.
pub(crate) fn entry_ranges(buf: &[u8], pos: usize) -> Result<EntryRanges, StoreError> {
    let need = |ok: bool| {
        if ok {
            Ok(())
        } else {
            Err(StoreError::Corruption("truncated entry".into()))
        }
    };
    need(pos + ENTRY_HEADER_LEN <= buf.len())?;
    let klen = u16::from_le_bytes(buf[pos..pos + 2].try_into().expect("2 bytes")) as usize;
    let vtag = u32::from_le_bytes(buf[pos + 2..pos + 6].try_into().expect("4 bytes"));
    let kstart = pos + ENTRY_HEADER_LEN;
    let vstart = kstart + klen;
    need(vstart <= buf.len())?;
    if vtag == TOMBSTONE_TAG {
        return Ok((kstart..vstart, None, vstart));
    }
    let vend = vstart + vtag as usize;
    need(vend <= buf.len())?;
    Ok((kstart..vstart, Some(vstart..vend), vend))
}

/// Decodes the entry at `buf[pos..]`; returns `(key, value, next_pos)`.
pub(crate) fn decode_entry(buf: &[u8], pos: usize) -> Result<DecodedEntry<'_>, StoreError> {
    let (key, value, next) = entry_ranges(buf, pos)?;
    Ok((&buf[key], value.map(|v| &buf[v]), next))
}

/// The fixed-size footer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Footer {
    /// Offset of the index block.
    pub index_off: u64,
    /// Length of the index block.
    pub index_len: u32,
    /// Offset of the bloom block.
    pub bloom_off: u64,
    /// Length of the bloom block (0 = no bloom).
    pub bloom_len: u32,
    /// Total entries in the table.
    pub entries: u64,
    /// Total data-block entries per block checksum surrogate (reserved).
    pub reserved: u32,
}

impl Footer {
    /// Encodes the footer (always [`FOOTER_LEN`] bytes).
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.index_off.to_le_bytes());
        out.extend_from_slice(&self.index_len.to_le_bytes());
        out.extend_from_slice(&self.bloom_off.to_le_bytes());
        out.extend_from_slice(&self.bloom_len.to_le_bytes());
        out.extend_from_slice(&self.entries.to_le_bytes());
        out.extend_from_slice(&self.reserved.to_le_bytes());
        out.extend_from_slice(MAGIC);
    }

    /// Decodes and validates a footer.
    pub(crate) fn decode(buf: &[u8]) -> Result<Self, StoreError> {
        if buf.len() != FOOTER_LEN {
            return Err(StoreError::Corruption(format!(
                "footer length {}",
                buf.len()
            )));
        }
        if &buf[FOOTER_LEN - 4..] != MAGIC {
            return Err(StoreError::Corruption("bad magic".into()));
        }
        Ok(Self {
            index_off: u64::from_le_bytes(buf[0..8].try_into().expect("8")),
            index_len: u32::from_le_bytes(buf[8..12].try_into().expect("4")),
            bloom_off: u64::from_le_bytes(buf[12..20].try_into().expect("8")),
            bloom_len: u32::from_le_bytes(buf[20..24].try_into().expect("4")),
            entries: u64::from_le_bytes(buf[24..32].try_into().expect("8")),
            reserved: u32::from_le_bytes(buf[32..36].try_into().expect("4")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_round_trip() {
        let mut buf = Vec::new();
        encode_entry(&mut buf, b"key1", Some(b"value1"));
        encode_entry(&mut buf, b"key2", None);
        encode_entry(&mut buf, b"key3", Some(b""));
        let (k, v, p) = decode_entry(&buf, 0).expect("decode");
        assert_eq!((k, v), (&b"key1"[..], Some(&b"value1"[..])));
        let (k, v, p) = decode_entry(&buf, p).expect("decode");
        assert_eq!((k, v), (&b"key2"[..], None));
        let (k, v, p) = decode_entry(&buf, p).expect("decode");
        assert_eq!((k, v), (&b"key3"[..], Some(&b""[..])));
        assert_eq!(p, buf.len());
    }

    #[test]
    fn truncated_entry_is_corruption() {
        let mut buf = Vec::new();
        encode_entry(&mut buf, b"key1", Some(b"value1"));
        assert!(decode_entry(&buf[..buf.len() - 1], 0).is_err());
        assert!(decode_entry(&buf[..3], 0).is_err());
    }

    #[test]
    fn index_round_trip() {
        let blocks = [(&b"aaa"[..], 0u64, 4096u32, 10u32), (b"mmm", 4096, 2048, 5)];
        let mut buf = (blocks.len() as u32).to_le_bytes().to_vec();
        for (key, offset, len, entries) in blocks {
            encode_index_entry(&mut buf, key, offset, len, entries);
        }
        let index = BlockIndex::decode(buf.clone().into()).expect("decode");
        assert_eq!(index.entries.len(), 2);
        for (e, (key, offset, len, entries)) in index.entries.iter().zip(blocks) {
            assert_eq!(index.first_key(e), key);
            assert_eq!((e.offset, e.len, e.entries), (offset, len, entries));
        }
        assert_eq!(
            [&b"a"[..], b"aaa", b"bbb", b"mmm", b"z"].map(|k| index.blocks_from(k)),
            [0, 1, 1, 2, 2]
        );
        buf.truncate(buf.len() - 2);
        assert!(BlockIndex::decode(buf.into()).is_err());
    }

    #[test]
    fn footer_round_trip() {
        let f = Footer {
            index_off: 1000,
            index_len: 64,
            bloom_off: 1064,
            bloom_len: 32,
            entries: 77,
            reserved: 0,
        };
        let mut buf = Vec::new();
        f.encode(&mut buf);
        assert_eq!(buf.len(), FOOTER_LEN);
        assert_eq!(Footer::decode(&buf).expect("decode"), f);
        buf[FOOTER_LEN - 1] = b'X';
        assert!(Footer::decode(&buf).is_err(), "bad magic rejected");
    }

    #[test]
    fn meta_overlap() {
        let m = SstableMeta {
            name: "t".into(),
            min_key: b"c".to_vec(),
            max_key: b"f".to_vec(),
            entries: 1,
            file_bytes: 10,
        };
        assert!(m.overlaps(b"a", b"c"));
        assert!(m.overlaps(b"d", b"e"));
        assert!(m.overlaps(b"f", b"z"));
        assert!(!m.overlaps(b"a", b"b"));
        assert!(!m.overlaps(b"g", b"z"));
    }
}
