//! On-"disk" record format of the value log.
//!
//! Every record is self-describing so segments can be replayed after a
//! crash and rewritten by GC without any out-of-band metadata:
//!
//! ```text
//! [seq: u64 LE][flags: u8][key_len: u32 LE][value_len: u32 LE][key][value]
//! ```
//!
//! `seq` is a global, monotonically increasing sequence number assigned
//! at write time and preserved across GC relocation; recovery applies
//! records in `seq` order, so the newest version of a key wins no
//! matter which segment it physically lives in.

use ptsbench_vfs::StoreError;

use crate::Result;

/// Byte length of the fixed record header.
pub(crate) const HEADER_BYTES: usize = 8 + 1 + 4 + 4;

/// `flags` value marking a tombstone (delete) record.
pub(crate) const FLAG_TOMBSTONE: u8 = 1;

/// A decoded record header plus key (the value is read separately).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Record {
    /// Global write sequence number.
    pub seq: u64,
    /// Whether this record deletes the key.
    pub tombstone: bool,
    /// The key.
    pub key: Vec<u8>,
    /// Byte length of the value (0 for tombstones).
    pub value_len: u32,
}

impl Record {
    /// Total encoded length of a record with this key/value size.
    pub(crate) fn encoded_len(key_len: usize, value_len: usize) -> u64 {
        (HEADER_BYTES + key_len + value_len) as u64
    }

    /// Appends an encoded put record to `buf`.
    pub(crate) fn encode_put(buf: &mut Vec<u8>, seq: u64, key: &[u8], value: &[u8]) {
        buf.extend_from_slice(&seq.to_le_bytes());
        buf.push(0);
        buf.extend_from_slice(&(key.len() as u32).to_le_bytes());
        buf.extend_from_slice(&(value.len() as u32).to_le_bytes());
        buf.extend_from_slice(key);
        buf.extend_from_slice(value);
    }

    /// Appends an encoded tombstone record to `buf`.
    pub(crate) fn encode_tombstone(buf: &mut Vec<u8>, seq: u64, key: &[u8]) {
        buf.extend_from_slice(&seq.to_le_bytes());
        buf.push(FLAG_TOMBSTONE);
        buf.extend_from_slice(&(key.len() as u32).to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(key);
    }

    /// Decodes the record starting at `offset` in `buf`; returns the
    /// record and the offset one past its end.
    pub(crate) fn decode(buf: &[u8], offset: usize) -> Result<(Record, usize)> {
        let header_end = offset + HEADER_BYTES;
        if header_end > buf.len() {
            return Err(StoreError::Corruption(format!(
                "truncated record header at offset {offset}"
            )));
        }
        let seq = u64::from_le_bytes(buf[offset..offset + 8].try_into().expect("8 bytes"));
        let flags = buf[offset + 8];
        let key_len =
            u32::from_le_bytes(buf[offset + 9..offset + 13].try_into().expect("4 bytes")) as usize;
        let value_len =
            u32::from_le_bytes(buf[offset + 13..offset + 17].try_into().expect("4 bytes"));
        let tombstone = flags & FLAG_TOMBSTONE != 0;
        if tombstone && value_len != 0 {
            return Err(StoreError::Corruption(format!(
                "tombstone with value at offset {offset}"
            )));
        }
        let end = header_end + key_len + value_len as usize;
        if end > buf.len() {
            return Err(StoreError::Corruption(format!(
                "truncated record body at offset {offset}"
            )));
        }
        let key = buf[header_end..header_end + key_len].to_vec();
        Ok((
            Record {
                seq,
                tombstone,
                key,
                value_len,
            },
            end,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let mut buf = Vec::new();
        Record::encode_put(&mut buf, 7, b"alpha", b"value-bytes");
        Record::encode_tombstone(&mut buf, 8, b"beta");
        let (r1, next) = Record::decode(&buf, 0).expect("first");
        assert_eq!(
            r1,
            Record {
                seq: 7,
                tombstone: false,
                key: b"alpha".to_vec(),
                value_len: 11
            }
        );
        assert_eq!(next as u64, Record::encoded_len(5, 11));
        let (r2, end) = Record::decode(&buf, next).expect("second");
        assert_eq!(
            r2,
            Record {
                seq: 8,
                tombstone: true,
                key: b"beta".to_vec(),
                value_len: 0
            }
        );
        assert_eq!(end, buf.len());
    }

    #[test]
    fn truncation_is_corruption() {
        let mut buf = Vec::new();
        Record::encode_put(&mut buf, 1, b"k", b"v");
        assert!(Record::decode(&buf[..buf.len() - 1], 0).is_err());
        assert!(Record::decode(&buf[..4], 0).is_err());
    }
}
