//! Bloom filters for SSTable point lookups.
//!
//! Standard Kirsch–Mitzenmacher double hashing: two 64-bit hash values
//! combine into k probe positions. At 10 bits/key (the RocksDB default)
//! the false-positive rate is ~1%.

/// An immutable bloom filter built over a set of keys.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BloomFilter {
    bits: Vec<u64>,
    num_bits: u64,
    num_probes: u32,
}

impl BloomFilter {
    /// Builds a filter sized for `keys.len()` keys at `bits_per_key`.
    ///
    /// An empty key set gets a single all-zero word explicitly (rather
    /// than silently sizing for one phantom key): every query then
    /// answers "definitely absent", which is the correct semantics for
    /// a table with no keys.
    pub fn build<K: AsRef<[u8]>>(keys: &[K], bits_per_key: u32) -> Self {
        let hashes = keys.iter().map(|k| hash_pair(k.as_ref()));
        Self::sized_for(keys.len(), hashes, bits_per_key)
    }

    /// [`BloomFilter::build`] from the keys' [`hash_pair`]s — all the
    /// filter ever needs of a key, so a table builder keeps 16 bytes per
    /// entry instead of a copy of every key.
    pub(crate) fn from_hashes(hashes: &[(u64, u64)], bits_per_key: u32) -> Self {
        Self::sized_for(hashes.len(), hashes.iter().copied(), bits_per_key)
    }

    fn sized_for(keys: usize, hashes: impl Iterator<Item = (u64, u64)>, bits_per_key: u32) -> Self {
        let num_bits = if keys == 0 {
            64
        } else {
            (keys as u64 * bits_per_key as u64).max(64)
        };
        let num_probes = ((bits_per_key as f64 * 0.69) as u32).clamp(1, 30);
        let mut filter = Self {
            bits: vec![0; num_bits.div_ceil(64) as usize],
            num_bits,
            num_probes,
        };
        for (h1, h2) in hashes {
            for i in 0..filter.num_probes {
                let bit = h1.wrapping_add((i as u64).wrapping_mul(h2)) % filter.num_bits;
                filter.bits[(bit / 64) as usize] |= 1 << (bit % 64);
            }
        }
        filter
    }

    /// Whether the key *may* be present (false positives possible, false
    /// negatives impossible).
    pub fn may_contain(&self, key: &[u8]) -> bool {
        let (h1, h2) = hash_pair(key);
        for i in 0..self.num_probes {
            let bit = h1.wrapping_add((i as u64).wrapping_mul(h2)) % self.num_bits;
            if self.bits[(bit / 64) as usize] & (1 << (bit % 64)) == 0 {
                return false;
            }
        }
        true
    }

    /// Serialized size in bytes (for file-format accounting).
    pub fn encoded_len(&self) -> usize {
        8 + 4 + self.bits.len() * 8
    }

    /// Serializes the filter.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.num_bits.to_le_bytes());
        out.extend_from_slice(&self.num_probes.to_le_bytes());
        for w in &self.bits {
            out.extend_from_slice(&w.to_le_bytes());
        }
    }

    /// Deserializes a filter; `None` on malformed input.
    pub fn decode(buf: &[u8]) -> Option<Self> {
        if buf.len() < 12 {
            return None;
        }
        let num_bits = u64::from_le_bytes(buf[0..8].try_into().ok()?);
        let num_probes = u32::from_le_bytes(buf[8..12].try_into().ok()?);
        let words = num_bits.div_ceil(64) as usize;
        if buf.len() < 12 + words * 8 || num_probes == 0 || num_bits == 0 {
            return None;
        }
        let bits = buf[12..12 + words * 8]
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("chunk of 8")))
            .collect();
        Some(Self {
            bits,
            num_bits,
            num_probes,
        })
    }
}

/// The two hash values a key's probe positions derive from.
pub(crate) fn hash_pair(key: &[u8]) -> (u64, u64) {
    // FNV-1a then a finalizing avalanche for the second hash.
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in key {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    let mut h2 = h;
    h2 ^= h2 >> 33;
    h2 = h2.wrapping_mul(0xff51afd7ed558ccd);
    h2 ^= h2 >> 33;
    (h, h2 | 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let keys: Vec<Vec<u8>> = (0..1000u32).map(|i| i.to_le_bytes().to_vec()).collect();
        let f = BloomFilter::build(&keys, 10);
        for k in &keys {
            assert!(f.may_contain(k), "bloom lost key {k:?}");
        }
    }

    #[test]
    fn false_positive_rate_reasonable() {
        let keys: Vec<Vec<u8>> = (0..10_000u32).map(|i| i.to_le_bytes().to_vec()).collect();
        let f = BloomFilter::build(&keys, 10);
        let fp = (10_000..20_000u32)
            .filter(|i| f.may_contain(&i.to_le_bytes()))
            .count();
        let rate = fp as f64 / 10_000.0;
        assert!(
            rate < 0.03,
            "false-positive rate {rate} too high for 10 bits/key"
        );
    }

    #[test]
    fn encode_decode_round_trip() {
        let keys: Vec<Vec<u8>> = (0..100u32).map(|i| i.to_le_bytes().to_vec()).collect();
        let f = BloomFilter::build(&keys, 10);
        let mut buf = Vec::new();
        f.encode(&mut buf);
        assert_eq!(buf.len(), f.encoded_len());
        let g = BloomFilter::decode(&buf).expect("decode");
        assert_eq!(f, g);
        assert!(
            BloomFilter::decode(&buf[..5]).is_none(),
            "truncated input rejected"
        );
    }

    #[test]
    fn hash_pairs_build_the_same_filter() {
        let keys: Vec<Vec<u8>> = (0..500u32).map(|i| i.to_le_bytes().to_vec()).collect();
        let hashes: Vec<(u64, u64)> = keys.iter().map(|k| hash_pair(k)).collect();
        for bits in [4, 10] {
            assert_eq!(
                BloomFilter::from_hashes(&hashes, bits),
                BloomFilter::build(&keys, bits)
            );
        }
        assert_eq!(
            BloomFilter::from_hashes(&[], 10),
            BloomFilter::build(&Vec::<Vec<u8>>::new(), 10)
        );
    }

    #[test]
    fn empty_key_set_rejects_everything() {
        let f = BloomFilter::build(&Vec::<Vec<u8>>::new(), 10);
        for key in [&b"anything"[..], b"", b"k000042"] {
            assert!(
                !f.may_contain(key),
                "an empty filter must answer definitely-absent"
            );
        }
        let mut buf = Vec::new();
        f.encode(&mut buf);
        assert_eq!(
            buf.len(),
            f.encoded_len(),
            "empty filters stay one word: {} bytes",
            buf.len()
        );
    }

    #[test]
    fn ten_bits_per_key_pins_one_percent_false_positives() {
        // The RocksDB-default operating point the reader relies on:
        // 10 bits/key with K-M double hashing lands near the textbook
        // ~1% false-positive rate. Pin it inside a factor of two.
        let keys: Vec<Vec<u8>> = (0..50_000u32)
            .map(|i| format!("k{i:012}").into_bytes())
            .collect();
        let f = BloomFilter::build(&keys, 10);
        let fp = (50_000..150_000u32)
            .filter(|i| f.may_contain(format!("k{i:012}").as_bytes()))
            .count();
        let rate = fp as f64 / 100_000.0;
        assert!(
            (0.005..0.02).contains(&rate),
            "false-positive rate {rate} out of the ~1% band at 10 bits/key"
        );
    }
}
