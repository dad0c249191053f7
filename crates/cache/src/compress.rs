//! Deterministic byte-oriented block compression with a virtual-time
//! CPU cost model.
//!
//! Real engines trade CPU for device bytes through a codec level knob
//! (RocksDB/marble expose it as `zstd_sstable_compression_level`); this
//! simulation needs the same trade-off without a native codec
//! dependency. The codec here is a small LZ77: greedy hash-chain
//! matching where the **level** sets the chain-probe depth (more
//! probes, better matches, more virtual CPU time). Output is a
//! self-describing container that falls back to stored mode when
//! compression does not pay, so `decode(encode(x)) == x` for every
//! input — the lossless property `tests/proptest_cache.rs` pins.
//!
//! CPU costs are charged in *virtual* nanoseconds by the caller
//! (through the simulated clock), never in wall time:
//! `encode_cost_ns` grows with the level, `decode_cost_ns` is flat —
//! the usual asymmetric shape of real codecs. Host time is therefore
//! free to optimise, as long as the bytes stay put: table images and
//! segment files are pinned (`tests/codec_parity.rs`, the engines'
//! parity suites), and the match finder below is held to the plain
//! formulation it replaced — `usize::MAX`-terminated chains compared
//! byte by byte, kept as the oracle of this module's property test.
//!
//! # The match finder's chains
//!
//! The decisions are the textbook ones: at each position walk the chain
//! of earlier positions whose 4-byte window hashes alike, most recent
//! first, at most `level` of them, stop at the first one farther than
//! `MAX_DIST`, keep the longest match (the most recent on ties) and
//! take it greedily if it reaches `MIN_MATCH`. Three representation
//! choices make that walk cheap without changing what it finds:
//!
//! - **Positions, not pointers or sentinels.** `head[hash]` and
//!   `prev[pos]` hold `u32` positions into the block; a walk is
//!   `cand = prev[cand]`.
//! - **Every chain ends at position 0.** The tables start zeroed, which
//!   already *is* the state after inserting position 0: it is the first
//!   position inserted, so the oldest member of its own chain, and a
//!   bucket nothing was inserted into reads as "position 0" too. There
//!   is no empty marker to test before each probe — on incompressible
//!   blocks that test was a coin flip per input byte. In a bucket
//!   other than its own, position 0 is a candidate whose window hashes
//!   differently from the current one, so its window differs, so the
//!   next rule discards it; the probe it consumed would have found the
//!   chain exhausted anyway.
//! - **A candidate is first compared as a 4-byte word.** One that
//!   differs from the current window there matches fewer than
//!   `MIN_MATCH` bytes; it could never be emitted, nor displace one
//!   that can (a longer match always replaces it, and no match at all
//!   is emitted below `MIN_MATCH`), so skipping it — while still
//!   charging its probe — leaves the choice and the tie-break where
//!   they were. Survivors extend eight bytes at a time.
//!
//! The search depth is a compile-time constant: there is one source
//! loop, `compress_body_at::<PROBES>`, and one instance of it per
//! level, picked by a `match` on the level once per block. A depth read
//! at run time would make one loop serve every level and pay the walk's
//! bookkeeping — the probe counter, the tests that end the walk, the
//! best match kept across probes — at every input position, even at
//! level 1, where there is nothing to walk. Compiled for one depth, the
//! tests that cannot fire at that depth fold away: the level-1 instance
//! compares one candidate and never touches `prev`, and on the 8 KB
//! incompressible blocks the LSM seals it runs about twice as fast as
//! a loop with a run-time depth does at level 1 (timed in one process,
//! interleaved, over 64 distinct blocks, same bytes out).
//!
//! A walk that has reached position 0 has seen its whole chain, and
//! `prev[0]` is 0, so it may either stop or idle there re-reading a
//! candidate that can no longer change the outcome. At depths above
//! `SPIN_PROBES` it idles for its first `SPIN_PROBES` probes and asks
//! "was that position 0?" only from then on: on the 8 KB blocks the LSM
//! seals half the buckets are empty, so asked after the first probe the
//! question is the same coin flip again, while two probes later nearly
//! every short chain has ended and no long one has — a branch that
//! predicts. Two idle probes cost less than one misprediction. At
//! depths up to `SPIN_PROBES` the walk's probe budget ends it first, so
//! those instances never ask.

/// Container header: magic, mode, level, raw length.
const HEADER_LEN: usize = 8;
const MAGIC: [u8; 2] = *b"PZ";
const MODE_STORED: u8 = 0;
const MODE_LZ: u8 = 1;

/// Shortest match worth encoding (a match token costs 3 bytes).
const MIN_MATCH: usize = 4;
/// Longest match one token can carry: `(0x7F) + MIN_MATCH`.
const MAX_MATCH: usize = 131;
/// Longest backward distance a 2-byte field can address.
const MAX_DIST: usize = 65_535;
/// Hash-chain head table size (power of two).
const HASH_SIZE: usize = 1 << 13;
/// Probes a walk makes before it starts asking whether its chain has
/// ended (see the module docs).
const SPIN_PROBES: usize = 3;

/// The codec setting carried through engine options and `RunConfig`.
///
/// `None` is the default and is exactly the pre-codec write path: no
/// container, no CPU cost, byte-identical output. Levels 1–9 raise the
/// match-search effort (better ratio, more virtual encode time).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Compression {
    /// No compression: blocks are written raw (the seed behavior).
    #[default]
    None,
    /// LZ77 with the given effort level (clamped to 1..=9).
    Level(u8),
}

impl Compression {
    /// Maps the `RunConfig`-style integer knob onto the codec: 0 is
    /// off, anything else clamps into 1..=9.
    pub fn from_level(level: u8) -> Self {
        if level == 0 {
            Compression::None
        } else {
            Compression::Level(level.min(9))
        }
    }

    /// The integer knob value (0 when off).
    pub fn level(&self) -> u8 {
        match self {
            Compression::None => 0,
            Compression::Level(l) => *l,
        }
    }

    /// Whether encoding is enabled at all.
    pub fn is_active(&self) -> bool {
        !matches!(self, Compression::None)
    }

    /// Encodes `raw` into a self-describing container. With
    /// `Compression::None` the payload is stored verbatim (callers
    /// normally skip the container entirely in that case). One-shot
    /// form of [`Compression::encode_into`].
    pub fn encode(&self, raw: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(raw, &mut EncodeScratch::default(), &mut out);
        out
    }

    /// Appends the container for `raw` to `out`, for callers that seal
    /// block after block: the match finder's tables live in `scratch`
    /// and the container is built where it will be written from — the
    /// LZ body straight onto `out`, replaced by `raw` itself when it
    /// does not pay.
    pub fn encode_into(&self, raw: &[u8], scratch: &mut EncodeScratch, out: &mut Vec<u8>) {
        assert!(raw.len() <= u32::MAX as usize, "block too large for codec");
        let start = out.len();
        // Room for the worst body, all literals: one token per 128.
        out.reserve(HEADER_LEN + raw.len() + raw.len() / 128 + 1);
        out.extend_from_slice(&MAGIC);
        out.push(MODE_STORED);
        out.push(self.level());
        out.extend_from_slice(&(raw.len() as u32).to_le_bytes());
        if let Compression::Level(level) = self {
            let body = out.len();
            compress_body(raw, *level, scratch, out);
            if out.len() - body < raw.len() {
                out[start + 2] = MODE_LZ;
                return;
            }
            out.truncate(body);
        }
        out.extend_from_slice(raw);
    }

    /// Decodes a container produced by [`Compression::encode`].
    /// Returns `None` on any structural corruption.
    pub fn decode(data: &[u8]) -> Option<Vec<u8>> {
        let (mode, raw_len, body) = split_container(data)?;
        match mode {
            MODE_STORED => (body.len() == raw_len).then(|| body.to_vec()),
            MODE_LZ => decompress_body(body, raw_len),
            _ => None,
        }
    }

    /// The payload of a stored-mode container, borrowed from it: what
    /// [`Compression::decode`] would return, without the copy. `None`
    /// for an LZ container (decode it) or a corrupt one.
    pub fn stored_payload(data: &[u8]) -> Option<&[u8]> {
        let (mode, raw_len, body) = split_container(data)?;
        (mode == MODE_STORED && body.len() == raw_len).then_some(body)
    }

    /// The payload of `container` when it is a stored-mode container of
    /// this level: what [`Compression::encode_into`] at this level
    /// appends for a block it does not compress. Of a container that
    /// `encode_into` did produce, this is exact: the codec is
    /// deterministic, so encoding the payload again at this level would
    /// append `container` byte for byte. `None` for an LZ container,
    /// another level's, the codec off, or a corrupt one.
    pub fn stored_payload_at_level<'a>(&self, container: &'a [u8]) -> Option<&'a [u8]> {
        let level = self.level();
        (level != 0 && container.get(3) == Some(&level))
            .then(|| Self::stored_payload(container))
            .flatten()
    }

    /// Virtual CPU nanoseconds to encode `raw_len` bytes: one ns per
    /// byte per effort step (level 3 on a 4 KiB block ≈ 16 µs).
    pub fn encode_cost_ns(&self, raw_len: usize) -> u64 {
        match self {
            Compression::None => 0,
            Compression::Level(level) => raw_len as u64 * (1 + *level as u64),
        }
    }

    /// Virtual CPU nanoseconds to decode back to `raw_len` bytes:
    /// half a ns per byte, independent of the encode level.
    pub fn decode_cost_ns(raw_len: usize) -> u64 {
        raw_len as u64 / 2
    }
}

/// `(mode, raw_len, body)` of a container with a well-formed header.
fn split_container(data: &[u8]) -> Option<(u8, usize, &[u8])> {
    if data.len() < HEADER_LEN || data[0..2] != MAGIC {
        return None;
    }
    let raw_len = u32::from_le_bytes(data[4..8].try_into().ok()?) as usize;
    Some((data[2], raw_len, &data[HEADER_LEN..]))
}

/// The match finder's tables, reusable across blocks (see the module
/// docs): whoever seals block after block owns one, so that encoding a
/// block allocates nothing.
#[derive(Debug, Default)]
pub struct EncodeScratch {
    /// Most recent position per hash bucket.
    head: Vec<u32>,
    /// The position inserted before `pos` into the same bucket. Levels
    /// above 1 only; entries are written before they can be reached, so
    /// one block's leftovers never need clearing for the next.
    prev: Vec<u32>,
}

/// The 4-byte window at `pos`, as the word both the hash and the
/// candidate filter work on.
fn window(raw: &[u8], pos: usize) -> u32 {
    u32::from_le_bytes(raw[pos..pos + 4].try_into().expect("4-byte window"))
}

fn hash(window: u32) -> usize {
    (window.wrapping_mul(2_654_435_761) >> 19) as usize & (HASH_SIZE - 1)
}

/// Length of the common prefix of `raw[cand..]` and `raw[i..]`
/// (`cand < i`), eight bytes at a time. Kept out of line: inlined, its
/// set-up is hoisted into the probe loop and paid at every position,
/// where on incompressible blocks no candidate gets this far (measured
/// 18 % of a level-1 encode of such a block).
#[inline(never)]
fn match_len(raw: &[u8], cand: usize, i: usize) -> usize {
    let ahead = &raw[i..];
    let behind = &raw[cand..cand + ahead.len()];
    let mut len = 0;
    for (a, b) in behind.chunks_exact(8).zip(ahead.chunks_exact(8)) {
        let a = u64::from_le_bytes(a.try_into().expect("8-byte chunk"));
        let b = u64::from_le_bytes(b.try_into().expect("8-byte chunk"));
        if a != b {
            return len + ((a ^ b).trailing_zeros() / 8) as usize;
        }
        len += 8;
    }
    len + behind[len..]
        .iter()
        .zip(&ahead[len..])
        .take_while(|(a, b)| a == b)
        .count()
}

fn emit_literals(lits: &[u8], out: &mut Vec<u8>) {
    for chunk in lits.chunks(128) {
        out.push((chunk.len() - 1) as u8);
        out.extend_from_slice(chunk);
    }
}

/// One match as tokens: a token carries at most `MAX_MATCH` bytes, so a
/// longer match is several tokens at the same distance.
fn emit_match(len: usize, dist: usize, out: &mut Vec<u8>) {
    let mut remaining = len;
    while remaining >= MIN_MATCH {
        let mut take = remaining.min(MAX_MATCH);
        if remaining - take > 0 && remaining - take < MIN_MATCH {
            // Keep the leftover emittable as its own token.
            take = remaining - MIN_MATCH;
        }
        out.push(0x80 | (take - MIN_MATCH) as u8);
        out.extend_from_slice(&(dist as u16).to_le_bytes());
        remaining -= take;
    }
    debug_assert_eq!(remaining, 0);
}

/// Makes `pos` the newest member of `bucket`'s chain.
fn insert(head: &mut [u32; HASH_SIZE], prev: &mut [u32], chained: bool, bucket: usize, pos: usize) {
    if chained {
        prev[pos] = head[bucket];
    }
    head[bucket] = pos as u32;
}

/// Appends the token stream for `raw` to `out`, searching `level`
/// candidates per position (clamped to 1..=9) with the match finder
/// compiled for that depth.
fn compress_body(raw: &[u8], level: u8, scratch: &mut EncodeScratch, out: &mut Vec<u8>) {
    match level {
        0 | 1 => compress_body_at::<1>(raw, scratch, out),
        2 => compress_body_at::<2>(raw, scratch, out),
        3 => compress_body_at::<3>(raw, scratch, out),
        4 => compress_body_at::<4>(raw, scratch, out),
        5 => compress_body_at::<5>(raw, scratch, out),
        6 => compress_body_at::<6>(raw, scratch, out),
        7 => compress_body_at::<7>(raw, scratch, out),
        8 => compress_body_at::<8>(raw, scratch, out),
        _ => compress_body_at::<9>(raw, scratch, out),
    }
}

/// [`compress_body`] at a search depth of `PROBES` candidates per
/// position. The module docs explain the chain representation, why it
/// finds what the plain one found and why the depth is a constant.
fn compress_body_at<const PROBES: usize>(
    raw: &[u8],
    scratch: &mut EncodeScratch,
    out: &mut Vec<u8>,
) {
    let chained = PROBES > 1;
    // Positions below this start a whole 4-byte window.
    let hashable = raw.len().saturating_sub(MIN_MATCH - 1);
    scratch.head.clear();
    scratch.head.resize(HASH_SIZE, 0);
    let head: &mut [u32; HASH_SIZE] = (&mut scratch.head[..])
        .try_into()
        .expect("sized just above");
    if chained && scratch.prev.len() < hashable {
        scratch.prev.resize(hashable, 0);
    }
    // `prev[0]` is never written and so stays 0: position 0 links to
    // itself, which is what lets a walk idle at the end of its chain.
    let prev = &mut scratch.prev[..];
    let mut lit_start = 0usize;
    // Position 0 has nothing before it to match, and the zeroed tables
    // already hold it.
    let mut i = 1usize;
    while i < hashable {
        let word = window(raw, i);
        let bucket = hash(word);
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        let mut cand = head[bucket] as usize;
        let mut probe = 0usize;
        loop {
            let dist = i - cand;
            if dist > MAX_DIST {
                break; // Chains age monotonically; older is farther.
            }
            if window(raw, cand) == word {
                let len = match_len(raw, cand, i);
                if len > best_len {
                    best_len = len;
                    best_dist = dist;
                }
            }
            probe += 1;
            if probe == PROBES || (probe >= SPIN_PROBES && cand == 0) {
                break;
            }
            cand = prev[cand] as usize;
        }
        if best_len >= MIN_MATCH {
            emit_literals(&raw[lit_start..i], out);
            emit_match(best_len, best_dist, out);
            for pos in i..(i + best_len).min(hashable) {
                insert(head, prev, chained, hash(window(raw, pos)), pos);
            }
            i += best_len;
            lit_start = i;
        } else {
            insert(head, prev, chained, bucket, i);
            i += 1;
        }
    }
    emit_literals(&raw[lit_start..], out);
}

fn decompress_body(mut body: &[u8], raw_len: usize) -> Option<Vec<u8>> {
    // A 3-byte match token is the densest thing a body can hold: refuse
    // a length no body this short could produce before allocating it.
    if raw_len > body.len() / 3 * MAX_MATCH + MAX_MATCH {
        return None;
    }
    let mut out = Vec::with_capacity(raw_len);
    while !body.is_empty() {
        let token = body[0];
        if token < 0x80 {
            let n = token as usize + 1;
            if body.len() < 1 + n {
                return None;
            }
            out.extend_from_slice(&body[1..1 + n]);
            body = &body[1 + n..];
        } else {
            if body.len() < 3 {
                return None;
            }
            let len = (token & 0x7F) as usize + MIN_MATCH;
            let dist = u16::from_le_bytes([body[1], body[2]]) as usize;
            if dist == 0 || dist > out.len() {
                return None;
            }
            let start = out.len() - dist;
            if dist >= len {
                out.extend_from_within(start..start + len);
            } else {
                // Byte-by-byte so an overlapping copy replicates the
                // trailing window, exactly as the encoder assumed.
                for k in 0..len {
                    let b = out[start + k];
                    out.push(b);
                }
            }
            body = &body[3..];
        }
    }
    (out.len() == raw_len).then_some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(c: Compression, raw: &[u8]) -> Vec<u8> {
        let enc = c.encode(raw);
        let dec = Compression::decode(&enc).expect("valid container");
        assert_eq!(dec, raw, "lossless round-trip");
        enc
    }

    #[test]
    fn repetitive_data_compresses() {
        let raw: Vec<u8> = b"the quick brown fox ".repeat(200).to_vec();
        let enc = round_trip(Compression::Level(3), &raw);
        assert!(
            enc.len() < raw.len() / 4,
            "periodic text must compress well: {} vs {}",
            enc.len(),
            raw.len()
        );
    }

    /// An xorshift stream: no 4-byte repeats to speak of.
    fn noise(words: usize) -> Vec<u8> {
        let mut state = 0x1234_5678_9ABC_DEF0u64;
        let mut raw = Vec::new();
        for _ in 0..words {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            raw.extend_from_slice(&state.to_le_bytes());
        }
        raw
    }

    #[test]
    fn incompressible_data_falls_back_to_stored() {
        let raw = noise(512);
        let enc = round_trip(Compression::Level(9), &raw);
        assert_eq!(enc.len(), raw.len() + HEADER_LEN, "stored mode");
        assert_eq!(enc[2], MODE_STORED);
    }

    #[test]
    fn empty_and_tiny_inputs_round_trip() {
        for raw in [&b""[..], b"a", b"abc", b"aaaa", b"abcdabcdabcd"] {
            round_trip(Compression::Level(1), raw);
            round_trip(Compression::None, raw);
        }
    }

    #[test]
    fn higher_levels_never_do_worse_on_structured_data() {
        let raw: Vec<u8> = (0..4096u32).flat_map(|i| (i / 7).to_le_bytes()).collect();
        let l1 = Compression::Level(1).encode(&raw).len();
        let l9 = Compression::Level(9).encode(&raw).len();
        assert!(l9 <= l1, "more probes cannot hurt the greedy ratio here");
    }

    #[test]
    fn long_matches_span_multiple_tokens() {
        let raw = vec![7u8; 10_000];
        round_trip(Compression::Level(2), &raw);
    }

    #[test]
    fn level_knob_maps_and_costs_scale() {
        assert_eq!(Compression::from_level(0), Compression::None);
        assert_eq!(Compression::from_level(3), Compression::Level(3));
        assert_eq!(Compression::from_level(200), Compression::Level(9));
        assert!(!Compression::None.is_active());
        assert_eq!(Compression::None.encode_cost_ns(4096), 0);
        assert_eq!(Compression::Level(1).encode_cost_ns(4096), 8192);
        assert!(
            Compression::Level(9).encode_cost_ns(4096) > Compression::Level(1).encode_cost_ns(4096)
        );
        assert_eq!(Compression::decode_cost_ns(4096), 2048);
    }

    #[test]
    fn corrupt_containers_are_refused() {
        assert!(Compression::decode(b"").is_none());
        assert!(Compression::decode(b"XYLOPHONE").is_none());
        let mut enc = Compression::Level(1).encode(b"hello hello hello hello");
        enc[4] ^= 0xFF; // corrupt the raw length
        assert!(Compression::decode(&enc).is_none());
        // A 10-byte LZ body cannot hold 4 GiB: refused from the header,
        // before anything that size is allocated.
        let mut huge = Vec::from(MAGIC);
        huge.extend_from_slice(&[MODE_LZ, 1]);
        huge.extend_from_slice(&u32::MAX.to_le_bytes());
        huge.extend_from_slice(&[2, b'a', b'b', b'c', 0xFF, 3, 0, 0xFF, 3, 0]);
        assert_eq!(huge.len(), HEADER_LEN + 10);
        assert!(Compression::decode(&huge).is_none());
        // The same body under the length it does produce decodes.
        huge[4..8].copy_from_slice(&(3 + 131 + 131u32).to_le_bytes());
        assert_eq!(
            Compression::decode(&huge),
            Some(b"abc".repeat(89)[..265].to_vec())
        );
    }

    #[test]
    fn stored_payload_borrows_what_decode_copies() {
        let noise = noise(75);
        let stored = Compression::Level(1).encode(&noise);
        assert_eq!(Compression::stored_payload(&stored), Some(&noise[..]));
        let lz = Compression::Level(1).encode(&[7u8; 600]);
        assert_eq!(Compression::stored_payload(&lz), None);
        assert_eq!(
            Compression::stored_payload(&stored[..stored.len() - 1]),
            None
        );
        assert_eq!(Compression::stored_payload(b"PZ"), None);
    }

    #[test]
    fn stored_payload_at_level_is_this_levels_stored_container() {
        let noise = noise(75);
        let stored = Compression::Level(3).encode(&noise);
        assert_eq!(
            Compression::Level(3).stored_payload_at_level(&stored),
            Some(&noise[..])
        );
        assert_eq!(Compression::Level(1).stored_payload_at_level(&stored), None);
        assert_eq!(Compression::None.stored_payload_at_level(&stored), None);
        let lz = Compression::Level(3).encode(&[7u8; 600]);
        assert_eq!(Compression::Level(3).stored_payload_at_level(&lz), None);
        assert_eq!(Compression::Level(3).stored_payload_at_level(b"PZ"), None);
    }

    #[test]
    fn encode_into_appends_the_container_in_place() {
        let noise = noise(625);
        let text = b"the quick brown fox ".repeat(200);
        let mut scratch = EncodeScratch::default();
        let mut out = b"already staged".to_vec();
        let mut expected = out.clone();
        // One scratch across modes, levels and sizes: nothing a block
        // leaves in the tables may reach the next one.
        for (raw, level) in [(&noise, 3), (&text, 3), (&noise, 1), (&text, 1), (&text, 9)] {
            let codec = Compression::Level(level);
            codec.encode_into(raw, &mut scratch, &mut out);
            expected.extend_from_slice(&codec.encode(raw));
            assert_eq!(out, expected);
        }
    }

    /// The match finder `compress_body` replaced, verbatim: chains of
    /// `usize` positions ending in `usize::MAX`, candidates compared
    /// byte by byte. The definition of what the codec must emit.
    fn oracle_compress_body(raw: &[u8], level: u8, out: &mut Vec<u8>) {
        fn hash4(window: &[u8]) -> usize {
            let v = u32::from_le_bytes([window[0], window[1], window[2], window[3]]);
            (v.wrapping_mul(2_654_435_761) >> 19) as usize & (HASH_SIZE - 1)
        }

        fn chain_insert(raw: &[u8], pos: usize, head: &mut [usize], prev: &mut [usize]) {
            if pos + MIN_MATCH <= raw.len() {
                let h = hash4(&raw[pos..]);
                prev[pos] = head[h];
                head[h] = pos;
            }
        }

        let probes = level as usize;
        let mut head = vec![usize::MAX; HASH_SIZE];
        let mut prev = vec![usize::MAX; raw.len()];
        let mut lit_start = 0usize;
        let mut i = 0usize;
        while i < raw.len() {
            let mut best_len = 0usize;
            let mut best_dist = 0usize;
            if i + MIN_MATCH <= raw.len() {
                let limit = raw.len() - i;
                let mut cand = head[hash4(&raw[i..])];
                let mut budget = probes;
                while cand != usize::MAX && budget > 0 {
                    let dist = i - cand;
                    if dist > MAX_DIST {
                        break; // Chains age monotonically; older is farther.
                    }
                    let mut len = 0usize;
                    while len < limit && raw[cand + len] == raw[i + len] {
                        len += 1;
                    }
                    if len > best_len {
                        best_len = len;
                        best_dist = dist;
                    }
                    cand = prev[cand];
                    budget -= 1;
                }
            }
            if best_len >= MIN_MATCH {
                emit_literals(&raw[lit_start..i], out);
                let mut remaining = best_len;
                while remaining >= MIN_MATCH {
                    let mut take = remaining.min(MAX_MATCH);
                    if remaining - take > 0 && remaining - take < MIN_MATCH {
                        // Keep the leftover emittable as its own token.
                        take = remaining - MIN_MATCH;
                    }
                    out.push(0x80 | (take - MIN_MATCH) as u8);
                    out.extend_from_slice(&(best_dist as u16).to_le_bytes());
                    remaining -= take;
                }
                debug_assert_eq!(remaining, 0);
                for pos in i..i + best_len {
                    chain_insert(raw, pos, &mut head, &mut prev);
                }
                i += best_len;
                lit_start = i;
            } else {
                chain_insert(raw, i, &mut head, &mut prev);
                i += 1;
            }
        }
        emit_literals(&raw[lit_start..], out);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]
        /// Token for token what the oracle emits — the body itself, so
        /// incompressible inputs (whose container hides it behind stored
        /// mode) are held to it too — at every level, each its own
        /// compiled match finder, from tables another block and another
        /// level have just used.
        #[test]
        fn body_matches_the_oracle(
            bytes in proptest::collection::vec(proptest::any::<u8>(), 0..70_000),
            symbols in proptest::prop_oneof![
                proptest::Just(2u16),
                proptest::Just(3u16),
                proptest::Just(17u16),
                proptest::Just(256u16)
            ],
            // Half the cases are cut short: the lengths around
            // `MIN_MATCH` are where the tables' edges are.
            keep in proptest::prop_oneof![0..64usize, proptest::Just(usize::MAX)],
        ) {
            let raw: Vec<u8> = bytes
                .iter()
                .take(keep)
                .map(|&b| (b as u16 % symbols) as u8)
                .collect();
            let dirt: Vec<u8> = raw.iter().rev().copied().chain(*b"dirt").collect();
            for level in 1..=9u8 {
                let mut scratch = EncodeScratch::default();
                // Another level's instance, one that chains, leaves both
                // tables dirty.
                let dirty_level = if level == 9 { 8 } else { level + 1 };
                compress_body(&dirt, dirty_level, &mut scratch, &mut Vec::new());
                let (mut body, mut oracle) = (Vec::new(), Vec::new());
                compress_body(&raw, level, &mut scratch, &mut body);
                oracle_compress_body(&raw, level, &mut oracle);
                proptest::prop_assert!(
                    body == oracle,
                    "{} bytes over {symbols} symbols at level {level}: body {} bytes, oracle {}",
                    raw.len(),
                    body.len(),
                    oracle.len()
                );
            }
        }
    }
}
