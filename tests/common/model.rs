//! One model check for every registered engine.
//!
//! `check` runs one op sequence on one engine under one tuning and holds
//! it to a `BTreeMap` model:
//!
//! * every get and scan gives the model's answer;
//! * an op at an engine's limits reads back, or is refused with nothing
//!   applied — no key, no `puts`, no `app_bytes_written`;
//! * a reopen (flush, drop, `recover` on the same filesystem) keeps
//!   every key;
//! * at the end, with maintenance drained, every job installed once in
//!   bounded slices, `puts`, `deletes` and `app_bytes_written` count
//!   what was accepted since the last open, the engine's own entry count
//!   is the model's, every key reads back and the filesystem's
//!   accounting holds.
//!
//! Engines are reached only through `EngineKind::open` / `recover` and
//! `PtsEngine`: an engine that registers is checked like the built-ins.
//! `proptest_engines.rs` draws tuning and ops for every engine; the
//! maintenance, cache and conformance suites narrow the tuning or script
//! the ops and reuse the same check.

use std::collections::BTreeMap;

use proptest::collection::vec;
use proptest::option;
use proptest::prelude::*;

use ptsbench::core::{BatchOp, EngineKind, EngineTuning, MaintConfig, PtsError, WriteBatch};
use ptsbench::ssd::{DeviceConfig, DeviceProfile, Ssd};
use ptsbench::vfs::{Vfs, VfsOptions};

/// Keys the ordinary ops draw from. With values up to `MAX_VALUE` bytes
/// the live set outgrows the LSM's 256 KiB first level and spans many
/// B+Tree leaves.
const KEYS: u16 = 256;
const MAX_VALUE: u16 = 6_000;

/// What the engine must hold, and what its counters must read since it
/// was last opened.
#[derive(Default)]
struct Model {
    map: BTreeMap<Vec<u8>, Vec<u8>>,
    puts: u64,
    deletes: u64,
    app_bytes: u64,
}

impl Model {
    fn put(&mut self, key: &[u8], value: &[u8]) {
        self.puts += 1;
        self.app_bytes += (key.len() + value.len()) as u64;
        self.map.insert(key.to_vec(), value.to_vec());
    }

    fn delete(&mut self, key: &[u8]) {
        self.deletes += 1;
        self.app_bytes += key.len() as u64;
        self.map.remove(key);
    }

    fn apply(&mut self, batch: &WriteBatch) {
        for op in batch.ops() {
            match op {
                BatchOp::Put { key, value } => self.put(key, value),
                BatchOp::Delete { key } => self.delete(key),
            }
        }
    }

    /// The model's answer to a scan.
    fn scan(&self, start: &[u8], end: Option<&[u8]>, limit: usize) -> Vec<(Vec<u8>, Vec<u8>)> {
        self.map
            .range(start.to_vec()..)
            .take_while(|(k, _)| end.is_none_or(|end| k.as_slice() < end))
            .take(limit)
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }
}

#[derive(Debug, Clone)]
pub enum Op {
    Put(u16, u16),
    /// A put at the length the model holds for the key (4 000 bytes if
    /// it holds none): drawn lengths almost never repeat one, and a
    /// B+Tree keeps a same-length overwrite of a loaded leaf pending
    /// beside the page until its write-back.
    Overwrite(u16),
    Delete(u16),
    Get(u16),
    /// `start` (`None`: the empty key), `end` (`None`: unbounded) and a
    /// limit. The two bounds are drawn apart, so `end` may sort below
    /// `start`: an empty range.
    Scan(Option<u16>, Option<u16>, u8),
    /// Puts (`Some(len)`) and deletes over the four keys from the first
    /// field on, so a key often repeats within the batch.
    Batch(u16, Vec<(u16, Option<u16>)>),
    Flush,
    /// Up to this many maintenance slices.
    Pump(u8),
    /// Flush, drop, and `recover` on the same filesystem.
    Reopen,
    /// A put at the engines' limits, alone (`None`) or in one batch
    /// after an ordinary put to the given key.
    Oversized(Oversized, Option<u16>),
}

#[derive(Debug, Clone, Copy)]
pub enum Oversized {
    /// The longest key a two-byte length records.
    Key65535,
    /// One byte longer.
    Key65536,
    /// A pair larger than a 32 KiB B+Tree page.
    Pair,
}

impl Oversized {
    const ALL: [Self; 3] = [Self::Key65535, Self::Key65536, Self::Pair];

    fn key(self) -> Vec<u8> {
        match self {
            Self::Key65535 => vec![b'k'; 65_535],
            Self::Key65536 => vec![b'k'; 65_536],
            Self::Pair => b"pair".to_vec(),
        }
    }

    fn value(self, step: usize) -> Vec<u8> {
        match self {
            Self::Key65535 | Self::Key65536 => value(8, step),
            Self::Pair => value(40_000, step),
        }
    }
}

fn key(i: u16) -> Vec<u8> {
    format!("key{i:06}").into_bytes()
}

/// `len` bytes that differ per step: noise on every fourth step, a
/// repeated tag on the others, so a codec both stores and compresses.
fn value(len: u16, step: usize) -> Vec<u8> {
    let tag = format!("{step}-").into_bytes();
    let mut x = (step as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len as usize)
        .map(|i| {
            if step % 4 != 1 {
                return tag[i % tag.len()];
            }
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u8
        })
        .collect()
}

fn value_len() -> impl Strategy<Value = u16> {
    prop_oneof![1 => Just(0u16), 15 => 0..=MAX_VALUE]
}

fn op() -> impl Strategy<Value = Op> {
    let oversized = prop_oneof![
        Just(Oversized::Key65535),
        Just(Oversized::Key65536),
        Just(Oversized::Pair),
    ];
    prop_oneof![
        12 => (0..KEYS, value_len()).prop_map(|(k, len)| Op::Put(k, len)),
        6 => (0..KEYS).prop_map(Op::Overwrite),
        3 => (0..KEYS).prop_map(Op::Delete),
        4 => (0..KEYS).prop_map(Op::Get),
        2 => (option::of(0..KEYS), option::of(0..KEYS), 0..24u8)
            .prop_map(|(s, e, n)| Op::Scan(s, e, n)),
        1 => (0..KEYS, vec((0..4u16, option::of(value_len())), 1..8))
            .prop_map(|(k, ops)| Op::Batch(k, ops)),
        2 => Just(Op::Flush),
        2 => (0..8u8).prop_map(Op::Pump),
        1 => Just(Op::Reopen),
        1 => (oversized, option::of(0..KEYS)).prop_map(|(o, k)| Op::Oversized(o, k)),
    ]
}

/// An optional load of the first keys in key order, as a benchmark run
/// starts: the LSM's first tables are disjoint and move down the levels
/// whole, so later compactions write into L2 and below. Then the random
/// ops.
pub fn ops() -> impl Strategy<Value = Vec<Op>> {
    (
        prop_oneof![Just(0u16), 0..=KEYS],
        1..=MAX_VALUE,
        vec(op(), 1..400),
    )
        .prop_map(|(load, len, ops)| (0..load).map(|i| Op::Put(i, len)).chain(ops).collect())
}

/// Maintenance paced slow enough that pacing bites.
pub fn paced() -> impl Strategy<Value = MaintConfig> {
    (
        (1u64 << 18)..(64u64 << 20),
        (4u64 << 10)..(2u64 << 20),
        (4u64 << 10)..(256u64 << 10),
    )
        .prop_map(|(rate, burst, slice)| MaintConfig {
            rate_bytes_per_sec: rate,
            burst_bytes: burst,
            slice_bytes: slice,
            ..MaintConfig::enabled()
        })
}

/// Maintenance off, or paced.
pub fn maint() -> impl Strategy<Value = MaintConfig> {
    prop_oneof![1 => Just(MaintConfig::default()), 2 => paced()]
}

/// Cache off, or 16 KiB to 2 MiB.
pub fn cache_bytes() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), 16_384..(2u64 << 20)]
}

/// Codec off, or level 1 to 9 in a third of the cases (a debug-build
/// codec decodes a whole hash-log segment per uncached read, and those
/// cases take most of the time).
pub fn codec_level() -> impl Strategy<Value = u8> {
    prop_oneof![2 => Just(0u8), 1 => 1..=9u8]
}

/// A tuning of the drawn maintenance, cache budget and codec level, at
/// queue depth 1 or 8, with no helper thread or one (the LSM lays out
/// and encodes its inline jobs' tables on it; a helper lives as long as
/// its database, so a case holds at most one thread per open engine).
/// `device_bytes` 0 gives every engine its smallest scaled shape
/// (64 KiB memtable, 32 KiB pages, 64 KiB segments), so a few hundred
/// ops reach flushes, compactions, splits and segment GC.
pub fn tuning_of(
    maint: impl Strategy<Value = MaintConfig>,
    cache_bytes: impl Strategy<Value = u64>,
    codec_level: impl Strategy<Value = u8>,
) -> impl Strategy<Value = EngineTuning> {
    (
        maint,
        cache_bytes,
        codec_level,
        prop_oneof![Just(1usize), Just(8)],
        0..=1usize,
    )
        .prop_map(|(maint, cache, level, depth, helpers)| {
            EngineTuning::for_device(0)
                .with_maint(maint)
                .with_cache_bytes(cache)
                .with_compression_level(level)
                .with_queue_depth(depth)
                .with_helper_threads(helpers)
        })
}

/// Every knob drawn.
pub fn tuning() -> impl Strategy<Value = EngineTuning> {
    tuning_of(maint(), cache_bytes(), codec_level())
}

fn stack() -> Vfs {
    let ssd = Ssd::new(DeviceConfig::from_profile(DeviceProfile::ssd1(), 64 << 20));
    Vfs::whole_device(ssd.into_shared(), VfsOptions::default())
}

/// Fails the case on an engine error, saying where.
fn ok<T>(result: Result<T, PtsError>, at: &str) -> Result<T, TestCaseError> {
    result.map_err(|e| TestCaseError::fail(format!("{at}: {e}")))
}

/// Runs `ops` on one engine against the model.
pub fn check(kind: EngineKind, tuning: &EngineTuning, ops: &[Op]) -> Result<(), TestCaseError> {
    let vfs = stack();
    let mut sys = ok(kind.open(vfs.clone(), tuning), kind.label())?;
    let mut model = Model::default();
    for (step, op) in ops.iter().enumerate() {
        let at = format!("{kind} step {step} {op:?}");
        match *op {
            Op::Put(i, len) => {
                let (k, v) = (key(i), value(len, step));
                ok(sys.put(&k, &v), &at)?;
                model.put(&k, &v);
            }
            Op::Overwrite(i) => {
                let k = key(i);
                let len = model.map.get(&k).map_or(4000, |v| v.len() as u16);
                let v = value(len, step);
                ok(sys.put(&k, &v), &at)?;
                model.put(&k, &v);
            }
            Op::Delete(i) => {
                ok(sys.delete(&key(i)), &at)?;
                model.delete(&key(i));
            }
            Op::Get(i) => {
                let got = ok(sys.get(&key(i)), &at)?;
                prop_assert_eq!(got.as_ref(), model.map.get(&key(i)), "{}", at);
            }
            Op::Scan(start, end, limit) => {
                let (start, end) = (start.map_or(Vec::new(), key), end.map(key));
                let got = ok(sys.scan_to_vec(&start, end.as_deref(), limit.into()), &at)?;
                let want = model.scan(&start, end.as_deref(), limit.into());
                prop_assert_eq!(got, want, "{}", at);
            }
            Op::Batch(first, ref writes) => {
                let mut batch = WriteBatch::new();
                for &(i, len) in writes {
                    match len {
                        Some(len) => batch.put(&key(first + i), &value(len, step)),
                        None => batch.delete(&key(first + i)),
                    };
                }
                ok(sys.apply_batch(&batch), &at)?;
                model.apply(&batch);
            }
            Op::Flush => ok(sys.flush(), &at)?,
            Op::Pump(slices) => {
                for _ in 0..slices {
                    if !ok(sys.run_maintenance_slice(), &at)? {
                        break;
                    }
                }
            }
            Op::Reopen => {
                ok(sys.flush(), &at)?;
                drop(sys);
                sys = ok(kind.recover(vfs.clone(), tuning), &at)?;
                (model.puts, model.deletes, model.app_bytes) = (0, 0, 0);
            }
            Op::Oversized(what, first) => {
                let (k, v) = (what.key(), what.value(step));
                let mut batch = WriteBatch::new();
                if let Some(i) = first {
                    batch.put(&key(i), &value(64, step));
                }
                batch.put(&k, &v);
                let before = sys.stats();
                let result = match first {
                    Some(_) => sys.apply_batch(&batch),
                    None => sys.put(&k, &v),
                };
                match result {
                    Ok(()) => model.apply(&batch),
                    Err(PtsError::Engine { .. }) => {
                        let after = sys.stats();
                        prop_assert_eq!(
                            (after.puts, after.app_bytes_written),
                            (before.puts, before.app_bytes_written),
                            "{}: refused",
                            at
                        );
                    }
                    Err(e) => return Err(TestCaseError::fail(format!("{at}: {e}"))),
                }
                for op in batch.ops() {
                    let (BatchOp::Put { key, .. } | BatchOp::Delete { key }) = op;
                    let got = ok(sys.get(key), &at)?;
                    prop_assert_eq!(got.as_ref(), model.map.get(key), "{}: read back", at);
                }
            }
        }
    }

    let at = format!("{kind} at the end");
    ok(sys.drain_maintenance(), &at)?;
    match sys.maint_stats() {
        Some(m) => {
            prop_assert!(
                tuning.maint.enabled,
                "{}: maintenance stats with it off",
                at
            );
            prop_assert_eq!(m.jobs, m.installs, "{}: each job installs once", at);
            prop_assert!(m.slices >= m.jobs, "{}: jobs run in bounded slices", at);
        }
        None => prop_assert!(!tuning.maint.enabled, "{}: no maintenance stats", at),
    }
    prop_assert_eq!(sys.kind(), kind, "{}: kind", at);
    let stats = sys.stats();
    prop_assert_eq!(
        (stats.puts, stats.deletes, stats.app_bytes_written),
        (model.puts, model.deletes, model.app_bytes),
        "{}: puts, deletes and application bytes since the last open",
        at
    );
    if let Some(&(_, entries)) = stats.structural.iter().find(|(n, _)| *n == "entries") {
        prop_assert_eq!(entries, model.map.len() as u64, "{}: entries", at);
    }
    let every_key = (0..KEYS + 4).map(key);
    for k in every_key.chain(Oversized::ALL.map(Oversized::key)) {
        let got = ok(sys.get(&k), &at)?;
        prop_assert_eq!(got.as_ref(), model.map.get(&k), "{}: audit", at);
    }
    let all = ok(sys.scan_to_vec(b"", None, usize::MAX), &at)?;
    prop_assert_eq!(all, model.scan(b"", None, usize::MAX), "{}: full scan", at);
    sys.vfs().check_invariants();
    Ok(())
}
