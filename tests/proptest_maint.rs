//! Property-based tests of the background-maintenance subsystem:
//!
//! * arbitrary interleavings of foreground ops and maintenance slices
//!   preserve read-your-writes on every engine — deferring flushes,
//!   compactions, GC and checkpoints must never change *what* a read
//!   returns, only when the rewrite work happens;
//! * every background job installs its version edit exactly once,
//!   however the slices interleave;
//! * the rate budget is a window invariant: over any virtual-time
//!   window `W`, greedily paced slices charge at most
//!   `rate * W + burst + max_single_charge` bytes;
//! * background bytes close against the per-cause device ledger — the
//!   scheduler's logical byte counters are a lower bound on the
//!   (page-granular) bytes the device charged to the maintenance
//!   cause, and the ledger itself closes exactly against SMART.

use std::collections::BTreeMap;

use proptest::prelude::*;

use ptsbench::btree::{BTreeDb, BTreeOptions};
use ptsbench::hashlog::{HashLogDb, HashLogOptions};
use ptsbench::lsm::{LsmDb, LsmOptions};
use ptsbench::maint::{MaintConfig, RateBudget};
use ptsbench::ssd::{Cause, DeviceConfig, DeviceProfile, Ssd, Tracer};
use ptsbench::vfs::{EngineTuning, Vfs, VfsOptions};

fn vfs() -> Vfs {
    let ssd = Ssd::new(DeviceConfig::from_profile(DeviceProfile::ssd1(), 48 << 20));
    Vfs::whole_device(ssd.into_shared(), VfsOptions::default())
}

fn traced_vfs() -> Vfs {
    let mut ssd = Ssd::new(DeviceConfig::from_profile(DeviceProfile::ssd1(), 48 << 20));
    ssd.attach_tracer(Tracer::recording());
    Vfs::whole_device(ssd.into_shared(), VfsOptions::default())
}

/// Randomized pacing knobs: slow enough that pacing bites, fast enough
/// that drains terminate quickly under forced slices.
fn maint_cfg() -> impl Strategy<Value = MaintConfig> {
    (
        (1u64 << 18)..(64u64 << 20),  // rate_bytes_per_sec
        (4u64 << 10)..(2u64 << 20),   // burst_bytes
        (4u64 << 10)..(256u64 << 10), // slice_bytes
    )
        .prop_map(|(rate, burst, slice)| MaintConfig {
            rate_bytes_per_sec: rate,
            burst_bytes: burst,
            slice_bytes: slice,
            ..MaintConfig::enabled()
        })
}

#[derive(Debug, Clone)]
enum KvOp {
    Put(u16, u16),
    Delete(u16),
    Get(u16),
    Scan(u16, u8),
    /// Pump up to this many maintenance slices — the interleaving knob.
    Pump(u8),
}

fn kv_op() -> impl Strategy<Value = KvOp> {
    prop_oneof![
        6 => (0..64u16, 0..2_000u16).prop_map(|(k, v)| KvOp::Put(k, v)),
        2 => (0..64u16).prop_map(KvOp::Delete),
        4 => (0..64u16).prop_map(KvOp::Get),
        1 => (0..64u16, 1..20u8).prop_map(|(s, n)| KvOp::Scan(s, n)),
        3 => (0..8u8).prop_map(KvOp::Pump),
    ]
}

fn key(i: u16) -> Vec<u8> {
    format!("key{i:06}").into_bytes()
}

fn value(tag: u16, step: usize) -> Vec<u8> {
    format!("value-{tag}-{step}")
        .into_bytes()
        .repeat(2 + tag as usize % 6)
}

/// One generic interleaving driver per engine: replay `ops` against a
/// model (maintenance slices where `Pump` says), drain, audit. The
/// closures adapt the three engines' identical-but-distinct APIs.
macro_rules! drive_interleaved {
    ($db:expr, $ops:expr, $scan:expr) => {{
        let mut db = $db;
        let ops: &[KvOp] = $ops;
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        for (step, op) in ops.iter().enumerate() {
            match op {
                KvOp::Put(k, v) => {
                    let (k, v) = (key(*k), value(*v, step));
                    db.put(&k, &v).expect("put");
                    model.insert(k, v);
                }
                KvOp::Delete(k) => {
                    let k = key(*k);
                    db.delete(&k).expect("delete");
                    model.remove(&k);
                }
                KvOp::Get(k) => {
                    let k = key(*k);
                    assert_eq!(
                        db.get(&k).expect("get"),
                        model.get(&k).cloned(),
                        "step {step}"
                    );
                }
                KvOp::Scan(s, n) => {
                    if $scan {
                        let start = key(*s);
                        let got = db.scan(&start, None, *n as usize).expect("scan");
                        let want: Vec<_> = model
                            .range(start..)
                            .take(*n as usize)
                            .map(|(k, v)| (k.clone(), v.clone()))
                            .collect();
                        assert_eq!(got, want, "step {step}");
                    }
                }
                KvOp::Pump(n) => {
                    for _ in 0..*n {
                        if !db.run_maintenance_slice().expect("slice") {
                            break;
                        }
                    }
                }
            }
        }
        db.drain_maintenance().expect("drain");
        let stats = db.maint_stats().expect("maintenance mode is on");
        prop_assert_eq!(stats.jobs, stats.installs, "each job installs exactly once");
        prop_assert!(stats.slices >= stats.jobs, "jobs run in bounded slices");
        for (k, v) in &model {
            assert_eq!(db.get(k).expect("get"), Some(v.clone()), "final audit");
        }
        stats
    }};
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// LSM: deferred flush/compaction under arbitrary interleavings
    /// preserves read-your-writes; every job installs exactly once.
    #[test]
    fn lsm_interleavings_preserve_reads_and_install_once(
        ops in proptest::collection::vec(kv_op(), 1..200),
        maint in maint_cfg(),
    ) {
        let opts = LsmOptions {
            tuning: EngineTuning::for_device(0).with_maint(maint),
            ..LsmOptions::small()
        };
        let db = LsmDb::open(vfs(), opts).expect("open");
        drive_interleaved!(db, &ops, true);
    }

    /// Hashlog: deferred segment GC under arbitrary interleavings —
    /// victims are rewritten in slices while reads keep landing on
    /// not-yet-moved records.
    #[test]
    fn hashlog_interleavings_preserve_reads_and_install_once(
        ops in proptest::collection::vec(kv_op(), 1..200),
        maint in maint_cfg(),
    ) {
        let opts = HashLogOptions {
            tuning: EngineTuning::for_device(0).with_maint(maint),
            ..HashLogOptions::small()
        };
        let db = HashLogDb::open(vfs(), opts).expect("open");
        drive_interleaved!(db, &ops, true);
    }

    /// B+Tree: deferred fuzzy checkpoints under arbitrary interleavings
    /// never lose an update (the journal holds everything the
    /// checkpoint has not yet made durable).
    #[test]
    fn btree_interleavings_preserve_reads_and_install_once(
        ops in proptest::collection::vec(kv_op(), 1..150),
        maint in maint_cfg(),
    ) {
        let opts = BTreeOptions {
            tuning: EngineTuning::for_device(0).with_maint(maint),
            ..BTreeOptions::small()
        };
        let db = BTreeDb::open(vfs(), opts).expect("open");
        drive_interleaved!(db, &ops, false);
    }

    /// The window invariant, randomized: greedily paced charges over
    /// any window never exceed `rate * W + burst + max_single_charge`,
    /// whatever the slice sizes and inter-slice gaps.
    #[test]
    fn rate_budget_never_exceeds_any_window(
        rate in (1u64 << 16)..(1u64 << 26),
        burst in (1u64 << 10)..(1u64 << 20),
        steps in proptest::collection::vec(
            (1u64..(256u64 << 10), 0u64..2_000_000u64), 1..200),
    ) {
        let mut budget = RateBudget::new(rate, burst, 0);
        let mut now = 0u64;
        let mut charged = 0u64;
        let mut max_charge = 0u64;
        for (bytes, dt) in steps {
            now += dt;
            if budget.ready(now) {
                budget.charge(now, bytes);
                charged += bytes;
                max_charge = max_charge.max(bytes);
            }
        }
        let allowed =
            (now as u128 * rate as u128 / 1_000_000_000u128) as u64 + burst + max_charge;
        prop_assert!(
            charged <= allowed,
            "charged {charged} bytes over a {now} ns window; allowance {allowed}"
        );
    }

    /// Background bytes close against the per-cause device ledger: the
    /// scheduler's logical counters never exceed the page-granular
    /// bytes the device charged to `Cause::SegmentGc`, and the ledger
    /// totals close exactly against SMART.
    #[test]
    fn background_bytes_close_against_cause_ledger(
        rounds in 8..24u16,
        keys in 8..32u16,
        mask in any::<u64>(),
    ) {
        let v = traced_vfs();
        let opts = HashLogOptions {
            tuning: EngineTuning::for_device(0)
                .with_maint(MaintConfig::enabled())
                .with_trace(true),
            ..HashLogOptions::small()
        };
        let mut db = HashLogDb::open(v.clone(), opts).expect("open");
        let mut step = 0u32;
        for round in 0..rounds {
            for i in 0..keys {
                db.put(&key(i), &vec![round as u8; 512]).expect("put");
                if (mask >> (step % 64)) & 1 == 1 {
                    while db.run_maintenance_slice().expect("slice") {}
                }
                step += 1;
            }
        }
        db.drain_maintenance().expect("drain");
        let stats = db.maint_stats().expect("maintenance mode is on");
        prop_assert_eq!(stats.jobs, stats.installs);

        let dev = v.ssd();
        let dev = dev.lock();
        let cause = dev.cause_stats().expect("recording tracer attached");
        let smart = dev.smart();
        let page = dev.page_size() as u64;
        prop_assert_eq!(
            cause.total_bytes_written(),
            smart.host_pages_written * page,
            "per-cause written bytes must sum to SMART host writes"
        );
        prop_assert_eq!(
            cause.total_bytes_read(),
            smart.host_pages_read * page,
            "per-cause read bytes must sum to SMART host reads"
        );
        if stats.jobs > 0 {
            let gc = cause.get(Cause::SegmentGc);
            prop_assert!(
                gc.bytes_read >= stats.bytes_read,
                "scheduler-metered reads ({}) exceed the GC cause ledger ({})",
                stats.bytes_read,
                gc.bytes_read
            );
            prop_assert!(
                gc.bytes_written >= stats.bytes_written,
                "scheduler-metered writes ({}) exceed the GC cause ledger ({})",
                stats.bytes_written,
                gc.bytes_written
            );
            prop_assert!(gc.bytes_read > 0 && gc.bytes_written > 0);
        }
    }
}
