//! Property-based tests of the background-maintenance subsystem:
//!
//! * arbitrary interleavings of ops and maintenance slices keep every
//!   read the model's on each engine, and every job installs once: the
//!   engine model check (`common/model.rs`) with maintenance always on;
//! * the rate budget is a window invariant: over any virtual-time
//!   window `W`, greedily paced slices charge at most
//!   `rate * W + burst + max_single_charge` bytes;
//! * background bytes close against the per-cause device ledger — the
//!   scheduler's logical byte counters are a lower bound on the
//!   (page-granular) bytes the device charged to the maintenance
//!   cause, and the ledger itself closes exactly against SMART.

use proptest::prelude::*;

use ptsbench::core::EngineKind;
use ptsbench::hashlog::{HashLogDb, HashLogOptions};
use ptsbench::maint::{MaintConfig, RateBudget};
use ptsbench::ssd::{Cause, DeviceConfig, DeviceProfile, Ssd, Tracer};
use ptsbench::vfs::{EngineTuning, Vfs, VfsOptions};

mod common;
use common::model;

/// The model check's tuning with maintenance always paced.
fn paced_tuning() -> impl Strategy<Value = EngineTuning> {
    model::tuning_of(model::paced(), model::cache_bytes(), model::codec_level())
}

fn traced_vfs() -> Vfs {
    let mut ssd = Ssd::new(DeviceConfig::from_profile(DeviceProfile::ssd1(), 48 << 20));
    ssd.attach_tracer(Tracer::recording());
    Vfs::whole_device(ssd.into_shared(), VfsOptions::default())
}

fn key(i: u16) -> Vec<u8> {
    format!("key{i:06}").into_bytes()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// LSM: flushes and compactions deferred into slices between
    /// arbitrary ops never change what a read returns; every job
    /// installs once.
    #[test]
    fn lsm_interleavings_preserve_reads_and_install_once(
        tuning in paced_tuning(),
        ops in model::ops(),
    ) {
        model::check(EngineKind::lsm(), &tuning, &ops)?;
    }

    /// Hash log: victims rewritten in slices while reads keep landing
    /// on not-yet-moved records.
    #[test]
    fn hashlog_interleavings_preserve_reads_and_install_once(
        tuning in paced_tuning(),
        ops in model::ops(),
    ) {
        model::check(ptsbench::hashlog::register(), &tuning, &ops)?;
    }

    /// B+Tree: deferred fuzzy checkpoints never lose an update (the
    /// journal holds everything the checkpoint has not yet made
    /// durable).
    #[test]
    fn btree_interleavings_preserve_reads_and_install_once(
        tuning in paced_tuning(),
        ops in model::ops(),
    ) {
        model::check(EngineKind::btree(), &tuning, &ops)?;
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
