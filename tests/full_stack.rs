//! Full-stack integration: both engines running through the façade on a
//! simulated flash stack, checked against an in-memory model, with the
//! device's accounting cross-validated at every layer.

use std::collections::BTreeMap;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use ptsbench::core::{EngineKind, EngineTuning};
use ptsbench::ssd::{DeviceConfig, DeviceProfile, SharedSsd, Ssd};
use ptsbench::vfs::{Vfs, VfsOptions};

fn stack(bytes: u64) -> (SharedSsd, Vfs) {
    let ssd = Ssd::new(DeviceConfig::from_profile(DeviceProfile::ssd1(), bytes)).into_shared();
    let vfs = Vfs::whole_device(ssd.clone(), VfsOptions::default());
    (ssd, vfs)
}

#[test]
fn engines_agree_with_model_on_shared_stack() {
    for kind in [EngineKind::lsm(), EngineKind::btree()] {
        let (ssd, vfs) = stack(64 << 20);
        let mut sys = kind
            .open(vfs.clone(), &EngineTuning::for_device(64 << 20))
            .expect("build");
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        let mut rng = SmallRng::seed_from_u64(123);

        for step in 0..6_000u32 {
            let k = format!("key{:07}", rng.gen_range(0..800u32)).into_bytes();
            match rng.gen_range(0..10) {
                0..=5 => {
                    let v = format!("val-{step}")
                        .into_bytes()
                        .repeat(1 + (step % 5) as usize);
                    sys.put(&k, &v).expect("put");
                    model.insert(k, v);
                }
                6..=7 => {
                    sys.delete(&k).expect("delete");
                    model.remove(&k);
                }
                8 => {
                    assert_eq!(
                        sys.get(&k).expect("get"),
                        model.get(&k).cloned(),
                        "{kind:?}"
                    );
                }
                _ => {
                    let got = sys.scan_to_vec(&k, None, 5).expect("scan");
                    let expect: Vec<_> = model
                        .range(k.clone()..)
                        .take(5)
                        .map(|(a, b)| (a.clone(), b.clone()))
                        .collect();
                    assert_eq!(got, expect, "{kind:?} scan at step {step}");
                }
            }
        }
        sys.flush().expect("flush");
        for (k, v) in &model {
            assert_eq!(
                sys.get(k).expect("get").as_ref(),
                Some(v),
                "{kind:?} final audit"
            );
        }

        // Cross-layer accounting: the device saw at least as many NAND
        // writes as host writes; the engine reported app bytes; the
        // filesystem holds at least the live dataset.
        let smart = ssd.lock().smart();
        assert!(smart.nand_pages_written >= smart.host_pages_written);
        assert!(smart.host_pages_written > 0);
        assert!(sys.stats().app_bytes_written > 0);
        let live_bytes: u64 = model.iter().map(|(k, v)| (k.len() + v.len()) as u64).sum();
        assert!(
            vfs.stats().used_bytes >= live_bytes,
            "{kind:?}: fs usage below live data"
        );
    }
}

#[test]
fn simulated_time_advances_monotonically_through_the_stack() {
    let (ssd, vfs) = stack(32 << 20);
    let clock = vfs.clock();
    let mut sys = EngineKind::lsm()
        .open(vfs, &EngineTuning::for_device(32 << 20))
        .expect("build");
    let mut last = clock.now();
    for i in 0..2_000u32 {
        sys.put(format!("k{i:06}").as_bytes(), &[0u8; 512])
            .expect("put");
        let now = clock.now();
        assert!(now >= last, "clock went backwards at op {i}");
        last = now;
    }
    assert!(last > 0, "I/O must consume simulated time");
    // The device clock is the same clock.
    assert_eq!(ssd.lock().clock().now(), last);
}

#[test]
fn nodiscard_semantics_survive_engine_churn() {
    // After heavy LSM churn under nodiscard, device-mapped pages exceed
    // the filesystem's live usage (dead file pages are still "valid" in
    // the FTL) — the aged-filesystem behaviour Pitfall 3 depends on.
    let (ssd, vfs) = stack(48 << 20);
    let mut sys = EngineKind::lsm()
        .open(vfs.clone(), &EngineTuning::for_device(48 << 20))
        .expect("build");
    let mut rng = SmallRng::seed_from_u64(5);
    for _ in 0..4_000 {
        let k = format!("key{:07}", rng.gen_range(0..2_000u32));
        sys.put(k.as_bytes(), &[7u8; 2_000]).expect("put");
    }
    sys.flush().expect("flush");
    let mapped = ssd.lock().mapped_pages();
    let live = vfs.stats().used_pages;
    assert!(
        mapped > live,
        "nodiscard churn must leave dead-but-mapped pages: mapped {mapped} vs live {live}"
    );
}

#[test]
fn two_engines_side_by_side_on_partitions() {
    // Two filesystems on disjoint partitions of one device: engines
    // must not interfere, and the device sees the sum of their traffic.
    let ssd = Ssd::new(DeviceConfig::from_profile(DeviceProfile::ssd1(), 64 << 20)).into_shared();
    let pages = ssd.lock().logical_pages();
    let vfs_a = Vfs::new(
        ssd.clone(),
        ptsbench::ssd::LpnRange::new(0, pages / 2),
        VfsOptions::default(),
    );
    let vfs_b = Vfs::new(
        ssd.clone(),
        ptsbench::ssd::LpnRange::new(pages / 2, pages),
        VfsOptions::default(),
    );
    let mut lsm = EngineKind::lsm()
        .open(vfs_a, &EngineTuning::for_device(32 << 20))
        .expect("lsm");
    let mut btree = EngineKind::btree()
        .open(vfs_b, &EngineTuning::for_device(32 << 20))
        .expect("btree");
    for i in 0..1_000u32 {
        let k = format!("k{i:06}");
        lsm.put(k.as_bytes(), b"from-lsm").expect("lsm put");
        btree.put(k.as_bytes(), b"from-btree").expect("btree put");
    }
    for i in (0..1_000u32).step_by(97) {
        let k = format!("k{i:06}");
        assert_eq!(
            lsm.get(k.as_bytes()).expect("get"),
            Some(b"from-lsm".to_vec())
        );
        assert_eq!(
            btree.get(k.as_bytes()).expect("get"),
            Some(b"from-btree".to_vec())
        );
    }
    assert!(ssd.lock().smart().host_pages_written > 0);
}
