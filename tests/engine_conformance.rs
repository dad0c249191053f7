//! Engine conformance: one behavioral specification, instantiated for
//! every engine in the registry.
//!
//! The suite resolves engines purely through
//! `ptsbench::core::EngineRegistry` — the only engine-specific line is
//! the `ptsbench::hashlog::register()` call, which is exactly how a
//! downstream crate adds an engine. If a new engine registers a
//! descriptor, it is automatically held to this spec.

use ptsbench::core::runner::{run, RunConfig};
use ptsbench::core::{EngineRegistry, EngineTuning, PtsEngine, PtsError, WriteBatch};
use ptsbench::ssd::{DeviceConfig, DeviceProfile, Ssd, MINUTE};
use ptsbench::vfs::{Vfs, VfsOptions};

mod common;
use common::engines;

fn stack(bytes: u64) -> Vfs {
    let ssd = Ssd::new(DeviceConfig::from_profile(DeviceProfile::ssd1(), bytes)).into_shared();
    Vfs::whole_device(ssd, VfsOptions::default())
}

fn tuning(bytes: u64) -> EngineTuning {
    EngineTuning::for_device(bytes)
}

#[test]
fn registry_exposes_all_three_engines() {
    let all = engines();
    assert!(
        all.len() >= 3,
        "expected lsm, btree and hashlog, got {all:?}"
    );
    for label in ["lsm", "btree", "hashlog"] {
        let kind = EngineRegistry::lookup(label).expect(label);
        assert_eq!(kind.label(), label);
        assert!(!kind.name().is_empty());
        assert!(kind.default_cpu_cost_ns() > 0);
    }
}

#[test]
fn put_get_delete_overwrite_spec() {
    for kind in engines() {
        let mut sys = kind.open(stack(64 << 20), &tuning(64 << 20)).expect("open");
        assert_eq!(sys.get(b"missing").expect("get"), None, "{kind:?}");
        sys.put(b"k1", b"v1").expect("put");
        sys.put(b"k2", b"v2").expect("put");
        sys.put(b"k1", b"v1-overwritten").expect("overwrite");
        assert_eq!(
            sys.get(b"k1").expect("get"),
            Some(b"v1-overwritten".to_vec()),
            "{kind:?}"
        );
        sys.delete(b"k1").expect("delete");
        assert_eq!(sys.get(b"k1").expect("get"), None, "{kind:?}");
        sys.delete(b"k1").expect("deletes are idempotent");
        sys.delete(b"never-existed").expect("delete of absent key");
        assert_eq!(
            sys.get(b"k2").expect("get"),
            Some(b"v2".to_vec()),
            "{kind:?}"
        );
        assert_eq!(sys.kind(), kind);
    }
}

#[test]
fn batch_apply_matches_individual_ops() {
    for kind in engines() {
        let mut individually = kind.open(stack(64 << 20), &tuning(64 << 20)).expect("open");
        let mut batched = kind.open(stack(64 << 20), &tuning(64 << 20)).expect("open");
        let mut batch = WriteBatch::new();
        for i in 0..200u32 {
            let k = format!("key{i:05}");
            let v = format!("value-{i}");
            individually.put(k.as_bytes(), v.as_bytes()).expect("put");
            batch.put(k.as_bytes(), v.as_bytes());
        }
        for i in (0..200u32).step_by(7) {
            let k = format!("key{i:05}");
            individually.delete(k.as_bytes()).expect("delete");
            batch.delete(k.as_bytes());
        }
        batched.apply_batch(&batch).expect("apply_batch");
        assert_eq!(
            individually.scan_to_vec(b"", None, 1000).expect("scan"),
            batched.scan_to_vec(b"", None, 1000).expect("scan"),
            "{kind:?}: batch must be equivalent to its individual ops"
        );
        assert_eq!(
            individually.stats().app_bytes_written,
            batched.stats().app_bytes_written,
            "{kind:?}: batch accounting must match"
        );
    }
}

#[test]
fn scan_streams_ordered_bounded_and_limited() {
    for kind in engines() {
        let mut sys = kind.open(stack(64 << 20), &tuning(64 << 20)).expect("open");
        for i in (0..300u32).rev() {
            sys.put(format!("key{i:05}").as_bytes(), format!("v{i}").as_bytes())
                .expect("put");
        }
        sys.delete(b"key00010").expect("delete");

        // Bounds: [start, end), deleted keys excluded, ascending order.
        let items = sys
            .scan_to_vec(b"key00005", Some(b"key00015"), 100)
            .expect("scan");
        let keys: Vec<String> = items
            .iter()
            .map(|(k, _)| String::from_utf8(k.clone()).unwrap())
            .collect();
        assert_eq!(
            keys,
            (5..15)
                .filter(|i| *i != 10)
                .map(|i| format!("key{i:05}"))
                .collect::<Vec<_>>(),
            "{kind:?}"
        );

        // Limit.
        assert_eq!(
            sys.scan_to_vec(b"", None, 7).expect("scan").len(),
            7,
            "{kind:?}"
        );

        // Streaming: the cursor yields incrementally and can be dropped
        // without draining the range.
        let mut cursor = sys.scan(b"", None, usize::MAX).expect("scan");
        let first = cursor.next().expect("item").expect("ok");
        assert_eq!(first.0, b"key00000".to_vec(), "{kind:?}");
        assert_eq!(cursor.take(5).count(), 5, "{kind:?}");
    }
}

#[test]
fn flush_then_recover_preserves_data() {
    for kind in engines() {
        let vfs = stack(64 << 20);
        {
            let mut sys = kind.open(vfs.clone(), &tuning(64 << 20)).expect("open");
            for i in 0..500u32 {
                sys.put(format!("key{i:05}").as_bytes(), format!("v{i}").as_bytes())
                    .expect("put");
            }
            sys.delete(b"key00042").expect("delete");
            sys.flush().expect("flush");
        }
        let mut sys = kind.recover(vfs, &tuning(64 << 20)).expect("recover");
        assert_eq!(
            sys.get(b"key00042").expect("get"),
            None,
            "{kind:?}: delete survives"
        );
        for i in (0..500u32).filter(|i| *i != 42).step_by(13) {
            assert_eq!(
                sys.get(format!("key{i:05}").as_bytes()).expect("get"),
                Some(format!("v{i}").into_bytes()),
                "{kind:?}: key {i} must survive recovery"
            );
        }
        sys.put(b"post-recovery", b"ok")
            .expect("put after recovery");
        assert_eq!(
            sys.get(b"post-recovery").expect("get"),
            Some(b"ok".to_vec()),
            "{kind:?}"
        );
    }
}

#[test]
fn oversized_keys_read_back_or_are_refused_before_anything_moves() {
    // Both trees record a key's length in two bytes, the hash log in
    // four. A longer key must either read back after a flush or be
    // refused at `put` with nothing logged or counted — never
    // acknowledged and then lost.
    let long = vec![b'k'; 70_000];
    for kind in engines() {
        let mut sys = kind.open(stack(64 << 20), &tuning(64 << 20)).expect("open");
        sys.put(b"short", b"v").expect("put");
        let (stats, fs) = (sys.stats(), sys.vfs().stats());
        match sys.put(&long, b"long") {
            Ok(()) => {
                sys.flush().expect("flush");
                assert_eq!(
                    sys.get(&long).expect("get"),
                    Some(b"long".to_vec()),
                    "{kind:?}: an acknowledged put must read back"
                );
            }
            Err(e) => {
                assert_eq!(
                    e.to_string(),
                    format!(
                        "engine error ({}): key of 70000 bytes exceeds 65535 bytes",
                        kind.label()
                    )
                );
                assert_eq!(sys.stats(), stats, "{kind:?}: no counter moves");
                assert_eq!(sys.vfs().stats(), fs, "{kind:?}: no log byte is written");
                sys.flush().expect("flush");
                assert_eq!(sys.get(&long).expect("get"), None, "{kind:?}");
            }
        }
        assert_eq!(
            sys.get(b"short").expect("get"),
            Some(b"v".to_vec()),
            "{kind:?}"
        );
    }
}

#[test]
fn a_refused_batch_applies_nothing() {
    // After a good put: a key longer than two bytes can record, and a
    // pair larger than a 32 KiB B+Tree page. A batch is taken whole and
    // reads back after a flush, or is refused with nothing applied.
    let (long_key, big_value) = (vec![b'k'; 70_000], vec![b'v'; 40_000]);
    for kind in engines() {
        for (key, value) in [(&long_key[..], &b"v"[..]), (b"big", &big_value)] {
            let mut sys = kind.open(stack(64 << 20), &tuning(64 << 20)).expect("open");
            let before = sys.stats();
            let mut batch = WriteBatch::new();
            batch.put(b"first", b"v").put(key, value);
            let applied = sys.apply_batch(&batch);
            let after = sys.stats();
            sys.flush().expect("flush");
            let read = |sys: &mut Box<dyn PtsEngine>, key| sys.get(key).expect("get");
            let (first, last) = (read(&mut sys, b"first"), read(&mut sys, key));
            if applied.is_ok() {
                assert_eq!(first.as_deref(), Some(&b"v"[..]), "{kind:?}");
                assert_eq!(last.as_deref(), Some(value), "{kind:?}");
            } else {
                assert_eq!((first, last), (None, None), "{kind:?}: {applied:?}");
                assert_eq!(after.puts, before.puts, "{kind:?}");
                assert_eq!(
                    after.app_bytes_written, before.app_bytes_written,
                    "{kind:?}"
                );
            }
        }
    }
}

#[test]
fn out_of_space_maps_uniformly() {
    for kind in engines() {
        let mut sys = kind.open(stack(16 << 20), &tuning(16 << 20)).expect("open");
        let value = vec![7u8; 4096];
        let mut hit = None;
        for i in 0..20_000u32 {
            match sys.put(format!("key{i:06}").as_bytes(), &value) {
                Ok(()) => {}
                Err(e) => {
                    hit = Some(e);
                    break;
                }
            }
        }
        match hit {
            Some(PtsError::OutOfSpace) => {}
            Some(other) => panic!("{kind:?}: expected OutOfSpace, got {other}"),
            None => panic!("{kind:?}: 80 MB of puts must overflow a 16 MiB partition"),
        }
    }
}

#[test]
fn stats_are_uniform_across_engines() {
    for kind in engines() {
        let mut sys = kind.open(stack(64 << 20), &tuning(64 << 20)).expect("open");
        for i in 0..100u32 {
            sys.put(format!("key{i:05}").as_bytes(), &[1u8; 256])
                .expect("put");
        }
        sys.get(b"key00001").expect("get");
        sys.delete(b"key00002").expect("delete");
        sys.flush().expect("flush");
        let stats = sys.stats();
        assert_eq!(stats.puts, 100, "{kind:?}");
        assert_eq!(stats.gets, 1, "{kind:?}");
        assert_eq!(stats.deletes, 1, "{kind:?}");
        assert!(stats.app_bytes_written > 100 * 256, "{kind:?}");
        assert!(
            !stats.structural.is_empty(),
            "{kind:?}: structural summary required"
        );
        assert!(!stats.structural_summary().is_empty(), "{kind:?}");
    }
}

#[test]
fn errors_chain_their_engine_sources() {
    // Recovering from an empty filesystem is an engine-level failure
    // (nothing to recover) for every engine, and the native error must
    // be preserved through std::error::Error::source.
    for kind in engines() {
        let err = match kind.recover(stack(64 << 20), &tuning(64 << 20)) {
            Err(e) => e,
            Ok(_) => panic!("{kind:?}: recovering an empty filesystem must fail"),
        };
        match &err {
            PtsError::Engine { engine, source } => {
                assert_eq!(*engine, kind.label(), "{kind:?}");
                assert!(!source.to_string().is_empty());
            }
            other => panic!("{kind:?}: expected an engine error, got {other}"),
        }
        assert!(
            std::error::Error::source(&err).is_some(),
            "{kind:?}: source chain required"
        );
    }
}

#[test]
fn runner_drives_any_registered_engine() {
    // The acceptance criterion for the open API: the experiment runner
    // (untouched by the hashlog crate) drives the third engine purely
    // through its registry handle.
    let hashlog = ptsbench::hashlog::register();
    let r = run(&RunConfig {
        engine: hashlog,
        device_bytes: 48 << 20,
        duration: 30 * MINUTE,
        sample_window: 5 * MINUTE,
        ..RunConfig::default()
    })
    .expect("run");
    assert!(!r.out_of_space, "default dataset must fit");
    assert_eq!(r.samples.len(), 6, "30 min / 5 min windows");
    assert!(r.ops_executed > 100, "ops: {}", r.ops_executed);
    assert!(r.label.contains("hashlog"), "label: {}", r.label);
    // A log-structured store writes every update once (plus bounded GC
    // relocation): WA-A stays far below the LSM's.
    assert!(
        r.steady.wa_a >= 1.0 && r.steady.wa_a < 4.0,
        "hashlog WA-A: {}",
        r.steady.wa_a
    );
}

#[test]
fn sharded_harness_drives_any_registered_engine() {
    // Concurrency is part of the conformance bar: every registered
    // engine must survive the multi-client harness — two client
    // threads, two shared-nothing shards — and produce a merged report
    // with work on both shards.
    use ptsbench::core::ShardedRun;
    use ptsbench::harness::run_sharded;

    for kind in engines() {
        let sharded = ShardedRun::new(
            RunConfig {
                engine: kind,
                device_bytes: 32 << 20,
                duration: 10 * MINUTE,
                sample_window: 5 * MINUTE,
                ..RunConfig::default()
            },
            2,
        );
        let report = run_sharded(&sharded).expect("sharded run");
        assert_eq!(report.shards.len(), 2, "{kind:?}");
        assert_eq!(report.clients, 2, "{kind:?}");
        assert_eq!(report.out_of_space_shards(), 0, "{kind:?} must fit");
        for shard in &report.shards {
            assert!(
                shard.ops > 0,
                "{kind:?} {} executed no operations",
                shard.name
            );
        }
        assert_eq!(
            report.ops,
            report.shards.iter().map(|s| s.ops).sum::<u64>(),
            "{kind:?} merged ops must equal the per-shard sum"
        );
        assert_eq!(
            report.latency.count(),
            report.ops,
            "{kind:?} merged latency must cover every op"
        );
        assert!(
            report.render().contains(kind.label()),
            "{kind:?} report must carry the engine label"
        );
    }
}
