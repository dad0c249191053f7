//! Engine conformance: one behavioral specification, instantiated for
//! every engine in the registry.
//!
//! The suite resolves engines purely through
//! `ptsbench::core::EngineRegistry` — the only engine-specific line is
//! the `ptsbench::hashlog::register()` call, which is exactly how a
//! downstream crate adds an engine. If a new engine registers a
//! descriptor, it is automatically held to this spec, and to the model
//! check (`common/model.rs`) over the same registry.

use ptsbench::core::runner::{run, RunConfig};
use ptsbench::core::{EngineRegistry, EngineTuning, PtsEngine, PtsError, WriteBatch};
use ptsbench::ssd::{DeviceConfig, DeviceProfile, Ssd, MINUTE};
use ptsbench::vfs::{Vfs, VfsOptions};

mod common;
use common::engines;
use common::model::{self, Op};

fn stack(bytes: u64) -> Vfs {
    let ssd = Ssd::new(DeviceConfig::from_profile(DeviceProfile::ssd1(), bytes)).into_shared();
    Vfs::whole_device(ssd, VfsOptions::default())
}

fn tuning(bytes: u64) -> EngineTuning {
    EngineTuning::for_device(bytes)
}

/// Runs scripted ops on every engine through the model check: each get
/// and scan reads as a `BTreeMap`, the counters as the ops applied one
/// by one, and every key at the end.
fn script(ops: &[Op]) {
    for kind in engines() {
        if let Err(e) = model::check(kind, &tuning(64 << 20), ops) {
            panic!("{e}");
        }
    }
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
    use Op::{Delete, Get, Put};
    script(&[
        Get(1),
        Put(1, 2),
        Put(2, 2),
        Put(1, 14),
        Get(1),
        Delete(1),
        Get(1),
        Delete(1),
        Delete(999),
        Get(2),
    ]);
}

#[test]
fn batch_apply_matches_individual_ops() {
    // Every seventh key is put and then deleted within the one batch.
    let puts = (0..200).map(|i| (i, Some(8)));
    let deletes = (0..200).step_by(7).map(|i| (i, None));
    script(&[Op::Batch(0, puts.chain(deletes).collect())]);
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
    let mut ops: Vec<Op> = (0..500).map(|i| Op::Put(i, 8)).collect();
    ops.extend([
        Op::Delete(42),
        Op::Reopen,
        Op::Get(42),
        Op::Put(600, 2),
        Op::Get(600),
    ]);
    script(&ops);
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
