//! Property-based tests of the FTL: under arbitrary interleavings of
//! writes and TRIMs, the mapping stays consistent, utilization is
//! tracked exactly, and garbage collection never loses data.

use proptest::prelude::*;

use ptsbench_ssd::config::{GcConfig, Geometry};
use ptsbench_ssd::ftl::Ftl;

/// A compact op language over a small logical space.
#[derive(Debug, Clone)]
enum Op {
    Write(u64),
    Trim(u64),
    TrimRange(u64, u64),
}

fn op_strategy(logical: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => (0..logical).prop_map(Op::Write),
        1 => (0..logical).prop_map(Op::Trim),
        1 => (0..logical, 1..8u64).prop_map(|(s, l)| Op::TrimRange(s, l)),
    ]
}

fn small_geometry() -> Geometry {
    // 12 logical blocks + 8 spare (GC reserve + write streams + margin).
    Geometry {
        page_size: 4096,
        pages_per_block: 8,
        logical_pages: 96,
        physical_blocks: 20,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The FTL mapping tracks a simple set model exactly, and internal
    /// invariants hold after every operation batch.
    #[test]
    fn ftl_matches_set_model(
        ops in proptest::collection::vec(op_strategy(96), 1..600),
    ) {
        let geom = small_geometry();
        let mut ftl = Ftl::new(geom, GcConfig { reserve_blocks: 3 });
        let mut model = std::collections::HashSet::new();
        for op in &ops {
            match *op {
                Op::Write(lpn) => {
                    ftl.write(lpn).expect("write");
                    model.insert(lpn);
                }
                Op::Trim(lpn) => {
                    let had = ftl.trim(lpn).expect("trim");
                    prop_assert_eq!(had, model.remove(&lpn), "trim disagreement at {}", lpn);
                }
                Op::TrimRange(start, len) => {
                    let end = (start + len).min(96);
                    for lpn in start..end {
                        let had = ftl.trim(lpn).expect("trim");
                        prop_assert_eq!(had, model.remove(&lpn));
                    }
                }
            }
        }
        prop_assert_eq!(ftl.mapped_pages(), model.len() as u64, "mapped count drifted");
        for lpn in 0..96 {
            prop_assert_eq!(ftl.is_mapped(lpn), model.contains(&lpn), "mapping of {} wrong", lpn);
        }
        ftl.check_invariants();
    }

    /// Write amplification accounting is conservative: programs >= host
    /// writes, and relocated pages are exactly the surplus.
    #[test]
    fn nand_accounting_is_consistent(
        ops in proptest::collection::vec(0u64..96, 1..800),
    ) {
        let mut ftl = Ftl::new(small_geometry(), GcConfig { reserve_blocks: 3 });
        let mut host_writes = 0u64;
        let mut programs = 0u64;
        let mut relocated = 0u64;
        for &lpn in &ops {
            let o = ftl.write(lpn).expect("write");
            host_writes += 1;
            programs += o.programs as u64;
            relocated += o.relocated as u64;
        }
        prop_assert_eq!(programs, host_writes + relocated, "programs must be host + relocations");
        prop_assert!(programs >= host_writes);
        ftl.check_invariants();
    }

    /// discard_all always returns the device to a state from which the
    /// full logical space can be written again without error.
    #[test]
    fn discard_all_restores_writability(
        warmup in proptest::collection::vec(0u64..96, 0..400),
    ) {
        let mut ftl = Ftl::new(small_geometry(), GcConfig { reserve_blocks: 3 });
        for &lpn in &warmup {
            ftl.write(lpn).expect("write");
        }
        ftl.discard_all();
        prop_assert_eq!(ftl.mapped_pages(), 0);
        for lpn in 0..96 {
            ftl.write(lpn).expect("write after discard");
        }
        prop_assert_eq!(ftl.mapped_pages(), 96);
        ftl.check_invariants();
    }
}
