//! NAND-operation parity of the FTL across refactors of its garbage
//! collector: a fixed seeded write/TRIM mix, with one `discard_all`
//! midway, on two small geometries (~28 % spare with 32-page blocks,
//! ~10 % spare with 16-page blocks) under greedy victim selection. Each half
//! fills the drive, then writes eight times its logical capacity, so GC
//! picks thousands of victims. The rendered numbers — an FNV over every
//! step's [`NandOps`], the final wear vector, the free list and the
//! mapped page count — were recorded before the candidate set changed;
//! a change that only makes the host faster must not move any of them.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use ptsbench_ssd::config::{GcConfig, Geometry};
use ptsbench_ssd::{Ftl, NandOps};
use ptsbench_testkit::{assert_golden, Fnv};

/// Folds one step's [`NandOps`] into `fnv`.
fn ops(fnv: &mut Fnv, step: NandOps) {
    for word in [
        step.programs,
        step.reads,
        step.erases,
        step.relocated,
        step.gc_runs,
    ] {
        fnv.word(word as u64);
    }
}

/// 64 logical blocks of 32 pages on 82 physical: ~28 % spare.
fn roomy() -> Geometry {
    Geometry {
        page_size: 4096,
        pages_per_block: 32,
        logical_pages: 64 * 32,
        physical_blocks: 82,
    }
}

/// 128 logical blocks of 16 pages on 141 physical: ~10 % spare.
fn tight() -> Geometry {
    Geometry {
        page_size: 4096,
        pages_per_block: 16,
        logical_pages: 128 * 16,
        physical_blocks: 141,
    }
}

/// Runs the mix and renders what must not move.
fn run(geom: Geometry) -> String {
    let mut ftl = Ftl::new(geom, GcConfig::default());
    let logical = geom.logical_pages;
    let mut rng = SmallRng::seed_from_u64(28);
    let mut steps = Fnv::new();
    let mut total = NandOps::default();
    let writes = 16 * logical;
    let mut written = 0;
    while written < writes {
        if written == writes / 2 {
            ftl.discard_all();
            steps.word(u64::MAX);
        }
        if written % (writes / 2) == 0 {
            // A full drive: fill the logical space in order.
            for lpn in 0..logical {
                ops(&mut steps, ftl.write(lpn).expect("fill"));
            }
        }
        // A fifth of the LBA space takes most writes (hot and cold data
        // share the drive), the rest are uniform; one op in twenty trims
        // a short range.
        let lpn = if rng.gen_range(0..10) < 7 {
            rng.gen_range(0..logical / 5)
        } else {
            rng.gen_range(0..logical)
        };
        if rng.gen_range(0..20) == 0 {
            let end = (lpn + rng.gen_range(1..8u64)).min(logical);
            for lpn in lpn..end {
                steps.word(ftl.trim(lpn).expect("trim") as u64);
            }
        } else {
            let op = ftl.write(lpn).expect("write");
            ops(&mut steps, op);
            total.merge(op);
            written += 1;
        }
    }
    ftl.check_invariants();
    let mut wear = Fnv::new();
    for count in ftl.erase_counts() {
        wear.word(count as u64);
    }
    format!(
        "steps={:016x} wear={:016x} free={} mapped={} gc_runs={} relocated={}",
        steps.0,
        wear.0,
        ftl.free_blocks(),
        ftl.mapped_pages(),
        total.gc_runs,
        total.relocated
    )
}

#[test]
fn greedy_victims_match_the_recorded_runs() {
    assert_golden("parity/ssd/ftl_parity/ROOMY_GREEDY.txt", &run(roomy()));
    assert_golden("parity/ssd/ftl_parity/TIGHT_GREEDY.txt", &run(tight()));
}
