//! Figures 3 and 4 — trimmed vs preconditioned drive state (Pitfall 3,
//! §4.3): throughput and WA-D over time for both engines and both
//! initial states, then the CDF of LBA write probability (LBAs sorted by
//! decreasing write count) from the two traced trimmed runs. The
//! B+Tree's curve saturates around x ~ 0.55 (it never writes ~45% of the
//! LBA space); the LSM's reaches 1 only at x = 1.

use ptsbench_bench::banner;
use ptsbench_core::pitfalls::{p3_initial_state, PitfallOptions};

fn main() {
    banner(
        "Figure 3 (a-d)",
        "Pitfall 3: overlooking the internal state of the SSD",
    );
    let results = p3_initial_state::evaluate(&PitfallOptions::default());
    let report = results.report();
    println!("{}", report.to_text());

    let lsm = results.lsm_trim.lba_cdf.as_ref().expect("trace enabled");
    let btree = results.btree_trim.lba_cdf.as_ref().expect("trace enabled");
    println!("-- Figure 4: LBA write-frequency CDF (trimmed drive) --");
    println!("{:>6}  {:>10}  {:>10}", "x", "LSM", "B+Tree");
    for i in (0..lsm.len()).step_by(5) {
        println!(
            "{:>6.2}  {:>10.4}  {:>10.4}",
            lsm[i].0, lsm[i].1, btree[i].1
        );
    }
    assert!(report.passed(), "Figure 3/4 phenomena did not reproduce");
}
