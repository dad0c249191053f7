//! Figure 2 — steady-state vs bursty performance (Pitfall 1, §4.1):
//! KV and device throughput, WA-A and WA-D over time for both engines
//! on a trimmed drive; then Pitfall 2's (§4.2) WA-A × WA-D decomposition
//! of the same two runs.

use ptsbench_bench::banner;
use ptsbench_core::pitfalls::{p1_short_tests, p2_wad, PitfallOptions};

fn main() {
    banner("Figure 2 (a-d)", "Pitfall 1: running short tests");
    let results = p1_short_tests::evaluate(&PitfallOptions::default());
    let p1 = results.report();
    println!("{}", p1.to_text());
    let p2 = p2_wad::from_pitfall1(results).report();
    println!("{}", p2.to_text());
    assert!(p1.passed(), "Figure 2 phenomena did not reproduce");
    assert!(p2.passed(), "Pitfall 2 (WA-D) phenomena did not reproduce");
}
