//! Figures 9 and 10 — storage technology (Pitfall 7, §4.7): steady
//! throughput of both engines across SSD1 (enterprise flash), SSD2
//! (consumer QLC with a large cache) and SSD3 (Optane-like), plus the
//! 1-minute-average throughput variability series.

use ptsbench_bench::banner;
use ptsbench_core::pitfalls::{p7_storage_tech, PitfallOptions};

fn main() {
    banner("Figures 9-10", "Pitfall 7: testing on a single SSD type");
    let results = p7_storage_tech::evaluate(&PitfallOptions::default());
    let report = results.report();
    println!("{}", report.to_text());
    assert!(report.passed(), "Figure 9/10 phenomena did not reproduce");
}
