//! Figures 7 and 8 — software over-provisioning (Pitfall 6, §4.6):
//! throughput and WA-D with/without a reserved 25% OP partition, and
//! the no-OP vs extra-OP storage-cost heatmap.

use ptsbench_bench::banner;
use ptsbench_core::pitfalls::{p6_overprovisioning, PitfallOptions};

fn main() {
    banner(
        "Figures 7-8",
        "Pitfall 6: overlooking SSD software over-provisioning",
    );
    let results = p6_overprovisioning::evaluate(&PitfallOptions::default());
    let report = results.report();
    println!("{}", report.to_text());
    assert!(report.passed(), "Figure 7/8 phenomena did not reproduce");
}
