//! Figure 5 — dataset-size sweep (Pitfall 4, §4.4): steady throughput,
//! WA-D and WA-A at dataset/capacity ratios 0.25–0.62, trimmed and
//! preconditioned.

use ptsbench_bench::banner;
use ptsbench_core::pitfalls::{p4_dataset_size, PitfallOptions};

fn main() {
    banner(
        "Figure 5 (a-c)",
        "Pitfall 4: testing with a single dataset size",
    );
    let results = p4_dataset_size::evaluate(&PitfallOptions::default());
    let report = results.report();
    println!("{}", report.to_text());
    assert!(report.passed(), "Figure 5 phenomena did not reproduce");
}
