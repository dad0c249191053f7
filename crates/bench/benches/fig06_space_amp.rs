//! Figure 6 — space amplification and storage cost (Pitfall 5, §4.5):
//! disk utilization and space amplification across dataset sizes
//! (including the out-of-space points), plus the Fig 6c cost heatmap.

use ptsbench_bench::banner;
use ptsbench_core::pitfalls::{p5_space_amp, PitfallOptions};

fn main() {
    banner(
        "Figure 6 (a-c)",
        "Pitfall 5: not accounting for space amplification",
    );
    let results = p5_space_amp::evaluate(&PitfallOptions::default());
    let report = results.report();
    println!("{}", report.to_text());
    assert!(report.passed(), "Figure 6 phenomena did not reproduce");
}
