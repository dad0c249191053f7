//! Figure 11 — additional workloads (§4.8): the 50:50 read:write mix
//! and the 128-byte-value variant, each on trimmed and preconditioned
//! drives, showing Pitfalls 1–3 hold beyond the default workload.

use ptsbench_bench::banner;
use ptsbench_core::pitfalls::{workloads, PitfallOptions};

fn main() {
    banner(
        "Figure 11 (a-d)",
        "additional workloads: pitfalls generalize",
    );
    let results = workloads::evaluate(&PitfallOptions::default());
    let report = results.report();
    println!("{}", report.to_text());
    assert!(report.passed(), "Figure 11 phenomena did not reproduce");
}
