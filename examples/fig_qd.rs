//! Queue-depth demo: scan read throughput of every registered engine at
//! I/O submission queue depths 1 to 32 (16 seeded scans of 512 entries
//! per probe), plus the compatibility check that a QD=1 harness run
//! renders byte-identically to an untouched (pre-queue) configuration —
//! the study in `ptsbench_bench::fig_qd`.
//!
//! The output is fully deterministic — fixed seeds produce
//! byte-identical text — which CI exploits twice: it runs this example
//! twice and diffs the output, and diffs it against
//! `tests/golden/fig_qd.txt`.
//!
//! Run with: `cargo run --release --example fig_qd`

fn main() {
    ptsbench::hashlog::register();
    ptsbench_bench::fig_qd::fig_qd();
}
