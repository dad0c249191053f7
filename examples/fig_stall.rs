//! Write stalls vs background maintenance — foreground put latency
//! with maintenance drained inside the triggering put against
//! deferred, rate-budgeted background slices, for every registered
//! engine, 20 simulated minutes per run: the study in
//! `ptsbench_bench::fig_stall`.
//!
//! The output is fully deterministic — fixed seeds produce
//! byte-identical text — which CI exploits twice: it runs this example
//! twice and diffs the output, and diffs it against
//! `tests/golden/fig_stall.txt`.
//!
//! Run with: `cargo run --release --example fig_stall`

fn main() {
    ptsbench::hashlog::register();
    ptsbench_bench::fig_stall::fig_stall();
}
