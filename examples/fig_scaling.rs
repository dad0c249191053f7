//! Concurrent sharded harness demo: every registered engine under
//! 1, 2, 4 and 8 client threads on a fixed total simulated capacity,
//! 60 simulated minutes per point — the study in
//! `ptsbench_bench::fig_scaling`.
//!
//! The output is fully deterministic — fixed seeds produce
//! byte-identical text — which CI exploits twice: it runs this example
//! twice and diffs the output, and diffs it against
//! `tests/golden/fig_scaling.txt`.
//!
//! Run with: `cargo run --release --example fig_scaling`

fn main() {
    ptsbench::hashlog::register();
    ptsbench_bench::fig_scaling::fig_scaling();
}
