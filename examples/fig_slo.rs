//! Goodput vs offered load at the serving front-end, with and without
//! admission control, for every registered engine at 40 simulated
//! minutes per point — the study in `ptsbench_bench::fig_slo`.
//!
//! The output is fully deterministic — fixed seeds produce
//! byte-identical text — which CI exploits twice: it runs this example
//! twice and diffs the output, and diffs it against
//! `tests/golden/fig_slo.txt`.
//!
//! Run with: `cargo run --release --example fig_slo`

fn main() {
    ptsbench::hashlog::register();
    ptsbench_bench::fig_slo::fig_slo();
}
