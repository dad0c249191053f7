//! Tail-latency demo: queueing delay at the serving front-end as the
//! client fan-in grows from 1 to 64 over a fixed fleet of 4 shards,
//! under contiguous vs hashed key routing — the study in
//! `ptsbench_bench::fig_tail`, on every registered engine with every
//! client an open-loop Poisson source at a rate calibrated to the
//! engine's service time, 40 simulated minutes per run.
//!
//! The output is fully deterministic — fixed seeds produce
//! byte-identical text — which CI exploits twice: it runs this example
//! twice and diffs the output, and diffs it against
//! `tests/golden/fig_tail.txt`.
//!
//! Run with: `cargo run --release --example fig_tail`

fn main() {
    ptsbench::hashlog::register();
    ptsbench_bench::fig_tail::fig_tail();
}
