//! Read-amplification demo: device read traffic of every registered
//! engine under a skewed (Zipfian) point-read stream of 4 000 gets,
//! swept across the read-path tier's block-cache budget and compression
//! level — the study in `ptsbench_bench::fig_readamp`.
//!
//! The output is fully deterministic — fixed seeds produce
//! byte-identical text — which CI exploits twice: it runs this example
//! twice and diffs the output, and diffs it against
//! `tests/golden/fig_readamp.txt`.
//!
//! Run with: `cargo run --release --example fig_readamp`

fn main() {
    ptsbench::hashlog::register();
    ptsbench_bench::fig_readamp::fig_readamp();
}
