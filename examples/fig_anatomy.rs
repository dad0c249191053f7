//! Latency-anatomy demo: decomposing the serving tail into engine phase
//! spans, 40 simulated minutes per traced fleet — the study in
//! `ptsbench_bench::fig_anatomy`. Also writes one shard's trace as
//! Chrome trace-event JSON (`target/fig_anatomy_trace.json`, loadable
//! in `chrome://tracing` or Perfetto); CI validates that it parses.
//!
//! The output is fully deterministic — fixed seeds produce
//! byte-identical text — which CI exploits twice: it runs this example
//! twice and diffs the output, and diffs it against
//! `tests/golden/fig_anatomy.txt`.
//!
//! Run with: `cargo run --release --example fig_anatomy`

fn main() {
    ptsbench::hashlog::register();
    ptsbench_bench::fig_anatomy::fig_anatomy();
}
