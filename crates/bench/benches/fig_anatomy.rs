//! Latency anatomy — beyond the paper: the
//! `ptsbench_bench::fig_anatomy` phase decomposition of the serving
//! tail for every registered engine, at 40 simulated minutes per traced
//! fleet (20 under `PTSBENCH_QUICK=1`), without the trace export.

use ptsbench_ssd::MINUTE;

fn main() {
    ptsbench_hashlog::register();
    let minutes = if ptsbench_bench::quick() { 20 } else { 40 };
    ptsbench_bench::fig_anatomy::fig_anatomy(minutes * MINUTE, None);
}
