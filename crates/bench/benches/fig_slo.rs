//! Goodput vs offered load under admission control — beyond the paper:
//! the `ptsbench_bench::fig_slo` sweep for every registered engine, at
//! 40 simulated minutes per point (20 under `PTSBENCH_QUICK=1`).

use ptsbench_ssd::MINUTE;

fn main() {
    ptsbench_hashlog::register();
    let minutes = if ptsbench_bench::quick() { 20 } else { 40 };
    ptsbench_bench::fig_slo::fig_slo(minutes * MINUTE);
}
