//! Client scaling — beyond the paper: the `ptsbench_bench::fig_scaling`
//! sweep of 1 → 8 client threads over every registered engine, at 60
//! simulated minutes per point (20 under `PTSBENCH_QUICK=1`).

use ptsbench_ssd::MINUTE;

fn main() {
    ptsbench_hashlog::register();
    let minutes = if ptsbench_bench::quick() { 20 } else { 60 };
    ptsbench_bench::fig_scaling::fig_scaling(minutes * MINUTE);
}
