//! Multi-tenant isolation under a batch aggressor — beyond the paper:
//! the `ptsbench_bench::fig_tenant` study at 2 simulated minutes per
//! configuration (1 under `PTSBENCH_QUICK=1`).

use ptsbench_ssd::MINUTE;

fn main() {
    let minutes = if ptsbench_bench::quick() { 1 } else { 2 };
    ptsbench_bench::fig_tenant::fig_tenant(minutes * MINUTE);
}
