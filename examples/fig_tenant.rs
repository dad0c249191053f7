//! Multi-tenant serving: what a dispatch discipline and a tenant quota
//! actually buy — a paced interactive tenant beside an open-loop batch
//! aggressor on one LSM fleet, 2 simulated minutes per configuration:
//! the study in `ptsbench_bench::fig_tenant`.
//!
//! The output is fully deterministic — fixed seeds produce
//! byte-identical text — which CI exploits twice: it runs this example
//! twice and diffs the output, and diffs it against
//! `tests/golden/fig_tenant.txt`.
//!
//! Run with: `cargo run --release --example fig_tenant`

fn main() {
    ptsbench::hashlog::register();
    ptsbench_bench::fig_tenant::fig_tenant();
}
