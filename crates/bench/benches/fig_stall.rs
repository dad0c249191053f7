//! Write stalls vs background maintenance — beyond the paper: the
//! `ptsbench_bench::fig_stall` study as a bench target.
//!
//! The paper measures engines whose maintenance runs on background
//! threads (RocksDB, WiredTiger); the simulator's seed engines drained
//! it inside the triggering op, which is exactly what `fig_anatomy`'s
//! p99 decomposition exposed.

fn main() {
    ptsbench_hashlog::register();
    ptsbench_bench::fig_stall::fig_stall();
}
