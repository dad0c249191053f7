//! Queue-depth sweep — beyond the paper: the `ptsbench_bench::fig_qd`
//! study from QD 1 to 32, 16 seeded scans of 512 entries per probe
//! (8 of 384 under `PTSBENCH_QUICK=1`).

fn main() {
    ptsbench_hashlog::register();
    let (scans, scan_len) = if ptsbench_bench::quick() {
        (8, 384)
    } else {
        (16, 512)
    };
    ptsbench_bench::fig_qd::fig_qd(scans, scan_len, 32);
}
