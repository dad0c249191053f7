//! Read-amplification sweep — beyond the paper: the
//! `ptsbench_bench::fig_readamp` cache budget x compression study at
//! 4 000 Zipfian gets per probe (1 500 under `PTSBENCH_QUICK=1`).

fn main() {
    ptsbench_hashlog::register();
    let gets = if ptsbench_bench::quick() {
        1_500
    } else {
        4_000
    };
    ptsbench_bench::fig_readamp::fig_readamp(gets);
}
