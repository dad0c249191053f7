//! Tail latency at the serving front-end — beyond the paper: the
//! `ptsbench_bench::fig_tail` fan-in sweep for every registered engine,
//! each at an arrival rate calibrated to its own service time.
//!
//! The bench asserts the front-end's headline guarantees: monotone
//! tail growth under contiguous routing, a bounded tail under hashed
//! routing, and byte-identical reports run-to-run.

use ptsbench_bench::fig_tail::{fig_tail, SHARDS, TOTAL_BYTES};
use ptsbench_core::registry::EngineRegistry;
use ptsbench_ssd::MINUTE;

fn main() {
    ptsbench_hashlog::register();
    let minutes = if ptsbench_bench::quick() { 20 } else { 40 };

    ptsbench_bench::rule_banner(
        "fig_tail: queueing delay vs fan-in (serving front-end)",
        &format!(
            "{} MiB over {SHARDS} shards, Zipfian(0.99), open-loop Poisson (rate \
             calibrated per engine), {minutes} simulated minutes, all registered engines",
            TOTAL_BYTES >> 20
        ),
    );
    fig_tail(&EngineRegistry::all(), minutes * MINUTE, None);
    println!();
    println!("determinism: byte-identical reports across runs — ok");
}
