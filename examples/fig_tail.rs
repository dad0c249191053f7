//! Tail-latency demo: queueing delay at the serving front-end as the
//! client fan-in grows from 1 to 64 over a fixed fleet of 4 shards,
//! under contiguous vs hashed key routing — the study in
//! `ptsbench_bench::fig_tail`, on the default engine with every client
//! an open-loop Poisson source of 25 simulated seconds mean
//! interarrival.
//!
//! The output is fully deterministic — fixed seeds produce
//! byte-identical text — which the CI determinism check exploits by
//! running this example twice and diffing the output.
//!
//! Run with: `cargo run --release --example fig_tail`

use ptsbench::core::registry::EngineKind;
use ptsbench::ssd::{MINUTE, SECOND};
use ptsbench_bench::fig_tail::{fig_tail, SHARDS, TOTAL_BYTES};

fn main() {
    println!("ptsbench fig_tail — queueing delay vs fan-in at the serving front-end");
    println!(
        "{} MiB drive over {SHARDS} shards, Zipfian(0.99) 50:50 read:write, \
         open-loop Poisson clients (25 s mean)",
        TOTAL_BYTES >> 20
    );
    println!();
    fig_tail(&[EngineKind::lsm()], 20 * MINUTE, Some(25 * SECOND));
}
