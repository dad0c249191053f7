//! A guided tour of the seven benchmarking pitfalls: runs each pitfall's
//! experiment at the paper sizing the figure targets use
//! (`PitfallOptions::default()`), prints the figure-shaped reports with
//! pass/fail verdicts, and exits non-zero when any verdict fails.
//!
//! ```sh
//! cargo run --release --example pitfall_tour   # ~10 s in release
//! ```

use ptsbench::core::pitfalls::{
    p1_short_tests, p2_wad, p3_initial_state, p4_dataset_size, p5_space_amp, p6_overprovisioning,
    p7_storage_tech, workloads, PitfallOptions,
};
use ptsbench::ssd::MINUTE;

fn main() {
    let opts = PitfallOptions::default();
    println!(
        "ptsbench pitfall tour — device {} MiB, {} simulated minutes per run; \
         exits non-zero if any verdict fails\n",
        opts.device_bytes >> 20,
        opts.duration / MINUTE
    );

    let mut passed = 0;
    let mut total = 0;
    let mut summary: Vec<(u8, &'static str, bool)> = Vec::new();

    let p1 = p1_short_tests::evaluate(&opts);
    // Pitfall 2 analyzes the same runs as Pitfall 1 — no need to rerun.
    let p2 = p2_wad::from_pitfall1(p1.clone());
    let reports = vec![
        p1.report(),
        p2.report(),
        p3_initial_state::evaluate(&opts).report(),
        p4_dataset_size::evaluate(&opts).report(),
        p5_space_amp::evaluate(&opts).report(),
        p6_overprovisioning::evaluate(&opts).report(),
        p7_storage_tech::evaluate(&opts).report(),
        workloads::evaluate(&opts).report(),
    ];
    for report in reports {
        println!("{}", report.to_text());
        summary.push((report.id, report.title, report.passed()));
        total += report.verdicts.len();
        passed += report.verdicts.iter().filter(|v| v.pass).count();
    }

    println!("================ summary ================");
    for (id, title, ok) in summary {
        println!(
            "  pitfall {id}: {title:55} [{}]",
            if ok { "ok" } else { "FAILED" }
        );
    }
    println!("{passed}/{total} verdicts passed");
    if passed < total {
        std::process::exit(1);
    }
}
