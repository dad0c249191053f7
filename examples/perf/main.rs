//! `perf` — the repository's two-clock benchmark.
//!
//! One workload, as the benchmark driver runs it (prints every metric
//! by name with its unit, checks the outputs, and ends with one JSON
//! line; exits non-zero on a failed check):
//!
//! ```text
//! perf --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//!      [--quick] [--trace-out <file>]
//! ```
//!
//! Everything, each workload in a fresh child process so peak RSS is
//! per workload:
//!
//! ```text
//! perf --workload all [--seed N] [--seconds S] [--traced] [--quick]
//!      [--json <file>] [--trace-out <prefix>]
//! perf compare <a.json> <b.json>
//! perf --self-test
//! perf manifest
//! ```
//!
//! See `README.md` beside this file for the metric glossary.

mod compare;
mod host;
mod json;
mod layers;
mod measure;
mod replay;
mod report;
mod spans;
mod suite;
mod traced;
mod workloads;

use std::process::ExitCode;

use report::{WorkloadResult, RUN_SECONDS};

#[global_allocator]
static ALLOC: host::CountingAlloc = host::CountingAlloc;

/// Parsed command line of the measuring modes.
pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub quick: bool,
    pub json: Option<String>,
    pub trace_out: Option<String>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perf --workload <name>|all [--seed N] [--seconds S] [--trace 0|1 | --traced] \
         [--quick] [--json <file>] [--trace-out <file>]\n       \
         perf compare <a.json> <b.json>\n       perf --self-test\n       perf manifest\n\
         workloads: {}",
        workloads::all(0, false)
            .iter()
            .map(|w| w.name)
            .collect::<Vec<_>>()
            .join(", ")
    );
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workload: String::new(),
        seed: 42,
        seconds: RUN_SECONDS as f64,
        traced: false,
        quick: false,
        json: None,
        trace_out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => options.workload = value()?,
            "--seed" => options.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                options.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&options.seconds) {
                    return Err("--seconds must be between 0 and 3600".to_string());
                }
            }
            "--trace" => {
                options.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--traced" => options.traced = true,
            "--quick" => options.quick = true,
            "--json" => options.json = Some(value()?),
            "--trace-out" => options.trace_out = Some(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if options.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    if options.quick {
        // Smoke scale: one round of one-twentieth the virtual duration.
        options.seconds = 0.0;
    }
    Ok(options)
}

/// Runs one workload in this process and prints its result; the last
/// line of standard output is the driver's JSON object.
fn run_one(options: &Options) -> ExitCode {
    let set = workloads::all(options.seed, options.quick);
    let Some(w) = set.iter().find(|w| w.name == options.workload) else {
        eprintln!("unknown workload {}", options.workload);
        return usage();
    };
    let result: WorkloadResult = if options.traced {
        let traced = traced::traced_run(w, options.seed);
        if let Some(path) = &options.trace_out {
            if let Err(e) = spans::write_chrome_file(path, &traced.logs) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("  host spans written to {path}");
        }
        traced.result
    } else {
        measure::timed_run(w, options.seed, options.seconds)
    };
    result.print_table();
    println!("detail {}", result.to_json());
    println!("{}", result.contract_line());
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        None | Some("--help" | "-h") => return usage(),
        Some("manifest") => {
            println!("{}", suite::manifest());
            return ExitCode::SUCCESS;
        }
        Some("compare") => {
            return match (args.get(1), args.get(2)) {
                (Some(a), Some(b)) => compare::run(a, b),
                _ => usage(),
            }
        }
        _ => {}
    }
    if cfg!(debug_assertions) {
        eprintln!("perf measures optimized builds only: rerun with --release");
        return ExitCode::from(2);
    }
    if args.iter().any(|a| a == "--self-test") {
        return suite::self_test();
    }
    match parse(&args) {
        Ok(options) if options.workload == "all" => suite::run_all(&options),
        Ok(options) => run_one(&options),
        Err(e) => {
            eprintln!("{e}");
            usage()
        }
    }
}
