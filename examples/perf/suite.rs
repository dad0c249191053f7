//! The whole benchmark at once: every workload in a fresh child process
//! of this binary (so `VmHWM` is per workload), the environment block,
//! the `--json` report `perf compare` reads, `--self-test`, and the
//! `BENCHMARK.json` manifest generated from the metric tables.

use std::process::{Command, ExitCode};

use crate::host::{load_average, nproc};
use crate::json::Json;
use crate::measure::timed_run;
use crate::report::{MetricDef, END_TO_END, PER_LAYER, RUN_SECONDS};
use crate::traced::traced_run;
use crate::workloads;
use crate::Options;

/// The metric table as JSON: `BENCHMARK.json`'s shape (only end-to-end
/// metrics have a bound), plus the absolute `floor` when `for_compare`
/// (the `--json` report `perf compare` reads).
fn metric_defs(defs: &[MetricDef], for_compare: bool) -> Json {
    Json::Arr(
        defs.iter()
            .map(|d| {
                let mut pairs = vec![
                    ("name", Json::str(d.name)),
                    ("unit", Json::str(d.unit)),
                    ("better", Json::str(d.better.label())),
                ];
                if d.bound > 0.0 {
                    pairs.push(("bound", Json::Num(d.bound)));
                }
                if for_compare {
                    pairs.push(("floor", Json::Num(d.floor)));
                }
                Json::obj(pairs)
            })
            .collect(),
    )
}

/// `BENCHMARK.json`, generated from the tables the binary reports from
/// so the two cannot drift (`--self-test` compares them).
pub fn manifest() -> String {
    let manifest = Json::obj([
        (
            "command",
            Json::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--quiet",
                    "--manifest-path",
                    "examples/perf/Cargo.toml",
                    "--",
                ]
                .map(Json::str)
                .to_vec(),
            ),
        ),
        ("paths", Json::Arr(vec![Json::str("examples/perf")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                workloads::all(0, false)
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        ("end_to_end", metric_defs(END_TO_END, false)),
        ("per_layer", metric_defs(PER_LAYER, false)),
    ]);
    // One entry per line keeps the file diffable.
    let Json::Obj(sections) = manifest else {
        unreachable!("the manifest is an object")
    };
    let mut out = String::from("{\n");
    for (i, (key, value)) in sections.iter().enumerate() {
        let comma = if i + 1 < sections.len() { "," } else { "" };
        match value {
            Json::Arr(items) if matches!(items.first(), Some(Json::Obj(_))) => {
                out.push_str(&format!("  \"{key}\": [\n"));
                for (j, item) in items.iter().enumerate() {
                    let comma = if j + 1 < items.len() { "," } else { "" };
                    out.push_str(&format!("    {item}{comma}\n"));
                }
                out.push_str(&format!("  ]{comma}\n"));
            }
            other => out.push_str(&format!("  \"{key}\": {other}{comma}\n")),
        }
    }
    out.push('}');
    out
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn environment(options: &Options) -> Json {
    Json::obj([
        ("nproc", Json::Num(nproc() as f64)),
        ("rustc", Json::str(command_line("rustc", &["-V"]))),
        (
            "profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        (
            "git_commit",
            Json::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Json::Num(options.seed as f64)),
        ("seconds", Json::Num(options.seconds)),
        ("quick", Json::Bool(options.quick)),
        ("load_average", load_average().map_or(Json::Null, Json::Num)),
    ])
}

/// Runs one workload in a child process of this binary and returns its
/// `detail` record.
fn run_child(options: &Options, workload: &str, traced: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &options.seed.to_string()])
        .args(["--seconds", &options.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if options.quick {
        command.arg("--quick");
    }
    if let (true, Some(prefix)) = (traced, &options.trace_out) {
        command.args(["--trace-out", &format!("{prefix}.{workload}.json")]);
    }
    // The child's stderr passes through; its stdout is echoed below.
    let output = command
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut detail = None;
    for line in stdout.lines() {
        match line.strip_prefix("detail ") {
            Some(json) => detail = Some(Json::parse(json)?),
            // The contract line is for the driver; skip it here.
            None if line.starts_with('{') => {}
            None => println!("{line}"),
        }
    }
    let detail = detail.ok_or_else(|| format!("{workload}: child printed no result"))?;
    if !output.status.success() {
        return Err(format!("{workload}: checks failed ({})", output.status));
    }
    Ok(detail)
}

pub fn run_all(options: &Options) -> ExitCode {
    if let Some(load) = load_average() {
        if load > 0.5 * nproc() as f64 {
            eprintln!(
                "warning: load average {load:.2} on {} cores — host timings will be noisy",
                nproc()
            );
        }
    }
    let mut ok = true;
    let mut records = Vec::new();
    for w in workloads::all(options.seed, options.quick) {
        let mut record = vec![("workload", Json::str(w.name)), ("why", Json::str(w.why))];
        let passes: &[(&str, bool)] = if options.traced {
            &[("timed", false), ("traced", true)]
        } else {
            &[("timed", false)]
        };
        for &(key, traced) in passes {
            match run_child(options, w.name, traced) {
                Ok(detail) => record.push((key, detail)),
                Err(e) => {
                    eprintln!("{e}");
                    ok = false;
                }
            }
        }
        records.push(Json::obj(record));
    }
    if let Some(path) = &options.json {
        let report = Json::obj([
            ("environment", environment(options)),
            ("end_to_end", metric_defs(END_TO_END, true)),
            ("workloads", Json::Arr(records)),
        ]);
        if let Err(e) = std::fs::write(path, format!("{report}\n")) {
            eprintln!("cannot write {path}: {e}");
            ok = false;
        } else {
            println!("report written to {path}");
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The virtual-clock end-to-end metrics: these must repeat exactly.
fn is_virtual(name: &str) -> bool {
    !matches!(name, "sim_ops_per_host_s" | "setup_s" | "peak_rss_mb")
}

/// Checks that a contract line is well-formed JSON with exactly the
/// contract's keys and every metric of `defs`, each with its unit.
fn check_contract_line(line: &str, defs: &[MetricDef], problems: &mut Vec<String>) {
    let parsed = match Json::parse(line) {
        Ok(parsed) => parsed,
        Err(e) => return problems.push(format!("contract line is not JSON: {e}")),
    };
    let keys: Vec<&str> = parsed
        .as_obj()
        .map(|pairs| pairs.iter().map(|(k, _)| k.as_str()).collect())
        .unwrap_or_default();
    if keys != ["correct", "attempted", "failed", "metrics"] {
        problems.push(format!("contract line has keys {keys:?}"));
    }
    for def in defs {
        let metric = parsed.get("metrics").and_then(|m| m.get(def.name));
        let unit = metric.and_then(|m| m.get("unit")).and_then(Json::as_str);
        let value = metric.and_then(|m| m.get("value")).and_then(Json::as_f64);
        if unit != Some(def.unit) || value.is_none() {
            problems.push(format!("{}: missing, or without value and unit", def.name));
        }
    }
}

/// Checks `BENCHMARK.json` (in the working directory) against the
/// metric tables and the workload set.
fn check_manifest_file(problems: &mut Vec<String>) {
    let text = match std::fs::read_to_string("BENCHMARK.json") {
        Ok(text) => text,
        Err(e) => return problems.push(format!("BENCHMARK.json (run from the repo root): {e}")),
    };
    let file = match Json::parse(&text) {
        Ok(file) => file,
        Err(e) => return problems.push(format!("BENCHMARK.json is not JSON: {e}")),
    };
    let generated = Json::parse(&manifest()).expect("the generated manifest parses");
    for section in [
        "command",
        "paths",
        "run_seconds",
        "workloads",
        "end_to_end",
        "per_layer",
    ] {
        if file.get(section) != generated.get(section) {
            problems.push(format!(
                "BENCHMARK.json `{section}` differs from the binary's tables \
                 (regenerate with `perf manifest`)"
            ));
        }
    }
}

/// Quick mode twice in-process: equal virtual metrics, well-formed
/// JSON, every metric of `BENCHMARK.json` present with a unit.
pub fn self_test() -> ExitCode {
    let mut problems = Vec::new();
    check_manifest_file(&mut problems);
    let seed = 42;
    for w in workloads::all(seed, true) {
        let mut virtuals: Vec<Vec<(&str, f64)>> = Vec::new();
        for pass in 1..=2 {
            let timed = timed_run(&w, seed, 0.0);
            let mut results = vec![(&timed, END_TO_END)];
            // The traced run re-checks the same virtual results against
            // its replays; once per workload is enough.
            let traced = (pass == 1).then(|| traced_run(&w, seed).result);
            if let Some(traced) = &traced {
                results.push((traced, PER_LAYER));
            }
            for (result, defs) in results {
                for p in &result.problems {
                    problems.push(format!("{} pass {pass}: {p}", w.name));
                }
                check_contract_line(&result.contract_line().to_string(), defs, &mut problems);
                if let Err(e) = Json::parse(&result.to_json().to_string()) {
                    problems.push(format!("{}: detail record is not JSON: {e}", w.name));
                }
            }
            virtuals.push(
                timed
                    .values
                    .iter()
                    .filter(|v| is_virtual(v.name))
                    .map(|v| (v.name, v.summary.median))
                    .collect(),
            );
        }
        if virtuals[0] != virtuals[1] {
            problems.push(format!(
                "{}: virtual metrics differ between two runs: {:?} vs {:?}",
                w.name, virtuals[0], virtuals[1]
            ));
        }
        println!("self-test: {} done", w.name);
    }
    if problems.is_empty() {
        println!("self-test passed");
        ExitCode::SUCCESS
    } else {
        for p in &problems {
            eprintln!("self-test: {p}");
        }
        ExitCode::FAILURE
    }
}
