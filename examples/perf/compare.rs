//! `perf compare <a.json> <b.json>`: one row per workload x end-to-end
//! metric with both medians, their min–max, the bound, and a verdict.
//!
//! * `worse` — b's median is worse than a's by more than the bound (the
//!   metric's relative bound, or its absolute floor if that is wider);
//! * `unresolved` — not worse, but either side's own spread (max − min
//!   over its rounds, as a share of its median) is wider than the
//!   bound, so "no regression" cannot be told from noise;
//! * `same` — neither.
//!
//! Exits non-zero unless every row is `same`.

use std::process::ExitCode;

use crate::json::Json;

struct Side {
    median: f64,
    min: f64,
    max: f64,
}

impl Side {
    fn of(record: &Json, pass: &str, metric: &str) -> Option<Side> {
        let m = record.get(pass)?.get("metrics")?.get(metric)?;
        let field = |name: &str| m.get(name).and_then(Json::as_f64);
        Some(Side {
            median: field("value")?,
            min: field("min")?,
            max: field("max")?,
        })
    }

    fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.max - self.min) / self.median.abs()
        }
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn find<'a>(report: &'a Json, workload: &str) -> Option<&'a Json> {
    report
        .get("workloads")?
        .as_arr()?
        .iter()
        .find(|w| w.get("workload").and_then(Json::as_str) == Some(workload))
}

pub fn run(path_a: &str, path_b: &str) -> ExitCode {
    let (a, b) = match (load(path_a), load(path_b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let (Some(defs), Some(workloads)) = (
        a.get("end_to_end").and_then(Json::as_arr),
        a.get("workloads").and_then(Json::as_arr),
    ) else {
        eprintln!("{path_a}: not a `perf --workload all --json` report");
        return ExitCode::from(2);
    };
    println!(
        "{:<20} {:<20} {:>14} {:>25} {:>14} {:>25} {:>8} {:>6}  verdict",
        "workload", "metric", "a median", "a min..max", "b median", "b min..max", "delta", "bound"
    );
    let mut all_same = true;
    for record_a in workloads {
        let Some(name) = record_a.get("workload").and_then(Json::as_str) else {
            continue;
        };
        let Some(record_b) = find(&b, name) else {
            println!("{name:<20} missing from {path_b}");
            all_same = false;
            continue;
        };
        for def in defs {
            let field = |key: &str| def.get(key).and_then(Json::as_str).unwrap_or("");
            let metric = field("name");
            let number = |key: &str| def.get(key).and_then(Json::as_f64).unwrap_or(0.0);
            let (Some(sa), Some(sb)) = (
                Side::of(record_a, "timed", metric),
                Side::of(record_b, "timed", metric),
            ) else {
                println!("{name:<20} {metric:<20} missing on one side");
                all_same = false;
                continue;
            };
            let bound = if sa.median == 0.0 {
                number("bound")
            } else {
                number("bound").max(number("floor") / sa.median.abs())
            };
            // Positive = b is worse, as a share of a's median.
            let delta = if sa.median == 0.0 {
                0.0
            } else if field("better") == "higher" {
                (sa.median - sb.median) / sa.median.abs()
            } else {
                (sb.median - sa.median) / sa.median.abs()
            };
            let verdict = if delta > bound {
                "worse"
            } else if sa.spread() > bound || sb.spread() > bound {
                "unresolved"
            } else {
                "same"
            };
            all_same &= verdict == "same";
            println!(
                "{:<20} {:<20} {:>14.6} {:>25} {:>14.6} {:>25} {:>+7.2}% {:>5.0}%  {}",
                name,
                metric,
                sa.median,
                format!("{:.6}..{:.6}", sa.min, sa.max),
                sb.median,
                format!("{:.6}..{:.6}", sb.min, sb.max),
                delta * 100.0,
                bound * 100.0,
                verdict
            );
        }
    }
    if all_same {
        println!("all rows: same");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
