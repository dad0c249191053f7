//! Pitfall 4 — *Testing with a single dataset size*
//! (paper §4.4, Figure 5).
//!
//! Larger datasets mean more valid pages per flash block, more GC
//! relocation work, higher WA-D, lower throughput — and the *ratio*
//! between the two engines changes with dataset size, so a comparison
//! made at one size does not generalize.

use ptsbench_metrics::report::render_sweep_table;

use crate::pitfalls::{PitfallOptions, PitfallReport, Verdict};
use crate::registry::EngineKind;
use crate::runner::{run, RunConfig, RunResult};
use crate::state::DriveState;

/// The dataset/capacity fractions of Figure 5.
pub(crate) const FRACTIONS: [f64; 4] = [0.25, 0.37, 0.5, 0.62];

/// One sweep point.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Dataset/capacity fraction.
    pub fraction: f64,
    /// Engine.
    pub engine: EngineKind,
    /// Drive state.
    pub state: DriveState,
    /// The full run result.
    pub result: RunResult,
}

/// The Figure 5 sweep.
#[derive(Debug, Clone)]
pub struct Pitfall4 {
    /// All sweep points (engine x state x fraction).
    pub points: Vec<SweepPoint>,
}

/// Runs the sweep.
pub fn evaluate(opts: &PitfallOptions) -> Pitfall4 {
    let mut points = Vec::new();
    for &fraction in &FRACTIONS {
        for engine in [EngineKind::lsm(), EngineKind::btree()] {
            for state in [DriveState::Trimmed, DriveState::Preconditioned] {
                let cfg = RunConfig {
                    engine,
                    drive_state: state,
                    dataset_fraction: fraction,
                    device_bytes: opts.device_bytes,
                    duration: opts.duration,
                    sample_window: opts.sample_window,
                    seed: opts.seed,
                    ..RunConfig::default()
                };
                points.push(SweepPoint {
                    fraction,
                    engine,
                    state,
                    result: run(&cfg).expect("pitfall 4 run"),
                });
            }
        }
    }
    Pitfall4 { points }
}

impl Pitfall4 {
    /// Looks up one sweep point.
    pub fn get(&self, engine: EngineKind, state: DriveState, fraction: f64) -> &RunResult {
        &self
            .points
            .iter()
            .find(|p| {
                p.engine == engine && p.state == state && (p.fraction - fraction).abs() < 1e-9
            })
            .expect("sweep point exists")
            .result
    }

    fn row(&self, engine: EngineKind, state: DriveState) -> (String, Vec<f64>, Vec<f64>, Vec<f64>) {
        let mut kops = Vec::new();
        let mut wad = Vec::new();
        let mut waa = Vec::new();
        for &f in &FRACTIONS {
            let r = self.get(engine, state, f);
            kops.push(r.steady.steady_kops);
            wad.push(r.steady.wa_d);
            waa.push(r.steady.wa_a);
        }
        (
            format!("{}/{}", engine.label(), state.label()),
            kops,
            wad,
            waa,
        )
    }

    /// Builds the report.
    pub fn report(&self) -> PitfallReport {
        let mut rendered = String::new();
        let mut tput_rows = Vec::new();
        let mut wad_rows = Vec::new();
        let mut waa_rows = Vec::new();
        for engine in [EngineKind::lsm(), EngineKind::btree()] {
            for state in [DriveState::Trimmed, DriveState::Preconditioned] {
                let (label, kops, wad, waa) = self.row(engine, state);
                tput_rows.push((label.clone(), kops));
                wad_rows.push((label.clone(), wad));
                waa_rows.push((label, waa));
            }
        }
        let cols: Vec<String> = FRACTIONS.iter().map(|f| format!("ds={f}")).collect();
        let col_refs: Vec<&str> = cols.iter().map(|s| s.as_str()).collect();
        rendered.push_str(&render_sweep_table(
            "Fig 5a: steady throughput (Kops/s)",
            &col_refs,
            &tput_rows,
        ));
        rendered.push_str(&render_sweep_table("Fig 5b: WA-D", &col_refs, &wad_rows));
        rendered.push_str(&render_sweep_table("Fig 5c: WA-A", &col_refs, &waa_rows));

        // Verdict data.
        let lsm_small = self
            .get(EngineKind::lsm(), DriveState::Trimmed, 0.25)
            .steady;
        let lsm_large = self
            .get(EngineKind::lsm(), DriveState::Trimmed, 0.62)
            .steady;
        let bt_small = self
            .get(EngineKind::btree(), DriveState::Trimmed, 0.25)
            .steady;
        let bt_large = self
            .get(EngineKind::btree(), DriveState::Trimmed, 0.62)
            .steady;
        let speedup_small = lsm_small.steady_kops / bt_small.steady_kops.max(1e-9);
        let speedup_large = lsm_large.steady_kops / bt_large.steady_kops.max(1e-9);

        let tail_wad = |r: &RunResult| {
            r.series("wa_d_w", |s| s.wa_d_window)
                .tail_mean(3)
                .unwrap_or(1.0)
        };
        let prec_wad_monotone = {
            let w: Vec<f64> = FRACTIONS
                .iter()
                .map(|&f| tail_wad(self.get(EngineKind::lsm(), DriveState::Preconditioned, f)))
                .collect();
            w.last().expect("non-empty") > w.first().expect("non-empty")
        };

        let verdicts = vec![
            Verdict::new(
                "LSM throughput decreases with dataset size (trimmed)",
                lsm_large.steady_kops < lsm_small.steady_kops,
                format!(
                    "ds 0.25: {:.2} Kops vs ds 0.62: {:.2} Kops",
                    lsm_small.steady_kops, lsm_large.steady_kops
                ),
            ),
            Verdict::new(
                "WA-D grows with dataset size (LSM, preconditioned)",
                prec_wad_monotone,
                format!(
                    "tail WA-D at 0.25: {:.2} -> at 0.62: {:.2}",
                    tail_wad(self.get(EngineKind::lsm(), DriveState::Preconditioned, 0.25)),
                    tail_wad(self.get(EngineKind::lsm(), DriveState::Preconditioned, 0.62))
                ),
            ),
            Verdict::new(
                "WA-A changes only mildly with dataset size",
                {
                    let a = lsm_small.wa_a;
                    let b = lsm_large.wa_a;
                    (b - a).abs() / a.max(1e-9) < 0.5
                },
                format!("LSM WA-A {:.1} -> {:.1}", lsm_small.wa_a, lsm_large.wa_a),
            ),
            Verdict::new(
                "the LSM/B+Tree speedup ratio shrinks as the dataset grows (trimmed)",
                speedup_large < speedup_small,
                format!(
                    "speedup at 0.25: {speedup_small:.2}x vs at 0.62: {speedup_large:.2}x \
                     (paper: 3.3x -> 1.9x)"
                ),
            ),
        ];
        PitfallReport {
            id: 4,
            title: "Testing with a single dataset size",
            rendered,
            verdicts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptsbench_ssd::MINUTE;

    #[test]
    fn pitfall4_manifests_on_quick_config() {
        // The sweep is 16 runs; shrink further for unit-test time.
        // Needs enough erase blocks for cold-data segregation and long
        // enough runs for preconditioned WA-D to settle.
        let opts = PitfallOptions {
            device_bytes: 64 << 20,
            duration: 120 * MINUTE,
            sample_window: 5 * MINUTE,
            seed: 42,
        };
        let p = evaluate(&opts);
        assert_eq!(p.points.len(), 16);
        let report = p.report();
        assert!(
            report.passed(),
            "pitfall 4 verdicts failed:\n{}",
            report.to_text()
        );
    }
}
