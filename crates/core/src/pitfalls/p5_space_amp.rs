//! Pitfall 5 — *Not accounting for space amplification*
//! (paper §4.5, Figure 6).
//!
//! The LSM trades disk space for write performance: it keeps multiple
//! levels (and transiently both compaction inputs and outputs) on disk,
//! reaching 1.4–1.9x space amplification, and simply *cannot store* the
//! paper's two largest datasets. The B+Tree stays near 1.12–1.15x.
//! Folding space amplification into a cost model (Fig 6c) can flip the
//! winner for capacity-bound deployments.

use ptsbench_metrics::cost::Heatmap;
use ptsbench_metrics::report::{render_heatmap, render_sweep_table};

use crate::costmodel::fig6c_heatmap;
use crate::pitfalls::{PitfallOptions, PitfallReport, Verdict};
use crate::registry::EngineKind;
use crate::runner::{run, RunConfig, RunResult};
use crate::state::DriveState;

/// The dataset fractions of Figure 6 (including the two where RocksDB
/// runs out of space).
pub(crate) const FRACTIONS: [f64; 6] = [0.25, 0.37, 0.5, 0.62, 0.75, 0.88];

/// One measurement point.
#[derive(Debug, Clone)]
pub struct SpacePoint {
    /// Dataset/capacity fraction.
    pub fraction: f64,
    /// Engine.
    pub engine: EngineKind,
    /// The run (possibly out-of-space).
    pub result: RunResult,
}

/// The Figure 6 experiment.
#[derive(Debug, Clone)]
pub struct Pitfall5 {
    /// All measurement points.
    pub points: Vec<SpacePoint>,
    /// The Fig 6c cost heatmap (from the ds=0.5 preconditioned-free
    /// measurements).
    pub heatmap: Heatmap,
}

/// Runs the experiment.
pub fn evaluate(opts: &PitfallOptions) -> Pitfall5 {
    let mut points = Vec::new();
    for &fraction in &FRACTIONS {
        for engine in [EngineKind::lsm(), EngineKind::btree()] {
            let cfg = RunConfig {
                engine,
                dataset_fraction: fraction,
                drive_state: DriveState::Trimmed,
                device_bytes: opts.device_bytes,
                duration: opts.duration,
                sample_window: opts.sample_window,
                seed: opts.seed,
                ..RunConfig::default()
            };
            points.push(SpacePoint {
                fraction,
                engine,
                result: run(&cfg).expect("pitfall 5 run"),
            });
        }
    }
    let lsm_mid = points
        .iter()
        .find(|p| p.engine == EngineKind::lsm() && (p.fraction - 0.5).abs() < 1e-9)
        .expect("ds=0.5 point");
    let bt_mid = points
        .iter()
        .find(|p| p.engine == EngineKind::btree() && (p.fraction - 0.5).abs() < 1e-9)
        .expect("ds=0.5 point");
    let reference = RunConfig::default().profile.reference_capacity;
    let heatmap = fig6c_heatmap(&lsm_mid.result, &bt_mid.result, reference);
    Pitfall5 { points, heatmap }
}

impl Pitfall5 {
    /// Looks up a point.
    pub fn get(&self, engine: EngineKind, fraction: f64) -> &RunResult {
        &self
            .points
            .iter()
            .find(|p| p.engine == engine && (p.fraction - fraction).abs() < 1e-9)
            .expect("point exists")
            .result
    }

    /// Builds the report.
    pub fn report(&self) -> PitfallReport {
        let cols: Vec<String> = FRACTIONS.iter().map(|f| format!("ds={f}")).collect();
        let col_refs: Vec<&str> = cols.iter().map(|s| s.as_str()).collect();
        let row = |engine: EngineKind, metric: &dyn Fn(&RunResult) -> f64| -> Vec<f64> {
            FRACTIONS
                .iter()
                .map(|&f| metric(self.get(engine, f)))
                .collect()
        };
        let util = |r: &RunResult| {
            if r.failed_during_load {
                f64::NAN // out of space: no utilization to report
            } else {
                100.0 * r.disk_used_bytes as f64 / r.device_bytes as f64
            }
        };
        let samp = |r: &RunResult| {
            if r.failed_during_load {
                f64::NAN
            } else {
                r.space_amplification()
            }
        };
        let mut rendered = render_sweep_table(
            "Fig 6a: disk utilization (%) — NaN marks out-of-space",
            &col_refs,
            &[
                ("lsm".to_string(), row(EngineKind::lsm(), &util)),
                ("btree".to_string(), row(EngineKind::btree(), &util)),
            ],
        );
        rendered.push_str(&render_sweep_table(
            "Fig 6b: space amplification",
            &col_refs,
            &[
                ("lsm".to_string(), row(EngineKind::lsm(), &samp)),
                ("btree".to_string(), row(EngineKind::btree(), &samp)),
            ],
        ));
        rendered.push_str("-- Fig 6c --\n");
        rendered.push_str(&render_heatmap(&self.heatmap));

        let lsm_mid = self.get(EngineKind::lsm(), 0.5);
        let bt_mid = self.get(EngineKind::btree(), 0.5);
        let lsm_oos = FRACTIONS
            .iter()
            .filter(|&&f| self.get(EngineKind::lsm(), f).out_of_space)
            .count();
        let bt_largest = self.get(EngineKind::btree(), 0.88);

        let verdicts = vec![
            Verdict::new(
                "LSM space amplification well above B+Tree's",
                !lsm_mid.out_of_space
                    && lsm_mid.space_amplification() > bt_mid.space_amplification() * 1.15,
                format!(
                    "ds=0.5: LSM {:.2} vs B+Tree {:.2} (paper: 1.46 vs 1.13)",
                    lsm_mid.space_amplification(),
                    bt_mid.space_amplification()
                ),
            ),
            Verdict::new(
                "B+Tree space amplification stays near 1.1-1.2",
                bt_mid.space_amplification() < 1.3,
                format!("ds=0.5: {:.2}", bt_mid.space_amplification()),
            ),
            Verdict::new(
                "LSM runs out of space on the largest datasets; B+Tree does not",
                lsm_oos >= 1 && !bt_largest.out_of_space,
                format!("LSM out-of-space at {lsm_oos} of 6 fractions (paper: 0.75 and 0.88)"),
            ),
            Verdict::new(
                "cost heatmap has both LSM-wins and B+Tree-wins regions",
                {
                    let f = self.heatmap.first_win_fraction();
                    f > 0.05 && f < 0.95
                },
                format!(
                    "LSM-cheaper fraction of grid: {:.2}",
                    self.heatmap.first_win_fraction()
                ),
            ),
        ];
        PitfallReport {
            id: 5,
            title: "Not accounting for space amplification",
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
    fn pitfall5_manifests_on_quick_config() {
        let opts = PitfallOptions {
            device_bytes: 48 << 20,
            duration: 60 * MINUTE,
            sample_window: 5 * MINUTE,
            seed: 42,
        };
        let p = evaluate(&opts);
        let report = p.report();
        assert!(
            report.passed(),
            "pitfall 5 verdicts failed:\n{}",
            report.to_text()
        );
    }
}
