//! Pitfall 6 — *Overlooking SSD software over-provisioning*
//! (paper §4.6, Figures 7 and 8).
//!
//! Reserving a trimmed, never-written slice of the drive gives the
//! garbage collector permanent headroom. For the LSM — which otherwise
//! churns the whole LBA space — this cuts WA-D sharply (2.3 → 1.4 in
//! the paper) and nearly doubles throughput. For the B+Tree on a
//! trimmed drive it does nothing: the B+Tree's own unwritten LBAs
//! already act as over-provisioning.

use ptsbench_metrics::cost::Heatmap;
use ptsbench_metrics::report::{render_heatmap, render_sweep_table};

use crate::costmodel::fig8_heatmap;
use crate::pitfalls::{PitfallOptions, PitfallReport, Verdict};
use crate::registry::EngineKind;
use crate::runner::{run, RunConfig, RunResult};
use crate::state::DriveState;

/// Partition fraction used for the extra-OP configuration (the paper
/// reserves 100 GB of a 400 GB drive).
pub(crate) const OP_PARTITION_FRACTION: f64 = 0.75;

/// The Figure 7 experiment: engine x {no OP, extra OP} x {trim, prec}.
#[derive(Debug, Clone)]
pub struct Pitfall6 {
    /// Results keyed as (engine, extra_op, state).
    pub runs: Vec<(EngineKind, bool, DriveState, RunResult)>,
    /// Fig 8: LSM no-OP vs extra-OP cost heatmap (preconditioned).
    pub heatmap: Heatmap,
}

/// Runs the experiment.
pub fn evaluate(opts: &PitfallOptions) -> Pitfall6 {
    let mut runs = Vec::new();
    for engine in [EngineKind::lsm(), EngineKind::btree()] {
        for extra_op in [false, true] {
            for state in [DriveState::Trimmed, DriveState::Preconditioned] {
                let cfg = RunConfig {
                    engine,
                    drive_state: state,
                    partition_fraction: if extra_op { OP_PARTITION_FRACTION } else { 1.0 },
                    device_bytes: opts.device_bytes,
                    duration: opts.duration,
                    sample_window: opts.sample_window,
                    seed: opts.seed,
                    ..RunConfig::default()
                };
                runs.push((engine, extra_op, state, run(&cfg).expect("pitfall 6 run")));
            }
        }
    }
    let reference = RunConfig::default().profile.reference_capacity;
    let no_op = &runs
        .iter()
        .find(|(e, op, s, _)| *e == EngineKind::lsm() && !op && *s == DriveState::Preconditioned)
        .expect("run exists")
        .3;
    let with_op = &runs
        .iter()
        .find(|(e, op, s, _)| *e == EngineKind::lsm() && *op && *s == DriveState::Preconditioned)
        .expect("run exists")
        .3;
    let heatmap = fig8_heatmap(no_op, with_op, reference);
    Pitfall6 { heatmap, runs }
}

impl Pitfall6 {
    /// Looks up one run.
    pub fn get(&self, engine: EngineKind, extra_op: bool, state: DriveState) -> &RunResult {
        &self
            .runs
            .iter()
            .find(|(e, op, s, _)| *e == engine && *op == extra_op && *s == state)
            .expect("run exists")
            .3
    }

    /// Builds the report.
    pub fn report(&self) -> PitfallReport {
        let mut tput_rows = Vec::new();
        let mut wad_rows = Vec::new();
        for engine in [EngineKind::lsm(), EngineKind::btree()] {
            for state in [DriveState::Trimmed, DriveState::Preconditioned] {
                let label = format!("{}/{}", engine.label(), state.label());
                let no = self.get(engine, false, state);
                let yes = self.get(engine, true, state);
                tput_rows.push((
                    label.clone(),
                    vec![no.steady.steady_kops, yes.steady.steady_kops],
                ));
                wad_rows.push((label, vec![no.steady.wa_d, yes.steady.wa_d]));
            }
        }
        let mut rendered = render_sweep_table(
            "Fig 7a: steady throughput (Kops/s)",
            &["No OP", "Extra OP"],
            &tput_rows,
        );
        rendered.push_str(&render_sweep_table(
            "Fig 7b: WA-D",
            &["No OP", "Extra OP"],
            &wad_rows,
        ));
        rendered.push_str("-- Fig 8 --\n");
        rendered.push_str(&render_heatmap(&self.heatmap));

        let lsm_prec_no = self
            .get(EngineKind::lsm(), false, DriveState::Preconditioned)
            .steady;
        let lsm_prec_op = self
            .get(EngineKind::lsm(), true, DriveState::Preconditioned)
            .steady;
        let lsm_speedup = lsm_prec_op.steady_kops / lsm_prec_no.steady_kops.max(1e-9);
        let bt_trim_no = self
            .get(EngineKind::btree(), false, DriveState::Trimmed)
            .steady;
        let bt_trim_op = self
            .get(EngineKind::btree(), true, DriveState::Trimmed)
            .steady;
        let bt_trim_change = (bt_trim_op.steady_kops - bt_trim_no.steady_kops).abs()
            / bt_trim_no.steady_kops.max(1e-9);
        let bt_prec_no = self
            .get(EngineKind::btree(), false, DriveState::Preconditioned)
            .steady;
        let bt_prec_op = self
            .get(EngineKind::btree(), true, DriveState::Preconditioned)
            .steady;

        let verdicts = vec![
            Verdict::new(
                "extra OP materially speeds up the LSM (preconditioned)",
                lsm_speedup > 1.25,
                format!(
                    "{:.2} -> {:.2} Kops ({lsm_speedup:.2}x; paper: 1.83x)",
                    lsm_prec_no.steady_kops, lsm_prec_op.steady_kops
                ),
            ),
            Verdict::new(
                "the speedup comes from a WA-D drop",
                lsm_prec_op.wa_d < lsm_prec_no.wa_d * 0.85,
                format!(
                    "WA-D {:.2} -> {:.2} (paper: 2.3 -> 1.4)",
                    lsm_prec_no.wa_d, lsm_prec_op.wa_d
                ),
            ),
            Verdict::new(
                "extra OP has little effect on the B+Tree on a trimmed drive",
                bt_trim_change < 0.15,
                format!(
                    "{:.2} vs {:.2} Kops ({:.0}% change)",
                    bt_trim_no.steady_kops,
                    bt_trim_op.steady_kops,
                    bt_trim_change * 100.0
                ),
            ),
            Verdict::new(
                "extra OP helps the B+Tree on a preconditioned drive",
                bt_prec_op.steady_kops > bt_prec_no.steady_kops
                    && bt_prec_op.wa_d < bt_prec_no.wa_d,
                format!(
                    "Kops {:.2} -> {:.2}, WA-D {:.2} -> {:.2} (paper: 1.14x, 1.7 -> 1.3)",
                    bt_prec_no.steady_kops,
                    bt_prec_op.steady_kops,
                    bt_prec_no.wa_d,
                    bt_prec_op.wa_d
                ),
            ),
            Verdict::new(
                "Fig 8: extra OP wins the high-throughput/small-dataset region, \
                 no-OP wins the capacity-bound region",
                {
                    let f = self.heatmap.first_win_fraction(); // first = no OP
                    f > 0.05 && f < 0.95
                },
                format!(
                    "no-OP-cheaper fraction of grid: {:.2}",
                    self.heatmap.first_win_fraction()
                ),
            ),
        ];
        PitfallReport {
            id: 6,
            title: "Overlooking SSD software over-provisioning",
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
    fn pitfall6_manifests_on_quick_config() {
        let opts = PitfallOptions {
            device_bytes: 48 << 20,
            duration: 35 * MINUTE,
            sample_window: 5 * MINUTE,
            seed: 42,
        };
        let p = evaluate(&opts);
        assert_eq!(p.runs.len(), 8);
        let report = p.report();
        assert!(
            report.passed(),
            "pitfall 6 verdicts failed:\n{}",
            report.to_text()
        );
    }
}
