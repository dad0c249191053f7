//! Plain-text rendering of experiment results in the shape of the
//! paper's figures: time-series tables, parameter-sweep bar tables, and
//! winner heatmaps.

use crate::cost::Heatmap;
use crate::timeseries::TimeSeries;

const MINUTE_NS: f64 = 60.0 * 1e9;

/// Renders aligned columns of one or more time series sharing a time
/// axis: `time(min)  <name>  <name> ...`.
pub fn render_series_table(series: &[&TimeSeries]) -> String {
    let mut out = String::new();
    if series.is_empty() {
        return out;
    }
    out.push_str(&format!("{:>10}", "time(min)"));
    for s in series {
        out.push_str(&format!("  {:>14}", truncate(s.name(), 14)));
    }
    out.push('\n');
    let rows = series.iter().map(|s| s.len()).max().unwrap_or(0);
    for i in 0..rows {
        let t = series
            .iter()
            .filter_map(|s| s.points().get(i).map(|&(t, _)| t))
            .next()
            .unwrap_or(0);
        out.push_str(&format!("{:>10.1}", t as f64 / MINUTE_NS));
        for s in series {
            match s.points().get(i) {
                Some(&(_, v)) => out.push_str(&format!("  {:>14.3}", v)),
                None => out.push_str(&format!("  {:>14}", "-")),
            }
        }
        out.push('\n');
    }
    out
}

/// Renders a parameter sweep: one labelled row per configuration, one
/// column per metric (the shape of Fig 5/6/7's bar charts).
pub fn render_sweep_table(
    title: &str,
    metric_names: &[&str],
    rows: &[(String, Vec<f64>)],
) -> String {
    let mut out = format!("== {title} ==\n");
    let label_w = rows.iter().map(|(l, _)| l.len()).max().unwrap_or(8).max(8);
    out.push_str(&format!("{:>label_w$}", "config"));
    for m in metric_names {
        out.push_str(&format!("  {:>12}", truncate(m, 12)));
    }
    out.push('\n');
    for (label, values) in rows {
        out.push_str(&format!("{label:>label_w$}"));
        for v in values {
            out.push_str(&format!("  {v:>12.3}"));
        }
        out.push('\n');
    }
    out
}

/// Renders a winner heatmap like Fig 6c / Fig 8: `A` = first config
/// cheaper, `B` = second, `=` = tie. Throughput grows upward, dataset
/// size rightward, as in the paper.
pub fn render_heatmap(h: &Heatmap) -> String {
    let mut out = format!(
        "== {} (A) vs {} (B): fewer drives wins ==\n",
        h.first, h.second
    );
    for (y, row) in h.cells.iter().enumerate().rev() {
        out.push_str(&format!("{:>9.1} Kops |", h.throughput_axis[y] / 1_000.0));
        for cell in row {
            out.push_str(&format!(" {} ", cell.cell()));
        }
        out.push('\n');
    }
    out.push_str(&format!("{:>15}", "dataset:"));
    for &d in &h.dataset_axis {
        out.push_str(&format!("{:>3}", format_bytes_short(d)));
    }
    out.push('\n');
    out
}

/// Compact byte formatting ("1T", "500G", "64M").
pub(crate) fn format_bytes_short(bytes: u64) -> String {
    const K: u64 = 1024;
    if bytes >= K * K * K * K && bytes.is_multiple_of(K * K * K * K) {
        format!("{}T", bytes / (K * K * K * K))
    } else if bytes >= K * K * K {
        format!("{}G", bytes / (K * K * K))
    } else if bytes >= K * K {
        format!("{}M", bytes / (K * K))
    } else {
        format!("{bytes}B")
    }
}

fn truncate(s: &str, n: usize) -> &str {
    if s.len() <= n {
        s
    } else {
        &s[..n]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;

    #[test]
    fn series_table_aligns() {
        let mut a = TimeSeries::new("tput");
        let mut b = TimeSeries::new("wa_d");
        for i in 0..3u64 {
            a.push(i * 60 * 1_000_000_000, 10.0 - i as f64);
            b.push(i * 60 * 1_000_000_000, 1.0 + i as f64 * 0.2);
        }
        let t = render_series_table(&[&a, &b]);
        assert!(t.contains("time(min)"));
        assert!(t.contains("tput"));
        assert!(t.contains("wa_d"));
        assert_eq!(t.lines().count(), 4);
        // Uneven lengths render '-'.
        b.push(200 * 1_000_000_000, 2.0);
        let t2 = render_series_table(&[&a, &b]);
        assert!(t2.contains('-'));
    }

    #[test]
    fn sweep_table_has_all_rows() {
        let t = render_sweep_table(
            "Fig 5a",
            &["tput", "wa_d"],
            &[
                ("rocks/0.25".to_string(), vec![3.3, 1.7]),
                ("tiger/0.25".to_string(), vec![1.0, 1.1]),
            ],
        );
        assert!(t.contains("Fig 5a"));
        assert!(t.contains("rocks/0.25"));
        assert!(t.contains("3.300"));
    }

    #[test]
    fn heatmap_renders() {
        const TB: u64 = 1 << 40;
        let a = CostModel {
            name: "A".into(),
            per_instance_ops: 3000.0,
            per_instance_data_bytes: TB,
        };
        let b = CostModel {
            name: "B".into(),
            per_instance_ops: 1000.0,
            per_instance_data_bytes: 2 * TB,
        };
        let h = Heatmap::compare(&a, &b, vec![TB, 4 * TB], vec![1000.0, 20_000.0]);
        let t = render_heatmap(&h);
        assert!(t.contains("fewer drives"));
        assert!(t.contains("Kops"));
        assert!(t.contains("1T"));
    }

    #[test]
    fn byte_formatting() {
        assert_eq!(format_bytes_short(1 << 40), "1T");
        assert_eq!(format_bytes_short(512 << 20), "512M");
        assert_eq!(format_bytes_short((3u64 << 30) + (512 << 20)), "3G");
        assert_eq!(format_bytes_short(100), "100B");
    }
}
