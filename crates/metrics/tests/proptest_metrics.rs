//! Property-based tests of the measurement toolkit: histogram
//! quantiles are ordered and bounded, WA algebra composes, and the cost
//! model is monotone in its inputs.

use proptest::prelude::*;

use ptsbench_metrics::cost::CostModel;
use ptsbench_metrics::{CusumDetector, LatencyHistogram, TimeSeries, WaBreakdown};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Histogram quantiles are ordered, bracket min/max, and the mean
    /// lies between min and max.
    #[test]
    fn histogram_quantiles_ordered(values in proptest::collection::vec(1u64..10_000_000_000, 1..300)) {
        let mut h = LatencyHistogram::new();
        for &v in &values {
            h.record(v);
        }
        let q = |p| h.quantile(p);
        prop_assert!(q(0.25) <= q(0.5));
        prop_assert!(q(0.5) <= q(0.9));
        prop_assert!(q(0.9) <= q(0.99));
        let min = *values.iter().min().expect("non-empty");
        let max = *values.iter().max().expect("non-empty");
        prop_assert_eq!(h.min(), min);
        prop_assert_eq!(h.max(), max);
        prop_assert!(h.mean() >= min as f64 && h.mean() <= max as f64);
        // Bucketed quantiles are within ~5% of the true range bounds.
        prop_assert!(q(1.0) >= max, "q(1.0)={} < max={}", q(1.0), max);
    }

    /// WA-A x WA-D == end-to-end WA for any byte counts.
    #[test]
    fn wa_composes(app in 1u64..1_000_000, a_mult in 1u64..40, d_mult_pct in 100u64..500) {
        let host = app * a_mult;
        let nand = host * d_mult_pct / 100;
        let wa = WaBreakdown { app_bytes: app, host_bytes: host, nand_bytes: nand };
        let product = wa.wa_a() * wa.wa_d();
        prop_assert!((product - wa.end_to_end()).abs() / wa.end_to_end() < 1e-9);
        prop_assert!(wa.wa_a() >= 1.0);
    }

    /// drives_needed is monotone in dataset size and target throughput,
    /// and never zero.
    #[test]
    fn cost_model_is_monotone(
        ops in 100.0f64..100_000.0,
        cap_gb in 1u64..1_000,
        d1 in 1u64..(1 << 44),
        d2 in 1u64..(1 << 44),
        t1 in 1.0f64..1e6,
        t2 in 1.0f64..1e6,
    ) {
        let m = CostModel {
            name: "m".into(),
            per_instance_ops: ops,
            per_instance_data_bytes: cap_gb << 30,
        };
        let (dlo, dhi) = (d1.min(d2), d1.max(d2));
        let (tlo, thi) = (t1.min(t2), t1.max(t2));
        prop_assert!(m.drives_needed(dlo, tlo) >= 1);
        prop_assert!(m.drives_needed(dhi, tlo) >= m.drives_needed(dlo, tlo));
        prop_assert!(m.drives_needed(dlo, thi) >= m.drives_needed(dlo, tlo));
    }

    /// CUSUM: a constant series never signals; appending a large step
    /// after a long stable prefix always does.
    #[test]
    fn cusum_detects_steps_not_constants(
        base in 1.0f64..1e4,
        len in 10usize..40,
        factor in 3.0f64..10.0,
    ) {
        let d = CusumDetector::default();
        let stable = vec![base; len];
        prop_assert!(d.change_points(&stable).is_empty(), "constant series must not signal");
        let mut stepped = stable.clone();
        stepped.extend(vec![base * factor; len]);
        prop_assert!(!d.change_points(&stepped).is_empty(), "large step must signal");
    }

    /// Time-series tail/early means always lie within [min, max].
    #[test]
    fn series_means_bounded(values in proptest::collection::vec(0.0f64..1e6, 1..100)) {
        let mut s = TimeSeries::new("t");
        for (i, &v) in values.iter().enumerate() {
            s.push(i as u64, v);
        }
        let min = s.min().expect("non-empty");
        let max = s.max().expect("non-empty");
        for n in [1, 2, values.len()] {
            let e = s.early_mean(n).expect("non-empty");
            let t = s.tail_mean(n).expect("non-empty");
            prop_assert!(e >= min - 1e-9 && e <= max + 1e-9);
            prop_assert!(t >= min - 1e-9 && t <= max + 1e-9);
        }
    }
}
