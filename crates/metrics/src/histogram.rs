//! Log-bucketed latency histogram.
//!
//! Operation latencies span five orders of magnitude (cache-hit writes at
//! tens of microseconds to GC-stalled writes at hundreds of
//! milliseconds), so buckets grow geometrically. Memory is bounded by
//! 640 buckets, and a histogram holds them only up to the highest one
//! it has recorded (an empty one holds none: reports keep several per
//! shard, most covering a fraction of the range); recording is O(1);
//! quantiles are approximate to one bucket width (~4%).

/// A latency histogram with geometric buckets (4% resolution).
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    /// bucket i covers [BASE * GROWTH^i, BASE * GROWTH^(i+1)). Ends
    /// at the highest bucket recorded so far; the buckets past it, up
    /// to `BUCKETS`, are implicitly zero.
    counts: Vec<u64>,
    total: u64,
    sum_ns: u128,
    max_ns: u64,
    min_ns: u64,
}

const BASE_NS: f64 = 100.0; // 100 ns floor
const GROWTH: f64 = 1.04;
/// 640 buckets cover up to ~2.2 simulated hours: queue delays at a
/// saturated front-end shard reach simulated *minutes*, far past the
/// ~53 s the original 512 buckets could resolve, and a tail metric
/// that clamps its own tail is useless.
const BUCKETS: usize = 640;

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram (allocates nothing).
    pub fn new() -> Self {
        Self {
            counts: Vec::new(),
            total: 0,
            sum_ns: 0,
            max_ns: 0,
            min_ns: u64::MAX,
        }
    }

    /// Records one latency observation in nanoseconds.
    pub fn record(&mut self, ns: u64) {
        let idx = Self::bucket_of(ns);
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
        self.total += 1;
        self.sum_ns += ns as u128;
        self.max_ns = self.max_ns.max(ns);
        self.min_ns = self.min_ns.min(ns);
    }

    #[allow(
        clippy::disallowed_methods,
        reason = "the log bucket map; ROADMAP item 13 replaces it with an integer one"
    )]
    fn bucket_of(ns: u64) -> usize {
        if (ns as f64) <= BASE_NS {
            return 0;
        }
        let idx = ((ns as f64 / BASE_NS).ln() / GROWTH.ln()) as usize;
        idx.min(BUCKETS - 1)
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Mean latency (ns), or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.total as f64
        }
    }

    /// Maximum observed latency (exact).
    pub fn max(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.max_ns
        }
    }

    /// Minimum observed latency (exact).
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min_ns
        }
    }

    /// Approximate `q`-quantile in nanoseconds (upper bucket edge).
    pub fn quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q));
        if self.total == 0 {
            return 0;
        }
        let target = (q * self.total as f64).ceil().max(1.0) as u64;
        let mut cum = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                return (BASE_NS * GROWTH.powi(i as i32 + 1)) as u64;
            }
        }
        self.max_ns
    }

    /// Fraction of observations at or below `ns` (1.0 for an empty
    /// histogram). Bucketed like everything else here: a bucket counts
    /// as "at most `ns`" only when its whole range is, so the answer is
    /// a lower bound within one bucket width (~4%). SLO-attainment
    /// estimates for runs *without* an admission policy — where no
    /// per-request conformance counter exists — read off this.
    pub fn fraction_at_most(&self, ns: u64) -> f64 {
        if self.total == 0 {
            return 1.0;
        }
        if ns >= self.max_ns {
            return 1.0;
        }
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            // The final bucket absorbs everything past the nominal
            // range (`bucket_of` clamps), so its true upper edge is the
            // exact max — using the nominal edge would count clamped
            // observations larger than `ns` and break the lower-bound
            // guarantee. `ns < max_ns` here, so it never qualifies.
            let edge = if i == BUCKETS - 1 {
                self.max_ns
            } else {
                (BASE_NS * GROWTH.powi(i as i32 + 1)) as u64
            };
            if edge > ns {
                break;
            }
            cum += c;
        }
        cum as f64 / self.total as f64
    }

    /// The empirical CDF as `(upper bucket edge ns, cumulative
    /// fraction)` points, one per non-empty bucket. The final point's
    /// fraction is exactly 1.0 and always sits on the histogram's final
    /// bucket boundary — even when the top bucket itself is empty — so
    /// every CDF drawn from this bucketing (queue delays, phase
    /// breakdowns) shares an identical terminal x-grid point and can be
    /// overlaid without re-gridding. This is the distribution view the
    /// serving front-end renders for queue delays (tail-latency plots
    /// read directly off these points).
    pub fn cdf_points(&self) -> Vec<(u64, f64)> {
        let mut out = Vec::new();
        if self.total == 0 {
            return out;
        }
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            cum += c;
            let edge = (BASE_NS * GROWTH.powi(i as i32 + 1)) as u64;
            out.push((edge, cum as f64 / self.total as f64));
        }
        let final_edge = (BASE_NS * GROWTH.powi(BUCKETS as i32)) as u64;
        match out.last_mut() {
            Some((edge, _)) if *edge < final_edge => out.push((final_edge, 1.0)),
            _ => {}
        }
        out
    }

    /// Merges another histogram into this one.
    ///
    /// Used by the concurrent harness to fold per-client histograms
    /// into one report, so it is overflow-safe (saturating counters)
    /// and treats an empty operand as the identity: merging an empty
    /// histogram never disturbs `min`/`max`, and merging *into* an
    /// empty histogram adopts the other side's extremes exactly.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        if other.total == 0 {
            return;
        }
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a = a.saturating_add(*b);
        }
        self.total = self.total.saturating_add(other.total);
        self.sum_ns = self.sum_ns.saturating_add(other.sum_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
        self.min_ns = self.min_ns.min(other.min_ns);
    }

    /// Clears all observations.
    pub fn reset(&mut self) {
        self.counts.clear();
        self.total = 0;
        self.sum_ns = 0;
        self.max_ns = 0;
        self.min_ns = u64::MAX;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The histogram as it was while every instance held all 640
    /// buckets from `new()` on: copied verbatim while it was the live
    /// code, and kept as the oracle the trimmed histogram is held to.
    mod fixed640 {
        use super::super::{BASE_NS, BUCKETS, GROWTH};

        #[derive(Debug, Clone)]
        pub(super) struct LatencyHistogram {
            counts: Vec<u64>,
            total: u64,
            sum_ns: u128,
            max_ns: u64,
            min_ns: u64,
        }

        impl LatencyHistogram {
            pub(super) fn new() -> Self {
                Self {
                    counts: vec![0; BUCKETS],
                    total: 0,
                    sum_ns: 0,
                    max_ns: 0,
                    min_ns: u64::MAX,
                }
            }

            pub(super) fn record(&mut self, ns: u64) {
                let idx = Self::bucket_of(ns);
                self.counts[idx] += 1;
                self.total += 1;
                self.sum_ns += ns as u128;
                self.max_ns = self.max_ns.max(ns);
                self.min_ns = self.min_ns.min(ns);
            }

            #[allow(
                clippy::disallowed_methods,
                reason = "test oracle of the old bucket map"
            )]
            fn bucket_of(ns: u64) -> usize {
                if (ns as f64) <= BASE_NS {
                    return 0;
                }
                let idx = ((ns as f64 / BASE_NS).ln() / GROWTH.ln()) as usize;
                idx.min(BUCKETS - 1)
            }

            pub(super) fn count(&self) -> u64 {
                self.total
            }

            pub(super) fn mean(&self) -> f64 {
                if self.total == 0 {
                    0.0
                } else {
                    self.sum_ns as f64 / self.total as f64
                }
            }

            pub(super) fn max(&self) -> u64 {
                if self.total == 0 {
                    0
                } else {
                    self.max_ns
                }
            }

            pub(super) fn min(&self) -> u64 {
                if self.total == 0 {
                    0
                } else {
                    self.min_ns
                }
            }

            pub(super) fn quantile(&self, q: f64) -> u64 {
                assert!((0.0..=1.0).contains(&q));
                if self.total == 0 {
                    return 0;
                }
                let target = (q * self.total as f64).ceil().max(1.0) as u64;
                let mut cum = 0;
                for (i, &c) in self.counts.iter().enumerate() {
                    cum += c;
                    if cum >= target {
                        return (BASE_NS * GROWTH.powi(i as i32 + 1)) as u64;
                    }
                }
                self.max_ns
            }

            pub(super) fn fraction_at_most(&self, ns: u64) -> f64 {
                if self.total == 0 {
                    return 1.0;
                }
                if ns >= self.max_ns {
                    return 1.0;
                }
                let mut cum = 0u64;
                for (i, &c) in self.counts.iter().enumerate() {
                    let edge = if i == BUCKETS - 1 {
                        self.max_ns
                    } else {
                        (BASE_NS * GROWTH.powi(i as i32 + 1)) as u64
                    };
                    if edge > ns {
                        break;
                    }
                    cum += c;
                }
                cum as f64 / self.total as f64
            }

            pub(super) fn cdf_points(&self) -> Vec<(u64, f64)> {
                let mut out = Vec::new();
                if self.total == 0 {
                    return out;
                }
                let mut cum = 0u64;
                for (i, &c) in self.counts.iter().enumerate() {
                    if c == 0 {
                        continue;
                    }
                    cum += c;
                    let edge = (BASE_NS * GROWTH.powi(i as i32 + 1)) as u64;
                    out.push((edge, cum as f64 / self.total as f64));
                }
                let final_edge = (BASE_NS * GROWTH.powi(BUCKETS as i32)) as u64;
                match out.last_mut() {
                    Some((edge, _)) if *edge < final_edge => out.push((final_edge, 1.0)),
                    _ => {}
                }
                out
            }

            pub(super) fn merge(&mut self, other: &LatencyHistogram) {
                if other.total == 0 {
                    return;
                }
                for (a, b) in self.counts.iter_mut().zip(&other.counts) {
                    *a = a.saturating_add(*b);
                }
                self.total = self.total.saturating_add(other.total);
                self.sum_ns = self.sum_ns.saturating_add(other.sum_ns);
                self.max_ns = self.max_ns.max(other.max_ns);
                self.min_ns = self.min_ns.min(other.min_ns);
            }

            pub(super) fn reset(&mut self) {
                self.counts.fill(0);
                self.total = 0;
                self.sum_ns = 0;
                self.max_ns = 0;
                self.min_ns = u64::MAX;
            }
        }
    }

    /// One step over a set of three histograms.
    #[derive(Debug, Clone)]
    enum Step {
        Record(usize, u64),
        /// Merge histogram `.1` into histogram `.0`.
        Merge(usize, usize),
        Reset(usize),
    }

    /// Latencies over the whole bucket range: at and under the 100 ns
    /// floor, the microsecond-to-second body, simulated hours, and past
    /// the last nominal edge (~2.2 h), where the top bucket clamps.
    fn latency() -> impl Strategy<Value = u64> {
        prop_oneof![
            0u64..200,
            0u64..5_000_000,
            0u64..2_000_000_000_000,
            7_000_000_000_000u64..40_000_000_000_000,
            Just(u64::MAX / 2),
        ]
    }

    fn steps() -> impl Strategy<Value = Vec<Step>> {
        proptest::collection::vec(
            prop_oneof![
                12 => (0usize..3, latency()).prop_map(|(h, ns)| Step::Record(h, ns)),
                3 => (0usize..3, 0usize..3).prop_map(|(into, from)| Step::Merge(into, from)),
                1 => (0usize..3).prop_map(Step::Reset),
            ],
            0..80,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Arbitrary record / merge / reset sequences read identically
        /// through the live histogram and the fixed-640 oracle: every
        /// summary, quantile, attainment fraction and CDF point —
        /// including the clamped top bucket and merges between
        /// histograms that have seen different ranges, both ways round.
        #[test]
        fn reads_match_the_fixed_640_bucket_oracle(
            steps in steps(),
            thresholds in proptest::collection::vec(latency(), 4),
        ) {
            let mut live = [
                LatencyHistogram::new(),
                LatencyHistogram::new(),
                LatencyHistogram::new(),
            ];
            let mut oracle = [
                fixed640::LatencyHistogram::new(),
                fixed640::LatencyHistogram::new(),
                fixed640::LatencyHistogram::new(),
            ];
            for step in steps {
                let touched = match step {
                    Step::Record(h, ns) => {
                        live[h].record(ns);
                        oracle[h].record(ns);
                        h
                    }
                    Step::Merge(into, from) => {
                        let (other, other_oracle) = (live[from].clone(), oracle[from].clone());
                        live[into].merge(&other);
                        oracle[into].merge(&other_oracle);
                        into
                    }
                    Step::Reset(h) => {
                        live[h].reset();
                        oracle[h].reset();
                        h
                    }
                };
                let (l, o) = (&live[touched], &oracle[touched]);
                prop_assert_eq!(l.count(), o.count());
                prop_assert_eq!(l.mean().to_bits(), o.mean().to_bits());
                prop_assert_eq!((l.min(), l.max()), (o.min(), o.max()));
                for q in [0.0, 0.01, 0.5, 0.9, 0.99, 0.999, 1.0] {
                    prop_assert_eq!(l.quantile(q), o.quantile(q), "q={}", q);
                }
                for &ns in thresholds.iter().chain(&[o.min(), o.max(), o.max() / 2]) {
                    prop_assert_eq!(
                        l.fraction_at_most(ns).to_bits(),
                        o.fraction_at_most(ns).to_bits(),
                        "ns={}",
                        ns
                    );
                }
                prop_assert_eq!(l.cdf_points(), o.cdf_points());
            }
        }
    }

    #[test]
    fn records_and_summarizes() {
        let mut h = LatencyHistogram::new();
        for ns in [1_000u64, 2_000, 3_000, 4_000, 100_000] {
            h.record(ns);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.max(), 100_000);
        assert_eq!(h.min(), 1_000);
        assert!((h.mean() - 22_000.0).abs() < 1.0);
    }

    #[test]
    fn quantiles_are_bucket_accurate() {
        let mut h = LatencyHistogram::new();
        for i in 1..=1000u64 {
            h.record(i * 1_000); // 1us .. 1ms uniform
        }
        let p50 = h.quantile(0.5) as f64;
        assert!(
            (p50 / 500_000.0 - 1.0).abs() < 0.10,
            "p50 {p50} off by >10%"
        );
        let p99 = h.quantile(0.99) as f64;
        assert!(
            (p99 / 990_000.0 - 1.0).abs() < 0.10,
            "p99 {p99} off by >10%"
        );
        assert!(h.quantile(1.0) >= 990_000);
    }

    #[test]
    fn extremes_clamp() {
        let mut h = LatencyHistogram::new();
        h.record(0);
        h.record(u64::MAX / 2);
        assert_eq!(h.count(), 2);
        assert!(h.quantile(0.1) >= 100);
    }

    #[test]
    fn cdf_points_are_monotone_and_end_at_one() {
        let mut h = LatencyHistogram::new();
        assert!(h.cdf_points().is_empty(), "empty histogram, empty CDF");
        for i in 1..=500u64 {
            h.record(i * 2_000);
        }
        let points = h.cdf_points();
        assert!(!points.is_empty());
        for pair in points.windows(2) {
            assert!(pair[0].0 < pair[1].0, "edges strictly increase");
            assert!(pair[0].1 <= pair[1].1, "fractions never decrease");
        }
        let last = points.last().unwrap();
        assert_eq!(last.1, 1.0, "CDF ends at exactly 1.0");
        // The terminal x is the histogram's final bucket boundary, even
        // though the top bucket is empty here, so every CDF drawn from
        // this bucketing shares the same closing grid point.
        let final_edge = (BASE_NS * GROWTH.powi(BUCKETS as i32)) as u64;
        assert_eq!(last.0, final_edge, "CDF closes on the final boundary");
        // Interior fractions still strictly increase (only the appended
        // terminal point may repeat the 1.0 reached by the data).
        for pair in points[..points.len() - 1].windows(2) {
            assert!(
                pair[0].1 < pair[1].1,
                "interior fractions strictly increase"
            );
        }
        // The CDF agrees with the quantile view at the median.
        let p50 = h.quantile(0.5);
        let at_median = points
            .iter()
            .find(|&&(edge, _)| edge >= p50)
            .expect("median bucket present");
        assert!((at_median.1 - 0.5).abs() < 0.1);
    }

    #[test]
    fn fraction_at_most_tracks_the_cdf() {
        let h = LatencyHistogram::new();
        assert_eq!(h.fraction_at_most(0), 1.0, "empty histogram misses nothing");

        let mut h = LatencyHistogram::new();
        for i in 1..=1000u64 {
            h.record(i * 1_000); // 1us .. 1ms uniform
        }
        assert_eq!(h.fraction_at_most(h.max()), 1.0);
        assert_eq!(h.fraction_at_most(u64::MAX), 1.0);
        let half = h.fraction_at_most(500_000);
        assert!(
            (half - 0.5).abs() < 0.1,
            "half the observations sit below the midpoint: {half}"
        );
        assert!(h.fraction_at_most(500) < 0.01, "almost nothing below 500ns");
        // Monotone in the threshold.
        assert!(h.fraction_at_most(100_000) <= h.fraction_at_most(200_000));
    }

    #[test]
    fn fraction_at_most_stays_a_lower_bound_in_the_clamped_bucket() {
        // Observations past the nominal bucket range (~2.2 simulated
        // hours) clamp into the final bucket; a threshold between two
        // such observations must not count the bucket wholesale and
        // report 1.0 while larger observations exist.
        let mut h = LatencyHistogram::new();
        h.record(9_000_000_000_000); // ~2.5 h
        h.record(20_000_000_000_000); // ~5.6 h
        let f = h.fraction_at_most(10_000_000_000_000);
        assert!(
            f < 1.0,
            "an observation above the threshold exists, got {f}"
        );
        assert_eq!(h.fraction_at_most(20_000_000_000_000), 1.0);
    }

    #[test]
    fn merge_combines() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(1_000);
        b.record(9_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max(), 9_000);
        assert_eq!(a.min(), 1_000);
    }

    #[test]
    fn merge_with_empty_is_identity_both_ways() {
        let mut a = LatencyHistogram::new();
        a.record(2_000);
        a.record(5_000);
        let before = (a.count(), a.min(), a.max(), a.quantile(0.5));
        a.merge(&LatencyHistogram::new());
        assert_eq!((a.count(), a.min(), a.max(), a.quantile(0.5)), before);

        let mut empty = LatencyHistogram::new();
        empty.merge(&a);
        assert_eq!(empty.count(), 2);
        assert_eq!(empty.min(), 2_000, "merging into empty adopts min");
        assert_eq!(empty.max(), 5_000);
        // min() of a still-empty merged pair stays the 0 sentinel.
        let mut both = LatencyHistogram::new();
        both.merge(&LatencyHistogram::new());
        assert_eq!(both.min(), 0);
        assert_eq!(both.count(), 0);
    }

    #[test]
    fn merge_saturates_instead_of_overflowing() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(1_000);
        b.record(1_000);
        a.total = u64::MAX - 1;
        a.counts[LatencyHistogram::bucket_of(1_000)] = u64::MAX - 1;
        a.merge(&b);
        assert_eq!(a.count(), u64::MAX, "totals saturate");
        a.merge(&b);
        assert_eq!(a.count(), u64::MAX, "repeat merges stay saturated");
    }

    #[test]
    fn reset_clears() {
        let mut h = LatencyHistogram::new();
        h.record(5_000);
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), 0);
    }
}
