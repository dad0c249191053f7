//! Windowed time series.
//!
//! The paper reports metrics as averages over 10-minute windows (§3.3)
//! because PTSes exhibit large short-term variance. [`TimeSeries`] stores
//! `(time, value)` samples — one per window — and provides the summary
//! statistics the analysis needs (early vs steady-state means, the
//! "bursty vs sustained" comparison of Pitfall 1).

/// Nanoseconds (matches `ptsbench_ssd::Ns` without the dependency).
pub type Ns = u64;

/// A named series of windowed samples.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimeSeries {
    name: String,
    points: Vec<(Ns, f64)>,
}

impl TimeSeries {
    /// An empty series.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// The series name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a sample; times must be non-decreasing.
    pub fn push(&mut self, t: Ns, value: f64) {
        if let Some(&(last, _)) = self.points.last() {
            assert!(t >= last, "time series must be appended in order");
        }
        self.points.push((t, value));
    }

    /// All samples.
    pub fn points(&self) -> &[(Ns, f64)] {
        &self.points
    }

    /// Sample values only.
    pub fn values(&self) -> Vec<f64> {
        self.points.iter().map(|&(_, v)| v).collect()
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Last value, if any.
    pub fn last(&self) -> Option<f64> {
        self.points.last().map(|&(_, v)| v)
    }

    /// Mean of the first `n` samples (the "short test" measurement of
    /// Pitfall 1).
    pub fn early_mean(&self, n: usize) -> Option<f64> {
        if self.points.is_empty() {
            return None;
        }
        let n = n.min(self.points.len());
        Some(self.points[..n].iter().map(|&(_, v)| v).sum::<f64>() / n as f64)
    }

    /// Mean of the last `n` samples (the steady-state measurement).
    pub fn tail_mean(&self, n: usize) -> Option<f64> {
        if self.points.is_empty() {
            return None;
        }
        let n = n.min(self.points.len());
        let start = self.points.len() - n;
        Some(self.points[start..].iter().map(|&(_, v)| v).sum::<f64>() / n as f64)
    }

    /// Max/min over the whole series.
    pub fn max(&self) -> Option<f64> {
        self.points
            .iter()
            .map(|&(_, v)| v)
            .fold(None, |m, v| Some(m.map_or(v, |m: f64| m.max(v))))
    }

    /// Minimum value.
    pub fn min(&self) -> Option<f64> {
        self.points
            .iter()
            .map(|&(_, v)| v)
            .fold(None, |m, v| Some(m.map_or(v, |m: f64| m.min(v))))
    }

    /// Merges another series into this one by summing values at equal
    /// sample positions.
    ///
    /// Built for *additive* per-client series (ops/s, device MB/s): the
    /// concurrent harness samples every client on the same window
    /// boundaries, so position `i` of every per-client series carries
    /// the same window-relative timestamp and the pointwise sum is the
    /// aggregate. If `other` is longer (this client died early), the
    /// extra points are appended verbatim — a missing window
    /// contributes zero. Timestamps must agree on the shared prefix.
    pub fn merge(&mut self, other: &TimeSeries) {
        for (i, &(t, v)) in other.points.iter().enumerate() {
            match self.points.get_mut(i) {
                Some((st, sv)) => {
                    assert_eq!(
                        *st, t,
                        "merged series must share window boundaries (index {i})"
                    );
                    *sv += v;
                }
                None => self.points.push((t, v)),
            }
        }
    }

    /// Relative variability of the last `n` samples:
    /// `(max - min) / mean` — the paper's Fig 10 throughput-swing measure.
    pub fn tail_relative_swing(&self, n: usize) -> Option<f64> {
        if self.points.is_empty() {
            return None;
        }
        let n = n.min(self.points.len());
        let tail: Vec<f64> = self.points[self.points.len() - n..]
            .iter()
            .map(|&(_, v)| v)
            .collect();
        let mean = tail.iter().sum::<f64>() / tail.len() as f64;
        if mean == 0.0 {
            return Some(0.0);
        }
        let max = tail.iter().cloned().fold(f64::MIN, f64::max);
        let min = tail.iter().cloned().fold(f64::MAX, f64::min);
        Some((max - min) / mean)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(vals: &[f64]) -> TimeSeries {
        let mut s = TimeSeries::new("t");
        for (i, &v) in vals.iter().enumerate() {
            s.push(i as Ns * 100, v);
        }
        s
    }

    #[test]
    fn push_and_query() {
        let s = series(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.len(), 4);
        assert_eq!(s.last(), Some(4.0));
        assert_eq!(s.max(), Some(4.0));
        assert_eq!(s.min(), Some(1.0));
        assert_eq!(s.values(), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn early_vs_tail_mean_capture_pitfall_one() {
        // A decaying throughput curve: early mean far above tail mean.
        let s = series(&[10.0, 9.0, 8.0, 4.0, 3.0, 3.0, 3.0, 3.0]);
        let early = s.early_mean(2).expect("early");
        let tail = s.tail_mean(4).expect("tail");
        assert!((early - 9.5).abs() < 1e-9);
        assert!((tail - 3.0).abs() < 1e-9);
        assert!(early / tail > 3.0);
    }

    #[test]
    fn tail_swing() {
        let s = series(&[5.0, 1.0, 2.0, 1.0, 2.0]);
        // Tail of 4: min 1, max 2, mean 1.5 => swing = 2/3.
        let swing = s.tail_relative_swing(4).expect("swing");
        assert!((swing - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn merge_sums_aligned_windows() {
        let mut a = series(&[1.0, 2.0, 3.0]);
        let b = series(&[10.0, 20.0, 30.0]);
        a.merge(&b);
        assert_eq!(a.values(), vec![11.0, 22.0, 33.0]);
        assert_eq!(a.points()[1].0, 100, "timestamps survive the merge");
    }

    #[test]
    fn merge_handles_unequal_lengths() {
        // A client that died early contributes zeros for its missing
        // windows; a longer partner's tail is adopted verbatim.
        let mut short = series(&[1.0, 1.0]);
        let long = series(&[5.0, 5.0, 5.0, 5.0]);
        short.merge(&long);
        assert_eq!(short.values(), vec![6.0, 6.0, 5.0, 5.0]);

        let mut long2 = series(&[5.0, 5.0, 5.0, 5.0]);
        long2.merge(&series(&[1.0, 1.0]));
        assert_eq!(long2.values(), vec![6.0, 6.0, 5.0, 5.0]);

        let mut empty = TimeSeries::new("e");
        empty.merge(&series(&[2.0, 4.0]));
        assert_eq!(empty.values(), vec![2.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "window boundaries")]
    fn merge_rejects_misaligned_windows() {
        let mut a = series(&[1.0, 2.0]);
        let mut b = TimeSeries::new("b");
        b.push(7, 1.0);
        a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "appended in order")]
    fn out_of_order_push_panics() {
        let mut s = TimeSeries::new("t");
        s.push(100, 1.0);
        s.push(50, 2.0);
    }

    #[test]
    fn empty_series_behave() {
        let s = TimeSeries::new("e");
        assert!(s.is_empty());
        assert_eq!(s.last(), None);
        assert_eq!(s.early_mean(3), None);
        assert_eq!(s.tail_mean(3), None);
        assert_eq!(s.max(), None);
    }
}
