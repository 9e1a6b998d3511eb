//! Descriptive statistics and figure-shaped aggregations.
//!
//! Every figure in the paper is one of three shapes:
//!
//! * a **CDF** over per-name quantities (Figures 2, 5, 7) — [`Cdf`];
//! * a **bar chart of group means** (Figures 3, 4) — [`Summary`] per group;
//! * a **log–log rank curve** (Figures 6, 8, 9) — [`RankCurve`].
//!
//! These types are deliberately plain data so analysis pipelines can be
//! tested without IO.

/// Five-number-style summary of a sample of non-negative quantities.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub count: usize,
    /// Arithmetic mean (0 for an empty sample).
    pub mean: f64,
    /// Median (0 for an empty sample).
    pub median: f64,
    /// Minimum (0 for an empty sample).
    pub min: f64,
    /// Maximum (0 for an empty sample).
    pub max: f64,
    /// Population standard deviation (0 for an empty sample).
    pub stddev: f64,
}

impl Summary {
    /// Computes a summary of `values` (need not be sorted).
    pub fn of(values: &[f64]) -> Summary {
        if values.is_empty() {
            return Summary {
                count: 0,
                mean: 0.0,
                median: 0.0,
                min: 0.0,
                max: 0.0,
                stddev: 0.0,
            };
        }
        let count = values.len();
        let mean = values.iter().sum::<f64>() / count as f64;
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("values must not be NaN"));
        let median = if count % 2 == 1 {
            sorted[count / 2]
        } else {
            (sorted[count / 2 - 1] + sorted[count / 2]) / 2.0
        };
        let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / count as f64;
        Summary {
            count,
            mean,
            median,
            min: sorted[0],
            max: sorted[count - 1],
            stddev: var.sqrt(),
        }
    }

    /// Convenience: summary of integer counts.
    pub fn of_counts(values: &[usize]) -> Summary {
        let as_f64: Vec<f64> = values.iter().map(|&v| v as f64).collect();
        Summary::of(&as_f64)
    }
}

/// An empirical cumulative distribution over integer-valued observations.
///
/// Stored as sorted observations; queries are O(log n).
#[derive(Debug, Clone)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Builds a CDF from a sample (any order).
    pub fn of(values: &[f64]) -> Cdf {
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("values must not be NaN"));
        Cdf { sorted }
    }

    /// Builds a CDF from integer counts.
    pub fn of_counts(values: &[usize]) -> Cdf {
        Cdf::of(&values.iter().map(|&v| v as f64).collect::<Vec<_>>())
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when the sample is empty.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Fraction of observations `<= x`, in `[0, 1]`.
    pub fn fraction_at_most(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// Fraction of observations `> x`, in `[0, 1]`.
    pub fn fraction_above(&self, x: f64) -> f64 {
        1.0 - self.fraction_at_most(x)
    }

    /// Emits `(x, percent <= x)` plot points at each distinct value,
    /// downsampled to at most `max_points` points (endpoints always kept).
    pub fn plot_points(&self, max_points: usize) -> Vec<(f64, f64)> {
        if self.sorted.is_empty() || max_points == 0 {
            return Vec::new();
        }
        let n = self.sorted.len();
        let mut points: Vec<(f64, f64)> = Vec::new();
        let mut i = 0;
        while i < n {
            let v = self.sorted[i];
            let mut j = i + 1;
            while j < n && self.sorted[j] == v {
                j += 1;
            }
            points.push((v, 100.0 * j as f64 / n as f64));
            i = j;
        }
        if points.len() <= max_points {
            return points;
        }
        let stride = points.len().div_ceil(max_points);
        let last = *points.last().expect("non-empty");
        let mut sampled: Vec<(f64, f64)> = points.into_iter().step_by(stride).collect();
        if sampled.last() != Some(&last) {
            sampled.push(last);
        }
        sampled
    }
}

/// A descending rank curve: value of the k-th largest observation, as plotted
/// in the paper's Figures 8 and 9 (log–log rank vs. names controlled).
#[derive(Debug, Clone)]
pub struct RankCurve {
    /// Values sorted descending; index 0 is rank 1.
    pub descending: Vec<f64>,
}

impl RankCurve {
    /// Builds the curve from a sample (any order).
    pub fn of(values: &[f64]) -> RankCurve {
        let mut descending = values.to_vec();
        descending.sort_by(|a, b| b.partial_cmp(a).expect("values must not be NaN"));
        RankCurve { descending }
    }

    /// Builds the curve from integer counts.
    pub fn of_counts(values: &[usize]) -> RankCurve {
        RankCurve::of(&values.iter().map(|&v| v as f64).collect::<Vec<_>>())
    }

    /// Number of ranked entities.
    pub fn len(&self) -> usize {
        self.descending.len()
    }

    /// True when the curve has no entries.
    pub fn is_empty(&self) -> bool {
        self.descending.is_empty()
    }

    /// Emits `(rank, value)` points sampled log-uniformly in rank, suitable
    /// for a log–log plot. Always includes rank 1 and the final rank.
    pub fn log_points(&self, points_per_decade: usize) -> Vec<(usize, f64)> {
        if self.descending.is_empty() {
            return Vec::new();
        }
        let n = self.descending.len();
        let per = points_per_decade.max(1) as f64;
        let mut out: Vec<(usize, f64)> = Vec::new();
        let mut k = 0.0f64;
        loop {
            let rank = (10f64.powf(k / per)).round() as usize;
            if rank > n {
                break;
            }
            if out.last().map(|&(r, _)| r) != Some(rank) {
                out.push((rank, self.descending[rank - 1]));
            }
            k += 1.0;
        }
        if out.last().map(|&(r, _)| r) != Some(n) {
            out.push((n, self.descending[n - 1]));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basic() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.count, 4);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert!((s.median - 2.5).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!((s.stddev - (1.25f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn summary_odd_median_and_empty() {
        assert_eq!(Summary::of(&[5.0, 1.0, 3.0]).median, 3.0);
        let e = Summary::of(&[]);
        assert_eq!(e.count, 0);
        assert_eq!(e.mean, 0.0);
    }

    #[test]
    fn summary_of_counts_matches_f64() {
        assert_eq!(
            Summary::of_counts(&[1, 2, 3]),
            Summary::of(&[1.0, 2.0, 3.0])
        );
    }

    #[test]
    fn cdf_fractions() {
        let c = Cdf::of_counts(&[1, 2, 2, 3, 10]);
        assert!((c.fraction_at_most(2.0) - 0.6).abs() < 1e-12);
        assert!((c.fraction_at_most(0.0) - 0.0).abs() < 1e-12);
        assert!((c.fraction_at_most(10.0) - 1.0).abs() < 1e-12);
        assert!((c.fraction_above(3.0) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn cdf_plot_points_monotone_and_bounded() {
        let values: Vec<usize> = (0..1000).map(|i| i % 97).collect();
        let c = Cdf::of_counts(&values);
        let pts = c.plot_points(20);
        assert!(pts.len() <= 21);
        assert!(pts.windows(2).all(|w| w[0].0 < w[1].0 && w[0].1 <= w[1].1));
        assert!((pts.last().unwrap().1 - 100.0).abs() < 1e-9);
    }

    #[test]
    fn rank_curve_ordering_and_queries() {
        let r = RankCurve::of_counts(&[5, 100, 1, 7]);
        assert_eq!(r.len(), 4);
        assert_eq!(
            r.log_points(100),
            vec![(1, 100.0), (2, 7.0), (3, 5.0), (4, 1.0)]
        );
    }

    #[test]
    fn rank_curve_log_points() {
        let values: Vec<usize> = (1..=10_000).collect();
        let r = RankCurve::of_counts(&values);
        let pts = r.log_points(5);
        assert_eq!(pts.first().unwrap().0, 1);
        assert_eq!(pts.last().unwrap().0, 10_000);
        assert!(pts.windows(2).all(|w| w[0].0 < w[1].0));
    }
}
