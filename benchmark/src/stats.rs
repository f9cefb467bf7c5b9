//! Order statistics over the repetitions of a timing.

/// Median; the mean of the two middle values for an even count.
///
/// # Panics
/// Panics on an empty slice: every timing has at least one repetition.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile: the smallest sample such that at least `p`
/// percent of the samples are less than or equal to it (rank
/// `ceil(p / 100 * n)`, 1-based).
///
/// # Panics
/// Panics on an empty slice or `p` outside `(0, 100]`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} outside (0, 100]");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// First and third quartile, as Python's `statistics.quantiles(values, n=4)`
/// gives them (the driver's method: positions `i * (n + 1) / 4`, interpolated,
/// clamped to the samples). A single sample is both its quartiles.
///
/// # Panics
/// Panics on an empty slice.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0]);
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// What is reported for a repeated timing besides its median.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
    /// Interquartile range over the median: how far the repetitions of one
    /// run disagree, by the measure the driver applies across runs. One
    /// stalled repetition moves the extremes and leaves this where it was.
    pub spread: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let median = median(values);
        let (q1, q3) = quartiles(values);
        Summary {
            median,
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            n: values.len(),
            spread: if median == 0.0 { 0.0 } else { (q3 - q1) / median.abs() },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&ten, 50.0), 5.0);
        assert_eq!(percentile(&ten, 90.0), 9.0);
        assert_eq!(percentile(&ten, 91.0), 10.0);
        assert_eq!(percentile(&ten, 100.0), 10.0);
        assert_eq!(percentile(&ten, 0.1), 1.0);
        // Where rounding `(n - 1) * q` and nearest rank disagree: n = 4,
        // p = 50 rounds index 1.5 up to the third sample; nearest rank is
        // the second.
        assert_eq!(percentile(&[10.0, 20.0, 30.0, 40.0], 50.0), 20.0);
        assert_eq!(percentile(&[7.0], 97.0), 7.0);
    }

    #[test]
    fn p90_of_400_leaves_40_samples_beyond() {
        let v: Vec<f64> = (1..=400).map(f64::from).collect();
        let p90 = percentile(&v, 90.0);
        assert_eq!(p90, 360.0);
        assert_eq!(v.iter().filter(|&&x| x > p90).count(), 40);
    }

    #[test]
    fn quartiles_match_the_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]), (0.5, 3.5));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn summary_reports_extremes_and_the_interquartile_spread() {
        let s = Summary::of(&[16.0, 1.0, 8.0, 2.0, 4.0]);
        assert_eq!((s.median, s.min, s.max, s.n), (4.0, 1.0, 16.0, 5));
        assert_eq!(s.spread, (12.0 - 1.5) / 4.0);
        // One stalled repetition among eleven does not move the spread.
        let mut steady: Vec<f64> = (0..10).map(|i| 1.0 + f64::from(i) * 0.001).collect();
        let before = Summary::of(&steady).spread;
        steady.push(3.0);
        assert!(Summary::of(&steady).spread < 2.0 * before + 0.01);
        assert_eq!(Summary::of(&[0.0, 0.0]).spread, 0.0);
    }
}
