//! Medians, percentiles and their inter-quartile spread. Every timing the
//! benchmark reports is a median or a percentile with its sample count and
//! how far a repetition would move it.

/// Median of `values` (mean of the two middle ones for an even count).
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

/// Nearest-rank percentile: the smallest sample with at least `p` (in
/// `0..=1`) of the samples at or below it.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The sample at the real-valued 1-based `rank` of sorted `v`: interpolated
/// between its neighbours, clamped to the ends.
fn at_rank(v: &[f64], rank: f64) -> f64 {
    let r = rank.clamp(1.0, v.len() as f64) - 1.0;
    let lo = r.floor() as usize;
    match v.get(lo + 1) {
        Some(next) => v[lo] + r.fract() * (next - v[lo]),
        None => v[lo],
    }
}

/// Inter-quartile range of the sampling distribution of `values`' median:
/// how far a repetition of the same measurement would move the reported
/// median, half of the time. Distribution-free, from order statistics: of
/// `n` independent samples the number below the true median is
/// Binomial(n, ½), so the samples at ranks `(n+1)/2 ± 0.6745·√n/2` bracket
/// it with probability one half (0.6745 being the normal distribution's
/// upper quartile). Of five values those are ranks 2.25 and 3.75: the
/// smallest and the largest play no part, as in the median itself. 0 for
/// fewer than two samples.
pub fn median_iqr(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len() as f64;
    let (centre, half) = ((n + 1.0) / 2.0, 0.674_489_75 * n.sqrt() / 2.0);
    at_rank(&v, centre + half) - at_rank(&v, centre - half)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[5.0, 1.0], 0.0), 1.0);
        // Ten samples: p95 is the largest.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&ten, 0.95), 10.0);
    }

    #[test]
    fn median_iqr_brackets_by_order_statistics() {
        // Median of 5: ranks 3 ± 0.6745·√5/2 = 2.246 .. 3.754.
        let mut five = [10.0, 20.0, 30.0, 50.0, 80.0];
        let want = (30.0 + 0.754 * 20.0) - (20.0 + 0.246 * 10.0);
        assert!((median_iqr(&five) - want).abs() < 0.01);
        // The extremes play no part.
        five[4] = 1e6;
        five[0] = -1e6;
        assert!((median_iqr(&five) - want).abs() < 0.01);
        // More samples pin a median down better.
        let many: Vec<f64> = (0..1000).map(|i| f64::from(i % 100)).collect();
        let few: Vec<f64> = (0..100).map(f64::from).collect();
        assert!(median_iqr(&many) < median_iqr(&few));
        assert_eq!(median_iqr(&[4.0]), 0.0);
        assert_eq!(median_iqr(&[3.0, 3.0, 3.0]), 0.0);
        assert!((median_iqr(&[1.0, 2.0]) - 0.954).abs() < 1e-3);
    }
}
