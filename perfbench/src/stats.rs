//! Order statistics for latency samples.

/// The median of `v` (0 for no samples).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// The `q` quantile by linear interpolation between order statistics.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// The tail: the highest order statistic at or below the `cap_pct`
/// percentile (nearest rank) that has at least ten samples beyond it,
/// with its percentile. `None` below forty samples, where it would be no
/// tail. A cap of 100 gives the highest percentile with ten samples
/// beyond it.
pub fn tail(v: &[f64], cap_pct: f64) -> Option<(f64, f64)> {
    if v.len() < 40 {
        return None;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let capped = ((cap_pct / 100.0 * n as f64).ceil() as usize).clamp(1, n) - 1;
    let i = (n - 11).min(capped);
    Some((s[i], 100.0 * (i + 1) as f64 / n as f64))
}

/// The interquartile mean: the mean of the samples between the first
/// and third quartiles. Unlike the median it does not jump when the
/// middle of the distribution falls in a gap between clusters, and
/// unlike the mean it ignores the tails.
pub fn iqm(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let (lo, hi) = (s.len() / 4, s.len() - s.len() / 4);
    mean(&s[lo..hi])
}

/// The arithmetic mean (0 for no samples).
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let (t, pct) = tail(&v, 100.0).unwrap();
        assert_eq!(t, 90.0);
        assert_eq!(v.iter().filter(|&&x| x > t).count(), 10);
        assert_eq!(pct, 90.0);
        assert!(tail(&v, 99.0).is_some_and(|(t, _)| t == 90.0));
        assert!(tail(&v[..39], 100.0).is_none());
        let many: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&many, 99.0), Some((9900.0, 99.0)));
        assert_eq!(tail(&many, 100.0), Some((9990.0, 99.9)));
        assert_eq!(iqm(&[100.0, 2.0, 3.0, 0.0]), 2.5);
        assert_eq!(iqm(&[7.0]), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.5);
    }
}
