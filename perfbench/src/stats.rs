//! Order statistics over host-time samples.

/// Median of `v` (mean of the two middle values for an even count; 0 for
/// an empty slice).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The highest percentile of a sample that still has at least
/// [`TAIL_BEYOND`] samples above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Which percentile `value` is (100 when the sample is too small to
    /// leave ten beyond any order statistic: `value` is then the maximum).
    pub pct: f64,
    /// The sample value at that percentile.
    pub value: f64,
    /// Sample count.
    pub n: usize,
}

/// Samples that must lie beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The tail statistic of `v`: its `(TAIL_BEYOND + 1)`-th largest value.
pub fn tail(v: &[f64]) -> Tail {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n <= TAIL_BEYOND {
        return Tail {
            pct: 100.0,
            value: s.last().copied().unwrap_or(0.0),
            n,
        };
    }
    let idx = n - TAIL_BEYOND - 1;
    Tail {
        pct: 100.0 * (idx + 1) as f64 / n as f64,
        value: s[idx],
        n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.pct, 90.0);
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);
        let small = tail(&[5.0, 7.0]);
        assert_eq!((small.value, small.pct, small.n), (7.0, 100.0, 2));
    }
}
