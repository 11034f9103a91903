//! Order statistics: medians, quartiles as Python's
//! `statistics.quantiles(values, n=4)` computes them (so the spreads this
//! benchmark prints are the ones its driver computes), and the tail
//! percentile rule.

/// Sort ascending in place; NaN is a bug in the caller.
pub fn sort(xs: &mut [f64]) {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in a sample"));
}

/// Median of a non-empty sample.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    sort(&mut v);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// (Q1, Q2, Q3) by the exclusive method (`statistics.quantiles(n=4)`).
/// A single-value sample has no spread: all three are that value.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let mut v = xs.to_vec();
    sort(&mut v);
    let n = v.len();
    assert!(n > 0, "quartiles of an empty sample");
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let q = |i: usize| -> f64 {
        // Python: j = i*(n+1) // 4 clamped to [1, n-1]; delta = i*(n+1) - j*4.
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// The steady value of a deterministic section timed several times: the
/// lower quartile of its instances (nearest rank from below, so the
/// fastest of up to four). Interference on a shared box only ever adds
/// time, in bursts, so the upper part of the sample is noise; the single
/// fastest instance depends on luck. Of the estimators tried on the
/// reference box this one repeated best (README, "Calibration").
pub fn steady(samples: impl Iterator<Item = u64>) -> u64 {
    let mut v: Vec<u64> = samples.collect();
    assert!(!v.is_empty(), "steady value of an empty sample");
    v.sort_unstable();
    v[(v.len() - 1) / 4]
}

/// Interquartile range as a share of the median (0 for a single value).
pub fn iqr_frac(xs: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(xs);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2
    }
}

/// The tail percentile a sample supports: the highest percentile with at
/// least ten samples beyond it, capped at p99. Returns the value and the
/// percentile actually used (0.99 once the sample has 1100+ values).
/// `sorted` must be ascending and non-empty.
pub fn tail_percentile<T: Copy>(sorted: &[T]) -> (T, f64) {
    let n = sorted.len();
    assert!(n > 0, "percentile of an empty sample");
    // Nearest-rank p99, pulled down until ten samples lie beyond it.
    let p99 = (n * 99).div_ceil(100) - 1;
    let idx = p99.min(n.saturating_sub(11));
    (sorted[idx], (idx + 1) as f64 / n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(|x| x as f64).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), (1.0, 3.0, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn steady_is_the_lower_quartile_and_the_minimum_of_a_few() {
        assert_eq!(steady([7].into_iter()), 7);
        assert_eq!(steady([9, 3, 5, 4].into_iter()), 3);
        // Nine samples: rank (9-1)/4 = 2 from the bottom.
        assert_eq!(steady([50, 10, 90, 20, 30, 80, 40, 70, 60].into_iter()), 30);
    }

    #[test]
    fn tail_is_p99_only_with_ten_samples_beyond() {
        // 32000 samples: nearest-rank p99 has 320 beyond it.
        let big: Vec<u32> = (0..32_000).collect();
        let (v, p) = tail_percentile(&big);
        assert_eq!(v, 31_679);
        assert!((p - 0.99).abs() < 1e-9);
        // 1600 samples: p99 has 16 beyond — still p99.
        let mid: Vec<u32> = (0..1600).collect();
        assert_eq!(tail_percentile(&mid).0, 1583);
        // 160 samples: p99 would leave one beyond; rule picks index 149
        // (ten beyond) = p93.75.
        let small: Vec<u32> = (0..160).collect();
        let (v, p) = tail_percentile(&small);
        assert_eq!(v, 149);
        assert!((p - 0.9375).abs() < 1e-9);
        // Fewer than eleven samples: nothing has ten beyond; the minimum.
        assert_eq!(tail_percentile(&[5u32, 6, 7]).0, 5);
    }
}
