//! Order statistics for host-time samples.

/// A tail percentile is reported only when at least this many samples lie
/// beyond it; with fewer, one slow sample decides the figure.
pub const MIN_BEYOND: usize = 10;

/// Smallest sample count for which [`percentile`] accepts `q`.
pub fn min_samples(q: f64) -> usize {
    (MIN_BEYOND..)
        .find(|&n| beyond(n, q) >= MIN_BEYOND)
        .expect("a finite sample count always suffices for q < 1")
}

/// 1-based nearest rank of the `q` percentile among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

fn beyond(n: usize, q: f64) -> usize {
    n - rank(n, q)
}

/// Nearest-rank percentile, `q` in `(0, 1)`. Refuses when fewer than
/// [`MIN_BEYOND`] samples lie beyond the requested rank.
pub fn percentile(samples: &[f64], q: f64) -> Result<f64, String> {
    if !(q > 0.0 && q < 1.0) {
        return Err(format!("percentile {q} is outside (0, 1)"));
    }
    let n = samples.len();
    if n == 0 || beyond(n, q) < MIN_BEYOND {
        return Err(format!(
            "p{:.0} needs at least {} samples ({MIN_BEYOND} beyond it), got {n}",
            q * 100.0,
            min_samples(q)
        ));
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    Ok(s[rank(n, q) - 1])
}

/// Median (mean of the two middle samples for an even count); NaN when
/// empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=199).map(f64::from).collect();
        assert!(
            percentile(&xs, 0.95).is_err(),
            "199 samples leave 9 beyond p95"
        );
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.95), Ok(190.0));
        assert_eq!(min_samples(0.95), 200);
        assert_eq!(min_samples(0.5), 20);
        assert!(percentile(&[], 0.5).is_err());
        assert!(percentile(&xs, 1.0).is_err());
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }
}
