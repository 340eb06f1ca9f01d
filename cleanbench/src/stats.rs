//! Summary arithmetic: percentiles, medians, throughput.

/// The percentiles a timing may be reported at, lowest first.
const PERCENTILES: [f64; 5] = [50.0, 90.0, 95.0, 99.0, 99.9];

/// Samples needed beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `values` (`p` in 0..=100). `None` when empty.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// How many of `n` samples lie strictly above the nearest-rank `p`-th.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The highest standard percentile with at least [`MIN_BEYOND`] samples
/// beyond it, or `None` when even the median lacks them.
pub fn highest_reportable_percentile(n: usize) -> Option<f64> {
    PERCENTILES
        .iter()
        .copied()
        .rev()
        .find(|&p| samples_beyond(n, p) >= MIN_BEYOND)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0).unwrap_or(0.0)
}

/// Arithmetic mean (0 when empty).
pub fn mean<'a>(values: impl IntoIterator<Item = &'a f64>) -> f64 {
    let (sum, n) = values
        .into_iter()
        .fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Input rows cleaned per second of summed job time.
pub fn rows_per_s(rows: u64, job_secs: &[f64]) -> f64 {
    let total: f64 = job_secs.iter().sum();
    if total <= 0.0 {
        0.0
    } else {
        rows as f64 / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), Some(2.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn p90_needs_one_hundred_samples() {
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(samples_beyond(99, 90.0), 9);
        assert_eq!(highest_reportable_percentile(100), Some(90.0));
        assert_eq!(highest_reportable_percentile(99), Some(50.0));
        assert_eq!(highest_reportable_percentile(200), Some(95.0));
        assert_eq!(highest_reportable_percentile(1000), Some(99.0));
        assert_eq!(highest_reportable_percentile(19), None);
        assert_eq!(highest_reportable_percentile(20), Some(50.0));
    }

    #[test]
    fn rows_per_s_divides_by_summed_job_time() {
        // 3 jobs of 1000 rows in 0.5 s total.
        let secs = [0.1, 0.15, 0.25];
        assert!((rows_per_s(3000, &secs) - 6000.0).abs() < 1e-9);
        assert_eq!(rows_per_s(10, &[]), 0.0);
    }
}
