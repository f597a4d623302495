//! Order statistics the reports are built from.

/// The percentile ladder a tail metric may be reported at.
const LADDER: [f64; 6] = [0.5, 0.8, 0.9, 0.95, 0.99, 0.999];

/// The highest ladder percentile that still has at least ten samples
/// beyond it among `n` samples (`None` below twenty samples: not even the
/// median qualifies). A tail read off fewer samples is one or two
/// outliers, not a percentile.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .copied()
        .rfind(|q| n as f64 * (1.0 - q) >= 10.0 - 1e-9)
}

/// Nearest-rank percentile `q ∈ [0, 1]` of an ascending slice.
///
/// # Panics
/// Panics on an empty slice: every caller reports a measured timing, and a
/// timing without samples is a harness bug, not a zero.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (sorted.len() as f64 * q).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `values` ascending (timings are never NaN).
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
}

/// Median of `values` (sorts in place).
pub fn median(values: &mut [f64]) -> f64 {
    sort(values);
    percentile(values, 0.5)
}

/// Ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut out = values.to_vec();
    sort(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(0.5));
        assert_eq!(highest_supported_percentile(49), Some(0.5));
        assert_eq!(highest_supported_percentile(50), Some(0.8));
        assert_eq!(highest_supported_percentile(100), Some(0.9));
        assert_eq!(highest_supported_percentile(999), Some(0.95));
        assert_eq!(highest_supported_percentile(1_000), Some(0.99));
        assert_eq!(highest_supported_percentile(10_000), Some(0.999));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.8), 8.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
    }
}
