//! Order statistics for benchmark samples. The vendored `criterion`
//! is a stub, so the harness does its own: a median, quartiles and the
//! highest percentile the sample count can support. Every summary
//! carries its `n`.

/// The `q`-quantile (0 ≤ q ≤ 1) of an ascending-sorted slice, linearly
/// interpolated between the two nearest ranks. Panics on an empty
/// slice: a summary of nothing is a harness bug, not a measurement.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Sorts a sample ascending (NaN-free input: every value is a measured
/// duration or count).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    values
}

/// Median and quartiles of a sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Summarises `values` (at least one).
    pub fn of(values: &[f64]) -> Summary {
        let s = sorted(values.to_vec());
        Summary {
            n: s.len(),
            q1: quantile_sorted(&s, 0.25),
            median: quantile_sorted(&s, 0.5),
            q3: quantile_sorted(&s, 0.75),
        }
    }
}

/// The highest of the customary tail percentiles (99.99, 99.9, 99, 95,
/// 90) no higher than `at_most` that leaves at least ten samples
/// beyond it, with its value — or `None` when even p90 cannot (fewer
/// than 100 samples).
pub fn highest_supported_percentile(sorted: &[f64], at_most: f64) -> Option<(f64, f64)> {
    [99.99, 99.9, 99.0, 95.0, 90.0]
        .into_iter()
        .find(|p| *p <= at_most && supports(sorted.len(), *p))
        .map(|p| (p, quantile_sorted(sorted, p / 100.0)))
}

/// Whether `n` samples leave at least ten beyond percentile `p`.
pub fn supports(n: usize, p: f64) -> bool {
    n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_of_known_vectors() {
        let s = Summary::of(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!((s.n, s.q1, s.median, s.q3), (5, 2.0, 3.0, 4.0));
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.75, 2.5, 3.25));
        let s = Summary::of(&[7.0]);
        assert_eq!((s.n, s.q1, s.median, s.q3), (1, 7.0, 7.0, 7.0));
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (0..1_000).map(f64::from).collect();
        let (p, value) = highest_supported_percentile(&v, 100.0).unwrap();
        assert_eq!(p, 99.0, "1 000 samples leave exactly ten beyond p99");
        assert!((value - 989.01).abs() < 1e-9);
        let v: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(highest_supported_percentile(&v, 100.0).unwrap().0, 95.0);
        let v: Vec<f64> = (0..100_000).map(f64::from).collect();
        assert_eq!(highest_supported_percentile(&v, 100.0).unwrap().0, 99.99);
        assert_eq!(highest_supported_percentile(&v, 99.0).unwrap().0, 99.0);
        let v: Vec<f64> = (0..99).map(f64::from).collect();
        assert!(highest_supported_percentile(&v, 100.0).is_none());
        assert!(supports(100, 90.0) && !supports(99, 90.0));
    }
}
