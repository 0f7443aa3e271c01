//! Order statistics shared by the workloads and the compare mode.

/// Fewest samples a reported percentile must have beyond it. A p99 over
/// fewer than 1000 samples would rest on a handful of observations.
pub const MIN_BEYOND: usize = 10;

/// A percentile was asked of a sample set too small to support it.
#[derive(Debug, Clone, PartialEq)]
pub struct TooFewSamples {
    /// The requested quantile, in `(0, 1)`.
    pub q: f64,
    /// Samples available.
    pub n: usize,
    /// Samples that would lie beyond the percentile.
    pub beyond: usize,
}

/// Nearest-rank percentile that refuses to answer unless at least
/// [`MIN_BEYOND`] samples lie beyond it. `q` is a fraction, e.g. `0.99`.
pub fn percentile(samples: &[f64], q: f64) -> Result<f64, TooFewSamples> {
    assert!(q > 0.0 && q < 1.0, "quantile {q} outside (0, 1)");
    let n = samples.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_BEYOND {
        return Err(TooFewSamples { q, n, beyond });
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

/// Median (mean of the middle pair for an even count). Panics on an empty
/// slice: every caller measures at least one pass.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// First and third quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(data, n=4)`, so spreads printed here match the ones
/// computed from the result lines with the standard library.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let mut d = samples.to_vec();
    d.sort_by(f64::total_cmp);
    match d.len() {
        0 => (f64::NAN, f64::NAN),
        1 => (d[0], d[0]),
        len => {
            let m = len + 1;
            let cut = |i: usize| {
                let j = (i * m / 4).clamp(1, len - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
            };
            (cut(1), cut(3))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_without_ten_samples_beyond() {
        let samples: Vec<f64> = (0..999).map(f64::from).collect();
        let err = percentile(&samples, 0.99).unwrap_err();
        assert_eq!(err.beyond, 9);
        let samples: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.99), Ok(989.0));
        assert!(percentile(&[], 0.5).is_err());
        assert!(percentile(&[1.0; 19], 0.5).is_err());
        assert_eq!(percentile(&[1.0; 20], 0.5), Ok(1.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        // == [2.75, 5.5, 8.25]
        let d: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&d), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
