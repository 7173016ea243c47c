//! Order statistics with sample-count honesty.

/// A percentile is reported only with at least this many samples above it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank `q` percentile of `samples`, or the reason it is refused:
/// fewer than [`MIN_BEYOND`] samples lie beyond the reported rank.
pub fn percentile(samples: &[f64], q: f64) -> Result<f64, String> {
    let n = samples.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    let beyond = n.saturating_sub(rank);
    if beyond < MIN_BEYOND {
        return Err(format!(
            "p{} of {n} samples has {beyond} beyond it, needs {MIN_BEYOND}",
            q * 100.0
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

/// Median of a non-empty sample (0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        let few: Vec<f64> = (0..999).map(f64::from).collect();
        assert!(percentile(&few, 0.99).is_err());
        let many: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(percentile(&many, 0.99), Ok(989.0));
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
