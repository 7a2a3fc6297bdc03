//! Order statistics over timing samples.

/// The median of `samples` (mean of the two middle values for an even
/// count), or 0 for an empty slice.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    let sorted = sorted(samples);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The nearest-rank `p`-th percentile (`0 < p <= 100`) of `samples`, or 0
/// for an empty slice.
#[must_use]
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let sorted = sorted(samples);
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// How many samples lie strictly above the nearest-rank `p`-th
/// percentile: the tail the percentile is estimated from.
#[must_use]
pub fn beyond_percentile(samples: &[f64], p: f64) -> usize {
    let cut = percentile(samples, p);
    samples.iter().filter(|&&x| x > cut).count()
}

/// The geometric mean of strictly positive `samples`, or 0 for an empty
/// slice.
#[must_use]
pub fn geomean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = samples.iter().map(|x| x.ln()).sum();
    (log_sum / samples.len() as f64).exp()
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 99.0), 990.0);
        assert_eq!(beyond_percentile(&xs, 99.0), 10);
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
    }
}
