//! Summary statistics over latency samples.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let sorted = sorted(values);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Smallest of `values`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn min(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "minimum of no samples");
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Geometric mean of strictly positive `values`.
///
/// # Panics
///
/// Panics on an empty slice or a value that is not positive.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geometric mean of no values");
    assert!(
        values.iter().all(|&v| v > 0.0),
        "geometric mean needs positive values"
    );
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// The tail of a latency distribution: the highest nearest-rank percentile
/// with at least [`TAIL_BEYOND`] samples strictly above its value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at that percentile.
    pub value: f64,
    /// The percentile, `100 * rank / samples` with a 1-based rank.
    pub percentile: f64,
    /// Samples strictly above `value`.
    pub beyond: usize,
}

/// Selects the tail of `values`, or `None` when fewer than
/// [`TAIL_BEYOND`] samples could lie beyond any of them.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let sorted = sorted(values);
    let n = sorted.len();
    // Walking down from the highest candidate rank skips over ties: a sample
    // equal to its successors does not have them "beyond" it.
    (0..n.checked_sub(TAIL_BEYOND)?).rev().find_map(|i| {
        let beyond = n - sorted.partition_point(|&v| v <= sorted[i]);
        (beyond >= TAIL_BEYOND).then(|| Tail {
            value: sorted[i],
            percentile: 100.0 * (i + 1) as f64 / n as f64,
            beyond,
        })
    })
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn geomean_of_powers_of_two() {
        assert!((geomean(&[1.0, 4.0, 16.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let tail = tail(&values).expect("100 samples have a tail");
        assert_eq!(tail.value, 90.0);
        assert_eq!(tail.beyond, 10);
        assert_eq!(tail.percentile, 90.0);
    }

    #[test]
    fn tail_is_independent_of_sample_order() {
        let mut values: Vec<f64> = (1..=40).map(f64::from).collect();
        values.reverse();
        let tail = tail(&values).expect("40 samples have a tail");
        assert_eq!(tail.value, 30.0);
        assert_eq!(tail.percentile, 75.0);
    }

    #[test]
    fn tail_needs_eleven_samples() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&ten), None);
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        let tail = tail(&eleven).expect("one sample below ten others");
        assert_eq!(tail.value, 1.0);
        assert_eq!(tail.beyond, 10);
    }

    #[test]
    fn tail_steps_below_ties() {
        // Twelve samples of 5.0 above 1..=3: the 5.0s have nothing beyond
        // them, so the tail drops to 3.0, with all twelve ties beyond it.
        let mut values = vec![5.0; 12];
        values.extend([1.0, 2.0, 3.0]);
        let tail = tail(&values).expect("ties still leave a tail");
        assert_eq!(tail.value, 3.0);
        assert_eq!(tail.beyond, 12);
        assert_eq!(tail.percentile, 20.0);
    }

    #[test]
    fn all_ties_have_no_tail() {
        assert_eq!(tail(&[7.0; 30]), None);
    }
}
