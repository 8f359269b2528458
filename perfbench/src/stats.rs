//! Order statistics over the benchmark's own raw samples.
//!
//! Every percentile the benchmark prints comes from here, computed on the
//! exact samples it timed. The program's `HistogramSnapshot::quantile`
//! reads decade-wide bucket bounds and can report a p50 above the
//! observed maximum, so it is never used.

/// Samples that must lie beyond a reported tail value.
pub const TAIL_BEYOND: usize = 10;

/// The lowest percentile a tail may report; below it the rank
/// `n - TAIL_BEYOND` is too close to the median to be a tail.
pub const TAIL_FLOOR: f64 = 90.0;

/// A percentile read off sorted samples, with what it was read from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    /// The sample value at that rank.
    pub value: f64,
    /// The percentile the rank corresponds to (0–100).
    pub percentile: f64,
    /// Number of samples it was read from.
    pub n: usize,
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle samples for an even count).
///
/// Returns 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The median, with the sample count.
pub fn p50(samples: &[f64]) -> Quantile {
    Quantile {
        value: median(samples),
        percentile: 50.0,
        n: samples.len(),
    }
}

/// The highest percentile that still has [`TAIL_BEYOND`] samples above
/// it: the sample at nearest rank `n - TAIL_BEYOND`. When that rank lies
/// below [`TAIL_FLOOR`] (fewer than 100 samples), the maximum
/// (percentile 100).
pub fn tail(samples: &[f64]) -> Quantile {
    let v = sorted(samples);
    let n = v.len();
    if ((n.saturating_sub(TAIL_BEYOND)) as f64) < TAIL_FLOOR / 100.0 * n as f64 {
        return Quantile {
            value: v.last().copied().unwrap_or(0.0),
            percentile: 100.0,
            n,
        };
    }
    let rank = n - TAIL_BEYOND;
    Quantile {
        value: v[rank - 1],
        percentile: 100.0 * rank as f64 / n as f64,
        n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&samples);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.n, 100);
        assert_eq!(
            samples.iter().filter(|&&s| s > t.value).count(),
            TAIL_BEYOND
        );
    }

    #[test]
    fn small_samples_report_the_max_never_below_the_floor() {
        for n in 1..=140u32 {
            let samples: Vec<f64> = (1..=n).rev().map(f64::from).collect();
            let t = tail(&samples);
            assert!(t.value <= f64::from(n));
            assert!(p50(&samples).value <= t.value, "n = {n}");
            assert!(t.percentile >= TAIL_FLOOR, "n = {n}");
            assert_eq!(t.percentile == 100.0, n < 100, "n = {n}");
        }
        assert_eq!(tail(&[5.0, 1.0, 9.0]).percentile, 100.0);
    }
}
