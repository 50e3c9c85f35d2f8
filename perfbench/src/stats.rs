//! Order statistics over latency samples.
//!
//! Tails follow one rule: a percentile is reported only when at least
//! [`MIN_BEYOND`] samples lie beyond it, so a p90 needs 100 samples. The
//! median is the central figure of every timing and is reported with
//! its sample count at any size.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0 < p < 100) of `samples`, or `None`
/// when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn tail_percentile(samples: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 100.0, "percentile {p} outside (0, 100)");
    let n = samples.len();
    // Nearest rank: the smallest rank r with r/n >= p/100.
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    if rank == 0 || n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted(samples)[rank - 1])
}

/// Median (mean of the two middle samples for an even count), `None`
/// for no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let s = sorted(samples);
    let n = s.len();
    Some(if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    })
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
