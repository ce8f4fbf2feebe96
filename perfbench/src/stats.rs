//! Order statistics over timing samples.

/// The `q`-quantile (0..=1) by nearest rank; 0 for an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The `q`-quantile of a bucketed histogram: the upper bound of the
/// bucket holding it (the last bound for the overflow bucket). `None`
/// when the histogram is empty.
pub fn bucket_quantile(bounds: &[u64], counts: &[u64], q: f64) -> Option<u64> {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return None;
    }
    let target = ((q * total as f64).ceil() as u64).max(1);
    let mut seen = 0;
    for (i, &c) in counts.iter().enumerate() {
        seen += c;
        if seen >= target {
            return Some(bounds.get(i).or(bounds.last()).copied().unwrap_or(0));
        }
    }
    bounds.last().copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.0);
        assert_eq!(quantile(&v, 0.9), 90.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(median(&[3.0]), 3.0);
    }

    #[test]
    fn bucket_quantile_reports_upper_bounds() {
        assert_eq!(bucket_quantile(&[1, 2, 4], &[1, 0, 5, 0], 0.5), Some(4));
        assert_eq!(bucket_quantile(&[1, 2, 4], &[0, 0, 0, 3], 0.5), Some(4));
        assert_eq!(bucket_quantile(&[1, 2, 4], &[0, 0, 0, 0], 0.5), None);
    }
}
