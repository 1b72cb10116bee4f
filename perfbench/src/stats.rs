//! Order statistics for the report.

/// Nearest-rank percentile of `v` (unsorted), `q` in (0, 100].
pub fn percentile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

pub fn median(v: &[f64]) -> f64 {
    percentile(v, 50.0)
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        f64::NAN
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// The highest of p99 and p90 with at least ten samples beyond it (p50
/// when even p90 has fewer): `(value, percentile, samples beyond)`.
pub fn tail(v: &[f64]) -> (f64, u32, usize) {
    let n = v.len();
    for q in [99u32, 90] {
        let beyond = n - ((q as f64 / 100.0) * n as f64).ceil() as usize;
        if beyond >= 10 {
            return (percentile(v, q as f64), q, beyond);
        }
    }
    (percentile(v, 50.0), 50, n / 2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_needs_ten_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), (990.0, 99, 10));
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&v), (180.0, 90, 20));
    }
}
