//! Order statistics and the paper's headline ratio.

/// Percentiles the tail rule chooses from, highest first.
const TAIL_CANDIDATES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Fewest samples that must lie beyond a reported percentile.
const TAIL_MIN_BEYOND: usize = 10;

/// Median (mean of the two middle values for an even count); `None` for
/// no samples.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// 1-based nearest rank of percentile `p` among `n > 0` samples. The
/// epsilon keeps products such as 99.9 x 10 000 from rounding up a rank.
fn rank(p: f64, n: usize) -> usize {
    let r = (p * n as f64 / 100.0 - 1e-9).ceil() as usize;
    r.clamp(1, n)
}

/// Nearest-rank percentile `p` (0 < p <= 100); `None` for no samples.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return None;
    }
    Some(v[rank(p, v.len()) - 1])
}

/// The highest percentile worth reporting for `n` samples: the highest
/// candidate with at least ten samples beyond it. `None` when even the
/// median has fewer than ten beyond it (`n < 20`).
pub fn tail_percentile(n: usize) -> Option<f64> {
    if n == 0 {
        return None;
    }
    TAIL_CANDIDATES
        .into_iter()
        .find(|&p| n - rank(p, n) >= TAIL_MIN_BEYOND)
}

/// CacheCraft's normalized performance: the geometric mean, over
/// `(ecc_off_exec_cycles, cachecraft_exec_cycles)` pairs, of ECC-off
/// cycles divided by CacheCraft cycles. `None` for no pairs or a zero
/// cycle count.
pub fn norm_perf(pairs: &[(u64, u64)]) -> Option<f64> {
    if pairs.is_empty() || pairs.iter().any(|&(off, cc)| off == 0 || cc == 0) {
        return None;
    }
    let ratios: Vec<f64> = pairs
        .iter()
        .map(|&(off, cc)| off as f64 / cc as f64)
        .collect();
    Some(ccraft_harness::geomean(&ratios))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&[7.0], 90.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_rule_reports_the_highest_percentile_with_ten_beyond() {
        assert_eq!(tail_percentile(13), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(39), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn norm_perf_is_the_geomean_of_cycle_ratios() {
        assert_eq!(norm_perf(&[]), None);
        assert_eq!(norm_perf(&[(100, 0)]), None);
        assert!((norm_perf(&[(100, 100)]).unwrap() - 1.0).abs() < 1e-12);
        // Ratios 2 and 0.5 have geomean 1; ratios 1 and 4 have geomean 2.
        assert!((norm_perf(&[(200, 100), (50, 100)]).unwrap() - 1.0).abs() < 1e-12);
        assert!((norm_perf(&[(100, 100), (400, 100)]).unwrap() - 2.0).abs() < 1e-12);
    }
}
