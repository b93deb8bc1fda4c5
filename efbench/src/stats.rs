//! The statistics every reported number goes through.

/// Median of `values` (mean of the two middle values for an even count).
/// Zero for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First, second and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method) computes
/// them — the rule the acceptance check of this benchmark uses. `None`
/// below two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let len = values.len();
    if len < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = len + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile distance as a share of the median; `None` below two
/// values or for a zero median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// The highest percentile that still has at least ten samples beyond it:
/// `(percentile, value)`. `None` with ten samples or fewer — such a run
/// supports no tail claim at all.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    let k = n.checked_sub(10).filter(|k| *k >= 1)?;
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some((100.0 * k as f64 / n as f64, v[k - 1]))
}

/// A half-open interval of nanoseconds on the bench's monotonic clock.
pub type Interval = (u64, u64);

/// Self time of a span: its duration, minus the part of it that its child
/// spans cover (overlapping children are not subtracted twice), minus the
/// replayed cost of layers that ran inside it without a span of their own.
/// Never negative.
pub fn self_time_ns(span: Interval, children: &[Interval], replays_ns: u64) -> u64 {
    let mut inside: Vec<Interval> = children
        .iter()
        .map(|&(s, e)| (s.max(span.0), e.min(span.1)))
        .filter(|(s, e)| e > s)
        .collect();
    inside.sort_unstable();
    let mut covered = 0u64;
    let mut reach = span.0;
    for (s, e) in inside {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    (span.1 - span.0)
        .saturating_sub(covered)
        .saturating_sub(replays_ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10, 2, 7], n=4) == [2.0, 7.0, 10.0]
        assert_eq!(quartiles(&[10.0, 2.0, 7.0]), Some([2.0, 7.0, 10.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread(&v), Some(1.0));
        assert_eq!(spread(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail(&[1.0; 10]), None);
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        // One value has ten beyond it: the smallest.
        assert_eq!(tail(&v), Some((100.0 / 11.0, 1.0)));
        let v: Vec<f64> = (1..=120).map(f64::from).collect();
        let (p, x) = tail(&v).unwrap();
        assert_eq!(x, 110.0);
        assert!((p - 91.666).abs() < 0.01);
        assert_eq!(v.iter().filter(|s| **s > x).count(), 10);
    }

    #[test]
    fn self_time_subtracts_children_once_and_replays() {
        // Children [10,30) and [20,50) overlap: they cover 40, not 50.
        assert_eq!(self_time_ns((0, 100), &[(10, 30), (20, 50)], 0), 60);
        // A child reaching outside the span only counts its inner part.
        assert_eq!(self_time_ns((0, 100), &[(90, 150)], 0), 90);
        // Replays come off too, and the result never goes negative.
        assert_eq!(self_time_ns((0, 100), &[(0, 50)], 20), 30);
        assert_eq!(self_time_ns((0, 100), &[(0, 50)], 80), 0);
    }
}
