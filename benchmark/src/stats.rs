//! Order statistics. Everything the benchmark reports is a median or a
//! percentile of per-slice values, so the arithmetic lives in one place and
//! is unit-tested.

/// Sort a copy of `v` ascending (NaN-free input).
pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("benchmark values are never NaN"));
    s
}

/// Percentile `q` in `[0, 1]` of an ascending slice, linearly interpolated
/// between the two nearest ranks. `None` on an empty slice.
pub fn percentile_sorted(s: &[f64], q: f64) -> Option<f64> {
    if s.is_empty() {
        return None;
    }
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(s[lo] + (s[hi] - s[lo]) * (pos - lo as f64))
}

/// Percentile of an unsorted slice.
pub fn percentile(v: &[f64], q: f64) -> Option<f64> {
    percentile_sorted(&sorted(v), q)
}

/// Median of an unsorted slice.
pub fn median(v: &[f64]) -> Option<f64> {
    percentile(v, 0.5)
}

/// The three quartile cut points as Python's
/// `statistics.quantiles(v, n=4)` computes them (the "exclusive" method),
/// because that is what the pipeline gates on. Needs two values.
pub fn quartiles(v: &[f64]) -> Option<[f64; 3]> {
    let s = sorted(v);
    let len = s.len();
    if len < 2 {
        return None;
    }
    let m = len + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile range as a share of the median — the spread the pipeline
/// compares with a metric's bound.
pub fn spread(v: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(v)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 0.9), Some(10.0));
        assert_eq!(percentile(&v, 1.0), Some(11.0));
        assert_eq!(percentile(&[10.0, 20.0], 0.25), Some(12.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), Some([7.5, 15.0, 22.5]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread(&v), Some(1.0));
        assert_eq!(spread(&[5.0, 5.0, 5.0]), Some(0.0));
    }
}
