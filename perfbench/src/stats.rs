//! The one statistic the worker computes itself; everything reported is
//! derived from raw samples by `perfbench/pb/stats.py`.

/// Median with midpoint interpolation for even counts.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}
