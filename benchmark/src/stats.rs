//! Order statistics over host-time samples.

/// Median and quartiles of a sample set, with its size.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Summary {
    /// 50th percentile.
    pub(crate) median: f64,
    /// 25th percentile.
    pub(crate) q1: f64,
    /// 75th percentile.
    pub(crate) q3: f64,
    /// Number of samples.
    pub(crate) n: usize,
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values` by linear interpolation
/// between closest ranks. `NaN` for an empty set.
pub(crate) fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of `values`.
pub(crate) fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Median, quartiles and count of `values`.
pub(crate) fn summarize(values: &[f64]) -> Summary {
    Summary {
        median: quantile(values, 0.5),
        q1: quantile(values, 0.25),
        q3: quantile(values, 0.75),
        n: values.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&v, 0.25), 1.75);
        assert!(median(&[]).is_nan());
        assert_eq!(summarize(&[7.0]).n, 1);
    }
}
