//! Order statistics and process readings shared by the workloads.

/// The `q`-quantile (0..=1) of `v` by linear interpolation between
/// closest ranks; `NaN` for an empty slice.
#[must_use]
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// The median of `v`.
#[must_use]
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// The smallest value of `v` (`NaN` when empty).
#[must_use]
pub fn min(v: &[f64]) -> f64 {
    v.iter().copied().reduce(f64::min).unwrap_or(f64::NAN)
}

/// The largest value of `v` (`NaN` when empty).
#[must_use]
pub fn max(v: &[f64]) -> f64 {
    v.iter().copied().reduce(f64::max).unwrap_or(f64::NAN)
}

/// The process's resident-set high-water mark in MiB, from
/// `/proc/self/status` (`VmHWM`); `NaN` where that file is absent.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
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
        assert_eq!(min(&v), 1.0);
        assert_eq!(max(&v), 4.0);
        assert!(median(&[]).is_nan());
    }
}
