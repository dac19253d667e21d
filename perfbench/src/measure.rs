//! Timing loop, order statistics, process memory and the metric record.

use std::time::{Duration, Instant};

/// Fewest passes a measurement takes, whatever its time budget.
pub const MIN_PASSES: usize = 5;

/// One named reading.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value with all its digits.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Shorthand constructor.
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Call `pass` back to back until `budget` has elapsed and at least
/// [`MIN_PASSES`] calls have completed.
pub fn repeat<T>(budget: Duration, mut pass: impl FnMut() -> T) -> Vec<T> {
    let t0 = Instant::now();
    let mut out = Vec::new();
    while out.len() < MIN_PASSES || t0.elapsed() < budget {
        out.push(pass());
    }
    out
}

/// Wall seconds `f` takes, with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t0 = Instant::now();
    let r = f();
    (t0.elapsed().as_secs_f64(), r)
}

/// Median of `xs` (mean of the middle two for an even count).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile of `xs`, `q` in `[0, 1]`.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of nothing");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Repeat count and spread of a sample, for the run manifest: median,
/// IQR over median, min, max, and the highest whole percentile with at
/// least ten samples beyond it (when there are more than ten).
pub fn spread(name: &str, xs: &[f64]) -> String {
    let med = median(xs);
    let iqr = quantile(xs, 0.75) - quantile(xs, 0.25);
    let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
    let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let tail = tail_pct(xs.len()).map_or(String::new(), |p| {
        format!(", \"p{p}\": {:e}", quantile(xs, p as f64 / 100.0))
    });
    format!(
        "\"{name}\": {{\"n\": {}, \"median\": {med:e}, \"iqr_share\": {:.4}, \"min\": {min:e}, \"max\": {max:e}{tail}}}",
        xs.len(),
        if med > 0.0 { iqr / med } else { 0.0 }
    )
}

/// The highest whole percentile of `n` samples with at least ten samples
/// above it.
pub fn tail_pct(n: usize) -> Option<usize> {
    (n > 10).then(|| (100 * (n - 10)) / n)
}

/// Peak resident set of this process (VmHWM), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// splitmix64 over `seed` ⊕ `salt`: independent derived seeds.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn repeat_meets_the_minimum() {
        let mut n = 0;
        let ps = repeat(Duration::ZERO, || {
            n += 1;
            n
        });
        assert_eq!(ps, (1..=MIN_PASSES).collect::<Vec<_>>());
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        assert_eq!(tail_pct(10), None);
        assert_eq!(tail_pct(140), Some(92));
        assert_eq!(tail_pct(20), Some(50));
        for n in 11..500 {
            let p = tail_pct(n).unwrap();
            assert!(n * (100 - p) >= 10 * 100, "n={n} p={p}");
            assert!(n * (100 - p - 1) < 10 * 100, "n={n} p={p}");
        }
    }

    #[test]
    fn peak_rss_is_read() {
        assert!(peak_rss_mb() > 0.0);
    }
}
