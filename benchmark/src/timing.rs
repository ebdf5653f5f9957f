//! The timing rule: work is fixed, every slice of consecutive operations is a
//! sample, and the gated value is the mean of the best twentieth of a run's
//! samples.
//!
//! Interference on a shared host only ever adds time, so the low tail of the
//! sample times (the high tail of rates) repeats between runs where the median
//! and the mean do not, and the tail's mean repeats better than its edge
//! (README, "Timing rule").

use std::time::Instant;

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Times, sizes.
    Lower,
    /// Rates.
    Higher,
}

/// The value a share `q` of the way through `sorted`, linearly interpolated:
/// the `q`-quantile when `sorted` ascends.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let position = q * (sorted.len() - 1) as f64;
    let below = position.floor() as usize;
    let above = (below + 1).min(sorted.len() - 1);
    sorted[below] + (sorted[above] - sorted[below]) * (position - below as f64)
}

/// `values` sorted ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5)
}

/// The geometric mean of `values`.
pub fn geometric_mean(values: &[f64]) -> f64 {
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// What a run's samples boil down to.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    /// The gated value: the mean of the best twentieth of the samples (the
    /// fastest for times, the highest for rates).
    pub best: f64,
    /// The edge of that twentieth: p5 of times, p95 of rates.
    pub edge: f64,
    /// The median sample.
    pub median: f64,
    /// p90 of times, p10 of rates: how bad the slow samples were.
    pub worst: f64,
}

/// Slices a batch is cut into (each a quarter of the batch: 20 ms or more).
pub const SLICES: usize = 4;

/// The samples of a batch whose operations (or windows of operations) were
/// timed one by one: `seconds` cut into [`SLICES`] equal runs of consecutive
/// entries, each as its mean. Interference that lasts a part of a batch then
/// spoils that part only, where a whole-batch mean carries it (README, "Timing
/// rule").
pub fn slice_means(seconds: &[f64]) -> impl Iterator<Item = f64> + '_ {
    let per_slice = (seconds.len() / SLICES).max(1);
    seconds
        .chunks_exact(per_slice)
        .map(move |slice| slice.iter().sum::<f64>() / per_slice as f64)
}

/// Summarize a run's samples.
pub fn summarize(values: &[f64], better: Better) -> Summary {
    let mut sorted = sorted(values);
    if better == Better::Higher {
        sorted.reverse();
    }
    // Best first from here on.
    let twentieth = &sorted[..sorted.len().div_ceil(20)];
    Summary {
        best: twentieth.iter().sum::<f64>() / twentieth.len() as f64,
        edge: quantile(&sorted, 0.05),
        median: quantile(&sorted, 0.5),
        worst: quantile(&sorted, 0.9),
    }
}

/// Seconds `f` took, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

/// Peak resident set of this process in MiB (`VmHWM` of `/proc/self/status`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let values = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&values, 0.0), 1.0);
        assert_eq!(quantile(&values, 0.5), 3.0);
        assert_eq!(quantile(&values, 0.1), 1.4);
        assert_eq!(quantile(&values, 1.0), 5.0);
    }

    #[test]
    fn best_twentieth_follows_the_direction() {
        let values: Vec<f64> = (1..=41).map(f64::from).collect();
        let times = summarize(&values, Better::Lower);
        assert_eq!((times.best, times.edge, times.worst), (2.0, 3.0, 37.0));
        let rates = summarize(&values, Better::Higher);
        assert_eq!((rates.best, rates.edge, rates.worst), (40.0, 39.0, 5.0));
        assert_eq!(times.median, 21.0);
        // Slices of two; the odd entry is left out.
        let batch = [4.0, 6.0, 2.0, 3.0, 3.0, 4.0, 7.0, 9.0, 0.1];
        assert_eq!(
            slice_means(&batch).collect::<Vec<_>>(),
            [5.0, 2.5, 3.5, 8.0]
        );
        assert_eq!(slice_means(&[3.0, 1.0]).collect::<Vec<_>>(), [3.0, 1.0]);
        assert!((geometric_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }
}
