//! Summary statistics and open-loop arithmetic shared by every workload.

use std::time::{Duration, Instant};

/// Samples a reported tail percentile must leave beyond it.
pub const TAIL_SAMPLES: usize = 10;

/// The median of `values` (mean of the two middle values for even counts);
/// `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
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

/// The highest percentile, at most `target` (a fraction such as 0.99), that
/// leaves at least [`TAIL_SAMPLES`] of `n` samples beyond it under the
/// nearest-rank rule. Falls back to the median when `n` is too small for
/// any tail.
pub fn supported_percentile(n: usize, target: f64) -> f64 {
    if n <= 2 * TAIL_SAMPLES {
        return 0.5;
    }
    let limit = (n - TAIL_SAMPLES) as f64 / n as f64;
    target.min(limit).max(0.5)
}

/// Nearest-rank quantile `q` of `values`: the smallest value with at least
/// `ceil(q * n)` samples at or below it. Infinite values (failed requests)
/// sort last.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// A latency distribution summarised by the benchmark's reporting rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Median.
    pub p50: f64,
    /// Value at [`Tail::percentile`].
    pub tail: f64,
    /// The percentile actually reported (see [`supported_percentile`]).
    pub percentile: f64,
    /// Sample count.
    pub samples: usize,
}

impl Tail {
    /// Summarise `values` with the tail percentile capped at `target`.
    pub fn of(values: &[f64], target: f64) -> Self {
        let percentile = supported_percentile(values.len(), target);
        Self {
            p50: quantile(values, 0.5),
            tail: quantile(values, percentile),
            percentile,
            samples: values.len(),
        }
    }
}

/// When request `i` of an open loop offered at `rate` per second is due,
/// relative to the start of the loop.
pub fn due_offset(i: u64, rate: f64) -> Duration {
    Duration::from_secs_f64(i as f64 / rate)
}

/// How late a request was sent relative to when it was due (zero when the
/// generator was on time).
pub fn lateness(due: Instant, sent: Instant) -> Duration {
    sent.saturating_duration_since(due)
}

/// Whether an open-loop step's backlog grew: the generator's median
/// lateness over the last quarter of the step's requests (in send order)
/// exceeds that of the first quarter by more than half the latency limit.
/// A generator that keeps up stays near zero lateness throughout; one that
/// falls behind falls further behind with every request.
pub fn backlog_growing(late_ms: &[f64], limit_ms: f64) -> bool {
    let q = late_ms.len() / 4;
    if q == 0 {
        return false;
    }
    let first = median(&late_ms[..q]);
    let last = median(&late_ms[late_ms.len() - q..]);
    last > first + limit_ms / 2.0
}

/// Micro-averaged F1 from pooled confusion counts.
pub fn f1(tp: usize, fp: usize, fn_: usize) -> f64 {
    let denom = 2 * tp + fp + fn_;
    if denom == 0 {
        return 0.0;
    }
    2.0 * tp as f64 / denom as f64
}

/// Peak resident set size of this process in MiB, from `/proc`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_leaves_ten_samples_beyond() {
        // 1000 samples support p99 exactly: ranks 991..=1000 lie beyond it
        assert_eq!(supported_percentile(1000, 0.99), 0.99);
        // 500 samples cap p99 at p98
        assert_eq!(supported_percentile(500, 0.99), 0.98);
        // 100 samples support p90 but nothing higher
        assert_eq!(supported_percentile(100, 0.90), 0.90);
        assert_eq!(supported_percentile(100, 0.99), 0.90);
        // too few samples for any tail: the median
        assert_eq!(supported_percentile(15, 0.99), 0.5);
        for n in [21usize, 50, 137, 1000, 4321] {
            let p = supported_percentile(n, 0.99);
            let rank = (p * n as f64).ceil() as usize;
            assert!(n - rank >= TAIL_SAMPLES, "n={n} p={p} leaves {}", n - rank);
        }
    }

    #[test]
    fn tail_reports_value_percentile_and_count() {
        let values: Vec<f64> = (1..=500).map(f64::from).collect();
        let t = Tail::of(&values, 0.99);
        assert_eq!(t.samples, 500);
        assert_eq!(t.percentile, 0.98);
        assert_eq!(t.tail, 490.0);
        assert_eq!(t.p50, 250.0);
        assert_eq!(values.iter().filter(|&&v| v > t.tail).count(), 10);
    }

    #[test]
    fn failed_requests_sort_beyond_every_latency() {
        let mut values: Vec<f64> = (1..=100).map(f64::from).collect();
        values.extend([f64::INFINITY; 20]);
        let t = Tail::of(&values, 0.99);
        assert!(
            t.tail.is_infinite(),
            "20 failures must put the tail over any limit"
        );
    }

    #[test]
    fn due_times_follow_the_offered_rate() {
        assert_eq!(due_offset(0, 200.0), Duration::ZERO);
        assert_eq!(due_offset(200, 200.0), Duration::from_secs(1));
        assert_eq!(due_offset(3, 4.0), Duration::from_millis(750));
        let t0 = Instant::now();
        let due = t0 + Duration::from_millis(10);
        assert_eq!(
            lateness(due, t0),
            Duration::ZERO,
            "early sends are not late"
        );
        assert_eq!(
            lateness(due, due + Duration::from_millis(3)),
            Duration::from_millis(3)
        );
    }

    #[test]
    fn backlog_test_separates_keeping_up_from_falling_behind() {
        let steady: Vec<f64> = (0..400)
            .map(|i| if i % 7 == 0 { 3.0 } else { 0.1 })
            .collect();
        assert!(!backlog_growing(&steady, 50.0));
        // overload: every request is sent 0.5 ms later than the previous
        let falling: Vec<f64> = (0..400).map(|i| i as f64 * 0.5).collect();
        assert!(backlog_growing(&falling, 50.0));
    }

    #[test]
    fn median_and_f1() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(f1(4890, 525, 1187), 9780.0 / 11492.0);
        assert_eq!(f1(0, 0, 0), 0.0);
    }
}
