//! Sample summaries and the wall clock.
//!
//! Timings are reported as a median plus the highest percentile that still
//! has at least [`TAIL_MIN_BEYOND`] samples beyond it, with the sample
//! count, so a tail is never read off a handful of points.

#![forbid(unsafe_code)]

// lint:allow(wall-clock): the benchmark's whole purpose is measuring wall time
use std::time::Instant;

/// Samples a reported tail percentile must have beyond it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Candidate tail percentiles, highest first.
const TAIL_CANDIDATES: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 50.0];

/// A monotonic clock reading nanoseconds since its creation.
pub struct Clock {
    // lint:allow(wall-clock): the benchmark's whole purpose is measuring wall time
    origin: Instant,
}

impl Clock {
    pub fn start() -> Clock {
        Clock {
            // lint:allow(wall-clock): the benchmark's whole purpose is measuring wall time
            origin: Instant::now(),
        }
    }

    /// Nanoseconds since [`Clock::start`].
    #[inline]
    pub fn ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Seconds since [`Clock::start`].
    pub fn secs(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }
}

/// Nearest-rank percentile `p` (0–100) of an ascending slice: the smallest
/// sample with at least `p`% of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    match rank(sorted.len(), p) {
        0 => f64::NAN,
        r => sorted[r - 1],
    }
}

/// 1-based nearest rank of percentile `p` among `n` samples (0 if empty),
/// computed in integer tenths of a percent so that e.g. p99.9 of 10,000
/// samples is exactly rank 9,990.
fn rank(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    let tenths = (p.clamp(0.0, 100.0) * 10.0).round() as usize;
    (tenths * n).div_ceil(1000).clamp(1, n)
}

/// Median of an ascending slice.
pub fn median(sorted: &[f64]) -> f64 {
    percentile(sorted, 50.0)
}

/// Sorts a copy of `values` ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The highest reportable tail percentile of a sample set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. 95.0.
    pub pct: f64,
    /// Its value.
    pub value: f64,
    /// Samples strictly beyond it.
    pub beyond: usize,
    /// Total samples.
    pub samples: usize,
}

/// The highest of p99.9/p99/p95/p90/p50 that has at least
/// [`TAIL_MIN_BEYOND`] samples beyond it, or `None` when even the median
/// has fewer.
pub fn tail(sorted: &[f64]) -> Option<Tail> {
    let n = sorted.len();
    TAIL_CANDIDATES.iter().find_map(|&pct| {
        let r = rank(n, pct);
        (r > 0 && n - r >= TAIL_MIN_BEYOND).then(|| Tail {
            pct,
            value: sorted[r - 1],
            beyond: n - r,
            samples: n,
        })
    })
}

impl std::fmt::Display for Tail {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "p{} of {} samples ({} beyond)",
            self.pct, self.samples, self.beyond
        )
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), if the
/// platform reports it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|x| x as f64).collect()
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 200 samples: p99 has 2 beyond, p95 has exactly 10.
        let t = tail(&ramp(200)).unwrap();
        assert_eq!(
            (t.pct, t.value, t.beyond, t.samples),
            (95.0, 190.0, 10, 200)
        );
        // 199 samples: p95 would leave 9 beyond, so p90 it is.
        let t = tail(&ramp(199)).unwrap();
        assert_eq!((t.pct, t.beyond), (90.0, 19));
        // 1000 samples reach p99, 10000 reach p99.9.
        assert_eq!(tail(&ramp(1000)).unwrap().pct, 99.0);
        let t = tail(&ramp(10_000)).unwrap();
        assert_eq!((t.pct, t.value, t.beyond), (99.9, 9990.0, 10));
        // Too few samples for any tail.
        assert_eq!(tail(&ramp(20)).map(|t| t.pct), Some(50.0));
        assert!(tail(&ramp(5)).is_none());
        assert!(tail(&[]).is_none());
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let v = ramp(10);
        assert_eq!(median(&v), 5.0);
        assert_eq!(percentile(&v, 95.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert!(median(&[]).is_nan());
        assert_eq!(sorted(&[3.0, 1.0, 2.0]), vec![1.0, 2.0, 3.0]);
    }
}
