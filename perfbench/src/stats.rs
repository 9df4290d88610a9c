//! Small order statistics and a tick clock.

use routebricks::telemetry::cycles;

/// Median of `v` (mean of the middle pair for even lengths); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The rate a phase sustained in a `share` of its windows (0.9: the
/// rate reached in 90% of them; 0.5: the median window). Each workload
/// sets its share from how the reference host's drift shows in its
/// windows (see [`crate::workload::Spec::sustained_in`]).
pub fn sustained(window_rates: &[f64], share: f64) -> f64 {
    quantile_f64(window_rates, 1.0 - share)
}

/// Set-up time from builds timed at several points of a run (one
/// `Vec` per point): the median of the per-point medians. One burst of
/// builds lands in a single fast or slow host period; points spread
/// through the run do not hinge on any one of them.
pub fn setup_time(points: &[Vec<f64>]) -> f64 {
    let per_point: Vec<f64> = points.iter().map(|p| median(p)).collect();
    median(&per_point)
}

/// The `q`-quantile (nearest rank) of `v`; 0 when empty.
pub fn quantile_f64(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s[rank(q, s.len())]
}

/// 0-based nearest rank of the `q`-quantile among `n > 0` values.
fn rank(q: f64, n: usize) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// The `q`-quantile (0..=1, nearest rank) of `v`, reordering it in place;
/// 0 when empty.
pub fn quantile<T: Ord + Copy + Default>(v: &mut [T], q: f64) -> T {
    if v.is_empty() {
        return T::default();
    }
    *v.select_nth_unstable(rank(q, v.len())).1
}

/// Ordinary least-squares fit `y = a + b·x`; returns `(a, b)`.
pub fn fit_line(points: &[(f64, f64)]) -> (f64, f64) {
    let n = points.len() as f64;
    let (sx, sy) = points
        .iter()
        .fold((0.0, 0.0), |(sx, sy), (x, y)| (sx + x, sy + y));
    let (mx, my) = (sx / n, sy / n);
    let (sxy, sxx) = points.iter().fold((0.0, 0.0), |(sxy, sxx), (x, y)| {
        (sxy + (x - mx) * (y - my), sxx + (x - mx) * (x - mx))
    });
    let b = if sxx > 0.0 { sxy / sxx } else { 0.0 };
    (my - b * mx, b)
}

/// Nanoseconds from a start point, read off the timestamp counter.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    t0: u64,
    ns_per_tick: f64,
}

impl Clock {
    /// Starts a clock now.
    pub fn start() -> Clock {
        Clock {
            ns_per_tick: 1e9 / cycles::ticks_per_sec(),
            t0: cycles::now(),
        }
    }

    /// Nanoseconds since [`Clock::start`].
    #[inline]
    pub fn ns(&self) -> u64 {
        self.ticks_to_ns(cycles::now().wrapping_sub(self.t0))
    }

    /// Raw timestamp-counter ticks (for interval sums).
    #[inline]
    pub fn ticks() -> u64 {
        cycles::now()
    }

    /// Converts a tick count to nanoseconds.
    #[inline]
    pub fn ticks_to_ns(&self, ticks: u64) -> u64 {
        (ticks as f64 * self.ns_per_tick) as u64
    }

    /// Nanoseconds per tick.
    pub fn ns_per_tick(&self) -> f64 {
        self.ns_per_tick
    }
}

/// Deterministic 64-bit generator (SplitMix64) for benchmark inputs.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// Seeds the generator.
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The peak resident set size a workload's router reaches, sampled per
/// segment of the run: the kernel's peak is read before each batch of
/// timed rebuilds (which hold a second router beside the measured one)
/// and reset after it. The figure is the median segment's peak, so a
/// transient that lands in one segment (an RCU publish that finds the
/// retired table still pinned and allocates a third) does not decide it.
#[derive(Debug, Default)]
pub struct PeakRss {
    samples: Vec<f64>,
    refused: bool,
}

impl PeakRss {
    /// Takes the peak since the last reset.
    pub fn sample(&mut self) {
        if !self.refused {
            self.samples.push(peak_rss_mb());
        }
    }

    /// Resets the kernel's peak to the current RSS after a batch of
    /// rebuilds (`5` into `/proc/self/clear_refs`). If the kernel
    /// refuses, later samples are skipped: they would include rebuilds.
    pub fn forget_builds(&mut self) {
        self.refused = self.refused || std::fs::write("/proc/self/clear_refs", "5").is_err();
    }

    /// The median segment peak in MiB.
    pub fn mb(&self) -> f64 {
        median(&self.samples)
    }
}

/// Peak resident set size (`VmHWM`) of this process in MiB; 0 when
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let mut v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&mut v, 0.99), 99);
        assert_eq!(quantile(&mut v, 0.5), 50);
        let rates: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(sustained(&rates, 0.9), 2.0);
        assert_eq!(sustained(&rates, 0.5), 10.0);
    }

    #[test]
    fn fit_recovers_a_line() {
        let pts: Vec<(f64, f64)> = (0..5).map(|x| (x as f64, 3.0 + 2.0 * x as f64)).collect();
        let (a, b) = fit_line(&pts);
        assert!((a - 3.0).abs() < 1e-9 && (b - 2.0).abs() < 1e-9);
    }
}

/// Open-loop latency (due time to drain) and generator lag over a whole
/// phase, in µs.
#[derive(Debug, Default)]
pub struct OpenStats {
    /// Median latency.
    pub p50_us: f64,
    /// 99th-percentile latency.
    pub p99_us: f64,
    /// 99th percentile of how late each frame was injected.
    pub lag_p99_us: f64,
    /// Latency samples (frames timed).
    pub samples: u64,
}

impl OpenStats {
    /// Summarises a phase's samples (ns). Sorting happens here, after the
    /// phase, never while the router is under load.
    pub fn new(mut latency: Vec<u32>, mut lag: Vec<u32>) -> OpenStats {
        let us = |v: &mut [u32], q: f64| f64::from(quantile(v, q)) / 1e3;
        OpenStats {
            p50_us: us(&mut latency, 0.50),
            p99_us: us(&mut latency, 0.99),
            lag_p99_us: us(&mut lag, 0.99),
            samples: latency.len() as u64,
        }
    }
}

/// A nanosecond sample as stored (saturated to `u32`, ~4.3 s).
#[inline]
pub fn ns_u32(ns: u64) -> u32 {
    ns.min(u64::from(u32::MAX)) as u32
}
