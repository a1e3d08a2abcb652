//! Statistics primitives shared across the simulator.
//!
//! These are the measurement tools the paper's monitor plane uses:
//! a histogram of per-packet service times (queried at percentiles), a
//! sliding-window median estimator (the paper uses the median over a 100 ms
//! moving window), an exponentially weighted moving average (used for ECN
//! queue-length tracking per RFC 3168 / RED-style marking), per-interval
//! rate meters, and Jain's fairness index for the evaluation.

use crate::time::{Duration, SimTime};
use std::collections::VecDeque;

/// Exponentially weighted moving average over `u64` samples.
///
/// Weight is expressed as a rational `num/den` applied to the *new* sample:
/// `avg' = avg + num/den * (sample - avg)`, computed in integer arithmetic
/// scaled by 2^16 to avoid drift from repeated truncation.
#[derive(Debug, Clone)]
pub struct Ewma {
    /// Scaled average (value << 16).
    scaled: u64,
    /// Numerator of the gain.
    num: u32,
    /// Denominator of the gain.
    den: u32,
    /// Whether any sample has been observed yet.
    primed: bool,
}

impl Ewma {
    /// Create an EWMA with gain `num/den` (e.g. 1/16 for RED-style queue
    /// averaging).
    pub fn new(num: u32, den: u32) -> Self {
        assert!(num > 0 && den > 0 && num <= den, "gain must be in (0, 1]");
        Ewma {
            scaled: 0,
            num,
            den,
            primed: false,
        }
    }

    /// Feed one sample.
    pub fn observe(&mut self, sample: u64) {
        let s = sample << 16;
        if !self.primed {
            self.scaled = s;
            self.primed = true;
            return;
        }
        // avg += gain * (sample - avg), careful with signedness.
        if s >= self.scaled {
            self.scaled += (s - self.scaled) / self.den as u64 * self.num as u64;
        } else {
            self.scaled -= (self.scaled - s) / self.den as u64 * self.num as u64;
        }
    }

    /// Current average (truncated to integer).
    pub fn value(&self) -> u64 {
        self.scaled >> 16
    }

    /// Current average in the raw 2^16 fixed-point domain (`value << 16`).
    ///
    /// Threshold comparisons should happen here: truncating through
    /// [`Ewma::value`] first discards up to one whole unit of the average,
    /// which matters when the compared quantities are small (e.g. queue
    /// lengths on a 16-slot ring).
    pub fn value_scaled(&self) -> u64 {
        self.scaled
    }

    /// True once at least one sample has been observed.
    pub fn is_primed(&self) -> bool {
        self.primed
    }
}

/// A fixed-layout log-linear histogram of durations (nanosecond samples).
///
/// Matches the role of NFVnice's shared-memory service-time histogram: cheap
/// constant-time insertion on the data path, percentile queries on the
/// control path. Buckets are log2 major buckets each split into 16 linear
/// minor buckets, covering 1 ns .. ~4.3 s with bounded (≲6 %) relative error.
#[derive(Debug, Clone)]
pub struct DurationHistogram {
    counts: Vec<u64>,
    total: u64,
    /// Highest bucket recorded into since the last reset (0 when empty):
    /// every bucket above it is zero.
    top: usize,
}

const MINOR_BITS: u32 = 4;
const MINOR: usize = 1 << MINOR_BITS;
const MAJORS: usize = 32;

impl DurationHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        DurationHistogram {
            counts: vec![0; MAJORS * MINOR],
            total: 0,
            top: 0,
        }
    }

    fn bucket_of(ns: u64) -> usize {
        if ns < MINOR as u64 {
            return ns as usize;
        }
        let major = 63 - ns.leading_zeros() as usize; // floor(log2)
        let major = major.min(MAJORS - 1);
        let shift = major as u32 - MINOR_BITS;
        let minor = ((ns >> shift) as usize) & (MINOR - 1);
        major * MINOR + minor
    }

    /// Representative (lower-bound) value of a bucket index.
    fn bucket_floor(idx: usize) -> u64 {
        let major = idx / MINOR;
        let minor = (idx % MINOR) as u64;
        if major < MINOR_BITS as usize {
            return idx as u64; // identity region
        }
        let base = 1u64 << major;
        base + (minor << (major as u32 - MINOR_BITS))
    }

    /// Record one sample.
    pub fn record(&mut self, d: Duration) {
        self.record_n(d, 1);
    }

    /// Record `n` samples of the same duration: what `n`
    /// [`DurationHistogram::record`] calls leave.
    pub fn record_n(&mut self, d: Duration, n: u64) {
        if n == 0 {
            return;
        }
        let b = Self::bucket_of(d.as_nanos());
        self.counts[b] += n;
        self.total += n;
        self.top = self.top.max(b);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Value at percentile `p` in `[0, 100]`, or `None` if empty.
    ///
    /// The floor of the lowest bucket whose cumulative count exceeds the
    /// sample rank, found walking down from the highest occupied bucket:
    /// tail percentiles stop after a few buckets.
    pub fn percentile(&self, p: f64) -> Option<Duration> {
        let rank = ((p / 100.0) * (self.total as f64 - 1.0)).round() as u64;
        if rank >= self.total {
            return None;
        }
        // `below` = samples in buckets under `i`; bucket `i` is the answer
        // once it holds the rank's sample.
        let mut below = self.total;
        for i in (0..=self.top).rev() {
            below -= self.counts[i];
            if below <= rank {
                return Some(Duration::from_nanos(Self::bucket_floor(i)));
            }
        }
        unreachable!("rank {rank} below the {} recorded samples", self.total)
    }

    /// Median sample.
    pub fn median(&self) -> Option<Duration> {
        self.percentile(50.0)
    }

    /// Discard all samples.
    pub fn reset(&mut self) {
        self.counts[..=self.top].fill(0);
        self.total = 0;
        self.top = 0;
    }
}

impl Default for DurationHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Median of timestamped samples over a sliding time window.
///
/// NFVnice estimates an NF's per-packet cost as "the median over a 100 ms
/// moving window" of ~1 ms-spaced samples, which keeps the window small
/// (~100 entries) — so an exact median over a sorted copy is cheap and
/// avoids approximation error in the control loop.
#[derive(Debug, Clone)]
pub struct WindowedMedian {
    window: Duration,
    samples: VecDeque<(SimTime, u64)>,
}

impl WindowedMedian {
    /// A window of the given width.
    pub fn new(window: Duration) -> Self {
        WindowedMedian {
            window,
            samples: VecDeque::new(),
        }
    }

    /// Record a sample at time `now`, evicting anything older than the window.
    ///
    /// `now` must not precede the newest sample already recorded (equal
    /// timestamps are fine): the eviction scan assumes front-to-back time
    /// order. Debug builds assert; release builds clamp the sample to the
    /// newest recorded time so the deque stays ordered.
    pub fn observe(&mut self, now: SimTime, value: u64) {
        let now = match self.samples.back() {
            Some(&(newest, _)) => {
                debug_assert!(
                    now >= newest,
                    "WindowedMedian::observe time went backwards: {now} < {newest}"
                );
                now.max(newest)
            }
            None => now,
        };
        self.samples.push_back((now, value));
        self.evict(now);
    }

    fn evict(&mut self, now: SimTime) {
        let horizon = now - self.window;
        while let Some(&(t, _)) = self.samples.front() {
            if t < horizon {
                self.samples.pop_front();
            } else {
                break;
            }
        }
    }

    /// Exact median of the samples currently in the window.
    pub fn median(&self) -> Option<u64> {
        if self.samples.is_empty() {
            return None;
        }
        let mut vals: Vec<u64> = self.samples.iter().map(|&(_, v)| v).collect();
        vals.sort_unstable();
        Some(vals[vals.len() / 2])
    }

    /// Number of samples currently in the window.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no samples are in the window.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }
}

/// Counts events and reports a rate per second over closed intervals.
///
/// Used for per-second drop/throughput series (the paper reports min/avg/max
/// across per-second samples).
#[derive(Debug, Clone, Default)]
pub struct RateMeter {
    count_in_interval: u64,
    total: u64,
    per_second: Vec<f64>,
    interval_start: SimTime,
}

impl RateMeter {
    /// A meter starting at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `n` events.
    pub fn add(&mut self, n: u64) {
        self.count_in_interval += n;
        self.total += n;
    }

    /// Close the current interval at `now` and start a new one, recording
    /// the interval's rate (events per second).
    ///
    /// `now` must not precede the previous roll (a same-instant roll is a
    /// no-op interval and records nothing). Debug builds assert; release
    /// builds treat a backwards roll as zero-length, so the interval start
    /// never regresses and no negative-span rate is recorded.
    pub fn roll(&mut self, now: SimTime) {
        debug_assert!(
            now >= self.interval_start,
            "RateMeter::roll time went backwards: {now} < {}",
            self.interval_start
        );
        let span = now.since(self.interval_start);
        if span > Duration::ZERO {
            self.per_second
                .push(self.count_in_interval as f64 / span.as_secs_f64());
            self.count_in_interval = 0;
        }
        self.interval_start = self.interval_start.max(now);
    }

    /// Total events recorded over the whole run.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Per-interval rates (events/s) captured by [`RateMeter::roll`].
    pub fn rates(&self) -> &[f64] {
        &self.per_second
    }

    /// (min, mean, max) over the recorded intervals; zeros if none.
    pub fn summary(&self) -> (f64, f64, f64) {
        if self.per_second.is_empty() {
            return (0.0, 0.0, 0.0);
        }
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut sum = 0.0;
        for &r in &self.per_second {
            min = min.min(r);
            max = max.max(r);
            sum += r;
        }
        (min, sum / self.per_second.len() as f64, max)
    }
}

/// Jain's fairness index over a set of allocations.
///
/// `J = (Σx)² / (n·Σx²)`; 1.0 is perfectly fair, 1/n is maximally unfair.
/// Used for Fig 15b.
pub fn jain_index(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    let sum: f64 = xs.iter().sum();
    let sq: f64 = xs.iter().map(|x| x * x).sum();
    if sq == 0.0 {
        return 1.0;
    }
    (sum * sum) / (xs.len() as f64 * sq)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ewma_converges_to_constant_input() {
        let mut e = Ewma::new(1, 8);
        for _ in 0..200 {
            e.observe(1000);
        }
        assert!((e.value() as i64 - 1000).abs() <= 1, "got {}", e.value());
    }

    #[test]
    fn ewma_first_sample_primes() {
        let mut e = Ewma::new(1, 16);
        assert!(!e.is_primed());
        e.observe(500);
        assert!(e.is_primed());
        assert_eq!(e.value(), 500);
    }

    #[test]
    fn ewma_tracks_step_change_gradually() {
        let mut e = Ewma::new(1, 4);
        e.observe(0);
        e.observe(100);
        // one step with gain 1/4 moves 25% of the way
        assert_eq!(e.value(), 25);
    }

    #[test]
    #[should_panic(expected = "gain must be in (0, 1]")]
    fn ewma_rejects_bad_gain() {
        let _ = Ewma::new(3, 2);
    }

    #[test]
    fn ewma_scaled_keeps_fractional_part() {
        let mut e = Ewma::new(1, 4);
        e.observe(0);
        e.observe(2);
        // avg = 0.5: truncated value loses it, the scaled view keeps it.
        assert_eq!(e.value(), 0);
        assert_eq!(e.value_scaled(), 1 << 15);
    }

    #[test]
    fn histogram_percentiles_ordered() {
        let mut h = DurationHistogram::new();
        for i in 1..=1000u64 {
            h.record(Duration::from_nanos(i * 10));
        }
        let p50 = h.percentile(50.0).unwrap();
        let p99 = h.percentile(99.0).unwrap();
        assert!(p50 < p99);
        // median of 10..10000 is ~5000ns; log bucketing gives ≲6% error
        let err = (p50.as_nanos() as f64 - 5000.0).abs() / 5000.0;
        assert!(err < 0.07, "median {p50} too far from 5000ns");
    }

    #[test]
    fn histogram_exact_for_small_values() {
        let mut h = DurationHistogram::new();
        h.record(Duration::from_nanos(3));
        assert_eq!(h.median(), Some(Duration::from_nanos(3)));
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn histogram_reset_clears() {
        let mut h = DurationHistogram::new();
        h.record(Duration::from_micros(5));
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.median(), None);
    }

    #[test]
    fn histogram_large_values_do_not_panic() {
        let mut h = DurationHistogram::new();
        h.record(Duration::from_secs(100)); // beyond top bucket, clamps
        assert!(h.median().is_some());
    }

    #[test]
    fn windowed_median_evicts_old_samples() {
        let mut m = WindowedMedian::new(Duration::from_millis(100));
        m.observe(SimTime::from_millis(0), 1_000_000);
        for i in 1..=100u64 {
            m.observe(SimTime::from_millis(100 + i), 10);
        }
        // The outlier at t=0 fell out of the window.
        assert_eq!(m.median(), Some(10));
        assert_eq!(m.len(), 100);
    }

    #[test]
    fn windowed_median_is_exact() {
        let mut m = WindowedMedian::new(Duration::from_secs(10));
        for v in [5u64, 1, 9, 3, 7] {
            m.observe(SimTime::from_millis(1), v);
        }
        assert_eq!(m.median(), Some(5));
    }

    #[test]
    fn windowed_median_empty() {
        let m = WindowedMedian::new(Duration::from_secs(1));
        assert_eq!(m.median(), None);
        assert!(m.is_empty());
    }

    #[test]
    fn rate_meter_per_second() {
        let mut r = RateMeter::new();
        r.add(500);
        r.roll(SimTime::from_millis(500)); // 500 events in 0.5s => 1000/s
        r.add(100);
        r.roll(SimTime::from_millis(1500)); // 100 events in 1s => 100/s
        assert_eq!(r.total(), 600);
        let (min, mean, max) = r.summary();
        assert_eq!(min, 100.0);
        assert_eq!(max, 1000.0);
        assert_eq!(mean, 550.0);
        assert_eq!(r.rates().len(), 2);
    }

    #[test]
    fn rate_meter_empty_summary() {
        let r = RateMeter::new();
        assert_eq!(r.summary(), (0.0, 0.0, 0.0));
    }

    #[test]
    fn rate_meter_same_instant_roll_records_nothing() {
        let mut r = RateMeter::new();
        r.add(7);
        r.roll(SimTime::from_secs(1));
        r.roll(SimTime::from_secs(1)); // zero-length interval: no sample
        assert_eq!(r.rates().len(), 1);
        assert_eq!(r.total(), 7);
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "time went backwards"))]
    fn rate_meter_rejects_backwards_roll() {
        let mut r = RateMeter::new();
        r.roll(SimTime::from_secs(2));
        r.add(10);
        r.roll(SimTime::from_secs(1));
        // Release builds clamp: the interval start never regresses, the
        // backwards roll records no rate, and the pending count survives
        // into the next well-formed interval.
        assert_eq!(r.rates().len(), 1);
        r.roll(SimTime::from_secs(3));
        assert_eq!(r.rates().len(), 2);
        assert_eq!(r.rates()[1], 10.0);
    }

    #[test]
    fn windowed_median_same_instant_samples_ok() {
        let mut m = WindowedMedian::new(Duration::from_millis(1));
        m.observe(SimTime::from_millis(5), 1);
        m.observe(SimTime::from_millis(5), 2);
        assert_eq!(m.len(), 2);
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "time went backwards"))]
    fn windowed_median_rejects_backwards_observe() {
        let mut m = WindowedMedian::new(Duration::from_millis(100));
        m.observe(SimTime::from_millis(50), 1);
        m.observe(SimTime::from_millis(10), 2);
        // Release builds clamp the late sample to the newest recorded time,
        // keeping the deque time-ordered for eviction.
        m.observe(SimTime::from_millis(200), 3);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn jain_perfectly_fair() {
        assert!((jain_index(&[3.0, 3.0, 3.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn jain_maximally_unfair() {
        let j = jain_index(&[1.0, 0.0, 0.0, 0.0]);
        assert!((j - 0.25).abs() < 1e-12);
    }

    #[test]
    fn jain_edge_cases() {
        assert_eq!(jain_index(&[]), 1.0);
        assert_eq!(jain_index(&[0.0, 0.0]), 1.0);
    }
}
