//! Internet-scale traffic scenarios: heavy-tailed mixes, tuple sweeps,
//! diurnal ramps, flash crowds and multi-tenant chain sets.
//!
//! "Benchmarking NFV Software Dataplanes" argues paper-scale CBR traffic
//! says little about a dataplane under internet-like load; this module
//! generates that load while staying on the existing [`CbrFlow`] /
//! `WireFrame` emission path so every scenario remains deterministic and
//! byte-replayable:
//!
//! - [`SweepSource`] turns one pacer flow into millions of distinct
//!   5-tuples by rewriting each emitted frame's tuple along a coprime
//!   stride over a flow space — the load that fills the flow table.
//! - [`ParetoShape`] + [`heavy_tail_flows`] draw per-flow rates from a
//!   bounded Pareto (`SimRng::bounded_pareto`): many mice, few elephants.
//! - [`diurnal_windows`] splits a run into piecewise-constant rate steps
//!   following a raised-cosine day curve; pair each window with a source.
//! - [`SweepSource::flash`] models a flash crowd: a burst of brand-new
//!   flows arriving in a short window.
//! - [`TenantSpec`] / [`TenantSet`] carve the synthetic tuple space into
//!   per-tenant prefixes with a matching wildcard pattern per tenant, so
//!   multi-tenant chain sets share cores while the flow table learns each
//!   tenant's flows reactively.

use crate::cbr::CbrFlow;
use nfv_des::{Duration, SimRng, SimTime};
use nfv_pkt::{FiveTuple, FrameRun, IpPrefix, Proto, TuplePattern, WireFrame};

/// Knuth's multiplicative constant; prime, so it is coprime to every
/// flow-space size below it and the sweep visits each tuple exactly once
/// per `space` emitted frames.
const SWEEP_STRIDE: u64 = 2_654_435_761;

/// Map an emission sequence number onto a flow index in `[0, space)`.
/// Full-period: consecutive frames scatter across the space, and every
/// index is visited once per `space` frames.
#[inline]
pub fn sweep_index(seq: u64, space: u32) -> u32 {
    debug_assert!(space > 0 && (space as u64) < SWEEP_STRIDE);
    (seq.wrapping_mul(SWEEP_STRIDE) % space as u64) as u32
}

/// A traffic source sweeping a whole flow space: one [`CbrFlow`] pacer
/// provides the arrival process (constant or Poisson, windowed or not)
/// and each emitted frame is rewritten to the synthetic tuple
/// `base + sweep_index(seq, space)`. With `space` in the millions this is
/// the generator that pushes the flow table to production scale.
#[derive(Debug)]
pub struct SweepSource {
    /// Arrival-process pacer; its own tuple is never emitted.
    pub pacer: CbrFlow,
    /// Number of distinct flows in the sweep.
    pub space: u32,
    /// First synthetic tuple index (tenant offset).
    pub base: u32,
    /// Protocol of the emitted tuples.
    pub proto: Proto,
}

impl SweepSource {
    /// A sweep of `space` UDP flows starting at tuple index `base`.
    pub fn new(base: u32, space: u32, frame_size: u32, rate_pps: f64) -> Self {
        assert!(space > 0 && (space as u64) < SWEEP_STRIDE);
        SweepSource {
            pacer: CbrFlow::new(FiveTuple::synthetic(base, Proto::Udp), frame_size, rate_pps),
            space,
            base,
            proto: Proto::Udp,
        }
    }

    /// Restrict the sweep to the window `[start, stop)`.
    pub fn window(mut self, start: SimTime, stop: SimTime) -> Self {
        self.pacer = self.pacer.window(start, stop);
        self
    }

    /// Use Poisson arrivals for the pacer.
    pub fn poisson(mut self) -> Self {
        self.pacer = self.pacer.poisson();
        self
    }

    /// A flash crowd: `space` brand-new flows arriving at `rate_pps`
    /// inside `[at, at + dur)` and never seen again.
    pub fn flash(
        base: u32,
        space: u32,
        frame_size: u32,
        rate_pps: f64,
        at: SimTime,
        dur: Duration,
    ) -> Self {
        Self::new(base, space, frame_size, rate_pps).window(at, at + dur)
    }

    /// Frames emitted over the run so far.
    pub fn emitted(&self) -> u64 {
        self.pacer.emitted
    }

    /// Emit the frames due in the poll window ending at `now` of width
    /// `dt`, appending to `out` with swept tuples.
    pub fn emit(&mut self, now: SimTime, dt: Duration, rng: &mut SimRng, out: &mut Vec<WireFrame>) {
        self.emit_each(now, dt, rng, |f| out.push(f));
    }

    /// [`SweepSource::emit`] as frame runs: every swept frame has its own
    /// tuple, so each is a run of one.
    pub fn emit_runs(
        &mut self,
        now: SimTime,
        dt: Duration,
        rng: &mut SimRng,
        out: &mut Vec<FrameRun>,
    ) {
        self.emit_each(now, dt, rng, |f| out.push(FrameRun::single(f)));
    }

    fn emit_each(
        &mut self,
        now: SimTime,
        dt: Duration,
        rng: &mut SimRng,
        mut push: impl FnMut(WireFrame),
    ) {
        let (space, base, proto) = (self.space, self.base, self.proto);
        self.pacer.emit_each(now, dt, rng, |mut f| {
            f.tuple = FiveTuple::synthetic(base + sweep_index(f.seq, space), proto);
            push(f);
        });
    }
}

/// Shape of a bounded-Pareto flow-rate distribution.
#[derive(Debug, Clone, Copy)]
pub struct ParetoShape {
    /// Tail exponent (smaller = heavier tail).
    pub alpha: f64,
    /// Minimum draw (mouse size).
    pub lo: f64,
    /// Maximum draw (largest elephant).
    pub hi: f64,
}

impl ParetoShape {
    /// The classic elephants-and-mice mix: α = 1.2 over three decades,
    /// so a few percent of flows carry most of the bytes.
    pub fn elephants_mice() -> Self {
        ParetoShape {
            alpha: 1.2,
            lo: 1.0,
            hi: 1000.0,
        }
    }
}

/// Draw `n` relative flow weights from the bounded Pareto and scale them
/// so they sum to `total_pps`. Deterministic given the rng state.
pub fn heavy_tail_rates(
    rng: &mut SimRng,
    n: usize,
    total_pps: f64,
    shape: ParetoShape,
) -> Vec<f64> {
    assert!(n > 0, "need at least one flow");
    let mut rates: Vec<f64> = (0..n)
        .map(|_| rng.bounded_pareto(shape.alpha, shape.lo, shape.hi))
        .collect();
    let sum: f64 = rates.iter().sum();
    let scale = total_pps / sum;
    for r in &mut rates {
        *r *= scale;
    }
    rates
}

/// Build `n` constant-rate UDP flows on consecutive synthetic tuples
/// starting at `base`, with heavy-tailed per-flow rates summing to
/// `total_pps`. Flow `i`'s rate is the `i`-th Pareto draw, so elephants
/// and mice are interleaved across the tuple space.
pub fn heavy_tail_flows(
    rng: &mut SimRng,
    base: u32,
    n: usize,
    total_pps: f64,
    frame_size: u32,
    shape: ParetoShape,
) -> Vec<CbrFlow> {
    heavy_tail_rates(rng, n, total_pps, shape)
        .into_iter()
        .enumerate()
        .map(|(i, rate)| {
            CbrFlow::new(
                FiveTuple::synthetic(base + i as u32, Proto::Udp),
                frame_size,
                rate,
            )
        })
        .collect()
}

/// Piecewise-constant diurnal rate profile: split `total` into `steps`
/// equal windows whose rates follow one raised-cosine period from `lo_pps`
/// (midnight) up to `hi_pps` (midday) and back. Returns
/// `(start, stop, rate_pps)` per window; pair each with a windowed source.
pub fn diurnal_windows(
    total: Duration,
    steps: usize,
    lo_pps: f64,
    hi_pps: f64,
) -> Vec<(SimTime, SimTime, f64)> {
    assert!(steps > 0, "need at least one step");
    let step_ns = total.as_nanos() / steps as u64;
    (0..steps)
        .map(|i| {
            let start = SimTime::from_nanos(i as u64 * step_ns);
            let stop = SimTime::from_nanos((i as u64 + 1) * step_ns);
            // Raised cosine over the window midpoints: 0 → lo, mid → hi.
            let phase = (i as f64 + 0.5) / steps as f64;
            let level = 0.5 - 0.5 * (2.0 * std::f64::consts::PI * phase).cos();
            (start, stop, lo_pps + (hi_pps - lo_pps) * level)
        })
        .collect()
}

/// One tenant of a multi-tenant chain set: a private slice of the
/// synthetic tuple space plus an offered load.
#[derive(Debug, Clone, Copy)]
pub struct TenantSpec {
    /// Tenant index (selects the tuple-space slice).
    pub index: u32,
    /// Concurrent flows the tenant's sweep covers.
    pub flows: u32,
    /// Offered rate in packets per second.
    pub rate_pps: f64,
    /// Frame size in bytes.
    pub frame_size: u32,
}

/// A tenant's generator plus the wildcard pattern that classifies its
/// slice of the tuple space (install it with the tenant's chain).
#[derive(Debug)]
pub struct TenantSet {
    /// Wildcard pattern matching exactly this tenant's source prefix.
    pub pattern: TuplePattern,
    /// The tenant's sweep generator.
    pub sweep: SweepSource,
}

/// Width of one tenant's tuple-space slice (2^20 = up to ~1M flows per
/// tenant; 16 tenants fit below the synthetic address bits).
pub const TENANT_SPAN: u32 = 1 << 20;

/// Build a tenant's sweep and its classifying wildcard pattern. Tenant
/// `index` owns synthetic tuple indices `[index * TENANT_SPAN, (index+1) *
/// TENANT_SPAN)`; its source prefix is exactly that block, so a per-tenant
/// wildcard rule steers the whole slice to the tenant's chain.
pub fn tenant(spec: TenantSpec) -> TenantSet {
    assert!(spec.index < 16, "tenant index must stay below 16");
    assert!(
        spec.flows <= TENANT_SPAN,
        "tenant flow space exceeds its slice"
    );
    let base = spec.index * TENANT_SPAN;
    // Synthetic src addresses are `0x0a00_0000 | n`; a block of TENANT_SPAN
    // aligned indices shares the top 12 bits.
    let prefix_len = 32 - TENANT_SPAN.trailing_zeros() as u8;
    TenantSet {
        pattern: TuplePattern::any().from_src(IpPrefix::new(0x0a00_0000 | base, prefix_len)),
        sweep: SweepSource::new(base, spec.flows.max(1), spec.frame_size, spec.rate_pps),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_the_whole_space_exactly_once_per_period() {
        let space = 4096u32;
        let mut seen = vec![false; space as usize];
        for seq in 0..space as u64 {
            let idx = sweep_index(seq, space);
            assert!(!seen[idx as usize], "index {idx} visited twice");
            seen[idx as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn sweep_runs_expand_to_the_per_frame_emission() {
        let make = || SweepSource::new(0, 1000, 64, 1_000_000.0).poisson();
        let (mut a, mut b) = (make(), make());
        let (mut ra, mut rb) = (SimRng::seed_from_u64(3), SimRng::seed_from_u64(3));
        let (mut frames, mut runs) = (Vec::new(), Vec::new());
        let mut now = SimTime::ZERO;
        for _ in 0..50 {
            now += Duration::from_micros(20);
            a.emit(now, Duration::from_micros(20), &mut ra, &mut frames);
            b.emit_runs(now, Duration::from_micros(20), &mut rb, &mut runs);
        }
        // Every swept frame has its own tuple: runs of one.
        assert!(runs.iter().all(|r| r.count == 1));
        let expanded: Vec<WireFrame> = runs.iter().map(|r| r.head).collect();
        assert_eq!(expanded, frames);
        assert_eq!(a.emitted(), b.emitted());
        assert_eq!(ra.next_u64(), rb.next_u64());
    }

    #[test]
    fn sweep_source_emits_distinct_tuples_at_rate() {
        let mut s = SweepSource::new(0, 1000, 64, 1_000_000.0);
        let mut rng = SimRng::seed_from_u64(1);
        let mut out = Vec::new();
        let mut now = SimTime::ZERO;
        for _ in 0..50 {
            now += Duration::from_micros(20);
            s.emit(now, Duration::from_micros(20), &mut rng, &mut out);
        }
        // 1 Mpps for 1 ms = ~1000 frames covering the whole 1000-flow space.
        assert!((out.len() as i64 - 1000).abs() <= 1, "len={}", out.len());
        let mut tuples: Vec<u32> = out.iter().map(|w| w.tuple.src_ip).collect();
        tuples.sort_unstable();
        tuples.dedup();
        assert!(tuples.len() >= 999, "distinct tuples: {}", tuples.len());
    }

    #[test]
    fn heavy_tail_rates_sum_and_skew() {
        let mut rng = SimRng::seed_from_u64(42);
        let rates = heavy_tail_rates(&mut rng, 500, 1_000_000.0, ParetoShape::elephants_mice());
        let sum: f64 = rates.iter().sum();
        assert!((sum - 1_000_000.0).abs() < 1.0, "sum={sum}");
        let mut sorted = rates.clone();
        sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let top10: f64 = sorted.iter().take(50).sum();
        assert!(
            top10 / sum > 0.25,
            "top 10% of flows carry {:.1}% — not heavy-tailed",
            100.0 * top10 / sum
        );
    }

    #[test]
    fn diurnal_profile_ramps_up_and_back() {
        let w = diurnal_windows(Duration::from_millis(100), 10, 10_000.0, 90_000.0);
        assert_eq!(w.len(), 10);
        assert_eq!(w[0].0, SimTime::ZERO);
        assert_eq!(w[9].1, SimTime::from_millis(100));
        let rates: Vec<f64> = w.iter().map(|&(_, _, r)| r).collect();
        let peak = rates.iter().cloned().fold(0.0, f64::max);
        assert!(
            rates[0] < rates[4] && rates[9] < rates[5],
            "not a ramp: {rates:?}"
        );
        assert!(peak <= 90_000.0 + 1e-6 && rates[0] >= 10_000.0 - 1e-6);
    }

    #[test]
    fn tenants_get_disjoint_patterns() {
        let a = tenant(TenantSpec {
            index: 0,
            flows: 1000,
            rate_pps: 1.0,
            frame_size: 64,
        });
        let b = tenant(TenantSpec {
            index: 1,
            flows: 1000,
            rate_pps: 1.0,
            frame_size: 64,
        });
        let ta = FiveTuple::synthetic(5, Proto::Udp);
        let tb = FiveTuple::synthetic(TENANT_SPAN + 5, Proto::Udp);
        assert!(a.pattern.matches(&ta) && !a.pattern.matches(&tb));
        assert!(b.pattern.matches(&tb) && !b.pattern.matches(&ta));
    }

    #[test]
    fn flash_crowd_confined_to_window() {
        let mut s = SweepSource::flash(
            0,
            10_000,
            64,
            2_000_000.0,
            SimTime::from_millis(5),
            Duration::from_millis(2),
        );
        let mut rng = SimRng::seed_from_u64(3);
        let mut out = Vec::new();
        let mut now = SimTime::ZERO;
        while now < SimTime::from_millis(10) {
            now += Duration::from_micros(20);
            s.emit(now, Duration::from_micros(20), &mut rng, &mut out);
        }
        assert!(!out.is_empty());
        assert!(out.iter().all(|w| {
            w.arrival >= SimTime::from_millis(5) && w.arrival < SimTime::from_millis(7)
        }));
    }
}
