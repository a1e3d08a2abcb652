//! Constant-rate and Poisson UDP sources (MoonGen / Pktgen-DPDK stand-ins).
//!
//! Sources are polled by the platform's traffic driver on a fixed period
//! (default 20 µs) and emit the frames due in that window. A fractional
//! accumulator keeps long-run rates exact even when the per-poll packet
//! count is not integral; Poisson mode draws per-poll counts from the
//! exponential arrival process instead.

use nfv_des::{Duration, SimRng, SimTime};
use nfv_pkt::{Ecn, FiveTuple, FrameRun, WireFrame};

/// How a source assigns per-packet cost classes (Fig 10's variable
/// per-packet processing cost needs random classes; everything else uses a
/// fixed class 0).
#[derive(Debug, Clone, Copy)]
pub enum CostClassGen {
    /// All packets share one class.
    Fixed(u8),
    /// Uniformly random class in `[0, n)` per packet.
    Uniform(u8),
}

impl CostClassGen {
    fn draw(self, rng: &mut SimRng) -> u8 {
        match self {
            CostClassGen::Fixed(c) => c,
            CostClassGen::Uniform(n) => rng.below(n as u64) as u8,
        }
    }
}

/// Arrival process of a [`CbrFlow`].
#[derive(Debug, Clone, Copy)]
pub enum ArrivalProcess {
    /// Deterministic constant rate.
    Constant,
    /// Poisson arrivals at the same mean rate.
    Poisson,
}

/// A unidirectional UDP flow with a fixed mean rate and an on/off window.
#[derive(Debug)]
pub struct CbrFlow {
    /// Flow identity on the wire.
    pub tuple: FiveTuple,
    /// Frame size in bytes.
    pub frame_size: u32,
    /// Mean offered rate in packets per second.
    pub rate_pps: f64,
    /// First instant the source is active.
    pub start: SimTime,
    /// Instant the source switches off (exclusive). `SimTime::MAX` = never.
    pub stop: SimTime,
    /// Cost-class assignment for emitted packets.
    pub cost_class: CostClassGen,
    /// Arrival process.
    pub process: ArrivalProcess,
    acc: f64,
    seq: u64,
    /// Frames emitted over the run.
    pub emitted: u64,
}

impl CbrFlow {
    /// An always-on constant-rate flow.
    pub fn new(tuple: FiveTuple, frame_size: u32, rate_pps: f64) -> Self {
        CbrFlow {
            tuple,
            frame_size,
            rate_pps,
            start: SimTime::ZERO,
            stop: SimTime::MAX,
            cost_class: CostClassGen::Fixed(0),
            process: ArrivalProcess::Constant,
            acc: 0.0,
            seq: 0,
            emitted: 0,
        }
    }

    /// Restrict the source to the window `[start, stop)`.
    pub fn window(mut self, start: SimTime, stop: SimTime) -> Self {
        self.start = start;
        self.stop = stop;
        self
    }

    /// Use the given cost-class generator.
    pub fn with_cost_class(mut self, g: CostClassGen) -> Self {
        self.cost_class = g;
        self
    }

    /// Use Poisson arrivals.
    pub fn poisson(mut self) -> Self {
        self.process = ArrivalProcess::Poisson;
        self
    }

    /// Emit the frames due in the poll window ending at `now` of width
    /// `dt`, appending to `out`.
    pub fn emit(&mut self, now: SimTime, dt: Duration, rng: &mut SimRng, out: &mut Vec<WireFrame>) {
        self.emit_each(now, dt, rng, |f| out.push(f));
    }

    /// [`CbrFlow::emit`] as frame runs: the frames, RNG draws and state
    /// changes are exactly `emit`'s. A fixed cost class gives one run per
    /// poll; a random one gives runs of one frame.
    pub fn emit_runs(
        &mut self,
        now: SimTime,
        dt: Duration,
        rng: &mut SimRng,
        out: &mut Vec<FrameRun>,
    ) {
        let CostClassGen::Fixed(class) = self.cost_class else {
            self.emit_each(now, dt, rng, |f| out.push(FrameRun::single(f)));
            return;
        };
        let due = self.due(now, dt, rng);
        if due > 0 {
            let count = u32::try_from(due).expect("over 2^32 frames in one poll");
            let head = self.take_frames(now, due, class);
            out.push(FrameRun { head, count });
        }
    }

    /// Hand the due frames to `push` one at a time, drawing each frame's
    /// cost class in frame order.
    pub(crate) fn emit_each(
        &mut self,
        now: SimTime,
        dt: Duration,
        rng: &mut SimRng,
        mut push: impl FnMut(WireFrame),
    ) {
        for _ in 0..self.due(now, dt, rng) {
            let class = self.cost_class.draw(rng);
            push(self.take_frames(now, 1, class));
        }
    }

    /// Frames due in the poll window ending at `now` of width `dt`.
    fn due(&mut self, now: SimTime, dt: Duration, rng: &mut SimRng) -> u64 {
        if now < self.start || now >= self.stop {
            // Source idle: discard fractional credit so restart is clean.
            self.acc = 0.0;
            return 0;
        }
        match self.process {
            ArrivalProcess::Constant => {
                self.acc += self.rate_pps * dt.as_secs_f64();
                let n = self.acc as u64;
                self.acc -= n as f64;
                n
            }
            ArrivalProcess::Poisson => {
                // Renewal counting: `acc` is the offset of the next pending
                // arrival relative to this poll window's start. Count every
                // arrival inside the window and carry the overshoot.
                let mean_gap_ns = 1e9 / self.rate_pps;
                let mut n = 0u64;
                let mut t = self.acc;
                let window = dt.as_nanos() as f64;
                while t < window {
                    n += 1;
                    t += rng.exponential(mean_gap_ns) as f64;
                }
                self.acc = t - window;
                n
            }
        }
    }

    /// Consume the next `n` sequence numbers; returns the first frame.
    fn take_frames(&mut self, now: SimTime, n: u64, cost_class: u8) -> WireFrame {
        let head = WireFrame {
            tuple: self.tuple,
            size: self.frame_size,
            seq: self.seq,
            cost_class,
            ecn: Ecn::NotEct,
            arrival: now,
        };
        self.seq += n;
        self.emitted += n;
        head
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfv_pkt::Proto;

    fn run_flow(flow: &mut CbrFlow, total: Duration, poll: Duration, seed: u64) -> u64 {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut out = Vec::new();
        let mut now = SimTime::ZERO;
        while now < SimTime::ZERO + total {
            now += poll;
            flow.emit(now, poll, &mut rng, &mut out);
        }
        out.len() as u64
    }

    /// Drive two copies of a flow, one through `emit` and one through
    /// `emit_runs`, on identically seeded RNGs over 30 polls of 20 µs.
    /// The runs must expand to exactly the frames, and leave the flow
    /// and the RNG in the same state. Returns (frames, runs).
    fn emit_both(make: impl Fn() -> CbrFlow, seed: u64) -> (usize, usize) {
        let (mut a, mut b) = (make(), make());
        let (mut ra, mut rb) = (SimRng::seed_from_u64(seed), SimRng::seed_from_u64(seed));
        let (mut frames, mut runs) = (Vec::new(), Vec::new());
        let poll = Duration::from_micros(20);
        for k in 1..=30 {
            let now = SimTime::ZERO + poll.times(k);
            a.emit(now, poll, &mut ra, &mut frames);
            b.emit_runs(now, poll, &mut rb, &mut runs);
        }
        assert!(runs.iter().all(|r: &FrameRun| r.count > 0));
        let expanded: Vec<WireFrame> = runs.iter().flat_map(|r| r.frames()).collect();
        assert_eq!(expanded, frames);
        assert_eq!((a.emitted, a.seq, a.acc), (b.emitted, b.seq, b.acc));
        assert_eq!(ra.next_u64(), rb.next_u64(), "RNG streams diverged");
        (frames.len(), runs.len())
    }

    #[test]
    fn runs_expand_to_the_per_frame_emission() {
        let tuple = FiveTuple::synthetic(3, Proto::Udp);
        // Constant rate with a fixed class: one run per poll.
        let (frames, runs) = emit_both(|| CbrFlow::new(tuple, 64, 800_000.0), 1);
        assert_eq!((frames, runs), (480, 30));
        // Fractional per-poll counts leave some polls empty (no run).
        let (frames, runs) = emit_both(|| CbrFlow::new(tuple, 64, 30_000.0), 1);
        assert_eq!(frames, runs);
        // Poisson draws the same gaps in the same order.
        let (frames, runs) = emit_both(|| CbrFlow::new(tuple, 64, 500_000.0).poisson(), 7);
        assert!(runs <= 30 && frames > runs, "frames={frames} runs={runs}");
        // On/off window edges on poll instants: `start` emits, `stop`
        // does not, and the idle polls reset the credit.
        let windowed = || {
            CbrFlow::new(tuple, 64, 1_000_000.0)
                .window(SimTime::from_micros(100), SimTime::from_micros(300))
        };
        assert_eq!(emit_both(windowed, 1), (200, 10));
        // Random classes: runs of one frame, class draws in frame order,
        // interleaved with the Poisson gap draws.
        let uniform = || {
            CbrFlow::new(tuple, 64, 800_000.0)
                .with_cost_class(CostClassGen::Uniform(3))
                .poisson()
        };
        let (frames, runs) = emit_both(uniform, 5);
        assert_eq!(frames, runs);
        let (frames, runs) = emit_both(
            || CbrFlow::new(tuple, 64, 800_000.0).with_cost_class(CostClassGen::Uniform(4)),
            5,
        );
        assert_eq!((frames, runs), (480, 480));
    }

    #[test]
    fn constant_rate_is_exact_over_time() {
        let mut f = CbrFlow::new(FiveTuple::synthetic(0, Proto::Udp), 64, 1_000_000.0);
        let n = run_flow(
            &mut f,
            Duration::from_millis(100),
            Duration::from_micros(20),
            1,
        );
        // 1 Mpps for 100 ms = 100_000 packets (± rounding of the last poll)
        assert!((n as i64 - 100_000).abs() <= 1, "n={n}");
    }

    #[test]
    fn fractional_rates_accumulate() {
        // 30 kpps polled every 20us = 0.6 packets/poll — needs accumulator.
        let mut f = CbrFlow::new(FiveTuple::synthetic(0, Proto::Udp), 64, 30_000.0);
        let n = run_flow(&mut f, Duration::from_secs(1), Duration::from_micros(20), 1);
        assert!((n as i64 - 30_000).abs() <= 1, "n={n}");
    }

    #[test]
    fn poisson_rate_close_to_mean() {
        let mut f = CbrFlow::new(FiveTuple::synthetic(0, Proto::Udp), 64, 500_000.0).poisson();
        let n = run_flow(
            &mut f,
            Duration::from_millis(200),
            Duration::from_micros(20),
            7,
        );
        let expect = 100_000.0;
        assert!(
            ((n as f64 - expect) / expect).abs() < 0.03,
            "n={n} expect≈{expect}"
        );
    }

    #[test]
    fn window_gates_emission() {
        let mut f = CbrFlow::new(FiveTuple::synthetic(0, Proto::Udp), 64, 1_000_000.0)
            .window(SimTime::from_millis(10), SimTime::from_millis(20));
        let mut rng = SimRng::seed_from_u64(1);
        let mut out = Vec::new();
        let poll = Duration::from_micros(20);
        let mut now = SimTime::ZERO;
        while now < SimTime::from_millis(30) {
            now += poll;
            f.emit(now, poll, &mut rng, &mut out);
        }
        // active 10ms at 1Mpps ≈ 10_000 packets
        assert!((out.len() as i64 - 10_000).abs() <= 2, "len={}", out.len());
        assert!(out.iter().all(|w| {
            w.arrival >= SimTime::from_millis(10) && w.arrival < SimTime::from_millis(20)
        }));
    }

    #[test]
    fn sequences_are_consecutive() {
        let mut f = CbrFlow::new(FiveTuple::synthetic(0, Proto::Udp), 64, 1_000_000.0);
        let mut rng = SimRng::seed_from_u64(1);
        let mut out = Vec::new();
        f.emit(
            SimTime::from_micros(100),
            Duration::from_micros(100),
            &mut rng,
            &mut out,
        );
        let seqs: Vec<u64> = out.iter().map(|w| w.seq).collect();
        assert_eq!(seqs, (0..out.len() as u64).collect::<Vec<_>>());
        assert_eq!(f.emitted, out.len() as u64);
    }

    #[test]
    fn uniform_cost_classes_cover_range() {
        let mut f = CbrFlow::new(FiveTuple::synthetic(0, Proto::Udp), 64, 1_000_000.0)
            .with_cost_class(CostClassGen::Uniform(3));
        let mut rng = SimRng::seed_from_u64(5);
        let mut out = Vec::new();
        f.emit(
            SimTime::from_millis(1),
            Duration::from_millis(1),
            &mut rng,
            &mut out,
        );
        let mut seen = [false; 3];
        for w in &out {
            assert!(w.cost_class < 3);
            seen[w.cost_class as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
