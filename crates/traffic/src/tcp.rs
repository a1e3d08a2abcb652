//! A Reno-style TCP source model with ECN response (the iperf3 stand-in).
//!
//! The Fig 13 experiment needs exactly one property of TCP: *responsive*
//! flows back off when the chain drops or ECN-marks their packets, while
//! UDP does not. The model is a window-based AIMD state machine:
//!
//! * slow start below `ssthresh` (cwnd += 1 per ACK), congestion avoidance
//!   above (cwnd += 1/cwnd per ACK);
//! * a drop or an ECN congestion-experienced echo halves the window, at
//!   most once per round trip (per RFC 5681 / RFC 3168 semantics);
//! * dropped segments are retransmitted ahead of new data.
//!
//! Simplifications (documented per DESIGN.md): per-packet ACKs with a fixed
//! round-trip time, loss detected immediately (ideal fast retransmit, no
//! RTO), no receiver window. These only make the baseline *more* favorable
//! — TCP recovers as fast as possible — yet the paper's collapse without
//! NFVnice still reproduces.

use nfv_des::{Duration, SimTime};
use nfv_pkt::{Ecn, FiveTuple, WireFrame};
use std::collections::VecDeque;

/// Window-based TCP sender.
#[derive(Debug)]
pub struct TcpSource {
    /// Flow identity.
    pub tuple: FiveTuple,
    /// Segment size on the wire (bytes).
    pub frame_size: u32,
    /// Fixed round-trip time (data out + ACK back).
    pub rtt: Duration,
    /// Whether the sender negotiates ECN (ECT(0) on data packets).
    pub ecn_capable: bool,
    /// Upper bound on the window (receiver window / socket buffer stand-in;
    /// caps the flow's rate at `max_cwnd · frame_size · 8 / rtt` bits/s).
    pub max_cwnd: f64,
    cwnd: f64,
    ssthresh: f64,
    in_flight: u32,
    next_seq: u64,
    /// Highest sequence outstanding when the window was last cut; further
    /// congestion signals for older packets are ignored (once per RTT).
    recover_seq: u64,
    retransmit: VecDeque<u64>,
    /// Segments acknowledged (goodput numerator).
    pub acked: u64,
    /// Segments detected lost.
    pub losses: u64,
    /// ECN CE echoes honored.
    pub ecn_cuts: u64,
}

/// Feedback the platform reports to the source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Feedback {
    /// Segment left the chain and reached the receiver; `ce` is true if it
    /// carried an ECN congestion-experienced mark.
    Delivered {
        /// Sequence number.
        seq: u64,
        /// ECN CE observed at the receiver (echoed to the sender).
        ce: bool,
    },
    /// Segment was dropped inside the NFV box.
    Dropped {
        /// Sequence number.
        seq: u64,
    },
}

impl TcpSource {
    /// Initial congestion window (RFC 6928).
    pub const INIT_CWND: f64 = 10.0;

    /// A source with the given identity, segment size and RTT.
    pub fn new(tuple: FiveTuple, frame_size: u32, rtt: Duration) -> Self {
        TcpSource {
            tuple,
            frame_size,
            rtt,
            ecn_capable: false,
            max_cwnd: f64::INFINITY,
            cwnd: Self::INIT_CWND,
            ssthresh: f64::INFINITY,
            in_flight: 0,
            next_seq: 0,
            recover_seq: 0,
            retransmit: VecDeque::new(),
            acked: 0,
            losses: 0,
            ecn_cuts: 0,
        }
    }

    /// Enable ECN on this source.
    pub fn with_ecn(mut self) -> Self {
        self.ecn_capable = true;
        self
    }

    /// Cap the congestion window (receiver-window model).
    pub fn with_max_cwnd(mut self, w: f64) -> Self {
        self.max_cwnd = w.max(1.0);
        self
    }

    /// Current congestion window in segments.
    pub fn cwnd(&self) -> f64 {
        self.cwnd
    }

    /// Segments currently unacknowledged.
    pub fn in_flight(&self) -> u32 {
        self.in_flight
    }

    /// Segments detected lost and queued for retransmission.
    pub fn pending_retransmits(&self) -> usize {
        self.retransmit.len()
    }

    /// Emit as many segments as the window allows, retransmissions first.
    pub fn pump(&mut self, now: SimTime, out: &mut Vec<WireFrame>) {
        while (self.in_flight as f64) < self.cwnd.floor() {
            let seq = match self.retransmit.pop_front() {
                Some(s) => s,
                None => {
                    let s = self.next_seq;
                    self.next_seq += 1;
                    s
                }
            };
            out.push(WireFrame {
                tuple: self.tuple,
                size: self.frame_size,
                seq,
                cost_class: 0,
                ecn: if self.ecn_capable {
                    Ecn::Ect0
                } else {
                    Ecn::NotEct
                },
                arrival: now,
            });
            self.in_flight += 1;
        }
    }

    /// Apply delivery/drop feedback. Returns the time at which the
    /// (implicit) ACK clock lets the window move again — callers schedule a
    /// pump at that time (delivery feedback arrives when the packet exits
    /// the chain; the ACK takes a further `rtt/2`... the model folds the
    /// whole RTT into this delay).
    pub fn on_feedback(&mut self, fb: Feedback, now: SimTime) -> SimTime {
        match fb {
            Feedback::Delivered { seq, ce } => {
                self.in_flight = self.in_flight.saturating_sub(1);
                self.acked += 1;
                if ce && self.ecn_capable {
                    if self.cut_window(seq) {
                        self.ecn_cuts += 1;
                    }
                } else if self.cwnd < self.ssthresh {
                    self.cwnd += 1.0; // slow start
                } else {
                    self.cwnd += 1.0 / self.cwnd; // congestion avoidance
                }
                self.cwnd = self.cwnd.min(self.max_cwnd);
            }
            Feedback::Dropped { seq } => {
                self.in_flight = self.in_flight.saturating_sub(1);
                if self.cut_window(seq) {
                    self.losses += 1;
                }
                self.retransmit.push_back(seq);
            }
        }
        now + self.rtt
    }

    /// Multiplicative decrease, at most once per window of data.
    /// Returns whether a cut actually happened.
    fn cut_window(&mut self, seq: u64) -> bool {
        if seq < self.recover_seq {
            return false; // already reacted to this window
        }
        self.recover_seq = self.next_seq;
        self.cwnd = (self.cwnd / 2.0).max(1.0);
        self.ssthresh = self.cwnd;
        true
    }

    /// Goodput in bits/s given segments acked over `elapsed`.
    pub fn goodput_bps(&self, elapsed: Duration) -> f64 {
        if elapsed == Duration::ZERO {
            return 0.0;
        }
        self.acked as f64 * self.frame_size as f64 * 8.0 / elapsed.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfv_pkt::Proto;

    fn src() -> TcpSource {
        TcpSource::new(
            FiveTuple::synthetic(0, Proto::Tcp),
            1500,
            Duration::from_millis(1),
        )
    }

    #[test]
    fn initial_pump_sends_init_cwnd() {
        let mut s = src();
        let mut out = Vec::new();
        s.pump(SimTime::ZERO, &mut out);
        assert_eq!(out.len(), 10);
        assert_eq!(s.in_flight(), 10);
        // window exhausted: further pumps send nothing
        s.pump(SimTime::ZERO, &mut out);
        assert_eq!(out.len(), 10);
    }

    #[test]
    fn slow_start_doubles_per_rtt() {
        let mut s = src();
        let mut out = Vec::new();
        s.pump(SimTime::ZERO, &mut out);
        let now = SimTime::from_millis(1);
        for w in out.drain(..) {
            s.on_feedback(
                Feedback::Delivered {
                    seq: w.seq,
                    ce: false,
                },
                now,
            );
        }
        assert_eq!(s.cwnd() as u64, 20); // 10 acks, +1 each
    }

    #[test]
    fn drop_halves_window_once_per_rtt() {
        let mut s = src();
        let mut out = Vec::new();
        s.pump(SimTime::ZERO, &mut out);
        let now = SimTime::from_millis(1);
        // Two drops in the same flight: only one multiplicative decrease.
        s.on_feedback(Feedback::Dropped { seq: out[0].seq }, now);
        s.on_feedback(Feedback::Dropped { seq: out[1].seq }, now);
        assert_eq!(s.cwnd(), 5.0);
        assert_eq!(s.losses, 1);
        assert_eq!(s.retransmit.len(), 2);
    }

    #[test]
    fn retransmits_go_first() {
        let mut s = src();
        let mut out = Vec::new();
        s.pump(SimTime::ZERO, &mut out);
        let now = SimTime::from_millis(1);
        // Deliver most of the flight so the halved window still has room,
        // then lose the last segment.
        for seq in 0..9 {
            s.on_feedback(Feedback::Delivered { seq, ce: false }, now);
        }
        s.on_feedback(Feedback::Dropped { seq: 9 }, now);
        out.clear();
        s.pump(now, &mut out);
        assert!(!out.is_empty());
        assert_eq!(out[0].seq, 9);
    }

    #[test]
    fn ecn_cut_only_when_capable() {
        let mut plain = src();
        let mut out = Vec::new();
        plain.pump(SimTime::ZERO, &mut out);
        plain.on_feedback(Feedback::Delivered { seq: 0, ce: true }, SimTime::ZERO);
        assert!(plain.cwnd() > 10.0, "non-ECN source ignores CE");

        let mut ecn = src().with_ecn();
        out.clear();
        ecn.pump(SimTime::ZERO, &mut out);
        assert_eq!(out[0].ecn, Ecn::Ect0);
        ecn.on_feedback(Feedback::Delivered { seq: 0, ce: true }, SimTime::ZERO);
        assert_eq!(ecn.cwnd(), 5.0);
        assert_eq!(ecn.ecn_cuts, 1);
    }

    #[test]
    fn congestion_avoidance_linear_growth() {
        let mut s = src();
        let mut out = Vec::new();
        s.pump(SimTime::ZERO, &mut out);
        s.on_feedback(Feedback::Dropped { seq: 0 }, SimTime::ZERO); // ssthresh=5
                                                                    // Deliver the rest of the flight plus retransmit: cwnd ≥ ssthresh ⇒ CA.
        let before = s.cwnd();
        for seq in 1..10 {
            s.on_feedback(Feedback::Delivered { seq, ce: false }, SimTime::ZERO);
        }
        let after = s.cwnd();
        // 9 CA acks add roughly 9/cwnd ≈ 1.6, not 9.
        assert!(after - before < 3.0, "before={before} after={after}");
        assert!(after > before);
    }

    #[test]
    fn window_never_below_one() {
        let mut s = src();
        let mut out = Vec::new();
        s.pump(SimTime::ZERO, &mut out);
        for flight in 0..20u64 {
            let seq = s.next_seq; // force new recovery window each round
            s.on_feedback(Feedback::Dropped { seq: seq + flight }, SimTime::ZERO);
            s.recover_seq = 0; // simulate new windows
        }
        assert!(s.cwnd() >= 1.0);
    }

    #[test]
    fn max_cwnd_caps_growth() {
        let mut s = src().with_max_cwnd(12.0);
        let mut out = Vec::new();
        for _ in 0..5 {
            out.clear();
            s.pump(SimTime::ZERO, &mut out);
            let flight: Vec<u64> = out.iter().map(|w| w.seq).collect();
            for seq in flight {
                s.on_feedback(Feedback::Delivered { seq, ce: false }, SimTime::ZERO);
            }
        }
        assert!(s.cwnd() <= 12.0);
    }

    #[test]
    fn goodput_computation() {
        let mut s = src();
        s.acked = 1000;
        let bps = s.goodput_bps(Duration::from_secs(1));
        assert_eq!(bps, 1000.0 * 1500.0 * 8.0);
        assert_eq!(s.goodput_bps(Duration::ZERO), 0.0);
    }
}
