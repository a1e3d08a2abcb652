//! NIC model: bounded hardware RX queue and TX counters.
//!
//! Traffic generators deposit *wire frames* into the RX queue; the NF
//! manager's RX thread polls frames out (DPDK poll-mode-driver style),
//! allocates mempool buffers and classifies them. If the RX queue
//! overflows, frames are lost in hardware — this is an *early* drop that
//! wasted no CPU work, in contrast to drops deep inside a service chain.

use crate::packet::{Ecn, FiveTuple};
use nfv_des::SimTime;

/// A frame on the wire, before it has a mempool buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireFrame {
    /// Flow 5-tuple for classification.
    pub tuple: FiveTuple,
    /// Frame size in bytes.
    pub size: u32,
    /// Source-assigned sequence number (TCP model correlation).
    pub seq: u64,
    /// Cost class for variable-processing-cost workloads.
    pub cost_class: u8,
    /// ECN codepoint set by the sender.
    pub ecn: Ecn,
    /// Time the frame hit the wire.
    pub arrival: SimTime,
}

/// `count` back-to-back frames that differ only in `seq`: frame `i` is
/// `head` with `seq + i`. A constant-rate source emits one run per poll,
/// and the NIC and the RX thread move and account it as one unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameRun {
    /// The run's first frame.
    pub head: WireFrame,
    /// Frames in the run (≥ 1).
    pub count: u32,
}

impl FrameRun {
    /// A run of one frame.
    #[inline]
    pub fn single(frame: WireFrame) -> Self {
        FrameRun {
            head: frame,
            count: 1,
        }
    }

    /// Frame `i` (< `count`) of the run.
    #[inline]
    pub fn frame(&self, i: u32) -> WireFrame {
        debug_assert!(i < self.count);
        WireFrame {
            seq: self.head.seq + i as u64,
            ..self.head
        }
    }

    /// The run's frames, in order.
    pub fn frames(&self) -> impl Iterator<Item = WireFrame> + '_ {
        (0..self.count).map(|i| self.frame(i))
    }

    /// Whether `next` is the frame right after the run's last: all but
    /// `seq` equal, and `seq` the next one.
    #[inline]
    fn continues_with(&self, next: &WireFrame) -> bool {
        self.count < u32::MAX
            && self.head.seq.checked_add(self.count as u64) == Some(next.seq)
            && WireFrame {
                seq: self.head.seq,
                ..*next
            } == self.head
    }
}

/// One simulated NIC port.
///
/// The RX queue holds frame runs, not frames: a source's per-poll run
/// crosses the NIC as one entry. Capacity, overflow and `rx_pending`
/// still count frames. The manager's RX thread always drains the queue
/// wholesale ([`Nic::take_rx`] swap), so FIFO pops from the front never
/// happen on the hot path.
#[derive(Debug)]
pub struct Nic {
    rx: Vec<FrameRun>,
    /// Frames in `rx` (the sum of its run counts).
    rx_len: usize,
    rx_capacity: usize,
    /// Frames lost to RX queue overflow (no work wasted).
    pub rx_overflow_drops: u64,
    /// Frames received into the RX queue.
    pub rx_frames: u64,
    /// Frames transmitted out of the system.
    pub tx_frames: u64,
    /// Bytes transmitted out of the system.
    pub tx_bytes: u64,
}

impl Nic {
    /// Typical hardware RX descriptor ring size.
    pub const DEFAULT_RX_CAPACITY: usize = 4096;

    /// A NIC with the given RX descriptor ring capacity.
    pub fn new(rx_capacity: usize) -> Self {
        assert!(rx_capacity > 0);
        Nic {
            rx: Vec::new(),
            rx_len: 0,
            rx_capacity,
            rx_overflow_drops: 0,
            rx_frames: 0,
            tx_frames: 0,
            tx_bytes: 0,
        }
    }

    /// Queue one frame that fits, appending it to the last queued run
    /// when it continues that run.
    #[inline]
    fn push_frame(&mut self, frame: WireFrame) {
        match self.rx.last_mut() {
            Some(last) if last.continues_with(&frame) => last.count += 1,
            _ => self.rx.push(FrameRun::single(frame)),
        }
        self.rx_len += 1;
        self.rx_frames += 1;
    }

    /// Deliver a frame from the wire. Returns `false` on overflow drop.
    #[inline]
    pub fn deliver(&mut self, frame: WireFrame) -> bool {
        if self.rx_len >= self.rx_capacity {
            self.rx_overflow_drops += 1;
            return false;
        }
        self.push_frame(frame);
        true
    }

    /// Deliver a burst of frames, draining `frames`. Accepts up to the
    /// remaining RX capacity in order and drops the rest (hardware
    /// overflow, same semantics as per-frame [`Nic::deliver`] in a loop).
    /// Returns the number dropped.
    #[inline]
    pub fn deliver_burst(&mut self, frames: &mut Vec<WireFrame>) -> usize {
        let take = (self.rx_capacity - self.rx_len).min(frames.len());
        for f in &frames[..take] {
            self.push_frame(*f);
        }
        let dropped = frames.len() - take;
        self.rx_overflow_drops += dropped as u64;
        frames.clear();
        dropped
    }

    /// Deliver frame runs, draining `runs`. Accepts frames in order up to
    /// the remaining RX capacity, cutting the run that crosses it, and
    /// drops the rest: the same frames in the same order as per-frame
    /// [`Nic::deliver`] over the expanded runs. Runs are queued as given
    /// (never merged). Returns the number of frames dropped.
    #[inline]
    pub fn deliver_runs(&mut self, runs: &mut Vec<FrameRun>) -> usize {
        let mut dropped = 0;
        for run in runs.iter() {
            let take = (self.rx_capacity - self.rx_len).min(run.count as usize) as u32;
            if take > 0 {
                self.rx.push(FrameRun {
                    count: take,
                    ..*run
                });
                self.rx_len += take as usize;
                self.rx_frames += take as u64;
            }
            dropped += (run.count - take) as usize;
        }
        self.rx_overflow_drops += dropped as u64;
        runs.clear();
        dropped
    }

    /// Poll up to `burst` frames (PMD receive burst), splitting a run
    /// that straddles the limit. Front-of-queue removal shifts the
    /// remainder — fine off the hot path; the RX thread itself uses
    /// [`Nic::take_rx`].
    pub fn poll(&mut self, burst: usize, out: &mut Vec<WireFrame>) -> usize {
        let take = burst.min(self.rx_len);
        let (mut left, mut whole) = (take, 0);
        while left > 0 {
            let run = &mut self.rx[whole];
            let n = left.min(run.count as usize) as u32;
            out.extend((0..n).map(|i| run.frame(i)));
            left -= n as usize;
            if n == run.count {
                whole += 1;
            } else {
                run.head.seq += n as u64;
                run.count -= n;
            }
        }
        self.rx.drain(..whole);
        self.rx_len -= take;
        take
    }

    /// Drain the whole RX queue by swapping it with `out` (which must be
    /// empty): the full-queue poll without copying runs. Both queues'
    /// capacities survive, so a poll loop reusing `out` never reallocates.
    #[inline]
    pub fn take_rx(&mut self, out: &mut Vec<FrameRun>) {
        debug_assert!(out.is_empty());
        std::mem::swap(&mut self.rx, out);
        self.rx_len = 0;
    }

    /// Transmit a frame out of the box.
    #[inline]
    pub fn transmit(&mut self, size: u32) {
        self.transmit_n(size, 1);
    }

    /// Transmit `n` frames of `size` bytes each.
    #[inline]
    pub fn transmit_n(&mut self, size: u32, n: u32) {
        self.tx_frames += u64::from(n);
        self.tx_bytes += u64::from(size) * u64::from(n);
    }

    /// Frames currently waiting in the RX queue.
    pub fn rx_pending(&self) -> usize {
        self.rx_len
    }
}

impl Default for Nic {
    fn default() -> Self {
        Nic::new(Self::DEFAULT_RX_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Proto;

    fn frame(n: u32) -> WireFrame {
        WireFrame {
            tuple: FiveTuple::synthetic(n, Proto::Udp),
            size: 64,
            seq: n as u64,
            cost_class: 0,
            ecn: Ecn::NotEct,
            arrival: SimTime::ZERO,
        }
    }

    impl WireFrame {
        fn with_seq(self, seq: u64) -> Self {
            WireFrame { seq, ..self }
        }
    }

    #[test]
    fn deliver_then_poll_in_order() {
        let mut nic = Nic::new(8);
        for i in 0..5 {
            assert!(nic.deliver(frame(i)));
        }
        let mut out = Vec::new();
        assert_eq!(nic.poll(3, &mut out), 3);
        assert_eq!(out[0].seq, 0);
        assert_eq!(out[2].seq, 2);
        assert_eq!(nic.rx_pending(), 2);
    }

    #[test]
    fn overflow_drops_counted() {
        let mut nic = Nic::new(2);
        assert!(nic.deliver(frame(0)));
        assert!(nic.deliver(frame(1)));
        assert!(!nic.deliver(frame(2)));
        assert_eq!(nic.rx_overflow_drops, 1);
        assert_eq!(nic.rx_frames, 2);
    }

    #[test]
    fn continuing_frames_merge_into_one_run() {
        let mut nic = Nic::new(16);
        for i in 0..4 {
            assert!(nic.deliver(frame(0).with_seq(i)));
        }
        // A seq gap and a different tuple each start a new run.
        nic.deliver(frame(0).with_seq(9));
        nic.deliver(frame(1).with_seq(10));
        let mut runs = Vec::new();
        nic.take_rx(&mut runs);
        let counts: Vec<u32> = runs.iter().map(|r| r.count).collect();
        assert_eq!(counts, vec![4, 1, 1]);
        assert_eq!(nic.rx_pending(), 0);
        assert_eq!(runs[0].frame(3), frame(0).with_seq(3));
    }

    #[test]
    fn deliver_runs_cuts_the_run_crossing_capacity() {
        let mut nic = Nic::new(5);
        let mut runs = vec![
            FrameRun {
                head: frame(0),
                count: 3,
            },
            FrameRun {
                head: frame(1),
                count: 4,
            },
            FrameRun::single(frame(2)),
        ];
        assert_eq!(nic.deliver_runs(&mut runs), 3);
        assert!(runs.is_empty());
        assert_eq!((nic.rx_frames, nic.rx_overflow_drops), (5, 3));
        let mut out = Vec::new();
        // Polling splits the cut run again, keeping seq order.
        assert_eq!(nic.poll(4, &mut out), 4);
        assert_eq!(nic.poll(4, &mut out), 1);
        let want = vec![
            frame(0),
            frame(0).with_seq(1),
            frame(0).with_seq(2),
            frame(1),
            frame(1).with_seq(2),
        ];
        assert_eq!(out, want);
        assert_eq!(nic.rx_pending(), 0);
    }

    #[test]
    fn transmit_counters() {
        let mut nic = Nic::default();
        nic.transmit(64);
        nic.transmit(1500);
        assert_eq!(nic.tx_frames, 2);
        assert_eq!(nic.tx_bytes, 1564);
    }

    #[test]
    fn poll_empty_returns_zero() {
        let mut nic = Nic::new(4);
        let mut out = Vec::new();
        assert_eq!(nic.poll(32, &mut out), 0);
        assert!(out.is_empty());
    }
}
