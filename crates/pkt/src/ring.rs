//! Bounded descriptor rings.
//!
//! Models DPDK `rte_ring` as OpenNetVM uses it for per-NF RX/TX queues.
//! The enqueue API reports the post-enqueue occupancy — NFVnice's TX
//! threads use exactly this "feedback about the queue's state in the return
//! value" to detect overload without any extra bookkeeping (§3.5,
//! *separating overload detection and control*).

use crate::ids::PktId;
use std::collections::VecDeque;

/// Result of a ring enqueue attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Enqueue {
    /// Stored; `occupancy` is the queue length *after* the operation.
    Ok {
        /// Entries in the ring after this enqueue.
        occupancy: usize,
    },
    /// Ring full; the descriptor was not stored.
    Full,
}

impl Enqueue {
    /// True if the descriptor was stored.
    pub fn is_ok(self) -> bool {
        matches!(self, Enqueue::Ok { .. })
    }
}

/// A bounded FIFO of packet descriptors with occupancy statistics.
#[derive(Debug)]
pub struct Ring {
    buf: VecDeque<PktId>,
    capacity: usize,
    /// Total descriptors ever enqueued.
    pub enqueued: u64,
    /// Total descriptors ever dequeued.
    pub dequeued: u64,
    /// Enqueue attempts rejected because the ring was full.
    pub full_drops: u64,
}

impl Ring {
    /// A ring holding at most `capacity` descriptors.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        Ring {
            buf: VecDeque::with_capacity(capacity),
            capacity,
            enqueued: 0,
            dequeued: 0,
            full_drops: 0,
        }
    }

    /// Attempt to enqueue one descriptor.
    #[inline]
    pub fn enqueue(&mut self, id: PktId) -> Enqueue {
        if self.buf.len() >= self.capacity {
            self.full_drops += 1;
            return Enqueue::Full;
        }
        self.buf.push_back(id);
        self.enqueued += 1;
        Enqueue::Ok {
            occupancy: self.buf.len(),
        }
    }

    /// Enqueue the prefix of `ids` that fits, in order, and count every
    /// descriptor that did not as a full drop (DPDK's
    /// `rte_ring_enqueue_burst`). Returns how many were stored; the ring
    /// ends exactly as after one [`Ring::enqueue`] per descriptor.
    pub fn enqueue_burst(&mut self, ids: &[PktId]) -> usize {
        let fit = ids.len().min(self.room());
        self.buf.extend(ids[..fit].iter().copied());
        self.enqueued += fit as u64;
        self.full_drops += (ids.len() - fit) as u64;
        fit
    }

    /// Dequeue the oldest descriptor.
    #[inline]
    pub fn dequeue(&mut self) -> Option<PktId> {
        let id = self.buf.pop_front();
        if id.is_some() {
            self.dequeued += 1;
        }
        id
    }

    /// Dequeue up to `n` descriptors into `out` (batch receive).
    pub fn dequeue_burst(&mut self, n: usize, out: &mut Vec<PktId>) -> usize {
        let take = n.min(self.buf.len());
        for _ in 0..take {
            out.push(self.buf.pop_front().unwrap());
        }
        self.dequeued += take as u64;
        take
    }

    /// Peek at the head descriptor without removing it.
    #[inline]
    pub fn peek(&self) -> Option<PktId> {
        self.buf.front().copied()
    }

    /// Iterate over queued descriptors from head to tail (the manager scans
    /// a backlogged NF's queue to find which chains are affected).
    pub fn iter(&self) -> impl Iterator<Item = PktId> + '_ {
        self.buf.iter().copied()
    }

    /// Current queue length.
    #[inline]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Maximum entries.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Free entries: how many more descriptors an enqueue would store.
    #[inline]
    pub fn room(&self) -> usize {
        self.capacity - self.buf.len()
    }

    /// Occupancy as a fraction of capacity in `[0, 1]`.
    pub fn fill_fraction(&self) -> f64 {
        self.buf.len() as f64 / self.capacity as f64
    }

    /// True when occupancy is at or above `percent`% of capacity.
    /// This is the HIGH_WATER_MARK / LOW_WATER_MARK comparison; integer
    /// arithmetic so thresholds are exact.
    pub fn at_or_above_percent(&self, percent: u32) -> bool {
        self.buf.len() * 100 >= self.capacity * percent as usize
    }

    /// Drain every descriptor (used when a throttled chain's queue is
    /// flushed at simulation teardown).
    pub fn drain_all(&mut self, out: &mut Vec<PktId>) {
        self.dequeued += self.buf.len() as u64;
        out.extend(self.buf.drain(..));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enqueue_reports_occupancy() {
        let mut r = Ring::new(4);
        assert_eq!(r.enqueue(PktId(0)), Enqueue::Ok { occupancy: 1 });
        assert_eq!(r.enqueue(PktId(1)), Enqueue::Ok { occupancy: 2 });
    }

    #[test]
    fn full_ring_rejects_and_counts() {
        let mut r = Ring::new(2);
        assert!(r.enqueue(PktId(0)).is_ok());
        assert!(r.enqueue(PktId(1)).is_ok());
        assert_eq!(r.enqueue(PktId(2)), Enqueue::Full);
        assert_eq!(r.full_drops, 1);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn fifo_order() {
        let mut r = Ring::new(8);
        for i in 0..5 {
            r.enqueue(PktId(i));
        }
        for i in 0..5 {
            assert_eq!(r.dequeue(), Some(PktId(i)));
        }
        assert_eq!(r.dequeue(), None);
    }

    #[test]
    fn burst_dequeue() {
        let mut r = Ring::new(8);
        for i in 0..6 {
            r.enqueue(PktId(i));
        }
        let mut out = Vec::new();
        assert_eq!(r.dequeue_burst(4, &mut out), 4);
        assert_eq!(out, vec![PktId(0), PktId(1), PktId(2), PktId(3)]);
        assert_eq!(r.dequeue_burst(4, &mut out), 2);
        assert_eq!(r.len(), 0);
        assert_eq!(r.dequeued, 6);
    }

    #[test]
    fn burst_enqueue_equals_single_enqueues() {
        for (cap, pre, n) in [(4, 0, 3), (4, 1, 3), (4, 2, 5), (3, 3, 2), (5, 0, 0)] {
            let (mut burst, mut single) = (Ring::new(cap), Ring::new(cap));
            for i in 0..pre {
                burst.enqueue(PktId(100 + i));
                single.enqueue(PktId(100 + i));
            }
            let ids: Vec<PktId> = (0..n).map(PktId).collect();
            let stored = burst.enqueue_burst(&ids);
            let ok = ids.iter().filter(|&&id| single.enqueue(id).is_ok()).count();
            assert_eq!(stored, ok);
            assert_eq!(
                burst.iter().collect::<Vec<_>>(),
                single.iter().collect::<Vec<_>>()
            );
            assert_eq!(
                (burst.enqueued, burst.full_drops, burst.room()),
                (single.enqueued, single.full_drops, single.room())
            );
        }
    }

    #[test]
    fn watermark_comparisons_exact() {
        let mut r = Ring::new(10);
        for i in 0..8 {
            r.enqueue(PktId(i));
        }
        assert!(r.at_or_above_percent(80));
        assert!(!r.at_or_above_percent(81));
        assert!((r.fill_fraction() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn iter_and_peek_do_not_consume() {
        let mut r = Ring::new(4);
        r.enqueue(PktId(7));
        r.enqueue(PktId(8));
        assert_eq!(r.peek(), Some(PktId(7)));
        assert_eq!(r.iter().collect::<Vec<_>>(), vec![PktId(7), PktId(8)]);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn drain_all_counts_dequeues() {
        let mut r = Ring::new(4);
        r.enqueue(PktId(0));
        r.enqueue(PktId(1));
        let mut out = Vec::new();
        r.drain_all(&mut out);
        assert_eq!(out.len(), 2);
        assert!(r.is_empty());
        assert_eq!(r.dequeued, 2);
        assert_eq!(r.capacity(), 4);
    }
}
