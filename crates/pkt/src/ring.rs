//! Bounded descriptor rings.
//!
//! Models DPDK `rte_ring` as OpenNetVM uses it for per-NF RX/TX queues.
//! The enqueue API reports the post-enqueue occupancy — NFVnice's TX
//! threads use exactly this "feedback about the queue's state in the return
//! value" to detect overload without any extra bookkeeping (§3.5,
//! *separating overload detection and control*).

use crate::ids::PktId;
use crate::mempool::Mempool;
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

/// A bounded FIFO of packet-run descriptors with occupancy statistics.
///
/// Each entry is a mempool slot holding a run of packets (see
/// [`PacketRun`](crate::PacketRun)); the slot is the only record of the
/// run's length, so run operations read it from the pool. Capacity,
/// length and every counter are in packets: the ring reads as one
/// descriptor per packet would. The single-descriptor operations
/// ([`Ring::enqueue`], [`Ring::dequeue`], [`Ring::dequeue_burst`]) move
/// runs of one.
#[derive(Debug)]
pub struct Ring {
    buf: VecDeque<PktId>,
    /// Packets in the runs of `buf`.
    len: usize,
    capacity: usize,
    /// Total packets ever enqueued.
    pub enqueued: u64,
    /// Total packets ever dequeued.
    pub dequeued: u64,
    /// Packet enqueue attempts rejected because the ring was full.
    pub full_drops: u64,
}

impl Ring {
    /// A ring holding at most `capacity` packets.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        Ring {
            buf: VecDeque::with_capacity(capacity),
            len: 0,
            capacity,
            enqueued: 0,
            dequeued: 0,
            full_drops: 0,
        }
    }

    /// Attempt to enqueue one descriptor holding a single packet.
    #[inline]
    pub fn enqueue(&mut self, id: PktId) -> Enqueue {
        if self.len >= self.capacity {
            self.full_drops += 1;
            return Enqueue::Full;
        }
        self.push(id, 1);
        Enqueue::Ok {
            occupancy: self.len,
        }
    }

    #[inline]
    fn push(&mut self, id: PktId, n: usize) {
        self.buf.push_back(id);
        self.len += n;
        self.enqueued += n as u64;
    }

    /// Enqueue the prefix of run `id` that fits, in one entry: a longer
    /// run is split in `pool`, and the tail that did not fit comes back
    /// (the whole run when the ring is full). Refused packets are not
    /// counted here — the caller knows how many attempts a per-packet
    /// enqueue would have made, and reports them with [`Ring::refuse`].
    #[inline]
    pub fn enqueue_run(&mut self, id: PktId, pool: &mut Mempool) -> Option<PktId> {
        let n = pool.count(id) as usize;
        let room = self.room();
        if n <= room {
            self.push(id, n);
            return None;
        }
        if room == 0 {
            return Some(id);
        }
        let tail = pool.split(id, room as u32);
        self.push(id, room);
        Some(tail)
    }

    /// Count `n` packet enqueue attempts the full ring rejected.
    #[inline]
    pub fn refuse(&mut self, n: u64) {
        self.full_drops += n;
    }

    /// Dequeue the oldest descriptor, a run of one packet.
    #[inline]
    pub fn dequeue(&mut self) -> Option<PktId> {
        debug_assert_eq!(
            self.buf.len(),
            self.len,
            "single dequeue from a ring of runs"
        );
        let id = self.buf.pop_front()?;
        self.len -= 1;
        self.dequeued += 1;
        Some(id)
    }

    /// Dequeue at most `max` (> 0) packets of the oldest run, in one
    /// descriptor: a longer run is split in `pool`, its first `max`
    /// packets leave and the rest stays at the head of the ring.
    #[inline]
    pub fn dequeue_run(&mut self, max: u32, pool: &mut Mempool) -> Option<PktId> {
        debug_assert!(max > 0);
        let &id = self.buf.front()?;
        let n = pool.count(id);
        let taken = if n <= max {
            self.buf.pop_front();
            n
        } else {
            self.buf[0] = pool.split(id, max);
            max
        };
        self.len -= taken as usize;
        self.dequeued += u64::from(taken);
        Some(id)
    }

    /// Dequeue up to `n` descriptors of one packet each into `out` (batch
    /// receive).
    pub fn dequeue_burst(&mut self, n: usize, out: &mut Vec<PktId>) -> usize {
        debug_assert_eq!(
            self.buf.len(),
            self.len,
            "single dequeue from a ring of runs"
        );
        let take = n.min(self.buf.len());
        out.extend(self.buf.drain(..take));
        self.len -= take;
        self.dequeued += take as u64;
        take
    }

    /// Peek at the head descriptor without removing it.
    #[inline]
    pub fn peek(&self) -> Option<PktId> {
        self.buf.front().copied()
    }

    /// Iterate over queued descriptors from head to tail.
    pub fn iter(&self) -> impl Iterator<Item = PktId> + '_ {
        self.buf.iter().copied()
    }

    /// Current queue length in packets.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Maximum packets.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Free room: how many more packets an enqueue would store.
    #[inline]
    pub fn room(&self) -> usize {
        self.capacity - self.len
    }

    /// Occupancy as a fraction of capacity in `[0, 1]`.
    pub fn fill_fraction(&self) -> f64 {
        self.len as f64 / self.capacity as f64
    }

    /// True when occupancy is at or above `percent`% of capacity.
    /// This is the HIGH_WATER_MARK / LOW_WATER_MARK comparison; integer
    /// arithmetic so thresholds are exact.
    pub fn at_or_above_percent(&self, percent: u32) -> bool {
        self.len * 100 >= self.capacity * percent as usize
    }

    /// Drain every descriptor (an NF crash frees its rings wholesale).
    pub fn drain_all(&mut self, out: &mut Vec<PktId>) {
        self.dequeued += self.len as u64;
        self.len = 0;
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

    fn run(pool: &mut Mempool, seq: u64, count: u32) -> PktId {
        use crate::ids::{ChainId, FlowId};
        let mut head = crate::Packet::new(FlowId(0), ChainId(0), 64, nfv_des::SimTime::ZERO);
        head.seq = seq;
        pool.alloc_run(crate::PacketRun { head, count }).unwrap()
    }

    #[test]
    fn burst_enqueue_equals_single_enqueues() {
        // A run enqueue stores what single enqueues of its packets would,
        // splitting off the tail that does not fit.
        for (cap, pre, n) in [(4, 0, 3), (4, 1, 3), (4, 2, 5), (3, 3, 2), (5, 0, 1)] {
            let mut pool = Mempool::new(16);
            let (mut runs, mut single) = (Ring::new(cap), Ring::new(cap));
            for i in 0..pre {
                runs.enqueue(PktId(100 + i));
                single.enqueue(PktId(100 + i));
            }
            let id = run(&mut pool, 0, n);
            let tail = runs.enqueue_run(id, &mut pool);
            let ok = (0..n).filter(|&i| single.enqueue(PktId(i)).is_ok()).count() as u32;
            let refused = tail.map_or(0, |t| pool.get(t).count);
            assert_eq!(n - refused, ok);
            runs.refuse(u64::from(refused));
            if let Some(t) = tail {
                assert_eq!(pool.get(t).head.seq, u64::from(ok));
            }
            assert_eq!(
                (runs.len(), runs.enqueued, runs.full_drops, runs.room()),
                (
                    single.len(),
                    single.enqueued,
                    single.full_drops,
                    single.room()
                )
            );
        }
    }

    #[test]
    fn run_dequeue_splits_the_head_run_at_the_limit() {
        let mut pool = Mempool::new(16);
        let mut r = Ring::new(8);
        let (a, b) = (run(&mut pool, 0, 5), run(&mut pool, 5, 2));
        assert_eq!(r.enqueue_run(a, &mut pool), None);
        assert_eq!(r.enqueue_run(b, &mut pool), None);
        assert_eq!((r.len(), r.room()), (7, 1));
        assert_eq!(r.dequeue_run(3, &mut pool), Some(a));
        assert_eq!(pool.get(a).count, 3);
        let rest = r.peek().unwrap();
        assert_eq!((pool.get(rest).head.seq, pool.get(rest).count), (3, 2));
        assert_eq!((r.len(), r.dequeued), (4, 3));
        assert_eq!(r.dequeue_run(8, &mut pool), Some(rest));
        assert_eq!(r.dequeue_run(8, &mut pool), Some(b));
        assert_eq!((r.len(), r.dequeued, r.enqueued), (0, 7, 7));
        assert!(r.is_empty() && r.dequeue_run(8, &mut pool).is_none());
        assert_eq!(pool.in_use(), 7);
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
