//! Shared packet memory pool.
//!
//! Models DPDK's `rte_mempool` as used by OpenNetVM: a fixed number of
//! packet buffers shared by the whole platform. Descriptors ([`PktId`])
//! index into the slab; exhaustion means the NIC driver cannot receive
//! (counted as an allocation failure, equivalent to an early NIC drop with
//! zero wasted work).
//!
//! A slot holds a [`PacketRun`]: consecutive packets of one flow that are
//! equal in every field but `seq`. The pool still counts packets —
//! capacity, occupancy, watermark and failures are what one buffer per
//! packet would show.

use crate::ids::PktId;
use crate::packet::Packet;

/// Packets `head.seq`, `head.seq + 1`, … `head.seq + count - 1` of one
/// flow, equal in every other field (the datapath's twin of
/// [`FrameRun`](crate::FrameRun)).
#[derive(Debug, Clone, Copy)]
pub struct PacketRun {
    /// The run's first packet; packet `i` is `head` with `seq + i`.
    pub head: Packet,
    /// Packets in the run (≥ 1).
    pub count: u32,
}

impl PacketRun {
    /// A run of one packet.
    #[inline]
    pub fn single(pkt: Packet) -> Self {
        PacketRun {
            head: pkt,
            count: 1,
        }
    }

    /// Packet `i` (< `count`) of the run.
    pub fn packet(&self, i: u32) -> Packet {
        debug_assert!(i < self.count);
        Packet {
            seq: self.head.seq + u64::from(i),
            ..self.head
        }
    }

    /// The run without its first `k` (< `count`) packets.
    #[inline]
    pub fn after(self, k: u32) -> PacketRun {
        debug_assert!(k < self.count);
        PacketRun {
            head: self.packet(k),
            count: self.count - k,
        }
    }

    /// The run's packets, in order.
    pub fn packets(self) -> impl Iterator<Item = Packet> {
        (0..self.count).map(move |i| self.packet(i))
    }
}

/// Fixed-capacity slab of packet runs with a free list.
///
/// Slot `i` is the run `(slots[i], counts[i])`: the head packet, and the
/// run's length in a parallel array that doubles as the live flag (a
/// free slot counts zero packets), so stale ids and double frees are
/// caught by the same load that reads a length. Allocation writes the
/// head once, and freeing does not move it back out. The slab grows as
/// slots are first handed out, lowest id first, so building a pool
/// allocates nothing; freed slots are reused last in, first out. Every
/// live slot holds at least one packet, so a pool of `capacity` packets
/// never needs more than `capacity` slots — a split always finds one.
#[derive(Debug)]
pub struct Mempool {
    /// Head packet of every slot handed out so far.
    slots: Vec<Packet>,
    /// Packets in each handed-out slot's run; zero when the slot is free.
    counts: Vec<u32>,
    capacity: usize,
    /// Freed slots awaiting reuse.
    free: Vec<PktId>,
    /// Packet allocations refused because the pool was exhausted.
    pub alloc_failures: u64,
    /// Packets held by live slots.
    in_use: usize,
    high_watermark: usize,
}

impl Mempool {
    /// A pool with room for `capacity` packets.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "mempool capacity must be positive");
        Mempool {
            slots: Vec::new(),
            counts: Vec::new(),
            capacity,
            free: Vec::new(),
            alloc_failures: 0,
            in_use: 0,
            high_watermark: 0,
        }
    }

    /// Allocate a slot for one packet. Returns `None` (and counts a
    /// failure) if the pool is exhausted.
    #[inline]
    pub fn alloc(&mut self, pkt: Packet) -> Option<PktId> {
        self.alloc_run(PacketRun::single(pkt))
    }

    /// Allocate one slot for `run`: the most recently freed slot, else
    /// the lowest never-used one. With room for fewer than `run.count`
    /// packets it allocates nothing and counts `run.count` failures —
    /// what single allocations of a run's packets count once the pool is
    /// empty. Size runs with [`Mempool::available`].
    #[inline]
    pub fn alloc_run(&mut self, run: PacketRun) -> Option<PktId> {
        debug_assert!(run.count > 0, "empty packet run");
        let n = run.count as usize;
        if n > self.available() {
            self.alloc_failures += n as u64;
            return None;
        }
        let id = self.take_slot(run);
        self.in_use += n;
        self.high_watermark = self.high_watermark.max(self.in_use);
        Some(id)
    }

    /// Store `run` in a free slot and mark it live.
    #[inline]
    fn take_slot(&mut self, run: PacketRun) -> PktId {
        if let Some(id) = self.free.pop() {
            debug_assert_eq!(self.counts[id.index()], 0);
            self.slots[id.index()] = run.head;
            self.counts[id.index()] = run.count;
            id
        } else {
            self.slots.push(run.head);
            self.counts.push(run.count);
            PktId(self.slots.len() as u32 - 1)
        }
    }

    /// Split run `id` after its first `keep` packets (0 < `keep` <
    /// count): they stay in `id`, and the rest moves to a fresh slot,
    /// whose id is returned. Packet counts do not change.
    ///
    /// # Panics
    /// Panics on a stale id.
    pub fn split(&mut self, id: PktId, keep: u32) -> PktId {
        let run = self.get(id);
        debug_assert!(0 < keep && keep < run.count, "split outside the run");
        self.counts[id.index()] = keep;
        self.take_slot(run.after(keep))
    }

    /// Account one packet that takes a slot and hands it straight back —
    /// a full ring refused it. Occupancy ends unchanged; only the
    /// watermark sees the packet in flight. A run of refused packets
    /// bounces once: each frees its slot before the next one arrives.
    #[inline]
    pub fn bounce(&mut self) {
        debug_assert!(self.available() > 0, "bounce from an empty pool");
        self.high_watermark = self.high_watermark.max(self.in_use + 1);
    }

    /// Release slot `id` and every packet of its run. Callers needing
    /// the contents must read them via [`Mempool::get`] *before* freeing
    /// — the run is not moved out.
    ///
    /// # Panics
    /// Panics on double-free — that is always a simulator bug.
    #[inline]
    pub fn free(&mut self, id: PktId) {
        let n = std::mem::replace(&mut self.counts[id.index()], 0);
        assert!(n > 0, "double free of packet slot");
        self.free.push(id);
        self.in_use -= n as usize;
    }

    /// Packets in live run `id`.
    ///
    /// # Panics
    /// Panics on a stale id.
    #[inline]
    pub fn count(&self, id: PktId) -> u32 {
        let n = self.counts[id.index()];
        assert!(n > 0, "stale packet id");
        n
    }

    /// A copy of live run `id`.
    #[inline]
    pub fn get(&self, id: PktId) -> PacketRun {
        PacketRun {
            count: self.count(id),
            head: self.slots[id.index()],
        }
    }

    /// Mutable access to a live run's head packet: a write applies to
    /// every packet of the run. The run's length only changes through
    /// [`Mempool::split`].
    #[inline]
    pub fn get_mut(&mut self, id: PktId) -> &mut Packet {
        self.count(id);
        &mut self.slots[id.index()]
    }

    /// Packets in the runs `ids` (all live).
    pub fn packets_in<'a>(&self, ids: impl IntoIterator<Item = &'a PktId>) -> usize {
        ids.into_iter().map(|&id| self.count(id) as usize).sum()
    }

    /// Packets currently allocated.
    #[inline]
    pub fn in_use(&self) -> usize {
        self.in_use
    }

    /// Packets the pool still has room for.
    #[inline]
    pub fn available(&self) -> usize {
        self.capacity - self.in_use
    }

    /// Total capacity in packets.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Peak simultaneous occupancy (packets) over the run.
    pub fn high_watermark(&self) -> usize {
        self.high_watermark
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ChainId, FlowId};
    use nfv_des::SimTime;

    fn pkt() -> Packet {
        Packet::new(FlowId(0), ChainId(0), 64, SimTime::ZERO)
    }

    fn run(seq: u64, count: u32) -> PacketRun {
        let mut head = pkt();
        head.seq = seq;
        PacketRun { head, count }
    }

    #[test]
    fn alloc_free_cycle() {
        let mut p = Mempool::new(2);
        let a = p.alloc(pkt()).unwrap();
        let b = p.alloc(pkt()).unwrap();
        assert_ne!(a, b);
        assert_eq!(p.in_use(), 2);
        assert!(p.alloc(pkt()).is_none());
        assert_eq!(p.alloc_failures, 1);
        p.free(a);
        assert!(p.alloc(pkt()).is_some());
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut p = Mempool::new(1);
        let a = p.alloc(pkt()).unwrap();
        p.free(a);
        p.free(a);
    }

    #[test]
    fn get_mut_mutates() {
        let mut p = Mempool::new(1);
        let a = p.alloc(pkt()).unwrap();
        p.get_mut(a).hops_done = 3;
        assert_eq!(p.get(a).head.hops_done, 3);
    }

    #[test]
    fn high_watermark_tracks_peak() {
        let mut p = Mempool::new(4);
        let ids: Vec<_> = (0..3).map(|_| p.alloc(pkt()).unwrap()).collect();
        for id in ids {
            p.free(id);
        }
        assert_eq!(p.in_use(), 0);
        assert_eq!(p.high_watermark(), 3);
        assert_eq!(p.capacity(), 4);
    }

    #[test]
    fn run_slots_count_packets_and_split_in_place() {
        let mut p = Mempool::new(6);
        let a = p.alloc(pkt()).unwrap();
        // All or nothing: 6 packets do not fit beside `a`, and every one
        // of them counts as a failure.
        assert!(p.alloc_run(run(10, 6)).is_none());
        assert_eq!((p.alloc_failures, p.in_use()), (6, 1));
        let b = p.alloc_run(run(10, 4)).unwrap();
        assert_eq!((p.in_use(), p.available(), p.high_watermark()), (5, 1, 5));
        // The tail moves to a fresh slot; occupancy does not change.
        let t = p.split(b, 3);
        assert_eq!((p.get(b).count, p.get(t).count), (3, 1));
        assert_eq!(p.get(t).head.seq, 13);
        let seqs: Vec<u64> = p.get(b).packets().map(|q| q.seq).collect();
        assert_eq!(seqs, [10, 11, 12]);
        assert_eq!((p.in_use(), p.high_watermark()), (5, 5));
        assert_eq!(p.packets_in(&[a, b, t]), 5);
        // Freeing a run returns all of its packets.
        p.free(b);
        assert_eq!((p.in_use(), p.available()), (2, 4));
        p.bounce();
        assert_eq!((p.in_use(), p.high_watermark()), (2, 5));
        p.free(a);
        p.free(t);
        assert_eq!(p.in_use(), 0);
    }

    #[test]
    fn slots_go_out_lowest_fresh_id_first_and_freed_ids_lifo() {
        // The order a pre-filled free stack `[cap-1, .., 1, 0]` yields.
        let mut p = Mempool::new(5);
        let ids: Vec<_> = (0..3).map(|_| p.alloc(pkt()).unwrap().0).collect();
        assert_eq!(ids, [0, 1, 2]);
        p.free(PktId(0));
        p.free(PktId(2));
        let next: Vec<_> = (0..4).map(|_| p.alloc(pkt()).map(|id| id.0)).collect();
        assert_eq!(next, [Some(2), Some(0), Some(3), Some(4)]);
        assert!(p.alloc(pkt()).is_none());
    }
}
