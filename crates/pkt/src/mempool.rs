//! Shared packet memory pool.
//!
//! Models DPDK's `rte_mempool` as used by OpenNetVM: a fixed number of
//! packet-buffer slots shared by the whole platform. Descriptors ([`PktId`])
//! index into the slab; exhaustion means the NIC driver cannot receive
//! (counted as an allocation failure, equivalent to an early NIC drop with
//! zero wasted work).

use crate::ids::PktId;
use crate::packet::Packet;

/// Fixed-capacity slab of packets with a free list.
///
/// Slots hold `Packet` directly (a parallel `live` bitmap catches stale
/// ids and double-frees): the per-packet alloc/free hot path writes the
/// payload exactly once and frees without moving it back out. Slots are
/// handed out lowest id first and written on first use, so building a
/// pool touches none of its buffer memory; freed slots are reused last
/// in, first out.
#[derive(Debug)]
pub struct Mempool {
    /// Every slot handed out so far (reserved up to the capacity).
    slots: Vec<Packet>,
    /// One flag per slot of the capacity.
    live: Vec<bool>,
    /// Freed slots awaiting reuse.
    free: Vec<PktId>,
    /// Allocation failures observed (pool exhausted).
    pub alloc_failures: u64,
    in_use: usize,
    high_watermark: usize,
}

impl Mempool {
    /// A pool with `capacity` packet slots.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "mempool capacity must be positive");
        Mempool {
            slots: Vec::with_capacity(capacity),
            live: vec![false; capacity],
            free: Vec::new(),
            alloc_failures: 0,
            in_use: 0,
            high_watermark: 0,
        }
    }

    /// Allocate a slot for `pkt`: the most recently freed one, else the
    /// lowest never-used one. Returns `None` (and counts a failure) if
    /// the pool is exhausted.
    #[inline]
    pub fn alloc(&mut self, pkt: Packet) -> Option<PktId> {
        let id = if let Some(id) = self.free.pop() {
            debug_assert!(!self.live[id.index()]);
            self.slots[id.index()] = pkt;
            id
        } else if self.slots.len() < self.live.len() {
            self.slots.push(pkt);
            PktId(self.slots.len() as u32 - 1)
        } else {
            self.alloc_failures += 1;
            return None;
        };
        self.live[id.index()] = true;
        self.in_use += 1;
        self.high_watermark = self.high_watermark.max(self.in_use);
        Some(id)
    }

    /// Allocate one slot per packet of `pkts`, appending the ids to `out`
    /// in the order single [`Mempool::alloc`] calls would hand them out
    /// (DPDK's `rte_mempool_get_bulk`). All or nothing: with fewer than
    /// `pkts.len()` slots free it allocates nothing and returns `false`,
    /// counting no failure — size the burst with [`Mempool::available`].
    pub fn alloc_bulk(
        &mut self,
        pkts: impl ExactSizeIterator<Item = Packet>,
        out: &mut Vec<PktId>,
    ) -> bool {
        let n = pkts.len();
        if n > self.available() {
            return false;
        }
        for pkt in pkts {
            let id = if let Some(id) = self.free.pop() {
                self.slots[id.index()] = pkt;
                id
            } else {
                self.slots.push(pkt);
                PktId(self.slots.len() as u32 - 1)
            };
            debug_assert!(!self.live[id.index()]);
            self.live[id.index()] = true;
            out.push(id);
        }
        self.in_use += n;
        self.high_watermark = self.high_watermark.max(self.in_use);
        true
    }

    /// Release a slot. Callers needing the packet's contents must read
    /// them via [`Mempool::get`] *before* freeing — the payload is not
    /// moved out.
    ///
    /// # Panics
    /// Panics on double-free — that is always a simulator bug.
    #[inline]
    pub fn free(&mut self, id: PktId) {
        assert!(
            std::mem::replace(&mut self.live[id.index()], false),
            "double free of packet slot"
        );
        self.free.push(id);
        self.in_use -= 1;
    }

    /// Immutable access to a live packet.
    #[inline]
    pub fn get(&self, id: PktId) -> &Packet {
        assert!(self.live[id.index()], "stale packet id");
        &self.slots[id.index()]
    }

    /// Mutable access to a live packet.
    #[inline]
    pub fn get_mut(&mut self, id: PktId) -> &mut Packet {
        assert!(self.live[id.index()], "stale packet id");
        &mut self.slots[id.index()]
    }

    /// Packets currently allocated.
    #[inline]
    pub fn in_use(&self) -> usize {
        self.in_use
    }

    /// Slots free for allocation.
    #[inline]
    pub fn available(&self) -> usize {
        self.live.len() - self.in_use
    }

    /// Total slot count.
    pub fn capacity(&self) -> usize {
        self.live.len()
    }

    /// Peak simultaneous occupancy over the run.
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
        assert_eq!(p.get(a).hops_done, 3);
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
    fn bulk_alloc_hands_out_the_single_alloc_ids() {
        let (mut bulk, mut single) = (Mempool::new(6), Mempool::new(6));
        for p in [&mut bulk, &mut single] {
            let ids: Vec<_> = (0..4).map(|_| p.alloc(pkt()).unwrap()).collect();
            p.free(ids[1]);
            p.free(ids[3]);
        }
        let mut out = Vec::new();
        assert!(
            !bulk.alloc_bulk((0..5).map(|_| pkt()), &mut out),
            "only 4 free"
        );
        assert!(out.is_empty() && bulk.alloc_failures == 0);
        assert!(bulk.alloc_bulk((0..3).map(|_| pkt()), &mut out));
        let want: Vec<_> = (0..3).map(|_| single.alloc(pkt()).unwrap()).collect();
        assert_eq!(out, want);
        assert_eq!(
            (bulk.in_use(), bulk.high_watermark(), bulk.available()),
            (single.in_use(), single.high_watermark(), single.available())
        );
        assert_eq!(bulk.alloc(pkt()), single.alloc(pkt()));
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
