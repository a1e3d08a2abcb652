//! Deterministic event queue.
//!
//! The queue is a min-priority queue ordered by `(time, sequence)`. The
//! sequence number is assigned on insertion, so two events scheduled for
//! the same instant are delivered in insertion order. This makes
//! whole-simulation runs bit-for-bit reproducible for a given seed — a
//! property the experiment harness relies on.
//!
//! One-shot events wait in a `BinaryHeap<Entry>`. Beside it sit the
//! **periodic lanes**: self-rescheduling fixed-period ticks
//! ([`EventQueue::push_periodic`]) wait in a short list sorted by
//! `(time, seq)` instead of in the heap, and every pop merges the two by
//! `(time, seq)` — the same stream as pushing the ticks into the heap,
//! minus one heap push and pop per tick. The simulator keeps at most ten
//! events pending (six of them lane ticks), so a heap of a handful of
//! entries is all the one-shot side needs (DESIGN.md §10). The property
//! tests in `tests/props.rs` drive the queue in lockstep with a
//! `BTreeMap` model and the lanes against plain pushes.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// The event queue's backing structure. There is one: a binary heap
/// beside the periodic lanes. The type stays, with `SimConfig.queue` and
/// [`EventQueue::with_kind`], only because the benchmark's replay
/// (`perfbench/src/replay.rs`) names them; ROADMAP.md's "Next change to
/// the benchmark" retires all three.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum QueueKind {
    /// Binary heap of one-shot events beside the periodic lanes.
    #[default]
    Heap,
}

/// Self-profiling counters of one [`EventQueue`]. Deterministic for a
/// given event stream; surfaced per cell in `BENCH_timings.json` (never
/// in the metrics document).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Events scheduled.
    pub pushes: u64,
    /// Events delivered.
    pub pops: u64,
    /// Always 0: the binary heap has no timer-wheel slots to cascade.
    /// Kept because the benchmark reads it (`des.cascades_per_pop`).
    pub cascades: u64,
    /// Heap (re)allocations. Flat after warm-up — the recycling
    /// guarantee.
    pub allocs: u64,
    /// Peak number of pending events.
    pub max_len: usize,
    /// Events delivered as the non-first member of a
    /// [`EventQueue::pop_batch_before`] batch.
    pub coalesced_pops: u64,
    /// Periodic ticks whose handler body was skipped by the engine's
    /// idle skip-ahead (always 0 from the queue itself; the engine
    /// injects its counter into the report's copy).
    pub skipped_ticks: u64,
}

/// A scheduled entry: fires `event` at `at`.
struct Entry<E> {
    at: u64,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Most periodic ticks pending at once (the engine keeps six).
const MAX_LANES: usize = 8;

/// Sort key of an empty lane list: after every real entry.
const NO_LANE: (u64, u64) = (u64::MAX, u64::MAX);

/// A deterministic min-priority queue of simulation events.
///
/// `E` is the simulation's event enum. The queue does not support removal;
/// consumers that need to cancel an event use *lazy invalidation*: keep a
/// generation counter next to the state the event touches, stamp the event
/// with the generation at scheduling time, and ignore stale events on
/// delivery. (This mirrors how timer wheels in network stacks handle
/// cancellation without a searchable structure. The engine counts such
/// discarded deliveries explicitly — `Report::stale_pops`.)
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    /// Pending periodic ticks, sorted by `(at, seq)` *descending*: the
    /// earliest is the last element, so popping it is `Vec::pop`.
    lanes: Vec<Entry<E>>,
    seq: u64,
    now: SimTime,
    pushes: u64,
    pops: u64,
    allocs: u64,
    coalesced_pops: u64,
    max_len: usize,
}

impl<E> EventQueue<E> {
    /// An empty queue with the clock at zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            lanes: Vec::with_capacity(MAX_LANES),
            seq: 0,
            now: SimTime::ZERO,
            pushes: 0,
            pops: 0,
            allocs: 0,
            coalesced_pops: 0,
            max_len: 0,
        }
    }

    /// An empty queue of the given (single) [`QueueKind`]; the same as
    /// [`EventQueue::new`].
    pub fn with_kind(kind: QueueKind) -> Self {
        let QueueKind::Heap = kind;
        Self::new()
    }

    /// Current simulated time: the timestamp of the last event popped.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `event` to fire at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the past: delivering an event before the
    /// current clock would silently corrupt causality, so it is a bug in
    /// the caller.
    pub fn push(&mut self, at: SimTime, event: E) {
        let seq = self.admit(at);
        if self.heap.len() == self.heap.capacity() {
            self.allocs += 1;
        }
        self.heap.push(Entry {
            at: at.as_nanos(),
            seq,
            event,
        });
        self.note_len();
    }

    /// Schedule a *periodic tick* to fire at `at`: an event that, when
    /// handled, reschedules itself one fixed period (> 0) later and is
    /// never cancelled. It is delivered exactly as [`EventQueue::push`]
    /// would deliver it — same seq counter, same `(time, seq)` order,
    /// same [`QueueStats`] except `allocs` — but it waits in a short
    /// sorted list beside the heap instead of in it. At most eight ticks
    /// may be pending at once.
    ///
    /// # Panics
    /// Panics if `at` is in the past, like [`EventQueue::push`].
    pub fn push_periodic(&mut self, at: SimTime, event: E) {
        let seq = self.admit(at);
        let at = at.as_nanos();
        // Descending by (at, seq), and `seq` is the largest yet: the new
        // tick goes right after every lane entry due later than `at`.
        let pos = self.lanes.partition_point(|e| e.at > at);
        self.lanes.insert(pos, Entry { at, seq, event });
        debug_assert!(
            self.lanes.len() <= MAX_LANES,
            "more than {MAX_LANES} periodic ticks pending"
        );
        self.note_len();
    }

    /// Check causality and hand out the next seq.
    fn admit(&mut self, at: SimTime) -> u64 {
        assert!(
            at >= self.now,
            "event scheduled in the past: at={at} now={}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        self.pushes += 1;
        seq
    }

    fn note_len(&mut self) {
        let len = self.len();
        if len > self.max_len {
            self.max_len = len;
        }
    }

    /// Pop the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_before(SimTime::MAX)
    }

    /// Pop the earliest event if its timestamp is `<= limit`, advancing
    /// the clock to it; `None` (and no state change) otherwise.
    ///
    /// Merge rule (both pop paths): the heap's earliest entry is
    /// delivered iff its `(time, seq)` key sorts before the periodic
    /// lanes' head; otherwise the lane head is, if it is due.
    pub fn pop_before(&mut self, limit: SimTime) -> Option<(SimTime, E)> {
        let limit = limit.as_nanos();
        let lane = self.lanes.last().map_or(NO_LANE, |e| (e.at, e.seq));
        let from_heap = self
            .heap
            .peek()
            .is_some_and(|e| e.at <= limit && (e.at, e.seq) < lane);
        let e = if from_heap {
            self.heap.pop()?
        } else if lane.0 <= limit {
            self.lanes.pop()?
        } else {
            return None;
        };
        let t = SimTime::from_nanos(e.at);
        debug_assert!(t >= self.now);
        self.now = t;
        self.pops += 1;
        Some((t, e.event))
    }

    /// Pop the earliest event if its timestamp `t` is `<= limit` — and
    /// with it, **every other** event at `t`, appended to `out` in
    /// `(time, seq)` order (`out` is cleared first). The clock advances
    /// to `t`. `None` means no event was due, with no state change —
    /// same refusal contract as [`EventQueue::pop_before`].
    ///
    /// This is the timer-coalescing primitive: a run loop handling the
    /// returned event and then draining `out` observes the exact same
    /// `(time, seq)` stream as one calling `pop_before` per event —
    /// events pushed while a batch is being processed carry higher
    /// sequence numbers than every batch member, so they sort after the
    /// batch at the same instant and are picked up by the next call.
    /// Periodic lane entries at the batch instant join the batch in seq
    /// order (the [`EventQueue::pop_before`] merge rule).
    pub fn pop_batch_before(
        &mut self,
        limit: SimTime,
        out: &mut Vec<(SimTime, E)>,
    ) -> Option<(SimTime, E)> {
        out.clear();
        let first = self.pop_before(limit)?;
        while self.peek_time() == Some(first.0) {
            out.push(self.pop_before(limit).expect("peeked event vanished"));
        }
        self.coalesced_pops += out.len() as u64;
        Some(first)
    }

    /// Timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        let heap = self.heap.peek().map_or(u64::MAX, |e| e.at);
        let lane = self.lanes.last().map_or(u64::MAX, |e| e.at);
        (!self.is_empty()).then(|| SimTime::from_nanos(heap.min(lane)))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() + self.lanes.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Operation counters (see [`QueueStats`]).
    pub fn stats(&self) -> QueueStats {
        QueueStats {
            pushes: self.pushes,
            pops: self.pops,
            cascades: 0,
            allocs: self.allocs,
            max_len: self.max_len,
            coalesced_pops: self.coalesced_pops,
            skipped_ticks: 0,
        }
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Duration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(30), "c");
        q.push(SimTime::from_nanos(10), "a");
        q.push(SimTime::from_nanos(20), "b");
        assert_eq!(q.pop(), Some((SimTime::from_nanos(10), "a")));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(20), "b")));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(5);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t, i)));
        }
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(7), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_micros(7));
    }

    #[test]
    #[should_panic(expected = "event scheduled in the past")]
    fn rejects_events_in_the_past() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(7), ());
        q.pop();
        q.push(SimTime::from_micros(3), ());
    }

    #[test]
    #[should_panic(expected = "event scheduled in the past")]
    fn heap_rejects_events_in_the_past() {
        let mut q = EventQueue::with_kind(QueueKind::Heap);
        q.push(SimTime::from_micros(7), ());
        q.pop();
        q.push(SimTime::from_micros(3), ());
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(10), 1u32);
        q.push(SimTime::from_nanos(50), 5);
        let (t, e) = q.pop().unwrap();
        assert_eq!((t.as_nanos(), e), (10, 1));
        // scheduling relative to 'now' is the common pattern
        q.push(q.now() + Duration::from_nanos(5), 2);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 5);
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn pop_before_respects_limit_and_is_non_destructive() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(100), "a");
        q.push(SimTime::from_nanos(5_000_000), "far");
        assert_eq!(q.pop_before(SimTime::from_nanos(50)), None);
        assert_eq!(q.len(), 2);
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(
            q.pop_before(SimTime::from_nanos(100)),
            Some((SimTime::from_nanos(100), "a"))
        );
        // A refused probe must not corrupt later, earlier pushes.
        assert_eq!(q.pop_before(SimTime::from_nanos(200)), None);
        q.push(SimTime::from_nanos(150), "b");
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.pop().unwrap().1, "far");
        assert!(q.is_empty());
    }

    #[test]
    fn far_future_timers_cascade_correctly() {
        let mut q = EventQueue::new();
        // Timestamps spread over the u64 range, pushed out of order.
        let times = [
            1u64 << 40,
            1 << 20,
            3,
            (1 << 30) + 7,
            u64::MAX / 2,
            (1 << 12) + 1,
        ];
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_nanos(t), i);
        }
        let mut sorted: Vec<(u64, usize)> =
            times.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        sorted.sort_unstable();
        for (t, i) in sorted {
            assert_eq!(q.pop(), Some((SimTime::from_nanos(t), i)));
        }
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn same_instant_burst_survives_cascade() {
        let mut q = EventQueue::new();
        // A burst far in the future must keep its insertion order.
        let t = SimTime::from_nanos((1 << 25) + 12_345);
        for i in 0..64 {
            q.push(t, i);
        }
        // An earlier event goes first.
        q.push(SimTime::from_nanos(9), 1000);
        assert_eq!(q.pop(), Some((SimTime::from_nanos(9), 1000)));
        for i in 0..64 {
            assert_eq!(q.pop(), Some((t, i)));
        }
    }

    #[test]
    fn batch_pop_drains_whole_instant_in_seq_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(100);
        for i in 0..10 {
            q.push(t, i);
        }
        q.push(SimTime::from_nanos(200), 99);
        let mut out = Vec::new();
        assert_eq!(
            q.pop_batch_before(SimTime::from_nanos(500), &mut out),
            Some((t, 0))
        );
        assert_eq!(out, (1..10).map(|i| (t, i)).collect::<Vec<_>>());
        assert_eq!(q.now(), t);
        assert_eq!(q.len(), 1);
        // Next batch picks up the later instant — a singleton batch
        // never touches `out`.
        assert_eq!(
            q.pop_batch_before(SimTime::from_nanos(500), &mut out),
            Some((SimTime::from_nanos(200), 99))
        );
        assert!(out.is_empty());
        // Refusal: nothing due within the limit, no state change.
        q.push(SimTime::from_nanos(900), 7);
        assert_eq!(q.pop_batch_before(SimTime::from_nanos(500), &mut out), None);
        assert!(out.is_empty());
        assert_eq!(q.len(), 1);
        assert_eq!(q.now(), SimTime::from_nanos(200));
        let s = q.stats();
        assert_eq!(s.coalesced_pops, 9);
        assert_eq!(s.pops, 11);
    }

    #[test]
    fn batch_pop_same_instant_pushes_land_in_next_batch() {
        // Events pushed at the batch's own instant (as a handler would
        // during processing) carry higher seqs and arrive in the *next*
        // batch at the same time — exactly the per-pop delivery order.
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(50);
        q.push(t, 0);
        q.push(t, 1);
        let mut out = Vec::new();
        assert_eq!(q.pop_batch_before(SimTime::MAX, &mut out), Some((t, 0)));
        assert_eq!(out, vec![(t, 1)]);
        // "handler" pushes more work at the same instant:
        q.push(t, 2);
        q.push(t, 3);
        assert_eq!(q.pop_batch_before(SimTime::MAX, &mut out), Some((t, 2)));
        assert_eq!(out, vec![(t, 3)]);
        assert_eq!(q.pop_batch_before(SimTime::MAX, &mut out), None);
    }

    #[test]
    fn batch_pop_far_future_burst_cascades_first() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos((1 << 25) + 4_321);
        for i in 0..32 {
            q.push(t, i);
        }
        q.push(SimTime::from_nanos(3), 500);
        let mut out = Vec::new();
        assert_eq!(
            q.pop_batch_before(SimTime::MAX, &mut out),
            Some((SimTime::from_nanos(3), 500))
        );
        assert!(out.is_empty());
        assert_eq!(q.pop_batch_before(SimTime::MAX, &mut out), Some((t, 0)));
        assert_eq!(out, (1..32).map(|i| (t, i)).collect::<Vec<_>>());
    }

    #[test]
    fn periodic_ticks_interleave_with_backend_entries_by_seq() {
        for batch in [false, true] {
            let mut q = EventQueue::new();
            let t = SimTime::from_nanos(100);
            q.push(t, "a");
            q.push_periodic(t, "tick");
            q.push(t, "b");
            q.push_periodic(SimTime::from_nanos(50), "early");
            assert_eq!(q.len(), 4);
            assert_eq!(q.peek_time(), Some(SimTime::from_nanos(50)));
            let mut got = Vec::new();
            let mut out = Vec::new();
            if batch {
                while let Some(first) = q.pop_batch_before(SimTime::MAX, &mut out) {
                    got.push(first);
                    got.append(&mut out);
                }
            } else {
                while let Some(e) = q.pop() {
                    got.push(e);
                }
            }
            let want = [(50, "early"), (100, "a"), (100, "tick"), (100, "b")];
            let want: Vec<_> = want
                .iter()
                .map(|&(ns, e)| (SimTime::from_nanos(ns), e))
                .collect();
            assert_eq!(got, want, "batch={batch}");
            let s = q.stats();
            assert_eq!((s.pushes, s.pops, s.max_len), (4, 4, 4));
            assert_eq!(s.coalesced_pops, if batch { 2 } else { 0 });
        }
    }

    #[test]
    fn stats_count_ops_and_recycling() {
        let mut q = EventQueue::new();
        let mut warm = 0;
        for round in 0..3 {
            for i in 0..100u64 {
                q.push(q.now() + Duration::from_nanos(i + 1), i);
            }
            while q.pop().is_some() {}
            if round == 0 {
                // Heap storage allocated during the first round...
                warm = q.stats().allocs;
                assert!(warm > 0);
            }
        }
        let s = q.stats();
        assert_eq!(s.pushes, 300);
        assert_eq!(s.pops, 300);
        assert_eq!(s.max_len, 100);
        // ...is recycled afterwards: warm rounds allocate nothing.
        assert_eq!(s.allocs, warm, "storage not recycled");
    }
}
