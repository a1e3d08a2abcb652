//! Deterministic event queue.
//!
//! The queue is a min-priority queue ordered by `(time, sequence)`. The
//! sequence number is assigned on insertion, so two events scheduled for
//! the same instant are delivered in insertion order. This makes
//! whole-simulation runs bit-for-bit reproducible for a given seed — a
//! property the experiment harness relies on.
//!
//! Two backing structures implement that contract (see [`QueueKind`]):
//!
//! - **Arena timer wheel** (the default): a hierarchical timer wheel whose
//!   entries live in one slab (`Vec` of nodes linked by `u32` indices).
//!   Slots are `(head, tail)` index pairs, so the 704-slot wheel costs
//!   ~5.6 KB of slot state plus a single recycled node arena — event
//!   payloads are bump-allocated into the slab once and recycled through
//!   a freelist, never freed individually (freed wholesale when the
//!   `Simulation` drops). Draining a level-0 slot — which holds exactly
//!   one timestamp, in insertion order by construction — is one bitmap
//!   probe plus a list walk, which is what makes
//!   [`EventQueue::pop_batch_before`] (timer coalescing) cheap. See
//!   DESIGN.md §15.
//! - **Binary heap**: the original `BinaryHeap<Entry>` implementation,
//!   kept as a differential oracle. The `heap-queue` cargo feature flips
//!   the build-wide default to it.
//!
//! All backends pop identical `(time, seq, event)` streams — the
//! property tests in `tests/props.rs` and the unit tests below drive them
//! in lockstep over adversarial schedules. Wheel placement, cascade and
//! determinism arguments are in DESIGN.md §10.
//!
//! Beside the backend sit the **periodic lanes**: self-rescheduling
//! fixed-period ticks ([`EventQueue::push_periodic`]) wait in a short
//! list sorted by `(time, seq)` instead of in the backend, and every pop
//! merges the two by `(time, seq)` — the same stream, minus the ticks'
//! wheel insertions and cascades (DESIGN.md §15).

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Bits of time per wheel level: 64 slots per level.
const SLOT_BITS: u32 = 6;
/// Slots per wheel level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Wheel levels: `ceil(64 / SLOT_BITS)` covers the whole `u64` range.
const LEVELS: usize = 11;
/// Null link in the arena wheel's intrusive lists.
const NIL: u32 = u32::MAX;

/// Which backing structure an [`EventQueue`] uses. Both deliver the
/// exact same `(time, seq)` stream; the arena wheel is fastest on the
/// simulator's event mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueKind {
    /// Arena-backed hierarchical timer wheel (the default).
    Wheel,
    /// Binary heap — the reference implementation, kept for differential
    /// testing (`heap-queue` feature makes it the build default).
    Heap,
}

impl QueueKind {
    /// The build's default backend: the arena timer wheel, unless the
    /// `heap-queue` cargo feature flips the workspace to the binary heap —
    /// how CI byte-diffs the two implementations over the full quick
    /// suite.
    pub fn default_kind() -> QueueKind {
        if cfg!(feature = "heap-queue") {
            QueueKind::Heap
        } else {
            QueueKind::Wheel
        }
    }
}

impl Default for QueueKind {
    fn default() -> Self {
        QueueKind::default_kind()
    }
}

/// Self-profiling counters of one [`EventQueue`]. Deterministic for a
/// given event stream and backend; surfaced per cell in
/// `BENCH_timings.json` (never in the metrics document).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Events scheduled.
    pub pushes: u64,
    /// Events delivered.
    pub pops: u64,
    /// Wheel slot cascades performed (0 on the heap backend).
    pub cascades: u64,
    /// Entries re-homed by cascades (0 on the heap backend).
    pub cascaded_entries: u64,
    /// Backing-store (re)allocations: wheel slot/arena growth or heap
    /// growth. Flat after warm-up — the recycling guarantee.
    pub allocs: u64,
    /// Peak number of pending events.
    pub max_len: usize,
    /// Events delivered as the non-first member of a
    /// [`EventQueue::pop_batch_before`] batch — same-instant deliveries
    /// that cost no extra wheel probe.
    pub coalesced_pops: u64,
    /// Periodic ticks whose handler body was skipped by the engine's
    /// idle skip-ahead (always 0 from the queue itself; the engine
    /// injects its counter into the report's copy).
    pub skipped_ticks: u64,
}

/// A scheduled entry: fires `event` at `at`.
struct Entry<E> {
    at: SimTime,
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

/// Wheel level housing a timestamp `at` relative to cursor `cur`:
/// the level of the highest differing bit (0 when equal).
fn level_of(cur: u64, at: u64) -> usize {
    debug_assert!(at >= cur);
    let x = cur ^ at;
    if x == 0 {
        0
    } else {
        ((63 - x.leading_zeros()) / SLOT_BITS) as usize
    }
}

/// One slab node of the arena wheel: the entry plus its intrusive link.
/// `event` is `Some` while linked into a slot, `None` on the freelist
/// (`next` then links the freelist instead).
struct ArenaNode<E> {
    at: u64,
    seq: u64,
    next: u32,
    event: Option<E>,
}

/// The arena-backed hierarchical timer wheel (the default backend).
///
/// Placement: an entry with timestamp `at` lives at the level of the
/// highest bit in which `at` differs from the cursor `cur` (the timestamp
/// of the last pop), at slot `(at >> 6·level) & 63`. Because `at ≥ cur`,
/// the occupied slot index at its level is strictly greater than the
/// cursor's (equal only at level 0 when `at == cur`), so every occupied
/// slot at the lowest occupied level is "ahead" of the cursor and the
/// first set bit of that level's occupancy bitmap is the global minimum's
/// slot. Level-0 slots hold exactly one timestamp each (`(cur & !63) |
/// slot`), kept in seq order; higher-level slots hold a time range and
/// are re-sorted by `(at, seq)` when cascaded, which restores the
/// insertion-order tie-break exactly (DESIGN.md §10).
///
/// Entries live in one slab and slots are `(head, tail)` `u32` pairs
/// linking them intrusively.
/// Nodes are recycled through a freelist: the arena grows to the
/// simulation's peak pending-event count once, then steady-state pushes
/// and pops touch only the slab (event payloads are dropped wholesale
/// with the arena at teardown). A level-0 slot drain
/// ([`ArenaWheel::pop_batch_before`]) hands back every same-instant
/// entry from a single bitmap probe, which is what makes engine-level
/// timer coalescing cheap (DESIGN.md §15).
struct ArenaWheel<E> {
    /// The node slab; grows monotonically to peak occupancy, recycled
    /// through `free_head`.
    nodes: Vec<ArenaNode<E>>,
    /// Head of the freelist threaded through `ArenaNode::next`.
    free_head: u32,
    /// `(head, tail)` per slot, row-major `[level][slot]`; `NIL` when
    /// empty.
    slots: Vec<(u32, u32)>,
    /// Per-level slot-occupancy bitmaps.
    occupied: [u64; LEVELS],
    /// Cursor: timestamp of the last pop (or a cascaded slot's start,
    /// transiently inside `pop_before`).
    cur: u64,
    len: usize,
    cascades: u64,
    cascaded_entries: u64,
    allocs: u64,
    /// Reused cascade buffer of `(at, seq, node)` triples.
    scratch: Vec<(u64, u64, u32)>,
}

impl<E> ArenaWheel<E> {
    fn new() -> Self {
        ArenaWheel {
            nodes: Vec::new(),
            free_head: NIL,
            slots: vec![(NIL, NIL); LEVELS * SLOTS],
            occupied: [0; LEVELS],
            cur: 0,
            len: 0,
            cascades: 0,
            cascaded_entries: 0,
            allocs: 0,
            scratch: Vec::new(),
        }
    }

    #[inline]
    fn slot_index(lvl: usize, slot: usize) -> usize {
        lvl * SLOTS + slot
    }

    /// Start of `slot` at `lvl`, relative to the cursor's position.
    fn slot_start(&self, lvl: usize, slot: usize) -> u64 {
        let shift = SLOT_BITS * lvl as u32;
        let above = shift + SLOT_BITS;
        // Bits of `cur` above this level's span (shift-safe at the top
        // level, where the span runs off the end of the u64).
        let base = if above >= 64 {
            0
        } else {
            (self.cur >> above) << above
        };
        base | ((slot as u64) << shift)
    }

    fn first(&self) -> Option<(usize, usize)> {
        (0..LEVELS)
            .find(|&k| self.occupied[k] != 0)
            .map(|k| (k, self.occupied[k].trailing_zeros() as usize))
    }

    /// Take a node off the freelist or grow the slab.
    fn alloc_node(&mut self, at: u64, seq: u64, event: E) -> u32 {
        if self.free_head != NIL {
            let id = self.free_head;
            let n = &mut self.nodes[id as usize];
            debug_assert!(n.event.is_none());
            self.free_head = n.next;
            n.at = at;
            n.seq = seq;
            n.next = NIL;
            n.event = Some(event);
            id
        } else {
            if self.nodes.len() == self.nodes.capacity() {
                self.allocs += 1;
            }
            let id = self.nodes.len() as u32;
            self.nodes.push(ArenaNode {
                at,
                seq,
                next: NIL,
                event: Some(event),
            });
            id
        }
    }

    #[inline]
    fn free_node(&mut self, id: u32) {
        let head = self.free_head;
        let n = &mut self.nodes[id as usize];
        debug_assert!(n.event.is_none());
        n.next = head;
        self.free_head = id;
    }

    /// Append node `id` to the tail of its slot's list (insertion order
    /// within a slot is therefore `seq` order).
    fn link(&mut self, id: u32) {
        let at = self.nodes[id as usize].at;
        let lvl = level_of(self.cur, at);
        let slot = ((at >> (SLOT_BITS * lvl as u32)) & (SLOTS as u64 - 1)) as usize;
        let si = Self::slot_index(lvl, slot);
        let (head, tail) = self.slots[si];
        if head == NIL {
            self.slots[si] = (id, id);
        } else {
            self.nodes[tail as usize].next = id;
            self.slots[si] = (head, id);
        }
        self.occupied[lvl] |= 1 << slot;
        self.len += 1;
    }

    fn insert(&mut self, at: u64, seq: u64, event: E) {
        let id = self.alloc_node(at, seq, event);
        self.link(id);
    }

    /// Minimum timestamp in a slot's list.
    fn slot_min_at(&self, head: u32) -> u64 {
        let mut min = u64::MAX;
        let mut id = head;
        while id != NIL {
            let n = &self.nodes[id as usize];
            min = min.min(n.at);
            id = n.next;
        }
        min
    }

    fn peek_time(&self) -> Option<u64> {
        let (lvl, slot) = self.first()?;
        if lvl == 0 {
            Some(self.slot_start(0, slot))
        } else {
            Some(self.slot_min_at(self.slots[Self::slot_index(lvl, slot)].0))
        }
    }

    /// Detach a lone node (slot's head == tail) and return its payload.
    fn take_lone(&mut self, lvl: usize, slot: usize, id: u32) -> (u64, E) {
        let n = &mut self.nodes[id as usize];
        let at = n.at;
        let event = n.event.take().expect("linked node has no event");
        self.slots[Self::slot_index(lvl, slot)] = (NIL, NIL);
        self.occupied[lvl] &= !(1u64 << slot);
        self.free_node(id);
        self.len -= 1;
        (at, event)
    }

    /// Cascade a multi-entry high-level slot toward level 0: advance the
    /// cursor to the slot's start (so re-homed entries land at strictly
    /// lower levels) and re-link them in `(time, seq)` order, which keeps
    /// every level-0 slot sorted by insertion sequence.
    fn cascade(&mut self, lvl: usize, slot: usize, start: u64) {
        let si = Self::slot_index(lvl, slot);
        let (head, _) = self.slots[si];
        self.slots[si] = (NIL, NIL);
        self.occupied[lvl] &= !(1u64 << slot);
        let mut batch = std::mem::take(&mut self.scratch);
        debug_assert!(batch.is_empty());
        let mut id = head;
        while id != NIL {
            let n = &self.nodes[id as usize];
            batch.push((n.at, n.seq, id));
            id = n.next;
        }
        self.len -= batch.len();
        self.cur = start;
        self.cascades += 1;
        self.cascaded_entries += batch.len() as u64;
        batch.sort_unstable_by_key(|&(at, seq, _)| (at, seq));
        for &(_, _, id) in &batch {
            self.nodes[id as usize].next = NIL;
            self.link(id);
        }
        batch.clear();
        self.scratch = batch;
    }

    /// Pop the earliest entry if its timestamp is `<= limit` and its
    /// `(time, seq)` key sorts before `bound` (the periodic lanes' head;
    /// `(u64::MAX, u64::MAX)` when the lanes are empty).
    ///
    /// Returns `None` **without mutating the wheel** when the earliest
    /// entry (if any) is past `limit` or `bound.0`: a cascade is only
    /// performed once the slot is known to contain an entry `<=
    /// min(limit, bound.0)`. The call then pops, or refuses on a seq tie
    /// at exactly `bound.0 <= limit` — in which case the caller pops the
    /// lane head at that instant. Either way the cursor never outruns the
    /// delivered timestamp, keeping later `push`es at any `at >= now`
    /// valid.
    fn pop_before(&mut self, limit: u64, bound: (u64, u64)) -> Option<(u64, E)> {
        let due = limit.min(bound.0);
        loop {
            let (lvl, slot) = self.first()?;
            let si = Self::slot_index(lvl, slot);
            if lvl == 0 {
                let t = self.slot_start(0, slot);
                if t > due {
                    return None;
                }
                let (head, tail) = self.slots[si];
                let n = &mut self.nodes[head as usize];
                if (t, n.seq) > bound {
                    return None;
                }
                let at = n.at;
                let event = n.event.take().expect("linked node has no event");
                let next = n.next;
                if head == tail {
                    self.slots[si] = (NIL, NIL);
                    self.occupied[0] &= !(1u64 << slot);
                } else {
                    self.slots[si] = (next, tail);
                }
                self.free_node(head);
                self.len -= 1;
                debug_assert_eq!(at, t);
                self.cur = t;
                return Some((at, event));
            }
            let (head, tail) = self.slots[si];
            let min_at = self.slot_min_at(head);
            if min_at > due {
                return None;
            }
            // Fast path: a lone entry in a high-level slot is the global
            // minimum; deliver it directly. Advancing the cursor to its
            // timestamp is exactly the state a full cascade plus level-0
            // pop would have produced, minus the re-insertion round trip.
            // This is the common shape for sparse timelines (timers far
            // apart), where cascades would otherwise dominate.
            if head == tail {
                if (min_at, self.nodes[head as usize].seq) > bound {
                    return None;
                }
                let (at, event) = self.take_lone(lvl, slot, head);
                self.cur = at;
                return Some((at, event));
            }
            let start = self.slot_start(lvl, slot);
            debug_assert!(start >= self.cur && start <= min_at);
            self.cascade(lvl, slot, start);
        }
    }

    /// Pop the earliest entry (if due by `limit`) and spill every *other*
    /// entry at the same timestamp into `out`, in `(time, seq)` order.
    /// One bitmap probe per batch: a level-0 slot holds exactly one
    /// timestamp and its list is already in seq order, so the whole slot
    /// is the batch — and a single-entry batch (the common case) never
    /// touches `out` at all. When the batch instant is `tie_at` (the
    /// periodic lanes' head instant) every member's seq, first included,
    /// is appended to `seqs` so the caller can merge the lanes in.
    fn pop_batch_before(
        &mut self,
        limit: u64,
        tie_at: u64,
        out: &mut Vec<(SimTime, E)>,
        seqs: &mut Vec<u64>,
    ) -> Option<(u64, E)> {
        loop {
            let (lvl, slot) = self.first()?;
            let si = Self::slot_index(lvl, slot);
            if lvl == 0 {
                let t = self.slot_start(0, slot);
                if t > limit {
                    return None;
                }
                let tie = t == tie_at;
                let (head, _) = self.slots[si];
                self.slots[si] = (NIL, NIL);
                self.occupied[0] &= !(1u64 << slot);
                let n = &mut self.nodes[head as usize];
                debug_assert_eq!(n.at, t);
                if tie {
                    seqs.push(n.seq);
                }
                let first_ev = n.event.take().expect("linked node has no event");
                let mut id = n.next;
                self.free_node(head);
                self.len -= 1;
                let st = SimTime::from_nanos(t);
                while id != NIL {
                    let n = &mut self.nodes[id as usize];
                    debug_assert_eq!(n.at, t);
                    if tie {
                        seqs.push(n.seq);
                    }
                    let event = n.event.take().expect("linked node has no event");
                    let next = n.next;
                    out.push((st, event));
                    self.len -= 1;
                    self.free_node(id);
                    id = next;
                }
                self.cur = t;
                return Some((t, first_ev));
            }
            let (head, tail) = self.slots[si];
            let min_at = self.slot_min_at(head);
            if min_at > limit {
                return None;
            }
            if head == tail {
                // A lone high-level entry is the only entry in its slot's
                // whole time range, hence the only one at its instant:
                // a batch of one.
                if min_at == tie_at {
                    seqs.push(self.nodes[head as usize].seq);
                }
                let (at, event) = self.take_lone(lvl, slot, head);
                self.cur = at;
                return Some((at, event));
            }
            let start = self.slot_start(lvl, slot);
            debug_assert!(start >= self.cur && start <= min_at);
            self.cascade(lvl, slot, start);
        }
    }
}

enum Backend<E> {
    Arena(ArenaWheel<E>),
    Heap(BinaryHeap<Entry<E>>),
}

/// Most periodic ticks pending at once (the engine keeps six).
const MAX_LANES: usize = 8;

/// One pending periodic tick ([`EventQueue::push_periodic`]).
struct LaneEntry<E> {
    at: u64,
    seq: u64,
    event: E,
}

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
/// discarded deliveries explicitly — `Report::stale_pops` — so both
/// backends agree on them by construction.)
pub struct EventQueue<E> {
    backend: Backend<E>,
    /// Pending periodic ticks, sorted by `(at, seq)` *descending*: the
    /// earliest is the last element, so popping it is `Vec::pop`.
    lanes: Vec<LaneEntry<E>>,
    /// Seqs of an arena batch that ties with the lanes' head instant
    /// (scratch for [`EventQueue::pop_batch_before`]).
    tie_seqs: Vec<u64>,
    seq: u64,
    now: SimTime,
    pushes: u64,
    pops: u64,
    heap_allocs: u64,
    coalesced_pops: u64,
    max_len: usize,
}

impl<E> EventQueue<E> {
    /// An empty queue with the clock at zero, using the build's default
    /// backend ([`QueueKind::default_kind`]).
    pub fn new() -> Self {
        Self::with_kind(QueueKind::default_kind())
    }

    /// An empty queue using an explicit backend — differential tests run
    /// the same simulation on both kinds and compare digests.
    pub fn with_kind(kind: QueueKind) -> Self {
        EventQueue {
            backend: match kind {
                QueueKind::Wheel => Backend::Arena(ArenaWheel::new()),
                QueueKind::Heap => Backend::Heap(BinaryHeap::new()),
            },
            lanes: Vec::with_capacity(MAX_LANES),
            tie_seqs: Vec::new(),
            seq: 0,
            now: SimTime::ZERO,
            pushes: 0,
            pops: 0,
            heap_allocs: 0,
            coalesced_pops: 0,
            max_len: 0,
        }
    }

    /// Which backend this queue runs on.
    pub fn kind(&self) -> QueueKind {
        match &self.backend {
            Backend::Arena(_) => QueueKind::Wheel,
            Backend::Heap(_) => QueueKind::Heap,
        }
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
        match &mut self.backend {
            Backend::Arena(w) => w.insert(at.as_nanos(), seq, event),
            Backend::Heap(h) => {
                if h.len() == h.capacity() {
                    self.heap_allocs += 1;
                }
                h.push(Entry { at, seq, event });
            }
        }
        self.note_len();
    }

    /// Schedule a *periodic tick* to fire at `at`: an event that, when
    /// handled, reschedules itself one fixed period (> 0) later and is
    /// never cancelled. It is delivered exactly as [`EventQueue::push`]
    /// would deliver it — same seq counter, same `(time, seq)` order,
    /// same [`QueueStats`] except `cascades` — but it waits in a short
    /// sorted list beside the backend instead of in it, so a tick costs
    /// neither a wheel insertion nor its cascades. At most eight ticks
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
        self.lanes.insert(pos, LaneEntry { at, seq, event });
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

    /// `(at, seq)` of the earliest lane entry, or [`NO_LANE`].
    #[inline]
    fn lane_head(&self) -> (u64, u64) {
        self.lanes.last().map_or(NO_LANE, |e| (e.at, e.seq))
    }

    /// Pop the earliest lane entry if it is due by `limit`.
    #[inline]
    fn pop_lane(&mut self, limit: u64) -> Option<(u64, E)> {
        if self.lanes.last()?.at > limit {
            return None;
        }
        self.lanes.pop().map(|e| (e.at, e.event))
    }

    /// Pop the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_before(SimTime::MAX)
    }

    /// Pop the earliest event if its timestamp is `<= limit`, advancing
    /// the clock to it; `None` (and no state change) otherwise.
    ///
    /// This is the event loop's primitive: `pop_before(end)` replaces the
    /// `peek_time` + `pop` pair, so the wheel searches its bitmaps once
    /// per event instead of twice.
    ///
    /// Merge rule (every backend, both pop paths): the backend's earliest
    /// entry is delivered iff its `(time, seq)` key sorts before the
    /// periodic lanes' head; otherwise the lane head is, if it is due.
    pub fn pop_before(&mut self, limit: SimTime) -> Option<(SimTime, E)> {
        let limit = limit.as_nanos();
        let bound = self.lane_head();
        let popped = match &mut self.backend {
            Backend::Arena(w) => w.pop_before(limit, bound),
            Backend::Heap(h) => {
                if h.peek()
                    .is_none_or(|e| e.at.as_nanos() > limit || (e.at.as_nanos(), e.seq) > bound)
                {
                    None
                } else {
                    h.pop().map(|e| (e.at.as_nanos(), e.event))
                }
            }
        };
        let (t, event) = popped.or_else(|| self.pop_lane(limit))?;
        let t = SimTime::from_nanos(t);
        debug_assert!(t >= self.now);
        self.now = t;
        self.pops += 1;
        Some((t, event))
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
    /// batch at the same instant and are picked up by the next call. On
    /// the arena wheel a batch costs one bitmap probe, and a
    /// single-event batch (the common case) never touches `out`; the
    /// heap falls back to a peek/pop loop. Periodic lane
    /// entries at the batch instant join the batch in seq order (the
    /// [`EventQueue::pop_before`] merge rule); on the arena this costs one
    /// compare against the lanes' head unless a wheel batch lands on that
    /// very instant.
    pub fn pop_batch_before(
        &mut self,
        limit: SimTime,
        out: &mut Vec<(SimTime, E)>,
    ) -> Option<(SimTime, E)> {
        out.clear();
        let first = if let Backend::Arena(w) = &mut self.backend {
            let limit = limit.as_nanos();
            let lane_at = self.lanes.last().map_or(u64::MAX, |e| e.at);
            let first =
                match w.pop_batch_before(limit.min(lane_at), lane_at, out, &mut self.tie_seqs) {
                    Some((t, event)) if t < lane_at => Some((t, event)),
                    Some((t, event)) => Some((t, self.merge_lane_tie(t, event, out))),
                    None => self.pop_lane_batch(limit, out),
                };
            let first = first.map(|(t, event)| (SimTime::from_nanos(t), event));
            if let Some((t, _)) = &first {
                debug_assert!(*t >= self.now);
                self.now = *t;
                self.pops += 1 + out.len() as u64;
            }
            first
        } else {
            // Heap: peek/pop loop (correct, not optimized).
            let first = self.pop_before(limit);
            if let Some((t, _)) = &first {
                let t = *t;
                while self.peek_time() == Some(t) {
                    let e = self.pop_before(limit).expect("peeked event vanished");
                    out.push(e);
                }
            }
            first
        };
        self.coalesced_pops += out.len() as u64;
        first
    }

    /// An arena batch at instant `t` (`first`, then `out`, seqs in
    /// `tie_seqs`) meets lane entries at the same `t`: splice those in by
    /// seq and return the batch's new first event.
    #[cold]
    fn merge_lane_tie(&mut self, t: u64, first: E, out: &mut Vec<(SimTime, E)>) -> E {
        let st = SimTime::from_nanos(t);
        out.insert(0, (st, first));
        while self.lanes.last().is_some_and(|e| e.at == t) {
            let lane = self.lanes.pop().expect("checked non-empty");
            let pos = self.tie_seqs.partition_point(|&s| s < lane.seq);
            self.tie_seqs.insert(pos, lane.seq);
            out.insert(pos, (st, lane.event));
        }
        self.tie_seqs.clear();
        out.remove(0).1
    }

    /// A batch drawn from the lanes alone: the backend has nothing due at
    /// or before the lane head.
    fn pop_lane_batch(&mut self, limit: u64, out: &mut Vec<(SimTime, E)>) -> Option<(u64, E)> {
        let (t, first) = self.pop_lane(limit)?;
        let st = SimTime::from_nanos(t);
        while self.lanes.last().is_some_and(|e| e.at == t) {
            let lane = self.lanes.pop().expect("checked non-empty");
            out.push((st, lane.event));
        }
        Some((t, first))
    }

    /// Timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        let backend = match &self.backend {
            Backend::Arena(w) => w.peek_time(),
            Backend::Heap(h) => h.peek().map(|e| e.at.as_nanos()),
        };
        let lane = self.lanes.last().map(|e| e.at);
        match (backend, lane) {
            (Some(b), Some(l)) => Some(b.min(l)),
            (b, l) => b.or(l),
        }
        .map(SimTime::from_nanos)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.lanes.len()
            + match &self.backend {
                Backend::Arena(w) => w.len,
                Backend::Heap(h) => h.len(),
            }
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Operation counters (see [`QueueStats`]).
    pub fn stats(&self) -> QueueStats {
        let (cascades, cascaded_entries, allocs) = match &self.backend {
            Backend::Arena(w) => (w.cascades, w.cascaded_entries, w.allocs),
            Backend::Heap(_) => (0, 0, self.heap_allocs),
        };
        QueueStats {
            pushes: self.pushes,
            pops: self.pops,
            cascades,
            cascaded_entries,
            allocs,
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

    const KINDS: [QueueKind; 2] = [QueueKind::Wheel, QueueKind::Heap];

    #[test]
    fn pops_in_time_order() {
        for kind in KINDS {
            let mut q = EventQueue::with_kind(kind);
            q.push(SimTime::from_nanos(30), "c");
            q.push(SimTime::from_nanos(10), "a");
            q.push(SimTime::from_nanos(20), "b");
            assert_eq!(q.pop(), Some((SimTime::from_nanos(10), "a")));
            assert_eq!(q.pop(), Some((SimTime::from_nanos(20), "b")));
            assert_eq!(q.pop(), Some((SimTime::from_nanos(30), "c")));
            assert_eq!(q.pop(), None);
        }
    }

    #[test]
    fn ties_break_by_insertion_order() {
        for kind in KINDS {
            let mut q = EventQueue::with_kind(kind);
            let t = SimTime::from_nanos(5);
            for i in 0..100 {
                q.push(t, i);
            }
            for i in 0..100 {
                assert_eq!(q.pop(), Some((t, i)));
            }
        }
    }

    #[test]
    fn clock_advances_with_pops() {
        for kind in KINDS {
            let mut q = EventQueue::with_kind(kind);
            q.push(SimTime::from_micros(7), ());
            assert_eq!(q.now(), SimTime::ZERO);
            q.pop();
            assert_eq!(q.now(), SimTime::from_micros(7));
        }
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
        for kind in KINDS {
            let mut q = EventQueue::with_kind(kind);
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
    }

    #[test]
    fn default_kind_tracks_feature() {
        let q: EventQueue<()> = EventQueue::new();
        assert_eq!(q.kind(), QueueKind::default_kind());
    }

    #[test]
    fn pop_before_respects_limit_and_is_non_destructive() {
        for kind in KINDS {
            let mut q = EventQueue::with_kind(kind);
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
    }

    #[test]
    fn far_future_timers_cascade_correctly() {
        for kind in KINDS {
            let mut q = EventQueue::with_kind(kind);
            // One event per wheel level, far apart, pushed out of order.
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
    }

    #[test]
    fn same_instant_burst_survives_cascade() {
        for kind in KINDS {
            let mut q = EventQueue::with_kind(kind);
            // A burst far in the future: the wheel parks it at a high
            // level and must restore insertion order when cascading.
            let t = SimTime::from_nanos((1 << 25) + 12_345);
            for i in 0..64 {
                q.push(t, i);
            }
            // Interleave an earlier event so the burst is not popped
            // straight from the insertion slot.
            q.push(SimTime::from_nanos(9), 1000);
            assert_eq!(q.pop(), Some((SimTime::from_nanos(9), 1000)));
            for i in 0..64 {
                assert_eq!(q.pop(), Some((t, i)));
            }
        }
    }

    #[test]
    fn batch_pop_drains_whole_instant_in_seq_order() {
        for kind in KINDS {
            let mut q = EventQueue::with_kind(kind);
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
    }

    #[test]
    fn batch_pop_same_instant_pushes_land_in_next_batch() {
        // Events pushed at the batch's own instant (as a handler would
        // during processing) carry higher seqs and arrive in the *next*
        // batch at the same time — exactly the per-pop delivery order.
        for kind in KINDS {
            let mut q = EventQueue::with_kind(kind);
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
    }

    #[test]
    fn batch_pop_far_future_burst_cascades_first() {
        for kind in KINDS {
            let mut q = EventQueue::with_kind(kind);
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
    }

    #[test]
    fn periodic_ticks_interleave_with_backend_entries_by_seq() {
        for kind in KINDS {
            for batch in [false, true] {
                let mut q = EventQueue::with_kind(kind);
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
                assert_eq!(got, want, "{kind:?} batch={batch}");
                let s = q.stats();
                assert_eq!((s.pushes, s.pops, s.max_len), (4, 4, 4));
                assert_eq!(s.coalesced_pops, if batch { 2 } else { 0 });
            }
        }
    }

    #[test]
    fn backends_agree_on_lcg_stream() {
        // Deterministic pseudo-random interleaving of pushes and pops,
        // driven in lockstep over both backends (batched pops included,
        // so the coalescing primitive is differentially checked too).
        let mut arena = EventQueue::with_kind(QueueKind::Wheel);
        let mut heap = EventQueue::with_kind(QueueKind::Heap);
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut lcg = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut n = 0u64;
        let (mut oa, mut oh) = (Vec::new(), Vec::new());
        for _ in 0..5_000 {
            let r = lcg();
            if r % 3 != 0 || arena.is_empty() {
                // Mix of near-future, same-tick and far-future offsets.
                let off = match r % 7 {
                    0 => 0,
                    1..=4 => r % 1_000,
                    5 => r % 1_000_000,
                    _ => (r % 1_000) << 24,
                };
                let at = arena.now() + Duration::from_nanos(off);
                arena.push(at, n);
                heap.push(at, n);
                n += 1;
            } else if r % 5 == 0 {
                let limit = arena.now() + Duration::from_nanos(lcg() % 10_000);
                assert_eq!(arena.pop_before(limit), heap.pop_before(limit));
            } else if r % 2 == 0 {
                let ka = arena.pop_batch_before(SimTime::MAX, &mut oa);
                let kh = heap.pop_batch_before(SimTime::MAX, &mut oh);
                assert_eq!(ka, kh);
                assert_eq!(oa, oh);
            } else {
                assert_eq!(arena.pop(), heap.pop());
            }
        }
        loop {
            let a = arena.pop();
            assert_eq!(a, heap.pop());
            if a.is_none() {
                break;
            }
        }
        let (sa, sh) = (arena.stats(), heap.stats());
        assert_eq!(sa.pushes, sh.pushes);
        assert_eq!(sa.pops, sh.pops);
        assert_eq!(sa.pops, sa.pushes);
        // Batch membership is a property of the (time, seq) stream, not
        // the backend.
        assert_eq!(sa.coalesced_pops, sh.coalesced_pops);
    }

    #[test]
    fn stats_count_ops_and_recycling() {
        let mut q = EventQueue::with_kind(QueueKind::Wheel);
        for round in 0..3 {
            for i in 0..100u64 {
                q.push(q.now() + Duration::from_nanos(i + 1), i);
            }
            while q.pop().is_some() {}
            if round == 0 {
                // Slot/arena storage allocated during the first round...
                assert!(q.stats().allocs > 0);
            }
        }
        let s = q.stats();
        assert_eq!(s.pushes, 300);
        assert_eq!(s.pops, 300);
        assert_eq!(s.max_len, 100);
        // ...is recycled afterwards: warm rounds allocate nothing, so
        // the count stays well below one per event.
        assert!(
            s.allocs < 150,
            "storage not recycled: {} allocs for {} pushes",
            s.allocs,
            s.pushes
        );
    }

    #[test]
    fn arena_recycles_nodes_through_freelist() {
        let mut q = EventQueue::with_kind(QueueKind::Wheel);
        // Fill to peak once, drain, then churn at the same depth: the
        // slab must not grow past the peak.
        for i in 0..64u64 {
            q.push(SimTime::from_nanos(i + 1), i);
        }
        while q.pop().is_some() {}
        let warm = q.stats().allocs;
        for round in 0..50u64 {
            for i in 0..64u64 {
                q.push(q.now() + Duration::from_nanos(i + 1), round * 64 + i);
            }
            while q.pop().is_some() {}
        }
        assert_eq!(q.stats().allocs, warm, "arena grew after warm-up");
    }
}
