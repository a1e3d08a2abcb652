//! Flow table: classifies arriving packets to flows and service chains.
//!
//! The NF manager's RX threads look up each arriving packet here to find
//! which chain (and therefore which first NF) it belongs to — the same role
//! as OpenNetVM's flow table + flow rule installer. Rules are installed at
//! configuration time by the harness (standing in for an SDN controller),
//! and an exact miss consults prioritized wildcard rules, caching the
//! decision as an exact entry (the reactive flow-director pattern).
//!
//! # Million-flow engine
//!
//! The table is built to hold millions of concurrent flows:
//!
//! - **SoA layout.** The classify hot path touches two parallel
//!   [`FlowColumn`]s indexed by flow id: `keys` (the 5-tuples, 16 B,
//!   compared on probe) and `slots` (aging stamp, 16-bit chain and a
//!   48-bit packet counter, 12 B, written on every classify). A probe
//!   that misses on the tag never loads a key, and a classify writes one
//!   12-byte slot. Chunked columns grow without copying, so the table's
//!   per-flow state is 28 B per flow plus the index, with no doubling
//!   slack. Chain ids above 65,535 are refused at install.
//! - **Sharded open addressing.** The exact-match index is a set of
//!   power-of-two Robin Hood linear-probing shards selected by the
//!   *high* bits of a seed-free multiply-xor tuple hash (in-shard home
//!   position uses the low bits). Each 8-byte slot holds the hash's low
//!   32 bits as a tag beside `flow + 1`, so probe mismatches, rehash and
//!   deletion work from the slot alone; only a tag match loads the
//!   flow's key. Slots along a cluster stay sorted by home, so a miss
//!   probe stops at the first slot displaced less than itself, and an
//!   insert shifts the rest of its cluster right by one. A shard doubles
//!   when an insert would pass 3/4 occupancy and rehashes alone, so the
//!   amortized rehash spike is 1/64th of a monolithic table's.
//!   Probe and rehash counters go to `BENCH_timings.json` only.
//! - **Deterministic aging.** Every entry carries an epoch-granular
//!   `last_seen` stamp. [`FlowTable::age`] advances the epoch and scans in
//!   flow-id order, evicting wildcard-learned entries idle for more than
//!   `idle_epochs` epochs. Explicitly installed entries are pinned and
//!   never aged out. Freed ids go on a free list (popped LIFO) so the id
//!   space stays dense at the peak concurrent flow count. Packet counters
//!   of evicted flows accumulate into `forgotten_packets` so
//!   packet-conservation ledgers still balance.
//! - **Run classification.** [`FlowTable::classify_run`] classifies a
//!   run of frames with one table operation ([`crate::FrameRun`]: one
//!   tuple, `count` frames). Table state and counters equal classifying
//!   frame by frame. A wildcard miss installs at the slot its miss
//!   probe stopped at instead of probing again.
//! - **Bulk classification.** [`FlowTable::classify_runs`] classifies an
//!   RX poll's runs in two passes, the way DPDK's bulk hash lookup does:
//!   pass 1 hashes every run and prefetches its home slot and the cache
//!   line after it, pass 2 classifies them in order with the saved
//!   hashes. The slot misses of a large table overlap instead of being
//!   waited out one by one. Pass 1 changes no state and carries only
//!   hashes into pass 2: a mint there shifts a cluster, or grows a shard
//!   and moves every slot.

use crate::column::FlowColumn;
use crate::count::Count48;
use crate::ids::{ChainId, FlowId};
use crate::nic::FrameRun;
use crate::packet::FiveTuple;
use crate::pattern::TuplePattern;

/// Per-flow record: a by-value view assembled from the table's SoA
/// columns. Aging bookkeeping is deliberately not exposed here — it must
/// never leak into metrics or trace output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowEntry {
    /// Interned flow id.
    pub flow: FlowId,
    /// Service chain assigned to this flow.
    pub chain: ChainId,
    /// Packets classified for this flow (since install or recycle).
    pub packets: u64,
}

/// The exact-match index's layout. There is one: 64 shards. The type
/// stays, with `PlatformConfig.flow_table` and [`FlowTable::with_kind`],
/// only because the benchmark's replay (`perfbench/src/replay.rs`) names
/// them; ROADMAP.md's "Next change to the benchmark" retires all three.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FlowTableKind {
    /// Sharded open addressing: 64 shards by tuple-hash high bits.
    #[default]
    Sharded,
}

/// Flow aging policy. `idle_epochs == 0` disables aging entirely (the
/// default — default configs stay byte-identical to the pre-aging
/// engine, same idiom as `FaultConfig::stall_ticks`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowAging {
    /// Evict a wildcard-learned flow once it has been idle for more than
    /// this many completed epochs. `0` disables aging.
    pub idle_epochs: u32,
    /// Monitor ticks per aging epoch (the engine advances the epoch and
    /// runs the eviction scan every this many monitor ticks).
    pub epoch_ticks: u32,
}

impl FlowAging {
    /// Is aging enabled?
    pub fn enabled(&self) -> bool {
        self.idle_epochs > 0
    }
}

impl Default for FlowAging {
    fn default() -> Self {
        FlowAging {
            idle_epochs: 0,
            epoch_ticks: 16,
        }
    }
}

/// Internal flow-table counters. Probe/rehash numbers depend on the
/// index layout, so — like `QueueStats` — they are reported only through
/// `BENCH_timings.json`-style channels, never metrics or trace output.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowTableStats {
    /// Fresh installs (explicit or wildcard-learned), including recycles.
    pub installs: u64,
    /// Installs that reused a freed flow id.
    pub recycled: u64,
    /// Entries evicted by aging.
    pub evicted: u64,
    /// Classify calls answered by the exact-match index.
    pub exact_hits: u64,
    /// Exact hits answered by the last-flow memo (no hash or probe).
    /// Subset of `exact_hits`.
    pub memo_hits: u64,
    /// Classify calls answered by a wildcard rule (installing a cache
    /// entry).
    pub wildcard_hits: u64,
    /// Cumulative index slots visited by lookups, plus the re-probe of an
    /// install that grew its shard (an install without growth takes the
    /// slot its miss probe stopped at).
    pub probe_steps: u64,
    /// Longest single probe sequence observed.
    pub max_probe: u64,
    /// Shard grow-and-rehash events.
    pub rehashes: u64,
    /// Number of index shards.
    pub shards: u64,
    /// Total index slots across shards (current capacity).
    pub slots: u64,
    /// Live entries (pinned + wildcard-learned).
    pub live: u64,
    /// Live entries pinned by explicit install.
    pub pinned: u64,
}

/// A wildcard rule: pattern → chain at a priority (higher wins).
#[derive(Debug, Clone)]
struct WildcardRule {
    pattern: TuplePattern,
    chain: u16,
    priority: i32,
}

/// The largest chain id a flow slot holds: slots keep 16-bit chains.
/// Every chain also carries a ~4 KB latency histogram, so no config
/// comes near it.
const MAX_CHAIN_ID: u32 = u16::MAX as u32;

/// `chain` as a slot's 16-bit chain. Panics above `MAX_CHAIN_ID`:
/// installs are configuration, so a bad id fails the build of the
/// scenario, never a classify.
fn slot_chain(chain: ChainId) -> u16 {
    assert!(
        chain.0 <= MAX_CHAIN_ID,
        "{chain} is above the flow table's chain cap {MAX_CHAIN_ID}"
    );
    chain.0 as u16
}

/// Memo sentinel: no flow cached (flow ids are dense from 0 and can
/// never reach `u32::MAX` — the `last_seen` sentinels cap the id space
/// well below it).
const NO_MEMO: u32 = u32::MAX;

/// `last_seen` sentinel: explicitly installed, never aged out.
const PINNED: u32 = u32::MAX;
/// `last_seen` sentinel: slot evicted, id parked on the free list.
const DEAD: u32 = u32::MAX - 1;
/// Epochs saturate below the sentinels.
const MAX_EPOCH: u32 = DEAD - 1;

/// Per-flow record beside the key: everything a classify writes, in
/// 12 bytes.
#[derive(Debug, Clone, Copy)]
struct FlowSlot {
    last_seen: u32,
    chain: u16,
    /// Packets classified (since install or recycle).
    packets: Count48,
}

/// Seed-free multiply-xor hash of a 5-tuple (the ports/proto and the two
/// addresses each get one round). Quality only affects probe length.
#[inline]
fn tuple_hash(t: &FiveTuple) -> u64 {
    const M: u64 = 0x9e37_79b9_7f4a_7c15;
    let a = ((t.src_ip as u64) << 32) | t.dst_ip as u64;
    let b = ((t.src_port as u64) << 24) | ((t.dst_port as u64) << 8) | t.proto as u64;
    let mut h = (a ^ M).wrapping_mul(M);
    h ^= h >> 32;
    h = (h ^ b).wrapping_mul(M);
    h ^ (h >> 29)
}

/// Hint the CPU to pull the cache line holding `p` into L1. Only a
/// hint: it reads nothing the caller sees and changes no state.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
#[inline(always)]
fn prefetch<T>(p: &T) {
    use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
    // SAFETY: a prefetch never faults and never writes, whatever the
    // address (here a live reference), and SSE is baseline on x86-64.
    unsafe { _mm_prefetch::<_MM_HINT_T0>((p as *const T).cast()) }
}

/// Hint the CPU to pull the cache line holding `p` into L1: a no-op on
/// targets without an x86-64 prefetch.
#[cfg(not(target_arch = "x86_64"))]
#[inline(always)]
fn prefetch<T>(_p: &T) {}

const SHARD_BITS: u32 = 6;
const SHARDS: usize = 1 << SHARD_BITS;

/// One index slot. The tag answers almost every probe mismatch, and it
/// holds the in-shard home position, so probes, rehash and deletion
/// never load a random `keys[f]` cache line except on a tag match.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Slot {
    /// Low 32 bits of the tuple hash.
    tag: u32,
    /// Flow id + 1; `0` marks an empty slot.
    flow: u32,
}

impl Slot {
    /// Distance from this slot's home to position `i` of a shard with
    /// position mask `mask`.
    #[inline]
    fn displacement(self, i: usize, mask: usize) -> usize {
        i.wrapping_sub(self.tag as usize) & mask
    }
}

/// One open-addressing region: a power-of-two slot array probed with
/// Robin Hood linear probing, grown past 3/4 occupancy. A slot's home is
/// `tag & mask`, and its displacement is its distance from home. Along
/// each cluster the slots stay sorted by home, so a probe stops at the
/// first slot displaced less than the probe has travelled: the tuple
/// would sit there, so it is absent.
#[derive(Debug, Default)]
struct Shard {
    slots: Vec<Slot>,
    used: usize,
}

impl Shard {
    /// Bytes of slot storage allocated.
    fn heap_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<Slot>()
    }

    /// Probe for `tuple`: `Ok(slot)` holding it, or `Err(slot)` — the
    /// empty or less displaced slot the probe stopped at, where an
    /// insert (without growth) would place it. Plus the probe length.
    #[inline]
    fn find(
        &self,
        h: u64,
        tuple: &FiveTuple,
        keys: &FlowColumn<FiveTuple>,
    ) -> (Result<usize, usize>, u64) {
        if self.slots.is_empty() {
            return (Err(0), 0);
        }
        let tag = h as u32;
        let mask = self.slots.len() - 1;
        let mut i = tag as usize & mask;
        let mut dist = 0;
        loop {
            let s = self.slots[i];
            if s.flow == 0 || s.displacement(i, mask) < dist {
                return (Err(i), dist as u64 + 1);
            }
            if s.tag == tag && keys[(s.flow - 1) as usize] == *tuple {
                return (Ok(i), dist as u64 + 1);
            }
            i = (i + 1) & mask;
            dist += 1;
        }
    }

    /// Prefetch the home slot a probe for hash `h` starts at, and the
    /// slot one cache line (8 slots) on: at 3/4 load a probe, and the
    /// cluster shift of the insert that may follow it, often run past
    /// the home slot's line.
    #[inline]
    fn prefetch_home(&self, h: u64) {
        if !self.slots.is_empty() {
            let mask = self.slots.len() - 1;
            let i = h as u32 as usize & mask;
            prefetch(&self.slots[i]);
            prefetch(&self.slots[(i + 8) & mask]);
        }
    }

    /// Insert a flow known to be absent; `at` is the slot its miss probe
    /// ([`Shard::find`]) stopped at. Only a grow re-probes.
    /// Returns `(rehashes, probe steps)`.
    fn insert(&mut self, h: u64, flow: u32, at: usize) -> (u64, u64) {
        let slot = Slot {
            tag: h as u32,
            flow: flow + 1,
        };
        self.used += 1;
        // Keep occupancy at or below 3/4: Robin Hood ordering keeps
        // probes short at that load, and the early exit bounds misses.
        if 4 * self.used > 3 * self.slots.len() {
            self.grow();
            let steps = self.place(slot);
            return (1, steps);
        }
        self.shift_in(at, slot);
        (0, 0)
    }

    /// Put `slot` at position `i`, shifting the rest of the cluster right
    /// by one up to its first empty slot.
    fn shift_in(&mut self, mut i: usize, mut slot: Slot) {
        let mask = self.slots.len() - 1;
        loop {
            slot = std::mem::replace(&mut self.slots[i], slot);
            if slot.flow == 0 {
                return;
            }
            i = (i + 1) & mask;
        }
    }

    /// Robin Hood insert of an absent `slot`: probe from its home to the
    /// first empty or less displaced slot and shift it in there.
    /// Returns the probe length.
    fn place(&mut self, slot: Slot) -> u64 {
        let mask = self.slots.len() - 1;
        let mut i = slot.tag as usize & mask;
        let mut dist = 0;
        while self.slots[i].flow != 0 && self.slots[i].displacement(i, mask) >= dist {
            i = (i + 1) & mask;
            dist += 1;
        }
        self.shift_in(i, slot);
        dist as u64 + 1
    }

    /// Double the capacity (8 slots when empty) and rehash this shard
    /// only, from the tags alone, in one forward pass with no probe and
    /// no shift. The layout is the one Robin Hood inserts in this order
    /// would build, so it stays a pure function of the table's
    /// install/evict history.
    ///
    /// The old array of `m` slots is walked from an empty position `e`:
    /// no cluster crosses `e`, so slots arrive in home order. A doubled
    /// home is the old home or the old home plus `m`, so no cluster of
    /// the new array crosses `e` or `e + m` either, and the new array
    /// splits into two arcs of `m` positions that fill independently.
    /// Within an arc the slots arrive in new-home order, equal homes in
    /// their old order, so each goes at its new home or one past the
    /// arc's last placed slot, whichever is later.
    fn grow(&mut self) {
        let cap = (2 * self.slots.len()).max(8);
        let old = std::mem::take(&mut self.slots);
        self.slots.resize(cap, Slot::default());
        let Some(e) = old.iter().position(|s| s.flow == 0) else {
            return; // no slot to move (an empty shard)
        };
        let (m, mask) = (old.len(), cap - 1);
        // Per arc, the offset from the arc's start of its next free
        // position.
        let mut next = [0; 2];
        let (tail, head) = old.split_at(e);
        for &s in head.iter().chain(tail).filter(|s| s.flow != 0) {
            let off = (s.tag as usize).wrapping_sub(e) & mask;
            let arc = usize::from(off >= m);
            let at = (off & (m - 1)).max(next[arc]);
            debug_assert!(at < m, "a cluster ran past its arc");
            next[arc] = at + 1;
            self.slots[(e + arc * m + at) & mask] = s;
        }
    }

    /// Remove `tuple` with backward-shift deletion (no tombstones): the
    /// rest of the cluster moves back one slot, up to an empty slot or a
    /// slot at its home, so lookups stay correct and probe lengths do
    /// not rot as flows churn.
    fn remove(&mut self, h: u64, tuple: &FiveTuple, keys: &FlowColumn<FiveTuple>) {
        let (Ok(mut i), _) = self.find(h, tuple, keys) else {
            return;
        };
        let mask = self.slots.len() - 1;
        self.used -= 1;
        loop {
            let j = (i + 1) & mask;
            let s = self.slots[j];
            if s.flow == 0 || s.displacement(j, mask) == 0 {
                break;
            }
            self.slots[i] = s;
            i = j;
        }
        self.slots[i] = Slot::default();
    }
}

/// The shard of the exact-match index that holds hash `h`.
#[inline]
fn shard_of(h: u64) -> usize {
    (h >> (64 - SHARD_BITS)) as usize
}

/// 5-tuple flow table: exact-match entries backed by prioritized wildcard
/// rules. See the module docs for the engine layout; all ordered views
/// (iteration, the eviction scan) go through flow-id order, never the
/// index, so the index layout never shows in external behavior.
#[derive(Debug)]
pub struct FlowTable {
    /// Tuple keys by flow id (probed on lookup).
    keys: FlowColumn<FiveTuple>,
    /// Per-flow records by flow id.
    slots: FlowColumn<FlowSlot>,
    /// Freed flow ids, popped LIFO on install.
    free: Vec<u32>,
    /// Live entries (`keys.len()` minus dead slots).
    live: usize,
    /// Current aging epoch.
    epoch: u32,
    /// Running total of packets classified over the table's lifetime —
    /// always `Σ live entry packets + forgotten_packets`, maintained
    /// incrementally so the conservation ledger is O(1) even with a
    /// million live flows.
    classified_packets: u64,
    /// Packets classified to since-evicted flows (conservation ledger).
    forgotten_packets: u64,
    /// Per-flow packet-count adds that saturated at [`Count48::MAX`].
    saturated_adds: u64,
    wildcards: Vec<WildcardRule>,
    /// The exact-match index: [`SHARDS`] shards, picked by [`shard_of`].
    index: Vec<Shard>,
    stats: FlowTableStats,
    /// Last flow id classified: traffic sources emit per-flow bursts, so
    /// consecutive classify calls usually repeat a tuple — an inline key
    /// compare (no slab load, so a miss costs one branch even with a
    /// million cold flows) skips the hash + probe entirely. The memo is
    /// invalidated at the only two places its slot's key can stop meaning
    /// this tuple — eviction ([`FlowTable::age`]) and slot recycling
    /// ([`FlowTable::intern`]) — so an armed memo always names a live
    /// slot whose key equals `memo_key`.
    memo: u32,
    /// Copy of the armed memo slot's tuple (valid iff `memo != NO_MEMO`).
    memo_key: FiveTuple,
    /// [`FlowTable::classify_runs`]' per-run tuple hashes (reused; empty
    /// until the first bulk classification).
    hashes: Vec<u64>,
}

impl Default for FlowTable {
    fn default() -> Self {
        Self::new()
    }
}

impl FlowTable {
    /// An empty table.
    pub fn new() -> Self {
        let mut index = Vec::with_capacity(SHARDS);
        index.resize_with(SHARDS, Shard::default);
        FlowTable {
            keys: FlowColumn::new(),
            slots: FlowColumn::new(),
            free: Vec::new(),
            live: 0,
            epoch: 0,
            classified_packets: 0,
            forgotten_packets: 0,
            saturated_adds: 0,
            wildcards: Vec::new(),
            index,
            stats: FlowTableStats::default(),
            memo: NO_MEMO,
            // Placeholder: never read while the memo is disarmed.
            memo_key: FiveTuple::synthetic(0, crate::Proto::Udp),
            hashes: Vec::new(),
        }
    }

    /// An empty table of the given (single) [`FlowTableKind`]; the same
    /// as [`FlowTable::new`].
    pub fn with_kind(kind: FlowTableKind) -> Self {
        let FlowTableKind::Sharded = kind;
        Self::new()
    }

    #[inline]
    fn note_probe(&mut self, steps: u64) {
        self.stats.probe_steps += steps;
        if steps > self.stats.max_probe {
            self.stats.max_probe = steps;
        }
    }

    /// Install a rule mapping `tuple` to `chain`, returning the interned
    /// [`FlowId`]. Reinstalling an existing tuple updates its chain (rule
    /// replacement) and keeps its id and counters. Explicit installs are
    /// pinned: they are never aged out. Panics if `chain` is above
    /// 65,535: a flow slot keeps a 16-bit chain.
    pub fn install(&mut self, tuple: FiveTuple, chain: ChainId) -> FlowId {
        let chain = slot_chain(chain);
        let h = tuple_hash(&tuple);
        let (found, steps) = self.index[shard_of(h)].find(h, &tuple, &self.keys);
        self.note_probe(steps);
        match found {
            Ok(slot) => {
                let f = self.index[shard_of(h)].slots[slot].flow - 1;
                let fs = &mut self.slots[f as usize];
                fs.chain = chain;
                fs.last_seen = PINNED;
                FlowId(f)
            }
            Err(at) => FlowId(self.mint(h, tuple, chain, PINNED, at)),
        }
    }

    /// Mint an entry for `tuple`, known absent from the index: `at` is
    /// the slot its miss probe stopped at. Shared by
    /// [`FlowTable::install`] (pinned) and the wildcard cache path
    /// (stamped with the current epoch).
    fn mint(&mut self, h: u64, tuple: FiveTuple, chain: u16, stamp: u32, at: usize) -> u32 {
        let slot = FlowSlot {
            last_seen: stamp,
            chain,
            packets: Count48::default(),
        };
        let id = match self.free.pop() {
            Some(id) => {
                // Recycled slot: fresh key/counters, same dense id space.
                // The slot changes identity, so a memo naming it is stale.
                if self.memo == id {
                    self.memo = NO_MEMO;
                }
                self.stats.recycled += 1;
                self.keys[id as usize] = tuple;
                self.slots[id as usize] = slot;
                id
            }
            None => {
                let id = self.keys.len() as u32;
                self.keys.push(tuple);
                self.slots.push(slot);
                id
            }
        };
        let (rehashes, steps) = self.index[shard_of(h)].insert(h, id, at);
        self.stats.rehashes += rehashes;
        self.note_probe(steps);
        self.live += 1;
        self.stats.installs += 1;
        id
    }

    /// Install a wildcard rule at `priority` (higher wins on overlap).
    /// The rule list is kept sorted highest-priority-first; binary-search
    /// the insertion point so each install is O(log n) compare + shift,
    /// and equal priorities keep installation order. Panics if `chain`
    /// is above 65,535: a flow slot keeps a 16-bit chain.
    pub fn install_wildcard(&mut self, pattern: TuplePattern, chain: ChainId, priority: i32) {
        let chain = slot_chain(chain);
        let at = self.wildcards.partition_point(|r| r.priority >= priority);
        self.wildcards.insert(
            at,
            WildcardRule {
                pattern,
                chain,
                priority,
            },
        );
    }

    /// Number of wildcard rules installed.
    pub fn wildcard_count(&self) -> usize {
        self.wildcards.len()
    }

    /// Classify a packet: exact match first; on miss, the wildcard rules.
    /// A wildcard hit installs an exact cache entry so subsequent packets
    /// of the flow take the fast path. Returns `None` for unmatched
    /// traffic (the RX thread drops it).
    ///
    /// `_bytes` (the frame size) is unused: the table counts packets
    /// only. It stays in the signature while perfbench's `pkt` replay
    /// passes it, and goes when that replay is deleted.
    #[inline]
    pub fn classify(&mut self, tuple: &FiveTuple, _bytes: u32) -> Option<(FlowId, ChainId)> {
        self.classify_run(tuple, 1)
    }

    /// Classify a run of `packets` (≥ 1) back-to-back packets carrying
    /// the same tuple with one table operation.
    /// Table state and every counter — per-flow packets,
    /// `classified_packets`, `exact_hits`, `memo_hits`, `probe_steps` and
    /// the memo — end up exactly as after `packets` [`FlowTable::classify`]
    /// calls: after the first packet the memo is armed, so the rest of a
    /// classified run are memo hits, while an unclassified run repeats its
    /// miss probe per packet.
    #[inline]
    pub fn classify_run(&mut self, tuple: &FiveTuple, packets: u64) -> Option<(FlowId, ChainId)> {
        self.classify_hashed(tuple, packets, || tuple_hash(tuple))
    }

    /// Classify each of `runs` in order, appending one result per run to
    /// `out`: results, table state and every counter end up exactly as
    /// after one [`FlowTable::classify_run`] per run. Pass 1 hashes each
    /// run's tuple and prefetches its first index slots; pass 2
    /// classifies with the saved hashes, so the slot misses of a large
    /// table overlap.
    pub fn classify_runs(&mut self, runs: &[FrameRun], out: &mut Vec<Option<(FlowId, ChainId)>>) {
        let mut hashes = std::mem::take(&mut self.hashes);
        hashes.clear();
        // Pass 1 only hints. It carries hashes, never slot positions: a
        // mint in pass 2 can grow a shard and move every slot.
        hashes.extend(runs.iter().map(|run| {
            let h = tuple_hash(&run.head.tuple);
            self.index[shard_of(h)].prefetch_home(h);
            h
        }));
        out.reserve(runs.len());
        for (run, &h) in runs.iter().zip(&hashes) {
            let (tuple, packets) = (&run.head.tuple, u64::from(run.count));
            out.push(self.classify_hashed(tuple, packets, || h));
        }
        self.hashes = hashes;
    }

    /// The body of [`FlowTable::classify_run`]: `hash` yields `tuple`'s
    /// hash and is called only on a memo miss.
    #[inline(always)]
    fn classify_hashed(
        &mut self,
        tuple: &FiveTuple,
        packets: u64,
        hash: impl FnOnce() -> u64,
    ) -> Option<(FlowId, ChainId)> {
        debug_assert!(packets > 0, "empty run");
        // Last-flow memo: a hit here is exactly the exact-match path below
        // minus the hash + probe. The key copy lives inline so a memo
        // miss touches no slab memory — with a million cold flows the two
        // slab loads a slot-indexed check would take are guaranteed cache
        // misses. Eviction and recycling disarm the memo, so an armed
        // memo always names a live slot holding `memo_key`.
        let f = if self.memo != NO_MEMO && self.memo_key == *tuple {
            self.stats.exact_hits += packets;
            self.stats.memo_hits += packets;
            self.memo
        } else {
            let h = hash();
            let shard = &self.index[shard_of(h)];
            let (found, steps) = shard.find(h, tuple, &self.keys);
            let f = match found {
                Ok(slot) => {
                    let f = shard.slots[slot].flow - 1;
                    self.note_probe(steps);
                    self.stats.exact_hits += packets;
                    self.stats.memo_hits += packets - 1;
                    f
                }
                Err(at) => {
                    let rule = self.wildcards.iter().find(|r| r.pattern.matches(tuple));
                    let Some(chain) = rule.map(|r| r.chain) else {
                        // Nothing is cached for unmatched traffic: every
                        // packet of the run repeats the miss probe.
                        self.stats.probe_steps += steps * packets;
                        self.stats.max_probe = self.stats.max_probe.max(steps);
                        return None;
                    };
                    self.note_probe(steps);
                    self.stats.wildcard_hits += 1;
                    self.stats.exact_hits += packets - 1;
                    self.stats.memo_hits += packets - 1;
                    self.mint(h, *tuple, chain, self.epoch, at)
                }
            };
            self.memo = f;
            self.memo_key = *tuple;
            f
        };
        let fs = &mut self.slots[f as usize];
        if fs.last_seen != PINNED {
            fs.last_seen = self.epoch;
        }
        fs.packets.add(packets, &mut self.saturated_adds);
        self.classified_packets += packets;
        Some((FlowId(f), ChainId(fs.chain.into())))
    }

    /// Advance the aging epoch and evict wildcard-learned entries idle
    /// for more than `idle_epochs` completed epochs, appending their ids
    /// (ascending) to `evicted`. Pinned entries always survive. The scan
    /// runs in flow-id order, so eviction (and therefore id recycling)
    /// does not depend on the index layout. No-op when `idle_epochs == 0`.
    pub fn age(&mut self, idle_epochs: u32, evicted: &mut Vec<FlowId>) {
        if idle_epochs == 0 {
            return;
        }
        if self.epoch < MAX_EPOCH {
            self.epoch += 1;
        }
        for id in 0..self.keys.len() as u32 {
            let seen = self.slots[id as usize].last_seen;
            if seen >= DEAD || self.epoch - seen <= idle_epochs {
                continue;
            }
            let tuple = self.keys[id as usize];
            let h = tuple_hash(&tuple);
            self.index[shard_of(h)].remove(h, &tuple, &self.keys);
            let fs = &mut self.slots[id as usize];
            fs.last_seen = DEAD;
            self.forgotten_packets += fs.packets.get();
            // An evicted slot keeps its key; disarm a memo naming it so
            // the next classify goes through the index (which no longer
            // holds the tuple).
            if self.memo == id {
                self.memo = NO_MEMO;
            }
            self.live -= 1;
            self.stats.evicted += 1;
            self.free.push(id);
            evicted.push(FlowId(id));
        }
    }

    /// The current aging epoch.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Total packets classified over the table's lifetime — equal to the
    /// live entries' packet counters plus [`FlowTable::forgotten_packets`],
    /// maintained as a running total so packet-conservation ledgers stay
    /// O(1) regardless of table size.
    pub fn classified_packets(&self) -> u64 {
        self.classified_packets
    }

    /// Packets counted for flows that have since been evicted. Add this
    /// to the live entries' counters to get total classified packets
    /// (packet-conservation ledgers need the sum).
    pub fn forgotten_packets(&self) -> u64 {
        self.forgotten_packets
    }

    /// Per-flow packet-count adds that saturated at [`Count48::MAX`]
    /// (each leaves that flow's count, and the conservation ledger,
    /// short). Zero in any real run.
    pub fn saturated_adds(&self) -> u64 {
        self.saturated_adds
    }

    /// Look up without mutating counters or aging stamps.
    #[inline]
    pub fn get(&self, tuple: &FiveTuple) -> Option<FlowEntry> {
        let h = tuple_hash(tuple);
        let shard = &self.index[shard_of(h)];
        let (found, _) = shard.find(h, tuple, &self.keys);
        found
            .ok()
            .map(|slot| self.entry_of(shard.slots[slot].flow - 1))
    }

    fn entry_of(&self, f: u32) -> FlowEntry {
        let fs = &self.slots[f as usize];
        FlowEntry {
            flow: FlowId(f),
            chain: ChainId(fs.chain.into()),
            packets: fs.packets.get(),
        }
    }

    /// The chain a flow id is steered onto (for an evicted id awaiting
    /// recycle: the chain it last carried).
    pub fn chain_of(&self, flow: FlowId) -> ChainId {
        ChainId(self.slots[flow.index()].chain.into())
    }

    /// The tuple for a given (live) flow id.
    pub fn tuple_of(&self, flow: FlowId) -> FiveTuple {
        debug_assert!(self.slots[flow.index()].last_seen != DEAD);
        self.keys[flow.index()]
    }

    /// Number of live flows (pinned + wildcard-learned, excluding evicted
    /// slots awaiting recycle).
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no flows are live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Size of the flow-id space (live + free slots): the upper bound any
    /// returned `FlowId` indexes into. Dense: peaks at the maximum
    /// concurrent flow count, not the total ever seen.
    pub fn id_space(&self) -> usize {
        self.keys.len()
    }

    /// Iterate over all live entries (deterministic order by flow id).
    pub fn entries(&self) -> impl Iterator<Item = FlowEntry> + '_ {
        (0..self.keys.len() as u32)
            .filter(|&id| self.slots[id as usize].last_seen != DEAD)
            .map(|id| self.entry_of(id))
    }

    /// Internal counters snapshot (occupancy fields filled on demand).
    /// Backend-dependent — report via `BENCH_timings.json` only.
    pub fn stats(&self) -> FlowTableStats {
        let mut s = self.stats;
        s.shards = self.index.len() as u64;
        s.slots = self.index.iter().map(|s| s.slots.len() as u64).sum();
        s.live = self.live as u64;
        s.pinned = self.slots.iter().filter(|s| s.last_seen == PINNED).count() as u64;
        s
    }

    /// Bytes of per-flow heap storage, by capacity: the key and slot
    /// columns, the index slots and the free list. Fixed-size
    /// bookkeeping (chunk and shard tables, wildcard rules, the bulk
    /// classification scratch) is left out.
    pub fn heap_bytes(&self) -> usize {
        self.keys.heap_bytes()
            + self.slots.heap_bytes()
            + self.index.iter().map(Shard::heap_bytes).sum::<usize>()
            + self.free.capacity() * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Proto;

    #[test]
    fn install_and_classify() {
        let mut ft = FlowTable::new();
        let t = FiveTuple::synthetic(1, Proto::Udp);
        let f = ft.install(t, ChainId(2));
        assert_eq!(ft.classify(&t, 64), Some((f, ChainId(2))));
        assert_eq!(ft.get(&t).unwrap().packets, 1);
    }

    #[test]
    fn unknown_tuple_unclassified() {
        let mut ft = FlowTable::new();
        let t = FiveTuple::synthetic(9, Proto::Tcp);
        assert_eq!(ft.classify(&t, 64), None);
    }

    #[test]
    fn reinstall_keeps_id_and_counters() {
        let mut ft = FlowTable::new();
        let t = FiveTuple::synthetic(1, Proto::Udp);
        let f1 = ft.install(t, ChainId(0));
        ft.classify(&t, 100);
        let f2 = ft.install(t, ChainId(5));
        assert_eq!(f1, f2);
        assert_eq!(ft.get(&t).unwrap().chain, ChainId(5));
        assert_eq!(ft.get(&t).unwrap().packets, 1);
        assert_eq!(ft.len(), 1);
    }

    #[test]
    fn wildcard_miss_then_hit_caches_exact_entry() {
        use crate::pattern::{IpPrefix, TuplePattern};
        let mut ft = FlowTable::new();
        ft.install_wildcard(
            TuplePattern::any().from_src(IpPrefix::new(0x0a000000, 8)),
            ChainId(3),
            0,
        );
        let t = FiveTuple::synthetic(1, Proto::Udp); // src in 10/8
        assert_eq!(ft.len(), 0);
        let (flow, chain) = ft.classify(&t, 64).unwrap();
        assert_eq!(chain, ChainId(3));
        assert_eq!(ft.len(), 1, "exact entry cached");
        // second packet takes the exact path, same flow id
        assert_eq!(ft.classify(&t, 64), Some((flow, chain)));
        assert_eq!(ft.get(&t).unwrap().packets, 2);
    }

    #[test]
    fn wildcard_priority_order() {
        use crate::pattern::TuplePattern;
        let mut ft = FlowTable::new();
        ft.install_wildcard(TuplePattern::any(), ChainId(1), 0);
        ft.install_wildcard(TuplePattern::any().proto(Proto::Tcp), ChainId(2), 10);
        let tcp = FiveTuple::synthetic(1, Proto::Tcp);
        let udp = FiveTuple::synthetic(2, Proto::Udp);
        assert_eq!(ft.classify(&tcp, 64).unwrap().1, ChainId(2));
        assert_eq!(ft.classify(&udp, 64).unwrap().1, ChainId(1));
        assert_eq!(ft.wildcard_count(), 2);
    }

    #[test]
    fn unmatched_by_any_rule_is_none() {
        use crate::pattern::{IpPrefix, TuplePattern};
        let mut ft = FlowTable::new();
        ft.install_wildcard(
            TuplePattern::any().from_src(IpPrefix::new(0x0b000000, 8)),
            ChainId(0),
            0,
        );
        let t = FiveTuple::synthetic(1, Proto::Udp); // src 10/8, not 11/8
        assert_eq!(ft.classify(&t, 64), None);
    }

    #[test]
    fn flow_ids_sequential_and_reversible() {
        let mut ft = FlowTable::new();
        let a = FiveTuple::synthetic(1, Proto::Udp);
        let b = FiveTuple::synthetic(2, Proto::Udp);
        let fa = ft.install(a, ChainId(0));
        let fb = ft.install(b, ChainId(0));
        assert_eq!(fa, FlowId(0));
        assert_eq!(fb, FlowId(1));
        assert_eq!(ft.tuple_of(fa), a);
        assert_eq!(ft.tuple_of(fb), b);
        assert_eq!(ft.entries().count(), 2);
    }

    #[test]
    fn equal_priority_wildcards_keep_install_order() {
        use crate::pattern::{IpPrefix, TuplePattern};
        let mut ft = FlowTable::new();
        // Both match src 10/8; first installed must win at equal priority.
        ft.install_wildcard(
            TuplePattern::any().from_src(IpPrefix::new(0x0a000000, 8)),
            ChainId(1),
            5,
        );
        ft.install_wildcard(
            TuplePattern::any().from_src(IpPrefix::new(0x0a000000, 8)),
            ChainId(2),
            5,
        );
        // Higher priority inserted later still wins.
        ft.install_wildcard(TuplePattern::any().proto(Proto::Tcp), ChainId(3), 9);
        let udp = FiveTuple::synthetic(1, Proto::Udp);
        let tcp = FiveTuple::synthetic(2, Proto::Tcp);
        assert_eq!(ft.classify(&udp, 64).unwrap().1, ChainId(1));
        assert_eq!(ft.classify(&tcp, 64).unwrap().1, ChainId(3));
    }

    fn aging_table() -> FlowTable {
        use crate::pattern::{IpPrefix, TuplePattern};
        let mut ft = FlowTable::new();
        ft.install_wildcard(
            TuplePattern::any().from_src(IpPrefix::new(0x0a000000, 8)),
            ChainId(0),
            0,
        );
        ft
    }

    #[test]
    fn aging_evicts_idle_learned_flows_and_recycles_ids() {
        let mut ft = aging_table();
        let a = FiveTuple::synthetic(1, Proto::Udp);
        let b = FiveTuple::synthetic(2, Proto::Udp);
        let (fa, _) = ft.classify(&a, 100).unwrap();
        let (fb, _) = ft.classify(&b, 100).unwrap();
        assert_eq!(ft.len(), 2);

        let mut ev = Vec::new();
        ft.age(1, &mut ev); // epoch 1: idle for 1 epoch, not yet > 1
        assert!(ev.is_empty());
        ft.age(1, &mut ev); // epoch 2: idle for 2 epochs > 1 → evict
        assert_eq!(ev, vec![fa, fb], "evicted in ascending id order");
        assert_eq!(ft.len(), 0);
        assert!(ft.get(&a).is_none());
        assert_eq!(ft.forgotten_packets(), 2);
        assert_eq!(ft.entries().count(), 0);

        // Recycle: free list pops LIFO, counters restart from zero.
        let c = FiveTuple::synthetic(3, Proto::Udp);
        let (fc, _) = ft.classify(&c, 64).unwrap();
        assert_eq!(fc, fb, "highest freed id reused first");
        assert_eq!(ft.get(&c).unwrap().packets, 1);
        assert_eq!(ft.id_space(), 2, "id space stays dense");
        assert_eq!(ft.stats().recycled, 1);
    }

    #[test]
    fn pinned_and_recently_seen_flows_survive_aging() {
        let mut ft = aging_table();
        let pinned = FiveTuple::synthetic(1, Proto::Udp);
        let warm = FiveTuple::synthetic(2, Proto::Udp);
        let idle = FiveTuple::synthetic(3, Proto::Udp);
        ft.install(pinned, ChainId(0));
        ft.classify(&warm, 64).unwrap();
        let (f_idle, _) = ft.classify(&idle, 64).unwrap();

        let mut ev = Vec::new();
        for _ in 0..4 {
            ft.age(2, &mut ev);
            ft.classify(&warm, 64).unwrap(); // keep `warm` fresh each epoch
        }
        assert_eq!(ev, vec![f_idle], "only the idle learned flow ages out");
        assert!(ft.get(&pinned).is_some());
        assert!(ft.get(&warm).is_some());
    }

    #[test]
    fn explicit_install_pins_a_learned_flow() {
        let mut ft = aging_table();
        let t = FiveTuple::synthetic(1, Proto::Udp);
        let (f, _) = ft.classify(&t, 64).unwrap();
        ft.install(t, ChainId(7)); // promote to pinned, keep id
        let mut ev = Vec::new();
        for _ in 0..5 {
            ft.age(1, &mut ev);
        }
        assert!(ev.is_empty());
        assert_eq!(ft.get(&t).unwrap().flow, f);
        assert_eq!(ft.get(&t).unwrap().chain, ChainId(7));
    }

    #[test]
    fn memo_repeats_hit_without_probing_and_never_resurrects_evicted() {
        let mut ft = aging_table();
        let t = FiveTuple::synthetic(1, Proto::Udp);
        let (f, c) = ft.classify(&t, 64).unwrap();
        let probes_before = ft.stats().probe_steps;
        // Back-to-back packets of the same flow: memo path, no probes.
        assert_eq!(ft.classify(&t, 64), Some((f, c)));
        assert_eq!(ft.classify(&t, 64), Some((f, c)));
        assert_eq!(ft.stats().probe_steps, probes_before);
        assert_eq!(ft.stats().memo_hits, 2);
        assert_eq!(ft.get(&t).unwrap().packets, 3);

        // Evict the flow: its key stays in the slot, so a stale memo must
        // not produce a hit — the tuple is gone until re-learned.
        let mut ev = Vec::new();
        ft.age(1, &mut ev);
        ft.age(1, &mut ev);
        assert_eq!(ev, vec![f]);
        let (f2, _) = ft.classify(&t, 64).unwrap();
        assert_eq!(f2, f, "recycled id");
        assert_eq!(ft.get(&t).unwrap().packets, 1, "fresh counters");

        // A different tuple breaks the memo; the next repeat re-arms it.
        let other = FiveTuple::synthetic(2, Proto::Udp);
        ft.classify(&other, 64).unwrap();
        let memo_before = ft.stats().memo_hits;
        ft.classify(&other, 64).unwrap();
        assert_eq!(ft.stats().memo_hits, memo_before + 1);
    }

    #[test]
    fn shards_double_past_three_quarter_occupancy() {
        // Growth keeps live ≤ 3/4 capacity with the smallest power of
        // two: each shard's capacity is the smallest power of two ≥ 4n/3
        // of its n flows (8 at least, none before its first flow).
        let want = |n: usize| match n {
            0 => 0,
            n => (4 * n).div_ceil(3).next_power_of_two().max(8),
        };
        let mut ft = FlowTable::new();
        for n in 1..=20_000u32 {
            ft.install(FiveTuple::synthetic(n, Proto::Udp), ChainId(0));
            let h = tuple_hash(&FiveTuple::synthetic(n, Proto::Udp));
            let s = &ft.index[shard_of(h)];
            assert_eq!(s.slots.len(), want(s.used), "{n} flows");
        }
        // A shard's first slot array (8 slots) counts as a rehash too.
        let grown: u64 = ft
            .index
            .iter()
            .map(|s| u64::from(want(s.used).trailing_zeros()) - 2)
            .sum();
        assert_eq!(ft.stats().rehashes, grown, "one rehash per doubling");
    }

    #[test]
    fn learned_flows_cost_28_bytes_of_columns_plus_index_slots() {
        use crate::column::FLOW_CHUNK;
        assert_eq!(std::mem::size_of::<FiveTuple>(), 16);
        assert_eq!(std::mem::size_of::<FlowSlot>(), 12);
        const N: u32 = (1 << 18) + 1;
        let mut ft = aging_table();
        for n in 0..N {
            ft.classify(&FiveTuple::synthetic(n, Proto::Udp), 64)
                .unwrap();
        }
        assert_eq!(ft.id_space(), N as usize);
        // Four full chunks and one holding the last flow: the columns
        // sit less than one chunk above `len`, with no doubling slack.
        let entries = 5 * FLOW_CHUNK;
        assert!(entries - (N as usize) < FLOW_CHUNK);
        let slots = ft.stats().slots as usize;
        assert_eq!(ft.heap_bytes(), 28 * entries + 8 * slots);
        // 64 shards of 8,192 slots: 16 B of index per flow.
        assert_eq!(slots, 524_288);
        assert_eq!(ft.heap_bytes(), 13_369_344);
    }

    #[test]
    fn packet_counts_saturate_at_two_to_the_48_minus_one() {
        let mut ft = FlowTable::new();
        let t = FiveTuple::synthetic(1, Proto::Udp);
        ft.install(t, ChainId(0));
        ft.classify_run(&t, Count48::MAX);
        assert_eq!(ft.get(&t).unwrap().packets, Count48::MAX);
        assert_eq!(ft.saturated_adds(), 0, "reaching the cap is exact");
        ft.classify_run(&t, 2);
        assert_eq!(ft.get(&t).unwrap().packets, Count48::MAX);
        assert_eq!(ft.saturated_adds(), 1);
        // The lifetime total is a u64: it stays exact, so the ledger
        // shows the clipped count's shortfall.
        assert_eq!(ft.classified_packets(), Count48::MAX + 2);
    }

    #[test]
    fn chains_up_to_the_16_bit_cap_install_and_classify() {
        use crate::pattern::TuplePattern;
        let mut ft = FlowTable::new();
        let pinned = FiveTuple::synthetic(1, Proto::Udp);
        let top = ChainId(MAX_CHAIN_ID);
        let f = ft.install(pinned, top);
        assert_eq!(ft.chain_of(f), ChainId(65_535));
        assert_eq!(ft.classify(&pinned, 64), Some((f, top)));
        ft.install_wildcard(TuplePattern::any(), top, 0);
        let learned = FiveTuple::synthetic(2, Proto::Udp);
        assert_eq!(ft.classify(&learned, 64).map(|(_, c)| c), Some(top));
    }

    #[test]
    #[should_panic(expected = "chain cap")]
    fn install_refuses_a_chain_above_the_cap() {
        FlowTable::new().install(FiveTuple::synthetic(1, Proto::Udp), ChainId(65_536));
    }

    #[test]
    #[should_panic(expected = "chain cap")]
    fn install_wildcard_refuses_a_chain_above_the_cap() {
        use crate::pattern::TuplePattern;
        FlowTable::new().install_wildcard(TuplePattern::any(), ChainId(65_536), 0);
    }

    /// The Robin Hood grow the split pass replaced: every old slot,
    /// walked from an empty slot, re-placed with [`Shard::place`].
    fn grow_by_place(old: &Shard) -> Vec<Slot> {
        let mut s = Shard {
            slots: vec![Slot::default(); (2 * old.slots.len()).max(8)],
            used: old.used,
        };
        let start = old.slots.iter().position(|x| x.flow == 0).unwrap_or(0);
        let (tail, head) = old.slots.split_at(start);
        for &x in head.iter().chain(tail).filter(|x| x.flow != 0) {
            s.place(x);
        }
        s.slots
    }

    #[test]
    fn split_grow_builds_the_robin_hood_layout() {
        // Shards of 8 to 64 slots at every load up to 3/4, with uniform
        // homes and with homes crowded at the array's end (clusters wrap
        // round), and equal homes: the one-pass grow must lay out
        // exactly what Robin Hood re-inserts build.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut rand = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for round in 0..2_000u64 {
            let cap = 8usize << (round % 4);
            let mut shard = Shard {
                slots: vec![Slot::default(); cap],
                used: 0,
            };
            let n = rand() as usize % (3 * cap / 4 + 1);
            for f in 0..n as u32 {
                let r = rand();
                let home = match round % 3 {
                    0 => r as usize % cap,
                    1 => cap - 1 - r as usize % (cap / 4),
                    _ => r as usize % 3,
                };
                // Random high bits pick each slot's half after the grow.
                let tag = (r >> 32) as u32 & !(cap as u32 - 1) | home as u32;
                shard.used += 1;
                shard.place(Slot { tag, flow: f + 1 });
            }
            let want = grow_by_place(&shard);
            shard.grow();
            assert_eq!(shard.slots, want, "round {round}: {n} slots of {cap}");
            check_shard(&shard);
        }
    }

    /// Check one shard's Robin Hood invariants: `used` counts the
    /// occupied slots, load is at most 3/4, no empty slot lies between a
    /// slot's home and its position, and along a cluster displacement
    /// rises by at most one per slot. Returns the shard's longest hit
    /// probe (its largest displacement + 1).
    fn check_shard(s: &Shard) -> u64 {
        let n = s.slots.len();
        let disp = |i: usize| s.slots[i].displacement(i, n.wrapping_sub(1));
        let occupied = s.slots.iter().filter(|x| x.flow != 0).count();
        assert_eq!(s.used, occupied, "`used` counts the occupied slots");
        assert!(4 * s.used <= 3 * n, "load {}/{n} is over 3/4", s.used);
        let mut longest = 1;
        for i in (0..n).filter(|&i| s.slots[i].flow != 0) {
            let d = disp(i);
            longest = longest.max(d as u64 + 1);
            for k in 1..=d {
                let between = (i + n - k) % n;
                assert_ne!(s.slots[between].flow, 0, "hole at {between} before {i}");
            }
            let next = (i + 1) % n;
            if s.slots[next].flow != 0 {
                assert!(
                    disp(next) <= d + 1,
                    "displacement jumps from {d} at {i} to {} at {next}",
                    disp(next)
                );
            }
        }
        longest
    }

    /// Check every shard of `ft`, then probe each of `misses` (tuples
    /// absent from it): a miss probe may visit at most one slot more
    /// than its shard's longest hit probe.
    fn check_index(ft: &FlowTable, misses: &[FiveTuple]) {
        let longest: Vec<u64> = ft.index.iter().map(check_shard).collect();
        for t in misses {
            let h = tuple_hash(t);
            let k = shard_of(h);
            let (found, steps) = ft.index[k].find(h, t, &ft.keys);
            assert!(found.is_err(), "{t:?} is not in the table");
            assert!(
                steps <= longest[k] + 1,
                "miss probe of {steps} slots, longest hit {}",
                longest[k]
            );
        }
    }

    #[test]
    fn index_keeps_its_robin_hood_invariants_under_churn() {
        // Only UDP tuples are ever installed or classified.
        let misses: Vec<FiveTuple> = (0..64)
            .map(|n| FiveTuple::synthetic(n * 7, Proto::Tcp))
            .collect();
        let mut ft = aging_table();
        let mut ev = Vec::new();
        for round in 0..8u32 {
            for n in 0..300u32 {
                let t = FiveTuple::synthetic(round * 131 + n, Proto::Udp);
                if n % 16 == 0 {
                    ft.install(t, ChainId(1));
                } else {
                    ft.classify(&t, 64).unwrap();
                }
                check_index(&ft, &misses);
            }
            ft.age(1, &mut ev);
            check_index(&ft, &misses);
        }
        let s = ft.stats();
        assert!(s.evicted > 0 && s.recycled > 0, "{s:?}");
    }

    #[test]
    fn one_tag_cluster_of_300_slots_finds_and_removes_every_flow() {
        const N: u32 = 300;
        let h = 0x0123_4567_89ab_cdef;
        let keys: FlowColumn<FiveTuple> = (0..N)
            .map(|n| FiveTuple::synthetic(n, Proto::Udp))
            .collect();
        let mut shard = Shard::default();
        for f in 0..N {
            let (Err(at), _) = shard.find(h, &keys[f as usize], &keys) else {
                panic!("flow {f} found before its insert");
            };
            shard.insert(h, f, at);
            check_shard(&shard);
        }
        assert_eq!(shard.slots.len(), 512);
        // Equal homes keep insertion order, through every grow too.
        for f in 0..N {
            let (found, steps) = shard.find(h, &keys[f as usize], &keys);
            assert_eq!(found.map(|i| shard.slots[i].flow), Ok(f + 1));
            assert_eq!(steps, u64::from(f) + 1);
        }
        // Odd flows first (holes inside the cluster), then the even ones
        // from the front.
        let order: Vec<u32> = (1..N).step_by(2).chain((0..N).step_by(2)).collect();
        for (k, &f) in order.iter().enumerate() {
            shard.remove(h, &keys[f as usize], &keys);
            check_shard(&shard);
            assert!(shard.find(h, &keys[f as usize], &keys).0.is_err());
            for &g in &order[k + 1..] {
                let (found, _) = shard.find(h, &keys[g as usize], &keys);
                assert_eq!(found.map(|i| shard.slots[i].flow), Ok(g + 1));
            }
        }
        assert_eq!(shard.used, 0);
        assert!(shard.slots.iter().all(|s| s.flow == 0));
    }

    #[test]
    fn probe_lengths_stay_bounded_at_scale() {
        let mut ft = FlowTable::new();
        for n in 0..100_000u32 {
            ft.install(FiveTuple::synthetic(n, Proto::Udp), ChainId(0));
        }
        let s = ft.stats();
        assert_eq!(s.live, 100_000);
        assert!(
            s.max_probe <= 64,
            "probe length {} exploded at 100k flows",
            s.max_probe
        );
    }
}
