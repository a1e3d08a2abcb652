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
//!   compared on probe) and `slots` (chain, aging stamp and packet
//!   counter, 16 B, written on every classify). A probe that misses on
//!   the tag never loads a key, and a classify writes one 16-byte slot.
//!   Chunked columns grow without copying, so the table's per-flow state
//!   is 32 B per flow plus the index, with no doubling slack.
//! - **Sharded open addressing.** The exact-match index is a set of
//!   power-of-two linear-probing shards selected by the *high* bits of a
//!   seed-free multiply-xor tuple hash (in-shard position uses the low
//!   bits). Each 8-byte slot holds the hash's low 32 bits as a tag beside
//!   `flow + 1`, so probe mismatches, rehash and deletion work from the
//!   slot alone; only a tag match loads the flow's key. A shard doubles
//!   when an insert would pass 1/2 occupancy and rehashes alone, so the
//!   amortized rehash spike is 1/64th of a monolithic table's. The
//!   pre-shard flat table
//!   survives as a differential oracle: select per table via
//!   [`FlowTable::with_kind`] / [`FlowTableKind`], or build flat-default
//!   with `--features flat-flowtable`. Ids, classification results and
//!   eviction order are byte-identical across backends (CI
//!   `bench-variants` matrix); only internal probe/rehash counters differ, and those go to
//!   `BENCH_timings.json` only.
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
//!   frame by frame. A wildcard miss installs into the empty slot its
//!   miss probe stopped at instead of probing again.
//! - **Bulk classification.** [`FlowTable::classify_runs`] classifies an
//!   RX poll's runs in two passes, the way DPDK's bulk hash lookup does:
//!   pass 1 hashes every run and prefetches its home slot, pass 2
//!   classifies them in order with the saved hashes. The slot misses of a
//!   large table overlap instead of being waited out one by one. Pass 1
//!   changes no state and carries only hashes into pass 2: a mint there
//!   can grow a shard and move every slot.

use crate::column::FlowColumn;
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

/// Exact-match index backend selector (mirrors `QueueKind`): the sharded
/// engine is the default, the flat single-table survives as a
/// differential oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowTableKind {
    /// Sharded open addressing: 64 shards by tuple-hash high bits.
    Sharded,
    /// One monolithic open-addressing table (the pre-shard engine).
    Flat,
}

impl FlowTableKind {
    /// The build-default backend: `Sharded`, unless the crate was built
    /// with `--features flat-flowtable`.
    pub fn default_kind() -> Self {
        if cfg!(feature = "flat-flowtable") {
            FlowTableKind::Flat
        } else {
            FlowTableKind::Sharded
        }
    }
}

impl Default for FlowTableKind {
    fn default() -> Self {
        Self::default_kind()
    }
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
/// index backend, so — like `QueueStats` — they are reported only through
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
    /// empty slot its miss probe already found).
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
    chain: ChainId,
    priority: i32,
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
/// 16 bytes.
#[derive(Debug, Clone, Copy)]
struct FlowSlot {
    chain: ChainId,
    last_seen: u32,
    /// Packets classified (since install or recycle).
    packets: u64,
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
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    /// Low 32 bits of the tuple hash.
    tag: u32,
    /// Flow id + 1; `0` marks an empty slot.
    flow: u32,
}

/// One open-addressing region: power-of-two slot array, linear probing,
/// grown at 1/2 occupancy to keep probes short. In-shard position comes
/// from the hash's low bits (the slot tag).
#[derive(Debug, Default)]
struct Shard {
    slots: Vec<Slot>,
    used: usize,
}

impl Shard {
    /// Probe for `tuple`: `Ok(slot)` holding it, or `Err(slot)` — the
    /// empty slot the probe stopped at, where an insert (without growth)
    /// would place it. Plus the probe length.
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
        let mut steps = 1u64;
        loop {
            let s = self.slots[i];
            if s.flow == 0 {
                return (Err(i), steps);
            }
            if s.tag == tag && keys[(s.flow - 1) as usize] == *tuple {
                return (Ok(i), steps);
            }
            i = (i + 1) & mask;
            steps += 1;
        }
    }

    /// Prefetch the home slot a probe for hash `h` starts at.
    #[inline]
    fn prefetch_home(&self, h: u64) {
        if !self.slots.is_empty() {
            prefetch(&self.slots[h as u32 as usize & (self.slots.len() - 1)]);
        }
    }

    /// Insert a flow known to be absent; `vacant` is the empty slot its
    /// miss probe ([`Shard::find`]) stopped at. Only a grow re-probes.
    /// Returns `(rehashes, probe steps)`.
    fn insert(&mut self, h: u64, flow: u32, vacant: usize) -> (u64, u64) {
        let slot = Slot {
            tag: h as u32,
            flow: flow + 1,
        };
        self.used += 1;
        // Keep occupancy at or below 1/2 so probe sequences stay short
        // even under adversarial tuple mixes.
        if self.slots.len() < 2 * self.used {
            self.grow();
            let steps = self.place(slot);
            return (1, steps);
        }
        self.slots[vacant] = slot;
        (0, 0)
    }

    /// Put `slot` into the first empty slot from its home position.
    /// Returns the probe length.
    fn place(&mut self, slot: Slot) -> u64 {
        let mask = self.slots.len() - 1;
        let mut i = slot.tag as usize & mask;
        let mut steps = 1u64;
        while self.slots[i].flow != 0 {
            i = (i + 1) & mask;
            steps += 1;
        }
        self.slots[i] = slot;
        steps
    }

    /// Double the capacity (8 slots when empty) and rehash this shard
    /// only, from the tags alone. Iterating the old slot array keeps the
    /// layout a pure function of the table's install/evict history.
    fn grow(&mut self) {
        let cap = (2 * self.slots.len()).max(8);
        let old = std::mem::take(&mut self.slots);
        self.slots.resize(cap, Slot::default());
        for s in old {
            if s.flow != 0 {
                self.place(s);
            }
        }
    }

    /// Remove `tuple` with backward-shift deletion (no tombstones: later
    /// entries of the probe cluster are pulled back so lookups stay
    /// correct and probe lengths do not rot as flows churn).
    fn remove(&mut self, h: u64, tuple: &FiveTuple, keys: &FlowColumn<FiveTuple>) {
        let (Ok(mut i), _) = self.find(h, tuple, keys) else {
            return;
        };
        let mask = self.slots.len() - 1;
        self.slots[i] = Slot::default();
        self.used -= 1;
        let mut j = i;
        loop {
            j = (j + 1) & mask;
            let s = self.slots[j];
            if s.flow == 0 {
                return;
            }
            let home = s.tag as usize & mask;
            // `s` may move into the hole iff its home slot is at or
            // before the hole in cyclic probe order.
            if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(i) & mask) {
                self.slots[i] = s;
                self.slots[j] = Slot::default();
                i = j;
            }
        }
    }
}

/// The exact-match index: one shard (flat oracle) or 64 (sharded engine).
#[derive(Debug)]
enum Index {
    Flat(Shard),
    Sharded(Vec<Shard>),
}

impl Index {
    fn with_kind(kind: FlowTableKind) -> Self {
        match kind {
            FlowTableKind::Flat => Index::Flat(Shard::default()),
            FlowTableKind::Sharded => {
                let mut shards = Vec::with_capacity(SHARDS);
                shards.resize_with(SHARDS, Shard::default);
                Index::Sharded(shards)
            }
        }
    }

    #[inline]
    fn shard(&self, h: u64) -> &Shard {
        match self {
            Index::Flat(s) => s,
            Index::Sharded(v) => &v[(h >> (64 - SHARD_BITS)) as usize],
        }
    }

    #[inline]
    fn shard_mut(&mut self, h: u64) -> &mut Shard {
        match self {
            Index::Flat(s) => s,
            Index::Sharded(v) => &mut v[(h >> (64 - SHARD_BITS)) as usize],
        }
    }

    fn shard_count(&self) -> usize {
        match self {
            Index::Flat(_) => 1,
            Index::Sharded(v) => v.len(),
        }
    }

    fn slot_count(&self) -> usize {
        match self {
            Index::Flat(s) => s.slots.len(),
            Index::Sharded(v) => v.iter().map(|s| s.slots.len()).sum(),
        }
    }

    /// Bytes of slot storage allocated across shards.
    fn heap_bytes(&self) -> usize {
        let shard = |s: &Shard| s.slots.capacity() * std::mem::size_of::<Slot>();
        match self {
            Index::Flat(s) => shard(s),
            Index::Sharded(v) => v.iter().map(shard).sum(),
        }
    }
}

/// 5-tuple flow table: exact-match entries backed by prioritized wildcard
/// rules. See the module docs for the engine layout; all ordered views
/// (iteration, the eviction scan) go through flow-id order, never the
/// index, so external behavior is identical across index backends.
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
    wildcards: Vec<WildcardRule>,
    index: Index,
    kind: FlowTableKind,
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
        Self::with_kind(FlowTableKind::default_kind())
    }
}

impl FlowTable {
    /// An empty table on the build-default backend.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty table on an explicit index backend.
    pub fn with_kind(kind: FlowTableKind) -> Self {
        FlowTable {
            keys: FlowColumn::new(),
            slots: FlowColumn::new(),
            free: Vec::new(),
            live: 0,
            epoch: 0,
            classified_packets: 0,
            forgotten_packets: 0,
            wildcards: Vec::new(),
            index: Index::with_kind(kind),
            kind,
            stats: FlowTableStats::default(),
            memo: NO_MEMO,
            // Placeholder: never read while the memo is disarmed.
            memo_key: FiveTuple::synthetic(0, crate::Proto::Udp),
            hashes: Vec::new(),
        }
    }

    /// The index backend this table runs on.
    pub fn kind(&self) -> FlowTableKind {
        self.kind
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
    /// pinned: they are never aged out.
    pub fn install(&mut self, tuple: FiveTuple, chain: ChainId) -> FlowId {
        let h = tuple_hash(&tuple);
        let (found, steps) = self.index.shard(h).find(h, &tuple, &self.keys);
        self.note_probe(steps);
        match found {
            Ok(slot) => {
                let f = self.index.shard(h).slots[slot].flow - 1;
                let fs = &mut self.slots[f as usize];
                fs.chain = chain;
                fs.last_seen = PINNED;
                FlowId(f)
            }
            Err(vacant) => FlowId(self.mint(h, tuple, chain, PINNED, vacant)),
        }
    }

    /// Mint an entry for `tuple`, known absent from the index: `vacant`
    /// is the empty slot its miss probe stopped at. Shared by
    /// [`FlowTable::install`] (pinned) and the wildcard cache path
    /// (stamped with the current epoch).
    fn mint(&mut self, h: u64, tuple: FiveTuple, chain: ChainId, stamp: u32, vacant: usize) -> u32 {
        let slot = FlowSlot {
            chain,
            last_seen: stamp,
            packets: 0,
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
        let (rehashes, steps) = self.index.shard_mut(h).insert(h, id, vacant);
        self.stats.rehashes += rehashes;
        self.note_probe(steps);
        self.live += 1;
        self.stats.installs += 1;
        id
    }

    /// Install a wildcard rule at `priority` (higher wins on overlap).
    /// The rule list is kept sorted highest-priority-first; binary-search
    /// the insertion point so each install is O(log n) compare + shift,
    /// and equal priorities keep installation order.
    pub fn install_wildcard(&mut self, pattern: TuplePattern, chain: ChainId, priority: i32) {
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
    /// run's tuple and prefetches its home slot; pass 2 classifies with
    /// the saved hashes, so the slot misses of a large table overlap.
    pub fn classify_runs(&mut self, runs: &[FrameRun], out: &mut Vec<Option<(FlowId, ChainId)>>) {
        let mut hashes = std::mem::take(&mut self.hashes);
        hashes.clear();
        // Pass 1 only hints. It carries hashes, never slot positions: a
        // mint in pass 2 can grow a shard and move every slot.
        hashes.extend(runs.iter().map(|run| {
            let h = tuple_hash(&run.head.tuple);
            self.index.shard(h).prefetch_home(h);
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
            let shard = self.index.shard(h);
            let (found, steps) = shard.find(h, tuple, &self.keys);
            let f = match found {
                Ok(slot) => {
                    let f = shard.slots[slot].flow - 1;
                    self.note_probe(steps);
                    self.stats.exact_hits += packets;
                    self.stats.memo_hits += packets - 1;
                    f
                }
                Err(vacant) => {
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
                    self.mint(h, *tuple, chain, self.epoch, vacant)
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
        fs.packets += packets;
        self.classified_packets += packets;
        Some((FlowId(f), fs.chain))
    }

    /// Advance the aging epoch and evict wildcard-learned entries idle
    /// for more than `idle_epochs` completed epochs, appending their ids
    /// (ascending) to `evicted`. Pinned entries always survive. The scan
    /// runs in flow-id order, so eviction (and therefore id recycling) is
    /// identical across index backends. No-op when `idle_epochs == 0`.
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
            self.index.shard_mut(h).remove(h, &tuple, &self.keys);
            let fs = &mut self.slots[id as usize];
            fs.last_seen = DEAD;
            self.forgotten_packets += fs.packets;
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

    /// Look up without mutating counters or aging stamps.
    #[inline]
    pub fn get(&self, tuple: &FiveTuple) -> Option<FlowEntry> {
        let h = tuple_hash(tuple);
        let shard = self.index.shard(h);
        let (found, _) = shard.find(h, tuple, &self.keys);
        found
            .ok()
            .map(|slot| self.entry_of(shard.slots[slot].flow - 1))
    }

    fn entry_of(&self, f: u32) -> FlowEntry {
        let fs = &self.slots[f as usize];
        FlowEntry {
            flow: FlowId(f),
            chain: fs.chain,
            packets: fs.packets,
        }
    }

    /// The chain a flow id is steered onto (for an evicted id awaiting
    /// recycle: the chain it last carried).
    pub fn chain_of(&self, flow: FlowId) -> ChainId {
        self.slots[flow.index()].chain
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
        s.shards = self.index.shard_count() as u64;
        s.slots = self.index.slot_count() as u64;
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
            + self.index.heap_bytes()
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

    fn aging_table(kind: FlowTableKind) -> FlowTable {
        use crate::pattern::{IpPrefix, TuplePattern};
        let mut ft = FlowTable::with_kind(kind);
        ft.install_wildcard(
            TuplePattern::any().from_src(IpPrefix::new(0x0a000000, 8)),
            ChainId(0),
            0,
        );
        ft
    }

    #[test]
    fn aging_evicts_idle_learned_flows_and_recycles_ids() {
        let mut ft = aging_table(FlowTableKind::default_kind());
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
        let mut ft = aging_table(FlowTableKind::default_kind());
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
        let mut ft = aging_table(FlowTableKind::default_kind());
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
    fn backends_agree_under_install_classify_evict_churn() {
        let mut sharded = aging_table(FlowTableKind::Sharded);
        let mut flat = aging_table(FlowTableKind::Flat);
        for round in 0..6u32 {
            for n in 0..200u32 {
                let t = FiveTuple::synthetic(round * 97 + n, Proto::Udp);
                let a = sharded.classify(&t, 64);
                let b = flat.classify(&t, 64);
                assert_eq!(a, b);
            }
            let (mut ev_s, mut ev_f) = (Vec::new(), Vec::new());
            sharded.age(1, &mut ev_s);
            flat.age(1, &mut ev_f);
            assert_eq!(ev_s, ev_f, "eviction order identical across backends");
            assert_eq!(sharded.len(), flat.len());
            assert_eq!(sharded.id_space(), flat.id_space());
        }
        assert_eq!(
            sharded.stats().evicted,
            flat.stats().evicted,
            "same churn totals"
        );
        assert!(sharded.stats().shards == SHARDS as u64 && flat.stats().shards == 1);
    }

    #[test]
    fn memo_repeats_hit_without_probing_and_never_resurrects_evicted() {
        let mut ft = aging_table(FlowTableKind::default_kind());
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
    fn shards_double_at_half_occupancy() {
        // Growth keeps live ≤ capacity/2 with the smallest power of two:
        // capacity stays within 2×–4× live, never more.
        let mut ft = FlowTable::with_kind(FlowTableKind::Flat);
        for n in 1..=1000u32 {
            ft.install(FiveTuple::synthetic(n, Proto::Udp), ChainId(0));
            let want = (2 * n as u64).next_power_of_two().max(8);
            assert_eq!(ft.stats().slots, want, "{n} flows");
        }
        assert_eq!(ft.stats().rehashes, 9, "8 → 2048 slots");
    }

    #[test]
    fn learned_flows_cost_32_bytes_of_columns_plus_index_slots() {
        use crate::column::FLOW_CHUNK;
        assert_eq!(std::mem::size_of::<FiveTuple>(), 16);
        assert_eq!(std::mem::size_of::<FlowSlot>(), 16);
        const N: u32 = (1 << 18) + 1;
        let mut ft = aging_table(FlowTableKind::Sharded);
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
        assert_eq!(ft.heap_bytes(), 32 * entries + 8 * slots);
        // 64 shards of 8,192 or 16,384 slots: ~24.5 B of index per flow.
        assert_eq!(slots, 802_816);
        assert_eq!(ft.heap_bytes(), 16_908_288);
    }

    #[test]
    fn probe_lengths_stay_bounded_at_scale() {
        let mut ft = FlowTable::with_kind(FlowTableKind::Sharded);
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
