//! Property-based tests for rings, mempool and flow table.

#![forbid(unsafe_code)]

use nfv_des::SimTime;
use nfv_pkt::WireFrame;
use nfv_pkt::{ChainId, Ecn, FlowId, FlowTableStats, FrameRun, Nic, TuplePattern};
use nfv_pkt::{Enqueue, FiveTuple, FlowTable, Mempool, Packet, PacketRun, PktId, Proto, Ring};
use nfv_pkt::{FlowColumn, FLOW_CHUNK};
use proptest::prelude::*;
use std::collections::{BTreeMap, VecDeque};

/// Reference model of the flow table's external contract: dense LIFO-
/// recycled ids, pinned-vs-learned aging, epoch eviction, cumulative
/// forgotten counters. Keyed by synthetic tuple index, no hashing at all.
#[derive(Default)]
struct ModelTable {
    live: BTreeMap<u16, ModelFlow>,
    free: Vec<u32>,
    next_id: u32,
    epoch: u32,
    wildcards: Vec<(i32, u32)>, // (priority, install seq) → chain by seq
    wildcard_chains: Vec<ChainId>,
    forgotten_packets: u64,
    /// Tuple the last-flow memo names (cleared when it is evicted).
    memo: Option<u16>,
    /// Expected `FlowTableStats` counters (those not tied to the index layout).
    stats: FlowTableStats,
}

struct ModelFlow {
    id: u32,
    chain: ChainId,
    packets: u64,
    pinned: bool,
    last_seen: u32,
}

impl ModelTable {
    fn mint(&mut self, n: u16, chain: ChainId, pinned: bool) -> u32 {
        self.stats.installs += 1;
        let id = match self.free.pop() {
            Some(id) => {
                self.stats.recycled += 1;
                id
            }
            None => {
                self.next_id += 1;
                self.next_id - 1
            }
        };
        self.live.insert(
            n,
            ModelFlow {
                id,
                chain,
                packets: 0,
                pinned,
                last_seen: self.epoch,
            },
        );
        id
    }

    fn install(&mut self, n: u16, chain: ChainId) -> u32 {
        if let Some(f) = self.live.get_mut(&n) {
            f.chain = chain;
            f.pinned = true;
            return f.id;
        }
        self.mint(n, chain, true)
    }

    fn install_wildcard(&mut self, chain: ChainId, priority: i32) {
        let seq = self.wildcard_chains.len() as u32;
        self.wildcards.push((priority, seq));
        self.wildcard_chains.push(chain);
    }

    /// Winning rule: highest priority, then earliest install (all model
    /// rules are match-anything patterns).
    fn wildcard_winner(&self) -> Option<ChainId> {
        self.wildcards
            .iter()
            .max_by_key(|&&(p, seq)| (p, std::cmp::Reverse(seq)))
            .map(|&(_, seq)| self.wildcard_chains[seq as usize])
    }

    fn classify(&mut self, n: u16) -> Option<(u32, ChainId)> {
        self.classify_matching(n, true)
    }

    /// Classify tuple `n`; `matched` says whether the wildcard rules match
    /// it at all (an unmatched tuple is classified only by an install).
    fn classify_matching(&mut self, n: u16, matched: bool) -> Option<(u32, ChainId)> {
        let epoch = self.epoch;
        let memo_hit = self.memo == Some(n);
        if let Some(f) = self.live.get_mut(&n) {
            f.packets += 1;
            if !f.pinned {
                f.last_seen = epoch;
            }
            self.stats.exact_hits += 1;
            self.stats.memo_hits += memo_hit as u64;
            self.memo = Some(n);
            return Some((f.id, f.chain));
        }
        let chain = self.wildcard_winner().filter(|_| matched)?;
        self.stats.wildcard_hits += 1;
        self.memo = Some(n);
        let id = self.mint(n, chain, false);
        self.live.get_mut(&n).unwrap().packets += 1;
        Some((id, chain))
    }

    fn age(&mut self, idle_epochs: u32) -> Vec<u32> {
        self.epoch += 1;
        let epoch = self.epoch;
        let victims: Vec<u16> = self
            .live
            .iter()
            .filter(|(_, f)| !f.pinned && epoch - f.last_seen > idle_epochs)
            .map(|(&n, _)| n)
            .collect();
        let mut ids: Vec<u32> = Vec::new();
        for n in victims {
            if self.memo == Some(n) {
                self.memo = None;
            }
            self.stats.evicted += 1;
            let f = self.live.remove(&n).unwrap();
            self.forgotten_packets += f.packets;
            ids.push(f.id);
        }
        // The engine scans (and frees) in ascending id order.
        ids.sort_unstable();
        self.free.extend(ids.iter().copied());
        ids
    }
}

/// One step of the interleaved churn script.
#[derive(Debug, Clone)]
enum FtOp {
    Install { n: u16, chain: u8 },
    InstallWildcard { chain: u8, priority: i32 },
    Classify { n: u16 },
    Age { idle_epochs: u32 },
}

fn ft_op() -> impl Strategy<Value = FtOp> {
    // The stand-in `prop_oneof!` has no arm weights; repeating the
    // classify arm biases the script toward data-path traffic.
    prop_oneof![
        (0u16..48, 0u8..6).prop_map(|(n, chain)| FtOp::Install { n, chain }),
        (0u8..6, 0u8..4).prop_map(|(chain, priority)| FtOp::InstallWildcard {
            chain,
            priority: priority as i32,
        }),
        (0u16..48).prop_map(|n| FtOp::Classify { n }),
        (0u16..48).prop_map(|n| FtOp::Classify { n }),
        (0u16..48).prop_map(|n| FtOp::Classify { n }),
        (0u16..48).prop_map(|n| FtOp::Classify { n }),
        (1u32..3).prop_map(|idle_epochs| FtOp::Age { idle_epochs }),
    ]
}

/// One step of the `FlowColumn` script. Positions are fractions of the
/// current length (of three chunks for a resize, which only grows), so
/// every case reaches across chunk boundaries.
#[derive(Debug, Clone)]
enum ColOp {
    Push { n: u16 },
    Resize { frac: u16 },
    Set { frac: u16, value: u32 },
    Get { frac: u16 },
}

fn col_op() -> impl Strategy<Value = ColOp> {
    prop_oneof![
        (1u16..300).prop_map(|n| ColOp::Push { n }),
        (0u16..=1000).prop_map(|frac| ColOp::Resize { frac }),
        (0u16..=1000, 0u32..1_000_000).prop_map(|(frac, value)| ColOp::Set { frac, value }),
        (0u16..=1100).prop_map(|frac| ColOp::Get { frac }),
    ]
}

/// One step of the burst-classification churn script.
#[derive(Debug, Clone)]
enum BurstOp {
    Install {
        n: u16,
        chain: u8,
    },
    InstallWildcard {
        chain: u8,
        priority: i32,
    },
    /// A NIC queue of `(tuple, frames)` runs; adjacent runs may share a
    /// tuple.
    Burst {
        runs: Vec<(u16, u8)>,
    },
    Age {
        idle_epochs: u32,
    },
}

fn burst_op() -> impl Strategy<Value = BurstOp> {
    // A small tuple space so bursts repeat flows across evictions and
    // land on recycled ids.
    prop_oneof![
        (0u16..12, 0u8..4).prop_map(|(n, chain)| BurstOp::Install { n, chain }),
        (0u8..4, 0u8..3).prop_map(|(chain, priority)| BurstOp::InstallWildcard {
            chain,
            priority: priority as i32,
        }),
        prop::collection::vec((0u16..12, 1u8..5), 1..12).prop_map(|runs| BurstOp::Burst { runs }),
        prop::collection::vec((0u16..12, 1u8..5), 1..12).prop_map(|runs| BurstOp::Burst { runs }),
        (1u32..3).prop_map(|idle_epochs| BurstOp::Age { idle_epochs }),
    ]
}

/// Where a run of a bulk-classification batch takes its tuple from.
#[derive(Debug, Clone, Copy)]
enum RunTuple {
    /// One of a few UDP tuples, learned early and met often.
    Hot(u16),
    /// The previous run's tuple again: a memo hit when that one classified.
    Again,
    /// A UDP tuple never seen before: a wildcard mint, growing its shard
    /// whenever the mint passes 3/4 occupancy.
    Fresh,
    /// A TCP tuple, which the UDP-only wildcard rules never match:
    /// unclassified unless installed.
    Tcp(u16),
}

/// One step of the bulk-classification churn script.
#[derive(Debug, Clone)]
enum BulkOp {
    Install {
        n: u16,
        chain: u8,
    },
    InstallWildcard {
        chain: u8,
        priority: i32,
    },
    /// One RX poll: `(tuple, frames)` runs, classified as one batch.
    Batch {
        runs: Vec<(RunTuple, u8)>,
    },
    Age {
        idle_epochs: u32,
    },
}

/// Model keys `0..8` are the hot UDP tuples, `8..12` the TCP tuples and
/// `12..` the fresh UDP tuples, in order of first use.
const BULK_TCP: std::ops::Range<u16> = 8..12;
const BULK_FRESH: u16 = 12;

fn bulk_tuple(n: u16) -> FiveTuple {
    let proto = if BULK_TCP.contains(&n) {
        Proto::Tcp
    } else {
        Proto::Udp
    };
    FiveTuple::synthetic(n as u32, proto)
}

fn run_tuple() -> impl Strategy<Value = RunTuple> {
    prop_oneof![
        (0u16..8).prop_map(RunTuple::Hot),
        Just(RunTuple::Again),
        Just(RunTuple::Fresh),
        Just(RunTuple::Fresh),
        BULK_TCP.prop_map(RunTuple::Tcp),
    ]
}

fn bulk_op() -> impl Strategy<Value = BulkOp> {
    prop_oneof![
        (0u16..BULK_TCP.end, 0u8..4).prop_map(|(n, chain)| BulkOp::Install { n, chain }),
        (0u8..4, 0u8..3).prop_map(|(chain, priority)| BulkOp::InstallWildcard {
            chain,
            priority: priority as i32,
        }),
        prop::collection::vec((run_tuple(), 1u8..4), 1..48).prop_map(|runs| BulkOp::Batch { runs }),
        prop::collection::vec((run_tuple(), 1u8..4), 1..48).prop_map(|runs| BulkOp::Batch { runs }),
        (1u32..3).prop_map(|idle_epochs| BulkOp::Age { idle_epochs }),
    ]
}

fn frame(n: u16, size: u32) -> WireFrame {
    WireFrame {
        tuple: FiveTuple::synthetic(n as u32, Proto::Udp),
        size,
        seq: 0,
        cost_class: 0,
        ecn: Ecn::NotEct,
        arrival: SimTime::ZERO,
    }
}

proptest! {
    /// The ring behaves exactly like a bounded VecDeque under a random
    /// enqueue/dequeue script, and its counters add up.
    #[test]
    fn ring_matches_reference_model(
        capacity in 1usize..64,
        script in prop::collection::vec(prop::bool::ANY, 1..500),
    ) {
        let mut ring = Ring::new(capacity);
        let mut model: VecDeque<u32> = VecDeque::new();
        let mut next = 0u32;
        for op_is_enqueue in script {
            if op_is_enqueue {
                let ok = ring.enqueue(PktId(next)).is_ok();
                if model.len() < capacity {
                    prop_assert!(ok);
                    model.push_back(next);
                } else {
                    prop_assert!(!ok);
                }
                next += 1;
            } else {
                prop_assert_eq!(ring.dequeue(), model.pop_front().map(PktId));
            }
            prop_assert_eq!(ring.len(), model.len());
        }
        prop_assert_eq!(ring.enqueued, ring.dequeued + ring.len() as u64);
    }

    /// Mempool: in_use + free == capacity at every step; allocated ids are
    /// unique; freed packets round-trip their content.
    #[test]
    fn mempool_conservation(
        capacity in 1usize..64,
        script in prop::collection::vec(prop::bool::ANY, 1..500),
    ) {
        let mut pool = Mempool::new(capacity);
        let mut live: Vec<PktId> = Vec::new();
        let mut seq = 0u64;
        for op_is_alloc in script {
            if op_is_alloc {
                let mut pkt = Packet::new(FlowId(0), ChainId(0), 64, SimTime::ZERO);
                pkt.seq = seq;
                match pool.alloc(pkt) {
                    Some(id) => {
                        prop_assert!(!live.contains(&id), "duplicate live id");
                        prop_assert_eq!(pool.get(id).head.seq, seq);
                        live.push(id);
                        seq += 1;
                    }
                    None => prop_assert_eq!(live.len(), capacity),
                }
            } else if let Some(id) = live.pop() {
                pool.free(id);
            }
            prop_assert_eq!(pool.in_use(), live.len());
        }
    }

    /// Run slots against a per-packet pool model (one buffer per packet):
    /// sized run allocations, allocations from a full pool, splits, frees
    /// and double frees leave the same packets live and the same
    /// `in_use`, `available`, `high_watermark` and `alloc_failures`.
    #[test]
    fn mempool_run_slots_match_the_per_packet_model(
        capacity in 1usize..40,
        script in prop::collection::vec((0u8..4, 1u32..9, 0u32..=255), 1..200),
    ) {
        let mut pool = Mempool::new(capacity);
        // Model: the live packets' seqs per run, plus the counters a pool
        // of single-packet buffers keeps.
        let mut runs: Vec<(PktId, Vec<u64>)> = Vec::new();
        let (mut in_use, mut hwm, mut failures, mut seq) = (0usize, 0usize, 0u64, 0u64);
        for (op, count, pick) in script {
            match op {
                0 => {
                    // Entry sizes a run to the room; an empty pool refuses
                    // every packet of the run.
                    let room = (capacity - in_use) as u32;
                    let n = if room == 0 { count } else { count.min(room) };
                    let mut head = Packet::new(FlowId(0), ChainId(0), 64, SimTime::ZERO);
                    head.seq = seq;
                    let got = pool.alloc_run(PacketRun { head, count: n });
                    if in_use == capacity {
                        prop_assert!(got.is_none());
                        failures += u64::from(n);
                    } else {
                        let id = got.expect("sized to the room");
                        prop_assert!(runs.iter().all(|(live, _)| *live != id));
                        runs.push((id, (seq..seq + u64::from(n)).collect()));
                        in_use += n as usize;
                        hwm = hwm.max(in_use);
                    }
                    seq += u64::from(n);
                }
                1 if !runs.is_empty() => {
                    let k = pick as usize % runs.len();
                    let n = runs[k].1.len() as u32;
                    if n > 1 {
                        let keep = 1 + pick % (n - 1);
                        let tail = pool.split(runs[k].0, keep);
                        let seqs = runs[k].1.split_off(keep as usize);
                        runs.push((tail, seqs));
                    }
                }
                2 if !runs.is_empty() => {
                    let (id, seqs) = runs.swap_remove(pick as usize % runs.len());
                    pool.free(id);
                    in_use -= seqs.len();
                    // A second free of the slot panics and changes nothing.
                    let again = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        pool.free(id)
                    }));
                    prop_assert!(again.is_err(), "double free accepted");
                }
                _ => {}
            }
            prop_assert_eq!(
                (pool.in_use(), pool.available(), pool.high_watermark(), pool.alloc_failures),
                (in_use, capacity - in_use, hwm, failures)
            );
            for (id, seqs) in &runs {
                let got: Vec<u64> = pool.get(*id).packets().map(|p| p.seq).collect();
                prop_assert_eq!(&got, seqs);
            }
        }
    }

    /// Run entries in a ring against a per-packet `VecDeque<PktId>`: run
    /// enqueues that split at the room, refusals and limited run
    /// dequeues leave the same packets queued, in order, and the same
    /// `len`, `room`, `enqueued`, `dequeued` and `full_drops`.
    #[test]
    fn ring_run_entries_match_the_per_packet_model(
        capacity in 1usize..24,
        script in prop::collection::vec((prop::bool::ANY, 1u32..9), 1..300),
    ) {
        let mut pool = Mempool::new(64);
        let mut ring = Ring::new(capacity);
        // Model entries are packets; `PktId(seq)` names packet `seq`.
        let mut model: VecDeque<PktId> = VecDeque::new();
        let (mut enqueued, mut dequeued, mut full_drops) = (0u64, 0u64, 0u64);
        let mut seq = 0u64;
        for (op_is_enqueue, n) in script {
            if op_is_enqueue {
                let mut head = Packet::new(FlowId(0), ChainId(0), 64, SimTime::ZERO);
                head.seq = seq;
                let id = pool.alloc_run(PacketRun { head, count: n }).expect("pool is large");
                if let Some(tail) = ring.enqueue_run(id, &mut pool) {
                    ring.refuse(u64::from(pool.get(tail).count));
                    pool.free(tail);
                }
                for s in seq..seq + u64::from(n) {
                    if model.len() < capacity {
                        model.push_back(PktId(s as u32));
                        enqueued += 1;
                    } else {
                        full_drops += 1;
                    }
                }
                seq += u64::from(n);
            } else if let Some(id) = ring.dequeue_run(n, &mut pool) {
                let run = pool.get(id);
                prop_assert!(run.count <= n);
                for p in run.packets() {
                    prop_assert_eq!(model.pop_front(), Some(PktId(p.seq as u32)));
                    dequeued += 1;
                }
                pool.free(id);
            } else {
                prop_assert!(model.is_empty());
            }
            let queued: Vec<PktId> = ring
                .iter()
                .flat_map(|id| pool.get(id).packets().map(|p| PktId(p.seq as u32)))
                .collect();
            prop_assert_eq!(&queued, &model.iter().copied().collect::<Vec<_>>());
            prop_assert_eq!(
                (ring.len(), ring.room(), ring.enqueued, ring.dequeued, ring.full_drops),
                (model.len(), capacity - model.len(), enqueued, dequeued, full_drops)
            );
            prop_assert_eq!(pool.in_use(), model.len());
        }
    }

    /// Flow table: classification counters equal the number of classify
    /// calls per tuple; ids are stable.
    #[test]
    fn flow_table_counts(tuples in prop::collection::vec(0u32..8, 1..300)) {
        let mut ft = FlowTable::new();
        let mut expected = [0u64; 8];
        for &n in &tuples {
            let t = FiveTuple::synthetic(n, Proto::Udp);
            let id = ft.install(t, ChainId(n));
            let (flow, chain) = ft.classify(&t, 64).unwrap();
            prop_assert_eq!(flow, id);
            prop_assert_eq!(chain, ChainId(n));
            expected[n as usize] += 1;
        }
        for n in 0u32..8 {
            let t = FiveTuple::synthetic(n, Proto::Udp);
            if let Some(e) = ft.get(&t) {
                prop_assert_eq!(e.packets, expected[n as usize]);
            } else {
                prop_assert_eq!(expected[n as usize], 0);
            }
        }
    }

    /// Interleaved install / install_wildcard / classify / eviction churn:
    /// the flow table and a BTreeMap model agree on classification
    /// results, flow ids, counters, eviction order and the conservation
    /// accumulator at every step.
    #[test]
    fn flow_table_backends_match_model_under_churn(
        script in prop::collection::vec(ft_op(), 1..400),
    ) {
        let mut table = FlowTable::new();
        let mut model = ModelTable::default();
        let mut scratch = Vec::new();
        for op in script {
            match op {
                FtOp::Install { n, chain } => {
                    let t = FiveTuple::synthetic(n as u32, Proto::Udp);
                    let c = ChainId(chain as u32);
                    prop_assert_eq!(table.install(t, c), FlowId(model.install(n, c)));
                }
                FtOp::InstallWildcard { chain, priority } => {
                    let c = ChainId(chain as u32);
                    table.install_wildcard(TuplePattern::any(), c, priority);
                    model.install_wildcard(c, priority);
                }
                FtOp::Classify { n } => {
                    let t = FiveTuple::synthetic(n as u32, Proto::Udp);
                    let rm = model.classify(n).map(|(id, c)| (FlowId(id), c));
                    prop_assert_eq!(table.classify(&t, 64), rm);
                }
                FtOp::Age { idle_epochs } => {
                    scratch.clear();
                    table.age(idle_epochs, &mut scratch);
                    let em: Vec<FlowId> =
                        model.age(idle_epochs).into_iter().map(FlowId).collect();
                    prop_assert_eq!(&scratch, &em);
                }
            }
            prop_assert_eq!(table.len(), model.live.len());
        }
        // Terminal state: every tuple's counters and chain agree.
        for n in 0u16..48 {
            let t = FiveTuple::synthetic(n as u32, Proto::Udp);
            match (table.get(&t), model.live.get(&n)) {
                (Some(e), Some(m)) => {
                    prop_assert_eq!(e.flow, FlowId(m.id));
                    prop_assert_eq!(e.chain, m.chain);
                    prop_assert_eq!(e.packets, m.packets);
                }
                (None, None) => {}
                (e, _) => prop_assert!(false, "presence mismatch for tuple {}: {:?}", n, e),
            }
        }
        prop_assert_eq!(table.forgotten_packets(), model.forgotten_packets);
        // The running lifetime total must equal live counters + forgotten
        // (the O(1) conservation-ledger invariant).
        let live_sum: u64 = table.entries().map(|e| e.packets).sum();
        prop_assert_eq!(table.classified_packets(), live_sum + model.forgotten_packets);
    }

    /// Run classification (one `classify_run` per `FrameRun` of the NIC
    /// queue) is indistinguishable from per-frame `classify` — same
    /// per-frame results as the BTreeMap model, same `entries()`, same
    /// `FlowTableStats` (hits, memo hits, probe steps, installs, rehashes)
    /// and same memo state — under install / wildcard / eviction churn,
    /// including runs of a flow evicted or recycled since its last burst
    /// and adjacent runs of one tuple.
    #[test]
    fn burst_classification_matches_per_frame_and_model(
        script in prop::collection::vec(burst_op(), 1..200),
    ) {
        let mut burst = FlowTable::new();
        let mut per_frame = FlowTable::new();
        let mut model = ModelTable::default();
        let (mut ev_b, mut ev_p) = (Vec::new(), Vec::new());
        for op in script {
            match op {
                BurstOp::Install { n, chain } => {
                    let t = FiveTuple::synthetic(n as u32, Proto::Udp);
                    let c = ChainId(chain as u32);
                    let fb = burst.install(t, c);
                    prop_assert_eq!(fb, per_frame.install(t, c));
                    prop_assert_eq!(fb, FlowId(model.install(n, c)));
                }
                BurstOp::InstallWildcard { chain, priority } => {
                    let c = ChainId(chain as u32);
                    burst.install_wildcard(TuplePattern::any(), c, priority);
                    per_frame.install_wildcard(TuplePattern::any(), c, priority);
                    model.install_wildcard(c, priority);
                }
                BurstOp::Burst { runs } => {
                    for (k, &(n, count)) in runs.iter().enumerate() {
                        // Sizes vary run to run, so byte totals are checked.
                        let run = FrameRun {
                            head: frame(n, 64 + 8 * k as u32 + n as u32),
                            count: count as u32,
                        };
                        let class =
                            burst.classify_run(&run.head.tuple, count as u64);
                        for f in run.frames() {
                            let rp = per_frame.classify(&f.tuple, f.size);
                            let rm = model.classify(n).map(|(id, c)| (FlowId(id), c));
                            prop_assert_eq!(class, rp, "tuple {}", n);
                            prop_assert_eq!(rp, rm);
                        }
                    }
                }
                BurstOp::Age { idle_epochs } => {
                    ev_b.clear();
                    ev_p.clear();
                    burst.age(idle_epochs, &mut ev_b);
                    per_frame.age(idle_epochs, &mut ev_p);
                    let em: Vec<FlowId> =
                        model.age(idle_epochs).into_iter().map(FlowId).collect();
                    prop_assert_eq!(&ev_b, &ev_p);
                    prop_assert_eq!(&ev_b, &em);
                }
            }
            let stats = burst.stats();
            prop_assert_eq!(stats, per_frame.stats());
            // Hit/install/churn counters against the model's memo logic.
            let m = &model.stats;
            prop_assert_eq!(
                (stats.exact_hits, stats.memo_hits, stats.wildcard_hits),
                (m.exact_hits, m.memo_hits, m.wildcard_hits)
            );
            prop_assert_eq!(
                (stats.installs, stats.recycled, stats.evicted),
                (m.installs, m.recycled, m.evicted)
            );
            prop_assert!(burst.entries().eq(per_frame.entries()), "entries diverged");
            prop_assert_eq!(burst.classified_packets(), per_frame.classified_packets());
            prop_assert_eq!(burst.len(), model.live.len());
        }
        // Memo state: the same probe classifies identically and moves the
        // same counters (a memo hit on one side only would show here).
        for n in 0u16..12 {
            let t = FiveTuple::synthetic(n as u32, Proto::Udp);
            prop_assert_eq!(burst.classify(&t, 64), per_frame.classify(&t, 64));
            prop_assert_eq!(burst.stats(), per_frame.stats());
        }
    }

    /// Bulk classification (`classify_runs` over a whole RX poll) equals
    /// one `classify_run` per run and the per-frame BTreeMap model:
    /// per-run results, every `FlowTableStats` field,
    /// `len`, `entries()` and the memo state the next classification
    /// meets. Batches mix adjacent same-tuple runs (memo hits),
    /// unclassified tuples and fresh wildcard mints, which grow shards in
    /// the middle of a batch; aging between batches evicts flows and
    /// recycles their ids.
    #[test]
    fn bulk_classification_matches_per_run_and_model(
        script in prop::collection::vec(bulk_op(), 1..120),
    ) {
        let mut bulk = FlowTable::new();
        let mut per_run = FlowTable::new();
        let mut model = ModelTable::default();
        let (mut ev_b, mut ev_r) = (Vec::new(), Vec::new());
        let (mut runs, mut keys, mut out) = (Vec::new(), Vec::new(), Vec::new());
        let mut fresh = BULK_FRESH;
        for op in &script {
            match *op {
                BulkOp::Install { n, chain } => {
                    let (t, c) = (bulk_tuple(n), ChainId(chain as u32));
                    let fb = bulk.install(t, c);
                    prop_assert_eq!(fb, per_run.install(t, c));
                    prop_assert_eq!(fb, FlowId(model.install(n, c)));
                }
                BulkOp::InstallWildcard { chain, priority } => {
                    let (c, udp) = (ChainId(chain as u32), TuplePattern::any().proto(Proto::Udp));
                    bulk.install_wildcard(udp, c, priority);
                    per_run.install_wildcard(udp, c, priority);
                    model.install_wildcard(c, priority);
                }
                BulkOp::Batch { runs: ref spec } => {
                    runs.clear();
                    keys.clear();
                    for (k, &(from, count)) in spec.iter().enumerate() {
                        let n = match from {
                            RunTuple::Hot(n) | RunTuple::Tcp(n) => n,
                            RunTuple::Again => keys.last().copied().unwrap_or(0),
                            RunTuple::Fresh => {
                                fresh += 1;
                                fresh - 1
                            }
                        };
                        keys.push(n);
                        // Sizes vary run to run, so byte totals are checked.
                        let size = 64 + 8 * k as u32 + n as u32;
                        runs.push(FrameRun {
                            head: WireFrame { tuple: bulk_tuple(n), ..frame(n, size) },
                            count: count as u32,
                        });
                    }
                    out.clear();
                    bulk.classify_runs(&runs, &mut out);
                    prop_assert_eq!(out.len(), runs.len());
                    for ((run, &n), &class) in runs.iter().zip(&keys).zip(&out) {
                        let packets = run.count as u64;
                        let rr = per_run.classify_run(&run.head.tuple, packets);
                        prop_assert_eq!(class, rr, "tuple {}", n);
                        for _ in 0..run.count {
                            let matched = !BULK_TCP.contains(&n);
                            let rm = model.classify_matching(n, matched);
                            prop_assert_eq!(rr, rm.map(|(id, c)| (FlowId(id), c)));
                        }
                    }
                    // Memo state: classifying the batch's last tuple
                    // again moves the same counters on all three.
                    let &n = keys.last().unwrap();
                    let t = bulk_tuple(n);
                    let rb = bulk.classify(&t, 64);
                    prop_assert_eq!(rb, per_run.classify(&t, 64));
                    let rm = model.classify_matching(n, !BULK_TCP.contains(&n));
                    prop_assert_eq!(rb, rm.map(|(id, c)| (FlowId(id), c)));
                }
                BulkOp::Age { idle_epochs } => {
                    ev_b.clear();
                    ev_r.clear();
                    bulk.age(idle_epochs, &mut ev_b);
                    per_run.age(idle_epochs, &mut ev_r);
                    let em: Vec<FlowId> =
                        model.age(idle_epochs).into_iter().map(FlowId).collect();
                    prop_assert_eq!(&ev_b, &ev_r);
                    prop_assert_eq!(&ev_b, &em);
                }
            }
            let stats = bulk.stats();
            prop_assert_eq!(stats, per_run.stats());
            let m = &model.stats;
            prop_assert_eq!(
                (stats.exact_hits, stats.memo_hits, stats.wildcard_hits),
                (m.exact_hits, m.memo_hits, m.wildcard_hits)
            );
            prop_assert_eq!(
                (stats.installs, stats.recycled, stats.evicted),
                (m.installs, m.recycled, m.evicted)
            );
            prop_assert!(bulk.entries().eq(per_run.entries()), "entries diverged");
            prop_assert_eq!(bulk.classified_packets(), per_run.classified_packets());
            prop_assert_eq!(bulk.len(), per_run.len());
            prop_assert_eq!(bulk.len(), model.live.len());
        }
    }

    /// The three NIC delivery paths — per-frame `deliver`, `deliver_burst`
    /// and `deliver_runs` — queue the same frames in the same order and
    /// count the same receptions and overflow drops, drained by `take_rx`
    /// or by `poll` in small bursts. Capacity falls mid-run, and seq gaps
    /// and tuple changes must not merge.
    #[test]
    fn nic_delivery_paths_agree(
        capacity in 1usize..40,
        script in prop::collection::vec(((0u8..3, 1u8..8), (prop::bool::ANY, prop::bool::ANY)), 1..40),
    ) {
        let mut nics = [Nic::new(capacity), Nic::new(capacity), Nic::new(capacity)];
        let mut out: [Vec<WireFrame>; 3] = Default::default();
        let mut dropped = [0usize; 3];
        let (mut burst, mut runs) = (Vec::new(), Vec::new());
        let mut seq = 0u64;
        // Drains alternate between `take_rx` and `poll` in bursts of 5
        // (which splits runs at the limit); either way the queue must hold
        // exactly `rx_pending` frames and be empty afterwards.
        let mut polls = 0;
        let mut drain = |nics: &mut [Nic; 3], out: &mut [Vec<WireFrame>; 3]| {
            polls += 1;
            for (nic, out) in nics.iter_mut().zip(out.iter_mut()) {
                let pending = nic.rx_pending();
                let mut polled = 0;
                if polls % 2 == 0 {
                    while let n @ 1.. = nic.poll(5, out) {
                        polled += n;
                    }
                }
                let mut q = Vec::new();
                nic.take_rx(&mut q);
                let n: usize = q.iter().map(|r: &FrameRun| r.count as usize).sum();
                assert_eq!(polled + n, pending);
                out.extend(q.iter().flat_map(|r| r.frames()));
                assert_eq!(nic.rx_pending(), 0);
            }
        };
        for ((t, count), (gap, poll_first)) in script {
            if poll_first {
                dropped[1] += nics[1].deliver_burst(&mut burst);
                dropped[2] += nics[2].deliver_runs(&mut runs);
                drain(&mut nics, &mut out);
            }
            seq += gap as u64;
            let head = WireFrame { seq, ..frame(t as u16, 64) };
            let run = FrameRun { head, count: count as u32 };
            for f in run.frames() {
                if !nics[0].deliver(f) {
                    dropped[0] += 1;
                }
                burst.push(f);
            }
            runs.push(run);
            seq += count as u64;
        }
        dropped[1] += nics[1].deliver_burst(&mut burst);
        dropped[2] += nics[2].deliver_runs(&mut runs);
        prop_assert!(burst.is_empty() && runs.is_empty());
        drain(&mut nics, &mut out);
        prop_assert_eq!(&out[0], &out[1]);
        prop_assert_eq!(&out[0], &out[2]);
        for (nic, d) in nics.iter().zip(dropped) {
            prop_assert_eq!(nic.rx_frames, nics[0].rx_frames);
            prop_assert_eq!(nic.rx_overflow_drops, nics[0].rx_overflow_drops);
            prop_assert_eq!(d as u64, nic.rx_overflow_drops);
        }
        prop_assert_eq!(nics[0].rx_frames, out[0].len() as u64);
    }

    /// `FlowColumn` reads and writes like a `Vec` through pushes,
    /// resizes and random-access writes across chunks.
    #[test]
    fn flow_column_matches_the_vec_model(ops in prop::collection::vec(col_op(), 1..24)) {
        let mut col = FlowColumn::new();
        let mut model: Vec<u32> = Vec::new();
        let at = |frac: u16, len: usize| len * frac as usize / 1000;
        for op in &ops {
            match *op {
                ColOp::Push { n } => {
                    for _ in 0..n {
                        let v = model.len() as u32;
                        col.push(v);
                        model.push(v);
                    }
                }
                ColOp::Resize { frac } => {
                    let n = at(frac, 3 * FLOW_CHUNK + 7).max(model.len());
                    col.resize(n, 9);
                    model.resize(n, 9);
                }
                ColOp::Set { frac, value } => {
                    if !model.is_empty() {
                        let i = at(frac, model.len() - 1);
                        col[i] = value;
                        model[i] = value;
                    }
                }
                ColOp::Get { frac } => {
                    // Up to 10% past the end: `get` answers `None` there.
                    let i = at(frac, model.len());
                    prop_assert_eq!(col.get(i), model.get(i));
                }
            }
            prop_assert_eq!(col.len(), model.len());
            // Less than one chunk above `len`, and within a `Vec`'s
            // doubling while the first chunk is filling.
            prop_assert!(col.capacity() < model.len() + FLOW_CHUNK);
            prop_assert!(col.capacity() <= (2 * model.len()).max(4));
        }
        prop_assert!(col.iter().eq(model.iter()), "id order");
    }

    /// Watermark comparison is exact integer arithmetic at all fill levels.
    #[test]
    fn watermark_exactness(capacity in 1usize..200, pct in 0u32..=100) {
        let mut ring = Ring::new(capacity);
        let mut i = 0u32;
        loop {
            let expect = ring.len() * 100 >= capacity * pct as usize;
            prop_assert_eq!(ring.at_or_above_percent(pct), expect);
            if let Enqueue::Full = ring.enqueue(PktId(i)) {
                break;
            }
            i += 1;
        }
    }
}
