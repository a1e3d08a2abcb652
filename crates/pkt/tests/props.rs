//! Property-based tests for rings, mempool and flow table.

use nfv_des::SimTime;
use nfv_pkt::{ChainId, Ecn, FlowId, FlowTableKind, FlowTableStats, TuplePattern, WireFrame};
use nfv_pkt::{Enqueue, FiveTuple, FlowTable, Mempool, Packet, PktId, Proto, Ring};
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
    /// Expected `FlowTableStats` counters (backend-independent ones).
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
        let chain = self.wildcard_winner()?;
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
    /// A NIC burst: `(tuple, repeats)` runs, adjacent equal tuples merge.
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
                        prop_assert_eq!(pool.get(id).seq, seq);
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
    /// the sharded engine, the flat-table oracle and a BTreeMap model all
    /// agree on classification results, flow ids, counters, eviction order
    /// and the conservation accumulator at every step.
    #[test]
    fn flow_table_backends_match_model_under_churn(
        script in prop::collection::vec(ft_op(), 1..400),
    ) {
        let mut sharded = FlowTable::with_kind(FlowTableKind::Sharded);
        let mut flat = FlowTable::with_kind(FlowTableKind::Flat);
        let mut model = ModelTable::default();
        let mut scratch_s = Vec::new();
        let mut scratch_f = Vec::new();
        for op in script {
            match op {
                FtOp::Install { n, chain } => {
                    let t = FiveTuple::synthetic(n as u32, Proto::Udp);
                    let c = ChainId(chain as u32);
                    let fs = sharded.install(t, c);
                    let ff = flat.install(t, c);
                    let fm = model.install(n, c);
                    prop_assert_eq!(fs, ff);
                    prop_assert_eq!(fs, FlowId(fm));
                }
                FtOp::InstallWildcard { chain, priority } => {
                    let c = ChainId(chain as u32);
                    sharded.install_wildcard(TuplePattern::any(), c, priority);
                    flat.install_wildcard(TuplePattern::any(), c, priority);
                    model.install_wildcard(c, priority);
                }
                FtOp::Classify { n } => {
                    let t = FiveTuple::synthetic(n as u32, Proto::Udp);
                    let rs = sharded.classify(&t, 64);
                    let rf = flat.classify(&t, 64);
                    let rm = model.classify(n).map(|(id, c)| (FlowId(id), c));
                    prop_assert_eq!(rs, rf);
                    prop_assert_eq!(rs, rm);
                }
                FtOp::Age { idle_epochs } => {
                    scratch_s.clear();
                    scratch_f.clear();
                    sharded.age(idle_epochs, &mut scratch_s);
                    flat.age(idle_epochs, &mut scratch_f);
                    let em: Vec<FlowId> =
                        model.age(idle_epochs).into_iter().map(FlowId).collect();
                    prop_assert_eq!(&scratch_s, &scratch_f);
                    prop_assert_eq!(&scratch_s, &em);
                }
            }
            prop_assert_eq!(sharded.len(), model.live.len());
            prop_assert_eq!(flat.len(), model.live.len());
        }
        // Terminal state: every tuple's counters and chain agree.
        for n in 0u16..48 {
            let t = FiveTuple::synthetic(n as u32, Proto::Udp);
            let es = sharded.get(&t);
            prop_assert_eq!(es, flat.get(&t));
            match (es, model.live.get(&n)) {
                (Some(e), Some(m)) => {
                    prop_assert_eq!(e.flow, FlowId(m.id));
                    prop_assert_eq!(e.chain, m.chain);
                    prop_assert_eq!(e.packets, m.packets);
                }
                (None, None) => {}
                (e, _) => prop_assert!(false, "presence mismatch for tuple {}: {:?}", n, e),
            }
        }
        prop_assert_eq!(sharded.forgotten_packets(), model.forgotten_packets);
        prop_assert_eq!(flat.forgotten_packets(), model.forgotten_packets);
        prop_assert_eq!(sharded.id_space(), flat.id_space());
        // The running lifetime total must equal live counters + forgotten
        // (the O(1) conservation-ledger invariant).
        let live_sum: u64 = sharded.entries().map(|e| e.packets).sum();
        prop_assert_eq!(sharded.classified_packets(), live_sum + model.forgotten_packets);
        prop_assert_eq!(flat.classified_packets(), sharded.classified_packets());
    }

    /// Burst classification (`classify_burst`, one `classify_run` per run
    /// of identical tuples) is indistinguishable from per-frame
    /// `classify` — same per-frame results as the BTreeMap model, same
    /// `entries()`, same `FlowTableStats` (hits, memo hits, probe steps,
    /// installs, rehashes) and same memo state — under install / wildcard
    /// / eviction churn, including runs of a flow evicted or recycled
    /// since its last burst.
    #[test]
    fn burst_classification_matches_per_frame_and_model(
        flat in prop::bool::ANY,
        script in prop::collection::vec(burst_op(), 1..200),
    ) {
        let kind = if flat { FlowTableKind::Flat } else { FlowTableKind::Sharded };
        let mut burst = FlowTable::with_kind(kind);
        let mut per_frame = FlowTable::with_kind(kind);
        let mut model = ModelTable::default();
        let mut frames = Vec::new();
        let mut ns = Vec::new(); // model tuple index per frame
        let mut runs = Vec::new();
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
                BurstOp::Burst { runs: spec } => {
                    frames.clear();
                    ns.clear();
                    for (n, reps) in spec {
                        for r in 0..reps as u32 {
                            frames.push(frame(n, 64 + 8 * r + n as u32));
                            ns.push(n);
                        }
                    }
                    burst.classify_burst(&frames, &mut runs);
                    let mut at = 0;
                    for run in &runs {
                        prop_assert!(run.frames > 0);
                        for i in at..at + run.frames as usize {
                            let f = &frames[i];
                            prop_assert_eq!(f.tuple, frames[at].tuple, "run mixes tuples");
                            let rp = per_frame.classify(&f.tuple, f.size);
                            let rm = model.classify(ns[i]).map(|(id, c)| (FlowId(id), c));
                            prop_assert_eq!(run.class, rp, "tuple {}", ns[i]);
                            prop_assert_eq!(rp, rm);
                        }
                        at += run.frames as usize;
                        // Runs are maximal: the next one starts a new tuple.
                        if at < frames.len() {
                            prop_assert!(frames[at].tuple != frames[at - 1].tuple);
                        }
                    }
                    prop_assert_eq!(at, frames.len());
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
