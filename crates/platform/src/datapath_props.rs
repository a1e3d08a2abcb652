//! Run-wise datapath vs a per-packet reference model.
//!
//! `rx_poll`, `tx_drain`, `plan_batch` and `finish_batch` move runs of
//! packets: one mempool slot, ring entry and batch row per run. The model
//! below is the per-packet datapath they replace: one mempool slot, ring
//! enqueue, next-hop resolution and pending count per packet. Random
//! scripts drive both over the same topology — shared rings, replica
//! pins, a dropping handler, TCP flows, crashes and restarts — and every
//! step must leave identical state, with rings, outboxes and batches
//! compared packet by packet (slot ids differ by design).

use super::datapath::admitted;
use super::*;
use crate::nf::{NfAction, NfHealth};
use crate::stats::{DropLocation, TcpEvent, TcpEventKind};
use nfv_obs::{DropCause, TraceKind, NO_ID};
use nfv_pkt::{Ecn, Enqueue, FiveTuple, Mempool, Packet, WireFrame};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Drops every third packet it sees.
struct DropEveryThird(u32);

impl PacketHandler for DropEveryThird {
    fn handle(&mut self, _pkt: &mut Packet, _now: SimTime) -> NfAction {
        self.0 += 1;
        if self.0.is_multiple_of(3) {
            NfAction::Drop
        } else {
            NfAction::Forward
        }
    }
}

/// The per-packet datapath.
impl Platform {
    fn note_tcp_drop(&self, flow: FlowId, seq: u64, tcp_out: &mut Vec<TcpEvent>) {
        if self.is_tcp(flow) {
            tcp_out.push(TcpEvent {
                flow,
                seq,
                kind: TcpEventKind::Dropped,
            });
        }
    }

    fn ref_rx_poll(&mut self, now: SimTime, admit: &mut AdmitFn<'_>, tcp_out: &mut Vec<TcpEvent>) {
        let mut runs = Vec::new();
        self.nic.take_rx(&mut runs);
        for frame in runs.iter().flat_map(|r| r.frames()) {
            let Some((flow, chain)) = self.flow_table.classify(&frame.tuple, frame.size) else {
                self.stats.unclassified += 1;
                self.trace_drop(now, DropCause::Unclassified, NO_ID, NO_ID, NO_ID);
                continue;
            };
            self.grow_flow_stats(flow);
            if let Some(dead) = self.chain_down_nf(chain) {
                self.stats.dropped(flow, chain, DropLocation::NfDown(dead));
                self.trace_drop(now, DropCause::NfDown, flow.0, chain.0, dead.0);
                self.note_tcp_drop(flow, frame.seq, tcp_out);
                continue;
            }
            let entry = {
                let e = self.chains.entry(chain);
                self.resolve_instance(e, flow)
            };
            self.nfs[entry.index()].note_arrival();
            let admitted_frame = {
                let this = &mut *self;
                let mut on_path = |t: NfId| {
                    let base = this.canonical_of(t);
                    this.resolve_instance(base, flow) == t
                };
                admit(chain, flow, &mut on_path)
            };
            if !admitted_frame {
                self.stats.dropped(flow, chain, DropLocation::EntryThrottle);
                self.trace_drop(now, DropCause::EntryThrottle, flow.0, chain.0, entry.0);
                self.note_tcp_drop(flow, frame.seq, tcp_out);
                continue;
            }
            let Some(pid) = self.mempool.alloc(admitted(frame, flow, chain, now)) else {
                self.stats.mempool_fail += 1;
                self.stats
                    .dropped(flow, chain, DropLocation::MempoolExhausted);
                self.trace_drop(now, DropCause::MempoolExhausted, flow.0, chain.0, entry.0);
                self.note_tcp_drop(flow, frame.seq, tcp_out);
                continue;
            };
            let nf = &mut self.nfs[entry.index()];
            match nf.rx.enqueue(pid) {
                Enqueue::Ok { .. } => nf.note_pending(chain),
                Enqueue::Full => {
                    self.mempool.free(pid);
                    self.stats
                        .dropped(flow, chain, DropLocation::RingFull(entry));
                    self.trace_drop(now, DropCause::RingFull, flow.0, chain.0, entry.0);
                    self.note_tcp_drop(flow, frame.seq, tcp_out);
                }
            }
        }
    }

    fn ref_tx_drain(
        &mut self,
        now: SimTime,
        mark_ce: &mut dyn FnMut(NfId) -> bool,
        tcp_out: &mut Vec<TcpEvent>,
    ) {
        for i in 0..self.nfs.len() {
            while let Some(pid) = self.nfs[i].tx.dequeue() {
                let p = &self.mempool.get(pid).head;
                let (flow, chain, hops, seq, size, arrival, ecn) = (
                    p.flow,
                    p.chain,
                    p.hops_done,
                    p.seq,
                    p.size,
                    p.arrival,
                    p.ecn,
                );
                let Some(next) = self.chains.nf_at(chain, hops as usize) else {
                    self.mempool.free(pid);
                    self.nic.transmit(size);
                    self.stats.delivered(flow, chain, size, now.since(arrival));
                    if self.is_tcp(flow) {
                        let kind = TcpEventKind::Delivered { ce: ecn == Ecn::Ce };
                        tcp_out.push(TcpEvent { flow, seq, kind });
                    }
                    continue;
                };
                let next = self.resolve_instance(next, flow);
                let loc = if self.nfs[next.index()].health == NfHealth::Down {
                    DropLocation::NfDown(next)
                } else {
                    let p = self.mempool.get_mut(pid);
                    p.enqueued_at = now;
                    if p.ecn == Ecn::Ect0 && mark_ce(next) {
                        p.ecn = Ecn::Ce;
                        self.trace.record(now, TraceKind::EcnMark { nf: next.0 });
                    }
                    let nf = &mut self.nfs[next.index()];
                    nf.note_arrival();
                    if nf.rx.enqueue(pid).is_ok() {
                        nf.note_pending(chain);
                        continue;
                    }
                    DropLocation::RingFull(next)
                };
                let cause = match loc {
                    DropLocation::NfDown(_) => DropCause::NfDown,
                    _ => DropCause::RingFull,
                };
                self.mempool.free(pid);
                self.stats.dropped(flow, chain, loc);
                self.trace_drop(now, cause, flow.0, chain.0, next.0);
                self.nfs[i].wasted_drops += 1;
                self.nfs[i].wasted_meter.add(1);
                self.note_tcp_drop(flow, seq, tcp_out);
            }
        }
    }

    /// `plan_batch` with one dequeue and one pending decrement per
    /// packet, then `finish_batch` with one handler call and TX enqueue
    /// per packet (no storage I/O: the scripts mark no I/O flows).
    fn ref_batch(&mut self, nf_id: NfId, now: SimTime) -> BatchPlan {
        let idx = nf_id.index();
        let nf = &mut self.nfs[idx];
        while let Some(&pid) = nf.outbox.front() {
            if !nf.tx.enqueue(pid).is_ok() {
                break;
            }
            nf.outbox.pop_front();
        }
        if !nf.outbox.is_empty() {
            return BatchPlan::Block(BlockReason::TxFull);
        }
        if nf.rx.is_empty() {
            return BatchPlan::Block(BlockReason::EmptyRx);
        }
        let (mut cycles, mut n) = (0u64, 0usize);
        while n < self.cfg.batch_size {
            let Some(pid) = nf.rx.dequeue() else { break };
            let pkt = &self.mempool.get(pid).head;
            cycles += nf.spec.cost.cycles(pkt.cost_class) * nf.cost_factor;
            if !nf.pending_by_chain.sub(pkt.chain) {
                self.stats.pending_desync += 1;
            }
            nf.in_progress.push(pid);
            n += 1;
        }
        let duration = self
            .cfg
            .freq
            .cycles_to_duration(cycles)
            .max(Duration::from_nanos(1));
        nf.last_ppp = Duration::from_nanos(duration.as_nanos() / n as u64);
        let pids = std::mem::take(&mut nf.in_progress);
        let mut handler = self.handlers[idx].take().expect("handler");
        for &pid in &pids {
            let p = self.mempool.get_mut(pid);
            let action = if self.trivial_handler[idx] {
                NfAction::Forward
            } else {
                handler.handle(&mut *p, now)
            };
            let (flow, chain) = (p.flow, p.chain);
            if action == NfAction::Drop {
                self.mempool.free(pid);
                self.stats
                    .dropped(flow, chain, DropLocation::Handler(nf_id));
                self.trace_drop(now, DropCause::Handler, flow.0, chain.0, nf_id.0);
                continue;
            }
            p.hops_done += 1;
            let nf = &mut self.nfs[idx];
            if !nf.tx.enqueue(pid).is_ok() {
                nf.outbox.push_back(pid);
            }
        }
        self.handlers[idx] = Some(handler);
        let nf = &mut self.nfs[idx];
        nf.processed += n as u64;
        nf.processed_meter.add(n as u64);
        BatchPlan::Run { duration, n }
    }
}

/// One side of the comparison: a platform plus what it reported.
struct Side {
    p: Platform,
    tcp: Vec<TcpEvent>,
    woken: Vec<NfId>,
    plans: Vec<BatchPlan>,
    /// Every `mark_ce` call, in order.
    marks: Vec<NfId>,
}

/// Topology: `a` is shared by four chains and visited twice by one, `b`
/// gets a replica that shards the flows installed after it, `c` drops every third packet and
/// is the NF scripts crash and restart.
fn side() -> (Side, NfId) {
    let mut p = Platform::new(PlatformConfig {
        nf_cores: 1,
        mempool_capacity: 24,
        batch_size: 4,
        ..Default::default()
    });
    let a = p.add_nf(NfSpec::new("a", 0, 100).with_rings(6, 3));
    let b = p.add_nf(NfSpec::new("b", 0, 200).with_rings(5, 4));
    let c = p.add_nf_with_handler(
        NfSpec::new("c", 0, 300).with_rings(4, 2),
        Box::new(DropEveryThird(0)),
    );
    let chains = [
        p.install_chain(&[a, b]),
        p.install_chain(&[a, c]),
        p.install_chain(&[b, c]),
        p.install_chain(&[a]),
        p.install_chain(&[a, b, a]),
    ];
    let flows = [
        (Proto::Udp, 0),
        (Proto::Tcp, 0),
        (Proto::Udp, 1),
        (Proto::Tcp, 2),
        (Proto::Udp, 3),
    ];
    for (n, (proto, chain)) in flows.into_iter().enumerate() {
        p.install_flow(FiveTuple::synthetic(n as u32, proto), chains[chain]);
    }
    p.add_replica(b, 0, SimTime::ZERO);
    let young = [
        (5, Proto::Udp, 0),
        (6, Proto::Tcp, 2),
        (7, Proto::Tcp, 0),
        (8, Proto::Udp, 4),
    ];
    for (n, proto, chain) in young {
        p.install_flow(FiveTuple::synthetic(n, proto), chains[chain]);
    }
    p.trace = TraceSink::recording();
    let s = Side {
        p,
        tcp: Vec::new(),
        woken: Vec::new(),
        plans: Vec::new(),
        marks: Vec::new(),
    };
    (s, c)
}

/// Flows 0–8 are installed; 9 is an unknown tuple.
const TUPLES: u32 = 10;

fn tuple(n: u32) -> FiveTuple {
    let proto = if matches!(n, 1 | 3 | 6 | 7) {
        Proto::Tcp
    } else {
        Proto::Udp
    };
    FiveTuple::synthetic(n, proto)
}

impl Side {
    fn step(&mut self, reference: bool, k: usize, (op, x, y): (u8, u8, u8), seqs: &mut [u64]) {
        let now = SimTime::from_micros(k as u64);
        let p = &mut self.p;
        match op {
            // Traffic: a run of 1–10 frames; consecutive frames of one
            // flow merge into the NIC's last run.
            0..=2 => {
                let n = u32::from(x) % TUPLES;
                let count = 1 + u32::from(y) % 10;
                let head = WireFrame {
                    tuple: tuple(n),
                    size: 100,
                    seq: seqs[n as usize],
                    cost_class: y % 3,
                    ecn: if y % 4 == 0 { Ecn::NotEct } else { Ecn::Ect0 },
                    arrival: now,
                };
                seqs[n as usize] += u64::from(count);
                p.nic.deliver_runs(&mut vec![FrameRun { head, count }]);
            }
            3 => {
                // Throttle a step-dependent subset of flows.
                let mut admit = |_: ChainId, flow: FlowId, _: &mut dyn FnMut(NfId) -> bool| {
                    !(flow.0 as usize + k).is_multiple_of(4)
                };
                if reference {
                    p.ref_rx_poll(now, &mut admit, &mut self.tcp);
                } else {
                    p.rx_poll(now, &mut admit, &mut self.tcp);
                }
            }
            4 => {
                let nf = NfId(u32::from(x) % p.nfs.len() as u32);
                if p.nfs[nf.index()].health == NfHealth::Down {
                    return;
                }
                let plan = if reference {
                    p.ref_batch(nf, now)
                } else {
                    let plan = p.plan_batch(nf);
                    if let BatchPlan::Run { .. } = plan {
                        let fx = p.finish_batch(nf, now);
                        assert!(fx.block.is_none() && fx.flush_completions.is_empty());
                    }
                    plan
                };
                self.plans.push(plan);
            }
            5 => {
                let marks = &mut self.marks;
                // The policy's answer depends on the NF and the step, never
                // on how often it was asked within the drain.
                let mut mark_ce = |nf: NfId| {
                    marks.push(nf);
                    (nf.index() + k + usize::from(y)).is_multiple_of(3)
                };
                if reference {
                    p.ref_tx_drain(now, &mut mark_ce, &mut self.tcp);
                    for (i, nf) in p.nfs.iter().enumerate() {
                        let room = nf.tx.capacity() - nf.tx.len();
                        if nf.blocked == Some(BlockReason::TxFull) && room >= nf.outbox.len().max(1)
                        {
                            self.woken.push(NfId(i as u32));
                        }
                    }
                } else {
                    p.tx_drain(now, &mut mark_ce, &mut self.tcp, &mut self.woken);
                }
            }
            _ => {
                // Crash or restart `c` or the replica of `b`.
                let nf = if x % 2 == 0 { NfId(2) } else { NfId(3) };
                if p.nfs[nf.index()].health == NfHealth::Down {
                    p.restart_nf(nf, now);
                } else {
                    p.crash_nf(nf, now, &mut self.tcp);
                }
            }
        }
    }

    /// Everything the datapath can leave behind, one labeled part each.
    fn fingerprint(&self) -> Vec<String> {
        let p = &self.p;
        let pool = &p.mempool;
        let mut parts = vec![
            format!("stats {:?}", p.stats),
            format!(
                "mempool in_use {} available {} high_watermark {} alloc_failures {}",
                pool.in_use(),
                pool.available(),
                pool.high_watermark(),
                pool.alloc_failures
            ),
            format!("table {:?}", p.flow_table.stats()),
            format!("nic tx {}", p.nic.tx_frames),
            format!("tcp {:?}", self.tcp),
            format!("woken {:?}", self.woken),
            format!("plans {:?}", self.plans),
            format!("marks {:?}", self.marks),
        ];
        parts.extend(p.nfs.iter().map(|nf| nf_state(nf, pool)));
        parts
    }

    /// The first part of `fingerprint` where `self` and `other` differ.
    fn diff(&self, other: &Side) -> Option<(String, String)> {
        self.fingerprint()
            .into_iter()
            .zip(other.fingerprint())
            .find(|(a, b)| a != b)
    }
}

/// The packets of runs `ids`, in order, one `Packet` each.
fn expand(pool: &Mempool, ids: impl IntoIterator<Item = PktId>) -> Vec<Packet> {
    ids.into_iter()
        .flat_map(|id| pool.get(id).packets())
        .collect()
}

/// An NF's state with its rings, outbox and batch expanded per packet.
fn nf_state(nf: &NfRuntime, pool: &Mempool) -> String {
    let NfRuntime {
        spec,
        task,
        rx,
        tx,
        yield_flag,
        blocked,
        pending_by_chain,
        outbox,
        in_progress,
        current_batch,
        dbuf,
        health,
        cost_factor,
        replica_of,
        processed,
        wasted_drops,
        arrivals,
        last_ppp,
        processed_meter,
        wasted_meter,
    } = nf;
    let ring = |r: &nfv_pkt::Ring| {
        format!(
            "len {} room {} enqueued {} dequeued {} full_drops {} {:?}",
            r.len(),
            r.room(),
            r.enqueued,
            r.dequeued,
            r.full_drops,
            expand(pool, r.iter())
        )
    };
    format!(
        "{spec:?} {task:?} rx [{}] tx [{}] outbox {:?} batch {:?} {yield_flag:?} {blocked:?} \
         {pending_by_chain:?} {current_batch:?} {dbuf:?} {health:?} {cost_factor:?} \
         {replica_of:?} {processed:?} {wasted_drops:?} {arrivals:?} {last_ppp:?} \
         {processed_meter:?} {wasted_meter:?}",
        ring(rx),
        ring(tx),
        expand(pool, outbox.iter().copied()),
        expand(pool, in_progress.iter().copied()),
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// Every step of a random script leaves the run-wise datapath in the
    /// per-packet model's state: stats; rings, outboxes and batches packet
    /// by packet (flow, chain, seq, hops, `enqueued_at`, ECN, arrival,
    /// size, cost class) with their counters; pending counts; the
    /// mempool's `in_use`, `available`, `high_watermark` and
    /// `alloc_failures`; trace and `TcpEvent` order; ECN decisions.
    #[test]
    fn run_wise_datapath_matches_the_per_packet_model(
        script in prop::collection::vec((0u8..7, 0u8..=255, 0u8..=255), 1..160),
    ) {
        let (mut runs, c) = side();
        let (mut model, _) = side();
        assert_eq!(c, NfId(2));
        let (mut seq_runs, mut seq_model) = ([0u64; TUPLES as usize], [0u64; TUPLES as usize]);
        for (k, &step) in script.iter().enumerate() {
            runs.step(false, k, step, &mut seq_runs);
            model.step(true, k, step, &mut seq_model);
            prop_assert_eq!(runs.diff(&model), None, "step {} {:?}", k, step);
        }
        prop_assert_eq!(runs.p.trace.take(), model.p.trace.take());
        prop_assert!(runs.p.packets_accounted());
    }
}

/// Where the run-wise side split a run during one step, read off its
/// rings and slots around the step. A split keeps the head packets under
/// the run's id and moves the tail to a fresh slot.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
struct Splits {
    /// `plan_batch` cut a run at the batch size.
    batch: bool,
    /// Entry admitted the head of a run and dropped the tail at a full
    /// ring.
    entry_ring: bool,
    /// Entry admitted the head of a run and dropped the tail at an empty
    /// pool.
    entry_pool: bool,
    /// `tx_drain` stored the head of a run in the next RX ring and dropped
    /// the tail.
    drain_ring: bool,
    /// `finish_batch` stored the head of a run in the TX ring and parked
    /// the tail in the outbox.
    batch_spill: bool,
    /// The outbox flush stored the head of its first run.
    flush: bool,
    /// A run of three or more packets reached the dropping handler.
    handler: bool,
}

/// Run lengths of every live slot in a ring, outbox or batch.
fn live_runs(p: &Platform) -> BTreeMap<PktId, u32> {
    p.nfs
        .iter()
        .flat_map(|nf| {
            let queued = nf.rx.iter().chain(nf.tx.iter());
            queued.chain(nf.outbox.iter().chain(&nf.in_progress).copied())
        })
        .map(|id| (id, p.mempool.get(id).count))
        .collect()
}

/// Drive `script` through both sides step by step, asserting equal state
/// after every step, and report which splits the run-wise side made.
fn run_script(script: &[(u8, u8, u8)]) -> (Side, Vec<nfv_obs::TraceEvent>, Splits) {
    let (mut s, c) = side();
    let (mut model, _) = side();
    let (mut seqs, mut model_seqs) = ([0u64; TUPLES as usize], [0u64; TUPLES as usize]);
    let batch = s.p.cfg.batch_size as u32;
    let mut trace = Vec::new();
    let mut hit = Splits::default();
    // Wire runs delivered so far: (flow, first seq, frames). Tuple `n`
    // is flow `n`, and each step delivers at its own instant, so the NIC
    // never merges two of them.
    let mut wire: Vec<(FlowId, u64, u64)> = Vec::new();
    for (k, &step @ (op, x, y)) in script.iter().enumerate() {
        let before = live_runs(&s.p);
        let nf = NfId(u32::from(x) % s.p.nfs.len() as u32);
        let rx_counts: Vec<u32> = s.p.nfs[nf.index()]
            .rx
            .iter()
            .map(|id| s.p.mempool.get(id).count)
            .collect();
        let (tcp_before, plans_before) = (s.tcp.len(), s.plans.len());
        if op <= 2 && u32::from(x) % TUPLES < TUPLES - 1 {
            let n = u32::from(x) % TUPLES;
            wire.push((FlowId(n), seqs[n as usize], 1 + u64::from(y) % 10));
        }
        s.step(false, k, step, &mut seqs);
        model.step(true, k, step, &mut model_seqs);
        assert_eq!(s.diff(&model), None, "step {k} {step:?}");
        let events = s.p.trace.take();
        assert_eq!(events, model.p.trace.take(), "step {k} {step:?}");
        let plan = s.plans[plans_before..].first().copied();
        let ran = matches!(plan, Some(BatchPlan::Run { n, .. }) if n > 0);
        let fresh_outbox = s.p.nfs[nf.index()]
            .outbox
            .front()
            .is_some_and(|id| !before.contains_key(id));
        match op {
            3 => {
                // Each dropped TCP packet has a drop trace, in the same
                // order. A drop whose predecessor in its wire run was
                // admitted cut that run.
                let drops: Vec<&TcpEvent> = s.tcp[tcp_before..]
                    .iter()
                    .filter(|e| e.kind == TcpEventKind::Dropped)
                    .collect();
                let causes: Vec<DropCause> = events
                    .iter()
                    .filter_map(|e| match e.kind {
                        TraceKind::PacketDrop { cause, flow, .. }
                            if flow != NO_ID && s.p.is_tcp(FlowId(flow)) =>
                        {
                            Some(cause)
                        }
                        _ => None,
                    })
                    .collect();
                assert_eq!(drops.len(), causes.len());
                for (ev, cause) in drops.iter().zip(causes) {
                    let run_start = wire
                        .iter()
                        .find(|&&(f, first, n)| {
                            f == ev.flow && (first..first + n).contains(&ev.seq)
                        })
                        .map(|&(_, first, _)| first);
                    let prev_dropped = drops
                        .iter()
                        .any(|d| d.flow == ev.flow && d.seq + 1 == ev.seq);
                    if run_start.is_some_and(|first| first < ev.seq) && !prev_dropped {
                        hit.entry_ring |= cause == DropCause::RingFull;
                        hit.entry_pool |= cause == DropCause::MempoolExhausted;
                    }
                }
            }
            4 => {
                let mut sum = 0;
                for n in &rx_counts {
                    hit.batch |= sum < batch && sum + n > batch && ran;
                    sum += n;
                }
                hit.batch_spill |= nf != c && ran && fresh_outbox;
                hit.flush |= plan == Some(BatchPlan::Block(BlockReason::TxFull)) && fresh_outbox;
                let handler_drop = events.iter().any(|e| {
                    matches!(
                        e.kind,
                        TraceKind::PacketDrop {
                            cause: DropCause::Handler,
                            ..
                        }
                    )
                });
                hit.handler |= nf == c && rx_counts.first() >= Some(&3) && handler_drop;
            }
            5 => {
                // A drain only appends to RX rings: an entry that lost
                // packets came from a TX ring and was cut.
                hit.drain_ring |= s.p.nfs.iter().any(|nf| {
                    let shrunk = |id| before.get(&id).is_some_and(|&n| n > s.p.mempool.count(id));
                    nf.rx.iter().any(shrunk)
                });
            }
            _ => {}
        }
        trace.extend(events);
    }
    (s, trace, hit)
}

/// One scripted pass that must reach each case the property covers, so
/// the property cannot go vacuous: the entry ring fills mid-run, the
/// mempool runs out mid-run, a next hop is dead, packets spill from TX to
/// the outbox, ECN marks land and TCP flows see feedback — and each place
/// a run can split is reached.
#[test]
fn the_datapath_script_reaches_every_case() {
    // Opening: `b`'s RX ring is left one packet short of full while a
    // batch of `a` pushes a 3-packet run at it.
    let mut script = vec![
        (0, 3, 3),
        (0, 0, 9),
        (0, 9, 0),
        (3, 0, 0),
        (4, 0, 0),
        (5, 0, 0),
    ];
    for round in 0..12u8 {
        for x in 0..TUPLES as u8 {
            script.push((0, x, 7 + round));
        }
        script.extend([
            (3, 0, 0),
            (4, 0, 0),
            (4, 1, 0),
            (5, 0, round),
            (4, 2, 0),
            (4, 3, 0),
        ]);
        script.extend([(5, 0, 1), (4, 2, 0), (4, 0, 0)]);
        if round % 4 == 1 {
            script.push((6, 0, 0));
        }
    }
    let (s, trace, hit) = run_script(&script);
    let every = Splits {
        batch: true,
        entry_ring: true,
        entry_pool: true,
        drain_ring: true,
        batch_spill: true,
        flush: true,
        handler: true,
    };
    assert_eq!(hit, every, "not every split reached");
    let hit = |cause| {
        trace
            .iter()
            .any(|e| matches!(e.kind, TraceKind::PacketDrop { cause: c, .. } if c == cause))
    };
    for cause in [
        DropCause::RingFull,
        DropCause::MempoolExhausted,
        DropCause::NfDown,
    ] {
        assert!(hit(cause), "{cause:?} not reached");
    }
    // Some RX poll meets a full entry ring and an empty pool at once
    // (each step runs at its own instant; only RX polls exhaust the pool).
    let times = |cause| {
        trace
            .iter()
            .filter(move |e| matches!(e.kind, TraceKind::PacketDrop { cause: c, .. } if c == cause))
            .map(|e| e.t)
    };
    assert!(times(DropCause::MempoolExhausted).any(|t| times(DropCause::RingFull).any(|u| u == t)));
    assert!(trace
        .iter()
        .any(|e| matches!(e.kind, TraceKind::EcnMark { .. })));
    assert!(s.p.nfs.iter().any(|nf| nf.tx.full_drops > 0), "no TX spill");
    assert!(s.p.stats.pending_desync == 0);
    assert!(s
        .tcp
        .iter()
        .any(|e| matches!(e.kind, TcpEventKind::Delivered { .. })));
    assert!(s.tcp.iter().any(|e| e.kind == TcpEventKind::Dropped));
}
