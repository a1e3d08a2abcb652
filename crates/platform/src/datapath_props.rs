//! Run-wise datapath vs a per-packet reference model.
//!
//! `rx_poll`, `tx_drain`, `plan_batch` and `finish_batch` move runs of
//! packets in bursts. The model below is the per-packet datapath they
//! replace: one mempool slot, ring enqueue, next-hop resolution and
//! pending count per packet. Random scripts drive both over the same
//! topology — shared rings, replica pins, a dropping handler, TCP flows,
//! crashes and restarts — and every step must leave identical state.

use super::*;
use nfv_pkt::FiveTuple;
use proptest::prelude::*;

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
                let p = self.mempool.get(pid);
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
            let pkt = self.mempool.get(pid);
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
        batch_size: 6,
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
                let mut mark_ce = |nf: NfId| {
                    marks.push(nf);
                    (marks.len() + usize::from(y)).is_multiple_of(3)
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
        let mut parts = vec![
            format!("stats {:?}", p.stats),
            format!("mempool {:?}", p.mempool),
            format!("table {:?}", p.flow_table.stats()),
            format!("nic tx {}", p.nic.tx_frames),
            format!("tcp {:?}", self.tcp),
            format!("woken {:?}", self.woken),
            format!("plans {:?}", self.plans),
            format!("marks {:?}", self.marks),
        ];
        parts.extend(p.nfs.iter().map(|nf| format!("{nf:?}")));
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

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// Every step of a random script leaves the run-wise datapath in the
    /// per-packet model's state: stats, rings (ids, `enqueued`,
    /// `full_drops`), outboxes, pending counts, mempool ids and
    /// `high_watermark`, trace and `TcpEvent` order, ECN decisions.
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

/// One scripted pass that must reach each case the property covers, so
/// the property cannot go vacuous: the entry ring fills mid-run, the
/// mempool runs out mid-run, a next hop is dead, packets spill from TX to
/// the outbox, ECN marks land and TCP flows see feedback.
#[test]
fn the_datapath_script_reaches_every_case() {
    let (mut s, _) = side();
    let mut seqs = [0u64; TUPLES as usize];
    let mut script = Vec::new();
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
    let (mut model, _) = side();
    let mut model_seqs = seqs;
    for (k, &step) in script.iter().enumerate() {
        s.step(false, k, step, &mut seqs);
        model.step(true, k, step, &mut model_seqs);
        assert_eq!(s.diff(&model), None, "step {k} {step:?}");
    }
    let trace = s.p.trace.take();
    assert_eq!(trace, model.p.trace.take());
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
