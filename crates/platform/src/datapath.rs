//! The datapath halves of the manager's RX and TX threads and the
//! `libnf` batch loop: classify and admit at entry, forward between
//! rings, plan and finish batches, block and wake NFs. Policy
//! (admission, ECN marking, wakeup classification) comes in through
//! closures from the engine.

use super::{AdmitFn, BatchEffects, BatchPlan, IoCompleteOutcome, Platform};
use crate::nf::{BlockReason, IoMode, NfAction, NfHealth};
use crate::stats::{DropLocation, TcpEvent, TcpEventKind};
use nfv_des::{Duration, SimTime};
use nfv_io::WriteOutcome;
use nfv_obs::{DropCause, SleepReason, TraceKind, NO_ID};
use nfv_pkt::{ChainId, Ecn, FlowId, NfId, Packet, PacketRun, WireFrame};

/// The packet an admitted frame of `flow` becomes at its entry NF.
#[inline]
pub(super) fn admitted(frame: WireFrame, flow: FlowId, chain: ChainId, now: SimTime) -> Packet {
    Packet {
        tuple: frame.tuple,
        flow,
        chain,
        size: frame.size,
        arrival: frame.arrival,
        enqueued_at: now,
        hops_done: 0,
        ecn: frame.ecn,
        seq: frame.seq,
        cost_class: frame.cost_class,
    }
}

impl Platform {
    // --- RX thread mechanism ---

    /// Poll every pending NIC frame, classify, apply entry admission and
    /// enqueue to each chain's first NF (see [`AdmitFn`] for the
    /// admission hook contract). TCP congestion feedback is appended to
    /// `tcp_out`.
    ///
    /// The NIC queue holds frame runs. Each run is classified with one
    /// flow-table operation, and a run dropped at entry (unclassified,
    /// dead chain or throttled) is counted in O(1); drop traces and TCP
    /// feedback stay per frame, in frame order. An admitted run enters
    /// the entry ring as one packet run — one mempool slot, one ring
    /// entry — cut where the ring or the pool runs out of room. Every
    /// counter ends up as if each frame had been handled on its own.
    pub fn rx_poll(&mut self, now: SimTime, admit: &mut AdmitFn<'_>, tcp_out: &mut Vec<TcpEvent>) {
        let mut runs = std::mem::take(&mut self.scratch_runs);
        let mut classes = std::mem::take(&mut self.scratch_classes);
        runs.clear();
        self.nic.take_rx(&mut runs);
        // Classification pass: one flow-table operation per run, with the
        // per-frame counter semantics intact, and the slot misses of cold
        // lookups overlapped (`FlowTable::classify_runs`). Nothing below
        // touches the flow table, so classifying up front is the same as
        // classifying run by run, and a pass of its own keeps admission
        // work from splitting up the overlapped misses.
        classes.clear();
        self.flow_table.classify_runs(&runs, &mut classes);
        // Per-poll decision cache: within one poll nothing a frame's
        // admission depends on can change (NF health, backpressure marks
        // and replica pins are only mutated by other events), so the
        // chain-health check, entry resolution and admission callback run
        // once per flow run; the cache survives unclassified runs.
        let mut cached_flow = FlowId(u32::MAX);
        let mut cached_entry = NfId(0);
        let mut cached_admit = false;
        for (run, &class) in runs.iter().zip(&classes) {
            let n = run.count as u64;
            let Some((flow, chain)) = class else {
                self.stats.unclassified += n;
                if self.trace.is_on() {
                    for _ in 0..n {
                        self.trace_drop(now, DropCause::Unclassified, NO_ID, NO_ID, NO_ID);
                    }
                }
                continue;
            };
            let pkts = PacketRun {
                head: admitted(run.head, flow, chain, now),
                count: run.count,
            };
            if flow != cached_flow {
                // Wildcard rules can mint new flows at runtime; keep
                // per-flow stats sized accordingly.
                self.grow_flow_stats(flow);
                // Graceful degradation: a chain routed through a dead NF
                // can never deliver, so shed at entry rather than filling
                // rings and the mempool with doomed packets. Shed before
                // the λ accounting — this traffic is not offered load for
                // the (live) entry NF, and counting it would inflate its
                // weight for the duration of the outage.
                if let Some(dead) = self.chain_down_nf(chain) {
                    self.drop_run(now, &pkts, DropCause::NfDown, dead, false, tcp_out);
                    continue;
                }
                // With replicas, the flow is first sharded to its
                // instance so each instance's estimator sees only its own
                // demand.
                cached_flow = flow;
                cached_entry = {
                    let e = self.chains.entry(chain);
                    self.resolve_instance(e, flow)
                };
                cached_admit = {
                    let this = &mut *self;
                    let mut on_path = |t: NfId| {
                        let base = this.canonical_of(t);
                        this.resolve_instance(base, flow) == t
                    };
                    admit(chain, flow, &mut on_path)
                };
            }
            let entry = cached_entry;
            // The entry NF's offered load (λ) is measured pre-admission:
            // the RX thread sees every classified frame, and rate-cost
            // shares must reflect demand, not the post-throttle trickle.
            self.nfs[entry.index()].note_arrivals(n);
            if !cached_admit {
                let cause = DropCause::EntryThrottle;
                self.drop_run(now, &pkts, cause, entry, false, tcp_out);
                continue;
            }
            // Entry: the prefix that fits both the entry ring and the
            // mempool takes one slot and one ring entry. A frame takes its
            // slot before it meets the ring, so the tail drops where the
            // per-frame path runs out first: at an empty pool (no slot),
            // or at a full ring (each frame bounces through a slot).
            let room = self.nfs[entry.index()].rx.room();
            let avail = self.mempool.available();
            let take = (run.count as usize).min(room).min(avail) as u32;
            if take > 0 {
                let prefix = PacketRun {
                    count: take,
                    ..pkts
                };
                let id = self.mempool.alloc_run(prefix).expect("sized to the pool");
                let nf = &mut self.nfs[entry.index()];
                let rest = nf.rx.enqueue_run(id, &mut self.mempool);
                debug_assert!(rest.is_none(), "sized to the ring");
                nf.pending_by_chain.add_n(chain, take);
            }
            if take < run.count {
                let tail = pkts.after(take);
                let n = u64::from(tail.count);
                let cause = if avail <= room {
                    self.mempool.alloc_failures += n;
                    self.stats.mempool_fail += n;
                    DropCause::MempoolExhausted
                } else {
                    self.mempool.bounce();
                    self.nfs[entry.index()].rx.refuse(n);
                    DropCause::RingFull
                };
                self.drop_run(now, &tail, cause, entry, false, tcp_out);
            }
        }
        self.scratch_runs = runs;
        self.scratch_classes = classes;
    }

    /// Count the packets of `run` dropped for `cause` at NF `nf`: the
    /// counters move once for the run, and only a traced or TCP run walks
    /// its packets — a drop trace each (after an ECN mark trace when the
    /// TX thread `marked` them on the way to `nf`) and a `TcpEvent` each,
    /// in packet order. The run's slot, if any, is the caller's to free.
    pub(super) fn drop_run(
        &mut self,
        now: SimTime,
        run: &PacketRun,
        cause: DropCause,
        nf: NfId,
        marked: bool,
        tcp_out: &mut Vec<TcpEvent>,
    ) {
        let (flow, chain) = (run.head.flow, run.head.chain);
        let loc = match cause {
            DropCause::EntryThrottle => DropLocation::EntryThrottle,
            DropCause::NfDown => DropLocation::NfDown(nf),
            DropCause::RingFull => DropLocation::RingFull(nf),
            DropCause::MempoolExhausted => DropLocation::MempoolExhausted,
            DropCause::Handler => DropLocation::Handler(nf),
            DropCause::Unclassified | DropCause::NicOverflow => {
                unreachable!("{cause:?} drops a frame before it has a flow")
            }
        };
        self.stats.dropped_n(flow, chain, loc, u64::from(run.count));
        let tcp = self.is_tcp(flow);
        if !tcp && !self.trace.is_on() {
            return;
        }
        for i in 0..u64::from(run.count) {
            if marked {
                self.trace.record(now, TraceKind::EcnMark { nf: nf.0 });
            }
            self.trace_drop(now, cause, flow.0, chain.0, nf.0);
            if tcp {
                tcp_out.push(TcpEvent {
                    flow,
                    seq: run.head.seq + i,
                    kind: TcpEventKind::Dropped,
                });
            }
        }
    }

    pub(super) fn trace_drop(
        &self,
        now: SimTime,
        cause: DropCause,
        flow: u32,
        chain: u32,
        nf: u32,
    ) {
        self.trace.record(
            now,
            TraceKind::PacketDrop {
                cause,
                flow,
                chain,
                nf,
            },
        );
    }

    // --- TX thread mechanism ---

    /// Drain every NF's TX ring: forward packets to the next NF in their
    /// chain (marking ECN via `mark_ce` when the policy says so) or out the
    /// NIC at chain end. Returns, via `woken_tx`, NFs whose full TX ring
    /// gained room (local backpressure release).
    ///
    /// Each ring entry is a run of packets that share (flow, chain,
    /// hops): the next hop is resolved once per run of entries with the
    /// same key, and a run moves to the next RX ring as one entry, split
    /// only where the ring runs out of room. `mark_ce` is called once per
    /// ECT packet and must give the same answer for an NF throughout one
    /// drain, so a run shares its ECN decision. Drops, traces and
    /// `TcpEvent`s stay per packet, in ring order, so every counter ends
    /// as if each packet had been forwarded on its own.
    pub fn tx_drain(
        &mut self,
        now: SimTime,
        mark_ce: &mut dyn FnMut(NfId) -> bool,
        tcp_out: &mut Vec<TcpEvent>,
        woken_tx: &mut Vec<NfId>,
    ) {
        for i in 0..self.nfs.len() {
            if !self.nfs[i].tx.is_empty() {
                self.forward(NfId(i as u32), now, mark_ce, tcp_out);
            }
        }
        // Local backpressure release: wake NFs that were stalled on a full
        // TX ring and now have room for their whole outbox.
        for i in 0..self.nfs.len() {
            let nf = &self.nfs[i];
            if nf.blocked == Some(BlockReason::TxFull)
                && nf.tx.room() >= self.mempool.packets_in(&nf.outbox).max(1)
            {
                woken_tx.push(NfId(i as u32));
            }
        }
    }

    /// Drain `from`'s TX ring, forwarding its runs in order (see
    /// [`Platform::tx_drain`]).
    fn forward(
        &mut self,
        from: NfId,
        now: SimTime,
        mark_ce: &mut dyn FnMut(NfId) -> bool,
        tcp_out: &mut Vec<TcpEvent>,
    ) {
        // The current key and its resolved hop: `None` at chain end.
        let mut key = (FlowId(u32::MAX), ChainId(u32::MAX), u8::MAX);
        let mut hop: Option<NfId> = None;
        let mut hop_down = false;
        let mut tcp = false;
        while let Some(id) = self.nfs[from.index()]
            .tx
            .dequeue_run(u32::MAX, &mut self.mempool)
        {
            let run = self.mempool.get(id);
            let (p, n) = (&run.head, run.count);
            if (p.flow, p.chain, p.hops_done) != key {
                key = (p.flow, p.chain, p.hops_done);
                // Chains name base NFs; shard the flow across the hop's
                // replica group (no-op without replicas). Nothing in a
                // drain changes health or pins, so once per key is exact.
                hop = self
                    .chains
                    .nf_at(p.chain, p.hops_done as usize)
                    .map(|next| self.resolve_instance(next, p.flow));
                hop_down = hop.is_some_and(|n| self.nfs[n.index()].health == NfHealth::Down);
                tcp = self.is_tcp(p.flow);
            }
            let Some(next) = hop else {
                // Chain complete: out the wire.
                self.mempool.free(id);
                self.nic.transmit_n(p.size, n);
                let latency = now.since(p.arrival);
                self.stats
                    .delivered_n(p.flow, p.chain, p.size, latency, u64::from(n));
                if tcp {
                    let kind = TcpEventKind::Delivered {
                        ce: p.ecn == Ecn::Ce,
                    };
                    tcp_out.extend((0..u64::from(n)).map(|i| TcpEvent {
                        flow: p.flow,
                        seq: p.seq + i,
                        kind,
                    }));
                }
                continue;
            };
            if hop_down {
                // A dead next hop cannot accept the packets; the upstream
                // NF's processing is wasted, same as a full-ring drop.
                // (Transient: entry shedding stops new traffic for the
                // chain the moment the NF dies.)
                self.mempool.free(id);
                self.drop_run(now, &run, DropCause::NfDown, next, false, tcp_out);
                self.nfs[from.index()].note_wasted(u64::from(n));
                continue;
            }
            let marked = p.ecn == Ecn::Ect0 && {
                let mark = mark_ce(next);
                for _ in 1..n {
                    let again = mark_ce(next);
                    debug_assert_eq!(again, mark, "mark_ce changed its answer within a drain");
                }
                mark
            };
            let head = self.mempool.get_mut(id);
            head.enqueued_at = now;
            if marked {
                head.ecn = Ecn::Ce;
            }
            let nf = &mut self.nfs[next.index()];
            nf.note_arrivals(u64::from(n));
            let rest = nf.rx.enqueue_run(id, &mut self.mempool);
            let refused = rest.map_or(0, |r| self.mempool.count(r));
            nf.rx.refuse(u64::from(refused));
            nf.pending_by_chain.add_n(p.chain, n - refused);
            if marked && self.trace.is_on() {
                for _ in 0..n - refused {
                    self.trace.record(now, TraceKind::EcnMark { nf: next.0 });
                }
            }
            if let Some(rest) = rest {
                // The tail met a full ring. The previous NF's work is
                // wasted.
                let tail = self.mempool.get(rest);
                self.mempool.free(rest);
                self.drop_run(now, &tail, DropCause::RingFull, next, marked, tcp_out);
                self.nfs[from.index()].note_wasted(u64::from(refused));
            }
        }
    }

    // --- NF execution mechanism (libnf batch loop) ---

    /// Begin a batch for `nf` (the current task on its core). Flushes the
    /// outbox, honors the yield flag, and dequeues up to `batch_size`
    /// packets, computing the batch's CPU cost from the NF's cost model.
    /// The batch holds one row per run; a run longer than the batch's
    /// remaining room is split, and its tail stays at the head of the RX
    /// ring.
    pub fn plan_batch(&mut self, nf_id: NfId) -> BatchPlan {
        let batch = self.cfg.batch_size;
        let nf = &mut self.nfs[nf_id.index()];
        debug_assert!(nf.health != NfHealth::Down, "plan_batch for dead NF");
        if nf.health == NfHealth::Stalled {
            // Wedged process: it keeps its task runnable and burns a
            // batch's worth of CPU without touching its rings — no
            // dequeues, no outbox flush, no yield cooperation, and the
            // progress counters stay flat for the watchdog to notice.
            let spin = nf.spec.cost.mean_cycles().max(1) * batch as u64;
            let duration = self
                .cfg
                .freq
                .cycles_to_duration(spin)
                .max(Duration::from_nanos(1));
            nf.current_batch = Some((duration, 0));
            return BatchPlan::Run { duration, n: 0 };
        }
        // Flush previously processed packets that did not fit in TX, in
        // order, until the first refusal (which counts once, as the
        // failed single enqueue that stops a per-packet flush).
        while let Some(&id) = nf.outbox.front() {
            match nf.tx.enqueue_run(id, &mut self.mempool) {
                None => {
                    nf.outbox.pop_front();
                }
                Some(rest) => {
                    nf.outbox[0] = rest;
                    nf.tx.refuse(1);
                    break;
                }
            }
        }
        if !nf.outbox.is_empty() {
            return BatchPlan::Block(BlockReason::TxFull);
        }
        if nf.yield_flag {
            nf.yield_flag = false;
            return BatchPlan::Block(BlockReason::Backpressure);
        }
        if nf.rx.is_empty() {
            return BatchPlan::Block(BlockReason::EmptyRx);
        }
        debug_assert!(nf.in_progress.is_empty(), "batch already in progress");
        // Cost is per packet, and a run's packets share their cost class.
        // Pending counts move once per run of same-chain rows; `sub_n`
        // reports exactly the desyncs single `sub`s would.
        let mut left = batch as u32;
        let mut cycles = 0u64;
        let mut run = (ChainId(u32::MAX), 0u32);
        let mut desync = 0u64;
        while left > 0 {
            let Some(id) = nf.rx.dequeue_run(left, &mut self.mempool) else {
                break;
            };
            let PacketRun { head, count } = self.mempool.get(id);
            // `cost_factor` is the transient slowdown fault (1 = nominal).
            cycles += nf.spec.cost.cycles(head.cost_class) * u64::from(count) * nf.cost_factor;
            if head.chain != run.0 {
                desync += u64::from(nf.pending_by_chain.sub_n(run.0, run.1));
                run = (head.chain, 0);
            }
            run.1 += count;
            left -= count;
            nf.in_progress.push(id);
        }
        desync += u64::from(nf.pending_by_chain.sub_n(run.0, run.1));
        self.stats.pending_desync += desync;
        let n = batch - left as usize;
        let duration = self
            .cfg
            .freq
            .cycles_to_duration(cycles)
            .max(Duration::from_nanos(1));
        nf.current_batch = Some((duration, n));
        nf.last_ppp = Duration::from_nanos(duration.as_nanos() / n as u64);
        BatchPlan::Run { duration, n }
    }

    /// Complete the batch started by [`Platform::plan_batch`]: run the
    /// handler, perform storage writes, and push survivors toward the TX
    /// ring (overflow goes to the outbox, in order). The stock
    /// [`ForwardAll`] handler forwards whole runs; any other handler is
    /// handed its packets one at a time, each split off into a run of one.
    pub fn finish_batch(&mut self, nf_id: NfId, now: SimTime) -> BatchEffects {
        let mut fx = BatchEffects::default();
        let idx = nf_id.index();
        // Take the batch vec so the handler can borrow `self`, but hand it
        // back (cleared) afterwards — its capacity is reused every batch.
        let mut rows = std::mem::take(&mut self.nfs[idx].in_progress);
        let (_, n) = self.nfs[idx]
            .current_batch
            .take()
            .expect("finish without plan");
        debug_assert_eq!(n, self.mempool.packets_in(&rows));
        let mut handler = self.handlers[idx].take().expect("handler re-entry");
        let trivial = self.trivial_handler[idx];
        let io_on = self.nfs[idx].spec.io.is_some() && !self.io_flows.is_empty();
        let mut sync_bytes = 0u64;
        // Forwarded runs, in order.
        let mut fwd = std::mem::take(&mut self.scratch_fwd);
        for &row in &rows {
            if trivial {
                // A stateless forward: skip the dynamic dispatch and move
                // the whole run on.
                let p = self.mempool.get_mut(row);
                p.hops_done += 1;
                let flow = p.flow;
                if io_on && self.io_flows.contains(&flow) {
                    let count = self.mempool.count(row);
                    self.storage_writes(idx, count, now, &mut sync_bytes, &mut fx);
                }
                fwd.push(row);
                continue;
            }
            let mut id = row;
            loop {
                let rest = (self.mempool.count(id) > 1).then(|| self.mempool.split(id, 1));
                let p = self.mempool.get_mut(id);
                let action = handler.handle(&mut *p, now);
                let (flow, chain) = (p.flow, p.chain);
                if action == NfAction::Forward {
                    p.hops_done += 1;
                }
                if io_on && self.io_flows.contains(&flow) {
                    self.storage_writes(idx, 1, now, &mut sync_bytes, &mut fx);
                }
                match action {
                    NfAction::Drop => {
                        self.mempool.free(id);
                        self.stats
                            .dropped(flow, chain, DropLocation::Handler(nf_id));
                        self.trace_drop(now, DropCause::Handler, flow.0, chain.0, nf_id.0);
                    }
                    NfAction::Forward => fwd.push(id),
                }
                match rest {
                    Some(next) => id = next,
                    None => break,
                }
            }
        }
        let nf = &mut self.nfs[idx];
        nf.processed += n as u64;
        nf.processed_meter.add(n as u64);
        for &id in &fwd {
            if let Some(rest) = nf.tx.enqueue_run(id, &mut self.mempool) {
                nf.tx.refuse(u64::from(self.mempool.count(rest)));
                nf.outbox.push_back(rest);
            }
        }
        self.handlers[idx] = Some(handler);
        rows.clear();
        self.nfs[idx].in_progress = rows;
        fwd.clear();
        self.scratch_fwd = fwd;
        if sync_bytes > 0 {
            // Blocking write: the NF sleeps until the device finishes.
            let completion = self.storage.submit_write(now, sync_bytes);
            fx.block = Some(BlockReason::Io);
            fx.io_wake_at = Some(completion);
        }
        fx
    }

    /// Storage writes of `n` processed packets of an I/O flow at NF
    /// `idx`, one per packet: synchronous bytes add up for one blocking
    /// write after the batch; asynchronous writes go through the double
    /// buffer.
    fn storage_writes(
        &mut self,
        idx: usize,
        n: u32,
        now: SimTime,
        sync_bytes: &mut u64,
        fx: &mut BatchEffects,
    ) {
        let io = self.nfs[idx]
            .spec
            .io
            .expect("storage writes without io spec");
        match io.mode {
            IoMode::Sync => *sync_bytes += io.bytes_per_packet * u64::from(n),
            IoMode::Async { .. } => {
                let dbuf = self.nfs[idx].dbuf.as_mut().expect("async io w/o dbuf");
                for _ in 0..n {
                    match dbuf.write(now, io.bytes_per_packet, &mut self.storage) {
                        WriteOutcome::Buffered => {}
                        WriteOutcome::Flushing { completion } => {
                            fx.flush_completions.push(completion);
                        }
                        WriteOutcome::Blocked => {
                            // Both buffers busy: the NF suspends after
                            // this batch; it is woken by the in-flight
                            // flush's completion event.
                            fx.block = Some(BlockReason::Io);
                        }
                    }
                }
            }
        }
    }

    /// Deliver a storage-flush completion to `nf`.
    pub fn on_io_complete(&mut self, nf_id: NfId, now: SimTime) -> IoCompleteOutcome {
        let idx = nf_id.index();
        let next_completion = match self.nfs[idx].dbuf.as_mut() {
            Some(dbuf) => dbuf.on_flush_complete(now, &mut self.storage),
            None => None, // synchronous write completion
        };
        IoCompleteOutcome {
            next_completion,
            wake: self.nfs[idx].blocked == Some(BlockReason::Io),
        }
    }

    /// Wake a blocked NF: clears its block reason and marks its task
    /// runnable. Returns `true` if the NF was indeed blocked. A dead NF
    /// is never woken — its task stays parked until respawn.
    pub fn wake_nf(&mut self, nf_id: NfId, now: SimTime) -> bool {
        let nf = &mut self.nfs[nf_id.index()];
        if nf.health == NfHealth::Down || nf.blocked.is_none() {
            return false;
        }
        nf.blocked = None;
        let task = nf.task;
        self.sched.wake(task, now);
        self.trace.record(now, TraceKind::NfWake { nf: nf_id.0 });
        true
    }

    /// Record that the NF on `core` blocked for `reason` (after the engine
    /// has told the scheduler).
    pub fn mark_blocked(&mut self, nf_id: NfId, reason: BlockReason, now: SimTime) {
        self.nfs[nf_id.index()].blocked = Some(reason);
        let reason = match reason {
            BlockReason::EmptyRx => SleepReason::EmptyRx,
            BlockReason::Backpressure => SleepReason::Backpressure,
            BlockReason::TxFull => SleepReason::TxFull,
            BlockReason::Io => SleepReason::Io,
        };
        self.trace.record(
            now,
            TraceKind::NfSleep {
                nf: nf_id.0,
                reason,
            },
        );
    }
}
