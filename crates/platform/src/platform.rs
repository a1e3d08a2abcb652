//! The NFV platform: shared mempool, NIC, flow table, NF runtimes, chains,
//! OS scheduler and storage — plus the *mechanism* halves of the manager's
//! RX and TX threads.
//!
//! Policy stays out of this file by design (mirroring the OpenNetVM /
//! NFVnice split): admission control, ECN marking, wakeup classification
//! and weight assignment are injected by the engine (the `nfvnice` crate)
//! through closures and explicit calls. Everything here is bookkeeping
//! that would exist on any run of the platform, NFVnice or not.

use crate::chain::ChainRegistry;
use crate::nf::{
    BlockReason, ForwardAll, IoMode, NfAction, NfHealth, NfRuntime, NfSpec, PacketHandler,
};
use crate::stats::{DropLocation, FlowDetail, FlowStats, PlatformStats, TcpEvent, TcpEventKind};
use nfv_des::{CpuFreq, Duration, SimTime};
use nfv_io::{StorageDevice, WriteOutcome};
use nfv_obs::{DropCause, SleepReason, TraceKind, TraceSink, NO_ID};
use nfv_pkt::{
    ChainId, Ecn, Enqueue, FlowAging, FlowId, FlowTable, FlowTableKind, FrameRun, Mempool, NfId,
    Nic, Packet, PktId, Proto, TuplePattern, WireFrame,
};
use nfv_sched::{CfsParams, CgroupCpu, OsScheduler, Policy, SchedBackend};
use std::collections::BTreeSet;

/// Entry-admission hook for [`Platform::rx_poll`]: the NFVnice selective
/// early discard policy, injected by the engine (always-true without
/// backpressure). Called as `admit(chain, flow, on_path)`; `on_path(t)`
/// answers "does instance `t` lie on this flow's resolved path?", so
/// with replicas the policy sheds only flows that would actually
/// traverse a congested instance — a flow sharded to a fresh replica is
/// not punished for its sibling's queue. Without replicas every
/// instance is on every path and the hook degenerates to the classic
/// per-chain check.
pub type AdmitFn<'a> = dyn FnMut(ChainId, FlowId, &mut dyn FnMut(NfId) -> bool) -> bool + 'a;

/// The packet an admitted frame of `flow` becomes at its entry NF.
#[inline]
fn admitted(frame: WireFrame, flow: FlowId, chain: ChainId, now: SimTime) -> Packet {
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

/// Static platform configuration.
#[derive(Debug, Clone)]
pub struct PlatformConfig {
    /// Number of cores available to NF processes (manager threads run on
    /// separate dedicated cores, as in the paper).
    pub nf_cores: usize,
    /// Kernel scheduling policy for NF tasks.
    pub policy: Policy,
    /// Which scheduler implementation drives the run (hook-based driver
    /// or the classic monolithic oracle — byte-identical by contract).
    pub sched_backend: SchedBackend,
    /// CFS tunables (ignored by RR).
    pub cfs: CfsParams,
    /// Direct context-switch cost.
    pub cs_cost: Duration,
    /// NF core frequency (cycles → time).
    pub freq: CpuFreq,
    /// Shared mempool capacity in packets.
    pub mempool_capacity: usize,
    /// NIC hardware RX queue depth.
    pub nic_rx_capacity: usize,
    /// `libnf` batch size (the paper processes ≤ 32 packets per batch).
    pub batch_size: usize,
    /// Flow-table index backend (sharded engine or the flat oracle —
    /// byte-identical by contract, like `sched_backend`).
    pub flow_table: FlowTableKind,
    /// Flow aging/eviction policy (off by default: `idle_epochs == 0`
    /// keeps default runs byte-identical to the pre-aging engine).
    pub flow_aging: FlowAging,
    /// Track per-flow rate meters and latency histograms (~4 KB/flow).
    /// Million-flow scale runs turn this off; counters are always kept.
    pub flow_detail: bool,
}

impl Default for PlatformConfig {
    fn default() -> Self {
        PlatformConfig {
            nf_cores: 1,
            policy: Policy::CfsNormal,
            sched_backend: SchedBackend::default_backend(),
            cfs: CfsParams::default(),
            cs_cost: Duration::from_nanos(1_500),
            freq: CpuFreq::PAPER_DEFAULT,
            mempool_capacity: 524_288,
            nic_rx_capacity: Nic::DEFAULT_RX_CAPACITY,
            batch_size: 32,
            flow_table: FlowTableKind::default_kind(),
            flow_aging: FlowAging::default(),
            flow_detail: true,
        }
    }
}

/// Verdict of [`Platform::plan_batch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchPlan {
    /// The NF cannot make progress; it blocks on its semaphore for the
    /// given reason. (For `Backpressure` the yield flag has been consumed.)
    Block(BlockReason),
    /// The NF dequeued `n` packets and will occupy the CPU for `duration`.
    Run {
        /// CPU time this batch consumes.
        duration: Duration,
        /// Packets in the batch.
        n: usize,
    },
}

/// Effects of completing a batch, for the engine to act on.
#[derive(Debug, Default)]
pub struct BatchEffects {
    /// The NF must block after this batch (I/O stall).
    pub block: Option<BlockReason>,
    /// Absolute time of a *synchronous* write completion to wake the NF at.
    pub io_wake_at: Option<SimTime>,
    /// Completion times of asynchronous flushes submitted by this batch;
    /// the engine schedules an I/O-completion event for each.
    pub flush_completions: Vec<SimTime>,
}

/// Outcome of an I/O completion delivered to an NF.
#[derive(Debug, Default)]
pub struct IoCompleteOutcome {
    /// A queued buffer started flushing; schedule its completion too.
    pub next_completion: Option<SimTime>,
    /// The NF was blocked on I/O and should be woken.
    pub wake: bool,
}

/// The assembled platform.
pub struct Platform {
    /// Configuration (immutable after construction).
    pub cfg: PlatformConfig,
    /// Shared packet buffer pool.
    pub mempool: Mempool,
    /// The NIC.
    pub nic: Nic,
    /// Flow classification table.
    pub flow_table: FlowTable,
    /// Installed service chains.
    pub chains: ChainRegistry,
    /// NF runtimes, indexed by `NfId`.
    pub nfs: Vec<NfRuntime>,
    /// OS scheduler for NF cores.
    pub sched: OsScheduler,
    /// cgroup CPU controller.
    pub cgroups: CgroupCpu,
    /// Storage device shared by I/O-performing NFs.
    pub storage: StorageDevice,
    /// Global statistics.
    pub stats: PlatformStats,
    /// Flows whose packets trigger storage I/O at NFs that have an I/O
    /// profile.
    pub io_flows: BTreeSet<FlowId>,
    /// Structured-event sink (off unless observability is enabled).
    pub trace: TraceSink,
    handlers: Vec<Option<Box<dyn PacketHandler>>>,
    /// Per-NF: handler is the stock [`ForwardAll`] (stateless, always
    /// forwards), letting `finish_batch` skip the dynamic dispatch.
    trivial_handler: Vec<bool>,
    /// Per flow id: installed as a TCP flow, so its deliveries and drops
    /// feed back to the sender. Only explicit installs set it, and those
    /// are pinned, so a flagged id is never recycled.
    tcp_flow: Vec<bool>,
    /// The NIC's RX queue of the current poll and the classification
    /// of each run (both reused across polls).
    scratch_runs: Vec<FrameRun>,
    scratch_classes: Vec<Option<(FlowId, ChainId)>>,
    /// Packet ids of an entry burst, and of the burst bound for one next
    /// NF in `tx_drain` (both reused across calls).
    scratch_pids: Vec<PktId>,
    scratch_burst: Vec<PktId>,
    /// Number of NFs currently `Down` — lets the per-frame dead-chain
    /// check in `rx_poll` short-circuit to nothing in fault-free runs.
    down_nfs: usize,
    /// Live replica instances per base NF, in spawn order. Chains always
    /// name base NFs; [`Platform::resolve_instance`] routes each packet
    /// to an instance of the group at the enqueue sites. Empty (and
    /// O(1)-skipped everywhere) unless elastic scale-out spawned one.
    replicas_of: std::collections::BTreeMap<NfId, Vec<NfId>>,
    /// Per replica group: flows minted *before* the first replica existed
    /// (`flow.0 < floor`) stay pinned to the base instance, so per-flow
    /// state never splits mid-flow. Only flows classified after scale-out
    /// are RSS-sharded.
    replica_floor: std::collections::BTreeMap<NfId, u32>,
    /// RSS consistency across group-size changes: the instance a (post-
    /// floor) flow was first sharded to, pinned for the flow's lifetime.
    /// Pins to a retired replica are dropped at scale-in; those flows
    /// re-shard over the remaining group on their next packet.
    flow_pins: std::collections::BTreeMap<(NfId, FlowId), NfId>,
}

impl Platform {
    /// Build an empty platform.
    pub fn new(cfg: PlatformConfig) -> Self {
        let sched = OsScheduler::with_backend(
            cfg.nf_cores,
            cfg.policy,
            cfg.cfs,
            cfg.cs_cost,
            cfg.sched_backend,
        );
        Platform {
            mempool: Mempool::new(cfg.mempool_capacity),
            nic: Nic::new(cfg.nic_rx_capacity),
            flow_table: FlowTable::with_kind(cfg.flow_table),
            chains: ChainRegistry::new(),
            nfs: Vec::new(),
            sched,
            cgroups: CgroupCpu::new(CgroupCpu::DEFAULT_WRITE_COST),
            storage: StorageDevice::default_ssd(),
            stats: PlatformStats::default(),
            io_flows: BTreeSet::new(),
            trace: TraceSink::off(),
            handlers: Vec::new(),
            trivial_handler: Vec::new(),
            tcp_flow: Vec::new(),
            scratch_runs: Vec::new(),
            scratch_classes: Vec::new(),
            scratch_pids: Vec::new(),
            scratch_burst: Vec::new(),
            down_nfs: 0,
            replicas_of: std::collections::BTreeMap::new(),
            replica_floor: std::collections::BTreeMap::new(),
            flow_pins: std::collections::BTreeMap::new(),
            cfg,
        }
    }

    /// Deploy an NF (with the default forward-everything handler).
    pub fn add_nf(&mut self, spec: NfSpec) -> NfId {
        let id = self.add_nf_with_handler(spec, Box::new(ForwardAll));
        // The stock handler is a stateless forward: `finish_batch` skips
        // the per-packet dynamic dispatch for it (same action, no call).
        self.trivial_handler[id.index()] = true;
        id
    }

    /// Deploy an NF with a custom packet handler.
    pub fn add_nf_with_handler(&mut self, spec: NfSpec, handler: Box<dyn PacketHandler>) -> NfId {
        assert!(spec.core < self.cfg.nf_cores, "NF pinned to missing core");
        let task = self.sched.add_task(spec.name.clone(), spec.core);
        self.cgroups.register(task);
        let id = NfId(self.nfs.len() as u32);
        self.nfs.push(NfRuntime::new(spec, task));
        self.handlers.push(Some(handler));
        self.trivial_handler.push(false);
        id
    }

    /// Install a service chain over deployed NFs.
    pub fn install_chain(&mut self, path: &[NfId]) -> ChainId {
        for nf in path {
            assert!(nf.index() < self.nfs.len(), "chain references missing NF");
        }
        let id = self.chains.install(path);
        self.stats.chains.push(Default::default());
        id
    }

    /// Install a flow rule steering `tuple` onto `chain`. Explicit
    /// installs are pinned in the flow table: aging never evicts them.
    pub fn install_flow(&mut self, tuple: nfv_pkt::FiveTuple, chain: ChainId) -> FlowId {
        let flow = self.flow_table.install(tuple, chain);
        self.grow_flow_stats(flow);
        if tuple.proto == Proto::Tcp {
            self.tcp_flow[flow.index()] = true;
        }
        flow
    }

    /// Install a wildcard rule steering `pattern` onto `chain` at
    /// `priority` (higher wins on overlap). Flows learned through a
    /// wildcard are cached exact entries, subject to aging.
    pub fn install_wildcard(&mut self, pattern: TuplePattern, chain: ChainId, priority: i32) {
        self.flow_table.install_wildcard(pattern, chain, priority);
    }

    /// Advance flow aging by one epoch and evict wildcard-learned flows
    /// idle for more than `idle_epochs` completed epochs (ids appended to
    /// `evicted`, ascending). Explicit installs — including every TCP
    /// flow — are pinned, so id recycling can never misroute TCP feedback
    /// or I/O-flow marks. Per-flow delivery stats are kept across
    /// eviction: a recycled id continues its slot's accounting, and the
    /// table's forgotten-counters keep the conservation ledger balanced.
    pub fn age_flows(&mut self, idle_epochs: u32, evicted: &mut Vec<FlowId>) {
        self.flow_table.age(idle_epochs, evicted);
    }

    /// Size per-flow stats and flags up to `flow`, honoring the detail
    /// knob.
    fn grow_flow_stats(&mut self, flow: FlowId) {
        let n = flow.index() + 1;
        if self.tcp_flow.len() < n {
            self.tcp_flow.resize(n, false);
        }
        if self.stats.flows.len() < n {
            self.stats.flows.resize(n, FlowStats::default());
            if self.cfg.flow_detail {
                self.stats.flow_detail.resize_with(n, FlowDetail::default);
            }
        }
    }

    /// Mark a flow as triggering storage I/O at NFs with I/O profiles.
    pub fn set_io_flow(&mut self, flow: FlowId) {
        self.io_flows.insert(flow);
    }

    /// The core an NF is pinned to.
    pub fn core_of(&self, nf: NfId) -> usize {
        self.nfs[nf.index()].spec.core
    }

    /// Ids of the NFs pinned to `core`, in deployment order. The engine
    /// builds its per-core domains from this.
    pub fn nfs_on_core(&self, core: usize) -> impl Iterator<Item = NfId> + '_ {
        self.nfs
            .iter()
            .enumerate()
            .filter(move |(_, nf)| nf.spec.core == core)
            .map(|(i, _)| NfId(i as u32))
    }

    /// The NF currently running on `core`, if any.
    pub fn running_nf(&self, core: usize) -> Option<NfId> {
        let task = self.sched.current(core)?;
        // Task ids and NF ids are created in lockstep.
        Some(NfId(task.0))
    }

    // ------------------------------------------------------------------
    // RX thread mechanism
    // ------------------------------------------------------------------

    /// Poll every pending NIC frame, classify, apply entry admission and
    /// enqueue to each chain's first NF (see [`AdmitFn`] for the
    /// admission hook contract). TCP congestion feedback is appended to
    /// `tcp_out`.
    ///
    /// The NIC queue holds frame runs. Each run is classified with one
    /// flow-table operation, and a run dropped at entry (unclassified,
    /// dead chain or throttled) is counted in O(1); drop traces and TCP
    /// feedback stay per frame, in frame order. Every counter ends up as
    /// if each frame had been handled on its own.
    pub fn rx_poll(&mut self, now: SimTime, admit: &mut AdmitFn<'_>, tcp_out: &mut Vec<TcpEvent>) {
        let mut runs = std::mem::take(&mut self.scratch_runs);
        let mut classes = std::mem::take(&mut self.scratch_classes);
        runs.clear();
        self.nic.take_rx(&mut runs);
        // Classification pass: one flow-table operation per run, with the
        // per-frame counter semantics intact (`FlowTable::classify_run`).
        // A tight pass lets the CPU overlap the cache misses of cold
        // lookups; nothing below touches the flow table, so classifying
        // up front is the same as classifying run by run.
        classes.clear();
        classes.extend(runs.iter().map(|run| {
            let n = run.count as u64;
            self.flow_table
                .classify_run(&run.head.tuple, n, run.bytes())
        }));
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
                    let cause = DropCause::NfDown;
                    self.shed_run(now, run, (flow, chain), cause, dead, tcp_out);
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
                self.shed_run(now, run, (flow, chain), cause, entry, tcp_out);
                continue;
            }
            // Bulk entry: the prefix that fits both the entry ring and the
            // mempool takes its slots and ring entries in one burst each;
            // only the overflow tail walks its frames, so drop ids, traces
            // and `TcpEvent`s stay per frame.
            let bulk = (run.count as usize)
                .min(self.nfs[entry.index()].rx.room())
                .min(self.mempool.available());
            if bulk > 0 {
                let mut ids = std::mem::take(&mut self.scratch_pids);
                ids.clear();
                let pkts = (0..bulk as u32).map(|i| admitted(run.frame(i), flow, chain, now));
                let allocated = self.mempool.alloc_bulk(pkts, &mut ids);
                debug_assert!(allocated);
                let nf = &mut self.nfs[entry.index()];
                let stored = nf.rx.enqueue_burst(&ids);
                debug_assert_eq!(stored, bulk);
                nf.pending_by_chain.add_n(chain, bulk as u32);
                self.scratch_pids = ids;
            }
            for i in bulk as u32..run.count {
                let frame = run.frame(i);
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
        self.scratch_runs = runs;
        self.scratch_classes = classes;
    }

    /// Drop a whole classified run at the entry NF `nf`, `cause` being
    /// `EntryThrottle` or `NfDown` (then `nf` is the dead NF): the
    /// counters move once for the run, and only a traced or TCP run walks
    /// its frames.
    fn shed_run(
        &mut self,
        now: SimTime,
        run: &FrameRun,
        (flow, chain): (FlowId, ChainId),
        cause: DropCause,
        nf: NfId,
        tcp_out: &mut Vec<TcpEvent>,
    ) {
        let loc = match cause {
            DropCause::NfDown => DropLocation::NfDown(nf),
            _ => DropLocation::EntryThrottle,
        };
        self.stats.dropped_n(flow, chain, loc, run.count as u64);
        let tcp = self.is_tcp(flow);
        if !tcp && !self.trace.is_on() {
            return;
        }
        for i in 0..run.count {
            self.trace_drop(now, cause, flow.0, chain.0, nf.0);
            if tcp {
                tcp_out.push(TcpEvent {
                    flow,
                    seq: run.head.seq + i as u64,
                    kind: TcpEventKind::Dropped,
                });
            }
        }
    }

    fn trace_drop(&self, now: SimTime, cause: DropCause, flow: u32, chain: u32, nf: u32) {
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

    /// Whether `flow` was installed as a TCP flow.
    #[inline]
    fn is_tcp(&self, flow: FlowId) -> bool {
        self.tcp_flow.get(flow.index()) == Some(&true)
    }

    fn note_tcp_drop(&self, flow: FlowId, seq: u64, tcp_out: &mut Vec<TcpEvent>) {
        if self.is_tcp(flow) {
            tcp_out.push(TcpEvent {
                flow,
                seq,
                kind: TcpEventKind::Dropped,
            });
        }
    }

    // ------------------------------------------------------------------
    // TX thread mechanism
    // ------------------------------------------------------------------

    /// Drain every NF's TX ring: forward packets to the next NF in their
    /// chain (marking ECN via `mark_ce` when the policy says so) or out the
    /// NIC at chain end. Returns, via `woken_tx`, NFs whose full TX ring
    /// gained room (local backpressure release).
    ///
    /// Each ring is walked in runs of packets that share (flow, chain,
    /// hops): the next hop is resolved once per run, and packets bound
    /// for the same next NF are enqueued to its RX ring in one burst,
    /// with their pending counts added once per chain.
    /// The ECN decision, drops, traces and `TcpEvent`s stay per packet, in
    /// ring order, so every counter ends as if each packet had been
    /// forwarded on its own.
    pub fn tx_drain(
        &mut self,
        now: SimTime,
        mark_ce: &mut dyn FnMut(NfId) -> bool,
        tcp_out: &mut Vec<TcpEvent>,
        woken_tx: &mut Vec<NfId>,
    ) {
        let mut burst = std::mem::take(&mut self.scratch_burst);
        for i in 0..self.nfs.len() {
            if !self.nfs[i].tx.is_empty() {
                self.forward(NfId(i as u32), &mut burst, now, mark_ce, tcp_out);
            }
        }
        self.scratch_burst = burst;
        // Local backpressure release: wake NFs that were stalled on a full
        // TX ring and now have room for their whole outbox.
        for i in 0..self.nfs.len() {
            let nf = &self.nfs[i];
            if nf.blocked == Some(BlockReason::TxFull) && nf.tx.room() >= nf.outbox.len().max(1) {
                woken_tx.push(NfId(i as u32));
            }
        }
    }

    /// Drain `from`'s TX ring, forwarding its packets in order (see
    /// [`Platform::tx_drain`]). `burst` collects the packets bound for one
    /// next NF until the next hop changes.
    fn forward(
        &mut self,
        from: NfId,
        burst: &mut Vec<PktId>,
        now: SimTime,
        mark_ce: &mut dyn FnMut(NfId) -> bool,
        tcp_out: &mut Vec<TcpEvent>,
    ) {
        // The current run's key and resolved hop: `None` at chain end.
        let mut key = (FlowId(u32::MAX), ChainId(u32::MAX), u8::MAX);
        let mut hop: Option<NfId> = None;
        let mut hop_down = false;
        let mut tcp = false;
        // The open burst: its next NF, the room left in that NF's RX
        // ring, and the pending count of the chain run at its tail.
        let mut to = NfId(u32::MAX);
        let mut room = 0usize;
        let mut pend = (ChainId(u32::MAX), 0u32);
        burst.clear();
        while let Some(pid) = self.nfs[from.index()].tx.dequeue() {
            let p = self.mempool.get(pid);
            let (flow, chain, hops) = (p.flow, p.chain, p.hops_done);
            let (seq, size, arrival, ecn) = (p.seq, p.size, p.arrival, p.ecn);
            if (flow, chain, hops) != key {
                key = (flow, chain, hops);
                // Chains name base NFs; shard the flow across the hop's
                // replica group (no-op without replicas). Nothing in a
                // drain changes health or pins, so once per run is exact.
                hop = self
                    .chains
                    .nf_at(chain, hops as usize)
                    .map(|next| self.resolve_instance(next, flow));
                hop_down = hop.is_some_and(|n| self.nfs[n.index()].health == NfHealth::Down);
                tcp = self.is_tcp(flow);
            }
            let Some(next) = hop else {
                // Chain complete: out the wire.
                self.mempool.free(pid);
                self.nic.transmit(size);
                self.stats.delivered(flow, chain, size, now.since(arrival));
                if tcp {
                    tcp_out.push(TcpEvent {
                        flow,
                        seq,
                        kind: TcpEventKind::Delivered { ce: ecn == Ecn::Ce },
                    });
                }
                continue;
            };
            if hop_down {
                // A dead next hop cannot accept the packet; the upstream
                // NF's processing is wasted, same as a full-ring drop.
                // (Transient: entry shedding stops new traffic for the
                // chain the moment the NF dies.)
                self.drop_forwarded(pid, from, next, DropCause::NfDown, now, tcp_out);
                continue;
            }
            if next != to {
                self.flush_burst(to, burst, &mut pend);
                to = next;
                room = self.nfs[next.index()].rx.room();
            }
            {
                let p = self.mempool.get_mut(pid);
                p.enqueued_at = now;
                if p.ecn == Ecn::Ect0 && mark_ce(next) {
                    p.ecn = Ecn::Ce;
                    self.trace.record(now, TraceKind::EcnMark { nf: next.0 });
                }
            }
            self.nfs[next.index()].note_arrival();
            if room == 0 {
                // Flush the burst so the full ring itself rejects (and
                // counts) the packet. The previous NF's work is wasted.
                self.flush_burst(to, burst, &mut pend);
                let rejected = self.nfs[next.index()].rx.enqueue(pid);
                debug_assert_eq!(rejected, Enqueue::Full);
                self.drop_forwarded(pid, from, next, DropCause::RingFull, now, tcp_out);
                continue;
            }
            room -= 1;
            burst.push(pid);
            if pend.0 != chain {
                self.nfs[to.index()].pending_by_chain.add_n(pend.0, pend.1);
                pend = (chain, 0);
            }
            pend.1 += 1;
        }
        self.flush_burst(to, burst, &mut pend);
    }

    /// Enqueue the open burst to `to`'s RX ring (sized to fit) and add
    /// the pending count of its last chain run.
    fn flush_burst(&mut self, to: NfId, burst: &mut Vec<PktId>, pend: &mut (ChainId, u32)) {
        if burst.is_empty() {
            return;
        }
        let nf = &mut self.nfs[to.index()];
        let stored = nf.rx.enqueue_burst(burst);
        debug_assert_eq!(stored, burst.len(), "burst sized to the ring's room");
        nf.pending_by_chain.add_n(pend.0, pend.1);
        *pend = (ChainId(u32::MAX), 0);
        burst.clear();
    }

    /// Drop a forwarded packet at next hop `next` (`RingFull` or
    /// `NfDown`), charging the wasted work to `from`.
    fn drop_forwarded(
        &mut self,
        pid: PktId,
        from: NfId,
        next: NfId,
        cause: DropCause,
        now: SimTime,
        tcp_out: &mut Vec<TcpEvent>,
    ) {
        let (flow, chain, seq) = {
            let p = self.mempool.get(pid);
            (p.flow, p.chain, p.seq)
        };
        let loc = match cause {
            DropCause::NfDown => DropLocation::NfDown(next),
            _ => DropLocation::RingFull(next),
        };
        self.mempool.free(pid);
        self.stats.dropped(flow, chain, loc);
        self.trace_drop(now, cause, flow.0, chain.0, next.0);
        let nf = &mut self.nfs[from.index()];
        nf.wasted_drops += 1;
        nf.wasted_meter.add(1);
        self.note_tcp_drop(flow, seq, tcp_out);
    }

    // ------------------------------------------------------------------
    // NF execution mechanism (libnf batch loop)
    // ------------------------------------------------------------------

    /// Begin a batch for `nf` (the current task on its core). Flushes the
    /// outbox, honors the yield flag, and dequeues up to `batch_size`
    /// packets, computing the batch's CPU cost from the NF's cost model.
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
        // Flush previously processed packets that did not fit in TX.
        while let Some(&pid) = nf.outbox.front() {
            match nf.tx.enqueue(pid) {
                Enqueue::Ok { .. } => {
                    nf.outbox.pop_front();
                }
                Enqueue::Full => break,
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
        let n = nf.rx.dequeue_burst(batch, &mut nf.in_progress);
        // Pending counts move once per run of same-chain packets;
        // `sub_n` reports exactly the desyncs single `sub`s would.
        let mut cycles = 0u64;
        let mut run = (ChainId(u32::MAX), 0u32);
        let mut desync = 0u64;
        for &pid in &nf.in_progress {
            let pkt = self.mempool.get(pid);
            // `cost_factor` is the transient slowdown fault (1 = nominal).
            cycles += nf.spec.cost.cycles(pkt.cost_class) * nf.cost_factor;
            if pkt.chain != run.0 {
                desync += u64::from(nf.pending_by_chain.sub_n(run.0, run.1));
                run = (pkt.chain, 0);
            }
            run.1 += 1;
        }
        desync += u64::from(nf.pending_by_chain.sub_n(run.0, run.1));
        self.stats.pending_desync += desync;
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
    /// handler on each packet, perform storage writes, and push survivors
    /// toward the TX ring in one burst (overflow goes to the outbox, in
    /// order).
    pub fn finish_batch(&mut self, nf_id: NfId, now: SimTime) -> BatchEffects {
        let mut fx = BatchEffects::default();
        let idx = nf_id.index();
        // Take the batch vec so the handler can borrow `self`, but hand it
        // back (cleared) afterwards — its capacity is reused every batch.
        let mut pids = std::mem::take(&mut self.nfs[idx].in_progress);
        let (_, n) = self.nfs[idx]
            .current_batch
            .take()
            .expect("finish without plan");
        debug_assert_eq!(n, pids.len());
        let mut handler = self.handlers[idx].take().expect("handler re-entry");
        let trivial = self.trivial_handler[idx];
        let io_spec = self.nfs[idx].spec.io;
        let io_on = io_spec.is_some() && !self.io_flows.is_empty();
        let mut sync_bytes = 0u64;
        // Forwarded packets are compacted to the front of `pids`, in order.
        let mut forwarded = 0;
        for j in 0..pids.len() {
            let pid = pids[j];
            // One slab access covers the handler call, the post-handler
            // field reads, and the forward hop bump. The stock
            // [`ForwardAll`] handler is a stateless no-op: skip its
            // dynamic dispatch and use its (constant) action directly.
            let p = self.mempool.get_mut(pid);
            let action = if trivial {
                NfAction::Forward
            } else {
                handler.handle(&mut *p, now)
            };
            let (flow, chain) = (p.flow, p.chain);
            if action == NfAction::Forward {
                p.hops_done += 1;
            }
            // Storage I/O for registered flows.
            if io_on && self.io_flows.contains(&flow) {
                let io = io_spec.expect("io_on implies io_spec");
                match io.mode {
                    IoMode::Sync => sync_bytes += io.bytes_per_packet,
                    IoMode::Async { .. } => {
                        let dbuf = self.nfs[idx].dbuf.as_mut().expect("async io w/o dbuf");
                        match dbuf.write(now, io.bytes_per_packet, &mut self.storage) {
                            WriteOutcome::Buffered => {}
                            WriteOutcome::Flushing { completion } => {
                                fx.flush_completions.push(completion);
                            }
                            WriteOutcome::Blocked => {
                                // Both buffers busy: the NF suspends
                                // after this batch; it is woken by the
                                // in-flight flush's completion event.
                                fx.block = Some(BlockReason::Io);
                            }
                        }
                    }
                }
            }
            match action {
                NfAction::Drop => {
                    self.mempool.free(pid);
                    self.stats
                        .dropped(flow, chain, DropLocation::Handler(nf_id));
                    self.trace_drop(now, DropCause::Handler, flow.0, chain.0, nf_id.0);
                }
                NfAction::Forward => {
                    pids[forwarded] = pid;
                    forwarded += 1;
                }
            }
        }
        let nf = &mut self.nfs[idx];
        nf.processed += n as u64;
        nf.processed_meter.add(n as u64);
        let stored = nf.tx.enqueue_burst(&pids[..forwarded]);
        nf.outbox.extend(&pids[stored..forwarded]);
        self.handlers[idx] = Some(handler);
        pids.clear();
        self.nfs[idx].in_progress = pids;
        if sync_bytes > 0 {
            // Blocking write: the NF sleeps until the device finishes.
            let completion = self.storage.submit_write(now, sync_bytes);
            fx.block = Some(BlockReason::Io);
            fx.io_wake_at = Some(completion);
        }
        fx
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

    // ------------------------------------------------------------------
    // NF lifecycle (fault injection + recovery mechanism)
    // ------------------------------------------------------------------

    /// The first dead NF on `chain`'s path, if any. O(1) in fault-free
    /// runs (no NF is down), O(path length) during an outage.
    pub fn chain_down_nf(&self, chain: ChainId) -> Option<NfId> {
        if self.down_nfs == 0 {
            return None;
        }
        self.chains
            .path(chain)
            .iter()
            .copied()
            .find(|nf| self.nfs[nf.index()].health == NfHealth::Down)
    }

    /// True when at least one NF is dead.
    pub fn any_nf_down(&self) -> bool {
        self.down_nfs > 0
    }

    /// Kill an NF: every packet it holds (RX/TX rings, outbox, in-flight
    /// batch) is freed back to the mempool as an `NfDown` drop, its
    /// control state is cleared, and its scheduler task is parked. TCP
    /// loss feedback for drained segments is appended to `tcp_out`.
    ///
    /// If the NF is mid-batch on its core (task `Running`, a `BatchDone`
    /// in flight), the task cannot be parked here; the engine blocks it
    /// at the batch boundary, where `finish_batch` is skipped because the
    /// batch was already freed. Returns the number of packets freed.
    pub fn crash_nf(&mut self, nf_id: NfId, now: SimTime, tcp_out: &mut Vec<TcpEvent>) -> usize {
        let idx = nf_id.index();
        debug_assert!(self.nfs[idx].health != NfHealth::Down, "crash of dead NF");
        self.nfs[idx].health = NfHealth::Down;
        self.down_nfs += 1;
        self.nfs[idx].blocked = None;
        self.nfs[idx].yield_flag = false;
        self.nfs[idx].current_batch = None;
        self.nfs[idx].cost_factor = 1;
        self.nfs[idx].pending_by_chain.clear();
        // nfv-lint: allow(hot-alloc) -- crash drain runs once per injected fault
        let mut pids: Vec<nfv_pkt::PktId> = Vec::new();
        while let Some(pid) = self.nfs[idx].rx.dequeue() {
            pids.push(pid);
        }
        while let Some(pid) = self.nfs[idx].tx.dequeue() {
            pids.push(pid);
        }
        pids.extend(self.nfs[idx].outbox.drain(..));
        pids.append(&mut self.nfs[idx].in_progress);
        let freed = pids.len();
        for pid in pids {
            let (flow, chain, seq) = {
                let p = self.mempool.get(pid);
                (p.flow, p.chain, p.seq)
            };
            self.mempool.free(pid);
            self.stats.dropped(flow, chain, DropLocation::NfDown(nf_id));
            self.trace_drop(now, DropCause::NfDown, flow.0, chain.0, nf_id.0);
            self.note_tcp_drop(flow, seq, tcp_out);
        }
        let task = self.nfs[idx].task;
        self.sched.park(task, now);
        self.trace.record(now, TraceKind::NfCrash { nf: nf_id.0 });
        freed
    }

    /// Respawn a dead NF: the process comes back with empty rings,
    /// blocked on its (empty) RX ring until the wakeup thread sees new
    /// pending work. The scheduler task is re-armed in place, keeping the
    /// task-id/NF-id lockstep invariant.
    pub fn restart_nf(&mut self, nf_id: NfId, now: SimTime) {
        let idx = nf_id.index();
        debug_assert_eq!(self.nfs[idx].health, NfHealth::Down, "restart of live NF");
        self.nfs[idx].health = NfHealth::Up;
        self.down_nfs -= 1;
        self.nfs[idx].cost_factor = 1;
        self.nfs[idx].last_ppp = Duration::ZERO;
        self.nfs[idx].blocked = Some(BlockReason::EmptyRx);
        self.trace.record(now, TraceKind::NfRestart { nf: nf_id.0 });
    }

    /// Wedge an NF: it stays schedulable but stops making progress (see
    /// [`Platform::plan_batch`]'s spin path). The caller wakes it if it
    /// was blocked, so the wedged process visibly burns its core.
    pub fn stall_nf(&mut self, nf_id: NfId) {
        let nf = &mut self.nfs[nf_id.index()];
        debug_assert_eq!(nf.health, NfHealth::Up, "stall of non-running NF");
        nf.health = NfHealth::Stalled;
    }

    // ------------------------------------------------------------------
    // Elastic scaling mechanism (replica spawn / migration / retire)
    // ------------------------------------------------------------------

    /// The base NF an instance stands in for: itself for ordinary NFs,
    /// its `replica_of` for scale-out replicas. Chain-position logic
    /// (suppression, audits) always compares canonical ids.
    pub fn canonical_of(&self, nf: NfId) -> NfId {
        self.nfs[nf.index()].replica_of.unwrap_or(nf)
    }

    /// True when `nf` is a scale-out replica (never named on a chain).
    pub fn is_replica(&self, nf: NfId) -> bool {
        self.nfs[nf.index()].replica_of.is_some()
    }

    /// Live replicas of `base`, in spawn order (empty for unreplicated
    /// NFs).
    pub fn replica_group(&self, base: NfId) -> &[NfId] {
        self.replicas_of.get(&base).map_or(&[], |g| g.as_slice())
    }

    /// Base NFs that currently have at least one live replica.
    pub fn replicated_bases(&self) -> impl Iterator<Item = NfId> + '_ {
        self.replicas_of.keys().copied()
    }

    /// Spawn a replica of `of` on `core`: a fresh NF runtime with the
    /// base's spec (fresh rings, default forward handler — per-flow state
    /// never splits because established flows stay pinned to their
    /// original instance) and a fresh scheduler task, registered at the
    /// end of the NF table so the task-id/NF-id lockstep invariant holds.
    /// The first spawn for a base records the established-flow floor:
    /// every flow minted before it stays on the base.
    pub fn add_replica(&mut self, of: NfId, core: usize, now: SimTime) -> NfId {
        assert!(core < self.cfg.nf_cores, "replica pinned to missing core");
        assert!(
            self.nfs[of.index()].replica_of.is_none(),
            "replica of a replica"
        );
        let nth = self.replica_group(of).len() + 1;
        let mut spec = self.nfs[of.index()].spec.clone();
        spec.core = core;
        spec.name = format!("{}~{nth}", spec.name); // nfv-lint: allow(hot-alloc) -- one-time per scale-out action, not per packet
        let id = self.add_nf_with_handler(spec, Box::new(ForwardAll)); // nfv-lint: allow(hot-alloc) -- one-time per scale-out action, not per packet
        self.trivial_handler[id.index()] = true;
        self.nfs[id.index()].replica_of = Some(of);
        self.replica_floor
            .entry(of)
            .or_insert(self.stats.flows.len() as u32);
        self.replicas_of.entry(of).or_default().push(id);
        self.trace.record(
            now,
            TraceKind::NfScaleOut {
                nf: of.0,
                replica: id.0,
                core: core as u32,
            },
        );
        id
    }

    /// Re-pin an off-CPU NF to `to_core`: park (a no-op if already
    /// blocked), re-home the scheduler task, and leave the NF blocked on
    /// its rings — which move with it untouched — until the wakeup thread
    /// sees its pending work. The caller must not call this for the task
    /// currently running on its core (the engine defers to a batch
    /// boundary); rings, estimator and shares are the engine's to fix up.
    pub fn migrate_nf(&mut self, nf_id: NfId, to_core: usize, now: SimTime) {
        assert!(to_core < self.cfg.nf_cores, "migration to missing core");
        let idx = nf_id.index();
        let from = self.nfs[idx].spec.core;
        debug_assert_ne!(from, to_core, "migration to the same core");
        let task = self.nfs[idx].task;
        let parked = self.sched.park(task, now);
        debug_assert!(parked, "migrate_nf of a Running task");
        self.sched.rehome_task(task, to_core);
        self.nfs[idx].spec.core = to_core;
        // Blocked-on-empty-RX is the wakeup thread's cue to re-admit the
        // NF (on its new core) as soon as it has pending packets.
        self.nfs[idx].blocked = Some(BlockReason::EmptyRx);
        self.nfs[idx].yield_flag = false;
        self.trace.record(
            now,
            TraceKind::NfMigrate {
                nf: nf_id.0,
                from: from as u32,
                to: to_core as u32,
            },
        );
    }

    /// Retire a drained replica (scale-in): remove it from its group so
    /// no further packets route to it, drop its flow pins (those flows
    /// re-shard over the remaining group), and park its task for good.
    /// The instance must be empty — the elastic controller only retires
    /// replicas whose rings and batch are idle, so nothing is dropped.
    ///
    /// The runtime slot is marked `Down` but deliberately *not* counted
    /// in `down_nfs`: replicas never appear on chain paths, so the
    /// dead-chain scan has nothing to find and fault-free runs keep their
    /// O(1) short-circuit.
    pub fn retire_replica(&mut self, replica: NfId, now: SimTime) {
        let idx = replica.index();
        let base = self.nfs[idx].replica_of.expect("retire of a base NF");
        debug_assert!(
            self.nfs[idx].rx.is_empty()
                && self.nfs[idx].tx.is_empty()
                && self.nfs[idx].outbox.is_empty()
                && self.nfs[idx].in_progress.is_empty(),
            "retire of a non-drained replica"
        );
        self.nfs[idx].health = NfHealth::Down;
        self.nfs[idx].blocked = None;
        self.nfs[idx].yield_flag = false;
        self.nfs[idx].pending_by_chain.clear();
        let group = self.replicas_of.get_mut(&base).expect("orphan replica");
        group.retain(|&r| r != replica);
        if group.is_empty() {
            self.replicas_of.remove(&base);
            self.replica_floor.remove(&base);
        }
        self.flow_pins.retain(|_, &mut inst| inst != replica);
        let task = self.nfs[idx].task;
        self.sched.park(task, now);
        self.trace.record(
            now,
            TraceKind::NfScaleIn {
                nf: base.0,
                replica: replica.0,
            },
        );
    }

    /// Route a packet of `flow` bound for chain hop `target` (always a
    /// base NF) to an instance of the target's replica group:
    ///
    /// - no replicas → the base itself (the O(1) fast path for every run
    ///   without elastic scale-out);
    /// - flows older than the group (minted before the first replica
    ///   existed) → the base, always: per-flow state never splits;
    /// - younger flows → RSS-style tuple-hash modulo the instance count,
    ///   pinned on first resolution so a later group-size change cannot
    ///   re-shard an active flow;
    /// - a pin to an instance that has since died falls back to the base
    ///   (without re-pinning, so the instance resumes service on respawn).
    #[inline]
    pub fn resolve_instance(&mut self, target: NfId, flow: FlowId) -> NfId {
        // Fast path kept inlinable: replica-free runs (the default) pay
        // one emptiness branch per resolution, not an outlined call.
        if self.replicas_of.is_empty() {
            return target;
        }
        self.resolve_instance_sharded(target, flow)
    }

    /// Replica-sharding slow path of [`Platform::resolve_instance`].
    fn resolve_instance_sharded(&mut self, target: NfId, flow: FlowId) -> NfId {
        let Some(group) = self.replicas_of.get(&target) else {
            return target;
        };
        if flow.0 < self.replica_floor[&target] {
            return target;
        }
        let inst = match self.flow_pins.get(&(target, flow)) {
            Some(&pinned) => pinned,
            None => {
                let n = group.len() + 1;
                let shard = Self::rss_hash(flow) % n as u64;
                let inst = if shard == 0 {
                    target
                } else {
                    group[shard as usize - 1]
                };
                self.flow_pins.insert((target, flow), inst);
                inst
            }
        };
        if self.nfs[inst.index()].health == NfHealth::Down {
            return target;
        }
        inst
    }

    /// FNV-1a over the flow key — the sim's stand-in for an RSS tuple
    /// hash (a flow id is minted per distinct 5-tuple). Cheap,
    /// deterministic, and spreads consecutive ids across shards.
    fn rss_hash(flow: FlowId) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in flow.0.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
        h
    }

    /// Age of the packet at the head of `nf`'s RX ring (how long it has
    /// been queued) — the backpressure queuing-time input.
    pub fn rx_head_age(&self, nf_id: NfId, now: SimTime) -> Option<Duration> {
        let pid = self.nfs[nf_id.index()].rx.peek()?;
        Some(now.since(self.mempool.get(pid).enqueued_at))
    }

    /// Write `cpu.shares` for an NF's cgroup, returning the sysfs-write
    /// cost (zero when unchanged).
    pub fn set_nf_shares(&mut self, nf_id: NfId, shares: u64) -> Duration {
        let task = self.nfs[nf_id.index()].task;
        self.cgroups.set_shares(&mut self.sched, task, shares)
    }

    /// Close the per-second measurement interval on all meters.
    pub fn roll_meters(&mut self, now: SimTime) {
        self.stats.roll(now);
        for nf in &mut self.nfs {
            nf.processed_meter.roll(now);
            nf.wasted_meter.roll(now);
        }
    }

    /// Invariant: every live mempool packet is accounted for in exactly one
    /// place (a ring, an outbox, or an executing batch). Used by tests.
    pub fn packets_accounted(&self) -> bool {
        let held: usize = self
            .nfs
            .iter()
            .map(|nf| nf.rx.len() + nf.tx.len() + nf.outbox.len() + nf.in_progress.len())
            .sum();
        held == self.mempool.in_use()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfv_pkt::{FiveTuple, WireFrame};

    /// The single-core config every platform unit test runs on. One
    /// fixture instead of a hand-rolled `PlatformConfig` literal per test.
    fn test_cfg() -> PlatformConfig {
        PlatformConfig {
            nf_cores: 1,
            ..Default::default()
        }
    }

    fn mini_platform() -> (Platform, ChainId, FlowId) {
        let mut p = Platform::new(test_cfg());
        let a = p.add_nf(NfSpec::new("a", 0, 100));
        let b = p.add_nf(NfSpec::new("b", 0, 200));
        let chain = p.install_chain(&[a, b]);
        let flow = p.install_flow(FiveTuple::synthetic(0, Proto::Udp), chain);
        (p, chain, flow)
    }

    fn inject(p: &mut Platform, n: u64, now: SimTime) {
        for seq in 0..n {
            p.nic.deliver(WireFrame {
                tuple: FiveTuple::synthetic(0, Proto::Udp),
                size: 64,
                seq,
                cost_class: 0,
                ecn: Ecn::NotEct,
                arrival: now,
            });
        }
    }

    #[test]
    fn rx_poll_classifies_and_enqueues() {
        let (mut p, _, _) = mini_platform();
        inject(&mut p, 10, SimTime::ZERO);
        let mut tcp = Vec::new();
        p.rx_poll(SimTime::ZERO, &mut |_, _, _| true, &mut tcp);
        assert_eq!(p.nfs[0].pending(), 10);
        assert_eq!(p.nfs[0].arrivals, 10);
        assert!(tcp.is_empty());
        assert!(p.packets_accounted());
    }

    #[test]
    fn only_detailed_platforms_fill_the_flow_detail_side_table() {
        for detail in [true, false] {
            let mut p = Platform::new(PlatformConfig {
                flow_detail: detail,
                ..test_cfg()
            });
            let nf = p.add_nf(NfSpec::new("a", 0, 100));
            let chain = p.install_chain(&[nf]);
            p.install_flow(FiveTuple::synthetic(0, Proto::Udp), chain);
            p.install_wildcard(TuplePattern::any(), chain, 0);
            for i in 1..4 {
                p.nic.deliver(WireFrame {
                    tuple: FiveTuple::synthetic(i, Proto::Udp),
                    size: 64,
                    seq: 0,
                    cost_class: 0,
                    ecn: Ecn::NotEct,
                    arrival: SimTime::ZERO,
                });
            }
            p.rx_poll(SimTime::ZERO, &mut |_, _, _| true, &mut Vec::new());
            assert_eq!(p.stats.flows.len(), 4, "pinned + three learned flows");
            let want = if detail { 4 } else { 0 };
            assert_eq!(p.stats.flow_detail.len(), want, "detail = {detail}");
        }
    }

    #[test]
    fn admission_denial_drops_at_entry() {
        let (mut p, chain, flow) = mini_platform();
        inject(&mut p, 5, SimTime::ZERO);
        let mut tcp = Vec::new();
        p.rx_poll(SimTime::ZERO, &mut |_, _, _| false, &mut tcp);
        assert_eq!(p.nfs[0].pending(), 0);
        assert_eq!(p.stats.entry_throttle_drops, 5);
        assert_eq!(p.stats.chains[chain.index()].entry_drops, 5);
        assert_eq!(p.stats.flows[flow.index()].entry_drops, 5);
        assert_eq!(p.mempool.in_use(), 0);
    }

    #[test]
    fn burst_with_unclassified_and_shed_runs_keeps_per_frame_accounting() {
        // One burst: admitted flow `a`, an unknown tuple, shed flow `b`,
        // the unknown tuple again, then `a` again. Classification runs
        // once per tuple run, but counters and the drop trace must read
        // exactly as if every frame had been handled on its own.
        let mut p = Platform::new(test_cfg());
        let na = p.add_nf(NfSpec::new("a", 0, 100));
        let nb = p.add_nf(NfSpec::new("b", 0, 100));
        let (ca, cb) = (p.install_chain(&[na]), p.install_chain(&[nb]));
        let ta = FiveTuple::synthetic(1, Proto::Udp);
        let tb = FiveTuple::synthetic(2, Proto::Udp);
        let unknown = FiveTuple::synthetic(3, Proto::Udp);
        let fa = p.install_flow(ta, ca);
        let fb = p.install_flow(tb, cb);
        p.trace = TraceSink::recording();
        let burst = [ta, ta, unknown, tb, tb, unknown, ta];
        for (seq, tuple) in burst.into_iter().enumerate() {
            p.nic.deliver(WireFrame {
                tuple,
                size: 100,
                seq: seq as u64,
                cost_class: 0,
                ecn: Ecn::NotEct,
                arrival: SimTime::ZERO,
            });
        }
        let mut admit_calls = Vec::new();
        let mut admit = |chain: ChainId, flow: FlowId, _: &mut dyn FnMut(NfId) -> bool| {
            admit_calls.push(flow);
            chain == ca
        };
        let mut tcp = Vec::new();
        p.rx_poll(SimTime::ZERO, &mut admit, &mut tcp);
        // Admission runs once per flow run; the unknown runs in between
        // neither call it nor reset the per-poll cache.
        assert_eq!(admit_calls, vec![fa, fb, fa]);
        assert_eq!(p.stats.unclassified, 2);
        assert_eq!(p.stats.entry_throttle_drops, 2);
        assert_eq!(p.stats.flows[fb.index()].entry_drops, 2);
        assert_eq!(p.nfs[na.index()].pending(), 3);
        // λ counts shed frames too (pre-admission), never unknown ones.
        assert_eq!(p.nfs[na.index()].arrivals, 3);
        assert_eq!(p.nfs[nb.index()].arrivals, 2);
        assert_eq!(p.flow_table.classified_packets(), 5);
        assert_eq!(p.flow_table.get(&ta).unwrap().bytes, 300);
        let st = p.flow_table.stats();
        // Per-frame semantics: a probe per run start (a, b, a) and per
        // unknown frame, memo hits for the repeats inside runs.
        assert_eq!((st.exact_hits, st.memo_hits), (5, 2));
        assert!(p.packets_accounted());
        let drops: Vec<(DropCause, u32)> = p
            .trace
            .take()
            .into_iter()
            .filter_map(|e| match e.kind {
                TraceKind::PacketDrop { cause, flow, .. } => Some((cause, flow)),
                _ => None,
            })
            .collect();
        assert_eq!(
            drops,
            vec![
                (DropCause::Unclassified, NO_ID),
                (DropCause::EntryThrottle, fb.0),
                (DropCause::EntryThrottle, fb.0),
                (DropCause::Unclassified, NO_ID),
            ],
            "drops traced in frame order"
        );
    }

    /// Everything an RX poll can leave behind, for comparing two feeds.
    #[derive(Debug, PartialEq)]
    struct RxOutcome {
        stats: String,
        table: nfv_pkt::FlowTableStats,
        entries: Vec<nfv_pkt::FlowEntry>,
        trace: Vec<nfv_obs::TraceEvent>,
        tcp: Vec<TcpEvent>,
        admit_calls: Vec<FlowId>,
        /// Per NF: arrivals, then `(packet id, seq)` of each queued packet.
        rings: Vec<(u64, Vec<(u32, u64)>)>,
        mempool_in_use: usize,
    }

    /// Run `polls` of `(tuple, first seq, frames)` runs through `rx_poll`,
    /// delivered as those runs or (`split`) as single-frame runs.
    fn rx_outcome(polls: &[Vec<(FiveTuple, u64, u32)>], split: bool) -> RxOutcome {
        let mut p = Platform::new(PlatformConfig {
            mempool_capacity: 12,
            ..test_cfg()
        });
        let nf = |p: &mut Platform, name: &str, ring: usize| {
            p.add_nf(NfSpec::new(name, 0, 100).with_rings(ring, 64))
        };
        let (na, nb, nc, nd, ne) = (
            nf(&mut p, "a", 4),
            nf(&mut p, "b", 64),
            nf(&mut p, "c", 64),
            nf(&mut p, "d", 64),
            nf(&mut p, "e", 8),
        );
        let ca = p.install_chain(&[na]);
        let throttled = p.install_chain(&[nb]);
        let dead = p.install_chain(&[nc, nd]);
        let ct = p.install_chain(&[ne]);
        for (n, proto, chain) in [
            (1, Proto::Udp, ca),
            (2, Proto::Udp, throttled),
            (3, Proto::Udp, dead),
            (4, Proto::Tcp, ct),
            (5, Proto::Tcp, throttled),
            (6, Proto::Tcp, dead),
        ] {
            p.install_flow(FiveTuple::synthetic(n, proto), chain);
        }
        let mut tcp = Vec::new();
        p.crash_nf(nd, SimTime::ZERO, &mut tcp);
        p.trace = TraceSink::recording();
        let mut admit_calls = Vec::new();
        let mut admit = |chain: ChainId, flow: FlowId, _: &mut dyn FnMut(NfId) -> bool| {
            admit_calls.push(flow);
            chain != throttled
        };
        let mut runs = Vec::new();
        for (k, poll) in polls.iter().enumerate() {
            let at = SimTime::from_micros(k as u64);
            for &(tuple, seq, count) in poll {
                let head = WireFrame {
                    tuple,
                    size: 100,
                    seq,
                    cost_class: 0,
                    ecn: Ecn::Ect0,
                    arrival: at,
                };
                let run = FrameRun { head, count };
                if split {
                    runs.extend(run.frames().map(FrameRun::single));
                } else {
                    runs.push(run);
                }
            }
            p.nic.deliver_runs(&mut runs);
            p.rx_poll(at, &mut admit, &mut tcp);
        }
        // One drop trace per dropped frame, whatever the path.
        let traced = p.trace.count(|k| matches!(k, TraceKind::PacketDrop { .. }));
        assert_eq!(
            traced as u64,
            p.stats.dropped_total + p.stats.unclassified,
            "split = {split}"
        );
        let rings = (0..p.nfs.len())
            .map(|i| {
                let mut queued = Vec::new();
                while let Some(pid) = p.nfs[i].rx.dequeue() {
                    queued.push((pid.0, p.mempool.get(pid).seq));
                }
                (p.nfs[i].arrivals, queued)
            })
            .collect();
        RxOutcome {
            stats: format!("{:?}", p.stats),
            table: p.flow_table.stats(),
            entries: p.flow_table.entries().collect(),
            trace: p.trace.take(),
            tcp,
            admit_calls,
            rings,
            mempool_in_use: p.mempool.in_use(),
        }
    }

    #[test]
    fn run_admission_matches_single_frame_admission() {
        let t = |n, proto| FiveTuple::synthetic(n, proto);
        let (ua, ub, uc) = (t(1, Proto::Udp), t(2, Proto::Udp), t(3, Proto::Udp));
        let (ta, tb, tc) = (t(4, Proto::Tcp), t(5, Proto::Tcp), t(6, Proto::Tcp));
        let unknown = t(9, Proto::Udp);
        let polls = vec![
            vec![
                (ua, 0, 3),
                (ua, 3, 2), // continues the previous run
                (unknown, 0, 2),
                (ub, 0, 4),
                (ta, 0, 3),
                (uc, 0, 2),
                (tb, 0, 3),
                (tc, 0, 2),
                (ua, 7, 3), // seq gap: a new run
            ],
            // Entry ring `a` is full; TCP fills ring `e`, then the mempool.
            vec![(ta, 3, 7), (unknown, 2, 1), (tb, 5, 2), (ua, 10, 2)],
            vec![(tc, 2, 3), (ub, 4, 2), (ta, 10, 2)],
        ];
        let runs = rx_outcome(&polls, false);
        assert_eq!(runs, rx_outcome(&polls, true));
        // Every drop cause of the RX path is exercised.
        for cause in [
            DropCause::Unclassified,
            DropCause::EntryThrottle,
            DropCause::NfDown,
            DropCause::RingFull,
            DropCause::MempoolExhausted,
        ] {
            let hit = runs
                .trace
                .iter()
                .any(|e| matches!(e.kind, TraceKind::PacketDrop { cause: c, .. } if c == cause));
            assert!(hit, "{cause:?} not exercised");
        }
        // Shed TCP runs still report every segment, in frame order
        // (flow 4 is `tb`, the throttled TCP flow).
        let dropped: Vec<u64> = runs
            .tcp
            .iter()
            .filter(|e| e.flow == FlowId(4))
            .map(|e| e.seq)
            .collect();
        assert_eq!(dropped, vec![0, 1, 2, 5, 6]);
    }

    #[test]
    fn batch_plan_and_finish_move_packets_through_chain() {
        let (mut p, _, flow) = mini_platform();
        inject(&mut p, 40, SimTime::ZERO);
        let mut tcp = Vec::new();
        p.rx_poll(SimTime::ZERO, &mut |_, _, _| true, &mut tcp);
        // NF a: one batch of 32
        let plan = p.plan_batch(NfId(0));
        match plan {
            BatchPlan::Run { duration, n } => {
                assert_eq!(n, 32);
                // 32 * 100 cycles at 2.6GHz ≈ 1231ns
                assert_eq!(duration, Duration::from_nanos(1231));
            }
            other => panic!("unexpected {other:?}"),
        }
        let fx = p.finish_batch(NfId(0), SimTime::from_micros(2));
        assert!(fx.block.is_none());
        assert_eq!(p.nfs[0].tx.len(), 32);
        assert_eq!(p.nfs[0].processed, 32);
        // TX thread moves them to NF b
        let mut woken = Vec::new();
        p.tx_drain(
            SimTime::from_micros(3),
            &mut |_| false,
            &mut tcp,
            &mut woken,
        );
        assert_eq!(p.nfs[1].pending(), 32);
        // NF b processes and the packets exit
        p.plan_batch(NfId(1));
        p.finish_batch(NfId(1), SimTime::from_micros(5));
        p.tx_drain(
            SimTime::from_micros(6),
            &mut |_| false,
            &mut tcp,
            &mut woken,
        );
        assert_eq!(p.stats.flows[flow.index()].delivered, 32);
        assert_eq!(p.nic.tx_frames, 32);
        assert!(p.packets_accounted());
    }

    #[test]
    fn empty_rx_blocks() {
        let (mut p, _, _) = mini_platform();
        assert_eq!(
            p.plan_batch(NfId(0)),
            BatchPlan::Block(BlockReason::EmptyRx)
        );
    }

    #[test]
    fn yield_flag_consumed_once() {
        let (mut p, _, _) = mini_platform();
        inject(&mut p, 5, SimTime::ZERO);
        let mut tcp = Vec::new();
        p.rx_poll(SimTime::ZERO, &mut |_, _, _| true, &mut tcp);
        p.nfs[0].yield_flag = true;
        assert_eq!(
            p.plan_batch(NfId(0)),
            BatchPlan::Block(BlockReason::Backpressure)
        );
        // Flag consumed: next plan runs normally.
        assert!(matches!(p.plan_batch(NfId(0)), BatchPlan::Run { n: 5, .. }));
    }

    #[test]
    fn downstream_ring_overflow_counts_wasted_work() {
        let mut p = Platform::new(test_cfg());
        let a = p.add_nf(NfSpec::new("a", 0, 100));
        let b = p.add_nf(NfSpec::new("b", 0, 100).with_rings(16, 16));
        let chain = p.install_chain(&[a, b]);
        p.install_flow(FiveTuple::synthetic(0, Proto::Udp), chain);
        inject(&mut p, 64, SimTime::ZERO);
        let mut tcp = Vec::new();
        let mut woken = Vec::new();
        p.rx_poll(SimTime::ZERO, &mut |_, _, _| true, &mut tcp);
        // a processes two batches of 32
        for _ in 0..2 {
            assert!(matches!(p.plan_batch(a), BatchPlan::Run { .. }));
            p.finish_batch(a, SimTime::from_micros(1));
        }
        // all 64 in a's tx; b's ring holds 16 → 48 wasted
        p.tx_drain(
            SimTime::from_micros(2),
            &mut |_| false,
            &mut tcp,
            &mut woken,
        );
        assert_eq!(p.nfs[a.index()].wasted_drops, 48);
        assert_eq!(p.nfs[b.index()].pending(), 16);
        assert!(p.packets_accounted());
    }

    #[test]
    fn tx_full_spills_to_outbox_and_blocks() {
        let mut p = Platform::new(test_cfg());
        let a = p.add_nf(NfSpec::new("a", 0, 100).with_rings(4096, 16));
        let b = p.add_nf(NfSpec::new("b", 0, 100));
        let chain = p.install_chain(&[a, b]);
        p.install_flow(FiveTuple::synthetic(0, Proto::Udp), chain);
        inject(&mut p, 32, SimTime::ZERO);
        let mut tcp = Vec::new();
        let mut woken = Vec::new();
        p.rx_poll(SimTime::ZERO, &mut |_, _, _| true, &mut tcp);
        p.plan_batch(a);
        p.finish_batch(a, SimTime::from_micros(1));
        // 16 fit in tx, 16 spilled
        assert_eq!(p.nfs[a.index()].tx.len(), 16);
        assert_eq!(p.nfs[a.index()].outbox.len(), 16);
        // next plan: outbox still stuck (tx full) → block TxFull
        assert_eq!(p.plan_batch(a), BatchPlan::Block(BlockReason::TxFull));
        p.mark_blocked(a, BlockReason::TxFull, SimTime::from_micros(1));
        // TX thread drains and signals the NF can resume
        p.tx_drain(
            SimTime::from_micros(2),
            &mut |_| false,
            &mut tcp,
            &mut woken,
        );
        assert_eq!(woken, vec![a]);
        assert!(p.packets_accounted());
    }

    #[test]
    fn handler_drop_frees_packet() {
        struct DropAll;
        impl PacketHandler for DropAll {
            fn handle(&mut self, _p: &mut Packet, _now: SimTime) -> NfAction {
                NfAction::Drop
            }
        }
        let mut p = Platform::new(test_cfg());
        let a = p.add_nf_with_handler(NfSpec::new("fw", 0, 100), Box::new(DropAll));
        let chain = p.install_chain(&[a]);
        let flow = p.install_flow(FiveTuple::synthetic(0, Proto::Udp), chain);
        inject(&mut p, 8, SimTime::ZERO);
        let mut tcp = Vec::new();
        p.rx_poll(SimTime::ZERO, &mut |_, _, _| true, &mut tcp);
        p.plan_batch(a);
        p.finish_batch(a, SimTime::from_micros(1));
        assert_eq!(p.mempool.in_use(), 0);
        assert_eq!(p.stats.flows[flow.index()].dropped, 8);
        assert_eq!(p.nfs[a.index()].processed, 8);
    }

    #[test]
    fn tcp_flow_generates_feedback_events() {
        let mut p = Platform::new(test_cfg());
        let a = p.add_nf(NfSpec::new("a", 0, 100));
        let chain = p.install_chain(&[a]);
        let flow = p.install_flow(FiveTuple::synthetic(0, Proto::Tcp), chain);
        for seq in 0..3u64 {
            p.nic.deliver(WireFrame {
                tuple: FiveTuple::synthetic(0, Proto::Tcp),
                size: 1500,
                seq,
                cost_class: 0,
                ecn: Ecn::Ect0,
                arrival: SimTime::ZERO,
            });
        }
        let mut tcp = Vec::new();
        let mut woken = Vec::new();
        p.rx_poll(SimTime::ZERO, &mut |_, _, _| true, &mut tcp);
        p.plan_batch(a);
        p.finish_batch(a, SimTime::from_micros(1));
        p.tx_drain(
            SimTime::from_micros(2),
            &mut |_| false,
            &mut tcp,
            &mut woken,
        );
        assert_eq!(tcp.len(), 3);
        assert!(tcp
            .iter()
            .all(|e| e.flow == flow && e.kind == (TcpEventKind::Delivered { ce: false })));
    }

    #[test]
    fn ecn_marking_applied_between_hops() {
        let (mut p, _, _) = mini_platform();
        // re-install flow as TCP with ECT(0)
        let chain = ChainId(0);
        let flow = p.install_flow(FiveTuple::synthetic(1, Proto::Tcp), chain);
        p.nic.deliver(WireFrame {
            tuple: FiveTuple::synthetic(1, Proto::Tcp),
            size: 1500,
            seq: 0,
            cost_class: 0,
            ecn: Ecn::Ect0,
            arrival: SimTime::ZERO,
        });
        let mut tcp = Vec::new();
        let mut woken = Vec::new();
        p.rx_poll(SimTime::ZERO, &mut |_, _, _| true, &mut tcp);
        p.plan_batch(NfId(0));
        p.finish_batch(NfId(0), SimTime::from_micros(1));
        // mark everything entering NF b
        p.tx_drain(SimTime::from_micros(2), &mut |_| true, &mut tcp, &mut woken);
        p.plan_batch(NfId(1));
        p.finish_batch(NfId(1), SimTime::from_micros(3));
        p.tx_drain(
            SimTime::from_micros(4),
            &mut |_| false,
            &mut tcp,
            &mut woken,
        );
        let delivered: Vec<_> = tcp
            .iter()
            .filter(|e| e.flow == flow && matches!(e.kind, TcpEventKind::Delivered { .. }))
            .collect();
        assert_eq!(delivered.len(), 1);
        assert_eq!(delivered[0].kind, TcpEventKind::Delivered { ce: true });
    }

    #[test]
    fn sync_io_blocks_until_device_completion() {
        use crate::nf::NfIoSpec;
        let mut p = Platform::new(test_cfg());
        let a = p.add_nf(NfSpec::new("log", 0, 100).with_io(NfIoSpec {
            bytes_per_packet: 64,
            mode: IoMode::Sync,
        }));
        let chain = p.install_chain(&[a]);
        let flow = p.install_flow(FiveTuple::synthetic(0, Proto::Udp), chain);
        p.set_io_flow(flow);
        inject(&mut p, 8, SimTime::ZERO);
        let mut tcp = Vec::new();
        p.rx_poll(SimTime::ZERO, &mut |_, _, _| true, &mut tcp);
        p.plan_batch(a);
        let fx = p.finish_batch(a, SimTime::from_micros(1));
        assert_eq!(fx.block, Some(BlockReason::Io));
        let wake = fx.io_wake_at.unwrap();
        assert!(wake > SimTime::from_micros(100), "includes device latency");
        p.mark_blocked(a, BlockReason::Io, SimTime::from_micros(1));
        let out = p.on_io_complete(a, wake);
        assert!(out.wake);
        assert!(out.next_completion.is_none());
    }

    #[test]
    fn crash_drains_every_held_packet_back_to_the_mempool() {
        let (mut p, _, flow) = mini_platform();
        inject(&mut p, 40, SimTime::ZERO);
        let mut tcp = Vec::new();
        p.rx_poll(SimTime::ZERO, &mut |_, _, _| true, &mut tcp);
        // Put packets in every holding spot of NF a: 8 left in rx, 32
        // mid-batch.
        p.plan_batch(NfId(0));
        assert_eq!(p.nfs[0].in_progress.len(), 32);
        assert_eq!(p.nfs[0].pending(), 8);
        let freed = p.crash_nf(NfId(0), SimTime::from_micros(1), &mut tcp);
        assert_eq!(freed, 40);
        assert_eq!(p.mempool.in_use(), 0);
        assert!(p.packets_accounted());
        assert_eq!(p.stats.nf_down_drops, 40);
        assert_eq!(p.stats.flows[flow.index()].dropped, 40);
        assert!(p.nfs[0].pending_by_chain.is_empty());
        assert!(p.nfs[0].current_batch.is_none());
        assert!(p.any_nf_down());
    }

    #[test]
    fn dead_chain_sheds_at_entry_and_forwarding() {
        let (mut p, chain, flow) = mini_platform();
        inject(&mut p, 4, SimTime::ZERO);
        let mut tcp = Vec::new();
        let mut woken = Vec::new();
        p.rx_poll(SimTime::ZERO, &mut |_, _, _| true, &mut tcp);
        p.plan_batch(NfId(0));
        p.finish_batch(NfId(0), SimTime::from_micros(1));
        // Downstream NF b dies with a's output still in a's TX ring.
        p.crash_nf(NfId(1), SimTime::from_micros(2), &mut tcp);
        assert_eq!(p.chain_down_nf(chain), Some(NfId(1)));
        p.tx_drain(
            SimTime::from_micros(3),
            &mut |_| false,
            &mut tcp,
            &mut woken,
        );
        assert_eq!(
            p.nfs[0].wasted_drops, 4,
            "forwarding into dead NF wastes work"
        );
        // New arrivals for the dead chain are shed at entry, pre-λ.
        inject(&mut p, 4, SimTime::from_micros(4));
        p.rx_poll(SimTime::from_micros(4), &mut |_, _, _| true, &mut tcp);
        assert_eq!(p.nfs[0].pending(), 0);
        assert_eq!(p.nfs[0].arrivals, 4, "shed frames are not offered load");
        assert_eq!(p.stats.nf_down_drops, 8);
        assert_eq!(p.stats.flows[flow.index()].dropped, 8);
        assert_eq!(p.mempool.in_use(), 0);
        // Respawn: traffic flows again.
        p.restart_nf(NfId(1), SimTime::from_micros(5));
        assert!(!p.any_nf_down());
        assert_eq!(p.chain_down_nf(chain), None);
        inject(&mut p, 4, SimTime::from_micros(6));
        p.rx_poll(SimTime::from_micros(6), &mut |_, _, _| true, &mut tcp);
        assert_eq!(p.nfs[0].pending(), 4);
    }

    #[test]
    fn dead_nf_cannot_be_woken() {
        let (mut p, _, _) = mini_platform();
        let mut tcp = Vec::new();
        p.crash_nf(NfId(0), SimTime::ZERO, &mut tcp);
        assert!(!p.wake_nf(NfId(0), SimTime::from_micros(1)));
        p.restart_nf(NfId(0), SimTime::from_micros(2));
        assert!(
            p.wake_nf(NfId(0), SimTime::from_micros(3)),
            "blocked EmptyRx"
        );
    }

    #[test]
    fn stalled_nf_spins_without_progress() {
        let (mut p, _, _) = mini_platform();
        inject(&mut p, 8, SimTime::ZERO);
        let mut tcp = Vec::new();
        p.rx_poll(SimTime::ZERO, &mut |_, _, _| true, &mut tcp);
        p.stall_nf(NfId(0));
        let plan = p.plan_batch(NfId(0));
        match plan {
            BatchPlan::Run { duration, n } => {
                assert_eq!(n, 0, "no packets dequeued");
                assert!(duration > Duration::ZERO, "but CPU time is burned");
            }
            other => panic!("unexpected {other:?}"),
        }
        p.finish_batch(NfId(0), SimTime::from_micros(1));
        assert_eq!(p.nfs[0].processed, 0, "progress counter stays flat");
        assert_eq!(p.nfs[0].pending(), 8, "backlog untouched");
        assert!(p.packets_accounted());
    }

    #[test]
    fn slowdown_factor_multiplies_batch_cost() {
        let (mut p, _, _) = mini_platform();
        inject(&mut p, 8, SimTime::ZERO);
        let mut tcp = Vec::new();
        p.rx_poll(SimTime::ZERO, &mut |_, _, _| true, &mut tcp);
        p.nfs[0].cost_factor = 4;
        let BatchPlan::Run { duration: slow, .. } = p.plan_batch(NfId(0)) else {
            panic!("expected a batch");
        };
        p.finish_batch(NfId(0), SimTime::from_micros(1));
        let mut woken = Vec::new();
        p.tx_drain(
            SimTime::from_micros(2),
            &mut |_| false,
            &mut tcp,
            &mut woken,
        );
        p.nfs[1].cost_factor = 1;
        let BatchPlan::Run { duration: base, .. } = p.plan_batch(NfId(1)) else {
            panic!("expected a batch");
        };
        // NF a costs 100 cycles ×4, NF b costs 200 cycles ×1 → 2:1
        // (±1 ns for the independent cycles→ns rounding of each batch).
        let diff = slow.as_nanos() as i64 - 2 * base.as_nanos() as i64;
        assert!(diff.abs() <= 1, "slow={slow} base={base}");
    }

    /// Two-core fixture for the elastic-scaling mechanism tests.
    fn elastic_platform() -> (Platform, ChainId, NfId, NfId, FlowId) {
        let mut p = Platform::new(PlatformConfig {
            nf_cores: 2,
            ..Default::default()
        });
        let a = p.add_nf(NfSpec::new("a", 0, 100));
        let b = p.add_nf(NfSpec::new("b", 0, 200));
        let chain = p.install_chain(&[a, b]);
        let flow = p.install_flow(FiveTuple::synthetic(0, Proto::Udp), chain);
        (p, chain, a, b, flow)
    }

    #[test]
    fn established_flows_stay_pinned_to_base_after_scale_out() {
        let (mut p, _, a, b, old_flow) = elastic_platform();
        let r = p.add_replica(b, 1, SimTime::ZERO);
        assert_eq!(p.canonical_of(r), b);
        assert_eq!(p.canonical_of(b), b);
        assert!(p.is_replica(r) && !p.is_replica(b));
        assert_eq!(p.replica_group(b), &[r]);
        assert_eq!(p.replicated_bases().collect::<Vec<_>>(), vec![b]);
        assert_eq!(p.nfs[r.index()].spec.core, 1);
        assert_eq!(p.nfs[r.index()].spec.name, "b~1");
        // The flow minted before the replica existed keeps its instance —
        // per-flow state never splits.
        assert_eq!(p.resolve_instance(b, old_flow), b);
        // Unreplicated NFs resolve to themselves.
        assert_eq!(p.resolve_instance(a, old_flow), a);
    }

    #[test]
    fn new_flows_shard_across_the_group_with_stable_pins() {
        let (mut p, chain, _, b, _) = elastic_platform();
        let r = p.add_replica(b, 1, SimTime::ZERO);
        let mut hit = std::collections::BTreeSet::new();
        for i in 1..=8 {
            let f = p.install_flow(FiveTuple::synthetic(i, Proto::Udp), chain);
            let inst = p.resolve_instance(b, f);
            assert_eq!(p.resolve_instance(b, f), inst, "pin is stable");
            hit.insert(inst);
        }
        assert!(
            hit.contains(&b) && hit.contains(&r),
            "tuple-hash sharding uses both instances: {hit:?}"
        );
    }

    #[test]
    fn down_replica_falls_back_to_base_without_losing_the_pin() {
        let (mut p, chain, _, b, _) = elastic_platform();
        let r = p.add_replica(b, 1, SimTime::ZERO);
        // Find a flow sharded onto the replica.
        let mut on_replica = None;
        for i in 1..=16 {
            let f = p.install_flow(FiveTuple::synthetic(i, Proto::Udp), chain);
            if p.resolve_instance(b, f) == r {
                on_replica = Some(f);
                break;
            }
        }
        let f = on_replica.expect("some flow shards to the replica");
        let mut tcp = Vec::new();
        p.crash_nf(r, SimTime::ZERO, &mut tcp);
        assert_eq!(p.resolve_instance(b, f), b, "dead instance: serve at base");
        p.restart_nf(r, SimTime::from_micros(1));
        assert_eq!(p.resolve_instance(b, f), r, "pin survives the outage");
    }

    #[test]
    fn retire_replica_unroutes_it_and_drops_its_pins() {
        let (mut p, chain, _, b, _) = elastic_platform();
        let r = p.add_replica(b, 1, SimTime::ZERO);
        for i in 1..=8 {
            let f = p.install_flow(FiveTuple::synthetic(i, Proto::Udp), chain);
            p.resolve_instance(b, f);
        }
        assert!(!p.flow_pins.is_empty());
        p.retire_replica(r, SimTime::from_micros(1));
        assert!(p.replica_group(b).is_empty());
        assert!(
            p.flow_pins.values().all(|&inst| inst != r),
            "no pin may survive to the retired instance"
        );
        assert_eq!(p.nfs[r.index()].health, NfHealth::Down);
        assert!(!p.any_nf_down(), "a retired replica is not a fault");
        for i in 1..=8 {
            // Flow ids are mint-ordered; the pins are gone and so is the
            // group, so everything lands on the base again.
            let f = FlowId(1 + i);
            assert_eq!(p.resolve_instance(b, f), b);
        }
    }

    #[test]
    fn migrate_nf_rehomes_the_blocked_task_and_keeps_rings() {
        let (mut p, _, a, b, _) = elastic_platform();
        // Park a's output in b's RX ring, then migrate b to core 1.
        inject(&mut p, 8, SimTime::ZERO);
        let mut tcp = Vec::new();
        let mut woken = Vec::new();
        p.rx_poll(SimTime::ZERO, &mut |_, _, _| true, &mut tcp);
        p.plan_batch(a);
        p.finish_batch(a, SimTime::from_micros(1));
        p.tx_drain(
            SimTime::from_micros(2),
            &mut |_| false,
            &mut tcp,
            &mut woken,
        );
        assert_eq!(p.nfs[b.index()].pending(), 8);
        p.migrate_nf(b, 1, SimTime::from_micros(3));
        assert_eq!(p.core_of(b), 1);
        assert_eq!(p.sched.task(p.nfs[b.index()].task).core, 1);
        assert_eq!(p.nfs[b.index()].blocked, Some(BlockReason::EmptyRx));
        assert_eq!(p.nfs[b.index()].pending(), 8, "backlog moves with it");
        // The wakeup path admits it on the new core.
        assert!(p.wake_nf(b, SimTime::from_micros(4)));
        assert!(matches!(p.plan_batch(b), BatchPlan::Run { n: 8, .. }));
    }

    #[test]
    fn async_io_overlaps_until_both_buffers_full() {
        use crate::nf::NfIoSpec;
        let mut p = Platform::new(test_cfg());
        // Buffer = 4 packets worth; batch of 32 fills both buffers fast.
        let a = p.add_nf(NfSpec::new("log", 0, 100).with_io(NfIoSpec {
            bytes_per_packet: 64,
            mode: IoMode::Async { buf_size: 256 },
        }));
        let chain = p.install_chain(&[a]);
        let flow = p.install_flow(FiveTuple::synthetic(0, Proto::Udp), chain);
        p.set_io_flow(flow);
        inject(&mut p, 8, SimTime::ZERO);
        let mut tcp = Vec::new();
        p.rx_poll(SimTime::ZERO, &mut |_, _, _| true, &mut tcp);
        p.plan_batch(a);
        let fx = p.finish_batch(a, SimTime::from_micros(1));
        // 8 pkts × 64B = 512B = both buffers: one flush + one blocked
        assert_eq!(fx.flush_completions.len(), 1);
        assert_eq!(fx.block, Some(BlockReason::Io));
        p.mark_blocked(a, BlockReason::Io, SimTime::from_micros(1));
        let out = p.on_io_complete(a, fx.flush_completions[0]);
        assert!(out.wake);
        assert!(out.next_completion.is_some(), "queued buffer flushes next");
    }
}

#[cfg(test)]
#[path = "datapath_props.rs"]
mod datapath_props;
