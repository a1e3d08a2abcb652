//! The NFV platform: shared mempool, NIC, flow table, NF runtimes, chains,
//! OS scheduler and storage — the [`Platform`] struct, its configuration,
//! construction, installs and accessors. Its mechanisms sit beside it:
//! the RX/TX threads and the batch loop (`datapath.rs`), NF lifecycle
//! (`lifecycle.rs`) and replica routing (`replicas.rs`). Policy
//! (admission, ECN marking, wakeup classification, weights) is injected
//! by the engine through closures and explicit calls, mirroring the
//! OpenNetVM / NFVnice split.

#[path = "datapath.rs"]
mod datapath;
#[path = "lifecycle.rs"]
mod lifecycle;
#[path = "replicas.rs"]
mod replicas;

use crate::chain::ChainRegistry;
use crate::nf::{BlockReason, ForwardAll, NfRuntime, NfSpec, PacketHandler};
use crate::stats::{FlowDetail, FlowStats, PlatformStats};
use nfv_des::{CpuFreq, Duration, SimTime};
use nfv_io::StorageDevice;
use nfv_obs::TraceSink;
use nfv_pkt::{
    ChainId, FlowAging, FlowId, FlowTable, FlowTableKind, FrameRun, Mempool, NfId, Nic, PktId,
    Proto, TuplePattern,
};
use nfv_sched::{CfsParams, CgroupCpu, OsScheduler, Policy};
use replicas::Replicas;
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

/// Static platform configuration.
#[derive(Debug, Clone)]
pub struct PlatformConfig {
    /// Number of cores available to NF processes (manager threads run on
    /// separate dedicated cores, as in the paper).
    pub nf_cores: usize,
    /// Kernel scheduling policy for NF tasks.
    pub policy: Policy,
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
    /// byte-identical by contract).
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
    /// Flows installed as TCP flows, ascending: their deliveries and
    /// drops feed back to the sender. Only explicit installs add one,
    /// and those are pinned, so a listed id is never recycled.
    tcp_flows: Vec<FlowId>,
    /// The NIC's RX queue of the current poll and the classification
    /// of each run (both reused across polls).
    scratch_runs: Vec<FrameRun>,
    scratch_classes: Vec<Option<(FlowId, ChainId)>>,
    /// The runs a batch forwards, in order (reused across batches).
    scratch_fwd: Vec<PktId>,
    /// Number of NFs currently `Down` — lets the per-frame dead-chain
    /// check in `rx_poll` short-circuit to nothing in fault-free runs.
    down_nfs: usize,
    /// Replica groups, established-flow floors and per-flow instance pins
    /// of elastic scale-out. Chains always name base NFs;
    /// [`Platform::resolve_instance`] routes each packet to an instance
    /// of the group at the enqueue sites. Empty (and O(1)-skipped
    /// everywhere) unless scale-out spawned a replica.
    replicas: Replicas,
}

impl Platform {
    /// Build an empty platform.
    pub fn new(cfg: PlatformConfig) -> Self {
        let sched = OsScheduler::new(cfg.nf_cores, cfg.policy, cfg.cfs, cfg.cs_cost);
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
            tcp_flows: Vec::new(),
            scratch_runs: Vec::new(),
            scratch_classes: Vec::new(),
            scratch_fwd: Vec::new(),
            down_nfs: 0,
            replicas: Replicas::default(),
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
            if let Err(at) = self.tcp_flows.binary_search(&flow) {
                self.tcp_flows.insert(at, flow);
            }
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

    /// Size per-flow stats up to `flow`, honoring the detail knob. Flow
    /// ids are dense, so a new id grows each column by one entry.
    #[inline]
    fn grow_flow_stats(&mut self, flow: FlowId) {
        if flow.index() < self.stats.flows.len() {
            return;
        }
        let n = flow.index() + 1;
        self.stats.flows.resize(n, FlowStats::default());
        if self.cfg.flow_detail {
            self.stats.flow_detail.resize_with(n, FlowDetail::default);
        }
    }

    /// Bytes of per-flow heap storage, by capacity: the counter and
    /// detail columns' entries and the TCP flow list. A detail entry's
    /// meters and histogram own more heap that is not counted.
    pub fn flow_heap_bytes(&self) -> usize {
        self.stats.flows.heap_bytes()
            + self.stats.flow_detail.heap_bytes()
            + self.tcp_flows.capacity() * std::mem::size_of::<FlowId>()
    }

    /// Per-flow counter adds that saturated at 2^48 − 1, in the
    /// [`FlowStats`] counters and the flow table's packet counts. Zero
    /// in any real run; the engine reports a non-zero count as an
    /// invariant violation.
    pub fn saturated_adds(&self) -> u64 {
        self.stats.saturated_adds + self.flow_table.saturated_adds()
    }

    /// Whether `flow` was installed as a TCP flow.
    #[inline]
    fn is_tcp(&self, flow: FlowId) -> bool {
        self.tcp_flows.binary_search(&flow).is_ok()
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

    /// Age of the packet at the head of `nf`'s RX ring (how long it has
    /// been queued) — the backpressure queuing-time input.
    pub fn rx_head_age(&self, nf_id: NfId, now: SimTime) -> Option<Duration> {
        let id = self.nfs[nf_id.index()].rx.peek()?;
        Some(now.since(self.mempool.get(id).head.enqueued_at))
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
            .map(|nf| {
                let parked = nf.outbox.iter().chain(&nf.in_progress);
                nf.rx.len() + nf.tx.len() + self.mempool.packets_in(parked)
            })
            .sum();
        held == self.mempool.in_use()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nf::{IoMode, NfAction, NfHealth};
    use crate::stats::{TcpEvent, TcpEventKind};
    use nfv_obs::{DropCause, TraceKind, NO_ID};
    use nfv_pkt::{Ecn, FiveTuple, Packet, WireFrame};

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
    fn compact_flow_counters_cost_24_bytes_per_flow() {
        use nfv_pkt::FLOW_CHUNK;
        let mut p = Platform::new(PlatformConfig {
            flow_detail: false,
            ..test_cfg()
        });
        let nf = p.add_nf(NfSpec::new("a", 0, 100));
        let chain = p.install_chain(&[nf]);
        let tcp = p.install_flow(FiveTuple::synthetic(0, Proto::Tcp), chain);
        p.install_wildcard(TuplePattern::any(), chain, 0);
        const N: u32 = (1 << 18) + 1;
        for n in 1..N {
            let tuple = FiveTuple::synthetic(n, Proto::Udp);
            let (flow, _) = p.flow_table.classify(&tuple, 64).unwrap();
            p.grow_flow_stats(flow);
        }
        assert_eq!(p.stats.flows.len(), N as usize);
        assert!(p.stats.flow_detail.is_empty());
        assert_eq!(p.tcp_flows, [tcp]);
        // Four full chunks and one holding the last flow; no per-flow
        // TCP flag, no detail entries, no doubling slack.
        assert_eq!(p.stats.flows.heap_bytes(), 24 * 5 * FLOW_CHUNK);
        assert_eq!(p.stats.flows.heap_bytes(), 7_864_320);
        let tcp_list = p.tcp_flows.capacity() * std::mem::size_of::<FlowId>();
        assert_eq!(p.flow_heap_bytes(), 7_864_320 + tcp_list);
    }

    #[test]
    fn learned_flows_cost_68_bytes_each_at_two_to_the_20() {
        // Per-flow state of a compact platform, summed over its layers:
        // table keys 16 + table slot 12 + index 16 (8-byte slots at 1/2
        // load) + counters 24.
        let mut p = Platform::new(PlatformConfig {
            flow_detail: false,
            ..test_cfg()
        });
        let nf = p.add_nf(NfSpec::new("a", 0, 100));
        let chain = p.install_chain(&[nf]);
        p.install_wildcard(TuplePattern::any(), chain, 0);
        const N: u32 = 1 << 20;
        for n in 0..N {
            let tuple = FiveTuple::synthetic(n, Proto::Udp);
            let (flow, _) = p.flow_table.classify(&tuple, 64).unwrap();
            p.grow_flow_stats(flow);
        }
        assert_eq!(p.flow_table.len(), N as usize);
        assert_eq!(p.flow_table.stats().slots, 2 * u64::from(N));
        let tcp_list = p.tcp_flows.capacity() * std::mem::size_of::<FlowId>();
        let bytes = p.flow_table.heap_bytes() + p.flow_heap_bytes() - tcp_list;
        assert_eq!(bytes, 68 << 20);
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
        assert_eq!(p.stats.flows[flow.index()].entry_drops(), 5);
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
        assert_eq!(p.stats.flows[fb.index()].entry_drops(), 2);
        assert_eq!(p.nfs[na.index()].pending(), 3);
        // λ counts shed frames too (pre-admission), never unknown ones.
        assert_eq!(p.nfs[na.index()].arrivals, 3);
        assert_eq!(p.nfs[nb.index()].arrivals, 2);
        assert_eq!(p.flow_table.classified_packets(), 5);
        assert_eq!(p.flow_table.get(&ta).unwrap().packets, 3);
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
        /// Per NF: arrivals, ring counters, then each queued packet.
        rings: Vec<(u64, String)>,
        /// `in_use`, `available`, `high_watermark`, `alloc_failures`.
        mempool: (usize, usize, usize, u64),
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
        let rings = p
            .nfs
            .iter()
            .map(|nf| {
                let rx = &nf.rx;
                let queued: Vec<Packet> = rx
                    .iter()
                    .flat_map(|id| p.mempool.get(id).packets())
                    .collect();
                let counters = (rx.len(), rx.room(), rx.enqueued, rx.full_drops);
                (nf.arrivals, format!("{counters:?} {queued:?}"))
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
            mempool: (
                p.mempool.in_use(),
                p.mempool.available(),
                p.mempool.high_watermark(),
                p.mempool.alloc_failures,
            ),
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
        assert_eq!(p.stats.flows[flow.index()].delivered(), 32);
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
        assert_eq!(p.mempool.packets_in(&p.nfs[a.index()].outbox), 16);
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
        assert_eq!(p.stats.flows[flow.index()].dropped(), 8);
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
        assert_eq!(p.mempool.packets_in(&p.nfs[0].in_progress), 32);
        assert_eq!(p.nfs[0].pending(), 8);
        let freed = p.crash_nf(NfId(0), SimTime::from_micros(1), &mut tcp);
        assert_eq!(freed, 40);
        assert_eq!(p.mempool.in_use(), 0);
        assert!(p.packets_accounted());
        assert_eq!(p.stats.nf_down_drops, 40);
        assert_eq!(p.stats.flows[flow.index()].dropped(), 40);
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
        assert_eq!(p.stats.flows[flow.index()].dropped(), 8);
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
        assert!(!p.replicas.pins().is_empty());
        p.retire_replica(r, SimTime::from_micros(1));
        assert!(p.replica_group(b).is_empty());
        assert!(
            p.replicas.pins().values().all(|&inst| inst != r),
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
