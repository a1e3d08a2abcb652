//! Network function runtime state.
//!
//! Each NF is a separate process in the paper (scheduled by the OS); here
//! it is an [`NfRuntime`]: its RX/TX descriptor rings, its `libnf`-side
//! control flags (the shared-memory *yield* flag the manager sets to make
//! the NF relinquish the CPU at the next batch boundary), per-chain pending
//! counts used by the wakeup/backpressure subsystem, the double-buffered
//! async I/O engine, and counters.
//!
//! The *functional* behaviour of an NF (forward, drop, rewrite) is a
//! [`PacketHandler`]; its *temporal* behaviour is a [`CostModel`]. The
//! split lets experiments dial per-packet costs (the paper's 120/270/550
//! cycle NFs, or variable per-packet costs) independently of what the NF
//! does to the packet.

use nfv_des::Duration;
use nfv_io::DoubleBuffer;
use nfv_pkt::{ChainId, Packet, Ring};
use nfv_sched::TaskId;
use std::collections::VecDeque;

/// Per-chain pending-packet counts, kept as a `ChainId`-sorted vec.
///
/// This sits on the datapath (`add_n`/`sub_n` run once per run of
/// same-chain packets entering or leaving an RX ring), and an NF sees at
/// most a handful of distinct chains, so a binary-searched vec beats a
/// `BTreeMap`'s node allocations — while iteration order stays identical
/// (ascending `ChainId`), which the backpressure evaluation and
/// suppression checks rely on for determinism. The backing vec's capacity
/// is retained across drain/refill cycles, so steady state allocates
/// nothing.
#[derive(Debug, Default)]
pub struct ChainCounts {
    counts: Vec<(ChainId, u32)>,
}

impl ChainCounts {
    /// Increment the count for `chain` (inserting it at its sorted slot).
    pub fn add(&mut self, chain: ChainId) {
        match self.counts.binary_search_by_key(&chain, |&(c, _)| c) {
            Ok(i) => self.counts[i].1 += 1,
            Err(i) => self.counts.insert(i, (chain, 1)),
        }
    }

    /// Increment the count for `chain` by `n` (one [`ChainCounts::add`]
    /// per packet of a run, in one search).
    pub fn add_n(&mut self, chain: ChainId, n: u32) {
        if n == 0 {
            return;
        }
        match self.counts.binary_search_by_key(&chain, |&(c, _)| c) {
            Ok(i) => self.counts[i].1 += n,
            Err(i) => self.counts.insert(i, (chain, n)),
        }
    }

    /// Decrement the count for `chain`, dropping the entry at zero.
    /// Returns `false` when the chain has no pending count — an
    /// accounting desync the caller surfaces as a diagnosable invariant
    /// violation (the counts are left untouched rather than underflowing
    /// or aborting the sim).
    #[must_use]
    pub fn sub(&mut self, chain: ChainId) -> bool {
        let Ok(i) = self.counts.binary_search_by_key(&chain, |&(c, _)| c) else {
            return false;
        };
        self.counts[i].1 -= 1;
        if self.counts[i].1 == 0 {
            self.counts.remove(i);
        }
        true
    }

    /// Decrement the count for `chain` by up to `n`, dropping the entry
    /// at zero. Returns the desync count: how many of `n` single
    /// [`ChainCounts::sub`] calls would have found no pending count.
    #[must_use]
    pub fn sub_n(&mut self, chain: ChainId, n: u32) -> u32 {
        let Ok(i) = self.counts.binary_search_by_key(&chain, |&(c, _)| c) else {
            return n;
        };
        let have = self.counts[i].1;
        if have > n {
            self.counts[i].1 = have - n;
            return 0;
        }
        self.counts.remove(i);
        n - have
    }

    /// Pending count for `chain`, if any.
    pub fn get(&self, chain: ChainId) -> Option<u32> {
        self.counts
            .binary_search_by_key(&chain, |&(c, _)| c)
            .ok()
            .map(|i| self.counts[i].1)
    }

    /// Chains with a nonzero pending count, in ascending `ChainId` order.
    pub fn keys(&self) -> impl Iterator<Item = &ChainId> {
        self.counts.iter().map(|(c, _)| c)
    }

    /// True when no chain has pending packets.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Drop every count (capacity is kept).
    pub fn clear(&mut self) {
        self.counts.clear();
    }
}

/// Per-packet CPU cost of an NF.
#[derive(Debug, Clone)]
pub enum CostModel {
    /// Every packet costs the same number of cycles.
    Fixed(u64),
    /// Cost depends on the packet's `cost_class` (Fig 10's variable
    /// per-packet cost): class `i` costs `table[i % table.len()]` cycles.
    PerClass(Vec<u64>),
}

impl CostModel {
    /// Cycles to process one packet of the given class.
    pub fn cycles(&self, class: u8) -> u64 {
        match self {
            CostModel::Fixed(c) => *c,
            CostModel::PerClass(t) => t[class as usize % t.len()],
        }
    }

    /// Mean cycles across classes (for capacity estimates in harnesses).
    pub fn mean_cycles(&self) -> u64 {
        match self {
            CostModel::Fixed(c) => *c,
            CostModel::PerClass(t) => t.iter().sum::<u64>() / t.len() as u64,
        }
    }
}

/// How an NF performs storage writes.
#[derive(Debug, Clone, Copy)]
pub enum IoMode {
    /// Blocking write per processed batch (the non-NFVnice baseline).
    Sync,
    /// `libnf`-style asynchronous writes with double buffering; each of
    /// the two buffers holds `buf_size` bytes.
    Async {
        /// Capacity of each buffer in bytes.
        buf_size: u64,
    },
}

/// Storage-I/O profile of an NF (only packets of flows registered as
/// I/O-active trigger writes — Fig 14 logs just one of the two flows).
#[derive(Debug, Clone, Copy)]
pub struct NfIoSpec {
    /// Bytes logged per packet.
    pub bytes_per_packet: u64,
    /// Write mode.
    pub mode: IoMode,
}

/// Static configuration of an NF.
#[derive(Debug, Clone)]
pub struct NfSpec {
    /// Name for reports.
    pub name: String,
    /// NF core index this NF is pinned to (0-based over *NF* cores; manager
    /// threads run on their own dedicated cores outside this range).
    pub core: usize,
    /// Per-packet processing cost.
    pub cost: CostModel,
    /// RX ring capacity.
    pub rx_capacity: usize,
    /// TX ring capacity.
    pub tx_capacity: usize,
    /// Optional storage-I/O profile.
    pub io: Option<NfIoSpec>,
    /// Operator priority multiplier in the rate-cost share formula.
    pub priority: f64,
}

impl NfSpec {
    /// Default ring size used throughout the paper-scale experiments
    /// (OpenNetVM's NF queue ring size).
    pub const DEFAULT_RING: usize = 16_384;

    /// An NF with fixed per-packet cost and default rings.
    pub fn new(name: impl Into<String>, core: usize, cycles_per_packet: u64) -> Self {
        NfSpec {
            name: name.into(),
            core,
            cost: CostModel::Fixed(cycles_per_packet),
            rx_capacity: Self::DEFAULT_RING,
            tx_capacity: Self::DEFAULT_RING,
            io: None,
            priority: 1.0,
        }
    }

    /// Replace the cost model.
    pub fn with_cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Attach a storage I/O profile.
    pub fn with_io(mut self, io: NfIoSpec) -> Self {
        self.io = io.into();
        self
    }

    /// Set the operator priority multiplier.
    pub fn with_priority(mut self, p: f64) -> Self {
        self.priority = p;
        self
    }

    /// Set RX/TX ring capacities.
    pub fn with_rings(mut self, rx: usize, tx: usize) -> Self {
        self.rx_capacity = rx;
        self.tx_capacity = tx;
        self
    }
}

/// What an NF does with a packet, decided by its [`PacketHandler`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NfAction {
    /// Pass the packet down the chain (or out of the box at the last hop).
    Forward,
    /// Drop it (a *functional* drop — firewall deny, not congestion).
    Drop,
}

/// Functional behaviour of an NF. Implementations may mutate the packet
/// (NAT rewrites, DPI tagging) and keep their own state; `now` is the
/// simulated processing instant (rate limiters and timeout-based NFs need
/// a clock).
pub trait PacketHandler {
    /// Process one packet at time `now`.
    fn handle(&mut self, pkt: &mut Packet, now: nfv_des::SimTime) -> NfAction;
}

/// The default NF body: a bridge that forwards everything.
#[derive(Debug, Default)]
pub struct ForwardAll;

impl PacketHandler for ForwardAll {
    fn handle(&mut self, _pkt: &mut Packet, _now: nfv_des::SimTime) -> NfAction {
        NfAction::Forward
    }
}

/// Fault-injected process health of an NF.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NfHealth {
    /// Alive and processing normally.
    Up,
    /// Wedged: the process stays schedulable and burns CPU time but makes
    /// no forward progress (no dequeues, no processed packets). Detected
    /// by the manager's liveness watchdog via progress counters.
    Stalled,
    /// Dead: queues drained back to the mempool, scheduler task parked.
    Down,
}

/// Why an NF is blocked on its semaphore.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockReason {
    /// RX ring empty: nothing to do.
    EmptyRx,
    /// Manager directed the NF to sleep (backpressure yield flag).
    Backpressure,
    /// Local backpressure: the NF's TX ring is full.
    TxFull,
    /// Waiting for a storage flush (both I/O buffers busy, or a blocking
    /// synchronous write).
    Io,
}

/// Dynamic state and counters of one NF.
#[derive(Debug)]
pub struct NfRuntime {
    /// Static configuration.
    pub spec: NfSpec,
    /// OS-scheduler task backing this NF process.
    pub task: TaskId,
    /// Receive ring (filled by the manager's RX/TX threads).
    pub rx: Ring,
    /// Transmit ring (drained by the manager's TX threads).
    pub tx: Ring,
    /// Shared-memory flag: relinquish the CPU at the next batch boundary.
    pub yield_flag: bool,
    /// Present iff the NF process is blocked on its semaphore.
    pub blocked: Option<BlockReason>,
    /// Pending RX packets per chain — lets the wakeup thread decide in
    /// O(#chains) whether everything queued here is throttled.
    pub pending_by_chain: ChainCounts,
    /// Packet runs processed (time already charged) but not yet pushed
    /// to the TX ring because it filled: flushed before the next batch.
    pub outbox: VecDeque<nfv_pkt::PktId>,
    /// Packet runs dequeued for the batch currently executing on the CPU,
    /// one row per run.
    pub in_progress: Vec<nfv_pkt::PktId>,
    /// `(duration, n)` of the batch currently executing (`n` packets).
    pub current_batch: Option<(Duration, usize)>,
    /// Double-buffer engine when `spec.io` is `Async`.
    pub dbuf: Option<DoubleBuffer>,
    /// Fault-injected process health.
    pub health: NfHealth,
    /// Transient per-packet cost multiplier (slowdown fault; 1 = nominal).
    pub cost_factor: u64,
    /// `Some(base)` when this instance is an elastic scale-out replica of
    /// `base`. Replicas never appear on chain paths — the enqueue sites
    /// resolve through the platform's replica map — and chain-position
    /// logic (suppression, down-chain shedding) judges them by their base.
    pub replica_of: Option<nfv_pkt::NfId>,

    // ---- counters ----
    /// Packets fully processed by this NF.
    pub processed: u64,
    /// Packets this NF processed that were then dropped at the next hop's
    /// full ring — the paper's "wasted work" metric (Table 3).
    pub wasted_drops: u64,
    /// Enqueue *attempts* into this NF's RX ring (its packet arrival rate
    /// λ for the load estimator).
    pub arrivals: u64,
    /// Most recent observed per-packet processing time, sampled by the
    /// monitor every 1 ms into its 100 ms median window.
    pub last_ppp: Duration,
    /// Per-second service rate (packets processed — includes work later
    /// wasted downstream, the paper's "Svc. rate" column).
    pub processed_meter: nfv_des::RateMeter,
    /// Per-second wasted-work drop rate (Table 3's rows).
    pub wasted_meter: nfv_des::RateMeter,
}

impl NfRuntime {
    /// Fresh runtime for `spec`, backed by scheduler task `task`.
    pub fn new(spec: NfSpec, task: TaskId) -> Self {
        let dbuf = match spec.io {
            Some(NfIoSpec {
                mode: IoMode::Async { buf_size },
                ..
            }) => Some(DoubleBuffer::new(buf_size)),
            _ => None,
        };
        let rx = Ring::new(spec.rx_capacity);
        let tx = Ring::new(spec.tx_capacity);
        NfRuntime {
            spec,
            task,
            rx,
            tx,
            yield_flag: false,
            blocked: Some(BlockReason::EmptyRx),
            pending_by_chain: ChainCounts::default(),
            outbox: VecDeque::new(),
            in_progress: Vec::new(), // nfv-lint: allow(hot-alloc) -- empty vec: no allocation; one-time per NF registration
            current_batch: None,
            dbuf,
            health: NfHealth::Up,
            cost_factor: 1,
            replica_of: None,
            processed: 0,
            wasted_drops: 0,
            arrivals: 0,
            last_ppp: Duration::ZERO,
            processed_meter: nfv_des::RateMeter::new(),
            wasted_meter: nfv_des::RateMeter::new(),
        }
    }

    /// Record a packet of `chain` entering the RX ring. Callers must have
    /// already counted the arrival attempt via [`NfRuntime::note_arrival`].
    pub fn note_pending(&mut self, chain: ChainId) {
        self.pending_by_chain.add(chain);
    }

    /// Record an enqueue *attempt* into the RX ring — successful or not.
    /// This is the NF's offered load λ; counting only successes would make
    /// an overloaded NF's measured load deflate to its service rate and
    /// skew the rate-cost share computation.
    pub fn note_arrival(&mut self) {
        self.note_arrivals(1);
    }

    /// [`NfRuntime::note_arrival`] for `n` enqueue attempts at once.
    pub fn note_arrivals(&mut self, n: u64) {
        self.arrivals += n;
    }

    /// Record `n` packets this NF processed that were then dropped at the
    /// next hop (wasted work).
    pub fn note_wasted(&mut self, n: u64) {
        self.wasted_drops += n;
        self.wasted_meter.add(n);
    }

    /// True when the NF process is alive (up or wedged — a stalled NF
    /// still occupies its task; only a dead one is gone).
    pub fn is_up(&self) -> bool {
        self.health != NfHealth::Down
    }

    /// True when every packet waiting in the RX ring belongs to a chain in
    /// `throttled` (vacuously false when nothing is pending — an idle NF is
    /// not "fully throttled", it is just idle).
    pub fn fully_throttled(&self, throttled: impl Fn(ChainId) -> bool) -> bool {
        !self.pending_by_chain.is_empty() && self.pending_by_chain.keys().all(|&c| throttled(c))
    }

    /// Packets pending in the RX ring.
    pub fn pending(&self) -> usize {
        self.rx.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfv_pkt::PktId;

    #[test]
    fn cost_model_variants() {
        assert_eq!(CostModel::Fixed(250).cycles(7), 250);
        let per = CostModel::PerClass(vec![120, 270, 550]);
        assert_eq!(per.cycles(0), 120);
        assert_eq!(per.cycles(2), 550);
        assert_eq!(per.cycles(3), 120); // wraps
        assert_eq!(per.mean_cycles(), (120 + 270 + 550) / 3);
    }

    #[test]
    fn spec_builder() {
        let s = NfSpec::new("fw", 1, 500)
            .with_priority(2.0)
            .with_rings(128, 64);
        assert_eq!(s.core, 1);
        assert_eq!(s.rx_capacity, 128);
        assert_eq!(s.tx_capacity, 64);
        assert_eq!(s.priority, 2.0);
        assert!(s.io.is_none());
    }

    #[test]
    fn runtime_starts_blocked_on_empty_rx() {
        let rt = NfRuntime::new(NfSpec::new("a", 0, 100), TaskId(0));
        assert_eq!(rt.blocked, Some(BlockReason::EmptyRx));
        assert_eq!(rt.pending(), 0);
        assert!(rt.dbuf.is_none());
    }

    #[test]
    fn async_io_spec_creates_double_buffer() {
        let spec = NfSpec::new("log", 0, 100).with_io(NfIoSpec {
            bytes_per_packet: 64,
            mode: IoMode::Async { buf_size: 4096 },
        });
        let rt = NfRuntime::new(spec, TaskId(0));
        assert!(rt.dbuf.is_some());
    }

    #[test]
    fn pending_by_chain_tracks_counts() {
        let mut rt = NfRuntime::new(NfSpec::new("a", 0, 100), TaskId(0));
        for _ in 0..3 {
            rt.note_arrival();
        }
        rt.note_pending(ChainId(1));
        rt.note_pending(ChainId(1));
        rt.note_pending(ChainId(2));
        assert_eq!(rt.arrivals, 3);
        assert!(!rt.fully_throttled(|c| c == ChainId(1)));
        assert!(rt.pending_by_chain.sub(ChainId(2)));
        assert!(rt.fully_throttled(|c| c == ChainId(1)));
        assert!(rt.pending_by_chain.sub(ChainId(1)));
        assert!(rt.pending_by_chain.sub(ChainId(1)));
        assert!(rt.pending_by_chain.is_empty());
        // idle NF is not fully throttled
        assert!(!rt.fully_throttled(|_| true));
    }

    #[test]
    fn dequeue_without_pending_reports_instead_of_panicking() {
        let mut rt = NfRuntime::new(NfSpec::new("a", 0, 100), TaskId(0));
        assert!(
            !rt.pending_by_chain.sub(ChainId(7)),
            "desync must surface, not abort"
        );
        rt.note_pending(ChainId(1));
        assert!(
            !rt.pending_by_chain.sub(ChainId(2)),
            "wrong chain is a desync too"
        );
        // the existing count is untouched
        assert_eq!(rt.pending_by_chain.get(ChainId(1)), Some(1));
    }

    #[test]
    fn bulk_counts_equal_single_calls() {
        let (c1, c2, c3) = (ChainId(1), ChainId(2), ChainId(3));
        let (mut bulk, mut single) = (ChainCounts::default(), ChainCounts::default());
        for (chain, n) in [(c2, 3), (c1, 0), (c1, 2), (c2, 1), (c3, 5)] {
            bulk.add_n(chain, n);
            (0..n).for_each(|_| single.add(chain));
        }
        let snapshot = |c: &ChainCounts| c.keys().map(|&k| (k, c.get(k))).collect::<Vec<_>>();
        assert_eq!(snapshot(&bulk), snapshot(&single));
        // Partial, exact, over-draining and unknown-chain decrements: the
        // desync count is the number of single `sub`s that would fail.
        for (chain, n, desync) in [(c2, 1, 0), (c3, 5, 0), (c1, 4, 2), (c2, 3, 0), (c3, 2, 2)] {
            assert_eq!(bulk.sub_n(chain, n), desync, "{chain:?} by {n}");
            let failed = (0..n).filter(|_| !single.sub(chain)).count() as u32;
            assert_eq!(failed, desync);
            assert_eq!(snapshot(&bulk), snapshot(&single));
        }
        assert!(bulk.is_empty());
        assert_eq!(bulk.sub_n(c1, 0), 0);
    }

    #[test]
    fn forward_all_forwards() {
        use nfv_des::SimTime;
        use nfv_pkt::FlowId;
        let mut h = ForwardAll;
        let mut p = Packet::new(FlowId(0), ChainId(0), 64, SimTime::ZERO);
        assert_eq!(h.handle(&mut p, SimTime::ZERO), NfAction::Forward);
    }

    #[test]
    fn outbox_is_fifo() {
        let mut rt = NfRuntime::new(NfSpec::new("a", 0, 100), TaskId(0));
        rt.outbox.push_back(PktId(1));
        rt.outbox.push_back(PktId(2));
        assert_eq!(rt.outbox.pop_front(), Some(PktId(1)));
    }
}
