//! The simulation engine: event loop wiring traffic, the platform
//! mechanisms, the OS scheduler and the NFVnice policy subsystems together.
//!
//! The engine is split by responsibility:
//!
//! - [`events`] — the event vocabulary ([`Ev`]) and its stable digest
//!   encoding, plus the public mid-run [`Action`] type.
//! - [`domain`] — [`CoreDomain`], the per-core state bundle (activity
//!   flag, homed NFs, CPU snapshots, weight-update scratch).
//! - [`managers`] — the manager-thread ticks: traffic, RX, TX, wakeup,
//!   monitor. Periodic events on dedicated (unmodeled) cores, as in the
//!   paper's deployment where the NF Manager's threads are pinned away
//!   from NF cores.
//! - [`nf_exec`] — NF execution in batch-sized segments: `CoreRun` begins
//!   a batch (dequeue + cost computation), `BatchDone` completes it
//!   (handler execution, I/O, TX enqueue) and then makes the scheduling
//!   decision — continue, preempt, or block — which is exactly the
//!   batch-boundary yield/preemption model of `libnf` (§3.2).
//! - [`report`] — series snapshots and end-of-run report assembly.
//!
//! This file holds only the orchestrator: the [`Simulation`] state, its
//! builders, and the main event loop dispatching to the modules above.

mod domain;
mod elastic;
mod events;
mod faults;
mod managers;
mod nf_exec;
mod report;
#[cfg(test)]
mod tests;

pub use events::Action;

use domain::CoreDomain;
use events::{ev_tag, feedback_tag, Ev};

use crate::backpressure::Backpressure;
use crate::config::SimConfig;
use crate::ecn::EcnMarker;
use crate::faults::{FaultEvent, FaultKind};
use crate::invariants;
use crate::load::LoadMonitor;
use crate::report::{Report, Series};
use nfv_des::{Duration, EventQueue, Sanitizer, Severity, SimRng, SimTime};
use nfv_obs::{MetricsRecorder, TraceEvent, TraceSink};
use nfv_pkt::{ChainId, FiveTuple, FlowId, NfId, Proto, TuplePattern};
use nfv_platform::{NfSpec, PacketHandler, Platform, TcpEvent};
use nfv_sched::Policy;
use nfv_traffic::{CbrFlow, Feedback, SweepSource, TcpSource};
use std::collections::{BTreeMap, VecDeque};

/// A configured simulation: build it, attach NFs/chains/traffic, `run`.
pub struct Simulation {
    cfg: SimConfig,
    /// The underlying platform (public for tests and custom inspection).
    pub platform: Platform,
    queue: EventQueue<Ev>,
    rng: SimRng,
    /// Runtime invariant auditor + event-trace digest (public so tests can
    /// inspect violations after `run`, e.g. `sim.sanitizer.assert_clean()`).
    pub sanitizer: Sanitizer,
    udp: Vec<CbrFlow>,
    sweeps: Vec<SweepSource>,
    tcp: Vec<TcpSource>,
    /// Per flow id: the index of its TCP source. TCP flows are pinned
    /// installs, so a flow id never changes hands.
    tcp_of_flow: Vec<Option<u32>>,
    /// Per TCP source: feedback not yet handled, with its due time. An
    /// `Ev::TcpFeedback { src, n }` pops the first `n`. The FIFO is exact
    /// because a source's RTT is constant: its feedback falls due in the
    /// order it is scheduled.
    feedback: Vec<VecDeque<(SimTime, Feedback)>>,
    bp: Backpressure,
    load: LoadMonitor,
    ecn: EcnMarker,
    /// Per-chain latency budgets (SLO targets), consumed at `prime` by
    /// the SLO policy to derive per-task deadlines.
    chain_budgets: BTreeMap<ChainId, Duration>,
    /// Per-core state bundles, one per NF core, built at `prime`.
    domains: Vec<CoreDomain>,
    actions: Vec<(SimTime, Action)>,
    trace: TraceSink,
    metrics: MetricsRecorder,
    mgr_cgroup_time: Duration,
    monitor_ticks: u64,
    tuple_counter: u32,
    last_roll: SimTime,
    /// End of the current run; events scheduled past it are dropped.
    run_end: SimTime,
    /// Liveness watchdog state per NF: (progress counter at the last
    /// tick, consecutive no-progress ticks with pending work).
    watchdog: Vec<(u64, u32)>,
    /// Per-core cumulative busy time at the last elastic check.
    elastic_busy_snapshot: Vec<Duration>,
    /// Per-core busy time over the last check period (scratch derived
    /// from the snapshots each check — kept on the struct so the
    /// controller allocates nothing on the dispatch path).
    elastic_busy_delta: Vec<Duration>,
    /// Consecutive elastic checks each base NF spent throttled
    /// (scale-out dwell); zero and unread for replicas.
    throttle_streak: Vec<u32>,
    /// Consecutive elastic checks each replica spent idle (scale-in
    /// hysteresis); zero and unread for base NFs.
    idle_streak: Vec<u32>,
    /// Elastic checks to skip before the next action may fire.
    elastic_cooldown: u32,
    /// Scale-out replicas deployed.
    scale_outs: u64,
    /// Cross-core migrations performed.
    migrations: u64,
    /// Replicas retired by scale-in.
    scale_ins: u64,
    /// NF crashes applied (injected + watchdog-declared).
    crashes: u64,
    /// NF restarts performed by the recovery policy.
    restarts: u64,
    /// Stalls the liveness watchdog detected.
    stalls_detected: u64,
    /// Events popped and discarded because lazy invalidation made them
    /// stale (dead-NF batch events, no-op respawns/crashes/slowdown
    /// ends). Counted at the discard site, so both queue backends agree
    /// on it by construction.
    stale_pops: u64,
    /// Periodic ticks whose handler body was elided by idle skip-ahead
    /// (the event was still popped and digested). Injected into the
    /// report's `QueueStats` copy — timings-only, per the counter split.
    skipped_ticks: u64,
    /// `pending_desync` counter value already reported to the sanitizer.
    seen_desync: u64,
    traffic_rotor: usize,
    /// Flows evicted by aging over the run (cumulative; backend-identical
    /// by construction, so it may feed metrics columns).
    flows_evicted: u64,
    // per-second series bookkeeping (CPU snapshots live in the domains)
    series: Series,
    scratch_evicted: Vec<FlowId>,
    scratch_tcp: Vec<TcpEvent>,
    scratch_woken: Vec<NfId>,
    scratch_frames: Vec<nfv_pkt::WireFrame>,
    scratch_runs: Vec<nfv_pkt::FrameRun>,
}

impl Simulation {
    /// A new simulation with the given configuration.
    pub fn new(cfg: SimConfig) -> Self {
        let platform = Platform::new(cfg.platform.clone());
        let rng = SimRng::seed_from_u64(cfg.seed);
        Simulation {
            platform,
            queue: EventQueue::with_kind(cfg.queue),
            rng,
            sanitizer: Sanitizer::new(cfg.sanitizer),
            udp: Vec::new(),
            sweeps: Vec::new(),
            tcp: Vec::new(),
            tcp_of_flow: Vec::new(),
            feedback: Vec::new(),
            bp: Backpressure::new(cfg.nfvnice.bp, 0, 0),
            load: LoadMonitor::new(cfg.nfvnice.load, 0),
            ecn: EcnMarker::new(cfg.nfvnice.ecn_cfg, Vec::new()),
            chain_budgets: BTreeMap::new(),
            domains: Vec::new(),
            actions: Vec::new(),
            trace: if cfg.obs.trace {
                TraceSink::recording()
            } else {
                TraceSink::off()
            },
            metrics: if cfg.obs.metrics {
                MetricsRecorder::recording()
            } else {
                MetricsRecorder::off()
            },
            mgr_cgroup_time: Duration::ZERO,
            monitor_ticks: 0,
            tuple_counter: 0,
            last_roll: SimTime::ZERO,
            run_end: SimTime::ZERO,
            watchdog: Vec::new(),
            elastic_busy_snapshot: Vec::new(),
            elastic_busy_delta: Vec::new(),
            throttle_streak: Vec::new(),
            idle_streak: Vec::new(),
            elastic_cooldown: 0,
            scale_outs: 0,
            migrations: 0,
            scale_ins: 0,
            crashes: 0,
            restarts: 0,
            stalls_detected: 0,
            stale_pops: 0,
            skipped_ticks: 0,
            seen_desync: 0,
            traffic_rotor: 0,
            flows_evicted: 0,
            series: Series::default(),
            scratch_evicted: Vec::new(),
            scratch_tcp: Vec::new(),
            scratch_woken: Vec::new(),
            scratch_frames: Vec::new(),
            scratch_runs: Vec::new(),
            cfg,
        }
    }

    /// Deploy an NF.
    pub fn add_nf(&mut self, spec: NfSpec) -> NfId {
        self.platform.add_nf(spec)
    }

    /// Deploy an NF with a custom handler.
    pub fn add_nf_with_handler(&mut self, spec: NfSpec, handler: Box<dyn PacketHandler>) -> NfId {
        self.platform.add_nf_with_handler(spec, handler)
    }

    /// Install a service chain.
    pub fn add_chain(&mut self, path: &[NfId]) -> ChainId {
        self.platform.install_chain(path)
    }

    fn fresh_tuple(&mut self, proto: Proto) -> FiveTuple {
        self.tuple_counter += 1;
        FiveTuple::synthetic(self.tuple_counter, proto)
    }

    /// Attach a constant-rate UDP flow to `chain`.
    pub fn add_udp(&mut self, chain: ChainId, rate_pps: f64, frame_size: u32) -> FlowId {
        self.add_udp_with(chain, rate_pps, frame_size, |f| f)
    }

    /// Attach a UDP flow with extra configuration (window, Poisson, cost
    /// classes) applied by `customize`.
    pub fn add_udp_with(
        &mut self,
        chain: ChainId,
        rate_pps: f64,
        frame_size: u32,
        customize: impl FnOnce(CbrFlow) -> CbrFlow,
    ) -> FlowId {
        let tuple = self.fresh_tuple(Proto::Udp);
        let flow = self.platform.install_flow(tuple, chain);
        self.udp
            .push(customize(CbrFlow::new(tuple, frame_size, rate_pps)));
        flow
    }

    /// Install a wildcard rule steering matching tuples onto `chain` at
    /// `priority` (higher wins on overlap). Flows classified through a
    /// wildcard are learned into the exact table as unpinned entries —
    /// unlike `add_udp`/`add_tcp` installs, they are evicted by aging
    /// when [`FlowAging`](nfv_pkt::FlowAging) is enabled.
    pub fn add_wildcard(&mut self, pattern: TuplePattern, chain: ChainId, priority: i32) {
        self.platform.install_wildcard(pattern, chain, priority);
    }

    /// Attach a tuple-sweeping traffic source: paced like a CBR/Poisson
    /// flow, but spreading frames across its whole tuple space so every
    /// frame exercises wildcard classification and flow-table churn.
    /// Route its tuples with [`Simulation::add_wildcard`].
    pub fn add_sweep(&mut self, sweep: SweepSource) {
        self.sweeps.push(sweep);
    }

    /// Attach a TCP flow to `chain`.
    pub fn add_tcp(&mut self, chain: ChainId, frame_size: u32, rtt: Duration) -> FlowId {
        self.add_tcp_with(chain, frame_size, rtt, |s| s)
    }

    /// Attach a TCP flow with extra configuration (ECN, max cwnd).
    pub fn add_tcp_with(
        &mut self,
        chain: ChainId,
        frame_size: u32,
        rtt: Duration,
        customize: impl FnOnce(TcpSource) -> TcpSource,
    ) -> FlowId {
        let tuple = self.fresh_tuple(Proto::Tcp);
        let flow = self.platform.install_flow(tuple, chain);
        let src = customize(TcpSource::new(tuple, frame_size, rtt));
        if self.tcp_of_flow.len() <= flow.index() {
            self.tcp_of_flow.resize(flow.index() + 1, None);
        }
        self.tcp_of_flow[flow.index()] = Some(self.tcp.len() as u32);
        self.tcp.push(src);
        self.feedback.push(VecDeque::new());
        flow
    }

    /// Mark a flow as triggering storage I/O at I/O-capable NFs.
    pub fn mark_io_flow(&mut self, flow: FlowId) {
        self.platform.set_io_flow(flow);
    }

    /// Declare an end-to-end latency budget (SLO) for `chain`. Under
    /// [`Policy::Slo`] the budget is split across the chain's NFs at
    /// prime time, proportional to per-packet cost, and pushed into the
    /// scheduler as per-task deadline budgets (an NF serving several
    /// budgeted chains keeps the tightest share). Ignored — harmlessly —
    /// under every other policy.
    pub fn set_chain_budget(&mut self, chain: ChainId, budget: Duration) {
        self.chain_budgets.insert(chain, budget);
    }

    /// Schedule a configuration change.
    pub fn at(&mut self, t: SimTime, action: Action) {
        self.actions.push((t, action));
    }

    /// Schedule a fault: at `t`, `nf` suffers `kind`. Convenience wrapper
    /// over [`FaultConfig::events`](crate::faults::FaultConfig) for
    /// experiments that build the plan alongside the topology.
    pub fn inject_fault(&mut self, t: SimTime, nf: NfId, kind: FaultKind) {
        self.cfg.faults.events.push(FaultEvent { at: t, nf, kind });
    }

    /// Read access to a TCP source (for assertions on cwnd etc.).
    pub fn tcp_source(&self, flow: FlowId) -> &TcpSource {
        let src = self.tcp_of_flow[flow.index()].expect("not a TCP flow");
        &self.tcp[src as usize]
    }

    /// Drain the structured trace recorded so far (empty unless
    /// [`ObsConfig::trace`](crate::config::ObsConfig) was set).
    pub fn take_trace(&self) -> Vec<TraceEvent> {
        self.trace.take()
    }

    /// Take the metrics time series recorded so far (empty unless
    /// [`ObsConfig::metrics`](crate::config::ObsConfig) was set).
    pub fn take_metrics(&mut self) -> MetricsRecorder {
        std::mem::take(&mut self.metrics)
    }

    // ------------------------------------------------------------------
    // main loop
    // ------------------------------------------------------------------

    /// Run for `duration` of simulated time and report.
    ///
    /// `run` consumes the simulation's timeline: call it once per
    /// `Simulation`. (A second call panics on the first event scheduled
    /// before the already-advanced clock.)
    ///
    /// The per-flow counters move into the report's
    /// [`Report::flows`](crate::report::Report::flows): afterwards
    /// `sim.platform.stats.flows` (and its detail side table) is empty.
    /// Platform-wide totals, including the conservation ledger's, stay.
    pub fn run(&mut self, duration: Duration) -> Report {
        let end = SimTime::ZERO + duration;
        self.prime(end);
        if self.cfg.coalesce {
            // Timer coalescing: drain every same-instant event in one
            // queue probe and replay the batch in `(time, seq)` order.
            // Anything a handler pushes at the batch's own instant
            // carries a higher seq than every batch member, so it lands
            // in the *next* batch at the same timestamp — the delivered
            // stream is identical to per-pop operation (DESIGN.md §15).
            let mut rest: Vec<(SimTime, Ev)> = Vec::new();
            while let Some((now, ev)) = self.queue.pop_batch_before(end, &mut rest) {
                self.handle(now, ev, end);
                for (t, e) in rest.drain(..) {
                    self.handle(t, e, end);
                }
            }
        } else {
            // `pop_before` folds the old `peek_time` + `pop` pair into
            // one queue search per event.
            while let Some((now, ev)) = self.queue.pop_before(end) {
                self.handle(now, ev, end);
            }
        }
        self.platform.roll_meters(end);
        // Close the final (possibly partial) measurement interval.
        let tail = end.since(self.last_roll).as_secs_f64();
        if tail > 1e-9 {
            self.snapshot_series(tail);
            self.last_roll = end;
        }
        self.build_report(duration)
    }

    fn prime(&mut self, end: SimTime) {
        self.run_end = end;
        let n_nfs = self.platform.nfs.len();
        self.watchdog = vec![(0, 0); n_nfs];
        let n_chains = self.platform.chains.count();
        self.bp = Backpressure::new(self.cfg.nfvnice.bp, n_nfs, n_chains);
        self.load = LoadMonitor::new(self.cfg.nfvnice.load, n_nfs);
        self.ecn = EcnMarker::new(
            self.cfg.nfvnice.ecn_cfg,
            self.platform
                .nfs
                .iter()
                .map(|nf| nf.rx.capacity())
                .collect(),
        );
        // Hand every subsystem the shared trace handle; recording is
        // observation only and never feeds back into any decision, so the
        // event-trace digest is unchanged whether or not it is on.
        self.bp.set_trace(self.trace.clone());
        self.platform.trace = self.trace.clone();
        self.platform.sched.set_trace(self.trace.clone());
        self.metrics.init(
            self.platform.nfs.iter().map(|nf| nf.spec.name.as_str()),
            n_chains,
        );
        // The *deployed* NF population is final now: carve it into
        // per-core domains. (Elastic scale-out may still append replicas
        // mid-run; every per-NF structure sized here grows in lockstep
        // via `spawn_replica`.)
        self.domains = CoreDomain::build_all(&self.platform);
        self.elastic_busy_snapshot = vec![Duration::ZERO; self.domains.len()];
        self.elastic_busy_delta = vec![Duration::ZERO; self.domains.len()];
        self.throttle_streak = vec![0; n_nfs];
        self.idle_streak = vec![0; n_nfs];
        if matches!(self.cfg.platform.policy, Policy::Slo) {
            self.derive_slo_deadlines();
        }
        self.series.cpu_pct = vec![Vec::new(); n_nfs];

        let q = &mut self.queue;
        q.push(SimTime::ZERO + self.cfg.traffic_poll, Ev::Traffic);
        q.push(SimTime::ZERO + self.cfg.rx_poll, Ev::RxPoll);
        q.push(SimTime::ZERO + self.cfg.tx_poll, Ev::TxPoll);
        q.push(SimTime::ZERO + self.cfg.wakeup_period, Ev::Wakeup);
        q.push(
            SimTime::ZERO + self.cfg.nfvnice.load.sample_period,
            Ev::Monitor,
        );
        q.push(SimTime::ZERO + Duration::from_secs(1), Ev::StatsRoll);
        let actions = std::mem::take(&mut self.actions);
        for (idx, (t, _)) in actions.iter().enumerate() {
            if *t <= end {
                q.push(*t, Ev::Action { idx });
            }
        }
        self.actions = actions;
        for (idx, f) in self.cfg.faults.events.iter().enumerate() {
            if f.at <= end {
                q.push(f.at, Ev::Fault { idx });
            }
        }
        // Initial TCP window.
        for src in 0..self.tcp.len() as u32 {
            self.pump_tcp(src, SimTime::ZERO);
        }
    }

    /// Convert per-chain latency budgets into per-task relative
    /// deadlines for [`Policy::Slo`]: each chain's budget is split across
    /// its NFs proportionally to mean per-packet cost, and an NF serving
    /// several budgeted chains keeps the tightest share. Unbudgeted NFs
    /// stay at [`nfv_sched::SLO_DEFAULT_BUDGET`], loose enough that any
    /// budgeted chain outranks them.
    fn derive_slo_deadlines(&mut self) {
        let mut budgets: Vec<Option<Duration>> = vec![None; self.platform.nfs.len()];
        for (&chain, &budget) in &self.chain_budgets {
            let path = self.platform.chains.path(chain);
            let total: u64 = path
                .iter()
                .map(|nf| self.platform.nfs[nf.index()].spec.cost.mean_cycles())
                .sum();
            for nf in path {
                let cost = self.platform.nfs[nf.index()].spec.cost.mean_cycles();
                // Round up so the shares never sum below the budget's
                // granularity floor (a zero share would mean an
                // always-expired deadline).
                let share_ns = (budget.as_nanos() * cost).div_ceil(total.max(1));
                let share = Duration::from_nanos(share_ns);
                let slot = &mut budgets[nf.index()];
                *slot = Some(slot.map_or(share, |prev| prev.min(share)));
            }
        }
        for (idx, b) in budgets.iter().enumerate() {
            if let Some(budget) = *b {
                let task = self.platform.nfs[idx].task;
                self.platform.sched.set_task_budget(task, budget);
            }
        }
    }

    fn handle(&mut self, now: SimTime, ev: Ev, end: SimTime) {
        if let Ev::TcpFeedback { src, n } = ev {
            // One digest entry, handler run and audit per feedback, exactly
            // as if each were its own event.
            for _ in 0..n {
                let (due, fb) = self.feedback[src as usize]
                    .pop_front()
                    .expect("feedback run outlived its FIFO");
                debug_assert_eq!(due, now, "per-source feedback FIFO out of order");
                self.sanitizer.on_event(now, feedback_tag(src, fb));
                self.tcp[src as usize].on_feedback(fb, now);
                self.pump_tcp(src, now);
                self.audit(now);
            }
            return;
        }
        self.sanitizer.on_event(now, ev_tag(&ev));
        match ev {
            Ev::Traffic => {
                self.do_traffic(now);
                self.reschedule(now, self.cfg.traffic_poll, end, Ev::Traffic);
            }
            Ev::RxPoll => {
                // Idle skip-ahead (DESIGN.md §15): each elided body is a
                // *proven* strict no-op — the event is still popped,
                // digested and rescheduled, so the stream is unchanged.
                // Empty NIC: `do_rx` would classify, admit and dispatch
                // nothing.
                if self.cfg.skip_ahead && self.platform.nic.rx_pending() == 0 {
                    self.skipped_ticks += 1;
                } else {
                    self.do_rx(now);
                }
                self.reschedule(now, self.cfg.rx_poll, end, Ev::RxPoll);
            }
            Ev::TxPoll => {
                // No live packet anywhere: no outbox to drain, and no
                // TxFull NF to wake (a TxFull block implies a live
                // outbox entry, hence `in_use > 0`).
                if self.cfg.skip_ahead && self.platform.mempool.in_use() == 0 {
                    self.skipped_ticks += 1;
                } else {
                    self.do_tx(now);
                }
                self.reschedule(now, self.cfg.tx_poll, end, Ev::TxPoll);
            }
            Ev::Wakeup => {
                // Every ring is empty (no live packets) and backpressure
                // is in its ground state: the watermark scan (`Watch` +
                // qlen 0 can neither transition nor mark) and the
                // wake/yield scan (pending is 0 everywhere, nothing
                // suppressed) are both strict no-ops. Gated off while the
                // hysteresis audit is live — a skipped scan would shift a
                // state's first-observation time and change the measured
                // dwell (`Sanitizer::wants_hysteresis`).
                if self.cfg.skip_ahead
                    && self.platform.mempool.in_use() == 0
                    && (!self.cfg.nfvnice.backpressure || self.bp.quiescent())
                    && !self.sanitizer.wants_hysteresis()
                {
                    self.skipped_ticks += 1;
                } else {
                    self.do_wakeup(now);
                }
                self.reschedule(now, self.cfg.wakeup_period, end, Ev::Wakeup);
            }
            Ev::Monitor => {
                self.do_monitor(now);
                self.reschedule(now, self.cfg.nfvnice.load.sample_period, end, Ev::Monitor);
            }
            Ev::StatsRoll => {
                self.platform.roll_meters(now);
                self.snapshot_series(now.since(self.last_roll).as_secs_f64());
                self.last_roll = now;
                self.reschedule(now, Duration::from_secs(1), end, Ev::StatsRoll);
            }
            Ev::CoreRun { core } => self.do_core_run(core, now),
            Ev::BatchDone { core } => self.do_batch_done(core, now),
            Ev::IoComplete { nf } => self.do_io_complete(nf, now),
            Ev::TcpFeedback { .. } => unreachable!("handled per feedback above"),
            Ev::Action { idx } => {
                let action = self.actions[idx].1.clone();
                match action {
                    Action::SetCost(nf, cost) => {
                        self.platform.nfs[nf.index()].spec.cost = cost;
                    }
                }
            }
            Ev::Fault { idx } => {
                let fault = self.cfg.faults.events[idx];
                self.apply_fault(fault, now);
            }
            Ev::NfRespawn { nf } => self.do_respawn(nf, now),
            Ev::SlowdownEnd { nf } => {
                if self.platform.nfs[nf.index()].cost_factor == 1 {
                    // A crash already reset the factor mid-slowdown; the
                    // timer fires as a stale no-op (lazy invalidation).
                    self.stale_pops += 1;
                }
                self.platform.nfs[nf.index()].cost_factor = 1;
            }
        }
        self.audit(now);
    }

    /// The per-event audit tail: surface pending-count desyncs and, when
    /// the sanitizer asks, check packet conservation.
    fn audit(&mut self, now: SimTime) {
        // Invariant surfacing for the platform's non-panicking accounting:
        // a dequeue from a ring whose chain had no pending count is a real
        // bug, reported here instead of a mid-sim panic.
        if self.platform.stats.pending_desync > self.seen_desync {
            let fresh = self.platform.stats.pending_desync - self.seen_desync;
            self.seen_desync = self.platform.stats.pending_desync;
            self.sanitizer.record(
                Severity::Error,
                "pending-accounting",
                now,
                // nfv-lint: allow(hot-alloc) -- invariant-violation path only
                format!("{fresh} dequeue(s) from a ring whose chain had no pending count"),
            );
        }
        if self.sanitizer.wants_conservation() {
            let ledger = invariants::conservation_ledger(&self.platform);
            self.sanitizer.check_conservation(
                now,
                ledger.classified,
                ledger.delivered,
                ledger.dropped,
                ledger.in_flight,
            );
            if !self.platform.packets_accounted() {
                // nfv-lint: allow(hot-alloc) -- invariant-violation path only
                let detail = format!(
                    "mempool in-use ({}) disagrees with ring/outbox/batch occupancy",
                    self.platform.mempool.in_use()
                );
                self.sanitizer
                    .record(Severity::Error, "conservation", now, detail);
            }
        }
    }

    fn reschedule(&mut self, now: SimTime, period: Duration, end: SimTime, ev: Ev) {
        let next = now + period;
        if next <= end {
            self.queue.push(next, ev);
        }
    }
}
