//! The manager-thread ticks: traffic generation, RX classification and
//! admission, TX draining, the wakeup thread's watermark evaluation and
//! wake/yield classification, and the monitor's load sampling and cgroup
//! weight updates. Each runs as a periodic event on a dedicated
//! (unmodeled) core, as in the paper's deployment where the NF Manager's
//! threads are pinned away from NF cores.

use super::events::Ev;
use super::Simulation;
use crate::backpressure::BpState;
use crate::load::compute_shares;
use nfv_des::{Duration, SimTime};
use nfv_obs::{DropCause, TraceKind, NO_ID};
use nfv_pkt::{ChainId, FlowId, NfId};
use nfv_traffic::Feedback;

impl Simulation {
    pub(super) fn do_traffic(&mut self, now: SimTime) {
        // Sources emit frame runs (one per constant-rate source and poll)
        // and the NIC queues them as runs; `rx_poll` accounts them.
        let mut runs = std::mem::take(&mut self.scratch_runs);
        runs.clear();
        // Rotate the source order each poll: with a fixed order, the first
        // flow's burst would systematically win the last ring slots when a
        // shared NF's queue hovers near full, starving later flows.
        let n = self.udp.len();
        if n > 0 {
            self.traffic_rotor = (self.traffic_rotor + 1) % n;
            for i in 0..n {
                let idx = (self.traffic_rotor + i) % n;
                self.udp[idx].emit_runs(now, self.cfg.traffic_poll, &mut self.rng, &mut runs);
            }
        }
        // Sweep sources (scenario traffic over wildcard rules) emit after
        // the pinned flows: their tuples churn the flow table, so they
        // lose the NIC-tail lottery first under overload, keeping the
        // pinned flows' behavior comparable with sweep-free runs.
        for s in &mut self.sweeps {
            s.emit_runs(now, self.cfg.traffic_poll, &mut self.rng, &mut runs);
        }
        // UDP is non-responsive: NIC overflow is silent loss. Overflow
        // always hits the poll's tail, so the bulk path traces the same
        // drops in the same order as a per-frame loop would.
        let dropped = self.platform.nic.deliver_runs(&mut runs);
        for _ in 0..dropped {
            self.trace_nic_overflow(now);
        }
        self.scratch_runs = runs;
    }

    fn trace_nic_overflow(&self, now: SimTime) {
        // Classification has not happened yet, so flow/chain are unknown.
        self.trace.record(
            now,
            TraceKind::PacketDrop {
                cause: DropCause::NicOverflow,
                flow: NO_ID,
                chain: NO_ID,
                nf: NO_ID,
            },
        );
    }

    pub(super) fn pump_tcp(&mut self, src: u32, now: SimTime) {
        let mut frames = std::mem::take(&mut self.scratch_frames);
        frames.clear();
        self.tcp[src as usize].pump(now, &mut frames);
        let mut dropped = 0;
        for f in frames.drain(..) {
            if !self.platform.nic.deliver(f) {
                self.trace_nic_overflow(now);
                // Hardware drop: the sender finds out a round trip later.
                self.queue_feedback(src, Feedback::Dropped { seq: f.seq }, now);
                dropped += 1;
            }
        }
        self.schedule_feedback_run(src, dropped, now);
        self.scratch_frames = frames;
    }

    /// Queue one feedback on source `src`'s FIFO, due a round trip after
    /// `now`; [`Simulation::schedule_feedback_run`] schedules its event.
    fn queue_feedback(&mut self, src: u32, fb: Feedback, now: SimTime) {
        let due = now + self.tcp[src as usize].rtt;
        let fifo = &mut self.feedback[src as usize];
        // The FIFO is popped in event order, which is due-time order: a
        // source's RTT must stay constant.
        debug_assert!(fifo.back().is_none_or(|&(last, _)| last <= due));
        fifo.push_back((due, fb));
    }

    /// Schedule the event for the last `n` feedbacks queued on `src`'s
    /// FIFO at `now`.
    fn schedule_feedback_run(&mut self, src: u32, n: u32, now: SimTime) {
        if n > 0 {
            let due = now + self.tcp[src as usize].rtt;
            self.queue.push(due, Ev::TcpFeedback { src, n });
        }
    }

    pub(super) fn do_rx(&mut self, now: SimTime) {
        let Simulation {
            platform,
            bp,
            cfg,
            scratch_tcp,
            ..
        } = self;
        scratch_tcp.clear();
        // O(1) whole-poll gate: with zero marks anywhere (the common
        // steady state) every frame admits, so skip the per-frame
        // throttler walk entirely.
        let shed_possible = cfg.nfvnice.backpressure && bp.any_marks();
        // Shed only when a throttling instance lies on the flow's resolved
        // path (`on_path` is the platform's replica-sharding resolver) —
        // without replicas every throttler is on every path and this is
        // exactly `is_throttled(chain)`.
        // nfv-lint: allow(layering) -- `AdmitFn`'s resolver argument is a plain callback, not a policy/mechanism trait object
        let mut admit = |chain: ChainId, _flow: FlowId, on_path: &mut dyn FnMut(NfId) -> bool| {
            !shed_possible || !bp.throttlers(chain).any(&mut *on_path)
        };
        platform.rx_poll(now, &mut admit, scratch_tcp);
        self.dispatch_tcp_events(now);
    }

    pub(super) fn do_tx(&mut self, now: SimTime) {
        let Simulation {
            platform,
            ecn,
            cfg,
            scratch_tcp,
            scratch_woken,
            ..
        } = self;
        scratch_tcp.clear();
        scratch_woken.clear();
        let ecn_on = cfg.nfvnice.ecn;
        let mut mark = |nf: NfId| {
            if ecn_on && ecn.should_mark(nf.index()) {
                ecn.note_mark();
                true
            } else {
                false
            }
        };
        platform.tx_drain(now, &mut mark, scratch_tcp, scratch_woken);
        let woken = std::mem::take(&mut self.scratch_woken);
        for nf in &woken {
            if self.platform.wake_nf(*nf, now) {
                self.kick(self.platform.core_of(*nf), now);
            }
        }
        self.scratch_woken = woken;
        self.dispatch_tcp_events(now);
    }

    /// Turn the platform's TCP events into feedback, one queue event per
    /// run of consecutive same-source events. Runs never merge across
    /// another source's event, so the feedback pops in the order of
    /// `scratch_tcp`.
    pub(super) fn dispatch_tcp_events(&mut self, now: SimTime) {
        let events = std::mem::take(&mut self.scratch_tcp);
        let mut run = (u32::MAX, 0);
        for ev in &events {
            let Some(src) = self.tcp_of_flow.get(ev.flow.index()).copied().flatten() else {
                continue;
            };
            let fb = match ev.kind {
                nfv_platform::TcpEventKind::Delivered { ce } => {
                    Feedback::Delivered { seq: ev.seq, ce }
                }
                nfv_platform::TcpEventKind::Dropped => Feedback::Dropped { seq: ev.seq },
            };
            if src != run.0 {
                self.schedule_feedback_run(run.0, run.1, now);
                run = (src, 0);
            }
            self.queue_feedback(src, fb, now);
            run.1 += 1;
        }
        self.schedule_feedback_run(run.0, run.1, now);
        self.scratch_tcp = events;
    }

    pub(super) fn do_wakeup(&mut self, now: SimTime) {
        let bp_on = self.cfg.nfvnice.backpressure;
        if bp_on {
            // Control half of backpressure: run each NF through the
            // watermark state machine (detection happened implicitly via
            // ring occupancy).
            let Simulation {
                platform,
                bp,
                sanitizer,
                cfg,
                ..
            } = self;
            for idx in 0..platform.nfs.len() {
                let nf = &platform.nfs[idx];
                if !nf.is_up() {
                    continue; // drained at crash; cleared via clear_nf
                }
                let head_age = platform.rx_head_age(NfId(idx as u32), now);
                bp.evaluate(
                    now,
                    NfId(idx as u32),
                    nf.rx.len(),
                    nf.rx.capacity(),
                    head_age,
                    nf.pending_by_chain.keys(),
                );
                // Hysteresis audit: a HIGH↔LOW flip faster than the
                // queuing-time threshold means the watermark gap is not
                // filtering transients.
                let throttled = matches!(bp.state(NfId(idx as u32)), BpState::Throttle);
                sanitizer.note_watermark(idx, now, throttled, cfg.nfvnice.bp.qtime_threshold);
            }
        }
        // Wake / yield classification. `any_marks` short-circuits the
        // per-NF suppression walk when nothing is throttled anywhere
        // (`nf_suppressed` is vacuously false with no throttlers).
        let may_suppress = bp_on && self.bp.any_marks();
        for idx in 0..self.platform.nfs.len() {
            if !self.platform.nfs[idx].is_up() {
                continue; // a dead NF's task stays parked until respawn
            }
            let suppressed = may_suppress && self.nf_suppressed(idx);
            if suppressed {
                self.audit_suppression(idx, now);
            }
            let nf = &mut self.platform.nfs[idx];
            use nfv_platform::BlockReason::*;
            match nf.blocked {
                Some(EmptyRx) | Some(Backpressure) if nf.pending() > 0 && !suppressed => {
                    let id = NfId(idx as u32);
                    self.platform.wake_nf(id, now);
                    self.kick(self.platform.core_of(id), now);
                }
                // Running or runnable: if its whole backlog is doomed
                // (every pending chain has a bottleneck downstream),
                // tell the NF to relinquish the CPU.
                None if suppressed && !nf.yield_flag => {
                    nf.yield_flag = true;
                    self.trace
                        .record(now, TraceKind::NfYield { nf: idx as u32 });
                }
                _ => {}
            }
        }
    }

    /// Sanitizer cross-check of a suppression decision: NF `idx` is about
    /// to be suppressed, so every chain pending at it must have an active
    /// bottleneck *strictly downstream*. If the NF is itself a throttler
    /// of one of those chains with nothing downstream of it, the wakeup
    /// logic just parked the only NF that can drain the congestion.
    fn audit_suppression(&mut self, idx: usize, now: SimTime) {
        if !self.sanitizer.wants_suppression() {
            return;
        }
        // Disjoint field borrows let the sanitizer record inline while
        // `platform` stays borrowed — no scratch Vec on the dispatch path.
        let Simulation {
            platform,
            bp,
            sanitizer,
            ..
        } = self;
        // Replicas never appear on chain paths: judge one by its base
        // NF's placement.
        let me = platform.canonical_of(NfId(idx as u32));
        let nf = &platform.nfs[idx];
        for &c in nf.pending_by_chain.keys() {
            // Judged at the NF's *last* hop — a repeated NF's later hop
            // sits at/after the bottleneck and must drain it.
            let Some(my_pos) = platform.chains.last_position(c, me) else {
                continue;
            };
            let me_throttler = bp.throttlers(c).any(|b| platform.canonical_of(b) == me);
            let downstream = bp.throttlers(c).any(|b| {
                platform
                    .chains
                    .last_position(c, platform.canonical_of(b))
                    .is_some_and(|p| p > my_pos)
            });
            if me_throttler && !downstream {
                sanitizer.note_bottleneck_suppressed(now, idx, c.index());
            }
        }
    }

    /// Is every packet queued at NF `idx` part of a chain with an active
    /// bottleneck *downstream* of this NF? Such work would only feed an
    /// already-overflowing queue, so the NF is suppressed (§3.3: "the
    /// upstream NF will not execute till the downstream NF gets to consume
    /// its receive buffers"). The bottleneck NF itself — and NFs after it —
    /// must keep running so the congestion can drain.
    ///
    /// Positions are compared at the NF's *last* hop on each chain: a
    /// chain that revisits an NF after the bottleneck (`[a, b, a]` with
    /// `b` throttling) needs `a`'s later hop awake to drain `b`'s output;
    /// deciding by `a`'s first hop would park it and deadlock the
    /// throttle. Replica instances are judged by their base NF's
    /// placement, on both sides of the comparison.
    pub(super) fn nf_suppressed(&self, idx: usize) -> bool {
        let nf = &self.platform.nfs[idx];
        if nf.pending_by_chain.is_empty() {
            return false;
        }
        let me = self.platform.canonical_of(NfId(idx as u32));
        nf.pending_by_chain.keys().all(|&c| {
            let Some(my_pos) = self.platform.chains.last_position(c, me) else {
                return false;
            };
            self.bp.throttlers(c).any(|b| {
                self.platform
                    .chains
                    .last_position(c, self.platform.canonical_of(b))
                    .is_some_and(|p| p > my_pos)
            })
        })
    }

    pub(super) fn do_monitor(&mut self, now: SimTime) {
        self.monitor_ticks += 1;
        for idx in 0..self.platform.nfs.len() {
            let nf = &self.platform.nfs[idx];
            if !nf.is_up() {
                continue; // estimator is re-baselined across the outage
            }
            self.load.sample(idx, now, nf.last_ppp, nf.arrivals);
            self.ecn.observe(idx, nf.rx.len());
        }
        self.run_watchdog(now);
        self.age_flow_table();
        self.sample_metrics(now);
        let ticks_per_weight_update = (self.cfg.nfvnice.load.weight_period.as_nanos()
            / self.cfg.nfvnice.load.sample_period.as_nanos())
        .max(1);
        if self.cfg.nfvnice.cgroup_weights
            && self.monitor_ticks.is_multiple_of(ticks_per_weight_update)
        {
            self.update_weights(now);
        }
        // Elastic scaling rides the monitor tick too (no event variants of
        // its own); an inert config never reaches the controller, keeping
        // default runs byte-identical to the pre-elastic engine.
        if self.cfg.elastic.active()
            && self
                .monitor_ticks
                .is_multiple_of(u64::from(self.cfg.elastic.check_period_ticks.max(1)))
        {
            self.run_elastic(now);
        }
    }

    /// Flow aging, driven off the monitor tick: every
    /// [`FlowAging::epoch_ticks`](nfv_pkt::FlowAging) monitor ticks the
    /// table's epoch advances and wildcard-learned flows idle for more
    /// than `idle_epochs` whole epochs are evicted (ids recycled). Off by
    /// default (`idle_epochs == 0`), keeping default runs byte-identical
    /// to the pre-aging engine. Runs before `sample_metrics` so the
    /// tick's `flows_active` column reflects the post-eviction table.
    fn age_flow_table(&mut self) {
        let aging = self.cfg.platform.flow_aging;
        if !aging.enabled()
            || !self
                .monitor_ticks
                .is_multiple_of(u64::from(aging.epoch_ticks.max(1)))
        {
            return;
        }
        let mut evicted = std::mem::take(&mut self.scratch_evicted);
        evicted.clear();
        self.platform.age_flows(aging.idle_epochs, &mut evicted);
        self.flows_evicted += evicted.len() as u64;
        self.scratch_evicted = evicted;
    }

    /// Rate-cost proportional weight assignment, one core domain at a
    /// time.
    fn update_weights(&mut self, now: SimTime) {
        for core in 0..self.domains.len() {
            self.recompute_domain_shares(core, now);
        }
    }

    /// Recompute one core domain's `cpu.shares`: gather its live
    /// `(nf, load, priority)` rows in the domain's scratch buffer and
    /// write the results. Runs on the periodic weight tick for every
    /// domain, and *immediately* on any domain-membership change (kill,
    /// respawn, migration, scale-out/in): without the immediate
    /// recompute, a survivor keeps its departed neighbor's share split —
    /// and a respawned or migrated NF carries its stale weight — until
    /// the next 10 ms weight tick.
    pub(super) fn recompute_domain_shares(&mut self, core: usize, now: SimTime) {
        if !self.cfg.nfvnice.cgroup_weights {
            return;
        }
        // Take only the scratch buffer out (not the whole domain): this
        // runs on fault and elastic paths too, where swapping in a freshly
        // constructed domain would allocate in the dispatch hot path.
        let mut scratch = std::mem::take(&mut self.domains[core].share_scratch);
        scratch.clear();
        for slot in 0..self.domains[core].nfs.len() {
            let i = self.domains[core].nfs[slot];
            if !self.platform.nfs[i].is_up() {
                continue; // parked task: no share of the core to claim
            }
            scratch.push((i, self.load.load(i), self.platform.nfs[i].spec.priority));
        }
        if scratch.len() >= 2 {
            // A lone NF owns its core regardless of weight, so domains
            // with fewer than two live NFs are left untouched.
            for (idx, shares) in compute_shares(&scratch, self.cfg.nfvnice.load.shares_scale) {
                // Each effective sysfs write costs manager-thread CPU
                // time (redundant writes are filtered for free).
                let cost = self.platform.set_nf_shares(NfId(idx as u32), shares);
                if cost > Duration::ZERO {
                    self.mgr_cgroup_time += cost;
                    self.trace.record(
                        now,
                        TraceKind::ShareWrite {
                            nf: idx as u32,
                            shares,
                        },
                    );
                }
            }
        }
        self.domains[core].share_scratch = scratch;
    }

    /// One metrics sample column per monitor tick (no-op when metrics are
    /// off).
    fn sample_metrics(&mut self, now: SimTime) {
        if !self.metrics.is_on() {
            return;
        }
        self.metrics
            .begin_tick(now, self.platform.mempool.in_use() as u64);
        // Deterministic sim state, identical across flow-table index
        // backends — unlike the probe/rehash counters, which stay out of
        // the metrics document (BENCH_timings.json only).
        self.metrics
            .record_flows(self.platform.flow_table.len() as u64, self.flows_evicted);
        for idx in 0..self.platform.nfs.len() {
            let nf = &self.platform.nfs[idx];
            let id = NfId(idx as u32);
            self.metrics.record_nf(
                idx,
                nf.rx.len() as u64,
                matches!(self.bp.state(id), BpState::Throttle),
                self.platform.cgroups.shares(nf.task),
                self.load.arrival_rate_pps(idx),
                self.load.service_time_ns(idx).unwrap_or(0),
            );
        }
        for c in 0..self.platform.chains.count() {
            let chain = ChainId(c as u32);
            let lat = &self.platform.stats.chains[c].latency;
            self.metrics.record_chain(
                c,
                self.bp.is_throttled(chain),
                self.bp.throttlers(chain).count() as u64,
                lat.percentile(99.0).map_or(0, |d| d.as_nanos()),
                lat.percentile(99.9).map_or(0, |d| d.as_nanos()),
            );
        }
    }
}
