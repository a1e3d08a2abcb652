//! The OS CPU scheduler model.
//!
//! [`OsScheduler`] owns the task table and one runqueue per core, and is
//! *driven* by the platform's event loop: the platform asks which task to
//! dispatch, charges execution time in segments (batch boundaries), and
//! checks [`OsScheduler::need_resched`] at each segment boundary. This
//! mirrors how a tick-based kernel only acts at scheduler-tick/batch
//! granularity, and keeps the model single-threaded and deterministic.
//!
//! Preemption model:
//! * **Slice expiry** — each dispatch computes a time slice (CFS: from
//!   target latency, runqueue size and weights; RR: the fixed quantum).
//!   Once `now` passes the slice end *and* another task is waiting, the
//!   platform must requeue the current task (involuntary switch).
//! * **Wakeup preemption** (CFS Normal and the deadline policies) — a
//!   task waking with sufficiently smaller vruntime (or an earlier
//!   deadline) flags `resched_pending`; the preemption takes effect at
//!   the next segment boundary, a few microseconds later, just as a real
//!   kernel preempts at the next tick or interrupt return.
//!
//! The public methods are mechanism shared by every policy: state
//! transitions, context-switch cost, switch counters, CPU-time and
//! scheduling-latency accounting. Each policy decision is one private
//! function that matches on the [`Policy`] — `start_job` (wake
//! placement), `queue_key`, `preempts`, `slice_for`, `advance_floor`
//! and `default_rel_deadline` (DESIGN.md §12).

use crate::params::{CfsParams, Policy, NICE0_WEIGHT, SLO_DEFAULT_BUDGET};
use crate::runqueue::RunQueue;
use crate::task::{SwitchKind, Task, TaskId, TaskState};
use nfv_des::{Duration, SimTime};
use nfv_obs::{TraceKind, TraceSink};

/// Slice long enough to never expire within a simulated run (one year);
/// used by policies whose tasks only leave the CPU voluntarily or via
/// wakeup preemption.
const SLICE_UNLIMITED: Duration = Duration::from_secs(31_536_000);

/// Per-core scheduling state (one CPU of the machine).
#[derive(Debug, Default)]
struct Core {
    /// Runnable (not running) tasks pinned here.
    rq: RunQueue,
    /// The task occupying the CPU, if any.
    current: Option<TaskId>,
    /// Absolute time the current task's slice expires.
    slice_end: SimTime,
    /// Set by wakeup preemption; consumed at the next segment boundary.
    resched_pending: bool,
    /// Task that most recently occupied the CPU (context-switch cost is
    /// only paid when the incoming task differs).
    last_ran: Option<TaskId>,
    /// Total busy time (any task executing).
    busy: Duration,
}

/// The simulated OS scheduler for all cores of the machine.
#[derive(Debug)]
pub struct OsScheduler {
    policy: Policy,
    /// CFS tunables (slices, wake placement, wakeup preemption).
    cfs: CfsParams,
    /// Direct cost of a context switch, charged on each dispatch that
    /// changes tasks.
    cs_cost: Duration,
    /// All registered tasks, indexed by [`TaskId`].
    tasks: Vec<Task>,
    cores: Vec<Core>,
    /// Structured-event sink (off unless observability is enabled).
    trace: TraceSink,
}

impl OsScheduler {
    /// A scheduler for `num_cores` NF cores under `policy`.
    pub fn new(num_cores: usize, policy: Policy, cfs: CfsParams, cs_cost: Duration) -> Self {
        OsScheduler {
            policy,
            cfs,
            cs_cost,
            tasks: Vec::new(),
            cores: (0..num_cores).map(|_| Core::default()).collect(),
            trace: TraceSink::off(),
        }
    }

    /// Attach a trace sink recording paid context switches.
    pub fn set_trace(&mut self, trace: TraceSink) {
        self.trace = trace;
    }

    /// Register a new task pinned to `core`, initially blocked. It starts
    /// at the core's current min_vruntime so its first wake is fair.
    pub fn add_task(&mut self, name: impl Into<String>, core: usize) -> TaskId {
        assert!(core < self.cores.len(), "core {core} out of range");
        let id = TaskId(self.tasks.len() as u32);
        let mut t = Task::new(name, core, NICE0_WEIGHT);
        t.vruntime = self.cores[core].rq.min_vruntime();
        t.rel_deadline = self.default_rel_deadline();
        self.tasks.push(t);
        id
    }

    /// Immutable task access.
    pub fn task(&self, id: TaskId) -> &Task {
        &self.tasks[id.index()]
    }

    /// Number of cores managed.
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// All registered task ids.
    pub fn task_ids(&self) -> impl Iterator<Item = TaskId> {
        (0..self.tasks.len() as u32).map(TaskId)
    }

    /// Update a task's scheduler weight (cgroup `cpu.shares` write).
    /// Takes effect from the next charge/dispatch; the queue position is
    /// keyed by vruntime, which is unaffected.
    pub fn set_weight(&mut self, id: TaskId, weight: u64) {
        self.tasks[id.index()].weight = weight.max(1);
    }

    /// Re-pin a *blocked* task to another core (cross-core migration,
    /// `sched_setaffinity` style). The task re-enters competition at the
    /// destination's current min_vruntime — the same placement a freshly
    /// added task gets — so it neither starves the incumbents with stale
    /// credit nor loses its wakeup bonus.
    ///
    /// # Panics
    /// Panics when `core` is out of range or the task is not blocked
    /// (callers park first; a Running task defers to its batch boundary).
    pub fn rehome_task(&mut self, id: TaskId, core: usize) {
        assert!(core < self.cores.len(), "core {core} out of range");
        let t = &mut self.tasks[id.index()];
        assert_eq!(
            t.state,
            TaskState::Blocked,
            "rehome of a task still on a runqueue"
        );
        t.core = core;
        t.vruntime = self.cores[core].rq.min_vruntime();
    }

    /// Grant `id` a per-job latency budget: each wakeup's deadline
    /// becomes `now + budget`. Only consulted by the deadline policies
    /// ([`Policy::Edf`] / [`Policy::Slo`]); the engine derives these from
    /// per-chain SLO budgets at prime time, before any task first wakes.
    pub fn set_task_budget(&mut self, id: TaskId, budget: Duration) {
        self.tasks[id.index()].rel_deadline = budget;
    }

    /// Currently running task on `core`.
    pub fn current(&self, core: usize) -> Option<TaskId> {
        self.cores[core].current
    }

    /// Runnable tasks queued (excluding the running one) on `core`.
    pub fn queued(&self, core: usize) -> usize {
        self.cores[core].rq.len()
    }

    /// True when `core` has neither a running task nor queued runnable
    /// work. The engine's per-core domain must be inactive exactly when
    /// its core is idle and no batch event is in flight.
    pub fn core_idle(&self, core: usize) -> bool {
        let c = &self.cores[core];
        c.current.is_none() && c.rq.is_empty()
    }

    /// Total busy time accumulated on `core`.
    pub fn core_busy(&self, core: usize) -> Duration {
        self.cores[core].busy
    }

    /// True when `id` is blocked.
    pub fn is_blocked(&self, id: TaskId) -> bool {
        self.tasks[id.index()].state == TaskState::Blocked
    }

    /// Make `id` runnable (semaphore post). No-op if already runnable or
    /// running. Returns `true` if the task's core had been idle, so the
    /// caller knows to dispatch.
    pub fn wake(&mut self, id: TaskId, now: SimTime) -> bool {
        let t = &mut self.tasks[id.index()];
        if t.state != TaskState::Blocked {
            return false;
        }
        let core = t.core;
        t.state = TaskState::Runnable;
        t.runnable_since = now;
        self.start_job(core, id, now);
        let key = self.queue_key(core, id);
        self.cores[core].rq.insert(id, key);
        match self.cores[core].current {
            Some(curr) => {
                if self.preempts(id, curr) {
                    self.cores[core].resched_pending = true;
                }
                false
            }
            None => true,
        }
    }

    /// Forcibly block a task that is not on the CPU (crash/park). A
    /// runnable task is pulled out of its core's queue; a blocked task is
    /// left blocked. Returns `false` — and does nothing — when the task is
    /// currently `Running`: the caller owns the in-flight batch and must
    /// park again at the batch boundary (via [`OsScheduler::block_current`]).
    pub fn park(&mut self, id: TaskId) -> bool {
        let core = self.tasks[id.index()].core;
        match self.tasks[id.index()].state {
            TaskState::Running => false,
            TaskState::Blocked => true,
            TaskState::Runnable => {
                let c = &mut self.cores[core];
                let removed = c.rq.remove(id);
                debug_assert!(removed, "runnable task {id} missing from its runqueue");
                self.tasks[id.index()].state = TaskState::Blocked;
                // The parked task may have been the wakeup-preemption
                // trigger; a stale flag would involuntarily switch the
                // current task for a competitor that no longer exists.
                // Re-evaluate against the strongest remaining candidate
                // (the queue head) — downgrade only, never upgrade.
                if c.resched_pending {
                    let keep = match (c.current, c.rq.head()) {
                        (Some(curr), Some(head)) => self.preempts(head, curr),
                        _ => false,
                    };
                    self.cores[core].resched_pending = keep;
                }
                true
            }
        }
    }

    /// Pick the next task to run on an idle `core` and seat it: slice,
    /// context-switch cost (and trace record) when the task differs from
    /// the last occupant, scheduling-latency and dispatch counters, the
    /// Runnable → Running transition. Returns the task and the
    /// context-switch overhead to charge before useful work starts.
    ///
    /// # Panics
    /// Panics if the core already has a running task.
    pub fn dispatch(&mut self, core: usize, now: SimTime) -> Option<(TaskId, Duration)> {
        assert!(
            self.cores[core].current.is_none(),
            "dispatch on busy core {core}"
        );
        let id = self.cores[core].rq.pop_next()?;
        self.advance_floor(core, id);
        let slice = self.slice_for(core, id);
        let c = &mut self.cores[core];
        c.current = Some(id);
        c.slice_end = now + slice;
        c.resched_pending = false;
        let overhead = if c.last_ran == Some(id) {
            Duration::ZERO
        } else {
            self.trace.record(
                now,
                TraceKind::CtxSwitch {
                    core: core as u32,
                    task: id.0,
                },
            );
            self.cs_cost
        };
        c.last_ran = Some(id);
        let t = &mut self.tasks[id.index()];
        debug_assert_eq!(t.state, TaskState::Runnable);
        t.state = TaskState::Running;
        t.sched_latency_sum += now.since(t.runnable_since);
        t.dispatches += 1;
        Some((id, overhead))
    }

    /// Charge `dur` of execution to the running task on `core` (the
    /// model's scheduler tick).
    pub fn charge_current(&mut self, core: usize, dur: Duration) {
        let id = self.cores[core].current.expect("charge on idle core");
        self.tasks[id.index()].charge(dur);
        self.cores[core].busy += dur;
        self.advance_floor(core, id);
    }

    /// Must the current task on `core` be descheduled at this boundary?
    /// True when its slice has expired (and a competitor is waiting) or a
    /// wakeup preemption is pending.
    pub fn need_resched(&self, core: usize, now: SimTime) -> bool {
        let c = &self.cores[core];
        if c.current.is_none() || c.rq.is_empty() {
            return false; // nobody to switch to
        }
        c.resched_pending || now >= c.slice_end
    }

    /// The current task blocks (empty ring, backpressure yield-to-sleep,
    /// I/O wait, full TX ring). Voluntary switch; Running → Blocked.
    /// `_now` is unused; it stays in the signature because the perfbench
    /// replay calls `block_current(core, at)`.
    pub fn block_current(&mut self, core: usize, _now: SimTime) -> TaskId {
        let id = self.cores[core].current.take().expect("block on idle core");
        let t = &mut self.tasks[id.index()];
        t.state = TaskState::Blocked;
        t.voluntary_switches += 1;
        id
    }

    /// The current task leaves the CPU but stays runnable (slice expiry or
    /// cooperative yield with work remaining). `kind` selects which context
    /// switch counter it lands in. The same job continues: no wake
    /// placement, and a deadline is preserved.
    pub fn requeue_current(&mut self, core: usize, now: SimTime, kind: SwitchKind) -> TaskId {
        let c = &mut self.cores[core];
        let id = c.current.take().expect("requeue on idle core");
        c.resched_pending = false;
        let t = &mut self.tasks[id.index()];
        t.state = TaskState::Runnable;
        t.runnable_since = now;
        match kind {
            SwitchKind::Voluntary => t.voluntary_switches += 1,
            SwitchKind::Involuntary => t.involuntary_switches += 1,
        }
        self.advance_floor(core, id);
        let key = self.queue_key(core, id);
        self.cores[core].rq.insert(id, key);
        id
    }

    // ---- policy decisions ----

    /// Relative deadline granted to newly registered tasks: the uniform
    /// EDF period, [`SLO_DEFAULT_BUDGET`] under SLO (budgeted tasks are
    /// tightened by [`Self::set_task_budget`]), zero elsewhere.
    fn default_rel_deadline(&self) -> Duration {
        match self.policy {
            Policy::Edf { period } => period,
            Policy::Slo => SLO_DEFAULT_BUDGET,
            Policy::CfsNormal
            | Policy::CfsBatch
            | Policy::RoundRobin { .. }
            | Policy::Cooperative => Duration::ZERO,
        }
    }

    /// A wakeup starts a new job. CFS places a sleeper at no less than
    /// min_vruntime − latency/2, so it gets a modest wakeup bonus but
    /// cannot monopolize the core after a long sleep; EDF/SLO assign the
    /// job's deadline `now + rel_deadline`.
    fn start_job(&mut self, core: usize, id: TaskId, now: SimTime) {
        let t = &mut self.tasks[id.index()];
        match self.policy {
            Policy::CfsNormal | Policy::CfsBatch => {
                let floor = self.cores[core]
                    .rq
                    .min_vruntime()
                    .saturating_sub(self.cfs.latency.as_nanos() / 2);
                t.vruntime = t.vruntime.max(floor);
            }
            Policy::Edf { .. } | Policy::Slo => t.deadline = (now + t.rel_deadline).as_nanos(),
            Policy::RoundRobin { .. } | Policy::Cooperative => {}
        }
    }

    /// The runqueue key `id` is inserted under on `core`: vruntime (CFS),
    /// the job's absolute deadline (EDF/SLO) or the core's next arrival
    /// sequence number, which makes the queue a FIFO (RR/Cooperative).
    fn queue_key(&mut self, core: usize, id: TaskId) -> u64 {
        match self.policy {
            Policy::CfsNormal | Policy::CfsBatch => self.tasks[id.index()].vruntime,
            Policy::Edf { .. } | Policy::Slo => self.tasks[id.index()].deadline,
            Policy::RoundRobin { .. } | Policy::Cooperative => self.cores[core].rq.next_seq(),
        }
    }

    /// Does the queued `contender` preempt the running `curr` at the next
    /// boundary? CFS Normal: when `curr` leads it by more than the wakeup
    /// granularity; EDF/SLO: when its deadline is earlier. Batch, RR and
    /// Cooperative never preempt on wakeup.
    fn preempts(&self, contender: TaskId, curr: TaskId) -> bool {
        let (cont, curr) = (&self.tasks[contender.index()], &self.tasks[curr.index()]);
        match self.policy {
            Policy::CfsNormal => {
                curr.vruntime > cont.vruntime + self.cfs.wakeup_granularity.as_nanos()
            }
            Policy::Edf { .. } | Policy::Slo => cont.deadline < curr.deadline,
            Policy::CfsBatch | Policy::RoundRobin { .. } | Policy::Cooperative => false,
        }
    }

    /// Time slice granted to `id`, just popped from `core`'s queue. CFS:
    /// its weight's share of `max(latency, min_granularity · nr)`, never
    /// below `min_granularity`; RR: the fixed quantum; the others never
    /// expire.
    fn slice_for(&self, core: usize, id: TaskId) -> Duration {
        match self.policy {
            Policy::CfsNormal | Policy::CfsBatch => {
                let rq = &self.cores[core].rq;
                let nr = rq.len() as u64 + 1;
                let scaled_gran = self.cfs.min_granularity.as_nanos() * nr;
                let period = self.cfs.latency.max(Duration::from_nanos(scaled_gran));
                let weight = self.tasks[id.index()].weight;
                let total_weight: u64 =
                    rq.iter().map(|t| self.tasks[t.index()].weight).sum::<u64>() + weight;
                let share = period.as_nanos() * weight / total_weight.max(1);
                Duration::from_nanos(share).max(self.cfs.min_granularity)
            }
            Policy::RoundRobin { quantum } => quantum,
            Policy::Cooperative | Policy::Edf { .. } | Policy::Slo => SLICE_UNLIMITED,
        }
    }

    /// CFS only: advance `core`'s min_vruntime floor against `curr`, the
    /// task on (or just seated on, or just leaving) the CPU —
    /// `max(floor, min(curr, leftmost))`, exactly real CFS's
    /// `update_min_vruntime`. Called on dispatch, charge and requeue so
    /// the floor keeps moving while a task runs alone (DESIGN.md §12).
    /// Other policies leave the floor at 0, where `add_task` and
    /// `rehome_task` seed vruntime from it.
    fn advance_floor(&mut self, core: usize, curr: TaskId) {
        match self.policy {
            Policy::CfsNormal | Policy::CfsBatch => {
                let curr_vr = self.tasks[curr.index()].vruntime;
                let rq = &mut self.cores[core].rq;
                let floor = rq.leftmost_key().map_or(curr_vr, |l| curr_vr.min(l));
                rq.advance_min_vruntime(floor);
            }
            Policy::RoundRobin { .. } | Policy::Cooperative | Policy::Edf { .. } | Policy::Slo => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched(policy: Policy) -> OsScheduler {
        OsScheduler::new(2, policy, CfsParams::default(), Duration::from_micros(2))
    }

    #[test]
    fn dispatch_runs_lowest_vruntime_first() {
        let mut s = sched(Policy::CfsNormal);
        let a = s.add_task("a", 0);
        let b = s.add_task("b", 0);
        s.wake(a, SimTime::ZERO);
        s.wake(b, SimTime::ZERO);
        // run a for a while so its vruntime exceeds b's
        let (first, _) = s.dispatch(0, SimTime::ZERO).unwrap();
        assert_eq!(first, a); // tie broken by id
        s.charge_current(0, Duration::from_millis(2));
        s.requeue_current(0, SimTime::from_millis(2), SwitchKind::Involuntary);
        let (second, _) = s.dispatch(0, SimTime::from_millis(2)).unwrap();
        assert_eq!(second, b);
    }

    #[test]
    fn cs_cost_only_on_task_change() {
        let mut s = sched(Policy::CfsNormal);
        let a = s.add_task("a", 0);
        s.wake(a, SimTime::ZERO);
        let (_, cost1) = s.dispatch(0, SimTime::ZERO).unwrap();
        assert_eq!(cost1, Duration::from_micros(2)); // from idle/other
        s.block_current(0, SimTime::ZERO);
        s.wake(a, SimTime::from_micros(10));
        let (_, cost2) = s.dispatch(0, SimTime::from_micros(10)).unwrap();
        assert_eq!(cost2, Duration::ZERO); // same task resumes
    }

    #[test]
    fn weight_shifts_cpu_ratio() {
        // Two always-runnable tasks, weights 3:1, alternate via slice
        // expiry: cpu time ratio approaches 3:1.
        let mut s = sched(Policy::CfsNormal);
        let heavy = s.add_task("heavy", 0);
        let light = s.add_task("light", 0);
        s.set_weight(heavy, 3072);
        s.set_weight(light, 1024);
        let mut now = SimTime::ZERO;
        s.wake(heavy, now);
        s.wake(light, now);
        for _ in 0..4000 {
            if s.current(0).is_none() {
                s.dispatch(0, now);
            }
            let step = Duration::from_micros(100);
            s.charge_current(0, step);
            now += step;
            if s.need_resched(0, now) {
                s.requeue_current(0, now, SwitchKind::Involuntary);
            }
        }
        let h = s.task(heavy).cpu_time.as_nanos() as f64;
        let l = s.task(light).cpu_time.as_nanos() as f64;
        let ratio = h / l;
        assert!((2.5..3.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn rr_ignores_weights() {
        let mut s = sched(Policy::rr_1ms());
        let a = s.add_task("a", 0);
        let b = s.add_task("b", 0);
        s.set_weight(a, 8192);
        let mut now = SimTime::ZERO;
        s.wake(a, now);
        s.wake(b, now);
        for _ in 0..2000 {
            if s.current(0).is_none() {
                s.dispatch(0, now);
            }
            let step = Duration::from_micros(100);
            s.charge_current(0, step);
            now += step;
            if s.need_resched(0, now) {
                s.requeue_current(0, now, SwitchKind::Involuntary);
            }
        }
        let ra = s.task(a).cpu_time.as_nanos() as f64;
        let rb = s.task(b).cpu_time.as_nanos() as f64;
        assert!((ra / rb - 1.0).abs() < 0.05, "rr should split evenly");
    }

    #[test]
    fn wakeup_preemption_only_in_normal() {
        for (policy, expect_preempt) in [(Policy::CfsNormal, true), (Policy::CfsBatch, false)] {
            let mut s = sched(policy);
            let hog = s.add_task("hog", 0);
            let sleeper = s.add_task("sleeper", 0);
            let mut now = SimTime::ZERO;
            s.wake(hog, now);
            s.dispatch(0, now);
            // hog runs 2ms — still inside its 3ms uncontested slice, so any
            // resched must come from wakeup preemption, not slice expiry.
            // Its vruntime (2ms) now exceeds the sleeper's (0) by more than
            // the 1ms wakeup granularity.
            s.charge_current(0, Duration::from_millis(2));
            now = SimTime::from_millis(2);
            s.wake(sleeper, now);
            assert_eq!(s.need_resched(0, now), expect_preempt, "policy {policy:?}");
        }
    }

    #[test]
    fn no_resched_without_competitor() {
        let mut s = sched(Policy::CfsNormal);
        let a = s.add_task("a", 0);
        let mut now = SimTime::ZERO;
        s.wake(a, now);
        s.dispatch(0, now);
        s.charge_current(0, Duration::from_secs(1));
        now = SimTime::from_secs(1);
        assert!(!s.need_resched(0, now), "alone on core: run forever");
    }

    #[test]
    fn sched_latency_recorded() {
        let mut s = sched(Policy::CfsBatch);
        let a = s.add_task("a", 0);
        s.wake(a, SimTime::from_millis(1));
        s.dispatch(0, SimTime::from_millis(3)).unwrap();
        assert_eq!(s.task(a).avg_sched_latency(), Duration::from_millis(2));
        assert_eq!(s.task(a).dispatches, 1);
    }

    #[test]
    fn switch_counters_classified() {
        let mut s = sched(Policy::CfsNormal);
        let a = s.add_task("a", 0);
        let b = s.add_task("b", 0);
        let now = SimTime::ZERO;
        s.wake(a, now);
        s.wake(b, now);
        s.dispatch(0, now); // picks a (vruntime tie broken by id)
        s.charge_current(0, Duration::from_micros(10)); // a falls behind b
        s.requeue_current(0, now, SwitchKind::Involuntary);
        s.dispatch(0, now); // now picks b
        s.block_current(0, now);
        assert_eq!(s.task(a).involuntary_switches, 1);
        assert_eq!(s.task(b).voluntary_switches, 1);
    }

    #[test]
    fn wake_returns_whether_core_idle() {
        let mut s = sched(Policy::CfsNormal);
        let a = s.add_task("a", 0);
        let b = s.add_task("b", 0);
        assert!(s.wake(a, SimTime::ZERO));
        s.dispatch(0, SimTime::ZERO);
        assert!(!s.wake(b, SimTime::ZERO)); // core busy
        assert!(!s.wake(b, SimTime::ZERO)); // already runnable: no-op
    }

    // Regression test for the vruntime-staleness starvation bug: before
    // the fix, min_vruntime only advanced on pops, so it froze at 0 while
    // the worker ran alone for 1 s; a waking sleeper then resumed at the
    // stale floor and monopolized the core until it burned through a full
    // second of vruntime deficit. With the floor tracking `curr`, the
    // sleeper's bonus is bounded to latency/2 (1.5 ms) of catch-up.
    #[test]
    fn waking_sleeper_catches_up_within_half_latency_after_solo_run() {
        let mut s = sched(Policy::CfsNormal);
        let worker = s.add_task("worker", 0);
        let sleeper = s.add_task("sleeper", 0);
        let mut now = SimTime::ZERO;
        s.wake(worker, now);
        s.dispatch(0, now);
        // worker accumulates 1s of vruntime in segments (the floor
        // advances at each charge boundary, as in the real engine)
        for _ in 0..1000 {
            s.charge_current(0, Duration::from_millis(1));
        }
        now = SimTime::from_secs(1);
        s.wake(sleeper, now);
        s.requeue_current(0, now, SwitchKind::Involuntary);
        let (next, _) = s.dispatch(0, now).unwrap();
        assert_eq!(next, sleeper, "sleeper gets its wakeup bonus first");
        // The sleeper was placed at min_vruntime − latency/2; after
        // 1.5 ms of execution it has caught up and the worker runs
        // again — not after a full second.
        s.charge_current(0, Duration::from_micros(1_500));
        now += Duration::from_micros(1_500);
        s.requeue_current(0, now, SwitchKind::Involuntary);
        let (back, _) = s.dispatch(0, now).unwrap();
        assert_eq!(back, worker, "bonus is bounded to latency/2 of catch-up");
    }

    // Regression test for the stale wakeup-preemption flag: parking the
    // task that triggered the preemption must clear (re-evaluate)
    // `resched_pending`, even when another — insufficiently behind —
    // competitor remains queued.
    #[test]
    fn park_clears_stale_wakeup_preemption() {
        let mut s = sched(Policy::CfsNormal);
        let hog = s.add_task("hog", 0);
        let late = s.add_task("late", 0);
        let trigger = s.add_task("trigger", 0);
        let mut now = SimTime::ZERO;
        s.wake(hog, now);
        s.wake(late, now);
        s.dispatch(0, now); // hog runs (tie by id), late queued
        s.charge_current(0, Duration::from_millis(1));
        now = SimTime::from_millis(1);
        s.requeue_current(0, now, SwitchKind::Involuntary);
        s.dispatch(0, now); // late runs
        s.charge_current(0, Duration::from_millis(1));
        s.block_current(0, now);
        s.dispatch(0, now); // hog runs again, vruntime 1 ms
        s.charge_current(0, Duration::from_micros(200));
        now += Duration::from_micros(200);
        s.wake(trigger, now); // far behind: preemption trigger
        assert!(s.need_resched(0, now), "trigger wakes far behind: preempt");
        s.wake(late, now); // within the 1 ms granularity: not a trigger
        assert!(s.park(trigger));
        assert!(
            !s.need_resched(0, now),
            "preemption trigger is gone; queued competitor does not \
             justify it"
        );
    }

    #[test]
    fn park_pulls_runnable_task_and_defers_running_one() {
        let mut s = sched(Policy::CfsNormal);
        let a = s.add_task("a", 0);
        let b = s.add_task("b", 0);
        s.wake(a, SimTime::ZERO);
        s.wake(b, SimTime::ZERO);
        s.dispatch(0, SimTime::ZERO); // a runs, b queued
        assert!(s.park(b), "runnable task parks immediately");
        assert!(s.is_blocked(b));
        assert!(!s.need_resched(0, SimTime::from_secs(1)), "queue is empty");
        assert!(!s.park(a), "running task defers to boundary");
        s.block_current(0, SimTime::ZERO);
        assert!(s.park(a), "blocked task stays parked");
    }

    #[test]
    fn rehome_moves_blocked_task_and_resets_vruntime_credit() {
        let mut s = sched(Policy::CfsNormal);
        let mover = s.add_task("mover", 0);
        let incumbent = s.add_task("incumbent", 1);
        let mut now = SimTime::ZERO;
        // Build up vruntime on core 1's queue so its floor is nonzero.
        s.wake(incumbent, now);
        s.dispatch(1, now);
        for _ in 0..100 {
            s.charge_current(1, Duration::from_millis(1));
        }
        now = SimTime::from_millis(100);
        // mover ran nothing: vruntime 0. Rehome to core 1 — it must be
        // re-placed at the destination floor, not keep 100 ms of credit.
        assert!(s.is_blocked(mover));
        s.rehome_task(mover, 1);
        s.wake(mover, now);
        assert_eq!(s.queued(1), 1, "mover queued on core 1");
        assert!(s.core_idle(0), "core 0 no longer owns it");
        s.requeue_current(1, now, SwitchKind::Involuntary);
        s.dispatch(1, now);
        // mover's wakeup bonus is bounded: after latency/2 of execution
        // the incumbent runs again instead of starving for 100 ms.
        s.charge_current(1, Duration::from_micros(1_500));
        now += Duration::from_micros(1_500);
        s.requeue_current(1, now, SwitchKind::Involuntary);
        let (next, _) = s.dispatch(1, now).unwrap();
        assert_eq!(next, incumbent, "migrated task carries no stale credit");
    }

    #[test]
    #[should_panic(expected = "rehome of a task still on a runqueue")]
    fn rehome_of_runnable_task_panics() {
        let mut s = sched(Policy::CfsNormal);
        let a = s.add_task("a", 0);
        s.wake(a, SimTime::ZERO);
        s.rehome_task(a, 1);
    }

    #[test]
    fn edf_runs_earliest_deadline_and_preempts_on_wakeup() {
        let mut s = sched(Policy::Edf {
            period: Duration::from_millis(2),
        });
        let a = s.add_task("a", 0);
        let b = s.add_task("b", 0);
        // a wakes at t=1ms (deadline 3ms), b at t=0 (deadline 2ms):
        // b runs first despite waking earlier in program order.
        s.wake(b, SimTime::ZERO);
        s.wake(a, SimTime::from_millis(1));
        let (first, _) = s.dispatch(0, SimTime::from_millis(1)).unwrap();
        assert_eq!(first, b, "earliest deadline first");
        s.charge_current(0, Duration::from_millis(1));
        s.block_current(0, SimTime::from_millis(2));
        let (second, _) = s.dispatch(0, SimTime::from_millis(2)).unwrap();
        assert_eq!(second, a);
        // b wakes again at 2.5ms → deadline 4.5ms, later than a's 3ms:
        // no preemption.
        s.charge_current(0, Duration::from_micros(500));
        s.wake(b, SimTime::from_micros(2_500));
        assert!(!s.need_resched(0, SimTime::from_micros(2_500)));
    }

    #[test]
    fn slo_budget_tightens_deadline() {
        let mut s = sched(Policy::Slo);
        let tight = s.add_task("tight", 0);
        let lax = s.add_task("lax", 0);
        // Both default to SLO_DEFAULT_BUDGET; tighten one to 100 µs.
        s.set_task_budget(tight, Duration::from_micros(100));
        // lax wakes first, then tight: tight's much nearer deadline
        // flags a preemption against the running lax.
        s.wake(lax, SimTime::ZERO);
        s.dispatch(0, SimTime::ZERO);
        s.charge_current(0, Duration::from_micros(10));
        s.wake(tight, SimTime::from_micros(10));
        assert!(
            s.need_resched(0, SimTime::from_micros(10)),
            "tighter budget preempts"
        );
        s.requeue_current(0, SimTime::from_micros(10), SwitchKind::Involuntary);
        let (next, _) = s.dispatch(0, SimTime::from_micros(10)).unwrap();
        assert_eq!(next, tight);
        assert_eq!(s.task(tight).rel_deadline, Duration::from_micros(100));
        assert_eq!(s.task(tight).deadline, 110_000);
    }

    #[test]
    #[should_panic(expected = "dispatch on busy core")]
    fn double_dispatch_panics() {
        let mut s = sched(Policy::CfsNormal);
        let a = s.add_task("a", 0);
        let b = s.add_task("b", 0);
        s.wake(a, SimTime::ZERO);
        s.wake(b, SimTime::ZERO);
        s.dispatch(0, SimTime::ZERO);
        s.dispatch(0, SimTime::ZERO);
    }
}
