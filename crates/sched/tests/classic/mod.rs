//! The classic monolithic scheduler: a test-only reference model for the
//! hook-based [`OsScheduler`](nfv_sched::OsScheduler) driver
//! (`differential.rs` runs both in lockstep).
//!
//! [`ClassicScheduler`] is the pre-trait `OsScheduler` shape: one struct,
//! inline `match policy` at every decision point, no hook seam. It shares
//! the [`KernelCtx`] *mechanism* (state transitions and accounting) but
//! makes every *decision* — queue key, wake placement, preemption, slice —
//! in place. Both bugfixes (the min_vruntime staleness fix and the stale
//! `resched_pending` clear on park) and the EDF/SLO policies are
//! implemented here too.

use nfv_des::{Duration, SimTime};
use nfv_sched::kernel::KernelCtx;
use nfv_sched::runqueue::RunQueue;
use nfv_sched::{CfsParams, Policy, SwitchKind, TaskId, TaskState, SLO_DEFAULT_BUDGET};

/// Effectively infinite slice (one simulated year) for policies whose
/// tasks only leave the CPU voluntarily or via wakeup preemption.
const SLICE_UNLIMITED: Duration = Duration::from_secs(31_536_000);

/// The monolithic scheduler: every policy decision inline.
#[derive(Debug)]
pub struct ClassicScheduler {
    policy: Policy,
    /// Shared task table / core state / accounting mechanism.
    pub ctx: KernelCtx,
}

impl ClassicScheduler {
    /// A scheduler for `num_cores` NF cores under `policy`.
    pub fn new(num_cores: usize, policy: Policy, cfs: CfsParams, cs_cost: Duration) -> Self {
        let mk_rq = || match policy {
            Policy::CfsNormal | Policy::CfsBatch => RunQueue::cfs(),
            Policy::RoundRobin { .. } | Policy::Cooperative => RunQueue::rr(),
            Policy::Edf { .. } | Policy::Slo => RunQueue::edf(),
        };
        ClassicScheduler {
            policy,
            ctx: KernelCtx::new(num_cores, mk_rq, cfs, cs_cost),
        }
    }

    /// Relative deadline for newly registered tasks under `policy`.
    fn default_rel_deadline(&self) -> Duration {
        match self.policy {
            Policy::Edf { period } => period,
            Policy::Slo => SLO_DEFAULT_BUDGET,
            _ => Duration::ZERO,
        }
    }

    /// Register a new task pinned to `core`, initially blocked.
    pub fn add_task(&mut self, name: impl Into<String>, core: usize) -> TaskId {
        let rel = self.default_rel_deadline();
        self.ctx.add_task(name, core, rel)
    }

    /// True under either CFS flavour.
    fn is_cfs(&self) -> bool {
        matches!(self.policy, Policy::CfsNormal | Policy::CfsBatch)
    }

    /// True under either deadline policy.
    fn is_deadline(&self) -> bool {
        matches!(self.policy, Policy::Edf { .. } | Policy::Slo)
    }

    /// The runqueue ordering key for `id` under the active policy.
    fn queue_key(&self, id: TaskId) -> u64 {
        if self.is_deadline() {
            self.ctx.tasks[id.index()].deadline
        } else {
            self.ctx.tasks[id.index()].vruntime
        }
    }

    /// Does `contender` (runnable, queued) preempt `curr` (running) on
    /// wakeup under the active policy?
    fn preempts(&self, contender: TaskId, curr: TaskId) -> bool {
        match self.policy {
            Policy::CfsNormal => {
                let curr_vr = self.ctx.tasks[curr.index()].vruntime;
                let cont_vr = self.ctx.tasks[contender.index()].vruntime;
                curr_vr > cont_vr + self.ctx.cfs.wakeup_granularity.as_nanos()
            }
            Policy::Edf { .. } | Policy::Slo => {
                self.ctx.tasks[contender.index()].deadline < self.ctx.tasks[curr.index()].deadline
            }
            Policy::CfsBatch | Policy::RoundRobin { .. } | Policy::Cooperative => false,
        }
    }

    /// Staleness fix: advance the CFS min_vruntime floor against the task
    /// on (or just leaving) the CPU — `max(floor, min(curr, leftmost))`.
    fn advance_floor(&mut self, core: usize, curr_vr: u64) {
        if self.is_cfs() {
            let rq = &mut self.ctx.cores[core].rq;
            let floor = rq.leftmost_key().map_or(curr_vr, |l| curr_vr.min(l));
            rq.advance_min_vruntime(floor);
        }
    }

    /// Make `id` runnable. Returns `true` if the task's core had been
    /// idle.
    pub fn wake(&mut self, id: TaskId, now: SimTime) -> bool {
        let core = self.ctx.tasks[id.index()].core;
        if self.ctx.tasks[id.index()].state != TaskState::Blocked {
            return false;
        }
        if self.is_cfs() {
            // Sleeper placement: resume at no less than min_vruntime −
            // latency/2.
            let floor = self.ctx.cores[core]
                .rq
                .min_vruntime()
                .saturating_sub(self.ctx.cfs.latency.as_nanos() / 2);
            let t = &mut self.ctx.tasks[id.index()];
            t.vruntime = t.vruntime.max(floor);
        }
        if self.is_deadline() {
            // A wakeup starts a new job: deadline = now + rel_deadline.
            let t = &mut self.ctx.tasks[id.index()];
            t.deadline = (now + t.rel_deadline).as_nanos();
        }
        self.ctx.tasks[id.index()].state = TaskState::Runnable;
        self.ctx.tasks[id.index()].runnable_since = now;
        let key = self.queue_key(id);
        self.ctx.cores[core].rq.insert(id, key);

        if let Some(curr) = self.ctx.cores[core].current {
            if self.preempts(id, curr) {
                self.ctx.cores[core].resched_pending = true;
            }
        }
        self.ctx.cores[core].current.is_none()
    }

    /// Forcibly block a task that is not on the CPU. Returns `false` —
    /// and does nothing — when the task is currently running.
    pub fn park(&mut self, id: TaskId, _now: SimTime) -> bool {
        let core = self.ctx.tasks[id.index()].core;
        match self.ctx.tasks[id.index()].state {
            TaskState::Running => false,
            TaskState::Blocked => true,
            TaskState::Runnable => {
                let removed = self.ctx.cores[core].rq.remove(id);
                debug_assert!(removed, "runnable task {id} missing from its runqueue");
                self.ctx.tasks[id.index()].state = TaskState::Blocked;
                // Stale-trigger fix: re-evaluate a pending wakeup
                // preemption against the strongest remaining candidate;
                // downgrade only.
                if self.ctx.cores[core].resched_pending {
                    let keep = match (self.ctx.cores[core].current, self.ctx.cores[core].rq.head())
                    {
                        (Some(curr), Some(head)) => self.preempts(head, curr),
                        _ => false,
                    };
                    self.ctx.cores[core].resched_pending = keep;
                }
                true
            }
        }
    }

    /// Pick the next task to run on an idle `core`.
    ///
    /// # Panics
    /// Panics if the core already has a running task.
    pub fn dispatch(&mut self, core: usize, now: SimTime) -> Option<(TaskId, Duration)> {
        assert!(
            self.ctx.cores[core].current.is_none(),
            "dispatch on busy core {core}"
        );
        let id = self.ctx.cores[core].rq.pop_next()?;
        let slice = self.slice_for(core, id);
        Some(self.ctx.account_dispatch(core, id, slice, now))
    }

    /// Compute the slice the dispatched task receives.
    fn slice_for(&self, core: usize, id: TaskId) -> Duration {
        match self.policy {
            Policy::RoundRobin { quantum } => quantum,
            Policy::Cooperative | Policy::Edf { .. } | Policy::Slo => SLICE_UNLIMITED,
            Policy::CfsNormal | Policy::CfsBatch => {
                let nr = self.ctx.cores[core].rq.len() as u64 + 1;
                let scaled_gran = self.ctx.cfs.min_granularity.as_nanos() * nr;
                let period = self.ctx.cfs.latency.max(Duration::from_nanos(scaled_gran));
                let total_weight: u64 = self.ctx.cores[core]
                    .rq
                    .iter()
                    .map(|t| self.ctx.tasks[t.index()].weight)
                    .sum::<u64>()
                    + self.ctx.tasks[id.index()].weight;
                let share =
                    period.as_nanos() * self.ctx.tasks[id.index()].weight / total_weight.max(1);
                Duration::from_nanos(share).max(self.ctx.cfs.min_granularity)
            }
        }
    }

    /// Charge `dur` of execution to the running task on `core`.
    pub fn charge_current(&mut self, core: usize, dur: Duration) {
        let id = self.ctx.charge(core, dur);
        let curr_vr = self.ctx.tasks[id.index()].vruntime;
        self.advance_floor(core, curr_vr);
    }

    /// The current task blocks. Voluntary switch.
    pub fn block_current(&mut self, core: usize, _now: SimTime) -> TaskId {
        self.ctx.block_current(core)
    }

    /// The current task leaves the CPU but stays runnable.
    pub fn requeue_current(&mut self, core: usize, now: SimTime, kind: SwitchKind) -> TaskId {
        let id = self.ctx.begin_requeue(core, now, kind);
        let curr_vr = self.ctx.tasks[id.index()].vruntime;
        self.advance_floor(core, curr_vr);
        let key = self.queue_key(id);
        self.ctx.cores[core].rq.insert(id, key);
        id
    }
}
