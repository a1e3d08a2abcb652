//! The neutral kernel context: task table, per-core runqueues and the
//! accounting *mechanism* every scheduling policy shares.
//!
//! [`KernelCtx`] deliberately contains no policy decisions — which task
//! runs next, how long its slice is, whether a wakeup preempts — those
//! live behind the [`Scheduler`](crate::hooks::Scheduler) hooks. What it
//! does own is everything every policy does identically: state
//! transitions, context-switch cost and trace records, switch counters,
//! CPU-time and scheduling-latency accounting.

use crate::params::{CfsParams, NICE0_WEIGHT};
use crate::runqueue::RunQueue;
use crate::task::{SwitchKind, Task, TaskId, TaskState};
use nfv_des::{Duration, SimTime};
use nfv_obs::{TraceKind, TraceSink};

/// Per-core scheduling state (one CPU of the machine).
#[derive(Debug)]
pub struct CoreCtx {
    /// Runnable (not running) tasks pinned here.
    pub rq: RunQueue,
    /// The task occupying the CPU, if any.
    pub current: Option<TaskId>,
    /// Absolute time the current task's slice expires.
    pub slice_end: SimTime,
    /// Set by wakeup preemption; consumed at the next segment boundary.
    pub resched_pending: bool,
    /// Task that most recently occupied the CPU (context-switch cost is
    /// only paid when the incoming task differs).
    pub last_ran: Option<TaskId>,
    /// Total busy time (any task executing).
    pub busy: Duration,
}

/// Task table, per-core state and tunables shared by every policy.
#[derive(Debug)]
pub struct KernelCtx {
    /// CFS tunables (also consulted for wake placement floors).
    pub cfs: CfsParams,
    /// Direct cost of a context switch, charged on each dispatch that
    /// changes tasks.
    pub cs_cost: Duration,
    /// All registered tasks, indexed by [`TaskId`].
    pub tasks: Vec<Task>,
    /// Per-core state.
    pub cores: Vec<CoreCtx>,
    /// Structured-event sink (off unless observability is enabled).
    pub trace: TraceSink,
}

impl KernelCtx {
    /// A context for `num_cores` cores whose runqueues are built by
    /// `mk_rq` (the policy decides the queue discipline).
    pub fn new(
        num_cores: usize,
        mk_rq: impl Fn() -> RunQueue,
        cfs: CfsParams,
        cs_cost: Duration,
    ) -> Self {
        KernelCtx {
            cfs,
            cs_cost,
            tasks: Vec::new(),
            cores: (0..num_cores)
                .map(|_| CoreCtx {
                    rq: mk_rq(),
                    current: None,
                    slice_end: SimTime::ZERO,
                    resched_pending: false,
                    last_ran: None,
                    busy: Duration::ZERO,
                })
                .collect(),
            trace: TraceSink::off(),
        }
    }

    /// Register a new task pinned to `core`, initially blocked, with the
    /// given relative deadline (zero outside the deadline policies).
    pub fn add_task(
        &mut self,
        name: impl Into<String>,
        core: usize,
        rel_deadline: Duration,
    ) -> TaskId {
        assert!(core < self.cores.len(), "core {core} out of range");
        let id = TaskId(self.tasks.len() as u32);
        let mut t = Task::new(name, core, NICE0_WEIGHT);
        // Start at the core's current min_vruntime so the first wake is fair.
        t.vruntime = self.cores[core].rq.min_vruntime();
        t.rel_deadline = rel_deadline;
        self.tasks.push(t);
        id
    }

    /// Immutable task access.
    pub fn task(&self, id: TaskId) -> &Task {
        &self.tasks[id.index()]
    }

    /// Number of registered tasks.
    pub fn num_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// Number of cores managed.
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// Update a task's scheduler weight (cgroup `cpu.shares` write).
    pub fn set_weight(&mut self, id: TaskId, weight: u64) {
        self.tasks[id.index()].weight = weight.max(1);
    }

    /// Re-pin a *blocked* task to another core (cross-core migration,
    /// `sched_setaffinity` style). The task re-enters competition at the
    /// destination's current min_vruntime — the same placement a freshly
    /// added task gets — so it neither starves the incumbents with stale
    /// credit nor loses its wakeup bonus. Policy-neutral mechanism: wake
    /// placement reads `task.core` from this table.
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

    /// Currently running task on `core`.
    pub fn current(&self, core: usize) -> Option<TaskId> {
        self.cores[core].current
    }

    /// Runnable tasks queued (excluding the running one) on `core`.
    pub fn queued(&self, core: usize) -> usize {
        self.cores[core].rq.len()
    }

    /// True when `core` has neither a running task nor queued work.
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

    /// Install `id` as the running task on `core` with the given slice,
    /// performing all dispatch-side accounting: context-switch cost (and
    /// trace record) when the task differs from the last occupant,
    /// scheduling-latency and dispatch counters, the Runnable → Running
    /// transition. The policy has already *picked* `id`; this is the
    /// mechanism that seats it.
    pub fn account_dispatch(
        &mut self,
        core: usize,
        id: TaskId,
        slice: Duration,
        now: SimTime,
    ) -> (TaskId, Duration) {
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
        (id, overhead)
    }

    /// Charge `dur` of execution to the running task on `core`, returning
    /// its id so the policy can do post-charge bookkeeping (e.g. advance
    /// the CFS min_vruntime floor against `curr`).
    pub fn charge(&mut self, core: usize, dur: Duration) -> TaskId {
        let id = self.cores[core].current.expect("charge on idle core");
        self.tasks[id.index()].charge(dur);
        self.cores[core].busy += dur;
        id
    }

    /// Must the current task on `core` be descheduled at this boundary?
    /// True when its slice has expired (and a competitor is waiting) or a
    /// wakeup preemption is pending. Pure mechanism: the policy's only
    /// influence is via `slice_end` and `resched_pending`.
    pub fn need_resched(&self, core: usize, now: SimTime) -> bool {
        let c = &self.cores[core];
        if c.current.is_none() {
            return false;
        }
        if c.rq.is_empty() {
            return false; // nobody to switch to
        }
        c.resched_pending || now >= c.slice_end
    }

    /// The current task blocks. Voluntary switch; Running → Blocked.
    pub fn block_current(&mut self, core: usize) -> TaskId {
        let id = self.cores[core].current.take().expect("block on idle core");
        let t = &mut self.tasks[id.index()];
        t.state = TaskState::Blocked;
        t.voluntary_switches += 1;
        id
    }

    /// Take the current task off the CPU and mark it Runnable again,
    /// bumping the switch counter selected by `kind`. The caller (policy)
    /// must re-enqueue it — the queue key is a policy decision.
    pub fn begin_requeue(&mut self, core: usize, now: SimTime, kind: SwitchKind) -> TaskId {
        let id = self.cores[core]
            .current
            .take()
            .expect("requeue on idle core");
        self.cores[core].resched_pending = false;
        let t = &mut self.tasks[id.index()];
        t.state = TaskState::Runnable;
        t.runnable_since = now;
        match kind {
            SwitchKind::Voluntary => t.voluntary_switches += 1,
            SwitchKind::Involuntary => t.involuntary_switches += 1,
        }
        id
    }

    /// All registered task ids.
    pub fn task_ids(&self) -> impl Iterator<Item = TaskId> {
        (0..self.tasks.len() as u32).map(TaskId)
    }
}
