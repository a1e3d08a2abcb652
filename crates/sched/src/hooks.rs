//! The pluggable scheduling-policy seam: a sched_ext-style [`Scheduler`]
//! trait and one implementation per policy, run over a [`KernelCtx`] by
//! the [`OsScheduler`](crate::OsScheduler) driver.
//!
//! The hook set mirrors sched_ext's BPF callbacks (`select_cpu`,
//! `enqueue`, `tick`, `stopping`), adapted to this model's batch-boundary
//! granularity — see DESIGN.md §12 for when each hook fires relative to
//! the platform's dispatch/charge/requeue cycle. Policies are statically
//! dispatched: `OsScheduler` holds a [`PolicyDispatch`], an enum over the
//! concrete policy impls, so no `dyn Trait` crosses the layering rule.

use crate::kernel::KernelCtx;
use crate::params::{Policy, SLO_DEFAULT_BUDGET};
use crate::runqueue::RunQueue;
use crate::task::TaskId;
use nfv_des::{Duration, SimTime};

/// Why a task is being enqueued — the analogue of sched_ext's
/// `SCX_ENQ_WAKEUP` vs. re-enqueue flags. Deadline policies assign a
/// fresh job deadline only on [`EnqueueFlags::Wakeup`]; a preempted task
/// keeps the deadline of its in-flight job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnqueueFlags {
    /// The task just became runnable (semaphore post / respawn). Starts a
    /// new job: CFS applies the sleeper placement floor, EDF/SLO assign
    /// `now + rel_deadline`.
    Wakeup,
    /// The task left the CPU but stays runnable (slice expiry, yield).
    /// Same job continues: no placement bonus, deadline preserved.
    Requeue,
}

/// A scheduling policy, expressed as hooks over the neutral
/// [`KernelCtx`]. All hooks are infallible and must be deterministic.
///
/// Hook contract (relative to the platform's batch boundaries):
/// * [`runqueue`](Scheduler::runqueue) — once per core at construction;
///   picks the queue discipline.
/// * [`select_cpu`](Scheduler::select_cpu) — on wakeup, before enqueue.
///   Tasks are core-pinned in this model, so the default returns the
///   pinned core; the hook exists so a future policy can migrate.
/// * [`enqueue`](Scheduler::enqueue) — on wakeup and requeue; computes
///   the queue key (vruntime / deadline) and inserts the task.
/// * [`wakeup_preempt`](Scheduler::wakeup_preempt) — after a wakeup
///   enqueue while the core is occupied; `true` flags `resched_pending`,
///   which takes effect at the *next* batch boundary (like a kernel
///   preempting at the next tick). Also re-consulted when a queued task
///   is parked, to decide whether the pending preemption survives.
/// * [`slice`](Scheduler::slice) — at dispatch, after the pick; the
///   returned slice arms `slice_end`.
/// * [`tick`](Scheduler::tick) — after every execution segment is
///   charged to the running task (the model's scheduler tick).
/// * [`stopping`](Scheduler::stopping) — when the running task leaves
///   the CPU; `runnable` distinguishes requeue (true) from block (false).
pub trait Scheduler {
    /// A fresh runqueue of this policy's discipline.
    fn runqueue(&self) -> RunQueue;

    /// Relative deadline granted to newly registered tasks (zero for
    /// policies without deadlines).
    fn task_rel_deadline(&self) -> Duration {
        Duration::ZERO
    }

    /// Core to run `task` on when it wakes. Tasks are pinned, so the
    /// default is the pinned core.
    fn select_cpu(&self, ctx: &KernelCtx, task: TaskId) -> usize {
        ctx.tasks[task.index()].core
    }

    /// Place `task` on `core`'s runqueue.
    fn enqueue(
        &self,
        ctx: &mut KernelCtx,
        core: usize,
        task: TaskId,
        flags: EnqueueFlags,
        now: SimTime,
    );

    /// Should the waking `contender` preempt `core`'s current task at the
    /// next boundary? Only consulted while the core is occupied.
    fn wakeup_preempt(&self, _ctx: &KernelCtx, _core: usize, _contender: TaskId) -> bool {
        false
    }

    /// Time slice granted to `task`, dispatched on `core` (the task has
    /// already been popped from the queue).
    fn slice(&self, ctx: &KernelCtx, core: usize, task: TaskId) -> Duration;

    /// An execution segment of `dur` was charged to `task` on `core`.
    fn tick(&self, _ctx: &mut KernelCtx, _core: usize, _task: TaskId, _dur: Duration) {}

    /// `task` is leaving the CPU; `runnable` is true on requeue, false on
    /// block.
    fn stopping(&self, _ctx: &mut KernelCtx, _core: usize, _task: TaskId, _runnable: bool) {}
}

/// CFS: vruntime-ordered fairness. `wakeup_preemption` distinguishes
/// `SCHED_NORMAL` (true) from `SCHED_BATCH` (false) — the bookkeeping is
/// otherwise identical.
#[derive(Debug, Clone, Copy)]
pub struct CfsSched {
    /// Preempt the current task when a waking one lags it by more than
    /// `wakeup_granularity` (CFS Normal); Batch never does.
    pub wakeup_preemption: bool,
}

/// Advance `core`'s min_vruntime floor against the task `curr_vr` that
/// is on (or just leaving) the CPU: `max(floor, min(curr, leftmost))`,
/// exactly real CFS's `update_min_vruntime`. Called from `tick` and
/// `stopping` so the floor keeps moving while a task runs alone — the
/// staleness bug this PR fixes left the floor frozen between pops,
/// letting a task that woke after a long solo run monopolize the core.
fn advance_cfs_floor(ctx: &mut KernelCtx, core: usize, curr_vr: u64) {
    let rq = &mut ctx.cores[core].rq;
    let floor = rq.leftmost_key().map_or(curr_vr, |l| curr_vr.min(l));
    rq.advance_min_vruntime(floor);
}

impl Scheduler for CfsSched {
    fn runqueue(&self) -> RunQueue {
        RunQueue::cfs()
    }

    fn enqueue(
        &self,
        ctx: &mut KernelCtx,
        core: usize,
        task: TaskId,
        flags: EnqueueFlags,
        _now: SimTime,
    ) {
        if flags == EnqueueFlags::Wakeup {
            // CFS wake placement: a sleeper resumes at no less than
            // min_vruntime − latency/2, so it gets a modest wakeup bonus
            // but cannot monopolize the core after a long sleep.
            let floor = ctx.cores[core]
                .rq
                .min_vruntime()
                .saturating_sub(ctx.cfs.latency.as_nanos() / 2);
            let t = &mut ctx.tasks[task.index()];
            t.vruntime = t.vruntime.max(floor);
        }
        let vr = ctx.tasks[task.index()].vruntime;
        ctx.cores[core].rq.insert(task, vr);
    }

    fn wakeup_preempt(&self, ctx: &KernelCtx, core: usize, contender: TaskId) -> bool {
        if !self.wakeup_preemption {
            return false;
        }
        let Some(curr) = ctx.cores[core].current else {
            return false;
        };
        let curr_vr = ctx.tasks[curr.index()].vruntime;
        let cont_vr = ctx.tasks[contender.index()].vruntime;
        curr_vr > cont_vr + ctx.cfs.wakeup_granularity.as_nanos()
    }

    fn slice(&self, ctx: &KernelCtx, core: usize, task: TaskId) -> Duration {
        let nr = ctx.cores[core].rq.len() as u64 + 1;
        let scaled_gran = ctx.cfs.min_granularity.as_nanos() * nr;
        let period = ctx.cfs.latency.max(Duration::from_nanos(scaled_gran));
        let total_weight: u64 = ctx.cores[core]
            .rq
            .iter()
            .map(|t| ctx.tasks[t.index()].weight)
            .sum::<u64>()
            + ctx.tasks[task.index()].weight;
        let share = period.as_nanos() * ctx.tasks[task.index()].weight / total_weight.max(1);
        Duration::from_nanos(share).max(ctx.cfs.min_granularity)
    }

    fn tick(&self, ctx: &mut KernelCtx, core: usize, task: TaskId, _dur: Duration) {
        let curr_vr = ctx.tasks[task.index()].vruntime;
        advance_cfs_floor(ctx, core, curr_vr);
    }

    fn stopping(&self, ctx: &mut KernelCtx, core: usize, task: TaskId, runnable: bool) {
        if runnable {
            let curr_vr = ctx.tasks[task.index()].vruntime;
            advance_cfs_floor(ctx, core, curr_vr);
        }
    }
}

/// Real-time round robin: FIFO queue, fixed quantum, weights ignored.
#[derive(Debug, Clone, Copy)]
pub struct RrSched {
    /// The fixed time slice (`RR_TIMESLICE`).
    pub quantum: Duration,
}

impl Scheduler for RrSched {
    fn runqueue(&self) -> RunQueue {
        RunQueue::rr()
    }

    fn enqueue(
        &self,
        ctx: &mut KernelCtx,
        core: usize,
        task: TaskId,
        _flags: EnqueueFlags,
        _now: SimTime,
    ) {
        let vr = ctx.tasks[task.index()].vruntime;
        ctx.cores[core].rq.insert(task, vr); // key ignored by the FIFO
    }

    fn slice(&self, _ctx: &KernelCtx, _core: usize, _task: TaskId) -> Duration {
        self.quantum
    }
}

/// Slice long enough to never expire within a simulated run (one year);
/// used by policies whose tasks only leave the CPU voluntarily or via
/// wakeup preemption.
const SLICE_UNLIMITED: Duration = Duration::from_secs(31_536_000);

/// Cooperative FIFO: tasks run until they voluntarily yield.
#[derive(Debug, Clone, Copy)]
pub struct CoopSched;

impl Scheduler for CoopSched {
    fn runqueue(&self) -> RunQueue {
        RunQueue::rr()
    }

    fn enqueue(
        &self,
        ctx: &mut KernelCtx,
        core: usize,
        task: TaskId,
        _flags: EnqueueFlags,
        _now: SimTime,
    ) {
        let vr = ctx.tasks[task.index()].vruntime;
        ctx.cores[core].rq.insert(task, vr); // key ignored by the FIFO
    }

    fn slice(&self, _ctx: &KernelCtx, _core: usize, _task: TaskId) -> Duration {
        SLICE_UNLIMITED
    }
}

/// Earliest-deadline-first, also backing the SLO policy. Each wakeup
/// starts a job with absolute deadline `now + rel_deadline`; the queue is
/// deadline-ordered and an earlier-deadline waker preempts at the next
/// boundary. Non-preemptive between boundaries (slices never expire),
/// matching the batch-granularity contract of the other policies.
#[derive(Debug, Clone, Copy)]
pub struct EdfSched {
    /// Relative deadline handed to tasks registered without an explicit
    /// budget: the uniform EDF period, or [`SLO_DEFAULT_BUDGET`] under
    /// [`Policy::Slo`] (budgeted tasks are tightened afterwards via
    /// [`OsScheduler::set_task_budget`](crate::OsScheduler::set_task_budget)).
    pub default_deadline: Duration,
}

impl Scheduler for EdfSched {
    fn runqueue(&self) -> RunQueue {
        RunQueue::edf()
    }

    fn task_rel_deadline(&self) -> Duration {
        self.default_deadline
    }

    fn enqueue(
        &self,
        ctx: &mut KernelCtx,
        core: usize,
        task: TaskId,
        flags: EnqueueFlags,
        now: SimTime,
    ) {
        if flags == EnqueueFlags::Wakeup {
            let t = &mut ctx.tasks[task.index()];
            t.deadline = (now + t.rel_deadline).as_nanos();
        }
        let d = ctx.tasks[task.index()].deadline;
        ctx.cores[core].rq.insert(task, d);
    }

    fn wakeup_preempt(&self, ctx: &KernelCtx, core: usize, contender: TaskId) -> bool {
        let Some(curr) = ctx.cores[core].current else {
            return false;
        };
        ctx.tasks[contender.index()].deadline < ctx.tasks[curr.index()].deadline
    }

    fn slice(&self, _ctx: &KernelCtx, _core: usize, _task: TaskId) -> Duration {
        SLICE_UNLIMITED
    }
}

/// Static dispatch over the concrete policy implementations — the enum
/// the engine-facing [`OsScheduler`](crate::OsScheduler) drives, keeping
/// the whole stack `dyn`-free.
#[derive(Debug, Clone, Copy)]
pub enum PolicyDispatch {
    /// CFS Normal / Batch.
    Cfs(CfsSched),
    /// Round robin.
    Rr(RrSched),
    /// Cooperative FIFO.
    Coop(CoopSched),
    /// EDF / SLO.
    Deadline(EdfSched),
}

impl PolicyDispatch {
    /// The hook implementation for `policy`.
    pub fn for_policy(policy: Policy) -> PolicyDispatch {
        match policy {
            Policy::CfsNormal => PolicyDispatch::Cfs(CfsSched {
                wakeup_preemption: true,
            }),
            Policy::CfsBatch => PolicyDispatch::Cfs(CfsSched {
                wakeup_preemption: false,
            }),
            Policy::RoundRobin { quantum } => PolicyDispatch::Rr(RrSched { quantum }),
            Policy::Cooperative => PolicyDispatch::Coop(CoopSched),
            Policy::Edf { period } => PolicyDispatch::Deadline(EdfSched {
                default_deadline: period,
            }),
            Policy::Slo => PolicyDispatch::Deadline(EdfSched {
                default_deadline: SLO_DEFAULT_BUDGET,
            }),
        }
    }
}

/// Forward one hook call to whichever policy `$self` holds.
macro_rules! forward {
    ($self:ident, $s:ident => $call:expr) => {
        match $self {
            PolicyDispatch::Cfs($s) => $call,
            PolicyDispatch::Rr($s) => $call,
            PolicyDispatch::Coop($s) => $call,
            PolicyDispatch::Deadline($s) => $call,
        }
    };
}

impl Scheduler for PolicyDispatch {
    fn runqueue(&self) -> RunQueue {
        forward!(self, s => s.runqueue())
    }

    fn task_rel_deadline(&self) -> Duration {
        forward!(self, s => s.task_rel_deadline())
    }

    fn select_cpu(&self, ctx: &KernelCtx, task: TaskId) -> usize {
        forward!(self, s => s.select_cpu(ctx, task))
    }

    fn enqueue(
        &self,
        ctx: &mut KernelCtx,
        core: usize,
        task: TaskId,
        flags: EnqueueFlags,
        now: SimTime,
    ) {
        forward!(self, s => s.enqueue(ctx, core, task, flags, now))
    }

    fn wakeup_preempt(&self, ctx: &KernelCtx, core: usize, contender: TaskId) -> bool {
        forward!(self, s => s.wakeup_preempt(ctx, core, contender))
    }

    fn slice(&self, ctx: &KernelCtx, core: usize, task: TaskId) -> Duration {
        forward!(self, s => s.slice(ctx, core, task))
    }

    fn tick(&self, ctx: &mut KernelCtx, core: usize, task: TaskId, dur: Duration) {
        forward!(self, s => s.tick(ctx, core, task, dur))
    }

    fn stopping(&self, ctx: &mut KernelCtx, core: usize, task: TaskId, runnable: bool) {
        forward!(self, s => s.stopping(ctx, core, task, runnable))
    }
}
