//! # nfv-sched — simulated OS CPU schedulers
//!
//! Faithful-in-shape models of the three Linux scheduling policies the
//! NFVnice paper evaluates — CFS (`SCHED_NORMAL`), CFS batch
//! (`SCHED_BATCH`) and round robin (`SCHED_RR` at 1 ms / 100 ms quanta) —
//! plus the cgroup `cpu.shares` controller NFVnice drives from user space,
//! and two deadline policies the paper couldn't test: uniform EDF and an
//! SLO-aware variant driven by per-chain latency budgets.
//!
//! The scheduler is passive: the platform event loop dispatches tasks,
//! charges execution segments and consults [`OsScheduler::need_resched`] at
//! batch boundaries, the same granularity at which a tick-based kernel
//! makes preemption effective. Per-task accounting (voluntary/involuntary
//! context switches, CPU time, scheduling latency) reproduces the columns
//! of the paper's Tables 1, 2 and 4.
//!
//! One struct, [`OsScheduler`], holds the task table and per-core
//! runqueues; every policy decision is a private function of it that
//! matches on the [`Policy`] (DESIGN.md §12).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cgroup;
pub mod params;
mod runqueue;
pub mod scheduler;
pub mod task;

pub use cgroup::CgroupCpu;
pub use params::{CfsParams, Policy, MAX_SHARES, MIN_SHARES, NICE0_WEIGHT, SLO_DEFAULT_BUDGET};
pub use scheduler::OsScheduler;
pub use task::{SwitchKind, Task, TaskId, TaskState};
