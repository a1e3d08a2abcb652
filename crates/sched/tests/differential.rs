//! Differential testing of the hook-based [`OsScheduler`] against the
//! classic monolith kept here as a reference model (`classic/mod.rs`):
//! random command streams are applied identically to both, and the full
//! observable state must match after every command. The engine-level
//! counterpart (`sched_policies_keep_their_pinned_runs`) pins a full
//! fig7-style simulation per policy.

#![forbid(unsafe_code)]

mod classic;

use classic::ClassicScheduler;
use nfv_des::{Duration, SimTime};
use nfv_sched::kernel::KernelCtx;
use nfv_sched::{CfsParams, OsScheduler, Policy, SwitchKind, TaskId, TaskState};
use proptest::prelude::*;

const CORES: usize = 2;

/// One step of the platform-facing API surface.
#[derive(Debug, Clone)]
enum Cmd {
    Wake(u32),
    Park(u32),
    SetWeight(u32, u64),
    SetBudget(u32, u64),
    /// Dispatch on a core if idle; otherwise charge a segment and honor
    /// `need_resched` — exactly the loop shape the platform drives.
    Step {
        core: usize,
        charge_us: u64,
        yield_if_done: bool,
    },
    Block(usize),
}

/// Charges at, and 1 µs either side of, the one whose default-weight
/// vruntime gap equals `wakeup_granularity`. Uniform draws from 1–3,000 µs
/// rarely land there, yet that is where a changed comparison or a scaled
/// granularity in `CfsSched::wakeup_preempt` first shows.
fn wakeup_band_us() -> impl Strategy<Value = u64> {
    let gran_us = CfsParams::default().wakeup_granularity.as_nanos() / 1_000;
    (0u64..3).prop_map(move |i| gran_us - 1 + i)
}

fn cmd() -> impl Strategy<Value = Cmd> {
    prop_oneof![
        (0u32..6).prop_map(Cmd::Wake),
        (0u32..6).prop_map(Cmd::Park),
        (0u32..6, 1u64..8192).prop_map(|(t, w)| Cmd::SetWeight(t, w)),
        (0u32..6, 10u64..200_000).prop_map(|(t, b)| Cmd::SetBudget(t, b)),
        (
            0usize..CORES,
            prop_oneof![1u64..3000, wakeup_band_us()],
            prop::bool::ANY
        )
            .prop_map(|(core, charge_us, yield_if_done)| Cmd::Step {
                core,
                charge_us,
                yield_if_done
            }),
        (0usize..CORES).prop_map(Cmd::Block),
    ]
}

/// CFS Normal is listed three times (the shim's `prop_oneof!` has no
/// weighted arms): it is the one policy with wakeup preemption.
fn policies() -> impl Strategy<Value = Policy> {
    prop_oneof![
        Just(Policy::CfsNormal),
        Just(Policy::CfsNormal),
        Just(Policy::CfsNormal),
        Just(Policy::CfsBatch),
        Just(Policy::rr_1ms()),
        Just(Policy::Cooperative),
        Just(Policy::Edf {
            period: Duration::from_millis(1)
        }),
        Just(Policy::Slo),
    ]
}

/// The platform-facing calls both schedulers answer.
trait Driver {
    fn add_task(&mut self, name: String, core: usize) -> TaskId;
    fn wake(&mut self, id: TaskId, now: SimTime) -> bool;
    fn park(&mut self, id: TaskId, now: SimTime) -> bool;
    fn set_weight(&mut self, id: TaskId, weight: u64);
    fn set_task_budget(&mut self, id: TaskId, budget: Duration);
    fn dispatch(&mut self, core: usize, now: SimTime) -> Option<(TaskId, Duration)>;
    fn charge_current(&mut self, core: usize, dur: Duration);
    fn block_current(&mut self, core: usize, now: SimTime) -> TaskId;
    fn requeue_current(&mut self, core: usize, now: SimTime, kind: SwitchKind) -> TaskId;
    fn kernel(&self) -> &KernelCtx;
}

impl Driver for OsScheduler {
    fn add_task(&mut self, name: String, core: usize) -> TaskId {
        OsScheduler::add_task(self, name, core)
    }
    fn wake(&mut self, id: TaskId, now: SimTime) -> bool {
        OsScheduler::wake(self, id, now)
    }
    fn park(&mut self, id: TaskId, now: SimTime) -> bool {
        OsScheduler::park(self, id, now)
    }
    fn set_weight(&mut self, id: TaskId, weight: u64) {
        OsScheduler::set_weight(self, id, weight)
    }
    fn set_task_budget(&mut self, id: TaskId, budget: Duration) {
        OsScheduler::set_task_budget(self, id, budget)
    }
    fn dispatch(&mut self, core: usize, now: SimTime) -> Option<(TaskId, Duration)> {
        OsScheduler::dispatch(self, core, now)
    }
    fn charge_current(&mut self, core: usize, dur: Duration) {
        OsScheduler::charge_current(self, core, dur)
    }
    fn block_current(&mut self, core: usize, now: SimTime) -> TaskId {
        OsScheduler::block_current(self, core, now)
    }
    fn requeue_current(&mut self, core: usize, now: SimTime, kind: SwitchKind) -> TaskId {
        OsScheduler::requeue_current(self, core, now, kind)
    }
    fn kernel(&self) -> &KernelCtx {
        OsScheduler::kernel(self)
    }
}

impl Driver for ClassicScheduler {
    fn add_task(&mut self, name: String, core: usize) -> TaskId {
        ClassicScheduler::add_task(self, name, core)
    }
    fn wake(&mut self, id: TaskId, now: SimTime) -> bool {
        ClassicScheduler::wake(self, id, now)
    }
    fn park(&mut self, id: TaskId, now: SimTime) -> bool {
        ClassicScheduler::park(self, id, now)
    }
    fn set_weight(&mut self, id: TaskId, weight: u64) {
        self.ctx.set_weight(id, weight)
    }
    fn set_task_budget(&mut self, id: TaskId, budget: Duration) {
        self.ctx.tasks[id.index()].rel_deadline = budget;
    }
    fn dispatch(&mut self, core: usize, now: SimTime) -> Option<(TaskId, Duration)> {
        ClassicScheduler::dispatch(self, core, now)
    }
    fn charge_current(&mut self, core: usize, dur: Duration) {
        ClassicScheduler::charge_current(self, core, dur)
    }
    fn block_current(&mut self, core: usize, now: SimTime) -> TaskId {
        ClassicScheduler::block_current(self, core, now)
    }
    fn requeue_current(&mut self, core: usize, now: SimTime, kind: SwitchKind) -> TaskId {
        ClassicScheduler::requeue_current(self, core, now, kind)
    }
    fn kernel(&self) -> &KernelCtx {
        &self.ctx
    }
}

fn with_tasks<S: Driver>(mut s: S) -> S {
    for i in 0..6 {
        s.add_task(format!("t{i}"), i % CORES);
    }
    s
}

/// Apply one command, advancing `now` identically on both sides.
fn apply(s: &mut impl Driver, c: &Cmd, now: &mut SimTime) {
    match *c {
        Cmd::Wake(t) => {
            s.wake(TaskId(t), *now);
        }
        Cmd::Park(t) => {
            s.park(TaskId(t), *now);
        }
        Cmd::SetWeight(t, w) => s.set_weight(TaskId(t), w),
        Cmd::SetBudget(t, us) => s.set_task_budget(TaskId(t), Duration::from_micros(us)),
        Cmd::Step {
            core,
            charge_us,
            yield_if_done,
        } => {
            if s.kernel().current(core).is_none() {
                s.dispatch(core, *now);
                return;
            }
            let step = Duration::from_micros(charge_us);
            s.charge_current(core, step);
            *now += step;
            if s.kernel().need_resched(core, *now) {
                s.requeue_current(core, *now, SwitchKind::Involuntary);
            } else if yield_if_done {
                s.requeue_current(core, *now, SwitchKind::Voluntary);
            }
        }
        Cmd::Block(core) => {
            if s.kernel().current(core).is_some() {
                s.block_current(core, *now);
            }
        }
    }
}

/// Everything externally observable about a scheduler, for equality.
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    tasks: Vec<(TaskState, u64, u64, u64, u64, u64, u64)>,
    cores: Vec<(Option<TaskId>, usize, bool, u64)>,
}

fn fingerprint(s: &KernelCtx, now: SimTime) -> Fingerprint {
    Fingerprint {
        tasks: s
            .task_ids()
            .map(|id| {
                let t = s.task(id);
                (
                    t.state,
                    t.vruntime,
                    t.deadline,
                    t.cpu_time.as_nanos(),
                    t.voluntary_switches,
                    t.involuntary_switches,
                    t.dispatches,
                )
            })
            .collect(),
        cores: (0..s.num_cores())
            .map(|c| {
                (
                    s.current(c),
                    s.queued(c),
                    s.need_resched(c, now),
                    s.core_busy(c).as_nanos(),
                )
            })
            .collect(),
    }
}

proptest! {
    /// For every policy, the hook-based driver and the classic reference
    /// model stay in lockstep over arbitrary command streams.
    #[test]
    fn backends_stay_in_lockstep(
        policy in policies(),
        cmds in prop::collection::vec(cmd(), 1..120),
    ) {
        let (cfs, cs_cost) = (CfsParams::default(), Duration::from_micros(2));
        let mut hooks = with_tasks(OsScheduler::new(CORES, policy, cfs, cs_cost));
        let mut classic = with_tasks(ClassicScheduler::new(CORES, policy, cfs, cs_cost));
        let mut now_h = SimTime::ZERO;
        let mut now_c = SimTime::ZERO;
        for (i, c) in cmds.iter().enumerate() {
            apply(&mut hooks, c, &mut now_h);
            apply(&mut classic, c, &mut now_c);
            prop_assert_eq!(now_h, now_c);
            let fh = fingerprint(hooks.kernel(), now_h);
            let fc = fingerprint(classic.kernel(), now_c);
            prop_assert_eq!(fh, fc, "divergence after cmd {} = {:?} ({:?})", i, c, policy);
        }
    }
}
