//! Differential testing of the two scheduler backends: random command
//! streams are applied identically to the hook-based driver and the
//! classic monolith, and the full observable state must match after
//! every command. This is the crate-level half of the equivalence
//! argument; the engine-level half (`sched_backends_produce_identical_runs`)
//! replays a full fig7-style simulation, and CI's `bench-variants`
//! matrix byte-diffs the quick suite.

#![forbid(unsafe_code)]

use nfv_des::{Duration, SimTime};
use nfv_sched::{CfsParams, OsScheduler, Policy, SchedBackend, SwitchKind, TaskId, TaskState};
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

fn cmd() -> impl Strategy<Value = Cmd> {
    prop_oneof![
        (0u32..6).prop_map(Cmd::Wake),
        (0u32..6).prop_map(Cmd::Park),
        (0u32..6, 1u64..8192).prop_map(|(t, w)| Cmd::SetWeight(t, w)),
        (0u32..6, 10u64..200_000).prop_map(|(t, b)| Cmd::SetBudget(t, b)),
        (0usize..CORES, 1u64..3000, prop::bool::ANY).prop_map(
            |(core, charge_us, yield_if_done)| Cmd::Step {
                core,
                charge_us,
                yield_if_done
            }
        ),
        (0usize..CORES).prop_map(Cmd::Block),
    ]
}

fn policies() -> impl Strategy<Value = Policy> {
    prop_oneof![
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

fn build(policy: Policy, backend: SchedBackend) -> OsScheduler {
    let mut s = OsScheduler::with_backend(
        CORES,
        policy,
        CfsParams::default(),
        Duration::from_micros(2),
        backend,
    );
    for i in 0..6 {
        s.add_task(format!("t{i}"), i % CORES);
    }
    s
}

/// Apply one command, advancing `now` identically on both sides.
fn apply(s: &mut OsScheduler, c: &Cmd, now: &mut SimTime) {
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
            if s.current(core).is_none() {
                s.dispatch(core, *now);
                return;
            }
            let step = Duration::from_micros(charge_us);
            s.charge_current(core, step);
            *now += step;
            if s.need_resched(core, *now) {
                s.requeue_current(core, *now, SwitchKind::Involuntary);
            } else if yield_if_done {
                s.requeue_current(core, *now, SwitchKind::Voluntary);
            }
        }
        Cmd::Block(core) => {
            if s.current(core).is_some() {
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

fn fingerprint(s: &OsScheduler, now: SimTime) -> Fingerprint {
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
    /// For every policy, the hook-based driver and the classic monolith
    /// stay in lockstep over arbitrary command streams.
    #[test]
    fn backends_stay_in_lockstep(
        policy in policies(),
        cmds in prop::collection::vec(cmd(), 1..120),
    ) {
        let mut hooks = build(policy, SchedBackend::Hooks);
        let mut classic = build(policy, SchedBackend::Classic);
        let mut now_h = SimTime::ZERO;
        let mut now_c = SimTime::ZERO;
        for (i, c) in cmds.iter().enumerate() {
            apply(&mut hooks, c, &mut now_h);
            apply(&mut classic, c, &mut now_c);
            prop_assert_eq!(now_h, now_c);
            let fh = fingerprint(&hooks, now_h);
            let fc = fingerprint(&classic, now_c);
            prop_assert_eq!(fh, fc, "divergence after cmd {} = {:?} ({:?})", i, c, policy);
        }
    }
}
