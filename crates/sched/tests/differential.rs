//! The scheduler pin: 32 generated command streams through the
//! platform-facing API of [`OsScheduler`] under every policy, with the
//! full observable state folded into one digest per policy after every
//! command. The engine-level counterpart
//! (`sched_policies_keep_their_pinned_runs`) pins a full fig7-style
//! simulation per policy.

#![forbid(unsafe_code)]

use nfv_des::{Duration, SimTime};
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
/// granularity in `OsScheduler::preempts` first shows.
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

/// Long uninterrupted charges: 20–60 ms segments that never yield, so a
/// task keeps its CPU past RR's 100 ms slice within a few steps, while
/// the uniform family's ≤ 3 ms charges and frequent yields never do.
fn long_cmd() -> impl Strategy<Value = Cmd> {
    let run = || {
        (0usize..CORES, 20_000u64..60_000).prop_map(|(core, charge_us)| Cmd::Step {
            core,
            charge_us,
            yield_if_done: false,
        })
    };
    prop_oneof![
        (0u32..6).prop_map(Cmd::Wake),
        run(),
        run(),
        run(),
        (0usize..CORES).prop_map(Cmd::Block),
    ]
}

fn with_tasks(mut s: OsScheduler) -> OsScheduler {
    for i in 0..6 {
        s.add_task(format!("t{i}"), i % CORES);
    }
    s
}

/// Apply one command, advancing `now` by any charged segment.
fn apply(s: &mut OsScheduler, c: &Cmd, now: &mut SimTime) {
    match *c {
        Cmd::Wake(t) => {
            s.wake(TaskId(t), *now);
        }
        Cmd::Park(t) => {
            s.park(TaskId(t));
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

/// FNV-1a over little-endian `u64` words.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold in everything externally observable about `s` at `now`.
    fn fingerprint(&mut self, s: &OsScheduler, now: SimTime) {
        for id in s.task_ids() {
            let t = s.task(id);
            let state = match t.state {
                TaskState::Blocked => 0,
                TaskState::Runnable => 1,
                TaskState::Running => 2,
            };
            for w in [
                state,
                t.vruntime,
                t.deadline,
                t.cpu_time.as_nanos(),
                t.voluntary_switches,
                t.involuntary_switches,
                t.dispatches,
            ] {
                self.word(w);
            }
        }
        for c in 0..s.num_cores() {
            for w in [
                s.current(c).map_or(u64::MAX, |t| u64::from(t.0)),
                s.queued(c) as u64,
                u64::from(s.need_resched(c, now)),
                s.core_busy(c).as_nanos(),
            ] {
                self.word(w);
            }
        }
    }
}

/// 32 command streams drawn from `cmd` under the RNG seed `name`, the
/// same for every configuration.
fn streams<S: Strategy<Value = Cmd>>(cmd: S, name: &str) -> Vec<Vec<Cmd>> {
    let mut rng = TestRng::deterministic(name);
    let strat = prop::collection::vec(cmd, 1..120);
    (0..32).map(|_| strat.generate(&mut rng)).collect()
}

/// One FNV-1a digest of the fingerprint after every command of every
/// stream, run under `policy`.
fn digest(policy: Policy, streams: &[Vec<Cmd>]) -> u64 {
    let (cfs, cs_cost) = (CfsParams::default(), Duration::from_micros(2));
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for cmds in streams {
        let mut s = with_tasks(OsScheduler::new(CORES, policy, cfs, cs_cost));
        let mut now = SimTime::ZERO;
        for c in cmds {
            apply(&mut s, c, &mut now);
            h.fingerprint(&s, now);
        }
    }
    h.0
}

/// Every policy, both RR quanta, with the digests recorded when the
/// sched_ext-style hook driver and the monolithic reference model it
/// replaced still agreed on them. RR(100 ms) and Cooperative share a
/// digest here: no stream of this family runs one task 100 ms without a
/// switch (`long_charges_keep_their_pinned_digests` tells them apart).
#[test]
fn policies_keep_their_pinned_digests() {
    let edf_1ms = Policy::Edf {
        period: Duration::from_millis(1),
    };
    let pinned = [
        (Policy::CfsNormal, 0x8276_af1a_a2dd_8816),
        (Policy::CfsBatch, 0xf6b7_6983_4718_e83b),
        (Policy::rr_1ms(), 0xeef4_e338_8b75_9649),
        (Policy::rr_100ms(), 0xe809_3ceb_8370_07cf),
        (Policy::Cooperative, 0xe809_3ceb_8370_07cf),
        (edf_1ms, 0x33f8_c6c8_349c_2335),
        (Policy::Slo, 0xe93e_2bfc_6f83_279c),
    ];
    let streams = streams(cmd(), "nfv_sched::differential::streams");
    for (policy, want) in pinned {
        let got = digest(policy, &streams);
        assert_eq!(got, want, "{policy:?}: digest moved to {got:#018x}");
    }
}

/// Every policy over the long-charge family: here RR(100 ms) expires its
/// slice where Cooperative keeps running, so the two digests differ.
#[test]
fn long_charges_keep_their_pinned_digests() {
    let edf_1ms = Policy::Edf {
        period: Duration::from_millis(1),
    };
    let pinned = [
        (Policy::CfsNormal, 0x9f95_80f0_b8c3_7399),
        (Policy::CfsBatch, 0x7ea4_dc5a_4d75_c685),
        (Policy::rr_1ms(), 0x063e_2116_9f57_e847),
        (Policy::rr_100ms(), 0x7802_f802_6460_85a7),
        (Policy::Cooperative, 0x6991_75fd_e777_e8ec),
        (edf_1ms, 0x74c0_f1e7_d2d7_89ac),
        (Policy::Slo, 0x7aed_7225_854f_94a3),
    ];
    let streams = streams(long_cmd(), "nfv_sched::differential::long_charges");
    for (policy, want) in pinned {
        let got = digest(policy, &streams);
        assert_eq!(got, want, "{policy:?}: digest moved to {got:#018x}");
    }
}
