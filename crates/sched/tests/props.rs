//! Property-based tests for the OS scheduler model: accounting
//! conservation, weight proportionality, and liveness under random
//! workloads.

#![forbid(unsafe_code)]

use nfv_des::{Duration, SimTime};
use nfv_sched::{CfsParams, OsScheduler, Policy, SwitchKind, TaskId};
use proptest::prelude::*;

/// Drive a scheduler with always-runnable tasks for `steps` segments of
/// `step_us`, returning per-task CPU time.
fn drive(sched: &mut OsScheduler, tasks: &[TaskId], steps: u32, step_us: u64) -> Vec<Duration> {
    let mut now = SimTime::ZERO;
    for t in tasks {
        sched.wake(*t, now);
    }
    for _ in 0..steps {
        if sched.current(0).is_none() {
            sched.dispatch(0, now);
        }
        let step = Duration::from_micros(step_us);
        sched.charge_current(0, step);
        now += step;
        if sched.need_resched(0, now) {
            sched.requeue_current(0, now, SwitchKind::Involuntary);
        }
    }
    tasks.iter().map(|t| sched.task(*t).cpu_time).collect()
}

proptest! {
    /// Conservation: total charged time equals the core's busy time.
    #[test]
    fn cpu_time_conservation(
        n in 1usize..6,
        steps in 100u32..2000,
        policy_rr in prop::bool::ANY,
    ) {
        let policy = if policy_rr { Policy::rr_1ms() } else { Policy::CfsNormal };
        let mut s = OsScheduler::new(1, policy, CfsParams::default(), Duration::ZERO);
        let tasks: Vec<_> = (0..n).map(|i| s.add_task(format!("t{i}"), 0)).collect();
        let times = drive(&mut s, &tasks, steps, 50);
        let total: u64 = times.iter().map(|d| d.as_nanos()).sum();
        prop_assert_eq!(total, s.core_busy(0).as_nanos());
        prop_assert_eq!(total, steps as u64 * 50_000);
    }

    /// CFS allocates CPU in proportion to weights among always-runnable
    /// tasks (within 20% after enough slices).
    #[test]
    fn cfs_weight_proportionality(
        w1 in 1u64..8,
        w2 in 1u64..8,
    ) {
        let mut s = OsScheduler::new(1, Policy::CfsNormal, CfsParams::default(), Duration::ZERO);
        let a = s.add_task("a", 0);
        let b = s.add_task("b", 0);
        s.set_weight(a, w1 * 1024);
        s.set_weight(b, w2 * 1024);
        let times = drive(&mut s, &[a, b], 20_000, 50);
        let ratio = times[0].as_nanos() as f64 / times[1].as_nanos() as f64;
        let expected = w1 as f64 / w2 as f64;
        prop_assert!((ratio / expected - 1.0).abs() < 0.2,
            "ratio {ratio} vs expected {expected}");
    }

    /// Liveness: every runnable task eventually runs (no starvation), under
    /// any policy and any weights.
    #[test]
    fn no_starvation(
        n in 2usize..6,
        weights in prop::collection::vec(1u64..100, 5),
        policy_sel in 0u8..3,
    ) {
        let policy = match policy_sel {
            0 => Policy::CfsNormal,
            1 => Policy::CfsBatch,
            _ => Policy::rr_1ms(),
        };
        let mut s = OsScheduler::new(1, policy, CfsParams::default(), Duration::ZERO);
        let tasks: Vec<_> = (0..n).map(|i| s.add_task(format!("t{i}"), 0)).collect();
        for (i, t) in tasks.iter().enumerate() {
            s.set_weight(*t, weights[i % weights.len()].max(nfv_sched::MIN_SHARES));
        }
        let times = drive(&mut s, &tasks, 50_000, 20);
        for (i, t) in times.iter().enumerate() {
            prop_assert!(t.as_nanos() > 0, "task {i} starved (policy {policy:?})");
        }
    }

    /// Dispatch accounting: dispatches == voluntary + involuntary switches
    /// + (1 if currently running) for each task.
    #[test]
    fn switch_accounting_balances(steps in 100u32..3000) {
        let mut s = OsScheduler::new(1, Policy::CfsNormal, CfsParams::default(), Duration::ZERO);
        let tasks: Vec<_> = (0..3).map(|i| s.add_task(format!("t{i}"), 0)).collect();
        drive(&mut s, &tasks, steps, 100);
        for t in &tasks {
            let task = s.task(*t);
            let off_cpu = task.voluntary_switches + task.involuntary_switches;
            let running = s.current(0) == Some(*t);
            prop_assert_eq!(task.dispatches, off_cpu + running as u64);
        }
    }
}
