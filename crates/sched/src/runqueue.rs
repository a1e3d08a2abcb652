//! The per-core runqueue: one ordered set serves every policy.

use crate::task::TaskId;
use std::collections::BTreeSet;

/// The queue of runnable (not running) tasks on one core, ordered by
/// `(key, id)`; the smallest runs next. The key is the policy's choice
/// (`OsScheduler::queue_key`): vruntime under CFS — the kernel uses a
/// red-black tree, a B-tree set gives the same order and complexity —,
/// the absolute deadline under EDF/SLO, and an arrival sequence number
/// from [`RunQueue::next_seq`] under RR and Cooperative, which makes the
/// set a strict FIFO.
#[derive(Debug, Default)]
pub(crate) struct RunQueue {
    tree: BTreeSet<(u64, TaskId)>,
    /// Monotonic vruntime floor of this core, used to place waking and
    /// newly added tasks so sleepers neither starve nor dominate. Only
    /// CFS advances it; it stays 0 under the other policies.
    min_vruntime: u64,
    /// The next arrival sequence number.
    next_seq: u64,
}

impl RunQueue {
    /// Insert a runnable task under `key`.
    pub(crate) fn insert(&mut self, id: TaskId, key: u64) {
        debug_assert!(self.iter().all(|t| t != id), "task {id} double-inserted");
        self.tree.insert((key, id));
    }

    /// Remove and return the task with the smallest key.
    pub(crate) fn pop_next(&mut self) -> Option<TaskId> {
        self.tree.pop_first().map(|(_, id)| id)
    }

    /// Current `min_vruntime`.
    pub(crate) fn min_vruntime(&self) -> u64 {
        self.min_vruntime
    }

    /// Raise `min_vruntime` to `floor` if it is behind; it never
    /// regresses.
    pub(crate) fn advance_min_vruntime(&mut self, floor: u64) {
        self.min_vruntime = self.min_vruntime.max(floor);
    }

    /// Take the next arrival sequence number.
    pub(crate) fn next_seq(&mut self) -> u64 {
        self.next_seq += 1;
        self.next_seq
    }

    /// Number of queued (runnable, not running) tasks.
    pub(crate) fn len(&self) -> usize {
        self.tree.len()
    }

    /// True when no tasks are queued.
    pub(crate) fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// Queued task ids, next-to-run first.
    pub(crate) fn iter(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.tree.iter().map(|&(_, id)| id)
    }

    /// The task that would run next, without removing it.
    pub(crate) fn head(&self) -> Option<TaskId> {
        self.iter().next()
    }

    /// Smallest queued key, if any.
    pub(crate) fn leftmost_key(&self) -> Option<u64> {
        self.tree.first().map(|&(k, _)| k)
    }

    /// Remove a specific queued task (wherever it sits), returning whether
    /// it was present. Used when a runnable task is parked (e.g. its NF
    /// crashed) and must leave the queue without being dispatched.
    pub(crate) fn remove(&mut self, id: TaskId) -> bool {
        // A linear scan finds the entry without the caller having to know
        // the key. Queues hold at most a handful of NFs per core.
        match self.tree.iter().find(|&&(_, t)| t == id).copied() {
            Some(entry) => self.tree.remove(&entry),
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CfsParams, OsScheduler, Policy, SwitchKind};
    use nfv_des::{Duration, SimTime};

    #[test]
    fn cfs_pops_lowest_vruntime() {
        let mut rq = RunQueue::default();
        rq.insert(TaskId(1), 300);
        rq.insert(TaskId(2), 100);
        rq.insert(TaskId(3), 200);
        assert_eq!(rq.pop_next(), Some(TaskId(2)));
        assert_eq!(rq.pop_next(), Some(TaskId(3)));
        assert_eq!(rq.pop_next(), Some(TaskId(1)));
        assert_eq!(rq.pop_next(), None);
    }

    #[test]
    fn cfs_equal_vruntime_breaks_by_id() {
        let mut rq = RunQueue::default();
        rq.insert(TaskId(5), 100);
        rq.insert(TaskId(1), 100);
        assert_eq!(rq.pop_next(), Some(TaskId(1)));
    }

    #[test]
    fn cfs_min_vruntime_monotonic() {
        let mut rq = RunQueue::default();
        rq.advance_min_vruntime(500);
        assert_eq!(rq.min_vruntime(), 500);
        rq.advance_min_vruntime(100); // a sleeper with old vruntime
        assert_eq!(rq.min_vruntime(), 500, "min_vruntime never regresses");
    }

    /// The floor moves under CFS only: a task added after another ran
    /// 400 µs starts at that vruntime under CFS, at 0 under RR and EDF.
    #[test]
    fn advance_min_vruntime_is_monotonic_and_cfs_only() {
        let edf = Policy::Edf {
            period: Duration::from_millis(1),
        };
        for (policy, floor) in [
            (Policy::CfsNormal, 400_000),
            (Policy::rr_1ms(), 0),
            (edf, 0),
        ] {
            let mut s = OsScheduler::new(1, policy, CfsParams::default(), Duration::ZERO);
            let a = s.add_task("a", 0);
            s.wake(a, SimTime::ZERO);
            s.dispatch(0, SimTime::ZERO);
            s.charge_current(0, Duration::from_micros(400));
            s.requeue_current(0, SimTime::from_micros(400), SwitchKind::Voluntary);
            let late = s.add_task("late", 0);
            assert_eq!(s.task(late).vruntime, floor, "{policy:?}");
        }
    }

    #[test]
    fn rr_is_fifo() {
        let mut rq = RunQueue::default();
        for id in [3, 1, 2] {
            let seq = rq.next_seq();
            rq.insert(TaskId(id), seq);
        }
        assert_eq!(rq.pop_next(), Some(TaskId(3)));
        assert_eq!(rq.pop_next(), Some(TaskId(1)));
        assert_eq!(rq.pop_next(), Some(TaskId(2)));
    }

    #[test]
    fn edf_pops_earliest_deadline() {
        let mut rq = RunQueue::default();
        rq.insert(TaskId(1), 3_000_000);
        rq.insert(TaskId(2), 1_000_000);
        rq.insert(TaskId(3), 2_000_000);
        assert_eq!(rq.leftmost_key(), Some(1_000_000));
        assert_eq!(rq.pop_next(), Some(TaskId(2)));
        assert_eq!(rq.pop_next(), Some(TaskId(3)));
        assert_eq!(rq.pop_next(), Some(TaskId(1)));
        assert_eq!(rq.pop_next(), None);
    }

    #[test]
    fn remove_by_id_from_all_kinds() {
        let mut rq = RunQueue::default();
        rq.insert(TaskId(1), 10);
        rq.insert(TaskId(2), 5);
        assert!(rq.remove(TaskId(1)));
        assert!(!rq.remove(TaskId(1)), "second remove is a no-op");
        assert!(!rq.remove(TaskId(9)));
        assert_eq!(rq.pop_next(), Some(TaskId(2)));
        assert_eq!(rq.pop_next(), None);
    }

    #[test]
    fn iter_len_and_head() {
        let mut rq = RunQueue::default();
        rq.insert(TaskId(1), 10);
        rq.insert(TaskId(2), 5);
        assert_eq!(rq.len(), 2);
        assert!(!rq.is_empty());
        let order: Vec<_> = rq.iter().collect();
        assert_eq!(order, vec![TaskId(2), TaskId(1)]);
        assert_eq!(rq.head(), Some(TaskId(2)));
        assert_eq!(rq.leftmost_key(), Some(5));
    }
}
