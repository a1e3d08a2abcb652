//! NF execution on the core domains: batch-boundary scheduling. `CoreRun`
//! begins a batch (dequeue + cost computation), `BatchDone` completes it
//! (handler execution, I/O, TX enqueue) and then makes the scheduling
//! decision — continue, preempt, or block — which is exactly the
//! batch-boundary yield/preemption model of `libnf` (§3.2).

use super::events::Ev;
use super::Simulation;
use nfv_des::SimTime;
use nfv_pkt::NfId;
use nfv_platform::{BatchPlan, BlockReason};
use nfv_sched::SwitchKind;

impl Simulation {
    /// Start executing on `core` if it is idle and has runnable work.
    /// The domain's `active` flag serializes batch events: exactly one
    /// `CoreRun`/`BatchDone` is in flight per active domain.
    pub(super) fn kick(&mut self, core: usize, now: SimTime) {
        if self.domains[core].active {
            return;
        }
        let rq = self.domains[core].id;
        if let Some((_task, overhead)) = self.platform.sched.dispatch(rq, now) {
            self.domains[core].active = true;
            self.queue.push(now + overhead, Ev::CoreRun { core });
        } else {
            // Nothing runnable: the domain stays parked until a wake.
            debug_assert!(self.platform.sched.core_idle(rq));
        }
    }

    pub(super) fn do_core_run(&mut self, core: usize, now: SimTime) {
        let nf = self
            .platform
            .running_nf(core)
            .expect("CoreRun with no current task");
        // A crash can land between dispatch and this event; the dead
        // task could not be parked off-CPU, so retire it here.
        if !self.platform.nfs[nf.index()].is_up() {
            self.retire_dead(core, now);
            return;
        }
        match self.platform.plan_batch(nf) {
            BatchPlan::Run { duration, .. } => {
                self.queue.push(now + duration, Ev::BatchDone { core });
            }
            BatchPlan::Block(reason) => {
                self.platform.sched.block_current(core, now);
                self.platform.mark_blocked(nf, reason, now);
                self.domains[core].active = false;
                self.kick(core, now);
            }
        }
    }

    /// Pull a dead NF's task off the CPU at a batch boundary: the one
    /// place `crash_nf`'s park cannot reach (the scheduler refuses to
    /// park a `Running` task; the engine owns the in-flight batch event).
    /// The `CoreRun`/`BatchDone` event that got us here was made stale by
    /// the crash — lazy invalidation, accounted explicitly.
    fn retire_dead(&mut self, core: usize, now: SimTime) {
        self.stale_pops += 1;
        self.platform.sched.block_current(core, now);
        self.domains[core].active = false;
        self.kick(core, now);
    }

    pub(super) fn do_batch_done(&mut self, core: usize, now: SimTime) {
        let nf = self
            .platform
            .running_nf(core)
            .expect("BatchDone with no current task");
        // Crashed mid-batch: the crash drain already freed the batch, so
        // skip `finish_batch` and retire the task. The NF may be up again
        // by now (a respawn delay shorter than the batch), so the missing
        // batch is the test, not the NF's health; a respawned NF goes back
        // to where `restart_nf` put it, blocked on its RX ring, so the
        // wakeup thread re-admits it.
        let Some((dur, _)) = self.platform.nfs[nf.index()].current_batch else {
            if self.platform.nfs[nf.index()].is_up() {
                self.platform.nfs[nf.index()].blocked = Some(BlockReason::EmptyRx);
            }
            self.retire_dead(core, now);
            return;
        };
        self.platform.sched.charge_current(core, dur);
        let fx = self.platform.finish_batch(nf, now);
        for c in fx.flush_completions {
            self.queue.push(c, Ev::IoComplete { nf });
        }
        if let Some(t) = fx.io_wake_at {
            self.queue.push(t, Ev::IoComplete { nf });
        }
        if let Some(reason) = fx.block {
            self.platform.sched.block_current(core, now);
            self.platform.mark_blocked(nf, reason, now);
            self.domains[core].active = false;
            self.kick(core, now);
        } else if self.platform.sched.need_resched(core, now) {
            self.platform
                .sched
                .requeue_current(core, now, SwitchKind::Involuntary);
            let (_t, ov) = self
                .platform
                .sched
                .dispatch(core, now)
                .expect("resched with nonempty runqueue");
            self.queue.push(now + ov, Ev::CoreRun { core });
        } else {
            self.queue.push(now, Ev::CoreRun { core });
        }
    }

    pub(super) fn do_io_complete(&mut self, nf: NfId, now: SimTime) {
        let out = self.platform.on_io_complete(nf, now);
        if let Some(c) = out.next_completion {
            self.queue.push(c, Ev::IoComplete { nf });
        }
        if out.wake && self.platform.wake_nf(nf, now) {
            self.kick(self.platform.core_of(nf), now);
        }
    }
}
