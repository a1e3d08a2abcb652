//! Fault application and failure recovery: the engine half of the
//! deterministic fault-injection subsystem ([`crate::faults`] holds the
//! plan types and the [`Watchdog`](crate::faults::Watchdog)). Crashes
//! drain the victim's packets and park its task; the recovery policy
//! respawns it after a delay; the watchdog's hung NFs are killed here.
//!
//! [`Simulation::reset_nf_policy`] is the one per-NF policy reset every
//! lifecycle path (crash, respawn, migration, scale-in) goes through.

use super::events::Ev;
use super::Simulation;
use crate::faults::{FaultEvent, FaultKind};
use nfv_des::SimTime;
use nfv_obs::TraceKind;
use nfv_pkt::NfId;
use nfv_platform::NfHealth;

impl Simulation {
    pub(super) fn apply_fault(&mut self, fault: FaultEvent, now: SimTime) {
        match fault.kind {
            FaultKind::Crash => self.kill_nf(fault.nf, now),
            FaultKind::Stall => {
                if self.platform.nfs[fault.nf.index()].health == NfHealth::Up {
                    self.platform.stall_nf(fault.nf);
                    // A sleeping NF that starts spinning: put it on CPU so
                    // it burns cycles without progress.
                    if self.platform.wake_nf(fault.nf, now) {
                        self.kick(self.platform.core_of(fault.nf), now);
                    }
                }
            }
            FaultKind::Slowdown { factor, duration } => {
                let nf = &mut self.platform.nfs[fault.nf.index()];
                if nf.health != NfHealth::Down {
                    nf.cost_factor = factor.max(1);
                    let t = now + duration;
                    if t <= self.run_end {
                        self.queue.push(t, Ev::SlowdownEnd { nf: fault.nf });
                    }
                }
            }
        }
    }

    /// Reset NF `nf`'s per-NF policy state after a lifecycle change:
    /// drop its backpressure marks (a dead or moved NF never drains its
    /// own watermark state), restart its load estimator, ECN average and
    /// watchdog count from the current counters, then recompute the
    /// shares of every domain in `cores` at once — survivors must not
    /// keep splitting a core as if the departed NF still claimed its
    /// share, and a returning NF must not carry a stale weight until the
    /// next weight tick.
    pub(super) fn reset_nf_policy(&mut self, nf: NfId, cores: &[usize], now: SimTime) {
        let idx = nf.index();
        self.bp.clear_nf(now, nf);
        self.load.reset(idx, self.platform.nfs[idx].arrivals);
        self.ecn.reset(idx);
        self.watchdog.rebase(idx, self.platform.nfs[idx].processed);
        for &core in cores {
            self.recompute_domain_shares(core, now);
        }
    }

    /// Kill `nf` (injected crash or watchdog verdict): drain its packets
    /// back to the mempool, park its task, and reset its policy state.
    pub(super) fn kill_nf(&mut self, nf: NfId, now: SimTime) {
        if self.platform.nfs[nf.index()].health == NfHealth::Down {
            self.stale_pops += 1;
            return; // an injected crash racing the watchdog's verdict
        }
        let Simulation {
            platform,
            scratch_tcp,
            ..
        } = self;
        scratch_tcp.clear();
        platform.crash_nf(nf, now, scratch_tcp);
        self.dispatch_tcp_events(now);
        self.watchdog.crashes += 1;
        self.reset_nf_policy(nf, &[self.platform.core_of(nf)], now);
        if self.cfg.faults.recovery {
            let t = now + self.cfg.faults.respawn_delay;
            if t <= self.run_end {
                self.queue.push(t, Ev::NfRespawn { nf });
            }
        }
    }

    /// The recovery policy's respawn: bring the NF back up, blocked on an
    /// empty ring; the wakeup thread re-admits it to the CPU once packets
    /// arrive. The fresh incarnation rejoins its domain with a reset
    /// estimator. (Its marks and ECN average were already reset at crash
    /// time and stay untouched while it is down, so resetting them again
    /// is a no-op.)
    pub(super) fn do_respawn(&mut self, nf: NfId, now: SimTime) {
        if self.platform.nfs[nf.index()].health != NfHealth::Down {
            self.stale_pops += 1;
            return;
        }
        self.platform.restart_nf(nf, now);
        self.watchdog.restarts += 1;
        self.reset_nf_policy(nf, &[self.platform.core_of(nf)], now);
    }

    /// Kill every NF the liveness watchdog declares hung this tick.
    pub(super) fn run_watchdog(&mut self, now: SimTime) {
        let mut from = 0;
        while let Some(nf) = self.watchdog.next_hung(&self.platform.nfs, from) {
            self.trace
                .record(now, TraceKind::NfStallDetect { nf: nf.0 });
            self.kill_nf(nf, now);
            from = nf.index() + 1;
        }
    }
}
