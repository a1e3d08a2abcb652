//! Elastic NF scaling policy: configuration and the deployment cost
//! model.
//!
//! NFVnice's backpressure sheds load when a chain outgrows an NF; elastic
//! scaling *adds capacity* instead: a persistent bottleneck gets a
//! scale-out replica on the least-loaded core (flow-consistent RSS-style
//! sharding keeps per-flow state intact), a saturated core migrates its
//! cheapest NF to a quieter one, and an idle replica is retired once the
//! surge passes. Every decision runs on the monitor tick off deterministic
//! inputs (backpressure state, the load estimator, scheduler busy time),
//! so runs stay byte-reproducible.
//!
//! The direction gates follow the Online-VNF-Scaling formulation: an
//! action is taken only when its modeled benefit (latency/drop cost
//! accumulated while the condition persists, in checker-tick units)
//! exceeds its deployment cost. The dwell requirement doubles as the
//! hysteresis that keeps a transient burst from churning instances.
//!
//! [`ElasticController`] owns the controller's state (streaks, busy-time
//! snapshots, cooldown, action counters): each check it observes, then
//! decides at most one [`ElasticAction`]. Applying the action (the
//! platform call, the per-NF policy reset, the domain roster change) is
//! the engine's job.
//!
//! Everything defaults **off**: an inert [`ElasticConfig`] schedules no
//! work and a default-config run is byte-identical to the pre-elastic
//! engine (enforced by the `elastic_off_is_byte_identical` differential
//! test and the committed golden hashes).

use crate::backpressure::{Backpressure, BpState};
use crate::load::LoadMonitor;
use nfv_des::Duration;
use nfv_pkt::NfId;
use nfv_platform::{BlockReason, Platform};

/// Elastic scaling configuration. Inert by default; the three direction
/// switches are independent so experiments can compare scale-out against
/// migration on the same trace.
#[derive(Debug, Clone, Copy)]
pub struct ElasticConfig {
    /// Spawn replicas of persistent bottleneck NFs.
    pub scale_out: bool,
    /// Migrate the cheapest NF off a saturated core.
    pub migration: bool,
    /// Retire idle replicas once the surge passes.
    pub scale_in: bool,
    /// Controller check period, in monitor ticks (1 ms each by default).
    pub check_period_ticks: u32,
    /// Consecutive throttled checks before an NF counts as a *persistent*
    /// bottleneck eligible for scale-out.
    pub dwell_checks: u32,
    /// Maximum live replicas per base NF.
    pub max_replicas: u32,
    /// Deployment cost of one instance action, in checker-tick units of
    /// bottleneck latency cost (the Online-VNF-Scaling trade-off knob).
    pub deploy_cost: f64,
    /// A core whose busy share of the check period is at or above this
    /// percentage counts as saturated (migration source).
    pub saturation_pct: u32,
    /// Migration requires the destination's busy share to undercut the
    /// source's by at least this many percentage points of headroom:
    /// `quiet ≤ hot × (100 − margin) / 100`.
    pub spread_margin_pct: u32,
    /// A replica is idle when its arrival rate falls below this
    /// percentage of its base's (with a 1 pps absolute floor, so a
    /// fully-quiesced pair still counts as idle).
    pub idle_load_pct: u32,
    /// Consecutive idle checks before a replica may be retired.
    pub idle_checks: u32,
    /// Checks to wait after any action before taking another — one
    /// topology change at a time, letting shares and estimators settle.
    pub cooldown_checks: u32,
}

impl Default for ElasticConfig {
    fn default() -> Self {
        ElasticConfig {
            scale_out: false,
            migration: false,
            scale_in: false,
            check_period_ticks: 10,
            dwell_checks: 3,
            max_replicas: 1,
            deploy_cost: 2.0,
            saturation_pct: 90,
            spread_margin_pct: 30,
            idle_load_pct: 60,
            idle_checks: 5,
            cooldown_checks: 5,
        }
    }
}

impl ElasticConfig {
    /// Everything on with the default tuning.
    pub fn full() -> Self {
        ElasticConfig {
            scale_out: true,
            migration: true,
            scale_in: true,
            ..ElasticConfig::default()
        }
    }

    /// Is any direction enabled? An inert config schedules nothing and
    /// costs nothing (the byte-identity guarantee).
    pub fn active(&self) -> bool {
        self.scale_out || self.migration || self.scale_in
    }

    /// Scale-out gate: after `streak` consecutive throttled checks, has
    /// the accumulated bottleneck cost (one unit per check) paid for a
    /// deployment? Requires the dwell floor too, so a cheap deploy cost
    /// can never react to a single-check blip.
    pub fn deploy_worthwhile(&self, streak: u32) -> bool {
        streak >= self.dwell_checks && f64::from(streak) > self.deploy_cost
    }

    /// Scale-in gate: an idle replica's keep-cost accumulates one unit
    /// per idle check; retire once it exceeds the (one-time) deployment
    /// cost that a re-spawn would incur if the surge returned.
    pub fn retire_worthwhile(&self, idle_streak: u32) -> bool {
        idle_streak >= self.idle_checks && f64::from(idle_streak) > self.deploy_cost
    }

    /// Is a core busy for `busy_ns` of a `period_ns` check period
    /// saturated enough to be a migration source? Compared
    /// multiplicatively (no truncating division).
    pub fn saturated(&self, busy_ns: u64, period_ns: u64) -> bool {
        busy_ns * 100 >= period_ns * u64::from(self.saturation_pct)
    }

    /// Migration gate: moving an NF from a core with `hot_busy` to one
    /// with `quiet_busy` (same units) is worthwhile only when the
    /// destination undercuts the source by the configured margin —
    /// otherwise the latency saved cannot cover the move's cache/reset
    /// cost and the pair would ping-pong.
    pub fn spread_worthwhile(&self, hot_busy: u64, quiet_busy: u64) -> bool {
        hot_busy > 0
            && quiet_busy * 100 <= hot_busy * u64::from(100 - self.spread_margin_pct.min(100))
    }
}

/// One topology change decided by [`ElasticController::decide`], for the
/// engine to apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ElasticAction {
    /// Replicate the persistent bottleneck `base` onto `core`.
    ScaleOut { base: NfId, core: usize },
    /// Move `nf` off saturated core `from` to core `to`.
    Migrate { nf: NfId, from: usize, to: usize },
    /// Retire a drained `replica` that idled past the hysteresis.
    ScaleIn { replica: NfId },
}

/// The elastic controller: the deterministic signals it tracks between
/// checks, the decision rules over them, and the action counters. At
/// most one action per check, then `cooldown_checks` of quiet so shares,
/// estimators and the watermark machine settle before the next judgment.
#[derive(Debug, Default)]
pub(crate) struct ElasticController {
    cfg: ElasticConfig,
    /// One check period, in ns.
    period_ns: u64,
    /// Per core: cumulative busy time at the last check, and busy time
    /// over the last check period.
    busy_snapshot: Vec<Duration>,
    busy_delta: Vec<Duration>,
    /// Per NF: consecutive checks a base NF spent throttled (scale-out
    /// dwell) and a replica spent idle (scale-in hysteresis).
    throttle_streak: Vec<u32>,
    idle_streak: Vec<u32>,
    /// Checks to skip before the next action may fire.
    cooldown: u32,
    pub(crate) scale_outs: u64,
    pub(crate) migrations: u64,
    pub(crate) scale_ins: u64,
}

impl ElasticController {
    /// A controller for `cores` NF cores, checking every
    /// `check_period_ticks` monitor ticks of `sample_period`.
    pub(crate) fn new(cfg: ElasticConfig, sample_period: Duration, cores: usize) -> Self {
        ElasticController {
            cfg,
            period_ns: sample_period.as_nanos() * u64::from(cfg.check_period_ticks.max(1)),
            busy_snapshot: vec![Duration::ZERO; cores],
            busy_delta: vec![Duration::ZERO; cores],
            ..ElasticController::default()
        }
    }

    /// Track one more NF.
    pub(crate) fn grow(&mut self) {
        self.throttle_streak.push(0);
        self.idle_streak.push(0);
    }

    /// One check: refresh the signals, then — unless cooling down — try
    /// scale-out, migration and scale-in, in that order, and count the
    /// first action found.
    pub(crate) fn decide(
        &mut self,
        platform: &Platform,
        bp: &Backpressure,
        load: &LoadMonitor,
    ) -> Option<ElasticAction> {
        self.observe(platform, bp, load);
        if self.cooldown > 0 {
            self.cooldown -= 1;
            return None;
        }
        let cfg = self.cfg;
        let action = None
            .or_else(|| cfg.scale_out.then(|| self.scale_out(platform))?)
            .or_else(|| cfg.migration.then(|| self.migrate(platform, load))?)
            .or_else(|| cfg.scale_in.then(|| self.scale_in(platform))?)?;
        self.cooldown = cfg.cooldown_checks;
        match action {
            ElasticAction::ScaleOut { base, .. } => {
                self.throttle_streak[base.index()] = 0; // re-arm the dwell
                self.scale_outs += 1;
            }
            ElasticAction::Migrate { .. } => self.migrations += 1,
            ElasticAction::ScaleIn { replica } => {
                self.idle_streak[replica.index()] = 0;
                self.scale_ins += 1;
            }
        }
        Some(action)
    }

    fn observe(&mut self, platform: &Platform, bp: &Backpressure, load: &LoadMonitor) {
        for core in 0..self.busy_delta.len() {
            let busy = platform.sched.core_busy(core);
            self.busy_delta[core] = busy.saturating_sub(self.busy_snapshot[core]);
            self.busy_snapshot[core] = busy;
        }
        debug_assert_eq!(self.throttle_streak.len(), platform.nfs.len());
        for (idx, nf) in platform.nfs.iter().enumerate() {
            let (streak, hit) = match nf.replica_of {
                // Dwell is judged at the base NF: replicas share its flows
                // and its chain placement, so the base's throttle state is
                // the group's demand signal.
                None => (
                    &mut self.throttle_streak[idx],
                    matches!(bp.state(NfId(idx as u32)), BpState::Throttle),
                ),
                // Idle: drained, and arrivals fell below the configured
                // fraction of the base's rate — with a 1 pps absolute
                // floor so a fully quiesced pair still converges.
                Some(base) => {
                    let lam_r = load.arrival_rate_pps(idx);
                    let lam_b = load.arrival_rate_pps(base.index());
                    let floor = (lam_b * f64::from(self.cfg.idle_load_pct)).max(100.0);
                    (
                        &mut self.idle_streak[idx],
                        nf.pending() == 0 && lam_r * 100.0 < floor,
                    )
                }
            };
            *streak = if nf.is_up() && hit { *streak + 1 } else { 0 };
        }
    }

    /// Scale-out: the lowest-id live base NF that has stayed an active
    /// bottleneck past the dwell (and past the deploy cost) gets a
    /// replica on the least-loaded *other* core (a same-core replica adds
    /// no capacity).
    fn scale_out(&self, platform: &Platform) -> Option<ElasticAction> {
        if self.busy_delta.len() < 2 {
            return None;
        }
        platform.nfs.iter().enumerate().find_map(|(idx, nf)| {
            let base = NfId(idx as u32);
            let due = nf.replica_of.is_none()
                && nf.is_up()
                && self.cfg.deploy_worthwhile(self.throttle_streak[idx])
                && platform.replica_group(base).len() < self.cfg.max_replicas as usize;
            if !due {
                return None;
            }
            let core = self.quietest_core_except(nf.spec.core)?;
            Some(ElasticAction::ScaleOut { base, core })
        })
    }

    /// Least-busy core over the last check period, excluding `except`.
    /// Ties break to the lowest core id (deterministic).
    fn quietest_core_except(&self, except: usize) -> Option<usize> {
        (0..self.busy_delta.len())
            .filter(|&core| core != except)
            .min_by_key(|&core| self.busy_delta[core])
    }

    /// Migration: if the busiest core is saturated and hosts at least two
    /// live NFs, move its cheapest parkable NF to the quietest core —
    /// provided the spread gate says the gap is worth the move. A Running
    /// candidate defers the whole decision to the next check (park never
    /// preempts), keeping the controller deterministic without yanking a
    /// task mid-batch.
    fn migrate(&self, platform: &Platform, load: &LoadMonitor) -> Option<ElasticAction> {
        if self.busy_delta.len() < 2 {
            return None;
        }
        // The busiest core; ties to the lowest id.
        let hot = (1..self.busy_delta.len()).fold(0, |hot, core| {
            if self.busy_delta[core] > self.busy_delta[hot] {
                core
            } else {
                hot
            }
        });
        let hot_ns = self.busy_delta[hot].as_nanos();
        let to = self.quietest_core_except(hot)?;
        let quiet_ns = self.busy_delta[to].as_nanos();
        if !self.cfg.saturated(hot_ns, self.period_ns)
            || !self.cfg.spread_worthwhile(hot_ns, quiet_ns)
        {
            return None;
        }
        let live = || {
            platform
                .nfs_on_core(hot)
                .filter(|nf| platform.nfs[nf.index()].is_up())
        };
        if live().count() < 2 {
            return None; // a lone NF's load moves with it: nothing to spread
        }
        // Cheapest parkable candidate: lowest estimator load, ties to the
        // lowest NF id. Running tasks and NFs mid-I/O or TX-blocked are
        // skipped — their block reason must not be overwritten.
        let mut pick: Option<(NfId, f64)> = None;
        for id in live() {
            let nf = &platform.nfs[id.index()];
            let parkable = platform.sched.current(hot) != Some(nf.task)
                && matches!(
                    nf.blocked,
                    None | Some(BlockReason::EmptyRx) | Some(BlockReason::Backpressure)
                );
            let l = load.load(id.index());
            if parkable && pick.is_none_or(|(_, best)| l < best) {
                pick = Some((id, l));
            }
        }
        let (nf, _) = pick?;
        Some(ElasticAction::Migrate { nf, from: hot, to })
    }

    /// Scale-in: the lowest-id live replica that has been idle past the
    /// hysteresis floor and is fully drained and off-CPU.
    fn scale_in(&self, platform: &Platform) -> Option<ElasticAction> {
        let idx = platform.nfs.iter().enumerate().position(|(idx, nf)| {
            nf.replica_of.is_some()
                && nf.is_up()
                && self.cfg.retire_worthwhile(self.idle_streak[idx])
                && platform.sched.current(nf.spec.core) != Some(nf.task)
                && nf.pending() == 0
                && nf.tx.is_empty()
                && nf.outbox.is_empty()
                && nf.in_progress.is_empty()
        })?;
        Some(ElasticAction::ScaleIn {
            replica: NfId(idx as u32),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_inert() {
        let c = ElasticConfig::default();
        assert!(!c.active());
        assert!(ElasticConfig::full().active());
        assert!(ElasticConfig {
            scale_in: true,
            ..ElasticConfig::default()
        }
        .active());
    }

    #[test]
    fn deploy_gate_needs_dwell_and_amortization() {
        let c = ElasticConfig {
            dwell_checks: 3,
            deploy_cost: 2.0,
            ..ElasticConfig::default()
        };
        assert!(!c.deploy_worthwhile(0));
        assert!(!c.deploy_worthwhile(2), "below the dwell floor");
        assert!(c.deploy_worthwhile(3), "3 checks of cost > 2.0 deploy");
        // An expensive deploy needs a longer streak than the dwell floor.
        let pricey = ElasticConfig {
            dwell_checks: 3,
            deploy_cost: 5.0,
            ..ElasticConfig::default()
        };
        assert!(!pricey.deploy_worthwhile(4), "4 units < 5.0 cost");
        assert!(pricey.deploy_worthwhile(6));
    }

    #[test]
    fn retire_gate_mirrors_deploy() {
        let c = ElasticConfig {
            idle_checks: 5,
            deploy_cost: 2.0,
            ..ElasticConfig::default()
        };
        assert!(!c.retire_worthwhile(4));
        assert!(c.retire_worthwhile(5));
    }

    #[test]
    fn spread_gate_requires_margin() {
        let c = ElasticConfig {
            spread_margin_pct: 30,
            ..ElasticConfig::default()
        };
        assert!(c.spread_worthwhile(100, 70), "30-point undercut: worth it");
        assert!(!c.spread_worthwhile(100, 71), "too close: would ping-pong");
        assert!(c.spread_worthwhile(100, 0));
        assert!(!c.spread_worthwhile(0, 0), "idle pair: nothing to spread");
    }

    #[test]
    fn saturation_threshold() {
        let c = ElasticConfig::default();
        assert!(c.saturated(900, 1_000) && c.saturated(1_000, 1_000));
        assert!(!c.saturated(899, 1_000));
    }
}
