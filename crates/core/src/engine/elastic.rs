//! Elastic scaling, engine half: apply the [`ElasticAction`] the
//! [`ElasticController`](crate::elastic::ElasticController) decided on
//! the monitor tick (no event variants of its own — like weight updates
//! and flow aging, elasticity is manager work).
//!
//! The controller decides; the platform moves instances (`add_replica`,
//! `migrate_nf`, `retire_replica`); this module grows or resets the
//! engine-side per-NF state and the domain rosters to match, ending with
//! an immediate share recompute on every affected domain so no NF runs
//! on a stale weight until the next weight tick.

use super::Simulation;
use crate::elastic::ElasticAction;
use nfv_des::{Duration, SimTime};
use nfv_pkt::NfId;

impl Simulation {
    /// One controller check, and the action it returns, if any. Called
    /// from `do_monitor` every `check_period_ticks` monitor ticks when any
    /// elastic direction is enabled.
    pub(super) fn run_elastic(&mut self, now: SimTime) {
        let Some(action) = self.elastic.decide(&self.platform, &self.bp, &self.load) else {
            return;
        };
        match action {
            ElasticAction::ScaleOut { base, core } => self.spawn_replica(base, core, now),
            ElasticAction::Migrate { nf, from, to } => {
                self.platform.migrate_nf(nf, to, now);
                self.move_domain(nf.index(), from, to);
                // Marks, estimator history and watermark state are
                // per-placement artifacts; the new core re-derives them
                // from live signals within a few ticks.
                self.reset_nf_policy(nf, &[from, to], now);
            }
            ElasticAction::ScaleIn { replica } => {
                // Marks first: retire parks the task for good, so any
                // watermark state it holds must not outlive it (the same
                // rule as `kill_nf`, which a dead replica never revisits).
                // The reset's own clear is then a no-op. The replica keeps
                // its domain slot, as a crashed NF does.
                self.bp.clear_nf(now, replica);
                self.platform.retire_replica(replica, now);
                self.reset_nf_policy(replica, &[self.platform.core_of(replica)], now);
            }
        }
    }

    /// Deploy a replica of `base` on `core`: size its per-NF state as
    /// `prime` does for deployed NFs, and append it to the domain roster
    /// (a fresh NF id is the highest yet, so the roster stays in id
    /// order).
    fn spawn_replica(&mut self, base: NfId, core: usize, now: SimTime) {
        let idx = self.platform.add_replica(base, core, now).index();
        debug_assert_eq!(idx, self.platform.nfs.len() - 1);
        self.grow_nf(idx);
        self.domains[core].nfs.push(idx);
        self.domains[core].cpu_snapshot.push(Duration::ZERO);
        self.recompute_domain_shares(core, now);
    }

    /// Move NF `idx` between domain rosters, carrying its CPU-time
    /// snapshot (cumulative per task, so the per-second series stays
    /// correct across the move) and keeping both rosters in id order.
    fn move_domain(&mut self, idx: usize, from: usize, to: usize) {
        let slot = self.domains[from].nfs.binary_search(&idx);
        let slot = slot.expect("migrating NF not in its source domain");
        self.domains[from].nfs.remove(slot);
        let snap = self.domains[from].cpu_snapshot.remove(slot);
        let at = self.domains[to].nfs.binary_search(&idx).unwrap_err();
        self.domains[to].nfs.insert(at, idx);
        self.domains[to].cpu_snapshot.insert(at, snap);
    }
}
