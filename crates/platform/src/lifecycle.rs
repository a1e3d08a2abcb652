//! NF lifecycle mechanism: crash, restart and stall, and the elastic
//! instance changes (replica spawn, migration, retire). Resetting policy
//! state after any of them is the engine's job.

use super::Platform;
use crate::nf::{BlockReason, ForwardAll, NfHealth};
use crate::stats::TcpEvent;
use nfv_des::{Duration, SimTime};
use nfv_obs::{DropCause, TraceKind};
use nfv_pkt::{ChainId, FlowId, NfId, PktId};

impl Platform {
    /// The first dead NF on `chain`'s path, if any. O(1) in fault-free
    /// runs (no NF is down), O(path length) during an outage.
    pub fn chain_down_nf(&self, chain: ChainId) -> Option<NfId> {
        if self.down_nfs == 0 {
            return None;
        }
        self.chains
            .path(chain)
            .iter()
            .copied()
            .find(|nf| self.nfs[nf.index()].health == NfHealth::Down)
    }

    /// True when at least one NF is dead.
    pub fn any_nf_down(&self) -> bool {
        self.down_nfs > 0
    }

    /// Kill an NF: every packet it holds (RX/TX rings, outbox, in-flight
    /// batch) is freed back to the mempool as an `NfDown` drop, its
    /// control state is cleared, and its scheduler task is parked. TCP
    /// loss feedback for drained segments is appended to `tcp_out`.
    ///
    /// If the NF is mid-batch on its core (task `Running`, a `BatchDone`
    /// in flight), the task cannot be parked here; the engine blocks it
    /// at the batch boundary, where `finish_batch` is skipped because the
    /// batch was already freed. Returns the number of packets freed.
    pub fn crash_nf(&mut self, nf_id: NfId, now: SimTime, tcp_out: &mut Vec<TcpEvent>) -> usize {
        let idx = nf_id.index();
        debug_assert!(self.nfs[idx].health != NfHealth::Down, "crash of dead NF");
        self.take_down(idx);
        self.down_nfs += 1;
        let nf = &mut self.nfs[idx];
        nf.current_batch = None;
        nf.cost_factor = 1;
        // nfv-lint: allow(hot-alloc) -- crash drain runs once per injected fault
        let mut ids: Vec<PktId> = Vec::new();
        nf.rx.drain_all(&mut ids);
        nf.tx.drain_all(&mut ids);
        ids.extend(nf.outbox.drain(..));
        ids.append(&mut nf.in_progress);
        let mut freed = 0;
        for id in ids {
            let run = self.mempool.get(id);
            self.mempool.free(id);
            freed += run.count as usize;
            self.drop_run(now, &run, DropCause::NfDown, nf_id, false, tcp_out);
        }
        self.trace.record(now, TraceKind::NfCrash { nf: nf_id.0 });
        freed
    }

    /// Take NF `idx` out of service, the teardown a crash and a scale-in
    /// share: `Down`, unblocked, no yield or pending work, task parked.
    fn take_down(&mut self, idx: usize) {
        let nf = &mut self.nfs[idx];
        nf.health = NfHealth::Down;
        nf.blocked = None;
        nf.yield_flag = false;
        nf.pending_by_chain.clear();
        let task = nf.task;
        self.sched.park(task);
    }

    /// Respawn a dead NF: the process comes back with empty rings,
    /// blocked on its (empty) RX ring until the wakeup thread sees new
    /// pending work. The scheduler task is re-armed in place, keeping the
    /// task-id/NF-id lockstep invariant.
    pub fn restart_nf(&mut self, nf_id: NfId, now: SimTime) {
        let idx = nf_id.index();
        debug_assert_eq!(self.nfs[idx].health, NfHealth::Down, "restart of live NF");
        self.nfs[idx].health = NfHealth::Up;
        self.down_nfs -= 1;
        self.nfs[idx].cost_factor = 1;
        self.nfs[idx].last_ppp = Duration::ZERO;
        self.nfs[idx].blocked = Some(BlockReason::EmptyRx);
        self.trace.record(now, TraceKind::NfRestart { nf: nf_id.0 });
    }

    /// Wedge an NF: it stays schedulable but stops making progress (see
    /// [`Platform::plan_batch`]'s spin path). The caller wakes it if it
    /// was blocked, so the wedged process visibly burns its core.
    pub fn stall_nf(&mut self, nf_id: NfId) {
        let nf = &mut self.nfs[nf_id.index()];
        debug_assert_eq!(nf.health, NfHealth::Up, "stall of non-running NF");
        nf.health = NfHealth::Stalled;
    }

    /// The base NF an instance stands in for: itself for ordinary NFs,
    /// its `replica_of` for scale-out replicas. Chain-position logic
    /// (suppression, audits) always compares canonical ids.
    pub fn canonical_of(&self, nf: NfId) -> NfId {
        self.nfs[nf.index()].replica_of.unwrap_or(nf)
    }

    /// True when `nf` is a scale-out replica (never named on a chain).
    pub fn is_replica(&self, nf: NfId) -> bool {
        self.nfs[nf.index()].replica_of.is_some()
    }

    /// Live replicas of `base`, in spawn order (empty for unreplicated
    /// NFs).
    pub fn replica_group(&self, base: NfId) -> &[NfId] {
        self.replicas.group(base)
    }

    /// Base NFs that currently have at least one live replica.
    pub fn replicated_bases(&self) -> impl Iterator<Item = NfId> + '_ {
        self.replicas.bases()
    }

    /// Spawn a replica of `of` on `core`: a fresh NF runtime with the
    /// base's spec (fresh rings, default forward handler — per-flow state
    /// never splits because established flows stay pinned to their
    /// original instance) and a fresh scheduler task, registered at the
    /// end of the NF table so the task-id/NF-id lockstep invariant holds.
    /// The first spawn for a base records the established-flow floor:
    /// every flow minted before it stays on the base.
    pub fn add_replica(&mut self, of: NfId, core: usize, now: SimTime) -> NfId {
        assert!(core < self.cfg.nf_cores, "replica pinned to missing core");
        assert!(
            self.nfs[of.index()].replica_of.is_none(),
            "replica of a replica"
        );
        let nth = self.replica_group(of).len() + 1;
        let mut spec = self.nfs[of.index()].spec.clone();
        spec.core = core;
        spec.name = format!("{}~{nth}", spec.name); // nfv-lint: allow(hot-alloc) -- one-time per scale-out action, not per packet
        let id = self.add_nf_with_handler(spec, Box::new(ForwardAll)); // nfv-lint: allow(hot-alloc) -- one-time per scale-out action, not per packet
        self.trivial_handler[id.index()] = true;
        self.nfs[id.index()].replica_of = Some(of);
        self.replicas.add(of, id, self.stats.flows.len() as u32);
        self.trace.record(
            now,
            TraceKind::NfScaleOut {
                nf: of.0,
                replica: id.0,
                core: core as u32,
            },
        );
        id
    }

    /// Re-pin an off-CPU NF to `to_core`: park (a no-op if already
    /// blocked), re-home the scheduler task, and leave the NF blocked on
    /// its rings — which move with it untouched — until the wakeup thread
    /// sees its pending work. The caller must not call this for the task
    /// currently running on its core (the engine defers to a batch
    /// boundary); rings, estimator and shares are the engine's to fix up.
    pub fn migrate_nf(&mut self, nf_id: NfId, to_core: usize, now: SimTime) {
        assert!(to_core < self.cfg.nf_cores, "migration to missing core");
        let idx = nf_id.index();
        let from = self.nfs[idx].spec.core;
        debug_assert_ne!(from, to_core, "migration to the same core");
        let task = self.nfs[idx].task;
        let parked = self.sched.park(task);
        debug_assert!(parked, "migrate_nf of a Running task");
        self.sched.rehome_task(task, to_core);
        self.nfs[idx].spec.core = to_core;
        // Blocked-on-empty-RX is the wakeup thread's cue to re-admit the
        // NF (on its new core) as soon as it has pending packets.
        self.nfs[idx].blocked = Some(BlockReason::EmptyRx);
        self.nfs[idx].yield_flag = false;
        self.trace.record(
            now,
            TraceKind::NfMigrate {
                nf: nf_id.0,
                from: from as u32,
                to: to_core as u32,
            },
        );
    }

    /// Retire a drained replica (scale-in): remove it from its group so
    /// no further packets route to it, drop its flow pins (those flows
    /// re-shard over the remaining group), and park its task for good.
    /// The instance must be empty — the elastic controller only retires
    /// replicas whose rings and batch are idle, so nothing is dropped.
    ///
    /// The runtime slot is marked `Down` but deliberately *not* counted
    /// in `down_nfs`: replicas never appear on chain paths, so the
    /// dead-chain scan has nothing to find and fault-free runs keep their
    /// O(1) short-circuit.
    pub fn retire_replica(&mut self, replica: NfId, now: SimTime) {
        let idx = replica.index();
        let base = self.nfs[idx].replica_of.expect("retire of a base NF");
        debug_assert!(
            self.nfs[idx].rx.is_empty()
                && self.nfs[idx].tx.is_empty()
                && self.nfs[idx].outbox.is_empty()
                && self.nfs[idx].in_progress.is_empty(),
            "retire of a non-drained replica"
        );
        self.take_down(idx);
        self.replicas.remove(base, replica);
        self.trace.record(
            now,
            TraceKind::NfScaleIn {
                nf: base.0,
                replica: replica.0,
            },
        );
    }

    /// Route a packet of `flow` bound for chain hop `target` (always a
    /// base NF) to an instance of the target's replica group (see
    /// [`Replicas`](super::replicas::Replicas)); without replicas, the
    /// base itself.
    #[inline]
    pub fn resolve_instance(&mut self, target: NfId, flow: FlowId) -> NfId {
        // Fast path kept inlinable: replica-free runs (the default) pay
        // one emptiness branch per resolution, not an outlined call.
        if self.replicas.is_empty() {
            return target;
        }
        self.replicas
            .resolve_instance_sharded(target, flow, &self.nfs)
    }
}
