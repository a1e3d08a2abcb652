//! Replica routing: which instance of a scale-out group serves a flow.

use crate::nf::{NfHealth, NfRuntime};
use nfv_pkt::{FlowId, NfId};
use std::collections::BTreeMap;

/// The replica router of elastic scale-out: the live replica groups, the
/// flows each group keeps on its base, and the instance each younger flow
/// was sharded to.
#[derive(Debug, Default)]
pub(crate) struct Replicas {
    /// Live replica instances per base NF, in spawn order.
    replicas_of: BTreeMap<NfId, Vec<NfId>>,
    /// Per replica group: flows minted *before* the first replica existed
    /// (`flow.0 < floor`) stay pinned to the base instance, so per-flow
    /// state never splits mid-flow. Only flows classified after scale-out
    /// are RSS-sharded.
    replica_floor: BTreeMap<NfId, u32>,
    /// RSS consistency across group-size changes: the instance a (post-
    /// floor) flow was first sharded to, pinned for the flow's lifetime.
    /// Pins to a retired replica are dropped at scale-in; those flows
    /// re-shard over the remaining group on their next packet.
    flow_pins: BTreeMap<(NfId, FlowId), NfId>,
}

impl Replicas {
    /// No replica is live: every flow resolves to the NF its chain names.
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.replicas_of.is_empty()
    }

    /// Live replicas of `base`, in spawn order.
    pub(crate) fn group(&self, base: NfId) -> &[NfId] {
        self.replicas_of.get(&base).map_or(&[], |g| g.as_slice())
    }

    /// Base NFs with at least one live replica.
    pub(crate) fn bases(&self) -> impl Iterator<Item = NfId> + '_ {
        self.replicas_of.keys().copied()
    }

    /// Join `replica` to `base`'s group. The group's first replica records
    /// the established-flow floor: `flows` minted so far stay on the base.
    pub(crate) fn add(&mut self, base: NfId, replica: NfId, flows: u32) {
        self.replica_floor.entry(base).or_insert(flows);
        self.replicas_of.entry(base).or_default().push(replica);
    }

    /// Unroute a retired `replica` of `base` and drop its flow pins.
    pub(crate) fn remove(&mut self, base: NfId, replica: NfId) {
        let group = self.replicas_of.get_mut(&base).expect("orphan replica");
        group.retain(|&r| r != replica);
        if group.is_empty() {
            self.replicas_of.remove(&base);
            self.replica_floor.remove(&base);
        }
        self.flow_pins.retain(|_, &mut inst| inst != replica);
    }

    /// The pins, for tests.
    #[cfg(test)]
    pub(crate) fn pins(&self) -> &BTreeMap<(NfId, FlowId), NfId> {
        &self.flow_pins
    }

    /// Replica-sharding slow path of
    /// [`Platform::resolve_instance`](crate::Platform::resolve_instance):
    ///
    /// - flows older than the group (minted before the first replica
    ///   existed) → the base, always: per-flow state never splits;
    /// - younger flows → RSS-style tuple-hash modulo the instance count,
    ///   pinned on first resolution so a later group-size change cannot
    ///   re-shard an active flow;
    /// - a pin to an instance that has since died falls back to the base
    ///   (without re-pinning, so the instance resumes service on respawn).
    pub(crate) fn resolve_instance_sharded(
        &mut self,
        target: NfId,
        flow: FlowId,
        nfs: &[NfRuntime],
    ) -> NfId {
        let Some(group) = self.replicas_of.get(&target) else {
            return target;
        };
        if flow.0 < self.replica_floor[&target] {
            return target;
        }
        let inst = match self.flow_pins.get(&(target, flow)) {
            Some(&pinned) => pinned,
            None => {
                let n = group.len() + 1;
                let shard = Self::rss_hash(flow) % n as u64;
                let inst = if shard == 0 {
                    target
                } else {
                    group[shard as usize - 1]
                };
                self.flow_pins.insert((target, flow), inst);
                inst
            }
        };
        if nfs[inst.index()].health == NfHealth::Down {
            return target;
        }
        inst
    }

    /// FNV-1a over the flow key — the sim's stand-in for an RSS tuple
    /// hash (a flow id is minted per distinct 5-tuple). Cheap,
    /// deterministic, and spreads consecutive ids across shards.
    fn rss_hash(flow: FlowId) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in flow.0.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
        h
    }
}
