//! Deterministic NF fault injection and failure recovery.
//!
//! Real NFV deployments lose NFs: processes segfault, spin in infinite
//! loops, or degrade under interference. NFVnice's manager must keep the
//! rest of the system healthy when that happens — in particular, a dead
//! bottleneck NF must not leave its chains throttled forever (backpressure
//! marks are cleared only by the marker draining below the LOW watermark,
//! which a dead NF never does).
//!
//! Faults are *scheduled*, not sampled: the plan
//! ([`FaultConfig::events`]) is a list of `(time, nf, kind)` triples
//! carried in [`SimConfig`](crate::SimConfig), so a faulted run is exactly
//! as deterministic as a healthy one. The three [`FaultKind`]s model the
//! common failure shapes: a crash, a stall (an infinite loop, caught by
//! the liveness [`Watchdog`] and turned into crash + restart) and a
//! transient slowdown.
//!
//! Recovery is manager policy: when enabled, a crashed (or watchdog-
//! killed) NF is restarted after [`FaultConfig::respawn_delay`], with its
//! load-estimator and ECN history reset so stale pre-crash medians don't
//! misallocate CPU shares to the fresh process.

use nfv_des::{Duration, SimTime};
use nfv_pkt::NfId;
use nfv_platform::{NfHealth, NfRuntime};

/// What goes wrong with an NF.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The NF process dies. Its packets are freed, its task parked, its
    /// backpressure marks cleared; chains through it shed at entry until
    /// it is restarted.
    Crash,
    /// The NF keeps running but processes nothing: it spins at full batch
    /// cost with zero progress while its RX ring fills. Cleared only by
    /// the liveness watchdog (which treats it as a crash).
    Stall,
    /// Transient degradation: per-packet cost is multiplied by `factor`
    /// for `duration`, then reverts.
    Slowdown {
        /// Cost multiplier (clamped to ≥ 1).
        factor: u64,
        /// How long the degradation lasts.
        duration: Duration,
    },
}

/// One scheduled fault: at `at`, `nf` suffers `kind`.
#[derive(Debug, Clone, Copy)]
pub struct FaultEvent {
    /// When the fault strikes (simulated time).
    pub at: SimTime,
    /// The victim NF.
    pub nf: NfId,
    /// What happens to it.
    pub kind: FaultKind,
}

/// The fault plan and the manager's recovery policy.
///
/// The default plan is empty with recovery on and the watchdog off:
/// a fault-free run is byte-identical to one built before this module
/// existed.
#[derive(Debug, Clone)]
pub struct FaultConfig {
    /// Scheduled faults (the deterministic fault plan).
    pub events: Vec<FaultEvent>,
    /// Restart dead NFs after `respawn_delay`. Off models a deployment
    /// with no process supervisor: the NF stays down for the rest of the
    /// run and its chains shed at entry.
    pub recovery: bool,
    /// Crash/detection → restarted-and-accepting-work delay (process
    /// respawn + huge-page remap + ring reattach).
    pub respawn_delay: Duration,
    /// Liveness watchdog: consecutive monitor ticks an NF may hold
    /// pending work without advancing its progress counter before it is
    /// declared hung and crash-restarted. `0` disables the watchdog.
    /// Blocked or deliberately-yielding NFs are never counted — only a
    /// runnable NF that fails to progress is suspect.
    pub stall_ticks: u32,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            events: Vec::new(),
            recovery: true,
            respawn_delay: Duration::from_millis(10),
            stall_ticks: 0,
        }
    }
}

impl FaultConfig {
    /// Add one fault to the plan (builder-style).
    pub fn with_fault(mut self, at: SimTime, nf: NfId, kind: FaultKind) -> Self {
        self.events.push(FaultEvent { at, nf, kind });
        self
    }
}

/// The manager's liveness watchdog, scanned on the monitor tick, and the
/// fault counters. A runnable NF holding pending work whose progress
/// counter stays frozen for [`FaultConfig::stall_ticks`] consecutive
/// scans is declared hung. Blocked or deliberately-yielding NFs are never
/// suspect — only one that should be making progress and isn't.
#[derive(Debug, Default)]
pub(crate) struct Watchdog {
    stall_ticks: u32,
    /// Per NF: (progress counter at the last scan, consecutive
    /// no-progress scans with pending work).
    table: Vec<(u64, u32)>,
    /// NF crashes applied (injected + watchdog-declared).
    pub(crate) crashes: u64,
    /// NF restarts performed by the recovery policy.
    pub(crate) restarts: u64,
    pub(crate) stalls_detected: u64,
}

impl Watchdog {
    /// A watchdog that declares an NF hung after `stall_ticks` frozen
    /// scans (`0` disables it).
    pub(crate) fn new(stall_ticks: u32) -> Self {
        Watchdog {
            stall_ticks,
            ..Watchdog::default()
        }
    }

    /// Track one more NF.
    pub(crate) fn grow(&mut self) {
        self.table.push((0, 0));
    }

    /// Restart NF `idx`'s count from its progress counter `processed`.
    pub(crate) fn rebase(&mut self, idx: usize, processed: u64) {
        self.table[idx] = (processed, 0);
    }

    /// Continue this tick's scan at NF index `from`: the next NF declared
    /// hung, or `None` once every NF is scanned. The hung NF's entry is
    /// left for the caller's kill to rebase.
    pub(crate) fn next_hung(&mut self, nfs: &[NfRuntime], from: usize) -> Option<NfId> {
        if self.stall_ticks == 0 {
            return None;
        }
        for (idx, nf) in nfs.iter().enumerate().skip(from) {
            let (last, streak) = self.table[idx];
            let suspect = nf.health != NfHealth::Down && nf.blocked.is_none() && !nf.yield_flag;
            if suspect && nf.processed == last && nf.pending() > 0 {
                if streak + 1 >= self.stall_ticks {
                    self.stalls_detected += 1;
                    return Some(NfId(idx as u32));
                }
                self.table[idx] = (last, streak + 1);
            } else {
                self.table[idx] = (nf.processed, 0);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_inert() {
        let c = FaultConfig::default();
        assert!(c.events.is_empty());
        assert!(c.recovery);
        assert_eq!(c.stall_ticks, 0, "watchdog is opt-in");
    }

    #[test]
    fn builder_accumulates_events() {
        let c = FaultConfig::default()
            .with_fault(SimTime::from_millis(5), NfId(2), FaultKind::Crash)
            .with_fault(
                SimTime::from_millis(9),
                NfId(0),
                FaultKind::Slowdown {
                    factor: 4,
                    duration: Duration::from_millis(2),
                },
            );
        assert_eq!(c.events.len(), 2);
        assert_eq!(c.events[0].nf, NfId(2));
        assert!(matches!(
            c.events[1].kind,
            FaultKind::Slowdown { factor: 4, .. }
        ));
    }
}
