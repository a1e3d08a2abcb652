//! Top-level simulation configuration.

use crate::backpressure::BackpressureConfig;
use crate::ecn::EcnConfig;
use crate::elastic::ElasticConfig;
use crate::faults::FaultConfig;
use crate::load::LoadConfig;
use nfv_des::Duration;
pub use nfv_des::QueueKind;
pub use nfv_des::SanitizerConfig;
pub use nfv_platform::PlatformConfig;

/// Which NFVnice subsystems are active. The paper's Fig 7/10/11 evaluate
/// four variants: Default (none), CGroup (weights only), BKPR
/// (backpressure only), and full NFVnice.
#[derive(Debug, Clone, Copy)]
pub struct NfvniceConfig {
    /// Rate-cost proportional cgroup weight assignment.
    pub cgroup_weights: bool,
    /// Chain-aware backpressure with selective early discard.
    pub backpressure: bool,
    /// ECN marking for responsive flows.
    pub ecn: bool,
    /// Watermarks and queuing-time threshold.
    pub bp: BackpressureConfig,
    /// Load estimator tunables.
    pub load: LoadConfig,
    /// ECN marker tunables.
    pub ecn_cfg: EcnConfig,
}

impl NfvniceConfig {
    /// Everything on (the paper's "NFVnice" bars).
    pub fn full() -> Self {
        NfvniceConfig {
            cgroup_weights: true,
            backpressure: true,
            ecn: true,
            bp: BackpressureConfig::default(),
            load: LoadConfig::default(),
            ecn_cfg: EcnConfig::default(),
        }
    }

    /// Everything off (the "Default" baseline: vanilla kernel scheduler,
    /// wake-on-packet only).
    pub fn off() -> Self {
        NfvniceConfig {
            cgroup_weights: false,
            backpressure: false,
            ecn: false,
            bp: BackpressureConfig::default(),
            load: LoadConfig::default(),
            ecn_cfg: EcnConfig::default(),
        }
    }

    /// Only cgroup weight assignment (the "CGroup" bars).
    pub fn cgroups_only() -> Self {
        NfvniceConfig {
            cgroup_weights: true,
            backpressure: false,
            ecn: false,
            ..Self::off()
        }
    }

    /// Only backpressure (the "Only BKPR" bars).
    pub fn backpressure_only() -> Self {
        NfvniceConfig {
            cgroup_weights: false,
            backpressure: true,
            ecn: false,
            ..Self::off()
        }
    }

    /// Short label for experiment tables.
    pub fn label(&self) -> &'static str {
        match (self.cgroup_weights, self.backpressure) {
            (false, false) => "Default",
            (true, false) => "CGroup",
            (false, true) => "OnlyBKPR",
            (true, true) => "NFVnice",
        }
    }
}

/// Observability switches: structured tracing and monitor-tick metrics.
///
/// Both default to off, where recording is a single branch on a `None`
/// handle — experiments pay nothing unless they opt in. Recording never
/// feeds back into the simulation, so the event-trace digest
/// ([`Report::trace_digest`](crate::Report)) is identical with and without
/// observability.
#[derive(Debug, Clone, Copy, Default)]
pub struct ObsConfig {
    /// Record structured trace events (throttle transitions, chain
    /// mark/clear, share writes, NF sleep/wake/yield, drops, ECN marks).
    pub trace: bool,
    /// Sample per-NF / per-chain time series on every monitor tick.
    pub metrics: bool,
}

impl ObsConfig {
    /// Everything on.
    pub fn all() -> Self {
        ObsConfig {
            trace: true,
            metrics: true,
        }
    }
}

/// Full simulation configuration: platform + NFVnice + driver periods.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Platform (cores, scheduler policy, mempool, batch size...).
    pub platform: PlatformConfig,
    /// NFVnice feature set.
    pub nfvnice: NfvniceConfig,
    /// Traffic generator poll period.
    pub traffic_poll: Duration,
    /// Manager RX thread poll period.
    pub rx_poll: Duration,
    /// Manager TX thread poll period.
    pub tx_poll: Duration,
    /// Wakeup thread scan period.
    pub wakeup_period: Duration,
    /// RNG seed (whole runs are deterministic given the seed).
    pub seed: u64,
    /// Runtime invariant auditing (off by default; the event-trace digest
    /// in [`Report::trace_digest`](crate::Report) is maintained regardless).
    pub sanitizer: SanitizerConfig,
    /// Structured tracing and metrics recording (off by default).
    pub obs: ObsConfig,
    /// Deterministic fault plan + recovery policy (empty/inert by
    /// default: a run without faults is byte-identical to one built
    /// before fault injection existed).
    pub faults: FaultConfig,
    /// Elastic scaling: bottleneck scale-out, cross-core migration,
    /// hysteresis scale-in (inert by default — same byte-identity
    /// contract as `faults`).
    pub elastic: ElasticConfig,
    /// Event-queue backend. Defaults to the build's default
    /// ([`QueueKind::default_kind`]: the arena timer wheel, or the binary
    /// heap under the `heap-queue` feature); both produce identical event
    /// streams, so this only selects the differential oracle.
    pub queue: QueueKind,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            platform: PlatformConfig::default(),
            nfvnice: NfvniceConfig::full(),
            traffic_poll: Duration::from_micros(20),
            rx_poll: Duration::from_micros(10),
            tx_poll: Duration::from_micros(10),
            wakeup_period: Duration::from_micros(10),
            seed: 0x4e46_5675,
            sanitizer: SanitizerConfig::default(),
            obs: ObsConfig::default(),
            faults: FaultConfig::default(),
            elastic: ElasticConfig::default(),
            queue: QueueKind::default_kind(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_labels() {
        assert_eq!(NfvniceConfig::off().label(), "Default");
        assert_eq!(NfvniceConfig::cgroups_only().label(), "CGroup");
        assert_eq!(NfvniceConfig::backpressure_only().label(), "OnlyBKPR");
        assert_eq!(NfvniceConfig::full().label(), "NFVnice");
    }

    #[test]
    fn full_enables_all() {
        let c = NfvniceConfig::full();
        assert!(c.cgroup_weights && c.backpressure && c.ecn);
        let o = NfvniceConfig::off();
        assert!(!o.cgroup_weights && !o.backpressure && !o.ecn);
    }
}
