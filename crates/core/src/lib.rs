//! # nfvnice — dynamic backpressure and scheduling for NFV service chains
//!
//! A from-scratch Rust reproduction of **NFVnice** (Kulkarni et al.,
//! SIGCOMM 2017): a user-space NF scheduling and service-chain management
//! framework providing rate-cost proportional fairness, chain-aware
//! backpressure with selective early discard, ECN marking for responsive
//! flows, and efficient asynchronous storage I/O — all without kernel
//! modifications, by steering stock OS schedulers (CFS, CFS-batch, RR)
//! through cgroup CPU shares and semaphore-based wakeups.
//!
//! Because the original runs on DPDK + Linux + real NICs, this crate drives
//! a deterministic discrete-event simulation of that whole substrate (see
//! the workspace's `nfv-des`, `nfv-pkt`, `nfv-sched`, `nfv-traffic`,
//! `nfv-io` and `nfv-platform` crates); the NFVnice logic itself — the
//! watermark state machine, the load estimator and weight computation, the
//! wakeup classification, ECN — is implemented here exactly as the paper
//! describes.
//!
//! ## Quickstart
//!
//! ```
//! use nfvnice::{NfSpec, SimConfig, Simulation};
//! use nfv_des::Duration;
//!
//! let mut cfg = SimConfig::default();
//! cfg.platform.nf_cores = 1;
//! let mut sim = Simulation::new(cfg);
//! // A 3-NF chain with heterogeneous costs sharing one core (the paper's
//! // canonical Low/Med/High setup).
//! let low = sim.add_nf(NfSpec::new("low", 0, 120));
//! let med = sim.add_nf(NfSpec::new("med", 0, 270));
//! let high = sim.add_nf(NfSpec::new("high", 0, 550));
//! let chain = sim.add_chain(&[low, med, high]);
//! sim.add_udp(chain, 1_000_000.0, 64);
//! let report = sim.run(Duration::from_millis(50));
//! assert!(report.flow(0).delivered > 0);
//! ```

#![warn(missing_docs)]

pub mod backpressure;
pub mod config;
pub mod ecn;
pub mod elastic;
pub mod engine;
pub mod faults;
pub mod invariants;
pub mod libnf;
pub mod load;
pub mod report;

pub use backpressure::{Backpressure, BackpressureConfig, BpState};
pub use config::{NfvniceConfig, ObsConfig, SimConfig};
pub use ecn::{EcnConfig, EcnMarker};
pub use elastic::ElasticConfig;
pub use engine::{Action, Simulation};
pub use faults::{FaultConfig, FaultEvent, FaultKind};
pub use invariants::{conservation_ledger, packets_conserved, within_pct, ConservationLedger};
pub use load::{compute_shares, LoadConfig, LoadMonitor};
pub use report::{ChainReport, FlowReport, FlowReports, NfReport, Report, Series};

// Re-export the pieces users need to assemble experiments without naming
// every substrate crate.
pub use nfv_des::{
    CpuFreq, Duration, QueueKind, QueueStats, Sanitizer, SanitizerConfig, SimRng, SimTime,
};
pub use nfv_obs::{
    trace_to_csv, trace_to_jsonl, trace_to_jsonl_into, DropCause, MetricsRecorder, SleepReason,
    TraceEvent, TraceKind, TraceSink,
};
pub use nfv_pkt::{
    ChainId, FiveTuple, FlowAging, FlowId, FlowTableKind, FlowTableStats, IpPrefix, NfId, Packet,
    Proto, TuplePattern,
};
pub use nfv_platform::{
    BlockReason, CostModel, IoMode, NfAction, NfIoSpec, NfSpec, PacketHandler, PlatformConfig,
};
pub use nfv_sched::{CfsParams, Policy, SchedBackend, SLO_DEFAULT_BUDGET};
pub use nfv_traffic::{
    diurnal_windows, heavy_tail_flows, heavy_tail_rates, sweep_index, tenant, CbrFlow,
    CostClassGen, ParetoShape, SweepSource, TcpSource, TenantSet, TenantSpec, TENANT_SPAN,
};
