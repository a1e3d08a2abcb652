//! # nfv-traffic — workload generators
//!
//! Stand-ins for the paper's traffic tools: [`CbrFlow`] models MoonGen /
//! Pktgen-DPDK constant-rate (or Poisson) UDP flows with on/off windows and
//! per-packet cost classes; [`TcpSource`] models an iperf3-style responsive
//! flow with Reno AIMD dynamics and ECN response. Both are pure state
//! machines polled/fed by the platform's event loop, keeping the crate free
//! of any simulation-scheduling concerns.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cbr;
pub mod scenarios;
pub mod tcp;

pub use cbr::{ArrivalProcess, CbrFlow, CostClassGen};
pub use scenarios::{
    diurnal_windows, heavy_tail_flows, heavy_tail_rates, sweep_index, tenant, ParetoShape,
    SweepSource, TenantSet, TenantSpec, TENANT_SPAN,
};
pub use tcp::{Feedback, TcpSource};
