//! # nfv-apps — a library of network function implementations
//!
//! The middlebox families NFV platforms host (and the paper's introduction
//! names): firewalls, NAT, deep packet inspection, monitors, traffic
//! policers and load balancers — implemented over the platform's
//! [`PacketHandler`](nfv_platform::PacketHandler) API. Each NF is a pure
//! state machine over packet descriptors: its *functional* behaviour lives
//! here, while its *temporal* cost is configured separately via
//! `NfSpec`/`CostModel`, mirroring how the paper separates what an NF does
//! from how many cycles it burns.
//!
//! ```
//! use nfv_apps::{Firewall, Rule, Verdict};
//! use nfv_platform::NfSpec;
//! use nfvnice::{Duration, SimConfig, Simulation};
//!
//! let mut sim = Simulation::new(SimConfig::default());
//! let fw = Firewall::new(vec![Rule::any(Verdict::Allow)], Verdict::Deny);
//! let nf = sim.add_nf_with_handler(NfSpec::new("fw", 0, 300), Box::new(fw));
//! let chain = sim.add_chain(&[nf]);
//! sim.add_udp(chain, 100_000.0, 64);
//! let report = sim.run(Duration::from_millis(20));
//! assert!(report.flow(0).delivered > 0);
//! ```

#![warn(missing_docs)]

pub mod dpi;
pub mod firewall;
pub mod lb;
pub mod monitor;
pub mod nat;
pub mod policer;

pub use dpi::{Dpi, DpiAction};
pub use firewall::{Firewall, Match, Prefix, Rule, Verdict};
pub use lb::LoadBalancer;
pub use monitor::{FlowMonitor, Sampler};
pub use nat::Nat;
pub use policer::TokenBucket;
