//! # nfv-pkt — packet substrate
//!
//! Models the data-plane machinery OpenNetVM gets from DPDK: a shared
//! packet mempool (descriptors are slab indices, zero-copy between NFs),
//! bounded descriptor rings whose enqueue reports post-enqueue occupancy
//! (the overload signal NFVnice's TX threads consume), an exact-match
//! 5-tuple flow table, and a NIC with a bounded hardware RX queue.
//! Per-flow state everywhere lives in chunked [`FlowColumn`]s, which grow
//! without copying.
//!
//! Nothing here allocates per packet on the hot path: a run of same-flow
//! packets is one slot in a slab that grows to the simulation's peak,
//! and rings move `u32` descriptor ids.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod column;
pub mod flowtable;
pub mod ids;
pub mod mempool;
pub mod nic;
pub mod packet;
pub mod pattern;
pub mod ring;

pub use column::{FlowColumn, FLOW_CHUNK};
pub use flowtable::{FlowAging, FlowEntry, FlowTable, FlowTableKind, FlowTableStats};
pub use ids::{ChainId, CoreId, FlowId, NfId, PktId};
pub use mempool::{Mempool, PacketRun};
pub use nic::{FrameRun, Nic, WireFrame};
pub use packet::{line_rate_pps, Ecn, FiveTuple, Packet, Proto};
pub use pattern::{IpPrefix, TuplePattern};
pub use ring::{Enqueue, Ring};
