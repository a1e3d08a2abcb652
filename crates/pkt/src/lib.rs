//! # nfv-pkt — packet substrate
//!
//! Models the data-plane machinery OpenNetVM gets from DPDK: a shared
//! packet mempool (descriptors are slab indices, zero-copy between NFs),
//! bounded descriptor rings whose enqueue reports post-enqueue occupancy
//! (the overload signal NFVnice's TX threads consume), an exact-match
//! 5-tuple flow table, and a NIC with a bounded hardware RX queue.
//!
//! Nothing here allocates per packet on the hot path: packets are slots in
//! a pre-sized slab, and rings move `u32` descriptor ids.

#![warn(missing_docs)]

pub mod flowtable;
pub mod ids;
pub mod mempool;
pub mod nic;
pub mod packet;
pub mod pattern;
pub mod ring;

pub use flowtable::{BurstRun, FlowAging, FlowEntry, FlowTable, FlowTableKind, FlowTableStats};
pub use ids::{ChainId, CoreId, FlowId, NfId, PktId};
pub use mempool::Mempool;
pub use nic::{Nic, WireFrame};
pub use packet::{line_rate_pps, Ecn, FiveTuple, Packet, Proto};
pub use pattern::{IpPrefix, TuplePattern};
pub use ring::{Enqueue, Ring};
