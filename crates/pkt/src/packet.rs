//! Packet descriptors and flow keys.
//!
//! As in OpenNetVM, packets live once in a shared memory pool and only
//! fixed-size *descriptors* move between NF queues (zero-copy). The
//! descriptor carries the metadata the scheduling and backpressure planes
//! need: flow, chain, arrival and enqueue timestamps, ECN codepoint and a
//! cost class used by the variable-processing-cost experiments.

use crate::ids::{ChainId, FlowId};
use nfv_des::SimTime;

/// Transport protocol of a flow; determines whether it responds to
/// congestion signals (TCP backs off, UDP does not — §4.3.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Proto {
    /// Non-responsive datagram traffic.
    Udp,
    /// Responsive traffic with congestion control and optional ECN.
    Tcp,
}

/// ECN codepoint in the IP header (RFC 3168).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Ecn {
    /// Not ECN-capable transport.
    #[default]
    NotEct,
    /// ECN-capable, not marked.
    Ect0,
    /// Congestion experienced — set by the NF manager when the EWMA queue
    /// length crosses the marking threshold.
    Ce,
}

/// A classic 5-tuple identifying a flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FiveTuple {
    /// Source IPv4 address.
    pub src_ip: u32,
    /// Destination IPv4 address.
    pub dst_ip: u32,
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Transport protocol.
    pub proto: Proto,
}

impl FiveTuple {
    /// Convenience constructor for synthetic workloads: flow `n`, given
    /// protocol. Distinct `n` yield distinct tuples.
    pub fn synthetic(n: u32, proto: Proto) -> Self {
        FiveTuple {
            src_ip: 0x0a00_0000 | n,
            dst_ip: 0x0a01_0000 | n,
            src_port: 1024 + (n % 60000) as u16,
            dst_port: 9,
            proto,
        }
    }
}

/// Per-packet metadata (the "descriptor" that rides the rings).
#[derive(Debug, Clone, Copy)]
pub struct Packet {
    /// The packet's 5-tuple (header fields NFs may read and rewrite).
    pub tuple: FiveTuple,
    /// Owning flow.
    pub flow: FlowId,
    /// Service chain this packet follows.
    pub chain: ChainId,
    /// Wire size in bytes (64 B minimum-size frames in most experiments).
    pub size: u32,
    /// When the packet entered the system (NIC arrival).
    pub arrival: SimTime,
    /// When the packet was enqueued onto its *current* ring — the
    /// backpressure queuing-time threshold compares against this.
    pub enqueued_at: SimTime,
    /// How many NFs in the chain have already processed this packet.
    /// Non-zero at drop time means wasted work.
    pub hops_done: u8,
    /// ECN codepoint.
    pub ecn: Ecn,
    /// Sequence number assigned by the traffic source (used by the TCP
    /// model to correlate deliveries/drops).
    pub seq: u64,
    /// Cost class for variable per-packet processing cost experiments
    /// (Fig 10): index into an NF's cost table.
    pub cost_class: u8,
}

impl Default for Packet {
    /// A placeholder packet (flow 0, chain 0, minimum size, time zero) —
    /// used to pre-fill mempool slots.
    fn default() -> Self {
        Packet::new(FlowId(0), ChainId(0), Packet::MIN_SIZE, SimTime::ZERO)
    }
}

impl Packet {
    /// Minimum Ethernet frame size used by the paper's line-rate tests.
    pub const MIN_SIZE: u32 = 64;

    /// A fresh packet arriving at `now` for `flow` on `chain`.
    pub fn new(flow: FlowId, chain: ChainId, size: u32, now: SimTime) -> Self {
        Packet {
            tuple: FiveTuple::synthetic(flow.0, Proto::Udp),
            flow,
            chain,
            size,
            arrival: now,
            enqueued_at: now,
            hops_done: 0,
            ecn: Ecn::NotEct,
            seq: 0,
            cost_class: 0,
        }
    }
}

/// Line-rate packet arithmetic: packets per second achievable for a given
/// frame size on a link of `gbps` gigabits/s, accounting for the 20 B
/// Ethernet preamble + inter-frame gap (how 10 G line rate becomes the
/// familiar 14.88 Mpps at 64 B).
pub fn line_rate_pps(gbps: f64, frame_size: u32) -> f64 {
    let bits_per_frame = (frame_size as f64 + 20.0) * 8.0;
    gbps * 1e9 / bits_per_frame
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_tuples_distinct() {
        let a = FiveTuple::synthetic(1, Proto::Udp);
        let b = FiveTuple::synthetic(2, Proto::Udp);
        let c = FiveTuple::synthetic(1, Proto::Tcp);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, FiveTuple::synthetic(1, Proto::Udp));
    }

    #[test]
    fn line_rate_64b_is_14_88mpps() {
        let pps = line_rate_pps(10.0, 64);
        assert!((pps - 14_880_952.0).abs() < 1000.0, "pps={pps}");
    }

    #[test]
    fn line_rate_decreases_with_frame_size() {
        assert!(line_rate_pps(10.0, 1024) < line_rate_pps(10.0, 64));
    }

    #[test]
    fn new_packet_defaults() {
        let p = Packet::new(FlowId(1), ChainId(2), 64, SimTime::from_micros(5));
        assert_eq!(p.hops_done, 0);
        assert_eq!(p.ecn, Ecn::NotEct);
        assert_eq!(p.arrival, p.enqueued_at);
    }
}
