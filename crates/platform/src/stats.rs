//! Platform-wide statistics and the TCP feedback channel.

use nfv_des::{Duration, DurationHistogram, RateMeter};
use nfv_pkt::{ChainId, FlowId, NfId};

/// Where a packet died. Locations early in the pipeline wasted no work;
/// drops at a downstream NF's full ring wasted the processing of every NF
/// the packet already traversed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropLocation {
    /// NIC hardware RX queue overflowed.
    NicOverflow,
    /// No flow-table rule matched.
    Unclassified,
    /// Shared mempool exhausted.
    MempoolExhausted,
    /// NFVnice selective early discard at the chain entry (throttled).
    EntryThrottle,
    /// An NF's RX ring was full.
    RingFull(NfId),
    /// The NF's handler decided to drop (functional drop).
    Handler(NfId),
    /// The NF is dead: freed by its crash drain, or shed at entry /
    /// forwarding because the packet's chain routes through it.
    NfDown(NfId),
}

/// Congestion feedback destined for a responsive (TCP) source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpEvent {
    /// The flow the event belongs to.
    pub flow: FlowId,
    /// Sequence number of the segment.
    pub seq: u64,
    /// What happened to it.
    pub kind: TcpEventKind,
}

/// Outcome of a TCP segment inside the box.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpEventKind {
    /// Exited the chain; `ce` reports an ECN congestion-experienced mark.
    Delivered {
        /// ECN CE mark observed.
        ce: bool,
    },
    /// Dropped somewhere inside the box.
    Dropped,
}

/// Heavyweight per-flow measurement state: rate meters plus the latency
/// histogram (~4 KB of buckets). Kept in a side table,
/// [`PlatformStats::flow_detail`], that only detailed platforms fill
/// (`PlatformConfig::flow_detail`), so million-flow runs keep per-flow
/// accounting at the 32-byte [`FlowStats`] counters.
#[derive(Debug, Default)]
pub struct FlowDetail {
    /// Per-second delivered packet rate.
    pub pps_meter: RateMeter,
    /// Per-second delivered bit rate ÷ 8 (bytes/s meter).
    pub bytes_meter: RateMeter,
    /// End-to-end latency (NIC arrival → wire exit) of delivered packets.
    pub latency: DurationHistogram,
}

/// Per-flow delivery counters: a plain 32-byte record, maintained for
/// every flow whatever the detail setting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowStats {
    /// Packets that exited the chain.
    pub delivered: u64,
    /// Bytes that exited the chain.
    pub delivered_bytes: u64,
    /// Packets dropped anywhere inside the box.
    pub dropped: u64,
    /// Packets discarded by admission control at chain entry.
    pub entry_drops: u64,
}

/// Per-chain delivery accounting.
#[derive(Debug, Default)]
pub struct ChainStats {
    /// Packets that completed the full chain.
    pub delivered: u64,
    /// Packets discarded by admission control at entry.
    pub entry_drops: u64,
    /// Per-second completed-packet rate.
    pub pps_meter: RateMeter,
    /// End-to-end latency (NIC arrival → wire exit) of delivered packets
    /// — the distribution behind the per-chain p50/p99/p999 columns.
    pub latency: DurationHistogram,
}

/// Global counters not attributable to one flow.
#[derive(Debug, Default)]
pub struct PlatformStats {
    /// Frames lost in NIC hardware.
    pub nic_overflow: u64,
    /// Frames with no flow rule.
    pub unclassified: u64,
    /// Frames lost to mempool exhaustion.
    pub mempool_fail: u64,
    /// Packets discarded by entry admission (all chains).
    pub entry_throttle_drops: u64,
    /// Packets lost to dead NFs (crash drains + shedding for down chains).
    pub nf_down_drops: u64,
    /// RX-dequeue accounting desyncs (a packet left a ring whose chain had
    /// no pending count). Surfaced by the sanitizer as an invariant
    /// violation instead of a mid-sim panic.
    pub pending_desync: u64,
    /// Running totals of the per-flow `delivered`/`dropped` counters —
    /// maintained on each delivery/drop so the packet-conservation ledger
    /// is O(1) even with a million flows.
    pub delivered_total: u64,
    /// See [`PlatformStats::delivered_total`].
    pub dropped_total: u64,
    /// Per-flow counters, indexed by `FlowId`.
    pub flows: Vec<FlowStats>,
    /// Per-flow meters and latency histograms, indexed by `FlowId`: as
    /// long as [`PlatformStats::flows`] on a detailed platform, empty on
    /// a compact one.
    pub flow_detail: Vec<FlowDetail>,
    /// Per-chain stats, indexed by `ChainId`.
    pub chains: Vec<ChainStats>,
}

impl PlatformStats {
    /// Record a delivery for `flow` on `chain` with end-to-end `latency`.
    pub fn delivered(&mut self, flow: FlowId, chain: ChainId, bytes: u32, latency: Duration) {
        self.delivered_total += 1;
        let f = &mut self.flows[flow.index()];
        f.delivered += 1;
        f.delivered_bytes += bytes as u64;
        if let Some(d) = self.flow_detail.get_mut(flow.index()) {
            d.pps_meter.add(1);
            d.bytes_meter.add(bytes as u64);
            d.latency.record(latency);
        }
        let c = &mut self.chains[chain.index()];
        c.delivered += 1;
        c.pps_meter.add(1);
        c.latency.record(latency);
    }

    /// Record an in-box drop for `flow` (and entry bookkeeping when the
    /// location is the chain entry).
    pub fn dropped(&mut self, flow: FlowId, chain: ChainId, loc: DropLocation) {
        self.dropped_n(flow, chain, loc, 1);
    }

    /// Record `n` drops of `flow` at `loc`: the same counters as `n`
    /// [`PlatformStats::dropped`] calls.
    pub fn dropped_n(&mut self, flow: FlowId, chain: ChainId, loc: DropLocation, n: u64) {
        self.dropped_total += n;
        self.flows[flow.index()].dropped += n;
        if loc == DropLocation::EntryThrottle {
            self.flows[flow.index()].entry_drops += n;
            self.chains[chain.index()].entry_drops += n;
            self.entry_throttle_drops += n;
        }
        if matches!(loc, DropLocation::NfDown(_)) {
            self.nf_down_drops += n;
        }
    }

    /// Close the per-second measurement interval on every meter.
    pub fn roll(&mut self, now: nfv_des::SimTime) {
        for d in &mut self.flow_detail {
            d.pps_meter.roll(now);
            d.bytes_meter.roll(now);
        }
        for c in &mut self.chains {
            c.pps_meter.roll(now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfv_des::SimTime;

    /// Stats for one flow on one chain, with or without the detail side table.
    fn one_flow(detail: bool) -> PlatformStats {
        let mut s = PlatformStats::default();
        s.flows.push(FlowStats::default());
        if detail {
            s.flow_detail.push(FlowDetail::default());
        }
        s.chains.push(ChainStats::default());
        s
    }

    #[test]
    fn delivery_updates_flow_and_chain() {
        let mut s = one_flow(true);
        s.delivered(FlowId(0), ChainId(0), 64, Duration::from_micros(5));
        s.delivered(FlowId(0), ChainId(0), 64, Duration::from_micros(7));
        assert_eq!(s.flows[0].delivered, 2);
        assert_eq!(s.flows[0].delivered_bytes, 128);
        assert_eq!(s.chains[0].delivered, 2);
        assert!(s.flow_detail[0].latency.median().unwrap() >= Duration::from_micros(4));
    }

    #[test]
    fn entry_drop_counts_at_all_levels() {
        let mut s = one_flow(true);
        s.dropped(FlowId(0), ChainId(0), DropLocation::EntryThrottle);
        s.dropped(FlowId(0), ChainId(0), DropLocation::RingFull(NfId(1)));
        assert_eq!(s.flows[0].dropped, 2);
        assert_eq!(s.flows[0].entry_drops, 1);
        assert_eq!(s.chains[0].entry_drops, 1);
        assert_eq!(s.entry_throttle_drops, 1);
    }

    #[test]
    fn bulk_drops_equal_repeated_single_drops() {
        for loc in [
            DropLocation::EntryThrottle,
            DropLocation::NfDown(NfId(1)),
            DropLocation::RingFull(NfId(1)),
        ] {
            let (mut bulk, mut single) = (one_flow(false), one_flow(false));
            bulk.dropped_n(FlowId(0), ChainId(0), loc, 3);
            for _ in 0..3 {
                single.dropped(FlowId(0), ChainId(0), loc);
            }
            assert_eq!(format!("{bulk:?}"), format!("{single:?}"), "{loc:?}");
        }
    }

    #[test]
    fn rolling_produces_rates() {
        let mut s = one_flow(true);
        s.delivered(FlowId(0), ChainId(0), 64, Duration::from_micros(1));
        s.roll(SimTime::from_secs(1));
        let (_, mean, _) = s.flow_detail[0].pps_meter.summary();
        assert_eq!(mean, 1.0);
    }

    #[test]
    fn compact_flows_keep_counters_without_detail() {
        let mut s = one_flow(false);
        s.delivered(FlowId(0), ChainId(0), 64, Duration::from_micros(5));
        s.roll(SimTime::from_secs(1));
        assert_eq!(s.flows[0].delivered, 1);
        assert_eq!(s.flows[0].delivered_bytes, 64);
        assert!(s.flow_detail.is_empty());
        // Chain-level accounting is unaffected by compact flows.
        assert!(s.chains[0].latency.median().is_some());
    }

    #[test]
    fn flow_counters_are_32_bytes() {
        assert_eq!(std::mem::size_of::<FlowStats>(), 32);
    }
}
