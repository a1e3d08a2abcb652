//! Run reports: every metric the paper's tables and figures need.

use nfv_des::{jain_index, Duration, QueueStats};
use nfv_pkt::{ChainId, FlowColumn, FlowId, FlowTableStats, NfId};
use nfv_platform::FlowStats;

/// Per-NF results (Tables 1–5 columns).
#[derive(Debug, Clone)]
pub struct NfReport {
    /// NF id.
    pub nf: NfId,
    /// Name from the spec.
    pub name: String,
    /// Core the NF was pinned to.
    pub core: usize,
    /// Total packets processed (includes work later wasted).
    pub processed: u64,
    /// Mean service rate over per-second intervals (pps).
    pub svc_rate_pps: f64,
    /// Packets this NF processed that a downstream full ring discarded.
    pub wasted_drops: u64,
    /// Mean wasted-work drop rate (pps) — Table 3.
    pub wasted_rate_pps: f64,
    /// CPU time consumed.
    pub cpu_time: Duration,
    /// CPU utilization of its core over the run (0..1) — Table 5/6.
    pub cpu_util: f64,
    /// Voluntary context switches per second — Tables 1–2 `cswch/s`.
    pub cswch_per_sec: f64,
    /// Involuntary context switches per second — `nvcswch/s`.
    pub nvcswch_per_sec: f64,
    /// Average scheduling latency (runnable → running) — Table 4.
    pub avg_sched_latency: Duration,
    /// Final cgroup `cpu.shares`.
    pub final_shares: u64,
    /// Output rate: packets this NF forwarded that were *not* wasted
    /// downstream, per second (per-NF throughput in Fig 1).
    pub output_rate_pps: f64,
}

/// Per-flow results: one flow's row of [`FlowReports`], built on read.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowReport {
    /// Flow id.
    pub flow: FlowId,
    /// Packets delivered end-to-end.
    pub delivered: u64,
    /// Mean delivered rate (pps).
    pub delivered_pps: f64,
    /// Mean delivered rate (Mbit/s).
    pub mbps: f64,
    /// Packets dropped inside the box.
    pub dropped: u64,
    /// Packets shed at chain entry by backpressure.
    pub entry_drops: u64,
    /// Median end-to-end latency of delivered packets (zero without
    /// per-flow detail).
    pub latency_p50: Duration,
    /// 99th-percentile end-to-end latency (zero without per-flow detail).
    pub latency_p99: Duration,
}

/// Per-flow results of a run, indexed by flow id, stored as the
/// platform's own columns: the counters move in from the platform at the
/// end of the run, and each [`FlowReport`] is computed when it is read
/// ([`FlowReports::get`], [`Report::flow`]). A flow's chain stays with
/// the flow table (`sim.platform.flow_table.chain_of(flow)`).
#[derive(Debug, Clone, Default)]
pub struct FlowReports {
    /// The run's length in seconds (at least 1 ns): the rate divisor.
    pub(crate) secs: f64,
    /// Delivery counters, one per flow.
    pub(crate) counters: FlowColumn<FlowStats>,
    /// `(p50, p99)` end-to-end latency per flow; empty when the platform
    /// kept no per-flow detail.
    pub(crate) latency: FlowColumn<(Duration, Duration)>,
}

impl FlowReports {
    /// Number of flows.
    pub fn len(&self) -> usize {
        self.counters.len()
    }

    /// No flow was ever classified.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }

    /// The report of flow `i`. Panics if `i >= self.len()`.
    pub fn get(&self, i: usize) -> FlowReport {
        let c = &self.counters[i];
        let (latency_p50, latency_p99) = self
            .latency
            .get(i)
            .copied()
            .unwrap_or((Duration::ZERO, Duration::ZERO));
        FlowReport {
            flow: FlowId(i as u32),
            delivered: c.delivered(),
            delivered_pps: c.delivered() as f64 / self.secs,
            mbps: c.delivered_bytes() as f64 * 8.0 / self.secs / 1e6,
            dropped: c.dropped(),
            entry_drops: c.entry_drops(),
            latency_p50,
            latency_p99,
        }
    }

    /// Every flow's report, in flow-id order.
    pub fn iter(&self) -> impl Iterator<Item = FlowReport> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }

    /// Bytes of per-flow heap storage, by capacity: the counter and
    /// latency columns.
    pub fn heap_bytes(&self) -> usize {
        self.counters.heap_bytes() + self.latency.heap_bytes()
    }
}

/// Per-chain results (Fig 9 / Table 6).
#[derive(Debug, Clone)]
pub struct ChainReport {
    /// Chain id.
    pub chain: ChainId,
    /// Packets that completed the chain.
    pub delivered: u64,
    /// Mean completion rate (pps).
    pub pps: f64,
    /// Entry-shed packets.
    pub entry_drops: u64,
    /// Median end-to-end latency of packets completing the chain.
    pub latency_p50: Duration,
    /// 99th-percentile end-to-end latency (the SLO headline number).
    pub latency_p99: Duration,
    /// 99.9th-percentile end-to-end latency.
    pub latency_p999: Duration,
}

/// Per-second time series captured during the run (Figs 13, 15a).
#[derive(Debug, Clone, Default)]
pub struct Series {
    /// `cpu_pct[nf][second]`: CPU share of its core, percent.
    pub cpu_pct: Vec<Vec<f64>>,
    /// Cumulative delivered bytes at the close of each full stats
    /// interval: `flow_bytes[i][f]` for every flow `f` known when
    /// interval `i` closed. Flows only appear, so column lengths never
    /// shrink. A final partial interval has no column: its values are
    /// the report's own counters. Read through [`Report::flow_mbps`].
    pub(crate) flow_bytes: Vec<FlowColumn<u64>>,
    /// Length of each interval in seconds, the final partial one
    /// included.
    pub(crate) spans: Vec<f64>,
}

impl Series {
    /// Closed stats intervals (seconds, plus a final partial one).
    pub fn intervals(&self) -> usize {
        self.spans.len()
    }

    /// Length of each closed interval in seconds.
    pub fn spans(&self) -> &[f64] {
        &self.spans
    }
}

/// Complete results of one simulation run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Simulated wall-clock duration.
    pub wall: Duration,
    /// Scheduler policy label.
    pub policy: String,
    /// NFVnice variant label.
    pub variant: String,
    /// Per-NF reports (indexed by NF id).
    pub nfs: Vec<NfReport>,
    /// Per-flow results (indexed by flow id); read one flow with
    /// [`Report::flow`].
    pub flows: FlowReports,
    /// Per-chain reports (indexed by chain id).
    pub chains: Vec<ChainReport>,
    /// Aggregate delivered rate across all flows (pps).
    pub total_delivered_pps: f64,
    /// Frames lost at the NIC (no work wasted).
    pub nic_overflow: u64,
    /// Packets shed at chain entry (no work wasted).
    pub entry_drops: u64,
    /// Total wasted-work drops (after at least one NF processed them).
    pub total_wasted_drops: u64,
    /// cgroup sysfs writes performed.
    pub cgroup_writes: u64,
    /// Manager CPU time spent performing those writes (~5 µs each): the
    /// overhead the paper batches weight updates to bound.
    pub cgroup_write_time: Duration,
    /// Backpressure throttle activations.
    pub throttle_events: u64,
    /// ECN CE marks applied.
    pub ecn_marks: u64,
    /// NF crashes applied (injected faults + watchdog verdicts).
    pub nf_crashes: u64,
    /// NF restarts performed by the recovery policy.
    pub nf_restarts: u64,
    /// Stalls the liveness watchdog detected (each also counts a crash).
    pub nf_stalls_detected: u64,
    /// Packets lost to dead NFs: crash drains plus entry/forwarding
    /// shedding for chains routed through a down NF.
    pub nf_down_drops: u64,
    /// Scale-out replicas deployed by the elastic controller.
    pub nf_scale_outs: u64,
    /// Cross-core NF migrations performed by the elastic controller.
    pub nf_migrations: u64,
    /// Replicas retired by elastic scale-in.
    pub nf_scale_ins: u64,
    /// FNV-1a digest of the event trace `(time, event)` pairs. Two runs of
    /// the same scenario with the same seed must produce the same digest —
    /// the determinism tests compare exactly this.
    pub trace_digest: u64,
    /// Events popped and discarded as stale (lazy invalidation: dead-NF
    /// batch events, no-op respawns/crashes/slowdown ends). Counted at
    /// the engine's discard sites.
    pub stale_pops: u64,
    /// Event-queue self-profiling counters (pushes, pops, coalesced pops,
    /// heap allocations). Deterministic; surfaced in
    /// `BENCH_timings.json`, never in the metrics document.
    pub queue: QueueStats,
    /// Flows installed in the flow table when the run ended. Part of the
    /// deterministic sim state (independent of the index layout), so it
    /// may appear in metrics output — unlike the flow-table counters in
    /// the `flow` field.
    pub flows_active: u64,
    /// Flows evicted by aging over the whole run (cumulative). Also
    /// independent of the index layout.
    pub flows_evicted: u64,
    /// Flow-table self-profiling counters (probe lengths, rehashes,
    /// shard shape). They depend on the index layout, so like [`Report::queue`] they
    /// go to `BENCH_timings.json` only — never into metrics or traces.
    pub flow: FlowTableStats,
    /// Per-second series.
    pub series: Series,
}

impl Report {
    /// Aggregate throughput in Mpps.
    pub fn throughput_mpps(&self) -> f64 {
        self.total_delivered_pps / 1e6
    }

    /// The report of flow `i` (a by-value view of [`Report::flows`]).
    /// Panics if `i` is not a flow id of this run.
    pub fn flow(&self, i: usize) -> FlowReport {
        self.flows.get(i)
    }

    /// Flow `flow`'s delivered Mbit/s per stats interval, starting at the
    /// first interval the flow existed in (flows learned mid-run start
    /// late); empty for a flow no interval saw. The final partial
    /// interval, if any, ends at the flow's delivered-bytes counter.
    pub fn flow_mbps(&self, flow: usize) -> Vec<f64> {
        let closed = self
            .series
            .flow_bytes
            .iter()
            .map(|col| col.get(flow).copied());
        let tail = (self.series.spans.len() > self.series.flow_bytes.len()).then(|| {
            self.flows
                .counters
                .get(flow)
                .map(FlowStats::delivered_bytes)
        });
        let mut prev = 0;
        closed
            .chain(tail)
            .zip(&self.series.spans)
            .filter_map(|(cur, &span)| {
                let cur = cur?;
                let mbps = (cur - prev) as f64 * 8.0 / span / 1e6;
                prev = cur;
                Some(mbps)
            })
            .collect()
    }

    /// Jain's fairness index over per-flow delivered rates (Fig 15b).
    pub fn jain_over_flows(&self) -> f64 {
        let rates: Vec<f64> = self.flows.iter().map(|f| f.delivered_pps).collect();
        jain_index(&rates)
    }

    /// Render a compact human-readable summary (used by examples and the
    /// bench harness).
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "run: {:.2}s  policy={}  variant={}  total={:.3} Mpps  wasted={}  entry_drops={}",
            self.wall.as_secs_f64(),
            self.policy,
            self.variant,
            self.throughput_mpps(),
            self.total_wasted_drops,
            self.entry_drops,
        );
        for nf in &self.nfs {
            let _ = writeln!(
                s,
                "  {:<12} core{} svc={:>10.0}pps out={:>10.0}pps wasted={:>9.0}pps cpu={:>5.1}% cswch/s={:>8.0} nvcswch/s={:>8.0} lat={} shares={}",
                nf.name,
                nf.core,
                nf.svc_rate_pps,
                nf.output_rate_pps,
                nf.wasted_rate_pps,
                nf.cpu_util * 100.0,
                nf.cswch_per_sec,
                nf.nvcswch_per_sec,
                nf.avg_sched_latency,
                nf.final_shares,
            );
        }
        for f in self.flows.iter() {
            let _ = writeln!(
                s,
                "  flow{:<3} delivered={:>10} ({:>10.0}pps, {:>8.1}Mbps) dropped={} entry={}",
                f.flow.0, f.delivered, f.delivered_pps, f.mbps, f.dropped, f.entry_drops
            );
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy() -> Report {
        Report {
            wall: Duration::from_secs(1),
            policy: "BATCH".into(),
            variant: "NFVnice".into(),
            nfs: vec![],
            flows: FlowReports {
                secs: 1.0,
                counters: {
                    // Two flows, each 100 deliveries of 80 B.
                    let mut s = nfv_platform::PlatformStats::default();
                    s.chains.push(Default::default());
                    for f in 0..2 {
                        s.flows.push(FlowStats::default());
                        s.delivered_n(FlowId(f), ChainId(0), 80, Duration::ZERO, 100);
                    }
                    s.flows
                },
                latency: FlowColumn::new(),
            },
            chains: vec![],
            total_delivered_pps: 200.0,
            nic_overflow: 0,
            entry_drops: 0,
            total_wasted_drops: 0,
            cgroup_writes: 0,
            cgroup_write_time: Duration::ZERO,
            throttle_events: 0,
            ecn_marks: 0,
            nf_crashes: 0,
            nf_restarts: 0,
            nf_stalls_detected: 0,
            nf_down_drops: 0,
            nf_scale_outs: 0,
            nf_migrations: 0,
            nf_scale_ins: 0,
            trace_digest: 0,
            stale_pops: 0,
            queue: QueueStats::default(),
            flows_active: 2,
            flows_evicted: 0,
            flow: FlowTableStats::default(),
            series: Series::default(),
        }
    }

    #[test]
    fn jain_of_equal_flows_is_one() {
        assert!((dummy().jain_over_flows() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn mpps_conversion() {
        assert!((dummy().throughput_mpps() - 0.0002).abs() < 1e-12);
    }

    #[test]
    fn summary_renders() {
        let s = dummy().summary();
        assert!(s.contains("NFVnice"));
        assert!(s.contains("flow0"));
    }

    #[test]
    fn flow_view_derives_rates_from_counters() {
        let r = dummy();
        assert_eq!(r.flows.len(), 2);
        let f = r.flow(1);
        assert_eq!(f.flow, FlowId(1));
        assert_eq!(f.delivered_pps, 100.0);
        assert_eq!(f.mbps, 0.064);
        assert_eq!(f.latency_p99, Duration::ZERO);
        assert_eq!(r.flows.iter().collect::<Vec<_>>(), [r.flow(0), f]);
    }
}
