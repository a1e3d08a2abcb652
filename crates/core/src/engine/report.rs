//! Report assembly: the per-second series snapshots taken on the stats
//! roll, and the end-of-run [`Report`](crate::report::Report) built from
//! platform, scheduler and policy-subsystem counters.

use super::Simulation;
use crate::report::{ChainReport, FlowReport, NfReport, Report};
use nfv_des::Duration;
use nfv_pkt::{FlowId, NfId};

impl Simulation {
    /// Close a measurement interval of `span_secs`: append one column to
    /// the per-NF CPU% and per-flow Mbit/s series. CPU-time deltas are
    /// tracked per core domain (each domain snapshots its homed NFs).
    pub(super) fn snapshot_series(&mut self, span_secs: f64) {
        if span_secs <= 0.0 {
            return;
        }
        let mut domains = std::mem::take(&mut self.domains);
        for d in &mut domains {
            for (slot, &idx) in d.nfs.iter().enumerate() {
                let task = self.platform.nfs[idx].task;
                let cpu = self.platform.sched.task(task).cpu_time;
                let delta = cpu.saturating_sub(d.cpu_snapshot[slot]);
                d.cpu_snapshot[slot] = cpu;
                self.series.cpu_pct[idx].push(delta.as_secs_f64() / span_secs * 100.0);
            }
        }
        self.domains = domains;
        // Wildcard classification can add flows mid-run: the column
        // covers every flow known now, so a new flow's series starts at
        // the current interval.
        let flows = &self.platform.stats.flows;
        self.flow_bytes_snapshot.resize(flows.len(), 0);
        let mut col = Vec::with_capacity(flows.len());
        for (fs, snap) in flows.iter().zip(&mut self.flow_bytes_snapshot) {
            let delta = fs.delivered_bytes - *snap;
            *snap = fs.delivered_bytes;
            col.push(delta as f64 * 8.0 / span_secs / 1e6);
        }
        self.series.flow_cols.push(col);
    }

    pub(super) fn build_report(&mut self, wall: Duration) -> Report {
        let secs = wall.as_secs_f64().max(1e-9);
        let nfs: Vec<NfReport> = (0..self.platform.nfs.len())
            .map(|idx| {
                let nf = &self.platform.nfs[idx];
                let task = self.platform.sched.task(nf.task);
                NfReport {
                    nf: NfId(idx as u32),
                    name: nf.spec.name.clone(),
                    core: nf.spec.core,
                    processed: nf.processed,
                    svc_rate_pps: nf.processed as f64 / secs,
                    wasted_drops: nf.wasted_drops,
                    wasted_rate_pps: nf.wasted_drops as f64 / secs,
                    cpu_time: task.cpu_time,
                    cpu_util: task.cpu_time.as_secs_f64() / secs,
                    cswch_per_sec: task.voluntary_switches as f64 / secs,
                    nvcswch_per_sec: task.involuntary_switches as f64 / secs,
                    avg_sched_latency: task.avg_sched_latency(),
                    final_shares: self.platform.cgroups.shares(nf.task),
                    output_rate_pps: nf.processed.saturating_sub(nf.wasted_drops) as f64 / secs,
                }
            })
            .collect();
        let flows: Vec<FlowReport> = (0..self.platform.stats.flows.len())
            .map(|f| {
                let fs = &self.platform.stats.flows[f];
                FlowReport {
                    flow: FlowId(f as u32),
                    chain: self.platform.flow_table.chain_of(FlowId(f as u32)),
                    delivered: fs.delivered,
                    delivered_pps: fs.delivered as f64 / secs,
                    mbps: fs.delivered_bytes as f64 * 8.0 / secs / 1e6,
                    dropped: fs.dropped,
                    entry_drops: fs.entry_drops,
                    latency_p50: fs.latency_p50().unwrap_or(Duration::ZERO),
                    latency_p99: fs.latency_p99().unwrap_or(Duration::ZERO),
                }
            })
            .collect();
        let chains: Vec<ChainReport> = self
            .platform
            .chains
            .ids()
            .map(|c| {
                let cs = &self.platform.stats.chains[c.index()];
                ChainReport {
                    chain: c,
                    delivered: cs.delivered,
                    pps: cs.delivered as f64 / secs,
                    entry_drops: cs.entry_drops,
                    latency_p50: cs.latency.median().unwrap_or(Duration::ZERO),
                    latency_p99: cs.latency.percentile(99.0).unwrap_or(Duration::ZERO),
                    latency_p999: cs.latency.percentile(99.9).unwrap_or(Duration::ZERO),
                }
            })
            .collect();
        let total_delivered_pps = flows.iter().map(|f| f.delivered_pps).sum();
        Report {
            wall,
            policy: self.platform.sched.policy().label(),
            variant: self.cfg.nfvnice.label().to_string(),
            nfs,
            flows,
            chains,
            total_delivered_pps,
            nic_overflow: self.platform.nic.rx_overflow_drops,
            entry_drops: self.platform.stats.entry_throttle_drops,
            total_wasted_drops: self.platform.nfs.iter().map(|nf| nf.wasted_drops).sum(),
            cgroup_writes: self.platform.cgroups.writes,
            cgroup_write_time: self.mgr_cgroup_time,
            throttle_events: self.bp.throttle_events,
            ecn_marks: self.ecn.marks,
            nf_crashes: self.crashes,
            nf_restarts: self.restarts,
            nf_stalls_detected: self.stalls_detected,
            nf_down_drops: self.platform.stats.nf_down_drops,
            nf_scale_outs: self.scale_outs,
            nf_migrations: self.migrations,
            nf_scale_ins: self.scale_ins,
            trace_digest: self.sanitizer.digest(),
            stale_pops: self.stale_pops,
            queue: {
                // The queue itself cannot see engine-level body-skips;
                // inject the counter here (timings-only, like the rest
                // of `QueueStats`).
                let mut q = self.queue.stats();
                q.skipped_ticks = self.skipped_ticks;
                q
            },
            flows_active: self.platform.flow_table.len() as u64,
            flows_evicted: self.flows_evicted,
            flow: self.platform.flow_table.stats(),
            series: std::mem::take(&mut self.series),
        }
    }
}
