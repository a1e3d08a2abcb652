//! Report assembly: the per-second series snapshots taken on the stats
//! roll, and the end-of-run [`Report`](crate::report::Report) built from
//! platform, scheduler and policy-subsystem counters.

use super::Simulation;
use crate::report::{ChainReport, FlowReports, NfReport, Report};
use nfv_des::{Duration, Severity, SimTime};
use nfv_pkt::NfId;

impl Simulation {
    /// Close a measurement interval of `span_secs`: append one column to
    /// the per-NF CPU% series and, for a `full` interval, to the per-flow
    /// delivered-bytes series. The final partial interval takes no
    /// per-flow column: it would equal the counters that move into the
    /// report, which [`Report::flow_mbps`](crate::report::Report::flow_mbps)
    /// reads instead. CPU-time deltas are tracked per core domain (each
    /// domain snapshots its homed NFs).
    pub(super) fn snapshot_series(&mut self, span_secs: f64, full: bool) {
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
        if full {
            let flows = &self.platform.stats.flows;
            let col = flows.iter().map(|fs| fs.delivered_bytes()).collect();
            self.series.flow_bytes.push(col);
        }
        self.series.spans.push(span_secs);
    }

    pub(super) fn build_report(&mut self, wall: Duration) -> Report {
        // A per-flow counter that saturated at 2^48 − 1 reads short: a
        // real bug or an impossible run, surfaced once here like the
        // pending-count desyncs (no per-event check).
        let saturated = self.platform.saturated_adds();
        if saturated > 0 {
            self.sanitizer.record(
                Severity::Error,
                "counter-saturation",
                SimTime::ZERO + wall,
                format!("{saturated} per-flow counter add(s) saturated at 2^48 - 1"),
            );
        }
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
        // The counters move into the report as they are; each flow's
        // rates are derived when it is read.
        let stats = &mut self.platform.stats;
        let detail = std::mem::take(&mut stats.flow_detail);
        let flows = FlowReports {
            secs,
            counters: std::mem::take(&mut stats.flows),
            latency: detail
                .iter()
                .map(|d| {
                    (
                        d.latency.median().unwrap_or(Duration::ZERO),
                        d.latency.percentile(99.0).unwrap_or(Duration::ZERO),
                    )
                })
                .collect(),
        };
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
            policy: self.cfg.platform.policy.label(),
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
            nf_crashes: self.watchdog.crashes,
            nf_restarts: self.watchdog.restarts,
            nf_stalls_detected: self.watchdog.stalls_detected,
            nf_down_drops: self.platform.stats.nf_down_drops,
            nf_scale_outs: self.elastic.scale_outs,
            nf_migrations: self.elastic.migrations,
            nf_scale_ins: self.elastic.scale_ins,
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
