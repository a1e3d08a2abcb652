//! Figure 13: performance isolation between responsive (TCP) and
//! non-responsive (UDP) flows.
//!
//! One TCP flow rides NF1(low)→NF2(med) on a shared core, window-capped
//! near 4 Gbps. Ten UDP flows share NF1/NF2 but continue to NF3 — a heavy
//! NF on its own core whose capacity is ~280 Mbit/s of 64 B frames — and
//! blast far more than that. Without NFVnice the doomed UDP load saturates
//! the shared core and craters TCP; with per-flow backpressure the UDP is
//! shed at entry, TCP keeps ~3-4 Gbps, and UDP still gets its bottleneck
//! rate.

use crate::util::{sim, RunLength, Table};
use nfvnice::{Duration, NfSpec, NfvniceConfig, Policy, Report, SimTime};

/// UDP on/off window in paper-time seconds.
pub const UDP_ON: u64 = 15;
/// UDP off time (paper-time seconds).
pub const UDP_OFF: u64 = 40;
/// Total timeline (paper-time seconds).
pub const TOTAL: u64 = 55;

/// Outcome of one variant run.
pub struct Fig13Run {
    /// Full report (series included).
    pub report: Report,
    /// TCP flow index into the report.
    pub tcp_flow: usize,
    /// UDP flow indices.
    pub udp_flows: Vec<usize>,
}

/// Run one variant over the (possibly compressed) timeline.
pub fn run_cell(variant: NfvniceConfig, len: RunLength) -> Fig13Run {
    let scale = len.timeline_scale;
    let mut s = sim(2, Policy::CfsBatch, variant);
    let nf1 = s.add_nf(NfSpec::new("NF1-low", 0, 120));
    let nf2 = s.add_nf(NfSpec::new("NF2-med", 0, 270));
    // NF3: 4753 cycles ⇒ ~547 kpps of 64 B frames ≈ 280 Mbit/s bottleneck.
    let nf3 = s.add_nf(NfSpec::new("NF3-high", 1, 4753));
    let tcp_chain = s.add_chain(&[nf1, nf2]);
    let tcp = s.add_tcp_with(tcp_chain, 1500, Duration::from_micros(100), |t| {
        t.with_max_cwnd(33.0) // ≈ 4 Gbit/s at 100 µs RTT
    });
    let on = SimTime::from_millis(UDP_ON * 1000 / scale);
    let off = SimTime::from_millis(UDP_OFF * 1000 / scale);
    let mut udp_flows = Vec::new();
    for _ in 0..10 {
        // Per-flow chain definitions give per-flow backpressure (§3.3).
        let chain = s.add_chain(&[nf1, nf2, nf3]);
        let f = s.add_udp_with(chain, 800_000.0, 64, |f| f.window(on, off));
        udp_flows.push(f.index());
    }
    let report = crate::util::run_logged(
        "fig13",
        variant.label(),
        &mut s,
        Duration::from_millis(TOTAL * 1000 / scale),
    );
    Fig13Run {
        tcp_flow: tcp.index(),
        udp_flows,
        report,
    }
}

/// Render the per-second throughput timeline for both variants.
pub fn run(len: RunLength) -> String {
    let mut out = String::new();
    out.push_str("\n=== Fig 13 — TCP/UDP performance isolation (per-second Mbit/s) ===\n");
    let d = run_cell(NfvniceConfig::off(), len);
    let n = run_cell(NfvniceConfig::full(), len);
    let secs = d.report.series.intervals();
    let mut t = Table::new(&[
        "sec",
        "TCP (Default)",
        "UDP agg (Default)",
        "TCP (NFVnice)",
        "UDP agg (NFVnice)",
    ]);
    let (d_tcp, n_tcp) = (
        d.report.flow_mbps(d.tcp_flow),
        n.report.flow_mbps(n.tcp_flow),
    );
    for sec in 0..secs {
        let udp_sum = |r: &Fig13Run| -> f64 {
            r.udp_flows
                .iter()
                .map(|&f| r.report.flow_mbps(f).get(sec).copied().unwrap_or(0.0))
                .sum()
        };
        t.row(vec![
            format!("{}", (sec as u64 + 1) * len.timeline_scale),
            format!("{:.1}", d_tcp[sec]),
            format!("{:.1}", udp_sum(&d)),
            format!("{:.1}", n_tcp[sec]),
            format!("{:.1}", udp_sum(&n)),
        ]);
    }
    out.push_str(&t.render());
    out
}
