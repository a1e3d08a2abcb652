//! Chain-aware backpressure across cores, with a custom packet handler.
//!
//! Reproduces the Table 5 scenario — a chain whose per-NF cost grows
//! 550 → 2200 → 4500 cycles, one NF per core — and shows how selective
//! early discard at the chain entry turns upstream cores from 100 % busy
//! (doing doomed work) to nearly idle, without losing a packet of
//! delivered throughput. The middle NF runs a custom handler (a toy
//! firewall) to demonstrate the `PacketHandler` API.
//!
//! Run with: `cargo run --release --bin service_chain_backpressure`

#![forbid(unsafe_code)]

use nfvnice::{
    Duration, NfAction, NfSpec, NfvniceConfig, ObsConfig, Packet, PacketHandler, Policy, SimConfig,
    Simulation, TraceKind,
};

/// A firewall that drops every 100th packet (policy denial, not congestion)
/// and counts what it saw.
struct SamplingFirewall {
    seen: u64,
}

impl PacketHandler for SamplingFirewall {
    fn handle(&mut self, _pkt: &mut Packet, _now: nfvnice::SimTime) -> NfAction {
        self.seen += 1;
        if self.seen.is_multiple_of(100) {
            NfAction::Drop
        } else {
            NfAction::Forward
        }
    }
}

fn run(variant: NfvniceConfig) -> (Simulation, nfvnice::Report) {
    let mut cfg = SimConfig::default();
    cfg.platform.nf_cores = 3;
    cfg.platform.policy = Policy::CfsNormal;
    cfg.nfvnice = variant;
    // Record structured events + time series (pure observers: the trace
    // digest is identical with observability off).
    cfg.obs = ObsConfig::all();
    let mut sim = Simulation::new(cfg);
    let nf1 = sim.add_nf(NfSpec::new("classifier", 0, 550));
    let nf2 = sim.add_nf_with_handler(
        NfSpec::new("firewall", 1, 2200),
        Box::new(SamplingFirewall { seen: 0 }),
    );
    let nf3 = sim.add_nf(NfSpec::new("dpi", 2, 4500));
    let chain = sim.add_chain(&[nf1, nf2, nf3]);
    sim.add_udp(chain, 14_880_000.0, 64);
    let r = sim.run(Duration::from_secs(1));
    (sim, r)
}

fn main() {
    for variant in [NfvniceConfig::off(), NfvniceConfig::full()] {
        let (mut sim, r) = run(variant);
        println!("== {} ==", r.variant);
        for nf in &r.nfs {
            println!(
                "  {:<11} core{}  service {:>9.0} pps   wasted {:>9.0} pps   cpu {:>5.1}%",
                nf.name,
                nf.core,
                nf.svc_rate_pps,
                nf.wasted_rate_pps,
                nf.cpu_util * 100.0
            );
        }
        println!(
            "  delivered {:.3} Mpps, shed-at-entry {} pkts, wasted {} pkts",
            r.throughput_mpps(),
            r.entry_drops,
            r.total_wasted_drops
        );
        // Observability: reconstruct the throttle timeline from the trace
        // and summarize the sampled time series.
        let events = sim.take_trace();
        let first_throttle = events
            .iter()
            .find(|e| matches!(e.kind, TraceKind::ThrottleEnter { .. }));
        match first_throttle {
            Some(e) => {
                let enters = events
                    .iter()
                    .filter(|e| matches!(e.kind, TraceKind::ThrottleEnter { .. }))
                    .count();
                let share_writes = events
                    .iter()
                    .filter(|e| matches!(e.kind, TraceKind::ShareWrite { .. }))
                    .count();
                println!(
                    "  trace: {} events; first throttle at t={} us; {} throttle enters, {} share writes",
                    events.len(),
                    e.t.as_micros(),
                    enters,
                    share_writes
                );
            }
            None => println!("  trace: {} events; no throttling occurred", events.len()),
        }
        let m = sim.take_metrics();
        for nf in &m.nfs {
            let peak_q = nf.qlen.iter().copied().max().unwrap_or(0);
            let throttled_ticks = nf.throttled.iter().filter(|&&t| t == 1).count();
            println!(
                "  metrics: {:<11} peak queue {:>4}  throttled {:>4}/{} sampled ticks",
                nf.name,
                peak_q,
                throttled_ticks,
                m.samples()
            );
        }
        println!();
    }
    println!("Backpressure sheds doomed packets before any CPU touches them:");
    println!("upstream cores drop from 100% utilization to a trickle while the");
    println!("bottleneck NF keeps its full line of work.");
}
