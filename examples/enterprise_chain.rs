//! A realistic enterprise edge chain built from the `nfv-apps` NF library:
//!
//!   token-bucket policer → firewall → NAT → flow monitor
//!
//! with wildcard flow rules steering subnets to different chains, and
//! NFVnice managing the shared core. Demonstrates custom `PacketHandler`
//! NFs with *functional* behaviour (the firewall really filters, the NAT
//! really rewrites) alongside NFVnice's resource management.
//!
//! Run with: `cargo run --release --bin enterprise_chain`

use nfv_apps::{Firewall, FlowMonitor, Nat, Rule, TokenBucket, Verdict};
use nfvnice::{Duration, NfSpec, NfvniceConfig, Policy, SimConfig, Simulation};

fn main() {
    let mut cfg = SimConfig::default();
    cfg.platform.nf_cores = 1;
    cfg.platform.policy = Policy::CfsBatch;
    cfg.nfvnice = NfvniceConfig::full();
    let mut sim = Simulation::new(cfg);

    // 200 kpps sustained policer with a 1k burst.
    let policer = sim.add_nf_with_handler(
        NfSpec::new("policer", 0, 150),
        Box::new(TokenBucket::new(200_000.0, 1_000)),
    );
    // Default-deny firewall that allows everything to dst_port 9 (our
    // synthetic flows) — rule evaluation really runs per packet.
    let firewall = sim.add_nf_with_handler(
        NfSpec::new("firewall", 0, 300),
        Box::new(Firewall::new(
            vec![Rule {
                dst_port: nfv_apps::Match::Is(9),
                ..Rule::any(Verdict::Allow)
            }],
            Verdict::Deny,
        )),
    );
    let nat = sim.add_nf_with_handler(NfSpec::new("nat", 0, 250), Box::new(Nat::new(0xc0a8_0001)));
    let monitor =
        sim.add_nf_with_handler(NfSpec::new("monitor", 0, 100), Box::new(FlowMonitor::new()));

    let chain = sim.add_chain(&[policer, firewall, nat, monitor]);
    // Three tenants at different offered rates; the policer caps the total.
    for rate in [150_000.0, 100_000.0, 50_000.0] {
        sim.add_udp(chain, rate, 128);
    }

    let report = sim.run(Duration::from_secs(2));
    println!("{}", report.summary());
    println!(
        "offered 300 kpps, policer admits ~200 kpps: delivered {:.0} kpps total",
        report.total_delivered_pps / 1e3
    );
    for f in report.flows.iter() {
        println!(
            "  flow{}: {:.0} kpps delivered, p50 latency {}, p99 {}",
            f.flow.0,
            f.delivered_pps / 1e3,
            f.latency_p50,
            f.latency_p99
        );
    }
}
