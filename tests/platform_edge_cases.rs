//! Edge-case integration tests: resource exhaustion, unclassified traffic,
//! wildcard steering, and a full NF-application chain under NFVnice.

#![forbid(unsafe_code)]

use nfvnice::{Duration, NfSpec, NfvniceConfig, Policy, SimConfig, Simulation};

fn cfg(variant: NfvniceConfig) -> SimConfig {
    let mut c = SimConfig::default();
    c.platform.nf_cores = 1;
    c.platform.policy = Policy::CfsBatch;
    c.nfvnice = variant;
    c
}

/// A tiny mempool exhausts under overload; the system degrades gracefully
/// (drops counted, no panic, accounting intact) and keeps delivering.
#[test]
fn mempool_exhaustion_degrades_gracefully() {
    let mut c = cfg(NfvniceConfig::off());
    c.platform.mempool_capacity = 256; // far below ring capacity
    let mut sim = Simulation::new(c);
    let nf = sim.add_nf(NfSpec::new("slow", 0, 5_000));
    let chain = sim.add_chain(&[nf]);
    sim.add_udp(chain, 5_000_000.0, 64);
    let r = sim.run(Duration::from_millis(200));
    assert!(sim.platform.stats.mempool_fail > 0, "pool should exhaust");
    assert!(r.flow(0).delivered > 0, "still makes progress");
    assert!(sim.platform.packets_accounted());
    assert!(sim.platform.mempool.high_watermark() <= 256);
}

/// Traffic with no flow rule is dropped at classification and counted.
#[test]
fn unclassified_traffic_is_counted_not_crashed() {
    use nfv_pkt::{Ecn, FiveTuple, Proto, WireFrame};
    let mut sim = Simulation::new(cfg(NfvniceConfig::off()));
    let nf = sim.add_nf(NfSpec::new("nf", 0, 100));
    let chain = sim.add_chain(&[nf]);
    sim.add_udp(chain, 10_000.0, 64);
    // inject frames for a tuple nobody installed
    for seq in 0..50 {
        sim.platform.nic.deliver(WireFrame {
            tuple: FiveTuple::synthetic(9999, Proto::Udp),
            size: 64,
            seq,
            cost_class: 0,
            ecn: Ecn::NotEct,
            arrival: nfvnice::SimTime::ZERO,
        });
    }
    let r = sim.run(Duration::from_millis(100));
    assert_eq!(sim.platform.stats.unclassified, 50);
    assert!(r.flow(0).delivered > 0, "installed flow unaffected");
}

/// Wildcard rules steer unknown flows end-to-end: a /8 rule admits traffic
/// the harness never installed exactly, and the cached flow delivers.
#[test]
fn wildcard_rules_steer_unknown_flows_end_to_end() {
    use nfv_pkt::{Ecn, FiveTuple, IpPrefix, Proto, TuplePattern, WireFrame};
    let mut sim = Simulation::new(cfg(NfvniceConfig::off()));
    let nf = sim.add_nf(NfSpec::new("bridge", 0, 100));
    let chain = sim.add_chain(&[nf]);
    sim.platform.flow_table.install_wildcard(
        TuplePattern::any().from_src(IpPrefix::new(0x0a00_0000, 8)),
        chain,
        0,
    );
    // no exact rule for this tuple — only the wildcard matches
    for seq in 0..100u64 {
        sim.platform.nic.deliver(WireFrame {
            tuple: FiveTuple::synthetic(77, Proto::Udp), // src 10.0.0.77
            size: 64,
            seq,
            cost_class: 0,
            ecn: Ecn::NotEct,
            arrival: nfvnice::SimTime::ZERO,
        });
    }
    let r = sim.run(Duration::from_millis(50));
    // the wildcard minted one exact flow entry and delivered its packets
    assert_eq!(sim.platform.flow_table.len(), 1);
    let delivered: u64 = r.flows.iter().map(|f| f.delivered).sum();
    assert_eq!(delivered, 100);
    assert!(sim.platform.packets_accounted());
}

/// A realistic chain of nfv-apps NFs (policer → firewall → NAT → monitor)
/// under full NFVnice: functional behaviour and resource management
/// compose without interfering.
#[test]
fn apps_chain_functional_under_nfvnice() {
    use nfv_apps::{Firewall, FlowMonitor, Nat, Rule, TokenBucket, Verdict};
    let mut sim = Simulation::new(cfg(NfvniceConfig::full()));
    let policer = sim.add_nf_with_handler(
        NfSpec::new("policer", 0, 150),
        Box::new(TokenBucket::new(100_000.0, 512)),
    );
    let fw = sim.add_nf_with_handler(
        NfSpec::new("fw", 0, 300),
        Box::new(Firewall::new(
            vec![Rule::any(Verdict::Allow)],
            Verdict::Deny,
        )),
    );
    let nat = sim.add_nf_with_handler(NfSpec::new("nat", 0, 250), Box::new(Nat::new(0xc0a80001)));
    let mon = sim.add_nf_with_handler(NfSpec::new("mon", 0, 100), Box::new(FlowMonitor::new()));
    let chain = sim.add_chain(&[policer, fw, nat, mon]);
    sim.add_udp(chain, 200_000.0, 128);
    let r = sim.run(Duration::from_millis(500));
    // the policer caps 200 kpps offered at ~100 kpps
    let rate = r.flow(0).delivered_pps;
    assert!((90_000.0..115_000.0).contains(&rate), "rate {rate}");
    // latency accounting captured the chain transit
    assert!(r.flow(0).latency_p50 > Duration::ZERO);
    assert!(r.flow(0).latency_p99 >= r.flow(0).latency_p50);
    assert_eq!(r.total_wasted_drops, 0);
}

/// The cooperative policy end-to-end: backpressure rescues a chain that a
/// pure cooperative scheduler wastes.
#[test]
fn cooperative_scheduler_rescued_by_backpressure() {
    let run = |variant| {
        let mut c = cfg(variant);
        c.platform.policy = Policy::Cooperative;
        let mut sim = Simulation::new(c);
        let a = sim.add_nf(NfSpec::new("a", 0, 120));
        let b = sim.add_nf(NfSpec::new("b", 0, 550));
        let chain = sim.add_chain(&[a, b]);
        sim.add_udp(chain, 14_880_000.0, 64);
        sim.run(Duration::from_millis(300))
    };
    let coop = run(NfvniceConfig::off());
    let nice = run(NfvniceConfig::backpressure_only());
    assert!(coop.total_wasted_drops > 100_000, "cooperative wastes");
    assert_eq!(nice.total_wasted_drops, 0);
    assert!(nice.total_delivered_pps >= coop.total_delivered_pps);
}
