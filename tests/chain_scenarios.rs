//! Cross-crate integration tests: end-to-end service-chain scenarios
//! exercising the full stack (traffic → NIC → flow table → rings →
//! scheduler → NFs → delivery).

#![forbid(unsafe_code)]

use nfvnice::{Duration, NfSpec, NfvniceConfig, Policy, Report, SimConfig, SimTime, Simulation};

fn cfg(cores: usize, policy: Policy, variant: NfvniceConfig) -> SimConfig {
    let mut c = SimConfig::default();
    c.platform.nf_cores = cores;
    c.platform.policy = policy;
    c.nfvnice = variant;
    c
}

/// Conservation: every frame that enters the system is delivered, dropped
/// somewhere accountable, or still in flight at the end.
#[test]
fn packet_conservation_across_the_stack() {
    let mut sim = Simulation::new(cfg(2, Policy::CfsNormal, NfvniceConfig::full()));
    let a = sim.add_nf(NfSpec::new("a", 0, 200));
    let b = sim.add_nf(NfSpec::new("b", 1, 2_000));
    let chain = sim.add_chain(&[a, b]);
    sim.add_udp(chain, 2_000_000.0, 64);
    let r = sim.run(Duration::from_millis(300));
    let p = &sim.platform;
    let classified = p.flow_table.entries().map(|e| e.packets).sum::<u64>();
    let delivered = r.flow(0).delivered;
    let dropped = r.flow(0).dropped;
    let in_flight = p.mempool.in_use() as u64 + p.nic.rx_pending() as u64;
    assert!(p.packets_accounted(), "mempool accounting broken");
    assert_eq!(
        classified,
        delivered + dropped + in_flight,
        "classified {classified} != delivered {delivered} + dropped {dropped} + in-flight {in_flight}"
    );
}

/// A chain spanning three cores delivers at the offered rate with no loss
/// when the offered load is below the bottleneck capacity.
#[test]
fn underloaded_multicore_chain_is_lossless() {
    let mut sim = Simulation::new(cfg(3, Policy::CfsBatch, NfvniceConfig::full()));
    let a = sim.add_nf(NfSpec::new("a", 0, 500));
    let b = sim.add_nf(NfSpec::new("b", 1, 1_000));
    let c = sim.add_nf(NfSpec::new("c", 2, 2_000));
    let chain = sim.add_chain(&[a, b, c]);
    // bottleneck c: 1.3 Mpps capacity; offer 0.5 Mpps
    sim.add_udp(chain, 500_000.0, 64);
    let r = sim.run(Duration::from_millis(300));
    assert_eq!(r.flow(0).dropped, 0);
    assert_eq!(r.total_wasted_drops, 0);
    assert!(r.flow(0).delivered_pps > 450_000.0);
}

/// Packets follow their own chain: two flows with reversed NF orders both
/// complete, and each NF sees both flows' packets.
#[test]
fn per_flow_chains_with_different_orders() {
    let mut sim = Simulation::new(cfg(1, Policy::CfsNormal, NfvniceConfig::off()));
    let a = sim.add_nf(NfSpec::new("a", 0, 100));
    let b = sim.add_nf(NfSpec::new("b", 0, 100));
    let fwd = sim.add_chain(&[a, b]);
    let rev = sim.add_chain(&[b, a]);
    sim.add_udp(fwd, 100_000.0, 64);
    sim.add_udp(rev, 100_000.0, 64);
    let r = sim.run(Duration::from_millis(200));
    assert!(r.chains[0].delivered > 15_000);
    assert!(r.chains[1].delivered > 15_000);
    // both NFs processed (at least) every delivered packet of both chains
    let total = r.chains[0].delivered + r.chains[1].delivered;
    assert!(r.nfs[0].processed >= total);
    assert!(r.nfs[1].processed >= total);
}

/// A chain that revisits an NF non-adjacently charges it twice per packet.
#[test]
fn chain_revisiting_an_nf() {
    let mut sim = Simulation::new(cfg(1, Policy::CfsNormal, NfvniceConfig::off()));
    let a = sim.add_nf(NfSpec::new("a", 0, 100));
    let b = sim.add_nf(NfSpec::new("b", 0, 100));
    let chain = sim.add_chain(&[a, b, a]);
    sim.add_udp(chain, 50_000.0, 64);
    let r = sim.run(Duration::from_millis(200));
    let delivered = r.flow(0).delivered;
    assert!(delivered > 5_000);
    // NF a processed every delivered packet twice
    assert!(r.nfs[0].processed >= delivered * 2);
    assert!(r.nfs[1].processed >= delivered);
}

/// Ten-NF single-core chain still makes progress under line rate.
#[test]
fn long_chain_on_one_core_progresses() {
    let mut sim = Simulation::new(cfg(1, Policy::CfsBatch, NfvniceConfig::full()));
    let nfs: Vec<_> = (0..10)
        .map(|i| sim.add_nf(NfSpec::new(format!("nf{i}"), 0, 100 + 50 * (i % 3) as u64)))
        .collect();
    let chain = sim.add_chain(&nfs);
    sim.add_udp(chain, 14_880_000.0, 64);
    let r = sim.run(Duration::from_millis(300));
    assert!(
        r.flow(0).delivered_pps > 200_000.0,
        "rate {}",
        r.flow(0).delivered_pps
    );
}

/// Mid-run cost changes (the Fig 15a mechanism) visibly shift capacity.
#[test]
fn scheduled_action_changes_throughput_mid_run() {
    use nfvnice::{Action, CostModel};
    let mut sim = Simulation::new(cfg(1, Policy::CfsNormal, NfvniceConfig::off()));
    let nf = sim.add_nf(NfSpec::new("morph", 0, 500));
    let chain = sim.add_chain(&[nf]);
    sim.add_udp(chain, 10_000_000.0, 64); // overload: output = capacity
    sim.at(
        SimTime::from_secs(1),
        Action::SetCost(nf, CostModel::Fixed(2_000)),
    );
    let r = sim.run(Duration::from_secs(2));
    let mbps = r.series.flow_mbps(0);
    let (first, second) = (mbps[0], mbps[1]);
    // capacity 5.2 Mpps then 1.3 Mpps: second interval ~4x slower
    let ratio = first / second;
    assert!((3.0..5.0).contains(&ratio), "ratio {ratio}");
}

/// Reports are internally consistent.
#[test]
fn report_invariants() {
    let mut sim = Simulation::new(cfg(1, Policy::CfsBatch, NfvniceConfig::full()));
    let a = sim.add_nf(NfSpec::new("a", 0, 120));
    let b = sim.add_nf(NfSpec::new("b", 0, 550));
    let chain = sim.add_chain(&[a, b]);
    sim.add_udp(chain, 5_000_000.0, 64);
    let r: Report = sim.run(Duration::from_millis(500));
    for nf in &r.nfs {
        assert!(nf.cpu_util >= 0.0 && nf.cpu_util <= 1.01, "{}", nf.cpu_util);
        assert!(nf.output_rate_pps <= nf.svc_rate_pps + 1.0);
    }
    let total: f64 = r.flows.iter().map(|f| f.delivered_pps).sum();
    assert!((total - r.total_delivered_pps).abs() < 1.0);
    assert_eq!(r.chains[0].delivered, r.flow(0).delivered);
    assert_eq!(r.policy, "BATCH");
    assert_eq!(r.variant, "NFVnice");
}
