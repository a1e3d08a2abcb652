//! End-to-end backpressure behaviour: selective early discard, hysteresis,
//! cross-chain selectivity, local (TX-ring) backpressure and ECN marking.

#![forbid(unsafe_code)]

use nfvnice::{BackpressureConfig, Duration, NfSpec, NfvniceConfig, Policy, SimConfig, Simulation};

fn cfg(cores: usize, variant: NfvniceConfig) -> SimConfig {
    let mut c = SimConfig::default();
    c.platform.nf_cores = cores;
    c.platform.policy = Policy::CfsBatch;
    c.nfvnice = variant;
    c
}

/// Backpressure eliminates wasted work on an overloaded chain without
/// reducing delivered throughput.
#[test]
fn wasted_work_eliminated_throughput_kept() {
    let build = |variant| {
        let mut sim = Simulation::new(cfg(1, variant));
        let a = sim.add_nf(NfSpec::new("a", 0, 120));
        let b = sim.add_nf(NfSpec::new("b", 0, 550));
        let chain = sim.add_chain(&[a, b]);
        sim.add_udp(chain, 14_880_000.0, 64);
        sim.run(Duration::from_millis(500))
    };
    let d = build(NfvniceConfig::off());
    let n = build(NfvniceConfig::backpressure_only());
    assert!(d.total_wasted_drops > 100_000);
    assert!(n.total_wasted_drops * 100 < d.total_wasted_drops);
    assert!(n.total_delivered_pps >= d.total_delivered_pps * 0.95);
    assert!(n.entry_drops > 0);
    assert!(n.throttle_events > 0);
}

/// Fig 5's selectivity: a chain that avoids the bottleneck NF is not
/// penalized when a sibling chain through the bottleneck is throttled.
#[test]
fn unrelated_chain_unaffected_by_throttle() {
    let mut sim = Simulation::new(cfg(2, NfvniceConfig::full()));
    let shared = sim.add_nf(NfSpec::new("shared", 0, 200));
    let bottleneck = sim.add_nf(NfSpec::new("bneck", 1, 20_000)); // 130 kpps
    let clean = sim.add_chain(&[shared]);
    let congested = sim.add_chain(&[shared, bottleneck]);
    sim.add_udp(clean, 2_000_000.0, 64);
    sim.add_udp(congested, 2_000_000.0, 64);
    let r = sim.run(Duration::from_millis(500));
    // clean flow loses nothing; congested flow is capped at the bottleneck
    assert!(
        r.flow(0).delivered_pps > 1_900_000.0,
        "clean flow {}",
        r.flow(0).delivered_pps
    );
    assert!((100_000.0..180_000.0).contains(&r.flow(1).delivered_pps));
    assert!(r.chains[1].entry_drops > 0);
    assert_eq!(r.chains[0].entry_drops, 0);
}

/// Hysteresis: with the queuing-time threshold set very high, throttling
/// never engages even under overload (both gates must fire).
#[test]
fn qtime_threshold_gates_throttling() {
    let mut variant = NfvniceConfig::full();
    variant.bp = BackpressureConfig {
        qtime_threshold: Duration::from_secs(100),
        ..BackpressureConfig::default()
    };
    let mut sim = Simulation::new(cfg(1, variant));
    let a = sim.add_nf(NfSpec::new("a", 0, 120));
    let b = sim.add_nf(NfSpec::new("b", 0, 550));
    let chain = sim.add_chain(&[a, b]);
    sim.add_udp(chain, 14_880_000.0, 64);
    let r = sim.run(Duration::from_millis(300));
    assert_eq!(r.throttle_events, 0);
    assert_eq!(r.entry_drops, 0);
}

/// Local backpressure: a tiny TX ring throttles the producer without
/// losing processed packets (they wait in the outbox, never dropped).
#[test]
fn tx_ring_local_backpressure_is_lossless() {
    let mut sim = Simulation::new(cfg(1, NfvniceConfig::off()));
    let a = sim.add_nf(NfSpec::new("a", 0, 100).with_rings(16_384, 64));
    let b = sim.add_nf(NfSpec::new("b", 0, 100));
    let chain = sim.add_chain(&[a, b]);
    sim.add_udp(chain, 1_000_000.0, 64);
    let r = sim.run(Duration::from_millis(300));
    // Throughput flows despite the 64-slot TX ring, and no packet that NF a
    // processed is ever dropped between a's outbox and b's (large) ring.
    assert!(
        r.flow(0).delivered_pps > 800_000.0,
        "{}",
        r.flow(0).delivered_pps
    );
    assert_eq!(r.nfs[0].wasted_drops, 0);
}

/// ECN: a congested queue CE-marks ECT(0) TCP traffic, and the source
/// halves its window instead of overflowing the ring.
#[test]
fn ecn_marks_and_tcp_responds() {
    let mut sim = Simulation::new(cfg(1, NfvniceConfig::full()));
    // Slow NF: 2600 cycles → 1 Mpps capacity; TCP will try to exceed it.
    let nf = sim.add_nf(NfSpec::new("slow", 0, 2_600).with_rings(512, 512));
    let entry = sim.add_nf(NfSpec::new("entry", 0, 100).with_rings(512, 512));
    let chain = sim.add_chain(&[entry, nf]);
    let flow = sim.add_tcp_with(chain, 1500, Duration::from_micros(200), |t| t.with_ecn());
    let r = sim.run(Duration::from_millis(500));
    assert!(r.ecn_marks > 0, "no CE marks applied");
    let src = sim.tcp_source(flow);
    assert!(src.ecn_cuts > 0, "TCP never reacted to CE");
}
