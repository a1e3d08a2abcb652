//! Four core domains, shared chains, and cross-core backpressure.
//!
//! Four NFs pinned one-per-core form two chains that cross core
//! boundaries and share their entry NF: a cheap chain that stays fast and
//! an expensive chain that bottlenecks on its last hop. The engine keeps
//! one `CoreDomain` per core — activity flag, homed NFs, CPU accounting —
//! so each core's scheduling proceeds independently while backpressure
//! coordinates them: the bottleneck on core 3 throttles admission at the
//! shared entry NF on core 0 without dragging the clean chain down.
//!
//! Run with: `cargo run --release --bin multicore_domains`

use nfvnice::{Duration, NfSpec, NfvniceConfig, Policy, SimConfig, Simulation};

fn main() {
    let mut cfg = SimConfig::default();
    cfg.platform.nf_cores = 4;
    cfg.platform.policy = Policy::CfsBatch;
    cfg.nfvnice = NfvniceConfig::full();
    let mut sim = Simulation::new(cfg);

    let entry = sim.add_nf(NfSpec::new("classifier", 0, 200));
    let nat = sim.add_nf(NfSpec::new("nat", 1, 300));
    let shaper = sim.add_nf(NfSpec::new("shaper", 2, 450));
    let dpi = sim.add_nf(NfSpec::new("dpi", 3, 8_000)); // ~325 kpps bottleneck

    let clean = sim.add_chain(&[entry, nat]);
    let deep = sim.add_chain(&[entry, shaper, dpi]);
    sim.add_udp(clean, 2_000_000.0, 64);
    sim.add_udp(deep, 2_000_000.0, 64);

    let r = sim.run(Duration::from_secs(2));

    println!("multicore domains: 4 cores, shared entry, cross-core chains\n");
    println!("per-NF view (one NF per core domain):");
    println!("  nf          core  processed    cpu%   shares");
    for nf in &r.nfs {
        println!(
            "  {:<10}  {:>4}  {:>9}  {:>5.1}  {:>7}",
            nf.name,
            nf.core,
            nf.processed,
            nf.cpu_util * 100.0,
            nf.final_shares
        );
    }
    println!("\nper-chain delivery:");
    for (label, flow) in [
        ("clean (entry→nat)", 0usize),
        ("deep (entry→shaper→dpi)", 1),
    ] {
        println!(
            "  {:<24} {:>8.0} kpps  (p99 {:?})",
            label,
            r.flow(flow).delivered_pps / 1e3,
            r.flow(flow).latency_p99
        );
    }
    println!("\nthrottle events: {}", r.throttle_events);
    // Isolation: the clean chain keeps its full 2 Mpps offered load even
    // though it shares its entry NF with the bottlenecked deep chain,
    // which stays pinned near dpi's ~325 kpps service rate.
    assert!(
        r.flow(0).delivered_pps > 0.95 * 2_000_000.0,
        "clean chain must not be dragged down by the deep chain's bottleneck"
    );
    assert!(
        r.flow(1).delivered_pps < 0.5 * 2_000_000.0,
        "deep chain should be limited by its dpi bottleneck"
    );
}
