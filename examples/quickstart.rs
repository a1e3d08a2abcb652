//! Quickstart: deploy a three-NF service chain on one shared core, drive it
//! at 10 G line rate, and compare the stock scheduler against NFVnice.
//!
//! Run with: `cargo run --release --bin quickstart`

#![forbid(unsafe_code)]

use nfvnice::{Duration, NfSpec, NfvniceConfig, Policy, SimConfig, Simulation};

fn run(variant: NfvniceConfig) -> nfvnice::Report {
    let mut cfg = SimConfig::default();
    cfg.platform.nf_cores = 1;
    cfg.platform.policy = Policy::CfsBatch;
    cfg.nfvnice = variant;

    let mut sim = Simulation::new(cfg);
    // The paper's canonical heterogeneous chain: 120 / 270 / 550 cycles
    // per packet, all three NFs contending for the same core.
    let low = sim.add_nf(NfSpec::new("firewall-low", 0, 120));
    let med = sim.add_nf(NfSpec::new("nat-med", 0, 270));
    let high = sim.add_nf(NfSpec::new("dpi-high", 0, 550));
    let chain = sim.add_chain(&[low, med, high]);
    // One UDP flow at 64 B line rate (14.88 Mpps) — far beyond the chain's
    // ~2.8 Mpps single-core capacity, so resource management decides who
    // does useful work and who wastes it.
    sim.add_udp(chain, 14_880_000.0, 64);
    sim.run(Duration::from_secs(1))
}

fn main() {
    println!("== Default (vanilla CFS-batch, no NFVnice) ==");
    let default = run(NfvniceConfig::off());
    print!("{}", default.summary());

    println!("\n== NFVnice (cgroup weights + chain-aware backpressure) ==");
    let nice = run(NfvniceConfig::full());
    print!("{}", nice.summary());

    println!(
        "\nthroughput: {:.3} -> {:.3} Mpps   wasted work: {} -> {} packets",
        default.throughput_mpps(),
        nice.throughput_mpps(),
        default.total_wasted_drops,
        nice.total_wasted_drops,
    );
}
