//! Performance isolation between responsive and non-responsive flows
//! (the paper's §4.3.4 / Fig 13 scenario, compressed 5×).
//!
//! A TCP flow shares two NFs on one core with ten UDP flows whose chain
//! continues to a heavy bottleneck NF on another core. Without NFVnice,
//! the UDP packets — doomed to die at the bottleneck — saturate the shared
//! core and crush TCP. With per-flow backpressure the UDP load is shed at
//! entry and TCP keeps its bandwidth while UDP still gets the bottleneck
//! rate.
//!
//! Run with: `cargo run --release --bin performance_isolation`

#![forbid(unsafe_code)]

use nfvnice::{Duration, NfSpec, NfvniceConfig, Policy, SimConfig, SimTime, Simulation};

const SCALE: u64 = 5; // compress the paper's 55 s timeline to 11 s

fn run(variant: NfvniceConfig) -> (nfvnice::Report, usize, Vec<usize>) {
    let mut cfg = SimConfig::default();
    cfg.platform.nf_cores = 2;
    cfg.platform.policy = Policy::CfsBatch;
    cfg.nfvnice = variant;
    let mut sim = Simulation::new(cfg);
    let nf1 = sim.add_nf(NfSpec::new("NF1-low", 0, 120));
    let nf2 = sim.add_nf(NfSpec::new("NF2-med", 0, 270));
    let nf3 = sim.add_nf(NfSpec::new("NF3-heavy", 1, 4753)); // ~280 Mbit/s of 64 B
    let tcp_chain = sim.add_chain(&[nf1, nf2]);
    let tcp = sim.add_tcp_with(tcp_chain, 1500, Duration::from_micros(100), |t| {
        t.with_max_cwnd(33.0) // receiver window ⇒ ~4 Gbit/s ceiling
    });
    let mut udp = Vec::new();
    for _ in 0..10 {
        let chain = sim.add_chain(&[nf1, nf2, nf3]); // per-flow chain
        let f = sim.add_udp_with(chain, 800_000.0, 64, |f| {
            f.window(
                SimTime::from_millis(15_000 / SCALE),
                SimTime::from_millis(40_000 / SCALE),
            )
        });
        udp.push(f.index());
    }
    let r = sim.run(Duration::from_millis(55_000 / SCALE));
    (r, tcp.index(), udp)
}

fn main() {
    let (d, dtcp, dudp) = run(NfvniceConfig::off());
    let (n, ntcp, nudp) = run(NfvniceConfig::full());
    println!(
        "sec   TCP Mbps (Default)  UDP Mbps (Default)  TCP Mbps (NFVnice)  UDP Mbps (NFVnice)"
    );
    let (d_tcp, n_tcp) = (d.flow_mbps(dtcp), n.flow_mbps(ntcp));
    for sec in 0..d_tcp.len() {
        let sum = |r: &nfvnice::Report, flows: &[usize]| -> f64 {
            flows
                .iter()
                .map(|&f| r.flow_mbps(f).get(sec).copied().unwrap_or(0.0))
                .sum()
        };
        println!(
            "{:>3}   {:>18.1}  {:>18.1}  {:>18.1}  {:>18.1}",
            (sec as u64 + 1) * SCALE,
            d_tcp[sec],
            sum(&d, &dudp),
            n_tcp[sec],
            sum(&n, &nudp),
        );
    }
    println!("\nWhile UDP blasts (middle rows), default TCP collapses; NFVnice holds it.");
}
