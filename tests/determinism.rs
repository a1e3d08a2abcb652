//! Determinism differential: every example scenario, run twice with the
//! same seed, must produce bit-identical event traces. The trace digest
//! (FNV-1a over every `(time, event)` pair, see `nfv_des::Sanitizer`) is
//! compared via `Report::trace_digest`, so any divergence anywhere in the
//! event stream — ordering, timing, or payload — fails the property.
//!
//! The scenarios mirror the six example binaries (`examples/*.rs`) with
//! durations compressed for debug-mode test runs.

#![forbid(unsafe_code)]

use nfvnice::{
    Duration, IoMode, NfAction, NfIoSpec, NfSpec, NfvniceConfig, Packet, PacketHandler, Policy,
    SimConfig, SimTime, Simulation,
};
use proptest::prelude::*;

fn base_cfg(seed: u64, cores: usize, policy: Policy) -> SimConfig {
    let mut cfg = SimConfig::default();
    cfg.platform.nf_cores = cores;
    cfg.platform.policy = policy;
    cfg.nfvnice = NfvniceConfig::full();
    cfg.seed = seed;
    cfg
}

/// `examples/quickstart.rs`: heterogeneous 3-NF chain on one core at line
/// rate.
fn quickstart(seed: u64) -> u64 {
    let mut sim = Simulation::new(base_cfg(seed, 1, Policy::CfsBatch));
    let low = sim.add_nf(NfSpec::new("firewall-low", 0, 120));
    let med = sim.add_nf(NfSpec::new("nat-med", 0, 270));
    let high = sim.add_nf(NfSpec::new("dpi-high", 0, 550));
    let chain = sim.add_chain(&[low, med, high]);
    sim.add_udp(chain, 14_880_000.0, 64);
    sim.run(Duration::from_millis(15)).trace_digest
}

struct SamplingFirewall {
    seen: u64,
}

impl PacketHandler for SamplingFirewall {
    fn handle(&mut self, _pkt: &mut Packet, _now: SimTime) -> NfAction {
        self.seen += 1;
        if self.seen.is_multiple_of(100) {
            NfAction::Drop
        } else {
            NfAction::Forward
        }
    }
}

/// `examples/service_chain_backpressure.rs`: growing-cost chain, one NF per
/// core, with a custom handler in the middle.
fn service_chain_backpressure(seed: u64) -> u64 {
    let mut sim = Simulation::new(base_cfg(seed, 3, Policy::CfsNormal));
    let nf1 = sim.add_nf(NfSpec::new("classifier", 0, 550));
    let nf2 = sim.add_nf_with_handler(
        NfSpec::new("firewall", 1, 2200),
        Box::new(SamplingFirewall { seen: 0 }),
    );
    let nf3 = sim.add_nf(NfSpec::new("dpi", 2, 4500));
    let chain = sim.add_chain(&[nf1, nf2, nf3]);
    sim.add_udp(chain, 14_880_000.0, 64);
    sim.run(Duration::from_millis(15)).trace_digest
}

/// `examples/performance_isolation.rs`: a TCP flow sharing two NFs with
/// windowed UDP blasts whose chain ends at a remote bottleneck.
fn performance_isolation(seed: u64) -> u64 {
    let mut sim = Simulation::new(base_cfg(seed, 2, Policy::CfsBatch));
    let nf1 = sim.add_nf(NfSpec::new("NF1-low", 0, 120));
    let nf2 = sim.add_nf(NfSpec::new("NF2-med", 0, 270));
    let nf3 = sim.add_nf(NfSpec::new("NF3-heavy", 1, 4753));
    let tcp_chain = sim.add_chain(&[nf1, nf2]);
    sim.add_tcp_with(tcp_chain, 1500, Duration::from_micros(100), |t| {
        t.with_max_cwnd(33.0)
    });
    for _ in 0..4 {
        let chain = sim.add_chain(&[nf1, nf2, nf3]);
        sim.add_udp_with(chain, 800_000.0, 64, |f| {
            f.window(SimTime::from_millis(30), SimTime::from_millis(80))
        });
    }
    sim.run(Duration::from_millis(110)).trace_digest
}

/// `examples/io_bound_nf.rs`: async logger with double buffering; one of
/// two flows is logged to the simulated device.
fn io_bound_nf(seed: u64) -> u64 {
    let mut sim = Simulation::new(base_cfg(seed, 1, Policy::CfsBatch));
    let fwd = sim.add_nf(NfSpec::new("forwarder", 0, 250));
    let logger = sim.add_nf(NfSpec::new("pkt-logger", 0, 300).with_io(NfIoSpec {
        bytes_per_packet: 256,
        mode: IoMode::Async {
            buf_size: 64 * 1024,
        },
    }));
    let c1 = sim.add_chain(&[fwd, logger]);
    let c2 = sim.add_chain(&[fwd, logger]);
    let logged = sim.add_udp(c1, 2_000_000.0, 256);
    sim.add_udp(c2, 2_000_000.0, 256);
    sim.mark_io_flow(logged);
    sim.run(Duration::from_millis(60)).trace_digest
}

/// `examples/enterprise_chain.rs`: policer → firewall → NAT → monitor with
/// functional `nfv-apps` handlers and three tenant flows.
fn enterprise_chain(seed: u64) -> u64 {
    use nfv_apps::{Firewall, FlowMonitor, Nat, Rule, TokenBucket, Verdict};
    let mut sim = Simulation::new(base_cfg(seed, 1, Policy::CfsBatch));
    let policer = sim.add_nf_with_handler(
        NfSpec::new("policer", 0, 150),
        Box::new(TokenBucket::new(200_000.0, 1_000)),
    );
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
    for rate in [150_000.0, 100_000.0, 50_000.0] {
        sim.add_udp(chain, rate, 128);
    }
    sim.run(Duration::from_millis(80)).trace_digest
}

/// `examples/multicore_domains.rs`: four NFs pinned one-per-core, two
/// chains crossing core boundaries through a shared entry NF, with the
/// deep chain bottlenecked on its last hop. Exercises the engine's
/// per-core domains (independent `CoreRun`/`BatchDone` streams per core)
/// under cross-core backpressure.
fn multicore_domains(seed: u64) -> u64 {
    multicore_domains_sim(seed)
        .run(Duration::from_millis(25))
        .trace_digest
}

fn multicore_domains_sim(seed: u64) -> Simulation {
    let mut sim = Simulation::new(base_cfg(seed, 4, Policy::CfsBatch));
    let entry = sim.add_nf(NfSpec::new("classifier", 0, 200));
    let nat = sim.add_nf(NfSpec::new("nat", 1, 300));
    let shaper = sim.add_nf(NfSpec::new("shaper", 2, 450));
    let dpi = sim.add_nf(NfSpec::new("dpi", 3, 8_000));
    let clean = sim.add_chain(&[entry, nat]);
    let deep = sim.add_chain(&[entry, shaper, dpi]);
    sim.add_udp(clean, 2_000_000.0, 64);
    sim.add_udp(deep, 2_000_000.0, 64);
    sim
}

/// A named scenario builder: seed in, trace digest out.
type Scenario = (&'static str, fn(u64) -> u64);

const SCENARIOS: [Scenario; 6] = [
    ("quickstart", quickstart),
    ("service_chain_backpressure", service_chain_backpressure),
    ("performance_isolation", performance_isolation),
    ("io_bound_nf", io_bound_nf),
    ("enterprise_chain", enterprise_chain),
    ("multicore_domains", multicore_domains),
];

proptest! {
    #![proptest_config(ProptestConfig { cases: 3, ..ProptestConfig::default() })]

    /// Property: for any seed, each example scenario replays to the exact
    /// same event trace.
    #[test]
    fn same_seed_same_trace(seed in 0u64..10_000) {
        for (name, scenario) in SCENARIOS {
            let a = scenario(seed);
            let b = scenario(seed);
            prop_assert_eq!(a, b, "{} diverged for seed {}", name, seed);
            prop_assert!(a != 0, "{} produced an empty trace", name);
        }
    }
}

/// Four-core differential: two same-seed runs of the multicore scenario
/// must agree not only on the trace digest but on the *entire report* —
/// per-NF counters, per-flow latencies, per-core CPU series. Guards the
/// engine's per-core domain bookkeeping (activity flags, CPU snapshots,
/// weight scratch) against any per-run state leaking across cores.
#[test]
fn multicore_same_seed_identical_reports() {
    let run = |seed| {
        let mut sim = multicore_domains_sim(seed);
        let r = sim.run(Duration::from_millis(25));
        (r.trace_digest, format!("{r:?}"))
    };
    let (da, ra) = run(42);
    let (db, rb) = run(42);
    assert_eq!(da, db, "trace digests diverged on 4 cores");
    assert_eq!(ra, rb, "reports diverged on 4 cores");
    assert_ne!(da, 0, "empty trace");
}

/// Poisson arrivals consume `SimRng`, so the digest must react to the seed
/// — a digest that ignores the seed would pass `same_seed_same_trace`
/// vacuously.
#[test]
fn digest_is_seed_sensitive_with_randomized_arrivals() {
    let run = |seed| {
        let mut sim = Simulation::new(base_cfg(seed, 1, Policy::CfsBatch));
        let nf = sim.add_nf(NfSpec::new("nf", 0, 300));
        let chain = sim.add_chain(&[nf]);
        sim.add_udp_with(chain, 500_000.0, 64, |f| f.poisson());
        sim.run(Duration::from_millis(40)).trace_digest
    };
    assert_eq!(run(11), run(11));
    assert_ne!(run(11), run(12));
}
