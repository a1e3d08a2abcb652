//! Trace pins of the NF lifecycle paths: crash, restart, watchdog kill,
//! slowdown, scale-out, migration and scale-in.
//!
//! The golden hashes of the bench suite cover stdout and the metrics
//! document, not the structured trace these paths emit, and the engine
//! pins cover the digest of the event stream only. Each scenario here
//! runs with every observability sink on and pins, exactly, the trace
//! digest, the report's lifecycle counters, the count of every
//! lifecycle trace kind and an FNV-1a hash of the JSONL trace. Any
//! reordering of a lifecycle step (marks cleared before or after the
//! platform call, shares recomputed immediately or at the next tick, a
//! watchdog that forgets to rebase) moves at least one of them.

#![forbid(unsafe_code)]

use nfv_pkt::TuplePattern;
use nfvnice::{
    trace_to_jsonl, Duration, ElasticConfig, FaultKind, NfId, NfSpec, NfvniceConfig, ObsConfig,
    Policy, SimConfig, SimTime, Simulation, SweepSource,
};

/// Trace kinds the lifecycle paths emit, in the order of
/// [`Pin::kinds`].
const KINDS: [&str; 8] = [
    "nf_crash",
    "nf_restart",
    "nf_stall_detect",
    "nf_scale_out",
    "nf_migrate",
    "nf_scale_in",
    "share_write",
    "throttle_exit",
];

/// Everything pinned about one run.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    trace_digest: u64,
    /// crashes, restarts, stalls detected, scale-outs, migrations,
    /// scale-ins, as the report counts them.
    counters: [u64; 6],
    /// Trace events of each kind in [`KINDS`].
    kinds: [u64; 8],
    /// FNV-1a over the JSONL export of the whole trace.
    jsonl_fnv: u64,
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn pin(mut sim: Simulation, run: Duration) -> Pin {
    let r = sim.run(run);
    sim.sanitizer.assert_clean();
    let trace = sim.take_trace();
    let mut kinds = [0u64; 8];
    for ev in &trace {
        if let Some(k) = KINDS.iter().position(|&k| k == ev.kind.label()) {
            kinds[k] += 1;
        }
    }
    Pin {
        trace_digest: r.trace_digest,
        counters: [
            r.nf_crashes,
            r.nf_restarts,
            r.nf_stalls_detected,
            r.nf_scale_outs,
            r.nf_migrations,
            r.nf_scale_ins,
        ],
        kinds,
        jsonl_fnv: fnv1a(trace_to_jsonl(&trace).as_bytes()),
    }
}

fn cfg(cores: usize) -> SimConfig {
    let mut cfg = SimConfig::default();
    cfg.platform.nf_cores = cores;
    cfg.platform.policy = Policy::CfsBatch;
    cfg.nfvnice = NfvniceConfig::full();
    cfg.sanitizer = nfvnice::SanitizerConfig::strict();
    cfg.obs = ObsConfig::all();
    cfg
}

/// The fig-7 Low/Med/High chain on one core, overloaded. The bottleneck
/// crashes and is respawned, the middle NF wedges and the watchdog kills
/// and restarts it, and the entry NF slows down for a while.
fn fault_scenario() -> Simulation {
    let mut c = cfg(1);
    c.platform.policy = Policy::CfsNormal;
    c.faults.stall_ticks = 5;
    c.faults = c
        .faults
        .with_fault(SimTime::from_millis(10), NfId(2), FaultKind::Crash)
        .with_fault(SimTime::from_millis(30), NfId(1), FaultKind::Stall)
        .with_fault(
            SimTime::from_millis(50),
            NfId(0),
            FaultKind::Slowdown {
                factor: 4,
                duration: Duration::from_millis(8),
            },
        );
    let mut sim = Simulation::new(c);
    let low = sim.add_nf(NfSpec::new("NF1-low", 0, 120));
    let med = sim.add_nf(NfSpec::new("NF2-med", 0, 270));
    let high = sim.add_nf(NfSpec::new("NF3-high", 0, 550));
    let chain = sim.add_chain(&[low, med, high]);
    sim.add_udp(chain, 3_200_000.0, 64);
    sim
}

/// Two cores: a cheap forwarder and a heavy NF share core 0 under a
/// windowed overload, and a flash sweep of fresh flows lands on the
/// heavy chain. Every elastic direction is on.
fn elastic_scenario() -> Simulation {
    let mut c = cfg(2);
    c.elastic = ElasticConfig::full();
    let mut sim = Simulation::new(c);
    let cheap = sim.add_nf(NfSpec::new("cheap", 0, 120));
    let heavy = sim.add_nf(NfSpec::new("heavy", 0, 26_000));
    let cc = sim.add_chain(&[cheap]);
    let hc = sim.add_chain(&[heavy]);
    let stop = SimTime::from_millis(150);
    sim.add_udp_with(cc, 1_000_000.0, 64, |f| f.window(SimTime::ZERO, stop));
    sim.add_udp_with(hc, 1_000_000.0, 64, |f| f.window(SimTime::ZERO, stop));
    sim.add_wildcard(TuplePattern::any(), hc, 0);
    sim.add_sweep(SweepSource::flash(
        1 << 16,
        4096,
        64,
        400_000.0,
        SimTime::from_millis(60),
        Duration::from_millis(80),
    ));
    sim
}

#[test]
fn fault_lifecycle_trace_is_pinned() {
    let want = Pin {
        trace_digest: 17_539_266_211_737_018_430,
        counters: [2, 2, 1, 0, 0, 0],
        kinds: [2, 2, 1, 0, 0, 0, 24, 6],
        jsonl_fnv: 11_033_947_875_677_564_461,
    };
    assert_eq!(pin(fault_scenario(), Duration::from_millis(70)), want);
}

#[test]
fn elastic_lifecycle_trace_is_pinned() {
    let want = Pin {
        trace_digest: 14_746_549_312_153_390_056,
        counters: [0, 0, 0, 1, 1, 1],
        kinds: [0, 0, 0, 1, 1, 1, 4, 4],
        jsonl_fnv: 9_737_466_718_444_070_002,
    };
    assert_eq!(pin(elastic_scenario(), Duration::from_millis(400)), want);
}
