//! NF failure and recovery in a loaded service chain.
//!
//! The canonical Low/Med/High chain shares one core at an offered load
//! above its capacity, so backpressure is actively throttling when the
//! bottleneck NF is crashed mid-run. The example contrasts the recovery
//! policy on and off:
//!
//! - with recovery, the manager clears the dead NF's backpressure marks,
//!   sheds the chain at entry during the outage, respawns the NF after
//!   10 ms and the chain returns to its pre-crash goodput;
//! - without recovery, the chain stays down — but degrades *gracefully*:
//!   packets are shed at entry before any CPU touches them, nothing
//!   leaks from the mempool, and no NF panics or spins on doomed work.
//!
//! A second scenario injects a stall (the NF spins without progress) and
//! lets the liveness watchdog detect and restart it.
//!
//! Run with: `cargo run --release --bin chain_failover`

#![forbid(unsafe_code)]

use nfvnice::{
    Duration, FaultKind, NfId, NfSpec, ObsConfig, Report, SimConfig, SimTime, Simulation, TraceKind,
};

const CRASH_AT_MS: u64 = 300;
const RUN_MS: u64 = 900;

fn build(recovery: bool, kind: FaultKind, stall_ticks: u32) -> Simulation {
    let mut cfg = SimConfig::default();
    cfg.platform.nf_cores = 1;
    cfg.obs = ObsConfig::all();
    cfg.faults.recovery = recovery;
    cfg.faults.stall_ticks = stall_ticks;
    // NfId(2) is the bottleneck "high" NF deployed below.
    cfg.faults = cfg
        .faults
        .with_fault(SimTime::from_millis(CRASH_AT_MS), NfId(2), kind);
    let mut sim = Simulation::new(cfg);
    let low = sim.add_nf(NfSpec::new("low", 0, 120));
    let med = sim.add_nf(NfSpec::new("med", 0, 270));
    let high = sim.add_nf(NfSpec::new("high", 0, 550));
    let chain = sim.add_chain(&[low, med, high]);
    sim.add_udp(chain, 3_200_000.0, 64);
    sim
}

fn describe(title: &str, sim: &mut Simulation, r: &Report) {
    println!("== {title} ==");
    println!(
        "  delivered {:.3} Mpps over {} ms  crashes={} restarts={} stalls_detected={}",
        r.throughput_mpps(),
        RUN_MS,
        r.nf_crashes,
        r.nf_restarts,
        r.nf_stalls_detected,
    );
    println!(
        "  drops: entry-shed={}  dead-NF={}  wasted-downstream={}",
        r.entry_drops, r.nf_down_drops, r.total_wasted_drops
    );
    // Per-second goodput from the report series shows the dip and the
    // recovery (crash lands in second 0).
    let chain_mbps: Vec<String> = r.flow_mbps(0).iter().map(|m| format!("{m:.0}")).collect();
    println!("  per-second goodput (Mbit/s): [{}]", chain_mbps.join(", "));
    let events = sim.take_trace();
    for e in &events {
        match e.kind {
            TraceKind::NfCrash { nf } => {
                println!("  t={:>6} us  crash      NF{nf}", e.t.as_micros())
            }
            TraceKind::NfStallDetect { nf } => {
                println!(
                    "  t={:>6} us  stall-detect NF{nf} (watchdog)",
                    e.t.as_micros()
                )
            }
            TraceKind::NfRestart { nf } => {
                println!("  t={:>6} us  restart    NF{nf}", e.t.as_micros())
            }
            _ => {}
        }
    }
    println!();
}

fn main() {
    let run = Duration::from_millis(RUN_MS);

    let mut sim = build(true, FaultKind::Crash, 0);
    let r = sim.run(run);
    sim.sanitizer.assert_clean();
    describe("bottleneck crash, recovery ON", &mut sim, &r);
    assert_eq!(r.nf_restarts, 1, "recovery must respawn the crashed NF");

    let mut sim = build(false, FaultKind::Crash, 0);
    let r = sim.run(run);
    sim.sanitizer.assert_clean();
    describe("bottleneck crash, recovery OFF", &mut sim, &r);
    assert_eq!(r.nf_restarts, 0);

    let mut sim = build(true, FaultKind::Stall, 5);
    let r = sim.run(run);
    sim.sanitizer.assert_clean();
    describe("bottleneck stall, watchdog ON", &mut sim, &r);
    assert_eq!(r.nf_stalls_detected, 1, "watchdog must flag the stall");

    println!("A dead bottleneck never wedges the system: its backpressure marks");
    println!("are cleared at crash time, its packets return to the mempool, and");
    println!("chains through it shed at entry until the respawn brings it back.");
}
