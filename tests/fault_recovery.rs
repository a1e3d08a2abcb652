//! Fault injection end-to-end: crash the bottleneck NF of the canonical
//! fig-7 chain mid-run while backpressure is actively throttling, and
//! verify the failure neither panics nor wedges the system — the dead
//! NF's throttle marks are cleared, packets for its chain are shed at
//! entry (not leaked), and after the respawn the chain's goodput returns
//! to its pre-crash rate.
//!
//! Goodput is windowed into thirds with the deterministic prefix
//! property: a run truncated at `t` replays exactly the first `t` of a
//! longer same-seed run, so two shorter probe runs delimit the pre-fault
//! and final windows of the full run without any mid-run instrumentation.
//!
//! A determinism differential closes the suite: two same-seed faulted
//! runs must agree on the trace digest *and* the entire report, and the
//! faulted digest must differ from the unfaulted one (the fault events
//! are part of the replayed trace, not out-of-band mutations).

#![forbid(unsafe_code)]

use nfvnice::{
    DropCause, Duration, FaultKind, NfId, NfSpec, NfvniceConfig, Policy, SanitizerConfig,
    SimConfig, SimTime, Simulation, TraceKind,
};

/// Offered load (pps), above the one-core chain's ~2.77 Mpps capacity so
/// the bottleneck holds throttle marks when the crash lands.
const RATE: f64 = 3_200_000.0;
/// Full run length; the crash lands at one third of it. Short enough for
/// debug-mode test runs.
const RUN_MS: u64 = 150;

fn faulted_cfg(seed: u64, fault: Option<FaultKind>, recovery: bool) -> SimConfig {
    let mut cfg = SimConfig {
        seed,
        ..SimConfig::default()
    };
    cfg.platform.nf_cores = 1;
    cfg.platform.policy = Policy::CfsNormal;
    cfg.nfvnice = NfvniceConfig::full();
    cfg.sanitizer = SanitizerConfig::strict();
    cfg.faults.recovery = recovery;
    if let Some(kind) = fault {
        // NfId(2) is the bottleneck "high" NF deployed below.
        cfg.faults = cfg
            .faults
            .with_fault(SimTime::from_millis(RUN_MS / 3), NfId(2), kind);
    }
    cfg
}

/// The fig-7 Low/Med/High chain on one core.
fn build(cfg: SimConfig) -> Simulation {
    let mut sim = Simulation::new(cfg);
    let low = sim.add_nf(NfSpec::new("NF1-low", 0, 120));
    let med = sim.add_nf(NfSpec::new("NF2-med", 0, 270));
    let high = sim.add_nf(NfSpec::new("NF3-high", 0, 550));
    let chain = sim.add_chain(&[low, med, high]);
    sim.add_udp(chain, RATE, 64);
    sim
}

/// Chain-0 deliveries of the scenario truncated at `t` (prefix probe).
fn delivered_upto(seed: u64, fault: Option<FaultKind>, recovery: bool, t: Duration) -> u64 {
    build(faulted_cfg(seed, fault, recovery)).run(t).chains[0].delivered
}

/// Crash the bottleneck mid-run with recovery on: the run must stay
/// sanitizer-clean (conservation audited at every event) and the final
/// third's goodput must return to ≥90% of the pre-crash rate.
#[test]
fn bottleneck_crash_recovers_to_precrash_goodput() {
    let fault = Some(FaultKind::Crash);
    let third = Duration::from_millis(RUN_MS / 3);
    let d1 = delivered_upto(7, fault, true, third);
    let d2 = delivered_upto(7, fault, true, Duration::from_millis(2 * RUN_MS / 3));
    let mut sim = build(faulted_cfg(7, fault, true));
    let r = sim.run(Duration::from_millis(RUN_MS));
    sim.sanitizer.assert_clean();

    assert_eq!(r.nf_crashes, 1, "exactly the injected crash");
    assert_eq!(r.nf_restarts, 1, "recovery must respawn the crashed NF");
    assert!(
        r.nf_down_drops > 0,
        "the outage must shed the dead chain at entry"
    );
    let pre = d1;
    let post = r.chains[0].delivered - d2;
    assert!(
        post as f64 >= 0.9 * pre as f64,
        "final third did not recover: pre-crash {pre} pkts/third, final {post}"
    );
}

/// Without the recovery policy the chain stays down, but degrades
/// gracefully: entry admission sheds its packets, nothing panics, and —
/// because the dead NF's backpressure marks were cleared at crash time —
/// the sanitizer's suppression/hysteresis audits stay clean too.
#[test]
fn crash_without_recovery_sheds_at_entry_and_stays_clean() {
    let fault = Some(FaultKind::Crash);
    let d2 = delivered_upto(7, fault, false, Duration::from_millis(2 * RUN_MS / 3));
    let mut sim = build(faulted_cfg(7, fault, false));
    let r = sim.run(Duration::from_millis(RUN_MS));
    sim.sanitizer.assert_clean();

    assert_eq!(r.nf_crashes, 1);
    assert_eq!(r.nf_restarts, 0, "recovery disabled");
    let post = r.chains[0].delivered - d2;
    assert_eq!(post, 0, "a down chain must deliver nothing");
    assert!(
        r.nf_down_drops > 0,
        "doomed packets are shed at entry, not queued forever"
    );
}

/// Determinism differential: two same-seed faulted runs must be
/// bit-identical — same trace digest, same full report — and the digest
/// must react to the fault (a faulted run is a different trace than an
/// unfaulted one). Seed sensitivity is covered by `determinism.rs`,
/// which uses Poisson arrivals; the CBR arrivals here draw no RNG.
#[test]
fn faulted_runs_are_deterministic_and_fault_sensitive() {
    let run = |seed, fault| {
        let mut sim = build(faulted_cfg(seed, fault, true));
        let r = sim.run(Duration::from_millis(RUN_MS));
        sim.sanitizer.assert_clean();
        (r.trace_digest, format!("{r:?}"))
    };
    let (da, ra) = run(42, Some(FaultKind::Crash));
    let (db, rb) = run(42, Some(FaultKind::Crash));
    assert_eq!(da, db, "same-seed faulted runs diverged");
    assert_eq!(ra, rb, "same-seed faulted reports diverged");
    assert_ne!(da, 0, "empty trace");

    let (healthy, _) = run(42, None);
    assert_ne!(da, healthy, "the fault must be part of the replayed trace");
}

/// Cgroup shares must reconverge *immediately* on a domain-membership
/// change, not at the next 10 ms weight tick. Timeline (weight ticks at
/// 50/60 ms): crash the bottleneck at 52 ms, respawn at 57 ms, end the
/// run at 59 ms — no weight tick fires after the crash, so every share
/// movement observed below comes from the immediate recomputes in
/// `kill_nf` / `do_respawn`. Pre-fix code (periodic tick only) leaves
/// all three shares frozen at their 50 ms values.
#[test]
fn shares_reconverge_immediately_on_crash_and_respawn() {
    let shares_at = |t_ms: u64| {
        let mut cfg = faulted_cfg(11, Some(FaultKind::Crash), true);
        cfg.faults.respawn_delay = Duration::from_millis(5);
        cfg.faults.events.clear();
        cfg.faults = cfg
            .faults
            .with_fault(SimTime::from_millis(52), NfId(2), FaultKind::Crash);
        let mut sim = build(cfg);
        sim.run(Duration::from_millis(t_ms));
        let p = &sim.platform;
        [0, 1, 2].map(|i| p.cgroups.shares(p.nfs[i].task))
    };
    let pre = shares_at(51); // after the 50 ms weight tick, before the crash
    let down = shares_at(55); // after the crash, before the respawn
    let post = shares_at(59); // after the respawn, before the 60 ms tick

    assert_ne!(
        (down[0], down[1]),
        (pre[0], pre[1]),
        "survivors must be re-weighted at crash time, not at the next tick"
    );
    assert_eq!(
        down[2], pre[2],
        "a parked task claims no share and is skipped by the recompute"
    );
    assert_ne!(
        post[2], down[2],
        "the respawned NF must be folded back into the split immediately"
    );
}

/// The watchdog path: a stalled NF (runnable, burning CPU, zero
/// progress) is detected from progress counters, killed and respawned —
/// deterministically.
#[test]
fn watchdog_detects_stall_and_restarts() {
    let run = || {
        let mut cfg = faulted_cfg(9, Some(FaultKind::Stall), true);
        cfg.faults.stall_ticks = 5;
        let mut sim = build(cfg);
        let r = sim.run(Duration::from_millis(RUN_MS));
        sim.sanitizer.assert_clean();
        r
    };
    let r = run();
    assert_eq!(r.nf_stalls_detected, 1, "watchdog must flag the stall");
    assert_eq!(r.nf_crashes, 1, "the stalled NF is killed");
    assert_eq!(r.nf_restarts, 1, "and respawned");
    let r2 = run();
    assert_eq!(r.trace_digest, r2.trace_digest, "watchdog path diverged");
}

/// A heavy entry NF (a full 32-packet batch takes ~0.6 ms) offered
/// `rate` pps wedges at 5 ms; the watchdog (2 ticks) kills it at 8 ms
/// and it respawns 0.5 ms later, before the next scan. Returns the
/// report of a 30 ms run.
fn fast_respawn_after_a_stall(rate: f64) -> nfvnice::Report {
    let mut cfg = faulted_cfg(5, None, true);
    cfg.faults.stall_ticks = 2;
    cfg.faults.respawn_delay = Duration::from_micros(500);
    cfg.faults = cfg
        .faults
        .with_fault(SimTime::from_millis(5), NfId(0), FaultKind::Stall);
    let mut sim = Simulation::new(cfg);
    let heavy = sim.add_nf(NfSpec::new("heavy", 0, 50_000));
    let chain = sim.add_chain(&[heavy]);
    sim.add_udp(chain, rate, 64);
    let r = sim.run(Duration::from_millis(30));
    sim.sanitizer.assert_clean();
    assert!(r.chains[0].delivered > 0);
    r
}

/// At a light load the killed NF's last spin batch is still on the CPU
/// when it respawns. That batch's end event must retire the old
/// incarnation's task and leave the fresh one blocked on its RX ring
/// for the wakeup thread to re-admit — not look for the batch the crash
/// freed, and not leave an unblocked NF with a parked task for the
/// watchdog to kill again.
#[test]
fn respawn_during_the_killed_batch_readmits_the_nf() {
    let r = fast_respawn_after_a_stall(100_000.0);
    assert_eq!(r.nf_stalls_detected, 1, "one stall: the injected one");
    assert_eq!((r.nf_crashes, r.nf_restarts), (1, 1));
}

/// At 100× its capacity the respawned NF's first batch is a full one,
/// still running at the next scan with its progress counter unmoved
/// since the stall. The watchdog must judge it from its restart, not
/// from the streak that got it killed.
#[test]
fn respawn_restarts_the_watchdog_count() {
    let r = fast_respawn_after_a_stall(5_000_000.0);
    assert_eq!(r.nf_stalls_detected, 1, "one stall: the injected one");
    assert_eq!((r.nf_crashes, r.nf_restarts), (1, 1));
}

/// A crash while the bottleneck throttles its chain must take the
/// chain's entry marks with it (`Backpressure::clear_nf`). Marks left
/// behind do not show while the NF is down — admission sheds a chain
/// through a dead NF as `NfDown` before it consults them — but they
/// outlive the outage: after the respawn, RX batches of the chain are
/// shed as `EntryThrottle` until the next wakeup scan sees the fresh
/// NF's empty ring and lifts them.
#[test]
fn respawn_does_not_inherit_the_dead_nfs_throttle_marks() {
    // The bottleneck enters throttle at 46.08 ms and is still there at
    // 46.5 ms.
    let crash = SimTime::from_micros(46_500);
    let mut cfg = faulted_cfg(7, None, true);
    cfg.faults = cfg.faults.with_fault(crash, NfId(2), FaultKind::Crash);
    cfg.obs.trace = true;
    let wakeup = cfg.wakeup_period;
    let mut sim = build(cfg);
    sim.run(Duration::from_millis(60));
    let trace = sim.take_trace();

    let throttled_at_crash = trace
        .iter()
        .take_while(|e| e.t < crash)
        .filter_map(|e| match e.kind {
            TraceKind::ThrottleEnter { nf: 2 } => Some(true),
            TraceKind::ThrottleExit { nf: 2 } => Some(false),
            _ => None,
        })
        .last();
    assert_eq!(
        throttled_at_crash,
        Some(true),
        "crash must land in throttle"
    );
    let restart = trace
        .iter()
        .find(|e| matches!(e.kind, TraceKind::NfRestart { nf: 2 }))
        .expect("the bottleneck respawns")
        .t;
    let shed = trace
        .iter()
        .filter(|e| e.t >= restart && e.t < restart + wakeup)
        .filter(|e| {
            matches!(
                e.kind,
                TraceKind::PacketDrop {
                    cause: DropCause::EntryThrottle,
                    ..
                }
            )
        })
        .count();
    assert_eq!(shed, 0, "entry sheds on marks of the dead incarnation");
}
