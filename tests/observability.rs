//! Observability integration: recording must be a pure observer.
//!
//! Three properties pin the layer down:
//!
//! 1. **Digest invariance** — turning tracing/metrics on must not change
//!    the event-trace digest: recording never feeds back into any
//!    scheduling, admission or marking decision.
//! 2. **Byte determinism** — two runs of the same scenario with the same
//!    seed render byte-identical metrics JSON and trace JSONL.
//! 3. **Consistency** — trace event counts agree with the independently
//!    maintained `Report` counters (throttles, ECN marks, cgroup writes,
//!    entry drops).

#![forbid(unsafe_code)]

use nfvnice::{
    trace_to_csv, trace_to_jsonl, Duration, NfSpec, NfvniceConfig, ObsConfig, Policy, Report,
    SimConfig, Simulation, TraceEvent, TraceKind,
};

fn congested_cfg(obs: ObsConfig) -> SimConfig {
    let mut cfg = SimConfig::default();
    cfg.platform.nf_cores = 1;
    cfg.platform.policy = Policy::CfsBatch;
    cfg.nfvnice = NfvniceConfig::full();
    cfg.obs = obs;
    cfg
}

/// A 10× overloaded two-NF chain plus an ECN-capable TCP flow: exercises
/// throttling, entry discard, share writes, ECN marks, sleeps and wakes.
fn run_congested(obs: ObsConfig) -> (Simulation, Report) {
    let mut sim = Simulation::new(congested_cfg(obs));
    let a = sim.add_nf(NfSpec::new("light", 0, 120));
    let b = sim.add_nf(NfSpec::new("heavy", 0, 26_000));
    let chain = sim.add_chain(&[a, b]);
    sim.add_udp(chain, 1_000_000.0, 64);
    let tcp_chain = sim.add_chain(&[a, b]);
    sim.add_tcp_with(tcp_chain, 1500, Duration::from_micros(100), |t| {
        t.with_ecn()
    });
    let r = sim.run(Duration::from_millis(120));
    (sim, r)
}

#[test]
fn recording_does_not_perturb_the_trace_digest() {
    let (_, base) = run_congested(ObsConfig::default());
    let (_, observed) = run_congested(ObsConfig::all());
    assert_eq!(
        base.trace_digest, observed.trace_digest,
        "observability changed simulation behavior"
    );
    assert_eq!(base.total_delivered_pps, observed.total_delivered_pps);
    assert_eq!(base.throttle_events, observed.throttle_events);
}

#[test]
fn metrics_json_and_trace_jsonl_are_byte_deterministic() {
    let (mut s1, _) = run_congested(ObsConfig::all());
    let (mut s2, _) = run_congested(ObsConfig::all());
    let m1 = s1.take_metrics().to_json();
    let m2 = s2.take_metrics().to_json();
    assert!(!m1.is_empty());
    assert_eq!(m1, m2, "metrics JSON diverged between identical runs");
    let t1 = trace_to_jsonl(&s1.take_trace());
    let t2 = trace_to_jsonl(&s2.take_trace());
    assert!(!t1.is_empty());
    assert_eq!(t1, t2, "trace JSONL diverged between identical runs");
}

#[test]
fn trace_counts_match_report_counters() {
    let (sim, r) = run_congested(ObsConfig::all());
    let events: Vec<TraceEvent> = sim.take_trace();
    let count =
        |pred: fn(&TraceKind) -> bool| events.iter().filter(|e| pred(&e.kind)).count() as u64;
    assert_eq!(
        count(|k| matches!(k, TraceKind::ThrottleEnter { .. })),
        r.throttle_events,
        "throttle events"
    );
    assert_eq!(
        count(|k| matches!(k, TraceKind::EcnMark { .. })),
        r.ecn_marks,
        "ecn marks"
    );
    assert_eq!(
        count(|k| matches!(k, TraceKind::ShareWrite { .. })),
        r.cgroup_writes,
        "cgroup writes"
    );
    assert_eq!(
        count(|k| matches!(
            k,
            TraceKind::PacketDrop {
                cause: nfvnice::DropCause::EntryThrottle,
                ..
            }
        )),
        r.entry_drops,
        "entry drops"
    );
    // The congested scenario must actually exercise the interesting paths.
    assert!(r.throttle_events > 0, "no throttling happened");
    assert!(r.cgroup_writes > 0, "no share writes happened");
    assert!(r.entry_drops > 0, "no entry discard happened");
}

#[test]
fn metrics_sampling_follows_the_monitor_tick() {
    let (mut sim, r) = run_congested(ObsConfig::all());
    let m = sim.take_metrics();
    // 120 ms at a 1 ms sample period → 120 ticks (first at t=1ms).
    assert_eq!(m.samples(), 120);
    assert_eq!(m.nfs.len(), 2);
    assert_eq!(m.chains.len(), 2);
    assert_eq!(m.nfs[0].name, "light");
    // Columns stay aligned across every series.
    for nf in &m.nfs {
        assert_eq!(nf.qlen.len(), m.samples());
        assert_eq!(nf.shares.len(), m.samples());
        assert_eq!(nf.lambda_pps.len(), m.samples());
    }
    // The heavy NF was throttled at some sampled tick.
    assert!(
        m.nfs[1].throttled.contains(&1),
        "bottleneck never sampled as throttled"
    );
    // CSV renders both sections for the same recording.
    let csv = m.to_csv();
    assert!(csv.starts_with("t_ns,nf,name,"));
    assert!(csv.contains("t_ns,chain,"));
    // Trace CSV exporter works on the real event stream too.
    let (sim2, _) = run_congested(ObsConfig::all());
    let csv2 = trace_to_csv(&sim2.take_trace());
    assert!(csv2.lines().count() as u64 > r.throttle_events);
}

#[test]
fn off_by_default_records_nothing() {
    let (mut sim, _) = run_congested(ObsConfig::default());
    assert!(sim.take_trace().is_empty());
    let m = sim.take_metrics();
    assert_eq!(m.samples(), 0);
    assert!(m.nfs.is_empty());
}
