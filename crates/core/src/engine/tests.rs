//! Engine-level integration tests: whole simulations, one property each.

use super::{Action, Simulation};
use crate::config::{NfvniceConfig, SimConfig};
use crate::invariants;
use nfv_des::{Duration, SimTime};
use nfv_platform::{CostModel, NfSpec};
use nfv_sched::Policy;

fn base_cfg(cores: usize, policy: Policy, nfvnice: NfvniceConfig) -> SimConfig {
    let mut cfg = SimConfig::default();
    cfg.platform.nf_cores = cores;
    cfg.platform.policy = policy;
    cfg.nfvnice = nfvnice;
    cfg
}

#[test]
fn single_nf_underload_delivers_everything() {
    let mut sim = Simulation::new(base_cfg(1, Policy::CfsNormal, NfvniceConfig::off()));
    let nf = sim.add_nf(NfSpec::new("bridge", 0, 250));
    let chain = sim.add_chain(&[nf]);
    // 100 kpps against a ~10.4 Mpps capacity NF: zero loss expected.
    sim.add_udp(chain, 100_000.0, 64);
    let r = sim.run(Duration::from_millis(200));
    let f = r.flow(0);
    let offered = 20_000; // 100 kpps * 0.2 s
    assert!(
        f.delivered as i64 >= offered - 300,
        "delivered {}",
        f.delivered
    );
    assert_eq!(f.dropped, 0);
    assert_eq!(r.total_wasted_drops, 0);
    assert!(invariants::packets_conserved(&sim.platform));
}

#[test]
fn overloaded_nf_is_capacity_bound() {
    let mut sim = Simulation::new(base_cfg(1, Policy::CfsNormal, NfvniceConfig::off()));
    // 26k cycles/packet at 2.6 GHz = 100k pps capacity.
    let nf = sim.add_nf(NfSpec::new("heavy", 0, 26_000));
    let chain = sim.add_chain(&[nf]);
    sim.add_udp(chain, 1_000_000.0, 64); // 10x overload
    let r = sim.run(Duration::from_millis(200));
    let got = r.flow(0).delivered_pps;
    // ±22.5% of 90 kpps ≈ the sustainable floor … capacity ceiling
    // window (70–110 kpps).
    assert!(invariants::within_pct(got, 90_000.0, 22.5), "rate {got}");
    assert!(invariants::packets_conserved(&sim.platform));
}

#[test]
fn sanitizer_audits_overloaded_chain_clean() {
    // Full NFVnice under 10x overload with every runtime check on:
    // conservation at each event, watermark hysteresis, suppression
    // safety. A clean pass means the invariants hold throughout the
    // run, not just at the end.
    let mut cfg = base_cfg(1, Policy::CfsBatch, NfvniceConfig::full());
    cfg.sanitizer = crate::SanitizerConfig::audit();
    let mut sim = Simulation::new(cfg);
    let a = sim.add_nf(NfSpec::new("light", 0, 120));
    let b = sim.add_nf(NfSpec::new("heavy", 0, 26_000));
    let chain = sim.add_chain(&[a, b]);
    sim.add_udp(chain, 1_000_000.0, 64);
    let r = sim.run(Duration::from_millis(100));
    sim.sanitizer.assert_clean();
    assert!(invariants::packets_conserved(&sim.platform));
    assert!(sim.sanitizer.event_count() > 0);
    assert_eq!(r.trace_digest, sim.sanitizer.digest());
}

#[test]
fn saturated_flow_counters_are_reported_once_without_a_panic() {
    let mut cfg = base_cfg(1, Policy::CfsBatch, NfvniceConfig::off());
    cfg.sanitizer = crate::SanitizerConfig::audit();
    let mut sim = Simulation::new(cfg);
    let nf = sim.add_nf(NfSpec::new("fwd", 0, 120));
    let chain = sim.add_chain(&[nf]);
    sim.add_udp(chain, 100_000.0, 64);
    // Stands in for an add that clipped at 2^48 - 1 mid-run.
    sim.platform.stats.saturated_adds = 3;
    let r = sim.run(Duration::from_millis(5));
    let errors: Vec<_> = sim.sanitizer.errors().collect();
    assert_eq!(errors.len(), 1, "{errors:?}");
    assert_eq!(errors[0].rule, "counter-saturation");
    assert_eq!(errors[0].at, SimTime::from_millis(5));
    assert!(errors[0].detail.starts_with("3 "), "{}", errors[0].detail);
    assert!(r.flow(0).delivered > 0, "the run itself is unaffected");
}

#[test]
fn trace_digest_is_reproducible_and_seed_sensitive() {
    let run = |seed: u64| {
        let mut cfg = base_cfg(1, Policy::CfsNormal, NfvniceConfig::full());
        cfg.seed = seed;
        let mut sim = Simulation::new(cfg);
        let nf = sim.add_nf(NfSpec::new("bridge", 0, 250));
        let chain = sim.add_chain(&[nf]);
        // Poisson arrivals so the seed actually shapes the event trace
        // (a pure constant-rate flow consumes no randomness).
        sim.add_udp_with(chain, 200_000.0, 64, |f| f.poisson());
        sim.run(Duration::from_millis(50)).trace_digest
    };
    assert_eq!(run(7), run(7));
    assert_ne!(run(7), run(8));
}

#[test]
fn queue_backends_produce_identical_runs() {
    // Runtime backend selection: the same config on the timer wheel and
    // the binary heap must yield the same event order, hence the same
    // trace digest and report — regardless of which backend the build
    // defaults to. Poisson arrivals so RNG draws depend on event order.
    let run = |queue: nfv_des::QueueKind| {
        let mut cfg = base_cfg(1, Policy::CfsBatch, NfvniceConfig::full());
        cfg.queue = queue;
        let mut sim = Simulation::new(cfg);
        let a = sim.add_nf(NfSpec::new("light", 0, 120));
        let b = sim.add_nf(NfSpec::new("heavy", 0, 26_000));
        let chain = sim.add_chain(&[a, b]);
        sim.add_udp_with(chain, 400_000.0, 64, |f| f.poisson());
        sim.run(Duration::from_millis(60))
    };
    let wheel = run(nfv_des::QueueKind::Wheel);
    let heap = run(nfv_des::QueueKind::Heap);
    assert_eq!(wheel.trace_digest, heap.trace_digest);
    assert_eq!(wheel.flow(0).delivered, heap.flow(0).delivered);
    assert_eq!(wheel.flow(0).dropped, heap.flow(0).dropped);
    assert_eq!(wheel.total_wasted_drops, heap.total_wasted_drops);
    for (w, h) in wheel.nfs.iter().zip(heap.nfs.iter()) {
        assert_eq!(w.processed, h.processed, "{}", w.name);
    }
}

/// `(digest, total delivered pps, coalesced pops, skipped ticks,
/// [(processed, cpu ns)] per NF, [(delivered, dropped)] per flow)`.
type CoalescePin = (u64, f64, u64, u64, [(u64, u64); 2], [(u64, u64); 1]);

#[test]
fn coalesced_skip_ahead_runs_keep_their_pins() {
    // Same-instant batch replay and no-op-tick body elision must be
    // invisible in every deterministic output. The digest and counters
    // below are those of the per-pop engine that ran every tick body, so
    // the pins hold the engine to that event stream; the coalesced-pop
    // and skipped-tick counts pin how far each mechanism engages.
    // Poisson arrivals so RNG draws depend on event order; the light run
    // has idle gaps (20k pps ≪ the chain's capacity).
    let run = |rate_pps: f64| {
        let mut sim = Simulation::new(base_cfg(1, Policy::CfsNormal, NfvniceConfig::full()));
        let a = sim.add_nf(NfSpec::new("light", 0, 120));
        let b = sim.add_nf(NfSpec::new("heavy", 0, 26_000));
        let chain = sim.add_chain(&[a, b]);
        sim.add_udp_with(chain, rate_pps, 64, |f| f.poisson());
        let r = sim.run(Duration::from_millis(60));
        assert_eq!((r.total_wasted_drops, r.throttle_events), (0, 0));
        let nf = |i: usize| (r.nfs[i].processed, r.nfs[i].cpu_time.as_nanos());
        let pin: CoalescePin = (
            r.trace_digest,
            r.total_delivered_pps,
            r.queue.coalesced_pops,
            r.queue.skipped_ticks,
            [nf(0), nf(1)],
            [(r.flow(0).delivered, r.flow(0).dropped)],
        );
        pin
    };
    assert_eq!(
        run(400_000.0),
        (
            0x9c7c_7c4d_670f_2eac,
            98283.33333333334,
            15_060,
            3_003,
            [(17_828, 822_885), (5_897, 58_970_000)],
            [(5_897, 0)],
        )
    );
    assert_eq!(
        run(20_000.0),
        (
            0x87aa_3ba9_e4c1_8593,
            19616.666666666668,
            15_321,
            10_957,
            [(1_177, 55_109), (1_177, 11_770_000)],
            [(1_177, 0)],
        )
    );
}

/// Per NF: `(processed, cpu ns, cswch/s, nvcswch/s)`.
type NfSchedPin = (u64, u64, f64, f64);

#[test]
fn sched_policies_keep_their_pinned_runs() {
    // Each policy on a full fig7-style overloaded-chain sim: the trace
    // digest, delivery counts, wasted drops, chain p99 and per-NF switch
    // counters are pinned to recorded values (the scheduler-level
    // counterpart is crates/sched/tests/differential.rs, one digest per
    // policy). Poisson arrivals so RNG draws depend on event order.
    let run = |policy: Policy| {
        let mut sim = Simulation::new(base_cfg(1, policy, NfvniceConfig::full()));
        let a = sim.add_nf(NfSpec::new("light", 0, 120));
        let b = sim.add_nf(NfSpec::new("heavy", 0, 26_000));
        let chain = sim.add_chain(&[a, b]);
        sim.set_chain_budget(chain, Duration::from_millis(2));
        sim.add_udp_with(chain, 400_000.0, 64, |f| f.poisson());
        let r = sim.run(Duration::from_millis(50));
        assert_eq!(r.total_wasted_drops, 0, "{policy:?}");
        assert_eq!(
            r.chains[0].latency_p99,
            Duration::from_nanos(35_651_584),
            "{policy:?}"
        );
        let nfs: Vec<NfSchedPin> = r
            .nfs
            .iter()
            .map(|n| {
                let cpu = n.cpu_time.as_nanos();
                (n.processed, cpu, n.cswch_per_sec, n.nvcswch_per_sec)
            })
            .collect();
        (r.trace_digest, r.flow(0).delivered, r.flow(0).dropped, nfs)
    };
    let edf = Policy::Edf {
        period: Duration::from_millis(1),
    };
    let pins: [(Policy, u64, u64, u64, [NfSchedPin; 2]); 6] = [
        (
            Policy::CfsNormal,
            0x7346_180e_fde7_f490,
            4_905,
            0,
            [
                (17_828, 822_885, 580.0, 20.0),
                (4_905, 49_050_000, 60.0, 700.0),
            ],
        ),
        (
            Policy::CfsBatch,
            0x38d6_50ba_75cf_45ef,
            4_905,
            0,
            [
                (16_167, 746_212, 160.0, 20.0),
                (4_905, 49_050_000, 60.0, 280.0),
            ],
        ),
        (
            Policy::rr_1ms(),
            0x7872_2e7d_f4f5_e030,
            4_896,
            2_034,
            [
                (17_749, 819_243, 740.0, 0.0),
                (4_896, 48_960_000, 40.0, 680.0),
            ],
        ),
        (
            Policy::Cooperative,
            0xe036_28cb_f037_b0b9,
            4_896,
            0,
            [
                (17_354, 800_998, 120.0, 0.0),
                (4_896, 48_960_000, 100.0, 0.0),
            ],
        ),
        (
            edf,
            0xe036_28cb_f037_b0b9,
            4_896,
            0,
            [
                (17_354, 800_998, 120.0, 0.0),
                (4_896, 48_960_000, 100.0, 0.0),
            ],
        ),
        (
            Policy::Slo,
            0xbc68_5a8d_ad2c_23b1,
            4_904,
            2_255,
            [
                (17_544, 809_772, 340.0, 0.0),
                (4_904, 49_040_000, 60.0, 280.0),
            ],
        ),
    ];
    for (policy, digest, delivered, dropped, nfs) in pins {
        assert_eq!(
            run(policy),
            (digest, delivered, dropped, nfs.to_vec()),
            "{policy:?}: (digest, delivered, dropped, per-NF counters)"
        );
    }
}

#[test]
fn flow_backends_produce_identical_runs() {
    // The flow-table index seam must be invisible: the sharded engine and
    // the flat oracle must mint the same flow ids, learn wildcard flows
    // and evict idle ones in the same order — hence the same trace
    // digest, report and metrics document — on a run that exercises
    // pinned flows, a tuple sweep through a wildcard rule, and aging.
    use nfv_pkt::{FlowAging, FlowTableKind, TuplePattern};
    use nfv_traffic::SweepSource;
    let run = |kind: FlowTableKind| {
        let mut cfg = base_cfg(1, Policy::CfsBatch, NfvniceConfig::full());
        cfg.platform.flow_table = kind;
        cfg.platform.flow_aging = FlowAging {
            idle_epochs: 2,
            epoch_ticks: 4,
        };
        cfg.obs.metrics = true;
        let mut sim = Simulation::new(cfg);
        let a = sim.add_nf(NfSpec::new("light", 0, 120));
        let b = sim.add_nf(NfSpec::new("heavy", 0, 26_000));
        let chain = sim.add_chain(&[a, b]);
        sim.add_udp_with(chain, 200_000.0, 64, |f| f.poisson());
        sim.add_wildcard(TuplePattern::any(), chain, 0);
        // A flash crowd of 4096 brand-new flows mid-run: learned through
        // the wildcard, idle afterwards, evicted by aging before the end.
        sim.add_sweep(SweepSource::flash(
            1 << 20,
            4096,
            64,
            2_000_000.0,
            SimTime::from_millis(5),
            Duration::from_millis(3),
        ));
        let r = sim.run(Duration::from_millis(40));
        sim.sanitizer.assert_clean();
        assert!(invariants::packets_conserved(&sim.platform));
        let metrics = sim.take_metrics().to_json();
        (r, metrics)
    };
    let (sharded, sharded_metrics) = run(FlowTableKind::Sharded);
    let (flat, flat_metrics) = run(FlowTableKind::Flat);
    assert!(sharded.flows_evicted > 0, "aging never fired");
    assert_eq!(sharded.trace_digest, flat.trace_digest);
    assert_eq!(sharded.flows_active, flat.flows_active);
    assert_eq!(sharded.flows_evicted, flat.flows_evicted);
    assert_eq!(sharded.flows.len(), flat.flows.len());
    for (s, f) in sharded.flows.iter().zip(flat.flows.iter()) {
        assert_eq!(s.delivered, f.delivered, "flow {:?}", s.flow);
        assert_eq!(s.dropped, f.dropped, "flow {:?}", s.flow);
    }
    assert_eq!(sharded_metrics, flat_metrics);
}

#[test]
fn wildcard_learned_flows_report_their_table_chain() {
    // Two tenants' wildcards steer onto chains 0 and 1: every flow the
    // report lists must be a live flow-table entry, and the table (which
    // owns the chains; the report keeps none) splits them 64/64.
    use nfv_traffic::{tenant, TenantSpec};
    let mut sim = Simulation::new(base_cfg(1, Policy::CfsNormal, NfvniceConfig::off()));
    let a = sim.add_nf(NfSpec::new("a", 0, 120));
    let b = sim.add_nf(NfSpec::new("b", 0, 120));
    let chains = [sim.add_chain(&[a]), sim.add_chain(&[b])];
    for (index, &chain) in chains.iter().enumerate() {
        let t = tenant(TenantSpec {
            index: index as u32,
            flows: 64,
            rate_pps: 200_000.0,
            frame_size: 64,
        });
        sim.add_wildcard(t.pattern, chain, 0);
        sim.add_sweep(t.sweep);
    }
    let r = sim.run(Duration::from_millis(20));
    assert_eq!(r.flows.len(), 128);
    let table = &sim.platform.flow_table;
    let mut per_chain = [0; 2];
    for f in r.flows.iter() {
        let entry = table.get(&table.tuple_of(f.flow)).unwrap();
        assert_eq!(entry.flow, f.flow);
        let chain = table.chain_of(f.flow);
        assert_eq!(chain, entry.chain, "flow {:?}", f.flow);
        per_chain[chain.index()] += 1;
    }
    assert_eq!(per_chain, [64, 64]);
}

#[test]
fn flow_learned_mid_run_gets_a_series_from_its_first_interval() {
    // Series columns close every simulated second (plus the final partial
    // interval): a flow first classified during the second interval has
    // no value for the first one, so its series is one shorter. Summed
    // over its intervals, each flow's series gives back its delivered
    // bytes.
    use nfv_pkt::TuplePattern;
    use nfv_traffic::SweepSource;
    let mut sim = Simulation::new(base_cfg(1, Policy::CfsNormal, NfvniceConfig::off()));
    let nf = sim.add_nf(NfSpec::new("fwd", 0, 120));
    let chain = sim.add_chain(&[nf]);
    let pinned = sim.add_udp(chain, 10_000.0, 64);
    sim.add_wildcard(TuplePattern::any(), chain, 0);
    sim.add_sweep(SweepSource::flash(
        1 << 20,
        2,
        64,
        10_000.0,
        SimTime::from_millis(1_200),
        Duration::from_millis(300),
    ));
    let r = sim.run(Duration::from_millis(2_500));
    assert_eq!(r.series.intervals(), 3);
    assert_eq!(r.flows.len(), 3);
    let base = r.flow_mbps(pinned.index());
    assert_eq!(base.len(), 3);
    assert!(base.iter().all(|&m| m > 0.0), "{base:?}");
    for learned in 1..3 {
        let s = r.flow_mbps(learned);
        assert_eq!(s.len(), 2, "flow {learned} starts at interval 1: {s:?}");
        assert!(s[0] > 0.0 && s[1] == 0.0, "flow {learned}: {s:?}");
    }
    assert_eq!(r.series.spans(), [1.0, 1.0, 0.5]);
    for f in r.flows.iter() {
        let series = r.flow_mbps(f.flow.index());
        let late = r.series.intervals() - series.len();
        let spans = &r.series.spans()[late..];
        let bytes: f64 = series
            .iter()
            .zip(spans)
            .map(|(m, s)| m * s * 1e6 / 8.0)
            .sum();
        // Every frame is 64 B.
        assert_eq!(bytes.round() as u64, f.delivered * 64, "flow {:?}", f.flow);
    }
}

#[test]
fn flow_mbps_keeps_the_values_of_the_per_interval_columns() {
    // Values recorded when every interval, the final partial one
    // included, kept its own per-flow column. The final interval is now
    // read from the report's counters; every value must stay exact, for
    // pinned flows (one Poisson), flows learned in the second interval
    // and flows learned inside the final partial one.
    use nfv_pkt::TuplePattern;
    use nfv_traffic::SweepSource;
    let mut sim = Simulation::new(base_cfg(1, Policy::CfsNormal, NfvniceConfig::off()));
    let nf = sim.add_nf(NfSpec::new("fwd", 0, 120));
    let chain = sim.add_chain(&[nf]);
    sim.add_udp(chain, 10_000.0, 64);
    sim.add_udp_with(chain, 30_000.0, 64, |f| f.poisson());
    sim.add_wildcard(TuplePattern::any(), chain, 0);
    for (base, at, dur) in [(1 << 20, 1_200, 300), (2 << 20, 2_100, 200)] {
        sim.add_sweep(SweepSource::flash(
            base,
            2,
            64,
            10_000.0,
            SimTime::from_millis(at),
            Duration::from_millis(dur),
        ));
    }
    let r = sim.run(Duration::from_millis(2_500));
    assert_eq!(r.series.intervals(), 3);
    assert_eq!(r.series.spans(), [1.0, 1.0, 0.5]);
    let want: [&[f64]; 6] = [
        &[5.119488, 5.12, 5.12],
        &[15.312384, 15.404544, 15.193088],
        &[0.768, 0.0],
        &[0.768, 0.0],
        &[1.024],
        &[1.024],
    ];
    assert_eq!(r.flows.len(), want.len());
    for (f, want) in want.iter().enumerate() {
        assert_eq!(r.flow_mbps(f), *want, "flow {f}");
    }
    assert!(r.flow_mbps(want.len()).is_empty(), "no such flow");
}

#[test]
fn compact_report_keeps_only_the_24_byte_counter_column() {
    // Without per-flow detail, the report's per-flow storage is the
    // counter column moved in from the platform: no latency column and
    // no copy of the flow table's chains.
    use nfv_pkt::TuplePattern;
    use nfv_traffic::SweepSource;
    const FLOWS: u32 = 3_000;
    let mut cfg = base_cfg(1, Policy::CfsNormal, NfvniceConfig::off());
    cfg.platform.flow_detail = false;
    let mut sim = Simulation::new(cfg);
    let nf = sim.add_nf(NfSpec::new("fwd", 0, 120));
    let chain = sim.add_chain(&[nf]);
    sim.add_wildcard(TuplePattern::any(), chain, 0);
    sim.add_sweep(SweepSource::new(1 << 20, FLOWS, 64, 1_000_000.0));
    let r = sim.run(Duration::from_millis(10));
    assert_eq!(r.flows.len(), FLOWS as usize);
    assert_eq!(r.flows.heap_bytes(), 24 * r.flows.counters.capacity());
    assert_eq!(r.flows.heap_bytes(), 98_304);
}

#[test]
fn flow_reports_match_the_per_flow_truth() {
    // Pinned flows on two single-NF chains, plus two flash crowds learned
    // through a wildcard onto chain 1, the second arriving after aging
    // has evicted the first (so it recycles flow ids) — in both per-flow
    // detail modes.
    use nfv_pkt::{FlowAging, TuplePattern};
    use nfv_traffic::SweepSource;
    const CROWD: u32 = 512;
    let mut counters = Vec::new();
    for detail in [true, false] {
        let mut cfg = base_cfg(1, Policy::CfsBatch, NfvniceConfig::full());
        cfg.platform.flow_detail = detail;
        cfg.platform.flow_aging = FlowAging {
            idle_epochs: 2,
            epoch_ticks: 4,
        };
        let mut sim = Simulation::new(cfg);
        let a = sim.add_nf(NfSpec::new("a", 0, 1_000));
        let b = sim.add_nf(NfSpec::new("b", 0, 400));
        let (alone, shared) = (sim.add_chain(&[a]), sim.add_chain(&[b]));
        let pinned = sim.add_udp_with(alone, 2_000_000.0, 64, |f| f.poisson());
        sim.add_udp(shared, 50_000.0, 64);
        sim.add_wildcard(TuplePattern::any(), shared, 0);
        for (base, at) in [(1 << 20, 2), (2 << 20, 25)] {
            sim.add_sweep(SweepSource::flash(
                base,
                CROWD,
                64,
                1_000_000.0,
                SimTime::from_millis(at),
                Duration::from_millis(1),
            ));
        }
        let r = sim.run(Duration::from_millis(45));
        assert!(sim.platform.stats.flows.is_empty(), "counters moved out");
        assert!(r.flows_evicted >= CROWD as u64, "first crowd aged out");
        let n = r.flows.len();
        assert!(
            n < 2 + 2 * CROWD as usize,
            "{n} flow ids: the second crowd recycles"
        );

        let delivered: u64 = r.flows.iter().map(|f| f.delivered).sum();
        assert_eq!(
            delivered,
            invariants::conservation_ledger(&sim.platform).delivered
        );
        let secs = r.wall.as_secs_f64();
        let table = &sim.platform.flow_table;
        for (i, f) in r.flows.iter().enumerate() {
            assert_eq!(f.flow.index(), i);
            // Every frame is 64 B.
            assert_eq!(
                f.delivered_pps.to_bits(),
                (f.delivered as f64 / secs).to_bits()
            );
            let mbps = (f.delivered * 64) as f64 * 8.0 / secs / 1e6;
            assert_eq!(f.mbps.to_bits(), mbps.to_bits(), "flow {i}");
            let want = if f.flow == pinned { alone } else { shared };
            assert_eq!(table.chain_of(f.flow), want, "flow {i}");
        }
        // The pinned flow is its chain's only traffic.
        let (flow, chain) = (r.flow(pinned.index()), &r.chains[alone.index()]);
        assert_eq!(flow.delivered, chain.delivered);
        if detail {
            assert!(
                flow.latency_p99 > flow.latency_p50,
                "a spread to tell apart: {:?} {:?}",
                flow.latency_p50,
                flow.latency_p99
            );
            assert_eq!(flow.latency_p50, chain.latency_p50);
            assert_eq!(flow.latency_p99, chain.latency_p99);
        } else {
            assert_eq!(
                (flow.latency_p50, flow.latency_p99),
                (Duration::ZERO, Duration::ZERO)
            );
        }
        let copy = r.clone();
        assert!(copy.flows.iter().eq(r.flows.iter()));
        counters.push(
            r.flows
                .iter()
                .map(|f| (f.delivered, f.dropped, f.entry_drops))
                .collect::<Vec<_>>(),
        );
    }
    assert_eq!(counters[0], counters[1], "detail mode changes no counter");
}

#[test]
fn aging_runs_are_reproducible_and_keep_metrics_clean() {
    // Aging is deterministic sim state: two identical runs with eviction
    // active must produce byte-identical metrics documents, and the
    // backend-dependent flow-table internals (probe lengths, rehashes)
    // must never leak into them — those live in `BENCH_timings.json`.
    use nfv_pkt::{FlowAging, TuplePattern};
    use nfv_traffic::SweepSource;
    let run = || {
        let mut cfg = base_cfg(1, Policy::CfsBatch, NfvniceConfig::full());
        cfg.platform.flow_aging = FlowAging {
            idle_epochs: 1,
            epoch_ticks: 4,
        };
        cfg.obs.metrics = true;
        let mut sim = Simulation::new(cfg);
        let nf = sim.add_nf(NfSpec::new("bridge", 0, 250));
        let chain = sim.add_chain(&[nf]);
        sim.add_wildcard(TuplePattern::any(), chain, 0);
        sim.add_sweep(SweepSource::flash(
            0,
            2048,
            64,
            1_000_000.0,
            SimTime::from_millis(2),
            Duration::from_millis(3),
        ));
        let r = sim.run(Duration::from_millis(30));
        (
            r.trace_digest,
            r.flows_evicted,
            sim.take_metrics().to_json(),
        )
    };
    let (digest_a, evicted_a, metrics_a) = run();
    let (digest_b, _, metrics_b) = run();
    assert!(evicted_a > 0, "aging never fired");
    assert_eq!(digest_a, digest_b);
    assert_eq!(metrics_a, metrics_b);
    assert!(metrics_a.contains("\"flows_active\":"));
    assert!(metrics_a.contains("\"flows_evicted\":"));
    assert!(!metrics_a.contains("probe"));
    assert!(!metrics_a.contains("rehash"));
}

#[test]
fn slo_policy_prioritizes_budgeted_chain() {
    // One core, an interactive chain with a tight budget sharing the
    // core with an overloaded bulk chain. Under SLO scheduling the
    // interactive chain's p99 must hold inside its budget.
    let build = |policy: Policy| {
        let mut sim = Simulation::new(base_cfg(1, policy, NfvniceConfig::full()));
        let inter = sim.add_nf(NfSpec::new("inter", 0, 300));
        let bulk = sim.add_nf(NfSpec::new("bulk", 0, 8_000));
        let ic = sim.add_chain(&[inter]);
        let bc = sim.add_chain(&[bulk]);
        sim.set_chain_budget(ic, Duration::from_micros(500));
        sim.add_udp(ic, 50_000.0, 64);
        sim.add_udp(bc, 2_000_000.0, 64); // ~6x overload
        (sim.run(Duration::from_millis(100)), ic)
    };
    let (slo, ic) = build(Policy::Slo);
    let p99 = slo.chains[ic.index()].latency_p99;
    assert!(
        p99 <= Duration::from_micros(500),
        "SLO p99 {} ns blows the 500 µs budget",
        p99.as_nanos()
    );
    assert!(slo.chains[ic.index()].delivered > 0);
}

#[test]
fn chain_delivery_traverses_all_nfs() {
    let mut sim = Simulation::new(base_cfg(1, Policy::CfsBatch, NfvniceConfig::off()));
    let a = sim.add_nf(NfSpec::new("a", 0, 100));
    let b = sim.add_nf(NfSpec::new("b", 0, 100));
    let c = sim.add_nf(NfSpec::new("c", 0, 100));
    let chain = sim.add_chain(&[a, b, c]);
    sim.add_udp(chain, 50_000.0, 64);
    let r = sim.run(Duration::from_millis(100));
    assert!(r.flow(0).delivered > 0);
    // every NF saw every delivered packet
    for nf in &r.nfs {
        assert!(nf.processed >= r.flow(0).delivered, "{}", nf.name);
    }
}

#[test]
fn backpressure_sheds_at_entry_and_prevents_wasted_work() {
    let run = |nfvnice: NfvniceConfig| {
        let mut sim = Simulation::new(base_cfg(1, Policy::CfsBatch, nfvnice));
        let cheap = sim.add_nf(NfSpec::new("cheap", 0, 100));
        let costly = sim.add_nf(NfSpec::new("costly", 0, 10_000));
        let chain = sim.add_chain(&[cheap, costly]);
        sim.add_udp(chain, 5_000_000.0, 64);
        sim.run(Duration::from_millis(300))
    };
    let default = run(NfvniceConfig::off());
    let nice = run(NfvniceConfig::full());
    assert!(
        default.total_wasted_drops > 100_000,
        "default wastes: {}",
        default.total_wasted_drops
    );
    assert!(
        nice.total_wasted_drops < default.total_wasted_drops / 20,
        "nfvnice {} vs default {}",
        nice.total_wasted_drops,
        default.total_wasted_drops
    );
    assert!(nice.entry_drops > 0, "shed at entry instead");
    assert!(nice.throttle_events > 0);
    // and throughput should not be worse
    assert!(nice.total_delivered_pps > default.total_delivered_pps * 0.8);
}

#[test]
fn cgroup_weights_give_rate_cost_fairness() {
    // Two NFs, same arrival rate, 3x cost difference, one core.
    let run = |nfvnice: NfvniceConfig| {
        let mut sim = Simulation::new(base_cfg(1, Policy::CfsNormal, nfvnice));
        let light = sim.add_nf(NfSpec::new("light", 0, 300));
        let heavy = sim.add_nf(NfSpec::new("heavy", 0, 900));
        let c1 = sim.add_chain(&[light]);
        let c2 = sim.add_chain(&[heavy]);
        // total demand = 4M*300 + 4M*900 cycles = 4.8G > 2.6G: overload
        sim.add_udp(c1, 4_000_000.0, 64);
        sim.add_udp(c2, 4_000_000.0, 64);
        sim.run(Duration::from_millis(400))
    };
    let nice = run(NfvniceConfig::cgroups_only());
    // rate-cost fairness: equal output rates despite 3x cost gap
    let ratio = nice.flow(0).delivered_pps / nice.flow(1).delivered_pps;
    assert!((0.8..1.4).contains(&ratio), "nfvnice output ratio {ratio}");
    let default = run(NfvniceConfig::off());
    let dratio = default.flow(0).delivered_pps / default.flow(1).delivered_pps;
    assert!(dratio > 1.8, "CFS favors the cheap NF: {dratio}");
}

#[test]
fn deterministic_given_seed() {
    let run = || {
        let mut sim = Simulation::new(base_cfg(1, Policy::CfsNormal, NfvniceConfig::full()));
        let a = sim.add_nf(NfSpec::new("a", 0, 120));
        let b = sim.add_nf(NfSpec::new("b", 0, 550));
        let chain = sim.add_chain(&[a, b]);
        sim.add_udp_with(chain, 3_000_000.0, 64, |f| f.poisson());
        let r = sim.run(Duration::from_millis(100));
        (r.flow(0).delivered, r.total_wasted_drops, r.entry_drops)
    };
    assert_eq!(run(), run());
}

#[test]
fn mid_run_action_changes_cost() {
    let mut sim = Simulation::new(base_cfg(1, Policy::CfsNormal, NfvniceConfig::off()));
    let nf = sim.add_nf(NfSpec::new("morph", 0, 100));
    let chain = sim.add_chain(&[nf]);
    sim.add_udp(chain, 200_000.0, 64);
    // After 50ms the NF becomes 100x more expensive (10k cycles →
    // 260 kpps capacity — still above offered; then 100k → 26 kpps).
    sim.at(
        SimTime::from_millis(50),
        Action::SetCost(nf, CostModel::Fixed(100_000)),
    );
    let r = sim.run(Duration::from_millis(100));
    // delivered ≈ 50ms*200k + 50ms*26k ≈ 10k + 1.3k
    let d = r.flow(0).delivered;
    assert!((9_000..13_500).contains(&d), "delivered {d}");
}

#[test]
fn shared_nf_keeps_serving_live_chain_under_throttle() {
    // Fig 8/9 in miniature: NF "shared" feeds both a clean chain and a
    // chain with a downstream bottleneck. Throttling the congested
    // chain must not suppress the shared NF — the clean chain keeps
    // its full rate.
    let mut sim = Simulation::new(base_cfg(2, Policy::CfsBatch, NfvniceConfig::full()));
    let shared = sim.add_nf(NfSpec::new("shared", 0, 300));
    let bneck = sim.add_nf(NfSpec::new("bneck", 1, 26_000)); // 100 kpps
    let clean = sim.add_chain(&[shared]);
    let congested = sim.add_chain(&[shared, bneck]);
    sim.add_udp(clean, 1_000_000.0, 64);
    sim.add_udp(congested, 1_000_000.0, 64);
    let r = sim.run(Duration::from_millis(300));
    assert!(r.throttle_events > 0, "bottleneck must throttle");
    assert!(
        r.flow(0).delivered_pps > 950_000.0,
        "clean flow degraded: {}",
        r.flow(0).delivered_pps
    );
    assert!(
        // ±33.4% of 105 kpps ≈ the old 70–140 kpps bottleneck window.
        invariants::within_pct(r.flow(1).delivered_pps, 105_000.0, 33.4),
        "congested flow should ride the bottleneck: {}",
        r.flow(1).delivered_pps
    );
}

#[test]
fn bottleneck_nf_itself_is_never_suppressed() {
    // The NF whose queue triggered the throttle must keep draining,
    // otherwise the throttle never clears (deadlock regression test).
    let mut sim = Simulation::new(base_cfg(1, Policy::CfsBatch, NfvniceConfig::full()));
    let a = sim.add_nf(NfSpec::new("a", 0, 100));
    let b = sim.add_nf(NfSpec::new("b", 0, 5_000));
    let chain = sim.add_chain(&[a, b]);
    sim.add_udp(chain, 10_000_000.0, 64);
    let r = sim.run(Duration::from_millis(300));
    assert!(r.throttle_events > 0);
    // sustained delivery at roughly the bottleneck rate (≈ 510 kpps
    // capacity for NF b minus scheduling overhead)
    assert!(
        r.flow(0).delivered_pps > 300_000.0,
        "chain starved: {}",
        r.flow(0).delivered_pps
    );
}

#[test]
fn cgroup_write_cost_charged_to_manager_time() {
    // Each effective cpu.shares write costs ~5 µs of manager CPU time;
    // the engine's weight-update path must account every one of them
    // (and nothing else — redundant writes are free).
    let mut sim = Simulation::new(base_cfg(1, Policy::CfsBatch, NfvniceConfig::cgroups_only()));
    let a = sim.add_nf(NfSpec::new("light", 0, 120));
    let b = sim.add_nf(NfSpec::new("heavy", 0, 2_400));
    let ca = sim.add_chain(&[a]);
    let cb = sim.add_chain(&[b]);
    sim.add_udp(ca, 500_000.0, 64);
    sim.add_udp(cb, 500_000.0, 64);
    let r = sim.run(Duration::from_millis(100));
    assert!(r.cgroup_writes > 0, "no weight updates happened");
    assert_eq!(
        r.cgroup_write_time,
        nfv_sched::CgroupCpu::DEFAULT_WRITE_COST.times(r.cgroup_writes),
    );
}

#[test]
fn ecn_marks_only_ect0_packets() {
    // Non-ECT traffic through a congested NF must never be CE-marked
    // even with the marker on: the platform checks the codepoint
    // before consulting the policy, so the marks counter stays zero.
    let mut cfg = base_cfg(1, Policy::CfsBatch, NfvniceConfig::off());
    cfg.nfvnice.ecn = true;
    let mut sim = Simulation::new(cfg);
    let a = sim.add_nf(NfSpec::new("fast", 0, 100));
    let slow = sim.add_nf(NfSpec::new("slow", 0, 26_000));
    let chain = sim.add_chain(&[a, slow]);
    sim.add_udp(chain, 1_000_000.0, 64); // NotEct by construction
    let r = sim.run(Duration::from_millis(200));
    assert!(
        r.flow(0).dropped + r.total_wasted_drops + r.nic_overflow > 0,
        "scenario failed to congest the slow NF"
    );
    assert_eq!(r.ecn_marks, 0, "NotEct packets must not be CE-marked");
}

#[test]
fn ecn_disabled_never_marks() {
    let mut cfg = base_cfg(1, Policy::CfsBatch, NfvniceConfig::off());
    cfg.nfvnice.ecn = false;
    let mut sim = Simulation::new(cfg);
    let slow = sim.add_nf(NfSpec::new("slow", 0, 5_000));
    let chain = sim.add_chain(&[slow]);
    sim.add_tcp_with(chain, 1500, Duration::from_micros(100), |t| t.with_ecn());
    let r = sim.run(Duration::from_millis(200));
    assert_eq!(r.ecn_marks, 0);
}

#[test]
fn repeated_nf_last_hop_is_not_suppressed_by_an_upstream_throttle() {
    // Positional-suppression regression: chain [a, b, a] with b
    // throttling. a's *last* hop sits downstream of the bottleneck and
    // must stay awake to drain it; judging a by its first hop (upstream
    // of b) parked the only consumer of b's output and deadlocked the
    // throttle.
    let mut sim = Simulation::new(base_cfg(1, Policy::CfsBatch, NfvniceConfig::full()));
    let a = sim.add_nf(NfSpec::new("a", 0, 100));
    let b = sim.add_nf(NfSpec::new("b", 0, 5_000));
    let chain = sim.add_chain(&[a, b, a]);
    sim.prime(SimTime::from_millis(1));
    // Throttle b by hand: ring at 95% with an aged head.
    sim.bp.evaluate(
        SimTime::from_micros(100),
        b,
        95,
        100,
        Some(Duration::from_millis(10)),
        [chain].iter(),
    );
    assert!(
        matches!(sim.bp.state(b), crate::BpState::Throttle),
        "setup failed: b not throttled"
    );
    sim.platform.nfs[a.index()].note_pending(chain);
    sim.platform.nfs[b.index()].note_pending(chain);
    assert!(
        !sim.nf_suppressed(a.index()),
        "a's last hop drains b's output and must not be parked"
    );
    assert!(
        !sim.nf_suppressed(b.index()),
        "the bottleneck itself is never suppressed"
    );
}

#[test]
fn repeated_nf_chain_survives_downstream_throttle() {
    // End-to-end companion to the positional-suppression regression:
    // a chain that revisits its entry NF after the bottleneck must keep
    // delivering at roughly the bottleneck rate. With the first-hop
    // comparison the pipeline wedged shut a few rings in.
    let mut sim = Simulation::new(base_cfg(1, Policy::CfsBatch, NfvniceConfig::full()));
    let a = sim.add_nf(NfSpec::new("a", 0, 100));
    let b = sim.add_nf(NfSpec::new("b", 0, 5_000)); // ~520 kpps
    let chain = sim.add_chain(&[a, b, a]);
    sim.add_udp(chain, 5_000_000.0, 64);
    let r = sim.run(Duration::from_millis(300));
    assert!(r.throttle_events > 0, "scenario failed to throttle b");
    assert!(
        r.flow(0).delivered_pps > 250_000.0,
        "repeated-NF chain wedged: {}",
        r.flow(0).delivered_pps
    );
}

#[test]
fn elastic_off_is_byte_identical() {
    // The byte-identity contract: while every direction switch is off,
    // even aggressive elastic tuning values may not perturb a run —
    // same trace digest, same report, same metrics document.
    let run = |elastic: crate::ElasticConfig| {
        let mut cfg = base_cfg(2, Policy::CfsBatch, NfvniceConfig::full());
        cfg.elastic = elastic;
        cfg.obs.metrics = true;
        let mut sim = Simulation::new(cfg);
        let a = sim.add_nf(NfSpec::new("light", 0, 120));
        let b = sim.add_nf(NfSpec::new("heavy", 0, 26_000));
        let chain = sim.add_chain(&[a, b]);
        sim.add_udp_with(chain, 400_000.0, 64, |f| f.poisson());
        let r = sim.run(Duration::from_millis(60));
        (r, sim.take_metrics().to_json())
    };
    let (base, base_metrics) = run(crate::ElasticConfig::default());
    let hair_trigger = crate::ElasticConfig {
        check_period_ticks: 1,
        dwell_checks: 1,
        max_replicas: 8,
        deploy_cost: 0.0,
        saturation_pct: 1,
        spread_margin_pct: 0,
        idle_load_pct: 100,
        idle_checks: 1,
        cooldown_checks: 0,
        ..crate::ElasticConfig::default()
    };
    assert!(!hair_trigger.active(), "all switches must still be off");
    let (tuned, tuned_metrics) = run(hair_trigger);
    assert_eq!(base.trace_digest, tuned.trace_digest);
    assert_eq!(base.flow(0).delivered, tuned.flow(0).delivered);
    assert_eq!(base.total_wasted_drops, tuned.total_wasted_drops);
    assert_eq!(base_metrics, tuned_metrics);
    assert_eq!(
        tuned.nf_scale_outs + tuned.nf_migrations + tuned.nf_scale_ins,
        0
    );
}

#[test]
fn scale_out_replicates_the_bottleneck_and_beats_backpressure_alone() {
    // One heavy NF on core 0, core 1 idle; a pinned flow overloads it
    // from the start, then a sweep of brand-new flows arrives after the
    // replica is up. Scale-out shards the new flows across both
    // instances (in-flight flows stay pinned to the base), so goodput
    // clearly beats backpressure-only shedding on the same trace.
    use nfv_pkt::TuplePattern;
    use nfv_traffic::SweepSource;
    let run = |elastic: crate::ElasticConfig| {
        let mut cfg = base_cfg(2, Policy::CfsBatch, NfvniceConfig::full());
        cfg.elastic = elastic;
        let mut sim = Simulation::new(cfg);
        let heavy = sim.add_nf(NfSpec::new("heavy", 0, 26_000)); // 100 kpps
        let chain = sim.add_chain(&[heavy]);
        sim.add_udp(chain, 1_000_000.0, 64); // pinned 10x overload
        sim.add_wildcard(TuplePattern::any(), chain, 0);
        // 4096 fresh flows at 400 kpps, starting well past the dwell.
        sim.add_sweep(SweepSource::flash(
            1 << 16,
            4096,
            64,
            400_000.0,
            SimTime::from_millis(60),
            Duration::from_millis(240),
        ));
        sim.run(Duration::from_millis(300))
    };
    let bp_only = run(crate::ElasticConfig::default());
    assert_eq!(bp_only.nf_scale_outs, 0);
    let scaled = run(crate::ElasticConfig {
        scale_out: true,
        ..crate::ElasticConfig::default()
    });
    assert!(scaled.nf_scale_outs >= 1, "no replica was deployed");
    let base_total: u64 = bp_only.chains[0].delivered;
    let scaled_total: u64 = scaled.chains[0].delivered;
    assert!(
        scaled_total as f64 > base_total as f64 * 1.2,
        "scale-out {scaled_total} vs backpressure-only {base_total}"
    );
}

#[test]
fn migration_moves_the_cheapest_nf_off_a_saturated_core() {
    // Two overloaded single-NF chains share core 0 while core 1 idles.
    // The controller must detect the saturation, move the cheaper NF to
    // the idle core, and total goodput must beat the share-split.
    let run = |elastic: crate::ElasticConfig| {
        let mut cfg = base_cfg(2, Policy::CfsBatch, NfvniceConfig::full());
        cfg.elastic = elastic;
        let mut sim = Simulation::new(cfg);
        let cheap = sim.add_nf(NfSpec::new("cheap", 0, 120));
        let costly = sim.add_nf(NfSpec::new("costly", 0, 26_000));
        let cc = sim.add_chain(&[cheap]);
        let hc = sim.add_chain(&[costly]);
        sim.add_udp(cc, 1_000_000.0, 64);
        sim.add_udp(hc, 1_000_000.0, 64);
        sim.run(Duration::from_millis(300))
    };
    let pinned = run(crate::ElasticConfig::default());
    assert_eq!(pinned.nf_migrations, 0);
    let migrated = run(crate::ElasticConfig {
        migration: true,
        ..crate::ElasticConfig::default()
    });
    assert!(migrated.nf_migrations >= 1, "no migration happened");
    // The cheap NF ends up homed on core 1 (report reads the live spec).
    assert_eq!(migrated.nfs[0].core, 1, "cheap NF still on core 0");
    assert!(
        migrated.total_delivered_pps > pinned.total_delivered_pps * 1.2,
        "migration {} vs pinned {}",
        migrated.total_delivered_pps,
        pinned.total_delivered_pps
    );
}

#[test]
fn scale_in_retires_the_replica_after_the_surge() {
    // Windowed overload: pinned pressure plus a fresh-flow surge, both
    // ending mid-run. The replica deployed during the surge must be
    // retired once it idles past the hysteresis, returning the layout
    // to a single live instance.
    use nfv_pkt::TuplePattern;
    use nfv_traffic::SweepSource;
    let mut cfg = base_cfg(2, Policy::CfsBatch, NfvniceConfig::full());
    cfg.elastic = crate::ElasticConfig {
        scale_out: true,
        scale_in: true,
        ..crate::ElasticConfig::default()
    };
    let mut sim = Simulation::new(cfg);
    let heavy = sim.add_nf(NfSpec::new("heavy", 0, 26_000));
    let chain = sim.add_chain(&[heavy]);
    sim.add_udp_with(chain, 1_000_000.0, 64, |f| {
        f.window(SimTime::ZERO, SimTime::from_millis(150))
    });
    sim.add_wildcard(TuplePattern::any(), chain, 0);
    sim.add_sweep(SweepSource::flash(
        1 << 16,
        4096,
        64,
        400_000.0,
        SimTime::from_millis(60),
        Duration::from_millis(80),
    ));
    let r = sim.run(Duration::from_millis(400));
    assert!(r.nf_scale_outs >= 1, "no replica was deployed");
    assert!(r.nf_scale_ins >= 1, "replica never retired");
    assert!(
        sim.platform.replica_group(heavy).is_empty(),
        "layout did not return to a single live instance"
    );
    assert!(invariants::packets_conserved(&sim.platform));
}

#[test]
fn tcp_flow_reaches_window_limited_rate() {
    let mut sim = Simulation::new(base_cfg(1, Policy::CfsNormal, NfvniceConfig::off()));
    let nf = sim.add_nf(NfSpec::new("fwd", 0, 200));
    let chain = sim.add_chain(&[nf]);
    let flow = sim.add_tcp_with(chain, 1500, Duration::from_micros(100), |s| {
        s.with_max_cwnd(33.0)
    });
    let r = sim.run(Duration::from_millis(500));
    // cap = 33 * 1500B * 8 / 100us = 3.96 Gbps
    let mbps = r.flow(flow.index()).mbps;
    assert!((3_000.0..4_200.0).contains(&mbps), "tcp rate {mbps} Mbps");
}

#[test]
fn tcp_feedback_runs_replay_the_per_feedback_stream() {
    // Two TCP senders with one RTT: A enters the heavy NF through the
    // light one (beside a UDP flow), B enters it directly, so the heavy
    // NF's TX drain interleaves their segments (A, B, A, ...) and their
    // same-instant feedback must pop in that order. The tiny NIC queue
    // overflows under their bursts. The digest folds one `(time, tag)`
    // per logical feedback; it and the senders' state are pinned to the
    // values of the one-event-per-feedback engine.
    let run = || {
        let mut cfg = base_cfg(1, Policy::CfsNormal, NfvniceConfig::full());
        cfg.platform.nic_rx_capacity = 48;
        cfg.sanitizer = crate::SanitizerConfig::audit();
        let mut sim = Simulation::new(cfg);
        let a = sim.add_nf(NfSpec::new("light", 0, 300));
        let b = sim.add_nf(NfSpec::new("heavy", 0, 2_000));
        let chain = sim.add_chain(&[a, b]);
        let short = sim.add_chain(&[b]);
        let fa = sim.add_tcp_with(chain, 1500, Duration::from_micros(100), |s| s.with_ecn());
        let fb = sim.add_tcp(short, 1500, Duration::from_micros(100));
        sim.add_udp(chain, 1_400_000.0, 64);
        let r = sim.run(Duration::from_millis(40));
        sim.sanitizer.assert_clean();
        let senders: Vec<_> = [fa, fb]
            .into_iter()
            .map(|f| {
                let s = sim.tcp_source(f);
                (
                    s.acked,
                    s.losses,
                    s.ecn_cuts,
                    s.cwnd().to_bits(),
                    s.in_flight(),
                    s.pending_retransmits(),
                )
            })
            .collect();
        // The scenario must exercise NIC-overflow drops and ECN echoes.
        assert!(r.nic_overflow > 0 && r.ecn_marks > 0);
        (r.trace_digest, senders)
    };
    // (acked, losses, ecn_cuts, cwnd bits, in flight, pending retransmits)
    let want = vec![
        (882, 1, 1, 4631367675458772533, 43, 0),
        (682, 1, 0, 4632676169672216609, 53, 0),
    ];
    assert_eq!(run(), (0xa094_f730_2fff_c075, want));
}

/// Run a one-NF sim whose config was edited by `edit`.
fn run_with(edit: impl FnOnce(&mut SimConfig)) {
    let mut cfg = base_cfg(1, Policy::CfsNormal, NfvniceConfig::full());
    edit(&mut cfg);
    let mut sim = Simulation::new(cfg);
    let nf = sim.add_nf(NfSpec::new("fwd", 0, 200));
    let chain = sim.add_chain(&[nf]);
    sim.add_udp(chain, 100_000.0, 64);
    sim.run(Duration::from_millis(1));
}

#[test]
#[should_panic(expected = "traffic_poll")]
fn zero_traffic_poll_is_rejected() {
    run_with(|c| c.traffic_poll = Duration::ZERO);
}

#[test]
#[should_panic(expected = "rx_poll")]
fn zero_rx_poll_is_rejected() {
    run_with(|c| c.rx_poll = Duration::ZERO);
}

#[test]
#[should_panic(expected = "tx_poll")]
fn zero_tx_poll_is_rejected() {
    run_with(|c| c.tx_poll = Duration::ZERO);
}

#[test]
#[should_panic(expected = "wakeup_period")]
fn zero_wakeup_period_is_rejected() {
    run_with(|c| c.wakeup_period = Duration::ZERO);
}

#[test]
#[should_panic(expected = "nfvnice.load.sample_period")]
fn zero_load_sample_period_is_rejected() {
    run_with(|c| c.nfvnice.load.sample_period = Duration::ZERO);
}
