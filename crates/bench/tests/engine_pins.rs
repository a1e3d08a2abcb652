//! Engine pins: the trace digest and event-queue counts of three
//! quick-suite cells — the TCP feedback loop (fig13 NFVnice), a crash
//! with respawn (faults/crash+recover) and elastic scaling with migration
//! (elastic/both) — of three runs whose packets keep per-packet work in
//! the run-wise datapath, which also pin delivered, dropped and wasted
//! packets, and of the two scale cells that learn flows through a
//! wildcard rule, which also pin the flow-table counters. Changes to how
//! the queue stores or delivers events, how the datapath moves packets
//! or how the RX thread classifies them must leave every pinned value
//! exactly as it is.

#![forbid(unsafe_code)]

use nfv_bench::experiments::{elastic, faults, fig10, fig13, fig16, scale};
use nfv_bench::RunLength;
use nfvnice::{FlowTableStats, NfvniceConfig, Policy, QueueStats, Report};

/// `(trace_digest, pushes, pops, coalesced_pops, max_len, skipped_ticks)`.
type Pin = (u64, u64, u64, u64, usize, u64);

fn check(cell: &str, r: &Report, pin: Pin) {
    let (digest, pushes, pops, coalesced, max_len, skipped) = pin;
    let QueueStats {
        pushes: p,
        pops: q,
        coalesced_pops: c,
        max_len: m,
        skipped_ticks: s,
        ..
    } = r.queue;
    assert_eq!(
        (r.trace_digest, p, q, c, m, s),
        (digest, pushes, pops, coalesced, max_len, skipped),
        "{cell}: (digest, pushes, pops, coalesced_pops, max_len, skipped_ticks)"
    );
}

#[test]
fn quick_cells_keep_their_digest_and_queue_counts() {
    let len = RunLength::quick();

    let fig13 = fig13::run_cell(NfvniceConfig::full(), len).report;
    check(
        "fig13/NFVnice",
        &fig13,
        (
            0x4070_d3af_0787_e5f4,
            2_685_901,
            2_685_900,
            1_426_076,
            10,
            863_501,
        ),
    );

    let (_, crash) = faults::cells()
        .into_iter()
        .find(|(name, _)| *name == "crash+recover")
        .expect("faults cell");
    let crash = faults::run_cell("crash+recover", crash, len).0;
    check(
        "faults/crash+recover",
        &crash,
        (0x1ed3_5e46_70db_52ef, 252_374, 252_372, 75_318, 8, 16_999),
    );

    let (_, both) = elastic::cells()
        .into_iter()
        .find(|(name, _)| *name == "both")
        .expect("elastic cell");
    let both = elastic::run_cell("both", both, len);
    check(
        "elastic/both",
        &both,
        (0xc131_d3cf_a9ec_8ae5, 151_307, 151_304, 75_301, 8, 15_002),
    );
}

/// `(delivered, dropped, wasted_drops)` summed over a run's flows and NFs.
fn outcome(r: &Report) -> (u64, u64, u64) {
    let delivered = r.flows.iter().map(|f| f.delivered).sum();
    let dropped = r.flows.iter().map(|f| f.dropped).sum();
    (delivered, dropped, r.total_wasted_drops)
}

/// The enterprise edge chain of `examples/enterprise_chain.rs`
/// (policer → firewall → NAT → monitor, three tenants), run for 200 ms.
fn enterprise_chain() -> Report {
    use nfv_apps::{Firewall, FlowMonitor, Match, Nat, Rule, TokenBucket, Verdict};
    use nfvnice::{Duration, NfSpec, SimConfig, Simulation};
    let mut cfg = SimConfig::default();
    cfg.platform.nf_cores = 1;
    cfg.platform.policy = Policy::CfsBatch;
    cfg.nfvnice = NfvniceConfig::full();
    let mut sim = Simulation::new(cfg);
    let policer = sim.add_nf_with_handler(
        NfSpec::new("policer", 0, 150),
        Box::new(TokenBucket::new(200_000.0, 1_000)),
    );
    let allow_port_9 = Rule {
        dst_port: Match::Is(9),
        ..Rule::any(Verdict::Allow)
    };
    let firewall = sim.add_nf_with_handler(
        NfSpec::new("firewall", 0, 300),
        Box::new(Firewall::new(vec![allow_port_9], Verdict::Deny)),
    );
    let nat = sim.add_nf_with_handler(NfSpec::new("nat", 0, 250), Box::new(Nat::new(0xc0a8_0001)));
    let monitor =
        sim.add_nf_with_handler(NfSpec::new("monitor", 0, 100), Box::new(FlowMonitor::new()));
    let chain = sim.add_chain(&[policer, firewall, nat, monitor]);
    for rate in [150_000.0, 100_000.0, 50_000.0] {
        sim.add_udp(chain, rate, 128);
    }
    sim.run(Duration::from_millis(200))
}

/// Pins of the datapath paths that keep per-packet work: fig10 (uniform
/// cost classes, so every packet is its own run), fig16 len9/3core/Default
/// (a 9-hop chain over three cores with TX spills) and a chain of
/// stateful handlers that drop and rewrite packets.
#[test]
fn per_packet_paths_keep_their_digest_and_counts() {
    let len = RunLength::quick();
    let fig10 = fig10::run_cell(Policy::CfsBatch, NfvniceConfig::off(), len);
    let fig16 = fig16::run_cell(9, true, NfvniceConfig::off(), len);
    let chain = enterprise_chain();
    check(
        "fig10/BATCH/Default",
        &fig10,
        (0x2948_e457_9f17_bb48, 260_838, 260_836, 75_309, 7, 15_002),
    );
    assert_eq!(outcome(&fig10), (705_888, 3_737_533, 364_384));
    check(
        "fig16/len9/3core/Default",
        &fig16,
        (0xb1f6_9148_ffea_4c58, 747_554, 747_550, 75_595, 9, 15_002),
    );
    assert_eq!(outcome(&fig16), (460_448, 3_960_180, 3_960_180));
    check(
        "enterprise_chain",
        &chain,
        (0x9aff_0746_2c71_82a2, 190_184, 190_182, 50_200, 7, 10_002),
    );
    assert_eq!(outcome(&chain), (40_988, 19_002, 0));
}

/// Pins of the flow-learning path: the two scale cells that mint flows
/// through a wildcard rule on nearly every frame. `1m_flows` learns 2^20
/// tuples in sweep order; `tenants` learns four interleaved tuple slices
/// with aging on, so ids are evicted and recycled throughout. Changes to
/// how the RX thread classifies must leave every value here as it is.
#[test]
fn flow_learning_cells_keep_their_digest_and_counts() {
    let len = RunLength::quick();

    let m = scale::run_1m(len);
    check(
        "scale/1m_flows",
        &m,
        (0xc24c_55c1_021d_9d1c, 210_296, 210_294, 75_300, 7, 30_001),
    );
    assert_eq!(
        m.flow,
        FlowTableStats {
            installs: 1_048_576,
            recycled: 0,
            evicted: 0,
            exact_hits: 301_424,
            memo_hits: 0,
            wildcard_hits: 1_048_576,
            probe_steps: 2_396_056,
            max_probe: 21,
            rehashes: 832,
            shards: 64,
            slots: 2_097_152,
            live: 1_048_576,
            pinned: 0,
        },
        "scale/1m_flows: flow-table counters"
    );
    assert_eq!((m.flows_active, m.flows_evicted), (1_048_576, 0));
    assert_eq!((m.nic_overflow, m.entry_drops), (0, 0));
    assert_eq!(outcome(&m), (1_349_910, 0, 0));

    let t = scale::run_tenants(len);
    check(
        "scale/tenants",
        &t,
        (0xfb03_260c_9dc9_0aa2, 285_290, 285_288, 75_300, 7, 30_001),
    );
    assert_eq!(
        t.flow,
        FlowTableStats {
            installs: 538_176,
            recycled: 423_232,
            evicted: 428_008,
            exact_hits: 301_824,
            memo_hits: 0,
            wildcard_hits: 538_176,
            probe_steps: 1_236_788,
            max_probe: 16,
            rehashes: 640,
            shards: 64,
            slots: 262_144,
            live: 110_168,
            pinned: 0,
        },
        "scale/tenants: flow-table counters"
    );
    assert_eq!((t.flows_active, t.flows_evicted), (110_168, 428_008));
    assert_eq!((t.nic_overflow, t.entry_drops), (0, 0));
    assert_eq!(outcome(&t), (839_944, 0, 0));
}
