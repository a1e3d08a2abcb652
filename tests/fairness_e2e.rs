//! End-to-end rate-cost proportional fairness, including property-based
//! tests over randomized NF populations.

use nfvnice::{Duration, NfSpec, NfvniceConfig, Policy, Report, SimConfig, Simulation};
use proptest::prelude::*;

fn run_standalone(
    policy: Policy,
    variant: NfvniceConfig,
    costs: &[u64],
    rates: &[f64],
    millis: u64,
) -> Report {
    let mut cfg = SimConfig::default();
    cfg.platform.nf_cores = 1;
    cfg.platform.policy = policy;
    cfg.nfvnice = variant;
    let mut sim = Simulation::new(cfg);
    for (i, (&c, &r)) in costs.iter().zip(rates).enumerate() {
        let nf = sim.add_nf(NfSpec::new(format!("nf{i}"), 0, c));
        let chain = sim.add_chain(&[nf]);
        sim.add_udp(chain, r, 64);
    }
    sim.run(Duration::from_millis(millis))
}

/// §2.1's definition, case 1: same cost, one NF has twice the arrival rate
/// ⇒ twice the output rate.
#[test]
fn equal_cost_output_proportional_to_rate() {
    // each NF alone needs 77% of the core: heavy contention
    let r = run_standalone(
        Policy::CfsNormal,
        NfvniceConfig::full(),
        &[1_300, 1_300],
        &[2_000_000.0, 1_000_000.0],
        800,
    );
    let ratio = r.flow(0).delivered_pps / r.flow(1).delivered_pps;
    assert!((1.6..2.4).contains(&ratio), "ratio {ratio}");
}

/// §2.1's definition, case 2: same rate, one NF costs twice as much
/// ⇒ both get the same output rate (the heavy NF gets twice the CPU).
#[test]
fn equal_rate_output_equal_despite_cost_gap() {
    let r = run_standalone(
        Policy::CfsNormal,
        NfvniceConfig::full(),
        &[1_000, 2_000],
        &[1_500_000.0, 1_500_000.0],
        800,
    );
    let ratio = r.flow(0).delivered_pps / r.flow(1).delivered_pps;
    assert!((0.8..1.25).contains(&ratio), "ratio {ratio}");
    let cpu_ratio = r.nfs[1].cpu_util / r.nfs[0].cpu_util;
    assert!((1.6..2.4).contains(&cpu_ratio), "cpu ratio {cpu_ratio}");
}

/// Operator priority doubles an NF's share of the output.
#[test]
fn priority_provides_differentiated_service() {
    let mut cfg = SimConfig::default();
    cfg.platform.nf_cores = 1;
    cfg.platform.policy = Policy::CfsNormal;
    cfg.nfvnice = NfvniceConfig::full();
    let mut sim = Simulation::new(cfg);
    let gold = sim.add_nf(NfSpec::new("gold", 0, 1_300).with_priority(2.0));
    let best = sim.add_nf(NfSpec::new("besteffort", 0, 1_300));
    let cg = sim.add_chain(&[gold]);
    let cb = sim.add_chain(&[best]);
    sim.add_udp(cg, 2_000_000.0, 64);
    sim.add_udp(cb, 2_000_000.0, 64);
    let r = sim.run(Duration::from_millis(800));
    let ratio = r.flow(0).delivered_pps / r.flow(1).delivered_pps;
    assert!((1.6..2.4).contains(&ratio), "priority ratio {ratio}");
}

/// Extreme 100× cost diversity: rate-cost fairness means the two flows'
/// *output rates* converge (analytically ≈ 52 kpps each here — the heavy
/// NF gets ~99 % of the CPU), and neither is starved.
#[test]
fn no_starvation_under_extreme_diversity() {
    let r = run_standalone(
        Policy::CfsNormal,
        NfvniceConfig::full(),
        &[500, 50_000],
        &[1_000_000.0, 1_000_000.0],
        800,
    );
    let light = r.flow(0).delivered_pps;
    let heavy = r.flow(1).delivered_pps;
    assert!(light > 20_000.0, "light starved: {light}");
    assert!(heavy > 20_000.0, "heavy starved: {heavy}");
    let ratio = light / heavy;
    assert!(
        (0.6..1.8).contains(&ratio),
        "outputs should converge: {ratio}"
    );
    // Contrast: the vanilla scheduler splits CPU 50/50, so the light NF
    // outputs ~50x more than the heavy one.
    let d = run_standalone(
        Policy::CfsNormal,
        NfvniceConfig::off(),
        &[500, 50_000],
        &[1_000_000.0, 1_000_000.0],
        800,
    );
    assert!(d.flow(0).delivered_pps / d.flow(1).delivered_pps > 10.0);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Property: for any 2-4 NFs with random costs and rates, NFVnice's
    /// fairness over *normalized* goodput (delivered/offered — the quantity
    /// rate-cost proportional fairness equalizes: output ∝ arrival rate)
    /// is at least the vanilla scheduler's, up to measurement noise.
    #[test]
    fn nfvnice_never_less_fair_than_default(
        n in 2usize..=4,
        seed in 0u64..1000,
    ) {
        let mut costs = Vec::new();
        let mut rates = Vec::new();
        // deterministic pseudo-random population from the seed
        let mut x = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        for _ in 0..n {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            costs.push(500 + (x >> 33) % 8_000);
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            rates.push(500_000.0 + ((x >> 33) % 2_000_000) as f64);
        }
        let normalized_jain = |r: &Report| {
            let xs: Vec<f64> = r
                .flows
                .iter()
                .zip(&rates)
                .map(|(f, &offered)| f.delivered_pps / offered)
                .collect();
            nfv_des::jain_index(&xs)
        };
        let d = run_standalone(Policy::CfsNormal, NfvniceConfig::off(), &costs, &rates, 300);
        let f = run_standalone(Policy::CfsNormal, NfvniceConfig::full(), &costs, &rates, 300);
        prop_assert!(normalized_jain(&f) >= normalized_jain(&d) - 0.08,
            "normalized jain: nfvnice {} vs default {} (costs {costs:?} rates {rates:?})",
            normalized_jain(&f), normalized_jain(&d));
        prop_assert!(normalized_jain(&f) > 0.7);
    }

    /// Property: packet accounting holds for arbitrary chain shapes — at
    /// every event (the sim-sanitizer audits each one), not just at the end.
    #[test]
    fn conservation_over_random_chains(
        len in 1usize..=5,
        cost_scale in 1u64..=20,
        seed in 0u64..1000,
    ) {
        let mut cfg = SimConfig::default();
        cfg.platform.nf_cores = 2;
        cfg.platform.policy = Policy::CfsBatch;
        cfg.nfvnice = NfvniceConfig::full();
        cfg.seed = seed;
        cfg.sanitizer = nfvnice::SanitizerConfig::audit();
        let mut sim = Simulation::new(cfg);
        let nfs: Vec<_> = (0..len)
            .map(|i| sim.add_nf(NfSpec::new(format!("nf{i}"), i % 2, 100 * cost_scale * (i as u64 + 1))))
            .collect();
        let chain = sim.add_chain(&nfs);
        sim.add_udp_with(chain, 3_000_000.0, 64, |f| f.poisson());
        let r = sim.run(Duration::from_millis(60));
        let errors = sim.sanitizer.errors().count();
        prop_assert!(errors == 0, "sanitizer errors:\n{}", sim.sanitizer.summary());
        prop_assert!(nfvnice::packets_conserved(&sim.platform));
        let ledger = nfvnice::conservation_ledger(&sim.platform);
        prop_assert_eq!(ledger.delivered + ledger.dropped,
            r.flow(0).delivered + r.flow(0).dropped);
    }
}
