//! A flash crowd hitting a reactively-learned flow table.
//!
//! A background tenant keeps a steady working set of 4 Ki flows alive
//! through a match-anything wildcard rule. At t = 30 ms a flash crowd of
//! 64 Ki brand-new sources arrives for 30 ms and vanishes. The flow
//! table learns every tuple on first sight (exact-match entries minted
//! by the wildcard), and epoch-based aging — driven from the monitor
//! tick — evicts the crowd once it goes idle, so the table's footprint
//! follows the offered working set instead of growing monotonically.
//!
//! The example prints the installed-flow count over time (the ramp, the
//! plateau, the decay) and the table's end-of-run self-profile.
//!
//! Run with: `cargo run --release --bin flash_crowd`

#![forbid(unsafe_code)]

use nfvnice::{tenant, Duration, FlowAging, NfSpec, SimConfig, SimTime, Simulation, TenantSpec};

const RUN_MS: u64 = 120;
const CROWD_START_MS: u64 = 30;
const CROWD_STOP_MS: u64 = 60;

fn main() {
    let mut cfg = SimConfig::default();
    cfg.platform.nf_cores = 1;
    // Learned flows idle for more than 2 epochs (an epoch advances every
    // 8 monitor ticks = 8 ms here) are evicted; explicit installs and TCP
    // flows are pinned and never age out.
    cfg.platform.flow_aging = FlowAging {
        idle_epochs: 2,
        epoch_ticks: 8,
    };
    cfg.obs.metrics = true;
    let mut sim = Simulation::new(cfg);

    let nf = sim.add_nf(NfSpec::new("edge", 0, 120));
    let chain = sim.add_chain(&[nf]);

    // Steady background: tenant 0 sweeps a 4 Ki-tuple slice at 0.5 Mpps.
    let bg = tenant(TenantSpec {
        index: 0,
        flows: 4_096,
        rate_pps: 0.5e6,
        frame_size: 64,
    });
    sim.add_wildcard(bg.pattern, chain, 0);
    sim.add_sweep(bg.sweep);

    // The crowd: 64 Ki new tuples at 3 Mpps, present for 30 ms only.
    let crowd = tenant(TenantSpec {
        index: 1,
        flows: 65_536,
        rate_pps: 3.0e6,
        frame_size: 64,
    });
    sim.add_wildcard(crowd.pattern, chain, 0);
    sim.add_sweep(crowd.sweep.window(
        SimTime::from_millis(CROWD_START_MS),
        SimTime::from_millis(CROWD_STOP_MS),
    ));

    let r = sim.run(Duration::from_millis(RUN_MS));
    sim.sanitizer.assert_clean();

    let m = sim.take_metrics();
    println!("installed flows over time (one sample per 10 ms):");
    for (i, chunk) in m.flows_active.chunks(10).enumerate() {
        let active = chunk.last().copied().unwrap_or(0);
        let evicted = m
            .flows_evicted
            .get(i * 10 + chunk.len() - 1)
            .copied()
            .unwrap_or(0);
        let bar = "#".repeat((active / 2_048) as usize);
        println!(
            "  t={:>3} ms  active={:>6}  evicted={:>6}  {bar}",
            (i + 1) * 10,
            active,
            evicted
        );
    }

    let f = &r.flow;
    println!();
    println!(
        "end of run: {} flows installed, {} evicted, {:.3} Mpps delivered",
        r.flows_active,
        r.flows_evicted,
        r.throughput_mpps()
    );
    println!(
        "flow table: {} shards x {} slots, {} installs ({} ids recycled), max probe {}",
        f.shards,
        f.slots / f.shards.max(1),
        f.installs,
        f.recycled,
        f.max_probe
    );

    // The crowd must have been learned and then reclaimed: the table ends
    // near the background working set, not at background + crowd.
    assert!(r.flows_evicted >= 65_536, "aging must reclaim the crowd");
    assert!(
        r.flows_active < 16_384,
        "table must shrink back to the background working set"
    );
    println!();
    println!("The table's footprint tracked the offered working set: the crowd's");
    println!("65,536 learned entries were evicted within a few idle epochs and");
    println!("their FlowIds recycled for later arrivals.");
}
