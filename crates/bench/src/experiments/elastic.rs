//! Elastic NF scaling: backpressure-only shedding versus adding capacity
//! on the same seeded overload trace.
//!
//! Not a paper figure — NFVnice §5 fixes the instance layout and sheds
//! overload at entry — but the natural next question is what the same
//! manager can do when it is *allowed* to change the layout. One core
//! hosts a cheap forwarder and a heavy DPI-class NF, the second core
//! idles; a pinned flow overloads the heavy chain from t=0 and a flash
//! sweep of thousands of fresh flows lands at one fifth of the run. The
//! four cells hold traffic fixed and vary only the controller's freedom:
//! shed at entry (the NFVnice baseline), replicate the bottleneck onto
//! the idle core (fresh flows RSS-shard across the group), migrate the
//! cheapest NF off the saturated core, or both. "both" also retires the
//! replica if the surge ever falls below the idle hysteresis.
//!
//! Scale-out and migration must each beat the backpressure-only cell's
//! goodput — that is the asserted headline property — while the baseline
//! cell documents what pure admission control salvages.

use crate::util::{mpps, run_logged, sim_config, RunLength, Table, LOW};
use nfv_pkt::TuplePattern;
use nfv_traffic::SweepSource;
use nfvnice::{
    Duration, ElasticConfig, NfSpec, NfvniceConfig, Policy, Report, SimTime, Simulation,
};

/// Heavy NF per-packet cost (ns): ~100 kpps capacity, a DPI-class hog.
const HEAVY: u64 = 26_000;
/// Pinned overload on the heavy chain (pps), 10× its capacity.
const PINNED_RATE: f64 = 1_000_000.0;
/// Companion load on the cheap chain (pps).
const CHEAP_RATE: f64 = 1_000_000.0;
/// Flash-surge rate (pps) spread over the sweep's fresh flows.
const SURGE_RATE: f64 = 400_000.0;
/// Fresh flows in the surge sweep.
const SURGE_FLOWS: u32 = 4096;

/// One cell: which controller freedoms are enabled.
#[derive(Clone, Copy)]
pub struct Scenario {
    /// Replicate persistent bottlenecks onto the idle core.
    pub scale_out: bool,
    /// Migrate the cheapest NF off a saturated core.
    pub migration: bool,
    /// Retire replicas that idle past the hysteresis.
    pub scale_in: bool,
}

impl Scenario {
    fn elastic(self) -> ElasticConfig {
        ElasticConfig {
            scale_out: self.scale_out,
            migration: self.migration,
            scale_in: self.scale_in,
            ..ElasticConfig::default()
        }
    }
}

/// Two cores, cheap + heavy both homed on core 0, surge starting at one
/// fifth of the run so the controller's dwell window has passed when the
/// fresh flows arrive.
fn build(sc: Scenario, steady: Duration) -> Simulation {
    let mut cfg = sim_config(2, Policy::CfsBatch, NfvniceConfig::full());
    cfg.elastic = sc.elastic();
    let mut s = Simulation::new(cfg);
    let cheap = s.add_nf(NfSpec::new("NF1-fwd", 0, LOW));
    let heavy = s.add_nf(NfSpec::new("NF2-dpi", 0, HEAVY));
    let cheap_chain = s.add_chain(&[cheap]);
    let heavy_chain = s.add_chain(&[heavy]);
    s.add_udp(cheap_chain, CHEAP_RATE, 64);
    s.add_udp(heavy_chain, PINNED_RATE, 64); // pinned: always routed to the base
    s.add_wildcard(TuplePattern::any(), heavy_chain, 0);
    let surge_at = SimTime::ZERO + Duration::from_nanos(steady.as_nanos() / 5);
    let surge_len = Duration::from_nanos(steady.as_nanos() * 4 / 5);
    s.add_sweep(SweepSource::flash(
        1 << 16,
        SURGE_FLOWS,
        64,
        SURGE_RATE,
        surge_at,
        surge_len,
    ));
    s
}

/// Run one named cell for the suite and the integration tests.
pub fn run_cell(name: &str, sc: Scenario, len: RunLength) -> Report {
    let mut s = build(sc, len.steady);
    run_logged("elastic", name, &mut s, len.steady)
}

/// The cell set, in increasing order of controller freedom.
pub fn cells() -> Vec<(&'static str, Scenario)> {
    vec![
        (
            "bp-only",
            Scenario {
                scale_out: false,
                migration: false,
                scale_in: false,
            },
        ),
        (
            "scale-out",
            Scenario {
                scale_out: true,
                migration: false,
                scale_in: false,
            },
        ),
        (
            "migration",
            Scenario {
                scale_out: false,
                migration: true,
                scale_in: false,
            },
        ),
        (
            "both",
            Scenario {
                scale_out: true,
                migration: true,
                scale_in: true,
            },
        ),
    ]
}

/// Full experiment output.
pub fn run(len: RunLength) -> String {
    let mut out = String::new();
    out.push_str(
        "\n=== Elastic — scale-out / migration vs backpressure-only on one \
         overload trace (goodput Mpps) ===\n",
    );
    let mut t = Table::new(&[
        "cell",
        "total",
        "dpi-chain",
        "fwd-chain",
        "outs",
        "migs",
        "ins",
        "entry-drops",
    ]);
    for (name, sc) in cells() {
        let r = run_cell(name, sc, len);
        let span = len.steady.as_secs_f64();
        t.row(vec![
            name.to_string(),
            mpps(r.total_delivered_pps),
            mpps(r.chains[1].delivered as f64 / span),
            mpps(r.chains[0].delivered as f64 / span),
            r.nf_scale_outs.to_string(),
            r.nf_migrations.to_string(),
            r.nf_scale_ins.to_string(),
            crate::util::human_count(r.entry_drops as f64),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(
        "\nBackpressure can only shed the overload; every elastic cell turns \
         the idle core into goodput instead — a replica absorbs the fresh-flow \
         surge (in-flight flows stay pinned to the base instance), migration \
         gives the saturated core back to the hog.\n",
    );
    out
}
