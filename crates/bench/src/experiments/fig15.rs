//! Figure 15: dynamic CPU tuning and fairness.
//!
//! (a) Two NFs with a 1:3 cost ratio share a core at equal arrival rates;
//!     NF1's cost triples during the middle third of the run. NFVnice's
//!     weight updates track the change (75/25 → 50/50 → 75/25) while
//!     NORMAL stays pinned at 50/50.
//! (b) Jain's fairness index across diversity levels 1..6 (cost ratios
//!     1:2:5:20:40:60).
//! (c) CPU share vs per-flow throughput at diversity 6.

use crate::util::{sim, RunLength, Table};
use nfvnice::{Action, CostModel, Duration, NfSpec, NfvniceConfig, Policy, Report, SimTime};

/// Fig 15a timeline in paper-seconds.
pub const PHASE1_END: u64 = 31;
/// When NF1's cost reverts.
pub const PHASE2_END: u64 = 60;
/// Total run.
pub const TOTAL: u64 = 90;

/// Run Fig 15a for one variant; returns the report with CPU series.
pub fn run_15a_cell(variant: NfvniceConfig, len: RunLength) -> Report {
    let scale = len.timeline_scale;
    let mut s = sim(1, Policy::CfsNormal, variant);
    // Costs ×10, rates ÷10 relative to the paper keeps utilization (and
    // therefore the figure) identical while shrinking event counts.
    let nf1 = s.add_nf(NfSpec::new("NF1", 0, 5_000));
    let nf2 = s.add_nf(NfSpec::new("NF2", 0, 15_000));
    let c1 = s.add_chain(&[nf1]);
    let c2 = s.add_chain(&[nf2]);
    // Both NFs individually overloaded in every phase (NF1: 58 % demand at
    // its cheap cost, 173 % when tripled), so NORMAL pins at 50/50 while
    // NFVnice tracks the 1:3 → 1:1 → 1:3 load ratio.
    s.add_udp(c1, 300_000.0, 64);
    s.add_udp(c2, 300_000.0, 64);
    s.at(
        SimTime::from_millis(PHASE1_END * 1000 / scale),
        Action::SetCost(nf1, CostModel::Fixed(15_000)),
    );
    s.at(
        SimTime::from_millis(PHASE2_END * 1000 / scale),
        Action::SetCost(nf1, CostModel::Fixed(5_000)),
    );
    let cell = format!("15a/{}", variant.label());
    crate::util::run_logged(
        "fig15",
        &cell,
        &mut s,
        Duration::from_millis(TOTAL * 1000 / scale),
    )
}

/// Diversity-level setup shared by 15b and 15c: `level` NFs with cost
/// ratios 1:2:5:20:40:60, equal arrival rates, one core.
pub fn run_diversity_cell(level: usize, variant: NfvniceConfig, len: RunLength) -> Report {
    const RATIOS: [u64; 6] = [1, 2, 5, 20, 40, 60];
    let mut s = sim(1, Policy::CfsNormal, variant);
    // base 500 cycles; rate chosen so the core is overloaded at level 1+.
    for (i, &ratio) in RATIOS.iter().enumerate().take(level) {
        let nf = s.add_nf(NfSpec::new(format!("NF{}", i + 1), 0, 500 * ratio));
        let chain = s.add_chain(&[nf]);
        s.add_udp(chain, 2_000_000.0 / level as f64, 64);
    }
    let cell = format!("diversity{level}/{}", variant.label());
    crate::util::run_logged("fig15", &cell, &mut s, len.steady)
}

/// Render all three parts.
pub fn run(len: RunLength) -> String {
    let mut out = String::new();

    out.push_str("\n=== Fig 15a — dynamic CPU weight adaptation (CPU % per second) ===\n");
    let d = run_15a_cell(NfvniceConfig::off(), len);
    let n = run_15a_cell(NfvniceConfig::full(), len);
    let mut ta = Table::new(&[
        "sec",
        "NF1% (NORMAL)",
        "NF2% (NORMAL)",
        "NF1% (NFVnice)",
        "NF2% (NFVnice)",
    ]);
    for sec in 0..d.series.cpu_pct[0].len() {
        ta.row(vec![
            format!("{}", (sec as u64 + 1) * len.timeline_scale),
            format!("{:.0}", d.series.cpu_pct[0][sec]),
            format!("{:.0}", d.series.cpu_pct[1][sec]),
            format!("{:.0}", n.series.cpu_pct[0][sec]),
            format!("{:.0}", n.series.cpu_pct[1][sec]),
        ]);
    }
    out.push_str(&ta.render());

    out.push_str("\n=== Fig 15b — Jain's fairness index vs diversity level ===\n");
    let mut tb = Table::new(&["level", "NORMAL", "NFVnice"]);
    let mut last: Option<(Report, Report)> = None;
    for level in 1..=6 {
        let d = run_diversity_cell(level, NfvniceConfig::off(), len);
        let n = run_diversity_cell(level, NfvniceConfig::full(), len);
        tb.row(vec![
            format!("{level}"),
            format!("{:.3}", d.jain_over_flows()),
            format!("{:.3}", n.jain_over_flows()),
        ]);
        last = Some((d, n));
    }
    out.push_str(&tb.render());

    out.push_str("\n=== Fig 15c — CPU share and throughput at diversity 6 ===\n");
    let (d, n) = last.unwrap();
    let mut tc = Table::new(&[
        "NF",
        "cpu% (NORMAL)",
        "kpps (NORMAL)",
        "cpu% (NFVnice)",
        "kpps (NFVnice)",
        "shares (NFVnice)",
    ]);
    for i in 0..6 {
        tc.row(vec![
            format!("NF{}", i + 1),
            format!("{:.1}", d.nfs[i].cpu_util * 100.0),
            format!("{:.1}", d.flow(i).delivered_pps / 1e3),
            format!("{:.1}", n.nfs[i].cpu_util * 100.0),
            format!("{:.1}", n.flow(i).delivered_pps / 1e3),
            format!("{}", n.nfs[i].final_shares),
        ]);
    }
    out.push_str(&tc.render());
    out
}
