//! One criterion bench per paper table/figure: runs a compressed version of
//! each experiment cell end-to-end (the full-fidelity numbers come from the
//! `nfv-bench` binary). Criterion's measurement here is wall time of the
//! whole simulated cell — i.e. simulator performance on every experiment's
//! workload — while each iteration also sanity-checks the experiment's
//! headline property so a regression in *results* fails loudly.

#![forbid(unsafe_code)]

use criterion::{criterion_group, criterion_main, Criterion};
use nfv_bench::experiments::*;
use nfv_bench::RunLength;
use nfvnice::{NfvniceConfig, Policy};

fn quick() -> RunLength {
    RunLength {
        steady: nfvnice::Duration::from_millis(100),
        timeline_scale: 25,
    }
}

fn bench_cell(c: &mut Criterion, name: &str, mut f: impl FnMut()) {
    let mut g = c.benchmark_group("paper");
    g.sample_size(10);
    g.bench_function(name, |b| b.iter(&mut f));
    g.finish();
}

fn fig1_cells(c: &mut Criterion) {
    bench_cell(c, "fig1a_homogeneous_normal", || {
        let r = fig1::run_cell(Policy::CfsNormal, fig1::Variant::Homogeneous, true, quick());
        assert!(r.total_delivered_pps > 0.0);
    });
    bench_cell(c, "fig1b_heterogeneous_normal", || {
        let r = fig1::run_cell(
            Policy::CfsNormal,
            fig1::Variant::Heterogeneous,
            true,
            quick(),
        );
        // Table 2's signature: light NF outruns heavy under CFS
        assert!(r.nfs[2].output_rate_pps > r.nfs[0].output_rate_pps);
    });
}

fn fig7_cells(c: &mut Criterion) {
    bench_cell(c, "fig7_default_batch", || {
        let r = fig7::run_cell(Policy::CfsBatch, NfvniceConfig::off(), quick());
        assert!(r.total_wasted_drops > 0);
    });
    bench_cell(c, "fig7_nfvnice_batch", || {
        let r = fig7::run_cell(Policy::CfsBatch, NfvniceConfig::full(), quick());
        assert!(r.total_wasted_drops < 100);
    });
}

fn multicore_cells(c: &mut Criterion) {
    bench_cell(c, "table5_nfvnice", || {
        let r = multicore::run_table5_cell(NfvniceConfig::full(), quick());
        assert!(r.nfs[0].cpu_util < 0.7, "upstream should idle");
    });
    bench_cell(c, "fig9_two_chains", || {
        let r = multicore::run_fig9_cell(NfvniceConfig::full(), quick());
        assert!(r.chains[0].pps > r.chains[1].pps);
    });
}

fn variable_and_orderings(c: &mut Criterion) {
    bench_cell(c, "fig10_variable_cost_nfvnice", || {
        let r = fig10::run_cell(Policy::CfsBatch, NfvniceConfig::full(), quick());
        assert!(r.total_delivered_pps > 1e6);
    });
    bench_cell(c, "fig11_med_high_low_rr100", || {
        let d = fig11::run_cell(
            [270, 550, 120],
            Policy::rr_100ms(),
            NfvniceConfig::off(),
            quick(),
        );
        let n = fig11::run_cell(
            [270, 550, 120],
            Policy::rr_100ms(),
            NfvniceConfig::full(),
            quick(),
        );
        assert!(
            n.chains[0].pps > d.chains[0].pps,
            "NFVnice rescues RR(100ms)"
        );
    });
    bench_cell(c, "fig12_type3", || {
        let r = fig12::run_cell(3, Policy::CfsBatch, NfvniceConfig::full(), quick());
        assert!(r.total_delivered_pps > 1e6);
    });
}

fn timelines(c: &mut Criterion) {
    bench_cell(c, "fig13_isolation_nfvnice", || {
        let run = fig13::run_cell(NfvniceConfig::full(), quick());
        assert!(run.report.flow(run.tcp_flow).delivered > 0);
    });
    bench_cell(c, "fig14_async_io_64b", || {
        let r = fig14::run_cell(64, true, quick());
        assert!(r.total_delivered_pps > 1e5);
    });
    bench_cell(c, "fig15_diversity6_nfvnice", || {
        let r = fig15::run_diversity_cell(6, NfvniceConfig::full(), quick());
        assert!(r.jain_over_flows() > 0.8);
    });
    bench_cell(c, "fig16_len6_sc_nfvnice", || {
        let r = fig16::run_cell(6, false, NfvniceConfig::full(), quick());
        assert!(r.chains[0].pps > 0.0);
    });
    bench_cell(c, "tuning_high80", || {
        let r = tuning::run_cell(80, 60, quick());
        assert!(r.chains[0].pps > 1e6);
    });
}

fn slo_cells(c: &mut Criterion) {
    bench_cell(c, "slo_budget_vs_ratecost", || {
        let s = slo::run_cell(Policy::Slo, quick());
        let n = slo::run_cell(Policy::CfsNormal, quick());
        // The experiment's headline: the SLO policy holds the interactive
        // chain's p99 inside the budget that rate-cost scheduling misses.
        assert!(slo::meets_budget(&s), "SLO blew the interactive budget");
        assert!(
            !slo::meets_budget(&n),
            "NORMAL met the budget — no contrast"
        );
    });
}

fn scale_cells(c: &mut Criterion) {
    bench_cell(c, "scale_1m_flows", || {
        // The sweep needs ~233 ms to visit its full 2^20-tuple slice at
        // 4.5 Mpps, so this cell runs a touch longer than `quick()`.
        let len = RunLength {
            steady: nfvnice::Duration::from_millis(250),
            timeline_scale: 25,
        };
        let r = scale::run_1m(len);
        assert!(
            r.flows_active >= 1 << 20,
            "table must hold a million concurrent flows"
        );
        assert!(r.flow.max_probe < 256, "probe lengths must stay bounded");
    });
    bench_cell(c, "scale_flash_crowd", || {
        let r = scale::run_flash(quick());
        assert!(r.flows_evicted > 0, "aging must reclaim the crowd");
    });
}

fn elastic_cells(c: &mut Criterion) {
    bench_cell(c, "elastic_scale_out_and_migration", || {
        // This cell needs the full quick length: the controller's dwell
        // and cooldown windows leave too little post-action run at 100 ms.
        let len = RunLength::quick();
        let cells = elastic::cells();
        let bp = elastic::run_cell(cells[0].0, cells[0].1, len);
        let out = elastic::run_cell(cells[1].0, cells[1].1, len);
        let mig = elastic::run_cell(cells[2].0, cells[2].1, len);
        // The experiment's headline: adding capacity beats shedding —
        // each elastic freedom must out-deliver backpressure-only.
        assert!(out.nf_scale_outs >= 1, "no replica was deployed");
        assert!(mig.nf_migrations >= 1, "no migration happened");
        assert!(out.total_delivered_pps > bp.total_delivered_pps);
        assert!(mig.total_delivered_pps > bp.total_delivered_pps);
    });
}

criterion_group!(
    benches,
    fig1_cells,
    fig7_cells,
    multicore_cells,
    variable_and_orderings,
    timelines,
    slo_cells,
    scale_cells,
    elastic_cells
);
criterion_main!(benches);
