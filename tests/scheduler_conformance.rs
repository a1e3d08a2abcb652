//! End-to-end scheduler conformance: the simulated CFS/BATCH/RR policies
//! must show the behavioural signatures Section 2.2 of the paper measures.

#![forbid(unsafe_code)]

use nfvnice::{Duration, NfSpec, NfvniceConfig, Policy, Report, SimConfig, Simulation};

fn three_standalone_nfs(policy: Policy, costs: [u64; 3], rates: [f64; 3]) -> Report {
    let mut cfg = SimConfig::default();
    cfg.platform.nf_cores = 1;
    cfg.platform.policy = policy;
    cfg.nfvnice = NfvniceConfig::off();
    let mut sim = Simulation::new(cfg);
    for i in 0..3 {
        let nf = sim.add_nf(NfSpec::new(format!("nf{i}"), 0, costs[i]));
        let chain = sim.add_chain(&[nf]);
        sim.add_udp(chain, rates[i], 64);
    }
    sim.run(Duration::from_millis(400))
}

/// CFS divides CPU equally among equally-weighted overloaded tasks.
#[test]
fn cfs_equal_cpu_for_equal_weights() {
    let r = three_standalone_nfs(Policy::CfsNormal, [250; 3], [5e6; 3]);
    for nf in &r.nfs {
        assert!(
            (nf.cpu_util - 1.0 / 3.0).abs() < 0.05,
            "{} got {}",
            nf.name,
            nf.cpu_util
        );
    }
}

/// Under CFS, heterogeneous costs at equal rates ⇒ the light NF gets the
/// highest throughput (Fig 1b NORMAL), the opposite of rate-cost fairness.
#[test]
fn cfs_favors_light_nfs() {
    let r = three_standalone_nfs(Policy::CfsNormal, [500, 250, 50], [5e6; 3]);
    assert!(r.nfs[2].output_rate_pps > r.nfs[1].output_rate_pps);
    assert!(r.nfs[1].output_rate_pps > r.nfs[0].output_rate_pps);
}

/// RR with its long default quantum lets a heavy NF hog the core
/// (Fig 1b RR: NF1 starves the others).
#[test]
fn rr_lets_heavy_nf_hog() {
    let r = three_standalone_nfs(Policy::rr_100ms(), [500, 250, 50], [5e6; 3]);
    assert!(
        r.nfs[0].cpu_util > 0.85,
        "heavy NF should hog: {}",
        r.nfs[0].cpu_util
    );
    assert!(r.nfs[2].cpu_util < 0.1);
}

/// Under even overload, CFS preempts (involuntary switches dominate) while
/// RR tasks drain their rings and yield (voluntary switches dominate) —
/// Table 1's signature.
#[test]
fn context_switch_signatures() {
    let cfs = three_standalone_nfs(Policy::CfsNormal, [250; 3], [5e6; 3]);
    for nf in &cfs.nfs {
        assert!(
            nf.nvcswch_per_sec > nf.cswch_per_sec,
            "CFS {}: nv={} v={}",
            nf.name,
            nf.nvcswch_per_sec,
            nf.cswch_per_sec
        );
    }
    let rr = three_standalone_nfs(Policy::rr_100ms(), [250; 3], [5e6; 3]);
    for nf in &rr.nfs {
        assert!(
            nf.cswch_per_sec > nf.nvcswch_per_sec,
            "RR {}: v={} nv={}",
            nf.name,
            nf.cswch_per_sec,
            nf.nvcswch_per_sec
        );
    }
}

/// BATCH reduces involuntary context switches relative to NORMAL when a
/// light sleeper wakes frequently next to heavy NFs (Table 2's 65K → 1K).
#[test]
fn batch_cuts_wakeup_preemptions() {
    let normal = three_standalone_nfs(Policy::CfsNormal, [500, 250, 50], [5e6; 3]);
    let batch = three_standalone_nfs(Policy::CfsBatch, [500, 250, 50], [5e6; 3]);
    let nv = |r: &Report| r.nfs.iter().map(|n| n.nvcswch_per_sec).sum::<f64>();
    assert!(
        nv(&normal) > 10.0 * nv(&batch),
        "normal {} vs batch {}",
        nv(&normal),
        nv(&batch)
    );
}

/// cgroup weight updates shift CPU allocation under CFS but not under RR
/// (the RT class ignores cpu.shares).
#[test]
fn weights_move_cfs_but_not_rr() {
    let run = |policy: Policy| -> Report {
        let mut cfg = SimConfig::default();
        cfg.platform.nf_cores = 1;
        cfg.platform.policy = policy;
        cfg.nfvnice = NfvniceConfig::cgroups_only();
        let mut sim = Simulation::new(cfg);
        // 1:4 cost ratio at equal rates → NFVnice wants a 1:4 CPU split.
        let a = sim.add_nf(NfSpec::new("light", 0, 500));
        let b = sim.add_nf(NfSpec::new("heavy", 0, 2_000));
        let ca = sim.add_chain(&[a]);
        let cb = sim.add_chain(&[b]);
        sim.add_udp(ca, 3_000_000.0, 64);
        sim.add_udp(cb, 3_000_000.0, 64);
        sim.run(Duration::from_millis(600))
    };
    let cfs = run(Policy::CfsNormal);
    let ratio_cfs = cfs.nfs[1].cpu_util / cfs.nfs[0].cpu_util;
    assert!(ratio_cfs > 2.5, "CFS obeys shares: ratio {ratio_cfs}");
    let rr = run(Policy::rr_1ms());
    let ratio_rr = rr.nfs[1].cpu_util / rr.nfs[0].cpu_util;
    assert!(
        (0.6..1.7).contains(&ratio_rr),
        "RR ignores shares: ratio {ratio_rr}"
    );
}
