//! Smoke test of the benchmark: every workload at a tiny simulated length
//! passes its output check, prints every metric `BENCHMARK.json` lists,
//! and repeats its exact per-layer counts across two runs (any drift
//! would mean the simulation is nondeterministic).

use std::path::Path;
use std::process::Command;

/// Per-layer metrics that are counts of the run, or ratios of counts:
/// they must repeat exactly.
const EXACT: [&str; 20] = [
    "des.pops_per_kpkt",
    "des.coalesced_share",
    "des.skipped_share",
    "des.cascades_per_pop",
    "des.max_len",
    "des.replay_fidelity",
    "pkt.memo_hit_ratio",
    "pkt.avg_probe",
    "pkt.max_probe",
    "pkt.installs",
    "pkt.rehashes",
    "platform.nf_pkts_per_pkt",
    "platform.useful_ratio",
    "platform.entry_shed_ratio",
    "platform.replay_fidelity",
    "sched.switches_per_sim_s",
    "sched.cgroup_writes",
    "core.throttle_events",
    "core.ecn_marks",
    "obs.metrics_bytes",
];

fn benchmark_json() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark directory")
}

/// The `name`s listed in one array section of `BENCHMARK.json`.
fn names(json: &str, section: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{section}\": ["))
        .unwrap_or_else(|| panic!("section {section} missing"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("name closes")].to_string())
        .collect()
}

/// Run the benchmark and return the last line of its standard output.
fn run(workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "0", "--seconds", "0"])
        .args(["--trace", trace, "--sim-ms", "20"])
        .output()
        .expect("run the benchmark");
    assert!(out.status.success(), "{workload}: exit {:?}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    stdout.lines().last().expect("a result line").to_string()
}

fn value<'a>(result: &'a str, name: &str) -> Option<&'a str> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &result[result.find(&key)? + key.len()..];
    Some(&rest[..rest.find(',')?])
}

#[test]
fn every_workload_passes_and_reports_every_metric() {
    let json = benchmark_json();
    let (e2e, layers) = (names(&json, "end_to_end"), names(&json, "per_layer"));
    for &exact in &EXACT {
        assert!(
            layers.iter().any(|n| n == exact),
            "{exact} not in BENCHMARK.json"
        );
    }
    for workload in names(&json, "workloads") {
        let timed = run(&workload, "0");
        assert!(
            timed.starts_with("{\"correct\": true"),
            "{workload}: {timed}"
        );
        for name in &e2e {
            assert!(
                value(&timed, name).is_some(),
                "{workload}: no {name} in {timed}"
            );
        }
        let traced = [run(&workload, "1"), run(&workload, "1")];
        for result in &traced {
            assert!(
                result.starts_with("{\"correct\": true"),
                "{workload}: {result}"
            );
            for name in &layers {
                assert!(
                    value(result, name).is_some(),
                    "{workload}: no {name} in {result}"
                );
            }
        }
        for name in EXACT {
            assert_eq!(
                value(&traced[0], name),
                value(&traced[1], name),
                "{workload}: {name} differs between two runs"
            );
        }
    }
}
