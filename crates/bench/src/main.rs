//! CLI driver: `nfv-bench [experiment...] [--quick] [--jobs N] [--list]
//! [--only <experiment>] [--sanitize] [--trace <path>]
//! [--metrics-out <path>]`.
//!
//! With no arguments, runs the full evaluation suite in paper order.
//! `--list` prints the experiment names and exits; `--only <name>` (or a
//! bare positional name) restricts the run to the named experiments and
//! rejects unknown names.
//!
//! `--jobs N` runs up to `N` suite entries concurrently on harness
//! threads. Each cell is still its own single-threaded, seeded
//! simulation, and results are committed in suite order, so stdout,
//! `--trace`, `--metrics-out` and the timings file are byte-identical to
//! a serial run (wall-clock fields aside).
//!
//! `--sanitize` runs every experiment with the runtime sim-sanitizer in
//! strict mode: conservation, hysteresis and suppression-safety are
//! audited at every event, and a violation aborts the run.
//!
//! `--trace <path>` streams structured events (throttles, drops, ECN
//! marks, share writes, context switches, ...) from every cell as JSONL.
//! `--metrics-out <path>` writes per-NF/per-chain time series for every
//! cell as one JSON document (or CSV sections when the path ends in
//! `.csv`). Either flag also emits per-cell wall-clock timings to stderr
//! and writes them — plus the worker count and whole-suite wall clock —
//! to `BENCH_timings.json` next to the metrics file (or in the working
//! directory for `--trace` alone); wall times live in their own file so
//! the metrics document stays byte-reproducible.

#![forbid(unsafe_code)]

use nfv_bench::experiments::*;
use nfv_bench::{Exp, RunLength};

fn main() {
    let suite: &[Exp] = &[
        ("fig1", fig1::run),
        ("fig7", fig7::run),
        ("table5", multicore::run_table5),
        ("fig9", multicore::run_fig9),
        ("fig10", fig10::run),
        ("fig11", fig11::run),
        ("fig12", fig12::run),
        ("fig13", fig13::run),
        ("fig14", fig14::run),
        ("fig15", fig15::run),
        ("fig16", fig16::run),
        ("tuning", tuning::run),
        ("ablations", ablations::run),
        ("coop", coop::run),
        ("faults", faults::run),
        ("elastic", elastic::run),
        ("slo", slo::run),
        ("scale", scale::run),
    ];

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut jobs = 1usize;
    let mut trace_path: Option<String> = None;
    let mut metrics_path: Option<String> = None;
    let mut wanted: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--list" => {
                for (name, _) in suite {
                    println!("{name}");
                }
                return;
            }
            "--jobs" => {
                let n = it.next().expect("--jobs requires a count");
                jobs = n.parse().expect("--jobs requires a positive integer");
                assert!(jobs >= 1, "--jobs requires a positive integer");
            }
            "--only" => {
                let name = it.next().expect("--only requires an experiment name");
                wanted.push(name.clone());
            }
            "--sanitize" => {
                nfv_bench::enable_sanitizer();
                eprintln!("nfv-bench: sim-sanitizer enabled (strict)");
            }
            "--trace" => {
                let p = it.next().expect("--trace requires a path");
                nfv_bench::enable_trace(p).expect("failed to open --trace output");
                trace_path = Some(p.clone());
            }
            "--metrics-out" => {
                let p = it.next().expect("--metrics-out requires a path");
                nfv_bench::enable_metrics();
                metrics_path = Some(p.clone());
            }
            flag if flag.starts_with("--") => {
                eprintln!("nfv-bench: ignoring unknown flag {flag}");
            }
            name => wanted.push(name.to_string()),
        }
    }
    for w in &wanted {
        if !suite.iter().any(|(name, _)| name == w) {
            eprintln!("nfv-bench: unknown experiment {w:?} (see --list)");
            std::process::exit(2);
        }
    }
    let len = if quick {
        RunLength::quick()
    } else {
        RunLength::full()
    };
    let selected: Vec<Exp> = suite
        .iter()
        .filter(|(name, _)| wanted.is_empty() || wanted.iter().any(|w| w == name))
        .copied()
        .collect();

    // Suite wall clock is bench telemetry only (lands in the timings file,
    // never in metrics).
    let t0 = std::time::Instant::now(); // nfv-lint: allow(wall-clock) -- suite telemetry, never enters the sim
    nfv_bench::run_suite(&selected, len, jobs);
    nfv_bench::set_suite_meta(jobs, t0.elapsed().as_secs_f64() * 1e3);

    if trace_path.is_some() || metrics_path.is_some() {
        nfv_bench::flush_trace();
        nfv_bench::print_timings();
        if let Some(p) = &metrics_path {
            if let Some(dir) = std::path::Path::new(p).parent() {
                if !dir.as_os_str().is_empty() {
                    std::fs::create_dir_all(dir).expect("failed to create metrics dir");
                }
            }
            let body = if p.ends_with(".csv") {
                nfv_bench::metrics_csv()
            } else {
                nfv_bench::metrics_json()
            };
            std::fs::write(p, body).expect("failed to write --metrics-out");
            eprintln!("nfv-bench: wrote metrics to {p}");
        }
        // Wall-clock timings are nondeterministic by nature, so they go in
        // their own file and never pollute the metrics document.
        let timings = std::path::Path::new(metrics_path.as_deref().unwrap_or(""))
            .parent()
            .filter(|d| !d.as_os_str().is_empty())
            .map(|d| d.join("BENCH_timings.json"))
            .unwrap_or_else(|| std::path::PathBuf::from("BENCH_timings.json"));
        std::fs::write(&timings, nfv_bench::timings_json())
            .expect("failed to write BENCH_timings.json");
        eprintln!("nfv-bench: wrote timings to {}", timings.display());
    }
}
