//! `nfv-perfdiff` binary: the CI wall-clock perf gate.
//!
//! Compare mode (default):
//!
//! ```text
//! nfv-perfdiff --baseline BENCH_baseline.json \
//!     --current run1/BENCH_timings.json [--current run2/...]... \
//!     [--allow <experiment/cell>]... [--allowlist <file>] \
//!     [--cell-tol 0.25] [--suite-tol 0.10] [--abs-floor-ms 25] \
//!     [--report perfdiff.md]
//! ```
//!
//! Exits 1 when any non-allowlisted cell regresses past the per-cell
//! threshold or the matched-cell suite total regresses past the suite
//! threshold; writes a markdown report for the CI artifact with
//! `--report`. The allowlist file holds one `experiment/cell` key per
//! line (`#` comments and blank lines ignored). Repeat `--current` to
//! min-fold several runs before comparing (see [`perf::fold_min`]):
//! wall-clock spikes are one-sided, so the CI gate measures the suite
//! twice and gates on the per-cell minimum.
//!
//! Baseline mode:
//!
//! ```text
//! nfv-perfdiff --write-baseline out.json run1.json run2.json run3.json
//! ```
//!
//! folds ≥1 timing files (per-cell **median**) into a committed baseline.
//! Refresh it with three quick runs whenever the suite's cell set or its
//! expected performance changes — see CLAUDE.md.

#![forbid(unsafe_code)]

use nfv_check::perf::{self, Gate};
use std::collections::BTreeSet;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: nfv-perfdiff --baseline <file> --current <file>... \
         [--allow <key>]... [--allowlist <file>]\n       \
         [--cell-tol F] [--suite-tol F] [--abs-floor-ms F] [--report <file>]\n  \
         or:  nfv-perfdiff --write-baseline <out> <run.json>..."
    );
    ExitCode::from(2)
}

fn read_timings(path: &str) -> Result<Vec<perf::CellTiming>, String> {
    let doc = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    perf::parse_timings(&doc).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        usage();
        return ExitCode::SUCCESS;
    }

    // Baseline-write mode.
    if let Some(pos) = argv.iter().position(|a| a == "--write-baseline") {
        let Some(out) = argv.get(pos + 1) else {
            return usage();
        };
        let run_paths: Vec<&String> = argv[pos + 2..].iter().collect();
        if run_paths.is_empty() {
            eprintln!("nfv-perfdiff: --write-baseline needs at least one run file");
            return ExitCode::from(2);
        }
        let mut runs = Vec::new();
        for p in &run_paths {
            match read_timings(p) {
                Ok(t) => runs.push(t),
                Err(e) => {
                    eprintln!("nfv-perfdiff: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        match perf::baseline_json(&runs) {
            Ok(doc) => {
                if let Err(e) = std::fs::write(out, doc) {
                    eprintln!("nfv-perfdiff: write {out}: {e}");
                    return ExitCode::from(2);
                }
                eprintln!(
                    "nfv-perfdiff: wrote {out} (median of {} run(s), {} cells)",
                    runs.len(),
                    runs[0].len()
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("nfv-perfdiff: {e}");
                ExitCode::from(2)
            }
        }
    } else {
        compare_mode(&argv)
    }
}

fn compare_mode(argv: &[String]) -> ExitCode {
    let mut baseline = None;
    let mut current: Vec<String> = Vec::new();
    let mut report = None;
    let mut allow: BTreeSet<String> = BTreeSet::new();
    let mut gate = Gate::default();

    let mut args = argv.iter();
    while let Some(a) = args.next() {
        let mut val = |name: &str| match args.next() {
            Some(v) => Ok(v.clone()),
            None => {
                eprintln!("nfv-perfdiff: {name} requires a value");
                Err(())
            }
        };
        let parsed = (|| match a.as_str() {
            "--baseline" => {
                baseline = Some(val("--baseline")?);
                Ok(())
            }
            "--current" => {
                current.push(val("--current")?);
                Ok(())
            }
            "--report" => {
                report = Some(val("--report")?);
                Ok(())
            }
            "--allow" => {
                allow.insert(val("--allow")?);
                Ok(())
            }
            "--allowlist" => {
                let path = val("--allowlist")?;
                let body = std::fs::read_to_string(&path).map_err(|e| {
                    eprintln!("nfv-perfdiff: {path}: {e}");
                })?;
                for line in body.lines() {
                    let line = line.trim();
                    if !line.is_empty() && !line.starts_with('#') {
                        allow.insert(line.to_string());
                    }
                }
                Ok(())
            }
            "--cell-tol" => {
                gate.cell_tol = parse_f64(&val("--cell-tol")?, "--cell-tol")?;
                Ok(())
            }
            "--suite-tol" => {
                gate.suite_tol = parse_f64(&val("--suite-tol")?, "--suite-tol")?;
                Ok(())
            }
            "--abs-floor-ms" => {
                gate.abs_floor_ms = parse_f64(&val("--abs-floor-ms")?, "--abs-floor-ms")?;
                Ok(())
            }
            other => {
                eprintln!("nfv-perfdiff: unknown argument {other:?}");
                Err(())
            }
        })();
        if parsed.is_err() {
            return ExitCode::from(2);
        }
    }
    let Some(base_path) = baseline else {
        return usage();
    };
    if current.is_empty() {
        return usage();
    }

    let base = match read_timings(&base_path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("nfv-perfdiff: {e}");
            return ExitCode::from(2);
        }
    };
    let mut cur_runs = Vec::new();
    for p in &current {
        match read_timings(p) {
            Ok(t) => cur_runs.push(t),
            Err(e) => {
                eprintln!("nfv-perfdiff: {e}");
                return ExitCode::from(2);
            }
        }
    }
    let cur = match perf::fold_min(&cur_runs) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("nfv-perfdiff: {e}");
            return ExitCode::from(2);
        }
    };

    let diff = perf::compare(&base, &cur, &allow, gate);
    let md = perf::render_report(&diff);
    if let Some(path) = report {
        if let Err(e) = std::fs::write(&path, &md) {
            eprintln!("nfv-perfdiff: write {path}: {e}");
            return ExitCode::from(2);
        }
    }

    // Human summary on stderr, like nfv-lint.
    for r in &diff.rows {
        let tag = match r.verdict {
            perf::Verdict::Ok => continue,
            perf::Verdict::Allowed => "allowed",
            perf::Verdict::Regressed => "FAIL",
        };
        let queue = r.queue.map_or(String::new(), |q| {
            format!(" [{} pops, {:.4} coalesced]", q.pops, q.coalesced_share())
        });
        eprintln!(
            "{tag}: {}: {:.1} ms -> {:.1} ms ({:+.1}%){queue}",
            r.key,
            r.base_ms,
            r.cur_ms,
            r.delta() * 100.0
        );
    }
    eprintln!(
        "nfv-perfdiff: suite {:.1} ms -> {:.1} ms ({:+.1}%), {} cell(s) compared, {} regressed{}",
        diff.suite_base_ms,
        diff.suite_cur_ms,
        diff.suite_delta() * 100.0,
        diff.rows.len(),
        diff.rows
            .iter()
            .filter(|r| r.verdict == perf::Verdict::Regressed)
            .count(),
        if diff.suite_regressed {
            " [suite FAIL]"
        } else {
            ""
        }
    );

    if diff.failed() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn parse_f64(s: &str, name: &str) -> Result<f64, ()> {
    s.parse().map_err(|_| {
        eprintln!("nfv-perfdiff: {name}: not a number: {s:?}");
    })
}
