//! `nfv-lint` binary: scan the workspace for determinism, layering and
//! arithmetic hazards.
//!
//! Usage: `nfv-lint [--root <dir>] [--quiet] [--format json|github] [--json-out <path>]`
//!
//! Prints the report to stdout (`json` by default; `github` emits
//! workflow-command annotations that land inline on PR diffs) and a human
//! summary — including wall time, watched by the CI lint job — to
//! stderr. `--json-out` additionally writes the JSON report to a file
//! regardless of `--format` (CI uploads it as an artifact). Exits
//! nonzero when any finding is not allowlisted. Run from the workspace
//! root (as `cargo run -p nfv-check --bin nfv-lint` does) or point it
//! elsewhere with `--root`.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut quiet = false;
    let mut format = String::from("json");
    let mut json_out: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => match args.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => {
                    eprintln!("nfv-lint: --root requires a directory");
                    return ExitCode::from(2);
                }
            },
            "--format" => match args.next().as_deref() {
                Some("json") => format = "json".into(),
                Some("github") => format = "github".into(),
                other => {
                    eprintln!("nfv-lint: --format requires `json` or `github`, got {other:?}");
                    return ExitCode::from(2);
                }
            },
            "--json-out" => match args.next() {
                Some(p) => json_out = Some(PathBuf::from(p)),
                None => {
                    eprintln!("nfv-lint: --json-out requires a path");
                    return ExitCode::from(2);
                }
            },
            "--quiet" => quiet = true,
            "--help" | "-h" => {
                eprintln!(
                    "usage: nfv-lint [--root <dir>] [--quiet] [--format json|github] [--json-out <path>]"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("nfv-lint: unknown argument {other:?}");
                return ExitCode::from(2);
            }
        }
    }

    let started = Instant::now();
    let findings = match nfv_check::scan_workspace(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("nfv-lint: scan failed: {e}");
            return ExitCode::from(2);
        }
    };
    let elapsed = started.elapsed();

    match format.as_str() {
        "github" => print!("{}", nfv_check::to_github(&findings)),
        _ => print!("{}", nfv_check::to_json(&findings)),
    }
    if let Some(path) = &json_out {
        if let Err(e) = std::fs::write(path, nfv_check::to_json(&findings)) {
            eprintln!("nfv-lint: writing {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }

    if !quiet {
        for f in &findings {
            eprintln!(
                "{}: {}:{}: [{}] {}",
                f.severity, f.path, f.line, f.rule, f.snippet
            );
        }
        if findings.is_empty() {
            eprintln!("nfv-lint: clean ({} ms)", elapsed.as_millis());
        } else {
            eprintln!(
                "nfv-lint: {} violation(s) ({} ms)",
                findings.len(),
                elapsed.as_millis()
            );
        }
    }

    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
