//! `nfv-lint`: the static half of the workspace's determinism tooling.
//!
//! The simulator's contract is bit-for-bit reproducibility given a seed
//! (see CLAUDE.md and the runtime sanitizer in `nfv_des::sanitizer`).
//! This crate enforces the source-level side of that contract — plus the
//! layering and fixed-point-arithmetic conventions the NFVnice policy
//! code depends on.
//!
//! The engine is syntax-aware but dependency-free: the workspace builds
//! offline, so `syn` is not available. Instead [`lexer`] produces spanned
//! tokens (comments, strings, raw strings and char literals handled in
//! one place), [`parse`] recovers the item structure rules need (fn/impl
//! boundaries, `#[cfg(test)]` regions, allowlist directives), and the
//! [`rules`] registry runs each [`rules::Rule`] over the parsed
//! workspace. The fixture corpus (`tests/fixtures/`) and the JSON
//! snapshot in `tests/lint.rs` pin each rule's findings.
//!
//! Rules (see `crates/check/README.md` for the full table):
//!
//! | id                | severity | flags                                   |
//! |-------------------|----------|-----------------------------------------|
//! | `hash-map`        | deny     | `HashMap` (iteration order is seeded per-instance) |
//! | `hash-set`        | deny     | `HashSet` (same)                        |
//! | `wall-clock`      | deny     | `Instant` / `SystemTime` in sim code    |
//! | `thread-spawn`    | deny     | `thread::{spawn,scope,Builder}` (the sim is single-threaded) |
//! | `raw-rand`        | deny     | `rand::` paths / `use rand` (randomness goes through `SimRng`) |
//! | `float-accum`     | warn     | `+=`/`-=` on float-looking values in `crates/{core,sched}` |
//! | `hot-alloc`       | warn     | allocation in functions reachable from the event-dispatch roots (call-graph, not a hand-kept list) |
//! | `fixed-point-div` | warn     | divide-before-multiply / truncating casts in policy arithmetic |
//! | `layering`        | deny     | `dyn Trait` in `crates/{core,sched}` (closures, not trait objects) |
//! | `ev-exhaustive`   | deny     | an `Ev` variant missing its `ev_tag` arm, `handle` arm, or sanitizer hook |
//! | `stale-allow`     | warn     | an allow comment that suppresses nothing, names an unknown rule, or lacks a `-- <reason>` |
//!
//! Escape hatch: `// nfv-lint: allow(<rule>) -- <reason>` on the finding
//! line or the line above. The reason is mandatory; `stale-allow` flags
//! directives without one, and directives that no longer match anything.
//!
//! Test code is exempt: `#[cfg(test)]` items are skipped, as are
//! `tests/` directories, this crate and the in-tree `proptest` shim
//! (`crates/check`, `crates/proptest`).

#![forbid(unsafe_code)]

pub mod json;
#[cfg(test)]
mod legacy;
pub mod lexer;
pub mod parse;
pub mod perf;
pub mod rules;

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Lint severity. Both levels fail the run (CI treats any finding as a
/// violation); `Warn` marks heuristic rules whose findings more often
/// deserve an allowlist comment than a rewrite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Heuristic rule; allowlisting with a justification is expected.
    Warn,
    /// Hard determinism / layering hazard.
    Deny,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warn => write!(f, "warn"),
            Severity::Deny => write!(f, "deny"),
        }
    }
}

/// One lint hit.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Path as given to the scanner (workspace-relative for the binary).
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Stable rule id (`hash-map`, `wall-clock`, ...).
    pub rule: &'static str,
    /// Rule severity.
    pub severity: Severity,
    /// The offending source line, trimmed (or a rule-supplied message for
    /// workspace-level findings like a missing dispatch root).
    pub snippet: String,
}

/// All rule ids, in reporting order. `stale-allow` findings reference
/// this list: an allow directive naming anything else is itself flagged.
pub const RULES: [&str; 11] = [
    "hash-map",
    "hash-set",
    "wall-clock",
    "thread-spawn",
    "raw-rand",
    "float-accum",
    "hot-alloc",
    "fixed-point-div",
    "layering",
    "ev-exhaustive",
    "stale-allow",
];

/// Directory names never scanned (test/bench code and build output).
pub const SKIP_DIRS: [&str; 4] = ["target", ".git", "tests", ".github"];

/// Workspace crates exempt from scanning: this crate itself and the
/// offline `proptest` shim, both test tooling rather than simulator code.
pub const EXEMPT_CRATES: [&str; 2] = ["crates/check", "crates/proptest"];

fn is_exempt(rel: &str) -> bool {
    let rel = rel.replace('\\', "/");
    EXEMPT_CRATES
        .iter()
        .any(|c| rel == *c || rel.starts_with(&format!("{c}/")))
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(|e| e.file_name());
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') || is_exempt(&rel) {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Collect every non-exempt `.rs` file under `root` as
/// `(root-relative path, contents)`, in sorted path order (both engines
/// and the differential test consume this list).
pub fn collect_files(root: &Path) -> io::Result<Vec<(String, String)>> {
    let mut files = Vec::new();
    walk(root, root, &mut files)?;
    let mut out = Vec::with_capacity(files.len());
    for f in files {
        let text = fs::read_to_string(&f)?;
        let rel = f
            .strip_prefix(root)
            .unwrap_or(&f)
            .to_string_lossy()
            .replace('\\', "/");
        out.push((rel, text));
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(out)
}

/// Scan every non-exempt `.rs` file under `root` with the full rule set.
/// Paths in findings are root-relative; output order is deterministic
/// (`(path, line, rule)`).
pub fn scan_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    Ok(rules::scan_sources(collect_files(root)?))
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Machine-readable report: `{"findings": [...], "total": N}`.
pub fn to_json(findings: &[Finding]) -> String {
    let mut s = String::from("{\n  \"findings\": [");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n    {{\"path\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"severity\": \"{}\", \"snippet\": \"{}\"}}",
            json_escape(&f.path),
            f.line,
            f.rule,
            f.severity,
            json_escape(&f.snippet)
        ));
    }
    if !findings.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str(&format!("],\n  \"total\": {}\n}}\n", findings.len()));
    s
}

/// GitHub Actions workflow-command annotations, one line per finding
/// (`::error`/`::warning` with inline file/line), so findings land on the
/// PR diff. Newlines inside messages are percent-encoded per the
/// workflow-command spec (snippets are single lines, but be safe).
pub fn to_github(findings: &[Finding]) -> String {
    let esc = |s: &str| {
        s.replace('%', "%25")
            .replace('\r', "%0D")
            .replace('\n', "%0A")
    };
    let mut s = String::new();
    for f in findings {
        let level = match f.severity {
            Severity::Warn => "warning",
            Severity::Deny => "error",
        };
        s.push_str(&format!(
            "::{level} file={},line={},title=nfv-lint {}::{}\n",
            esc(&f.path),
            f.line,
            f.rule,
            esc(&f.snippet)
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_is_well_formed() {
        let findings = rules::scan_sources(vec![(
            "a.rs".to_string(),
            "use rand::Rng; // \"quote\"\n".to_string(),
        )]);
        let j = to_json(&findings);
        assert!(j.contains("\"rule\": \"raw-rand\""));
        assert!(j.contains("\"total\": 1"));
        let empty = to_json(&[]);
        assert!(empty.contains("\"total\": 0"));
    }

    #[test]
    fn github_format_annotates_by_severity() {
        let findings = vec![
            Finding {
                path: "crates/x/src/a.rs".into(),
                line: 3,
                rule: "hash-map",
                severity: Severity::Deny,
                snippet: "use std::collections::HashMap;".into(),
            },
            Finding {
                path: "crates/x/src/b.rs".into(),
                line: 7,
                rule: "hot-alloc",
                severity: Severity::Warn,
                snippet: "let v = Vec::new();".into(),
            },
        ];
        let g = to_github(&findings);
        assert!(g.contains("::error file=crates/x/src/a.rs,line=3,title=nfv-lint hash-map::"));
        assert!(g.contains("::warning file=crates/x/src/b.rs,line=7,title=nfv-lint hot-alloc::"));
    }
}
