//! The token-level rule engine: a [`Rule`] trait, the registry of all
//! active rules, and the pipeline that runs them over a parsed
//! [`Workspace`] — test-line filtering, per-line dedup, allowlist
//! suppression, and the `stale-allow` audit of the allowlist itself.

pub mod determinism;
pub mod ev_exhaustive;
pub mod fixed_point;
pub mod float_accum;
pub mod hot_alloc;
pub mod layering;

use crate::parse::SourceFile;
use crate::{Finding, Severity, RULES};
use std::collections::BTreeSet;

/// The parsed workspace every rule runs against. Built once per scan;
/// `hot_fns[file][fn]` is the call-graph hotness precomputed by
/// [`hot_alloc::compute_hotness`].
pub struct Workspace {
    /// Parsed files, sorted by path (findings come out deterministic).
    pub files: Vec<SourceFile>,
    /// Parallel to `files[i].fns`: reachable from a dispatch root.
    pub hot_fns: Vec<Vec<bool>>,
}

impl Workspace {
    /// Parse `(path, text)` pairs and precompute the hotness call-graph.
    pub fn build(inputs: Vec<(String, String)>) -> Workspace {
        let mut files: Vec<SourceFile> = inputs
            .iter()
            .map(|(p, t)| SourceFile::parse(p, t))
            .collect();
        files.sort_by(|a, b| a.path.cmp(&b.path));
        let hot_fns = hot_alloc::compute_hotness(&files);
        Workspace { files, hot_fns }
    }

    /// Index of the file with exactly this path, if present.
    pub fn file_index(&self, path: &str) -> Option<usize> {
        self.files
            .binary_search_by(|f| f.path.as_str().cmp(path))
            .ok()
    }
}

/// One lint rule over the parsed workspace. Most rules are per-file;
/// cross-file rules (`ev-exhaustive`, the hot-root audit) implement the
/// workspace pass instead.
pub trait Rule {
    /// Stable id, as used in findings and allow directives.
    fn id(&self) -> &'static str;
    /// Severity attached to this rule's findings.
    fn severity(&self) -> Severity;
    /// Per-file pass.
    fn check_file(&self, _ws: &Workspace, _file: usize, _out: &mut Vec<Finding>) {}
    /// Whole-workspace pass, run once after the per-file passes.
    fn check_workspace(&self, _ws: &Workspace, _out: &mut Vec<Finding>) {}
}

/// Every active rule, in reporting order (`stale-allow` runs in the
/// engine pipeline itself — it audits the suppression step's results, so
/// it cannot be a registry entry).
pub fn registry() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(determinism::HashMapRule),
        Box::new(determinism::HashSetRule),
        Box::new(determinism::WallClockRule),
        Box::new(determinism::ThreadSpawnRule),
        Box::new(determinism::RawRandRule),
        Box::new(float_accum::FloatAccumRule),
        Box::new(hot_alloc::HotAllocRule),
        Box::new(fixed_point::FixedPointDivRule),
        Box::new(layering::LayeringRule),
        Box::new(ev_exhaustive::EvExhaustiveRule),
    ]
}

/// Rust keywords (the subset that can precede `(` or an operator and be
/// mistaken for an operand or a call).
pub(crate) fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "if" | "else"
            | "while"
            | "for"
            | "loop"
            | "match"
            | "return"
            | "fn"
            | "let"
            | "as"
            | "in"
            | "ref"
            | "move"
            | "unsafe"
            | "impl"
            | "dyn"
            | "break"
            | "continue"
            | "where"
            | "use"
            | "pub"
            | "struct"
            | "enum"
            | "trait"
            | "type"
            | "mod"
            | "const"
            | "static"
            | "crate"
            | "self"
            | "Self"
            | "super"
            | "true"
            | "false"
            | "box"
            | "await"
            | "async"
            | "yield"
    )
}

/// Build a finding for `line` of `sf` with the line's trimmed text as
/// snippet.
pub fn finding(sf: &SourceFile, line: u32, rule: &'static str, severity: Severity) -> Finding {
    Finding {
        path: sf.path.clone(),
        line: line as usize,
        rule,
        severity,
        snippet: sf.line_snippet(line).to_string(),
    }
}

/// Run the full rule set over `(path, text)` pairs and return findings
/// sorted by `(path, line, rule)`, deduplicated per line, with allowlist
/// suppression applied and the allowlist itself audited (`stale-allow`).
pub fn scan_sources(inputs: Vec<(String, String)>) -> Vec<Finding> {
    let ws = Workspace::build(inputs);
    let mut raw: Vec<Finding> = Vec::new();
    for rule in registry() {
        for i in 0..ws.files.len() {
            rule.check_file(&ws, i, &mut raw);
        }
        rule.check_workspace(&ws, &mut raw);
    }

    // Test code is exempt.
    raw.retain(|f| {
        ws.file_index(&f.path)
            .is_none_or(|i| !ws.files[i].is_test_line(f.line as u32))
    });

    // One finding per (path, line, rule): token rules may hit a line
    // several times (two `HashMap`s on one line); report it once, like
    // the line-oriented engine did.
    raw.sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    raw.dedup_by(|a, b| a.path == b.path && a.line == b.line && a.rule == b.rule);

    // Allowlist suppression: a directive on the finding line or the line
    // above silences matching rules. Track which directive entries fire —
    // the unused ones are exactly what `stale-allow` reports.
    let mut used: BTreeSet<(usize, usize, usize)> = BTreeSet::new(); // (file, directive, rule-name)
    let mut findings: Vec<Finding> = Vec::new();
    for f in raw {
        let Some(fi) = ws.file_index(&f.path) else {
            findings.push(f);
            continue;
        };
        let mut suppressed = false;
        for (di, d) in ws.files[fi].directives.iter().enumerate() {
            let line = d.line as usize;
            if line != f.line && line + 1 != f.line {
                continue;
            }
            for (ri, name) in d.rules.iter().enumerate() {
                if name == f.rule {
                    used.insert((fi, di, ri));
                    suppressed = true;
                }
            }
        }
        if !suppressed {
            findings.push(f);
        }
    }

    // `stale-allow`: directives that suppress nothing, name an unknown
    // rule, or lack the mandatory `-- <reason>`. Not itself suppressible —
    // `allow(stale-allow)` would defeat the audit. Directives inside test
    // code are ignored entirely, like every other finding source.
    for (fi, sf) in ws.files.iter().enumerate() {
        for (di, d) in sf.directives.iter().enumerate() {
            if sf.is_test_line(d.line) {
                continue;
            }
            for (ri, name) in d.rules.iter().enumerate() {
                if !RULES.contains(&name.as_str()) {
                    findings.push(Finding {
                        path: sf.path.clone(),
                        line: d.line as usize,
                        rule: "stale-allow",
                        severity: Severity::Warn,
                        snippet: format!("allow of unknown rule `{name}`"),
                    });
                } else if !used.contains(&(fi, di, ri)) {
                    findings.push(Finding {
                        path: sf.path.clone(),
                        line: d.line as usize,
                        rule: "stale-allow",
                        severity: Severity::Warn,
                        snippet: format!("allow(`{name}`) suppresses no finding"),
                    });
                }
            }
            if !d.has_reason {
                findings.push(Finding {
                    path: sf.path.clone(),
                    line: d.line as usize,
                    rule: "stale-allow",
                    severity: Severity::Warn,
                    snippet: "allow directive lacks a `-- <reason>`".to_string(),
                });
            }
        }
    }

    findings
        .sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    findings
}

/// Scan a single in-memory file (unit tests and fixtures).
pub fn scan_one(path: &str, text: &str) -> Vec<Finding> {
    scan_sources(vec![(path.to_string(), text.to_string())])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_of(path: &str, src: &str) -> Vec<&'static str> {
        scan_one(path, src).into_iter().map(|f| f.rule).collect()
    }

    #[test]
    fn suppression_marks_directive_used() {
        let src = "use std::collections::HashMap; // nfv-lint: allow(hash-map) -- fixture\n";
        assert!(rules_of("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn unused_allow_is_stale() {
        let src = "// nfv-lint: allow(hash-map) -- nothing here\nlet x = 1;\n";
        assert_eq!(rules_of("crates/x/src/lib.rs", src), vec!["stale-allow"]);
    }

    #[test]
    fn unknown_rule_is_stale() {
        let src = "// nfv-lint: allow(no-such-rule) -- why\nlet x = 1;\n";
        let f = &scan_one("crates/x/src/lib.rs", src)[0];
        assert_eq!(f.rule, "stale-allow");
        assert!(f.snippet.contains("unknown rule"));
    }

    #[test]
    fn missing_reason_is_stale() {
        let src = "use std::collections::HashMap; // nfv-lint: allow(hash-map)\n";
        let fs = scan_one("crates/x/src/lib.rs", src);
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].rule, "stale-allow");
        assert!(fs[0].snippet.contains("reason"));
    }

    #[test]
    fn directives_in_test_code_ignored() {
        let src = "#[cfg(test)]\nmod t {\n    // nfv-lint: allow(hash-map)\n    fn x() {}\n}\n";
        assert!(rules_of("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn dedup_one_finding_per_line_rule() {
        let src = "fn f(a: HashMap<u8, u8>, b: HashMap<u8, u8>) {}\n";
        assert_eq!(rules_of("crates/x/src/lib.rs", src), vec!["hash-map"]);
    }

    #[test]
    fn output_order_is_path_line_rule() {
        let fs = scan_sources(vec![
            (
                "crates/x/src/b.rs".into(),
                "use std::collections::HashMap;\n".into(),
            ),
            (
                "crates/x/src/a.rs".into(),
                "use std::time::Instant;\nuse std::collections::HashSet;\n".into(),
            ),
        ]);
        let got: Vec<(&str, usize, &str)> = fs
            .iter()
            .map(|f| (f.path.as_str(), f.line, f.rule))
            .collect();
        assert_eq!(
            got,
            vec![
                ("crates/x/src/a.rs", 1, "wall-clock"),
                ("crates/x/src/a.rs", 2, "hash-set"),
                ("crates/x/src/b.rs", 1, "hash-map"),
            ]
        );
    }
}
