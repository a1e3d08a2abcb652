//! The five hard determinism rules, matched on tokens: hash containers,
//! wall clocks, threads, and raw randomness. `tests/lint.rs` pins the
//! findings of a seeded corpus that fires each of them.

use super::{finding, Rule, Workspace};
use crate::lexer::Kind;
use crate::{Finding, Severity};

/// `HashMap`: iteration order is seeded per-instance per-process.
pub struct HashMapRule;

impl Rule for HashMapRule {
    fn id(&self) -> &'static str {
        "hash-map"
    }
    fn severity(&self) -> Severity {
        Severity::Deny
    }
    fn check_file(&self, ws: &Workspace, file: usize, out: &mut Vec<Finding>) {
        ident_rule(ws, file, &["HashMap"], self.id(), self.severity(), out);
    }
}

/// `HashSet`: same hazard as `HashMap`.
pub struct HashSetRule;

impl Rule for HashSetRule {
    fn id(&self) -> &'static str {
        "hash-set"
    }
    fn severity(&self) -> Severity {
        Severity::Deny
    }
    fn check_file(&self, ws: &Workspace, file: usize, out: &mut Vec<Finding>) {
        ident_rule(ws, file, &["HashSet"], self.id(), self.severity(), out);
    }
}

/// `Instant` / `SystemTime`: wall time in sim code breaks replay.
pub struct WallClockRule;

impl Rule for WallClockRule {
    fn id(&self) -> &'static str {
        "wall-clock"
    }
    fn severity(&self) -> Severity {
        Severity::Deny
    }
    fn check_file(&self, ws: &Workspace, file: usize, out: &mut Vec<Finding>) {
        ident_rule(
            ws,
            file,
            &["Instant", "SystemTime"],
            self.id(),
            self.severity(),
            out,
        );
    }
}

/// Flag any identifier in `names` (word-boundary matching falls out of
/// tokenization; strings and comments are never tokens).
fn ident_rule(
    ws: &Workspace,
    file: usize,
    names: &[&str],
    id: &'static str,
    sev: Severity,
    out: &mut Vec<Finding>,
) {
    let sf = &ws.files[file];
    for i in 0..sf.toks.len() {
        if sf.toks[i].kind == Kind::Ident && names.contains(&sf.tok_text(i)) {
            out.push(finding(sf, sf.toks[i].line, id, sev));
        }
    }
}

/// `thread::spawn` / `thread::scope` / `thread::Builder`: the sim is
/// single-threaded by contract.
pub struct ThreadSpawnRule;

impl Rule for ThreadSpawnRule {
    fn id(&self) -> &'static str {
        "thread-spawn"
    }
    fn severity(&self) -> Severity {
        Severity::Deny
    }
    fn check_file(&self, ws: &Workspace, file: usize, out: &mut Vec<Finding>) {
        let sf = &ws.files[file];
        for i in 0..sf.toks.len().saturating_sub(2) {
            if sf.is_ident(i, "thread")
                && sf.is_punct(i + 1, "::")
                && sf.toks[i + 2].kind == Kind::Ident
                && matches!(sf.tok_text(i + 2), "spawn" | "scope" | "Builder")
            {
                out.push(finding(sf, sf.toks[i].line, self.id(), self.severity()));
            }
        }
    }
}

/// `rand` used as a path root or imported: all randomness goes through
/// `nfv_des::SimRng`. Identifiers merely containing "rand" don't match.
pub struct RawRandRule;

impl Rule for RawRandRule {
    fn id(&self) -> &'static str {
        "raw-rand"
    }
    fn severity(&self) -> Severity {
        Severity::Deny
    }
    fn check_file(&self, ws: &Workspace, file: usize, out: &mut Vec<Finding>) {
        let sf = &ws.files[file];
        let n = sf.toks.len();
        for i in 0..n {
            if !sf.is_ident(i, "rand") {
                continue;
            }
            // `rand::...` path root
            let path_root = i + 1 < n && sf.is_punct(i + 1, "::");
            // `use rand;` / `use rand::...` / bare `use rand`
            let imported = i > 0
                && sf.is_ident(i - 1, "use")
                && (i + 1 >= n || sf.is_punct(i + 1, ";") || sf.is_punct(i + 1, "::"));
            // `extern crate rand`
            let ext = i >= 2 && sf.is_ident(i - 2, "extern") && sf.is_ident(i - 1, "crate");
            if path_root || imported || ext {
                out.push(finding(sf, sf.toks[i].line, self.id(), self.severity()));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::rules::scan_one;

    fn rules_of(src: &str) -> Vec<&'static str> {
        scan_one("crates/x/src/lib.rs", src)
            .into_iter()
            .map(|f| f.rule)
            .collect()
    }

    #[test]
    fn flags_hash_containers_and_clocks() {
        assert_eq!(
            rules_of("use std::collections::HashMap;\n"),
            vec!["hash-map"]
        );
        assert_eq!(
            rules_of("let s: HashSet<u32> = HashSet::new();\n"),
            vec!["hash-set"]
        );
        assert_eq!(rules_of("let t = Instant::now();\n"), vec!["wall-clock"]);
        assert_eq!(
            rules_of("let t = std::time::SystemTime::now();\n"),
            vec!["wall-clock"]
        );
    }

    #[test]
    fn word_boundaries_via_tokens() {
        assert!(rules_of("struct InstantReplay; let MyHashMapLike = 1;\n").is_empty());
    }

    #[test]
    fn strings_and_comments_never_fire() {
        assert!(rules_of("// a HashMap would be wrong here\n").is_empty());
        assert!(rules_of("/* Instant::now() */ let x = 1;\n").is_empty());
        assert!(rules_of("let s = \"HashMap Instant rand::\";\n").is_empty());
        assert!(rules_of("let s = r#\"thread::spawn\"#;\n").is_empty());
    }

    #[test]
    fn thread_forms() {
        assert_eq!(
            rules_of("std::thread::spawn(|| {});\n"),
            vec!["thread-spawn"]
        );
        assert_eq!(
            rules_of("std::thread::scope(|s| { s.spawn(|| {}); });\n"),
            vec!["thread-spawn"]
        );
        assert_eq!(
            rules_of("let h = thread::Builder::new().spawn(f);\n"),
            vec!["thread-spawn"]
        );
        assert!(rules_of("thread_local! { static X: u8 = 0; }\n").is_empty());
    }

    #[test]
    fn rand_forms() {
        assert_eq!(rules_of("use rand::Rng;\n"), vec!["raw-rand"]);
        assert_eq!(
            rules_of("let x = rand::random::<u8>();\n"),
            vec!["raw-rand"]
        );
        assert_eq!(rules_of("extern crate rand;\n"), vec!["raw-rand"]);
        assert!(rules_of("use nfv_des::SimRng;\n").is_empty());
        assert!(rules_of("let operand = 3; operand_use(operand);\n").is_empty());
        assert!(rules_of("use rand_core::X;\n").is_empty());
    }
}
