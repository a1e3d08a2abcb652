//! `float-accum`: `+=` / `-=` on float-looking values in the policy
//! crates. FP accumulation order matters, so load/priority accounting
//! must either use integers or be reviewed and allowlisted.
//!
//! Type information is out of reach without full inference, so this
//! over-approximates: the compound assignment and the float evidence just
//! have to share a line. Evidence
//! is a float literal or any non-literal token mentioning `f64`/`f32`
//! (type ascriptions, casts, suffixed literals, `as_secs_f64()` calls).

use super::{finding, Rule, Workspace};
use crate::lexer::Kind;
use crate::{Finding, Severity};
use std::collections::BTreeMap;

/// Applies under `crates/core/` and `crates/sched/` only.
fn in_scope(path: &str) -> bool {
    path.contains("crates/sched/") || path.contains("crates/core/")
}

/// Legacy-compatible float-literal evidence: a digit, a dot, a digit —
/// so `1.5` counts but `1e9` and `1.` do not.
fn digit_dot_digit(text: &str) -> bool {
    text.as_bytes()
        .windows(3)
        .any(|w| w[0].is_ascii_digit() && w[1] == b'.' && w[2].is_ascii_digit())
}

pub struct FloatAccumRule;

impl Rule for FloatAccumRule {
    fn id(&self) -> &'static str {
        "float-accum"
    }
    fn severity(&self) -> Severity {
        Severity::Warn
    }
    fn check_file(&self, ws: &Workspace, file: usize, out: &mut Vec<Finding>) {
        let sf = &ws.files[file];
        if !in_scope(&sf.path) {
            return;
        }
        // (has `+=`/`-=`, has float evidence) per line.
        let mut lines: BTreeMap<u32, (bool, bool)> = BTreeMap::new();
        for i in 0..sf.toks.len() {
            let t = sf.toks[i];
            let text = sf.tok_text(i);
            let e = lines.entry(t.line).or_default();
            match t.kind {
                Kind::Punct if text == "+=" || text == "-=" => e.0 = true,
                // String/char literal contents are not evidence.
                Kind::Literal => {}
                Kind::Float
                    if digit_dot_digit(text) || text.contains("f64") || text.contains("f32") =>
                {
                    e.1 = true
                }
                _ if text.contains("f64") || text.contains("f32") => e.1 = true,
                _ => {}
            }
        }
        for (line, (accum, float)) in lines {
            if accum && float {
                out.push(finding(sf, line, self.id(), self.severity()));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::rules::scan_one;

    #[test]
    fn fires_in_scope_only() {
        let src = "acc += x as f64;\n";
        assert_eq!(
            scan_one("crates/core/src/load.rs", src)
                .first()
                .map(|f| f.rule),
            Some("float-accum")
        );
        assert_eq!(
            scan_one("crates/sched/src/scheduler.rs", "w += 0.5;\n").len(),
            1
        );
        assert!(scan_one("crates/traffic/src/cbr.rs", src).is_empty());
    }

    #[test]
    fn integer_accumulation_is_fine() {
        assert!(scan_one("crates/core/src/x.rs", "count += 1;\n").is_empty());
    }

    #[test]
    fn suffixed_literals_and_method_names_are_evidence() {
        assert_eq!(
            scan_one("crates/core/src/x.rs", "acc += 2.0f64;\n").len(),
            1
        );
        assert_eq!(
            scan_one("crates/core/src/x.rs", "acc += d.as_secs_f64();\n").len(),
            1
        );
    }

    #[test]
    fn exponent_only_literals_are_not_evidence() {
        // only digit-dot-digit literals are float evidence
        // (fixed-point-div may still fire on the cast; float-accum must
        // not)
        assert!(scan_one("crates/core/src/x.rs", "n += 1e9 as u64;\n")
            .iter()
            .all(|f| f.rule != "float-accum"));
    }
}
