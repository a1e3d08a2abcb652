//! `hot-alloc` v2: allocation in the event-dispatch / queue hot path.
//!
//! A hand-maintained list of hot function names would silently go stale
//! whenever `engine/` is refactored, so this rule derives hotness from the
//! code:
//! a call graph is built from the parsed fn bodies and hotness propagates
//! transitively from the dispatch roots ([`HOT_ROOTS`]) — the event-loop
//! `handle` and the queue's `push`/`pop_before`. Renaming or splitting a
//! helper keeps it hot as long as something hot still calls it; deleting
//! a root fn without updating the roots is itself a deny finding, so
//! coverage cannot silently shrink.
//!
//! Call resolution is name-based with one precision guard: a qualified
//! call `Type::method(...)` only resolves to fns inside `impl Type`
//! blocks. Without that, `Ewma::new` reached from the hot path would mark
//! every `new` in the workspace hot. Bare and method calls (`helper(...)`,
//! `x.drain_into(...)`, `module::helper(...)`) resolve by name alone —
//! an over-approximation that errs toward flagging.

use super::{finding, Rule, Workspace};
use crate::lexer::Kind;
use crate::parse::SourceFile;
use crate::{Finding, Severity};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// The dispatch roots hotness propagates from: `(file path, fn name)`.
/// `Simulation::handle` is the single entry every event goes through;
/// the queue's `push`/`pop_before` run once per event on top of that.
/// When a listed file exists but the fn is gone (renamed, moved), the
/// rule emits a deny finding — update the root list consciously, don't
/// let it rot.
pub const HOT_ROOTS: &[(&str, &str)] = &[
    ("crates/core/src/engine/mod.rs", "handle"),
    ("crates/des/src/queue.rs", "push"),
    ("crates/des/src/queue.rs", "pop_before"),
    ("crates/des/src/queue.rs", "pop_batch_before"),
];

/// Compute per-fn hotness for every file: BFS over the call graph from
/// [`HOT_ROOTS`]. Test fns neither propagate nor receive hotness.
pub fn compute_hotness(files: &[SourceFile]) -> Vec<Vec<bool>> {
    // Indexes: bare name -> fns, (impl type, name) -> fns.
    let mut by_name: BTreeMap<&str, Vec<(usize, usize)>> = BTreeMap::new();
    let mut by_qual: BTreeMap<(&str, &str), Vec<(usize, usize)>> = BTreeMap::new();
    for (fi, sf) in files.iter().enumerate() {
        for (fj, f) in sf.fns.iter().enumerate() {
            if f.is_test {
                continue;
            }
            by_name.entry(&f.name).or_default().push((fi, fj));
            if let Some(q) = &f.qual {
                by_qual.entry((q, &f.name)).or_default().push((fi, fj));
            }
        }
    }

    let mut hot: Vec<Vec<bool>> = files.iter().map(|f| vec![false; f.fns.len()]).collect();
    let mut queue: VecDeque<(usize, usize)> = VecDeque::new();
    for &(path, name) in HOT_ROOTS {
        let Some(fi) = files.iter().position(|f| f.path == path) else {
            continue; // file not in this scan (single-file tests, fixtures)
        };
        for (fj, f) in files[fi].fns.iter().enumerate() {
            if !f.is_test && f.name == name && !hot[fi][fj] {
                hot[fi][fj] = true;
                queue.push_back((fi, fj));
            }
        }
    }

    let mut seen_calls: BTreeSet<(usize, usize)> = BTreeSet::new();
    while let Some((fi, fj)) = queue.pop_front() {
        if !seen_calls.insert((fi, fj)) {
            continue;
        }
        let sf = &files[fi];
        let Some((open, close)) = sf.fns[fj].body else {
            continue;
        };
        let mut targets: Vec<(usize, usize)> = Vec::new();
        let mut i = open + 1;
        while i < close {
            // Qualified call `Type::method(` — uppercase first segment
            // resolves only within `impl Type`.
            if i + 3 < close
                && sf.toks[i].kind == Kind::Ident
                && sf.is_punct(i + 1, "::")
                && sf.toks[i + 2].kind == Kind::Ident
                && sf.is_punct(i + 3, "(")
            {
                let seg = sf.tok_text(i);
                let name = sf.tok_text(i + 2);
                let first = seg.chars().next().unwrap_or('_');
                if first.is_ascii_uppercase() {
                    if let Some(t) = by_qual.get(&(seg, name)) {
                        targets.extend(t.iter().copied());
                    }
                } else if let Some(t) = by_name.get(name) {
                    // module-qualified (`events::ev_tag(`): name-resolved
                    targets.extend(t.iter().copied());
                }
                i += 3;
                continue;
            }
            // Bare or method call `name(` / `.name(` — not a definition
            // (`fn name(`), not a macro (`name!(`), not a keyword.
            if i + 1 < close
                && sf.toks[i].kind == Kind::Ident
                && sf.is_punct(i + 1, "(")
                && !(i > 0 && (sf.is_ident(i - 1, "fn") || sf.is_punct(i - 1, "::")))
                && !super::is_keyword(sf.tok_text(i))
            {
                if let Some(t) = by_name.get(sf.tok_text(i)) {
                    targets.extend(t.iter().copied());
                }
            }
            i += 1;
        }
        for (ti, tj) in targets {
            if !hot[ti][tj] {
                hot[ti][tj] = true;
                queue.push_back((ti, tj));
            }
        }
    }
    hot
}

pub struct HotAllocRule;

impl Rule for HotAllocRule {
    fn id(&self) -> &'static str {
        "hot-alloc"
    }
    fn severity(&self) -> Severity {
        Severity::Warn
    }

    /// Flag `Box::new` / `Vec::new` / `vec!` / `format!` inside hot fn
    /// bodies. `Vec::with_capacity` is deliberately not flagged — sizing
    /// buffers once at setup and recycling them is the fix, not a hit.
    fn check_file(&self, ws: &Workspace, file: usize, out: &mut Vec<Finding>) {
        let sf = &ws.files[file];
        for (fj, f) in sf.fns.iter().enumerate() {
            if !ws.hot_fns[file][fj] {
                continue;
            }
            let Some((open, close)) = f.body else {
                continue;
            };
            for i in open + 1..close {
                if sf.toks[i].kind != Kind::Ident {
                    continue;
                }
                let hit = match sf.tok_text(i) {
                    "Box" | "Vec" => {
                        i + 2 < close && sf.is_punct(i + 1, "::") && sf.is_ident(i + 2, "new")
                    }
                    "vec" | "format" => i + 1 < close && sf.is_punct(i + 1, "!"),
                    _ => false,
                };
                if hit {
                    out.push(finding(sf, sf.toks[i].line, self.id(), self.severity()));
                }
            }
        }
    }

    /// A root whose file is present but whose fn is missing means the
    /// dispatch path was refactored without updating [`HOT_ROOTS`]:
    /// deny, loudly — this is exactly how the old `HOT_FNS` list rotted.
    fn check_workspace(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        for &(path, name) in HOT_ROOTS {
            let Some(fi) = ws.file_index(path) else {
                continue;
            };
            let sf = &ws.files[fi];
            if !sf.fns.iter().any(|f| !f.is_test && f.name == name) {
                out.push(Finding {
                    path: sf.path.clone(),
                    line: 1,
                    rule: "hot-alloc",
                    severity: Severity::Deny,
                    snippet: format!(
                        "dispatch root fn `{name}` not found in {path}; update rules::hot_alloc::HOT_ROOTS"
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::rules::{scan_one, scan_sources};

    #[test]
    fn allocs_flagged_in_root_fn_only() {
        let src = "\
impl Simulation {
    fn handle(&mut self) {
        let v = Vec::new();
        let b = Box::new(1);
    }
    fn cold_setup(&mut self) {
        let v: Vec<u32> = Vec::new();
    }
}
";
        let got: Vec<(usize, &str)> = scan_one("crates/core/src/engine/mod.rs", src)
            .into_iter()
            .map(|f| (f.line, f.rule))
            .collect();
        assert_eq!(got, vec![(3, "hot-alloc"), (4, "hot-alloc")]);
    }

    #[test]
    fn hotness_propagates_through_calls() {
        let root = "\
impl Simulation {
    fn handle(&mut self) {
        self.helper();
    }
}
";
        let other = "\
impl Other {
    fn helper(&mut self) {
        let v = vec![1];
    }
    fn never_called_from_hot(&mut self) {
        let v = vec![2];
    }
}
";
        let fs = scan_sources(vec![
            ("crates/core/src/engine/mod.rs".into(), root.into()),
            ("crates/core/src/engine/other.rs".into(), other.into()),
        ]);
        let got: Vec<(String, usize)> = fs.iter().map(|f| (f.path.clone(), f.line)).collect();
        assert_eq!(got, vec![("crates/core/src/engine/other.rs".into(), 3)]);
    }

    #[test]
    fn qualified_calls_resolve_within_impl_only() {
        // handle() calls Ewma::new — only `impl Ewma`'s `new` goes hot,
        // not every `new` in the workspace.
        let root = "\
impl Simulation {
    fn handle(&mut self) {
        let e = Ewma::new();
    }
}
";
        let other = "\
impl Ewma {
    fn new() -> Self {
        let v = vec![1];
        Ewma
    }
}
impl Backpressure {
    fn new() -> Self {
        let v = vec![2];
        Backpressure
    }
}
";
        let fs = scan_sources(vec![
            ("crates/core/src/engine/mod.rs".into(), root.into()),
            ("crates/core/src/other.rs".into(), other.into()),
        ]);
        let lines: Vec<usize> = fs.iter().map(|f| f.line).collect();
        assert_eq!(lines, vec![3], "only Ewma::new is hot: {fs:?}");
    }

    #[test]
    fn missing_root_fn_is_a_deny_finding() {
        // The root file exists but `handle` was renamed away.
        let src = "\
impl Simulation {
    fn handle_event(&mut self) {}
}
";
        let fs = scan_one("crates/core/src/engine/mod.rs", src);
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].rule, "hot-alloc");
        assert!(fs[0].snippet.contains("dispatch root"), "{fs:?}");
    }

    #[test]
    fn with_capacity_is_the_fix_not_a_hit() {
        // every queue root must exist or the root audit itself fires
        let src = "\
fn push(&mut self) {}
fn pop_batch_before(&mut self) {}
fn pop_before(&mut self) {
    let mut v = Vec::with_capacity(8);
    v.push(1);
}
";
        assert!(scan_one("crates/des/src/queue.rs", src).is_empty());
    }

    #[test]
    fn test_fns_do_not_propagate() {
        let src = "\
fn handle(&mut self) {}
#[cfg(test)]
mod tests {
    fn helper_alloc() { let v = vec![1]; }
    #[test]
    fn t() { helper_alloc(); }
}
";
        assert!(scan_one("crates/core/src/engine/mod.rs", src).is_empty());
    }
}
