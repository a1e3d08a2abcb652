//! Unit checks carried over from the retired line-lexical scanner, now
//! run against the token-level engine in [`crate::rules`]. Each test
//! keeps the name and the source snippets it had beside that scanner, so
//! every behaviour it pinned stays checked on the engine that replaced
//! it. Where the engines' contracts differ, the snippet follows the
//! current one: allow directives carry their mandatory `-- <reason>`, and
//! `hot-alloc` hotness comes from the dispatch roots
//! ([`crate::rules::hot_alloc::HOT_ROOTS`]) rather than a list of names.

#[cfg(test)]
mod tests {
    use crate::rules::scan_one;
    use crate::Severity;

    fn rules_of(src: &str) -> Vec<&'static str> {
        scan_one("crates/x/src/lib.rs", src)
            .into_iter()
            .map(|f| f.rule)
            .collect()
    }

    /// `(line, rule)` of the allocation findings only: a single-file scan
    /// of a root file that lacks some of its roots also reports each
    /// missing root (a deny `hot-alloc` finding on line 1), which these
    /// checks are not about.
    fn hot_allocs(path: &str, src: &str) -> Vec<(usize, &'static str)> {
        scan_one(path, src)
            .into_iter()
            .filter(|f| f.rule == "hot-alloc" && f.severity == Severity::Warn)
            .map(|f| (f.line, f.rule))
            .collect()
    }

    #[test]
    fn flags_hash_containers() {
        assert_eq!(
            rules_of("use std::collections::HashMap;\n"),
            vec!["hash-map"]
        );
        assert_eq!(
            rules_of("let s: HashSet<u32> = HashSet::new();\n"),
            vec!["hash-set"]
        );
    }

    #[test]
    fn flags_wall_clocks_and_threads() {
        assert_eq!(rules_of("let t = Instant::now();\n"), vec!["wall-clock"]);
        assert_eq!(
            rules_of("let t = std::time::SystemTime::now();\n"),
            vec!["wall-clock"]
        );
        assert_eq!(
            rules_of("std::thread::spawn(|| {});\n"),
            vec!["thread-spawn"]
        );
    }

    #[test]
    fn flags_scoped_and_builder_threads() {
        assert_eq!(
            rules_of("std::thread::scope(|s| { s.spawn(|| {}); });\n"),
            vec!["thread-spawn"]
        );
        assert_eq!(
            rules_of("let h = thread::Builder::new().spawn(f);\n"),
            vec!["thread-spawn"]
        );
        // Harness-side concurrency (the bench suite runner) opts out with
        // the standard annotation; the sim crates never should.
        let allowed = "std::thread::scope(|s| { // nfv-lint: allow(thread-spawn) -- harness only\n";
        assert!(rules_of(allowed).is_empty());
    }

    #[test]
    fn flags_raw_rand_but_not_simrng() {
        assert_eq!(rules_of("use rand::Rng;\n"), vec!["raw-rand"]);
        assert_eq!(
            rules_of("let x = rand::random::<u8>();\n"),
            vec!["raw-rand"]
        );
        assert!(rules_of("use nfv_des::SimRng;\n").is_empty());
        assert!(rules_of("let operand = 3; operand_use(operand);\n").is_empty());
    }

    #[test]
    fn float_accum_only_in_scoped_crates() {
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
    fn integer_accumulation_not_flagged() {
        assert!(rules_of("count += 1;\n").is_empty());
        assert!(scan_one("crates/core/src/x.rs", "count += 1;\n").is_empty());
    }

    #[test]
    fn comments_and_strings_are_ignored() {
        assert!(rules_of("// a HashMap would be wrong here\n").is_empty());
        assert!(rules_of("/* Instant::now() */ let x = 1;\n").is_empty());
        assert!(rules_of("let s = \"HashMap Instant rand::\";\n").is_empty());
        assert!(rules_of("let s = r#\"thread::spawn\"#;\n").is_empty());
    }

    #[test]
    fn word_boundaries_respected() {
        assert!(rules_of("struct InstantReplay; let MyHashMapLike = 1;\n").is_empty());
    }

    #[test]
    fn allowlist_same_line_and_line_above() {
        let same =
            "use std::collections::HashMap; // nfv-lint: allow(hash-map) -- keyed lookups only\n";
        assert!(rules_of(same).is_empty());
        let above = "// nfv-lint: allow(wall-clock) -- harness timing\nlet t = Instant::now();\n";
        assert!(rules_of(above).is_empty());
        // Allowing one rule does not silence another (and the unused
        // allow is itself reported).
        let partial =
            "// nfv-lint: allow(hash-map) -- keyed lookups only\nlet t = Instant::now();\n";
        assert_eq!(rules_of(partial), vec!["stale-allow", "wall-clock"]);
        // Multiple rules in one directive.
        let multi = "use std::collections::{HashMap, HashSet}; // nfv-lint: allow(hash-map, hash-set) -- keyed lookups only\n";
        assert!(rules_of(multi).is_empty());
    }

    #[test]
    fn cfg_test_modules_are_exempt() {
        let src = "\
fn real() {}
#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    #[test]
    fn t() { let _: HashMap<u8, u8> = HashMap::new(); }
}
";
        assert!(rules_of(src).is_empty());
        // But code before the module is still scanned.
        let src2 = "use std::collections::HashMap;\n#[cfg(test)]\nmod tests {}\n";
        assert_eq!(rules_of(src2), vec!["hash-map"]);
    }

    #[test]
    fn cfg_test_single_item_without_body() {
        let src = "#[cfg(test)]\nuse std::collections::HashMap;\nuse std::time::Instant;\n";
        assert_eq!(rules_of(src), vec!["wall-clock"]);
    }

    #[test]
    fn finding_carries_location_and_snippet() {
        let f = &scan_one("crates/x/src/a.rs", "\nlet t = Instant::now();\n")[0];
        assert_eq!(f.line, 2);
        assert_eq!(f.path, "crates/x/src/a.rs");
        assert_eq!(f.snippet, "let t = Instant::now();");
        assert_eq!(f.severity, Severity::Deny);
    }

    #[test]
    fn hot_alloc_flags_allocs_in_hot_fns_only() {
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
        assert_eq!(
            hot_allocs("crates/core/src/engine/mod.rs", src),
            vec![(3, "hot-alloc"), (4, "hot-alloc")]
        );
        // Same code outside the hot-path file set: no findings.
        assert!(scan_one("crates/traffic/src/cbr.rs", src).is_empty());
    }

    #[test]
    fn hot_alloc_macros_and_allowlist() {
        let src = "\
fn handle(&mut self) {
    let msg = format!(\"x\");
    // nfv-lint: allow(hot-alloc) -- teardown only
    let v = vec![1, 2];
}
";
        assert_eq!(
            hot_allocs("crates/core/src/engine/mod.rs", src),
            vec![(2, "hot-alloc")]
        );
    }

    #[test]
    fn hot_alloc_respects_fn_word_boundary_and_capacity() {
        // `push_back_helper` is not the `push` root; with_capacity is the
        // fix, not a hit.
        let src = "\
fn push_back_helper(&mut self) {
    let v = Vec::new();
}
fn push(&mut self) {
    let mut v = Vec::with_capacity(8);
    v.push(1);
}
";
        assert!(hot_allocs("crates/des/src/queue.rs", src).is_empty());
    }

    #[test]
    fn hot_alloc_ends_at_fn_close() {
        let src = "\
impl Q {
    fn pop_before(&mut self) {
        if x { let y = vec![0]; }
    }
    fn other(&mut self) {
        let v = vec![1];
    }
}
";
        assert_eq!(
            hot_allocs("crates/des/src/queue.rs", src),
            vec![(3, "hot-alloc")]
        );
    }
}
