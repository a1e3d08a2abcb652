//! End-to-end tests for the `nfv-lint` binary: the real workspace must
//! scan clean, a scratch tree seeded with each hazard pattern must fail
//! with a JSON finding carrying the rule id and file:line, the JSON
//! report shape and ordering are pinned by a snapshot, and a seeded
//! corpus pins the exact findings of the six determinism rules.

#![forbid(unsafe_code)]

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;
use std::process::{Command, Output};

fn run_lint(root: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_nfv-lint"))
        .arg("--root")
        .arg(root)
        .output()
        .expect("spawn nfv-lint")
}

#[test]
fn workspace_scans_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let out = run_lint(&root);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "workspace has lint findings:\n{stdout}"
    );
    assert!(stdout.contains("\"total\": 0"), "json: {stdout}");
}

#[test]
fn seeded_hazards_fail_with_json_findings() {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("lint-hazards");
    // `crates/core/` in the path arms the float-accumulation rule.
    let src = root.join("crates/core/src");
    fs::create_dir_all(&src).unwrap();
    let bad = "\
use std::collections::HashMap;
use std::time::Instant;

fn hazards() {
    let mut m: HashMap<u32, u32> = HashMap::new();
    m.insert(1, 2);
    let _s: std::collections::HashSet<u32> = Default::default();
    let _t = Instant::now();
    std::thread::spawn(|| {});
    let _r: u64 = rand::random();
    let mut acc = 0.0f64;
    acc += 0.25;
    let _ = acc;
}
";
    fs::write(src.join("bad.rs"), bad).unwrap();

    let out = run_lint(&root);
    assert!(!out.status.success(), "seeded hazards must fail the lint");
    let stdout = String::from_utf8_lossy(&out.stdout);
    for rule in [
        "hash-map",
        "hash-set",
        "wall-clock",
        "thread-spawn",
        "raw-rand",
        "float-accum",
    ] {
        assert!(stdout.contains(rule), "missing rule {rule} in: {stdout}");
    }
    // file:line location: `use std::collections::HashMap;` is line 1.
    assert!(stdout.contains("bad.rs"), "path missing: {stdout}");
    assert!(stdout.contains("\"line\": 1"), "line missing: {stdout}");

    // An allowlist comment (with the mandatory reason) silences the
    // finding, whether it sits on the line or the line above.
    let ok = "\
use std::collections::HashMap; // nfv-lint: allow(hash-map) -- keys re-sorted before iteration

// nfv-lint: allow(hash-map) -- keys re-sorted before iteration
fn fine() -> HashMap<u32, u32> {
    HashMap::new() // nfv-lint: allow(hash-map) -- keys re-sorted before iteration
}
";
    fs::write(src.join("bad.rs"), ok).unwrap();
    let out = run_lint(&root);
    assert!(
        out.status.success(),
        "allowlisted file should pass: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}

/// Snapshot of the JSON report: pins the exact serialization and the
/// deterministic `(path, line, rule)` output order, including two rules
/// firing on the same line.
#[test]
fn json_report_snapshot() {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("lint-snapshot");
    let core = root.join("crates/core/src");
    let sched = root.join("crates/sched/src");
    fs::create_dir_all(&core).unwrap();
    fs::create_dir_all(&sched).unwrap();
    fs::write(
        core.join("a.rs"),
        "use std::collections::{HashMap, HashSet};\nuse std::time::Instant;\n",
    )
    .unwrap();
    fs::write(
        sched.join("b.rs"),
        "pub fn queued() -> Box<dyn Iterator<Item = u32>> {\n    todo!()\n}\n",
    )
    .unwrap();

    let out = run_lint(&root);
    assert!(!out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let expected = r#"{
  "findings": [
    {"path": "crates/core/src/a.rs", "line": 1, "rule": "hash-map", "severity": "deny", "snippet": "use std::collections::{HashMap, HashSet};"},
    {"path": "crates/core/src/a.rs", "line": 1, "rule": "hash-set", "severity": "deny", "snippet": "use std::collections::{HashMap, HashSet};"},
    {"path": "crates/core/src/a.rs", "line": 2, "rule": "wall-clock", "severity": "deny", "snippet": "use std::time::Instant;"},
    {"path": "crates/sched/src/b.rs", "line": 1, "rule": "layering", "severity": "deny", "snippet": "pub fn queued() -> Box<dyn Iterator<Item = u32>> {"}
  ],
  "total": 4
}
"#;
    assert_eq!(stdout, expected);
}

/// The `--format github` emitter produces one workflow-command
/// annotation per finding, inline on the PR diff.
#[test]
fn github_format_emits_annotations() {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("lint-github");
    let src = root.join("crates/core/src");
    fs::create_dir_all(&src).unwrap();
    fs::write(src.join("a.rs"), "use std::time::Instant;\n").unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_nfv-lint"))
        .arg("--root")
        .arg(&root)
        .args(["--format", "github"])
        .output()
        .expect("spawn nfv-lint");
    assert!(!out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        stdout,
        "::error file=crates/core/src/a.rs,line=1,title=nfv-lint wall-clock::use std::time::Instant;\n"
    );
}

/// The six determinism rules on the real workspace plus a seeded corpus
/// that makes each of them fire: exactly the findings below, no more (the
/// workspace is clean, so every finding comes from the corpus). The set
/// was recorded from the line-lexical scanner this engine replaced.
#[test]
fn determinism_rules_fire_exactly_on_seeded_corpus() {
    const RULES: [&str; 6] = [
        "hash-map",
        "hash-set",
        "wall-clock",
        "thread-spawn",
        "raw-rand",
        "float-accum",
    ];
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut files = nfv_check::collect_files(&root).expect("collect workspace");
    files.push((
        "crates/platform/src/seeded_hazards.rs".to_string(),
        "\
use std::collections::HashMap;
use std::collections::HashSet;
use std::time::{Instant, SystemTime};
use rand::Rng;

pub fn hazards() {
    let m: HashMap<u8, u8> = HashMap::new();
    let s: HashSet<u8> = HashSet::new();
    let t = Instant::now();
    let w = SystemTime::now();
    let h = std::thread::spawn(|| 0u8);
    let r: f64 = rand::random();
}
"
        .to_string(),
    ));
    files.push((
        "crates/core/src/seeded_float.rs".to_string(),
        "\
pub struct Acc {
    pub total: f64,
}

impl Acc {
    pub fn add(&mut self, x: f64) {
        self.total += x as f64;
        // nfv-lint: allow(float-accum) -- reviewed: summation order is fixed
        self.total -= 0.5;
    }
}
"
        .to_string(),
    ));

    let found: BTreeSet<(String, usize, &str)> = nfv_check::rules::scan_sources(files)
        .into_iter()
        .filter(|f| RULES.contains(&f.rule))
        .map(|f| (f.path, f.line, f.rule))
        .collect();
    let hazards = "crates/platform/src/seeded_hazards.rs";
    let want: BTreeSet<(String, usize, &str)> = [
        ("crates/core/src/seeded_float.rs", 7, "float-accum"),
        (hazards, 1, "hash-map"),
        (hazards, 2, "hash-set"),
        (hazards, 3, "wall-clock"),
        (hazards, 4, "raw-rand"),
        (hazards, 7, "hash-map"),
        (hazards, 8, "hash-set"),
        (hazards, 9, "wall-clock"),
        (hazards, 10, "wall-clock"),
        (hazards, 11, "thread-spawn"),
        (hazards, 12, "raw-rand"),
    ]
    .into_iter()
    .map(|(p, l, r)| (p.to_string(), l, r))
    .collect();
    for rule in RULES {
        assert!(
            want.iter().any(|(_, _, r)| *r == rule),
            "no {rule} finding in the seeded corpus"
        );
    }
    assert_eq!(found, want);
}
