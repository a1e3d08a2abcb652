//! Fixture-corpus driver: each subdirectory of `tests/fixtures/` is one
//! scan unit (see the README there). Expected findings are `//~ <rule>`
//! markers on the offending lines; the scan must produce exactly the
//! marked `(path, line, rule)` set and nothing else.
//!
//! This corpus is what keeps the rules honest under refactoring: the
//! three historical fixed-point bugs must stay caught, deleting a
//! dispatch root or an `ev_tag` arm must stay a deny, and the negative
//! units must stay clean.

#![forbid(unsafe_code)]

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

/// `(path, line, rule)` — the comparable identity of a finding.
type Key = (String, usize, String);

fn collect_rs(unit: &Path, dir: &Path, out: &mut Vec<(String, String)>) {
    let mut entries: Vec<_> = fs::read_dir(dir)
        .unwrap()
        .collect::<Result<Vec<_>, _>>()
        .unwrap();
    entries.sort_by_key(|e| e.file_name());
    for entry in entries {
        let path = entry.path();
        if path.is_dir() {
            collect_rs(unit, &path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(unit)
                .unwrap()
                .to_string_lossy()
                .replace('\\', "/");
            out.push((rel, fs::read_to_string(&path).unwrap()));
        }
    }
}

/// Extract `//~ rule [rule ...]` markers as expected findings.
fn expected_of(path: &str, text: &str) -> Vec<Key> {
    let mut out = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let Some(pos) = line.find("//~") else {
            continue;
        };
        for rule in line[pos + 3..].split_whitespace() {
            assert!(
                nfv_check::RULES.contains(&rule),
                "{path}:{}: marker names unknown rule {rule:?}",
                idx + 1
            );
            out.push((path.to_string(), idx + 1, rule.to_string()));
        }
    }
    out
}

#[test]
fn fixture_corpus() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let mut units: Vec<_> = fs::read_dir(&root)
        .unwrap()
        .collect::<Result<Vec<_>, _>>()
        .unwrap()
        .into_iter()
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    units.sort();
    assert!(!units.is_empty(), "no fixture units under {root:?}");

    let mut failures = Vec::new();
    for unit in &units {
        let name = unit.file_name().unwrap().to_string_lossy().to_string();
        let mut files = Vec::new();
        collect_rs(unit, unit, &mut files);
        assert!(!files.is_empty(), "unit {name} has no .rs files");

        let expected: BTreeSet<Key> = files.iter().flat_map(|(p, t)| expected_of(p, t)).collect();
        let got: BTreeSet<Key> = nfv_check::rules::scan_sources(files)
            .into_iter()
            .map(|f| (f.path, f.line, f.rule.to_string()))
            .collect();

        if expected != got {
            let missing: Vec<_> = expected.difference(&got).collect();
            let surprise: Vec<_> = got.difference(&expected).collect();
            failures.push(format!(
                "unit {name}: missing {missing:?}, unexpected {surprise:?}"
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// The three historical bugs each have a dedicated regression unit; a
/// rename must not quietly drop one from the corpus.
#[test]
fn historical_bug_units_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    for unit in ["share_truncation", "ecn_truncation", "storage_ceiling"] {
        assert!(root.join(unit).is_dir(), "missing regression unit {unit}");
    }
}
