//! Exit-code contract of the `nfv-perfdiff` binary — the perf gate's
//! edge cases exercised end-to-end, the way CI invokes it. The unit
//! tests in `perf.rs` pin the same semantics at the library layer;
//! these pin that the gate's *verdict* (process exit code) reflects
//! them, so a refactor of `main` can't silently turn FAIL into green.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::Command;

struct Tmp(PathBuf);

impl Tmp {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("nfv-perfdiff-cli-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        Tmp(dir)
    }
    fn file(&self, name: &str, body: &str) -> String {
        let p = self.0.join(name);
        std::fs::write(&p, body).unwrap();
        p.to_string_lossy().into_owned()
    }
}

impl Drop for Tmp {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Build a timings document from `(experiment, cell, wall_ms)` rows.
fn timings(rows: &[(&str, &str, f64)]) -> String {
    let cells: Vec<String> = rows
        .iter()
        .map(|(e, c, ms)| format!(r#"{{"experiment":"{e}","cell":"{c}","wall_ms":{ms}}}"#))
        .collect();
    let total: f64 = rows.iter().map(|r| r.2).sum();
    format!(
        r#"{{"cells":[{}],"total_wall_ms":{total}}}"#,
        cells.join(",")
    )
}

fn run(args: &[&str]) -> std::process::ExitStatus {
    Command::new(env!("CARGO_BIN_EXE_nfv-perfdiff"))
        .args(args)
        .output()
        .expect("spawn nfv-perfdiff")
        .status
}

#[test]
fn allowlisted_cell_still_counts_toward_suite_threshold() {
    let t = Tmp::new("allow-suite");
    let base = t.file(
        "base.json",
        &timings(&[("fig1", "a", 1000.0), ("fig1", "b", 1000.0)]),
    );
    // `fig1/a` triples: allowlisted, so no per-cell FAIL — but its extra
    // 2000 ms still pushes the suite total +100%, past the 10% suite
    // tolerance. The allowlist spares cells, never the suite.
    let cur = t.file(
        "cur.json",
        &timings(&[("fig1", "a", 3000.0), ("fig1", "b", 1000.0)]),
    );
    let allow = t.file("allow.txt", "# temporarily noisy\nfig1/a\n");
    let st = run(&[
        "--baseline",
        &base,
        "--current",
        &cur,
        "--allowlist",
        &allow,
    ]);
    assert_eq!(st.code(), Some(1), "suite threshold must still fire");

    // Same shape, regression small enough for the suite tolerance:
    // allowlisted cell alone must not fail the gate.
    let cur_ok = t.file(
        "cur_ok.json",
        &timings(&[("fig1", "a", 1080.0), ("fig1", "b", 1000.0)]),
    );
    let st = run(&[
        "--baseline",
        &base,
        "--current",
        &cur_ok,
        "--allowlist",
        &allow,
    ]);
    assert_eq!(
        st.code(),
        Some(0),
        "allowlisted cell within suite tol passes"
    );
}

#[test]
fn duplicate_cell_keys_fold_by_summing() {
    let t = Tmp::new("dup-fold");
    // The tuning experiment emits `high80/low60` in two sweeps; the
    // baseline was folded to one 430 ms entry. A current run whose two
    // occurrences sum to the same 430 ms is identical — exit 0.
    let base = t.file(
        "base.json",
        &timings(&[
            ("tuning", "high80/low60", 430.0),
            ("tuning", "other", 100.0),
        ]),
    );
    let same = t.file(
        "same.json",
        &timings(&[
            ("tuning", "high80/low60", 250.0),
            ("tuning", "other", 100.0),
            ("tuning", "high80/low60", 180.0),
        ]),
    );
    assert_eq!(
        run(&["--baseline", &base, "--current", &same]).code(),
        Some(0)
    );
    // If the duplicates summed per-occurrence instead (each compared to
    // the folded 430), both halves would read as huge *improvements* and
    // a doubled total would slip through. Doubling both occurrences must
    // fail on the folded comparison.
    let doubled = t.file(
        "doubled.json",
        &timings(&[
            ("tuning", "high80/low60", 500.0),
            ("tuning", "other", 100.0),
            ("tuning", "high80/low60", 360.0),
        ]),
    );
    assert_eq!(
        run(&["--baseline", &base, "--current", &doubled]).code(),
        Some(1)
    );
}

#[test]
fn multi_current_takes_per_cell_minimum() {
    let t = Tmp::new("min-fold");
    let base = t.file("base.json", &timings(&[("fig7", "a", 100.0)]));
    // Run 1 caught a one-sided 5x wall-clock spike; run 2 is clean. The
    // gate takes the per-cell min across runs, so the pair passes...
    let spiky = t.file("spiky.json", &timings(&[("fig7", "a", 500.0)]));
    let clean = t.file("clean.json", &timings(&[("fig7", "a", 102.0)]));
    assert_eq!(
        run(&[
            "--baseline",
            &base,
            "--current",
            &spiky,
            "--current",
            &clean
        ])
        .code(),
        Some(0)
    );
    // ...while the spiky run alone fails — the min-fold, not a lucky
    // ordering, is what spares it.
    assert_eq!(
        run(&["--baseline", &base, "--current", &spiky]).code(),
        Some(1)
    );
    // A real regression slows every run: min-folding two slow runs
    // still fails.
    let spiky2 = t.file("spiky2.json", &timings(&[("fig7", "a", 480.0)]));
    assert_eq!(
        run(&[
            "--baseline",
            &base,
            "--current",
            &spiky,
            "--current",
            &spiky2
        ])
        .code(),
        Some(1)
    );
}

#[test]
fn usage_and_io_errors_exit_2() {
    let t = Tmp::new("usage");
    let base = t.file("base.json", &timings(&[("fig1", "a", 100.0)]));
    // Missing --current is a usage error (2), distinct from a perf FAIL (1).
    assert_eq!(run(&["--baseline", &base]).code(), Some(2));
    // Unreadable input file: also 2.
    let missing = t.0.join("nope.json").to_string_lossy().into_owned();
    assert_eq!(
        run(&["--baseline", &base, "--current", &missing]).code(),
        Some(2)
    );
}
