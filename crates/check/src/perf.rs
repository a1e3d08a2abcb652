//! Perf-gate logic behind the `nfv-perfdiff` binary.
//!
//! The CI `perf-gate` job regenerates `BENCH_timings.json` with
//! `nfv-bench --quick` and compares each cell's wall clock against the
//! committed `BENCH_baseline.json`. Wall clock on shared CI runners is
//! noisy, so the gate is deliberately coarse:
//!
//! - a **cell** fails only when it is both over `cell_tol` (default
//!   25 %) slower than baseline *and* more than `abs_floor_ms` (default
//!   25 ms) slower in absolute terms — sub-floor cells jitter by whole
//!   multiples;
//! - the **suite** (sum over cells present in both files) fails past
//!   `suite_tol` (default 10 %), catching death-by-a-thousand-cuts that
//!   no single cell trips;
//! - cells can be allowlisted (`--allow fig1/cell` or an allowlist file)
//!   when a slowdown is understood and accepted; allowlisted cells still
//!   count toward the suite total so the allowlist cannot hide a global
//!   regression.
//!
//! Baselines are medians of ≥3 runs (`--write-baseline`), which drops
//! one-off scheduling spikes without averaging them in. The current
//! side takes the per-cell *minimum* over ≥2 runs (repeat `--current`),
//! because wall-clock noise is one-sided: a spike can only inflate a
//! cell, never deflate it, so the min estimates true cost while a real
//! regression — which slows every run — still fails the gate.

use crate::json::{self, Json};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// One cell's wall-clock measurement, keyed `experiment/cell`.
#[derive(Debug, Clone, PartialEq)]
pub struct CellTiming {
    /// `experiment/cell` key (unique within a suite run).
    pub key: String,
    /// Wall-clock milliseconds for the cell.
    pub wall_ms: f64,
    /// The cell's event-queue counters, when the document carries them
    /// (`BENCH_timings.json` does; a folded baseline does not).
    pub queue: Option<QueueCounts>,
}

/// The event-queue counters of one cell that tell which layer a wall
/// clock change sits in: how many events popped, and how many rode in a
/// same-instant batch. Deterministic for a given build, so any run's
/// copy will do.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct QueueCounts {
    /// Events delivered.
    pub pops: u64,
    /// Events delivered as non-first members of a same-instant batch.
    pub coalesced_pops: u64,
}

impl QueueCounts {
    /// Parse a cell's `"queue"` object; `None` unless both counters are
    /// present.
    fn parse(q: &Json) -> Option<QueueCounts> {
        let count = |name: &str| q.get(name).and_then(Json::as_num).map(|x| x as u64);
        Some(QueueCounts {
            pops: count("pops")?,
            coalesced_pops: count("coalesced_pops")?,
        })
    }

    /// Share of pops delivered inside a batch (0 when nothing popped).
    pub fn coalesced_share(&self) -> f64 {
        ratio(self.coalesced_pops, self.pops)
    }

    fn add(&mut self, other: QueueCounts) {
        self.pops += other.pops;
        self.coalesced_pops += other.coalesced_pops;
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Extract per-cell timings from a `BENCH_timings.json` /
/// `BENCH_baseline.json` document.
///
/// A suite may legitimately run the same `experiment/cell` more than
/// once (the tuning experiment revisits `high80/low60` in both of its
/// sweeps), so duplicate keys are folded into one entry by *summing*
/// wall clocks (and queue counters), in first-occurrence order — the
/// gate tracks the total time a cell name costs per suite run.
pub fn parse_timings(doc: &str) -> Result<Vec<CellTiming>, String> {
    let v = json::parse(doc).map_err(|e| format!("invalid JSON: {e}"))?;
    let cells = v
        .get("cells")
        .and_then(Json::as_arr)
        .ok_or("missing \"cells\" array")?;
    let mut out: Vec<CellTiming> = Vec::with_capacity(cells.len());
    let mut seen: BTreeMap<String, usize> = BTreeMap::new();
    for (i, c) in cells.iter().enumerate() {
        let exp = c
            .get("experiment")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("cell {i}: missing \"experiment\""))?;
        let cell = c
            .get("cell")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("cell {i}: missing \"cell\""))?;
        let wall = c
            .get("wall_ms")
            .and_then(Json::as_num)
            .ok_or_else(|| format!("cell {i}: missing \"wall_ms\""))?;
        let queue = c.get("queue").and_then(QueueCounts::parse);
        let key = format!("{exp}/{cell}");
        match seen.get(&key) {
            Some(&at) => {
                let prev = &mut out[at];
                prev.wall_ms += wall;
                prev.queue = prev.queue.zip(queue).map(|(mut a, b)| {
                    a.add(b);
                    a
                });
            }
            None => {
                seen.insert(key.clone(), out.len());
                out.push(CellTiming {
                    key,
                    wall_ms: wall,
                    queue,
                });
            }
        }
    }
    Ok(out)
}

/// Thresholds for [`compare`].
#[derive(Debug, Clone)]
pub struct Gate {
    /// Per-cell relative slowdown that fails the gate (0.25 = +25 %).
    pub cell_tol: f64,
    /// Whole-suite relative slowdown that fails the gate (0.10 = +10 %).
    pub suite_tol: f64,
    /// Per-cell absolute floor in ms: cells slower by less than this never
    /// fail individually, whatever the ratio (timer-resolution noise).
    pub abs_floor_ms: f64,
}

impl Default for Gate {
    fn default() -> Self {
        Gate {
            cell_tol: 0.25,
            suite_tol: 0.10,
            abs_floor_ms: 25.0,
        }
    }
}

/// Verdict for one cell present in both baseline and current run.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Within thresholds (or faster).
    Ok,
    /// Over thresholds but explicitly allowlisted.
    Allowed,
    /// Over thresholds: fails the gate.
    Regressed,
}

/// One row of the comparison.
#[derive(Debug, Clone)]
pub struct Row {
    /// `experiment/cell` key.
    pub key: String,
    /// Baseline wall-clock ms.
    pub base_ms: f64,
    /// Current wall-clock ms.
    pub cur_ms: f64,
    /// The current run's queue counters, if its document had them.
    pub queue: Option<QueueCounts>,
    /// Gate verdict for this cell.
    pub verdict: Verdict,
}

impl Row {
    /// Relative change, +0.25 = 25 % slower.
    pub fn delta(&self) -> f64 {
        if self.base_ms <= 0.0 {
            0.0
        } else {
            self.cur_ms / self.base_ms - 1.0
        }
    }
}

/// Full result of a baseline-vs-current comparison.
#[derive(Debug, Clone)]
pub struct Diff {
    /// Per-cell rows, in current-run order.
    pub rows: Vec<Row>,
    /// Cells only in the baseline (removed/renamed — informational).
    pub missing: Vec<String>,
    /// Cells only in the current run (new — informational).
    pub added: Vec<String>,
    /// Suite totals over cells present in both files.
    pub suite_base_ms: f64,
    /// Current-run suite total over the same matched cells.
    pub suite_cur_ms: f64,
    /// Did the matched-cell suite total regress past `suite_tol`?
    pub suite_regressed: bool,
    /// Thresholds the comparison ran with.
    pub gate: Gate,
}

impl Diff {
    /// Does the gate fail overall?
    pub fn failed(&self) -> bool {
        self.suite_regressed || self.rows.iter().any(|r| r.verdict == Verdict::Regressed)
    }

    /// Relative suite change over matched cells.
    pub fn suite_delta(&self) -> f64 {
        if self.suite_base_ms <= 0.0 {
            0.0
        } else {
            self.suite_cur_ms / self.suite_base_ms - 1.0
        }
    }
}

/// Compare a current run against the baseline under `gate` thresholds.
/// `allow` holds allowlisted `experiment/cell` keys.
pub fn compare(
    baseline: &[CellTiming],
    current: &[CellTiming],
    allow: &BTreeSet<String>,
    gate: Gate,
) -> Diff {
    let base: BTreeMap<&str, f64> = baseline
        .iter()
        .map(|c| (c.key.as_str(), c.wall_ms))
        .collect();
    let cur_keys: BTreeSet<&str> = current.iter().map(|c| c.key.as_str()).collect();

    let mut rows = Vec::new();
    let mut suite_base = 0.0;
    let mut suite_cur = 0.0;
    for c in current {
        let Some(&b) = base.get(c.key.as_str()) else {
            continue;
        };
        suite_base += b;
        suite_cur += c.wall_ms;
        let over = c.wall_ms > b * (1.0 + gate.cell_tol) && c.wall_ms - b > gate.abs_floor_ms;
        let verdict = if !over {
            Verdict::Ok
        } else if allow.contains(&c.key) {
            Verdict::Allowed
        } else {
            Verdict::Regressed
        };
        rows.push(Row {
            key: c.key.clone(),
            base_ms: b,
            cur_ms: c.wall_ms,
            queue: c.queue,
            verdict,
        });
    }

    let missing = baseline
        .iter()
        .filter(|c| !cur_keys.contains(c.key.as_str()))
        .map(|c| c.key.clone())
        .collect();
    let added = current
        .iter()
        .filter(|c| !base.contains_key(c.key.as_str()))
        .map(|c| c.key.clone())
        .collect();

    let suite_regressed = suite_base > 0.0 && suite_cur > suite_base * (1.0 + gate.suite_tol);
    Diff {
        rows,
        missing,
        added,
        suite_base_ms: suite_base,
        suite_cur_ms: suite_cur,
        suite_regressed,
        gate,
    }
}

/// Fold ≥1 current runs into per-cell *minimum* wall clocks, in the
/// first run's cell order. Wall-clock noise on shared runners is
/// one-sided — interference only ever makes a cell slower — so the min
/// of two runs is a far better estimate of true cost than either run
/// alone, and a real regression slows every run, so it survives the
/// fold. The CI gate runs the quick suite twice and min-folds; a single
/// run's one-off scheduling spikes would otherwise fail honest PRs.
/// Errs when runs disagree on the cell set.
pub fn fold_min(runs: &[Vec<CellTiming>]) -> Result<Vec<CellTiming>, String> {
    let first = runs.first().ok_or("no runs to fold")?;
    let mut by_key: BTreeMap<&str, (f64, usize)> = BTreeMap::new();
    for run in runs {
        if run.len() != first.len() {
            return Err(format!(
                "runs disagree on cell count ({} vs {})",
                run.len(),
                first.len()
            ));
        }
        for c in run {
            let e = by_key.entry(c.key.as_str()).or_insert((f64::INFINITY, 0));
            e.0 = e.0.min(c.wall_ms);
            e.1 += 1;
        }
    }
    for (k, (_, n)) in &by_key {
        if *n != runs.len() {
            return Err(format!("cell {k:?} missing from some runs"));
        }
    }
    Ok(first
        .iter()
        .map(|c| CellTiming {
            key: c.key.clone(),
            wall_ms: by_key[c.key.as_str()].0,
            queue: c.queue,
        })
        .collect())
}

/// Median of a non-empty slice (even length: mean of the middle pair).
fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("wall clocks are finite"));
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Fold ≥1 runs into a baseline document: per-cell median wall clock, in
/// the first run's cell order. Errs when runs disagree on the cell set.
pub fn baseline_json(runs: &[Vec<CellTiming>]) -> Result<String, String> {
    let first = runs.first().ok_or("no runs to fold")?;
    let mut by_key: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for run in runs {
        if run.len() != first.len() {
            return Err(format!(
                "runs disagree on cell count ({} vs {})",
                run.len(),
                first.len()
            ));
        }
        for c in run {
            by_key.entry(c.key.as_str()).or_default().push(c.wall_ms);
        }
    }
    for (k, v) in &by_key {
        if v.len() != runs.len() {
            return Err(format!("cell {k:?} missing from some runs"));
        }
    }
    let mut s = String::from("{\"cells\":[");
    for (i, c) in first.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let med = median(by_key.get_mut(c.key.as_str()).expect("checked above"));
        let (exp, cell) = c.key.split_once('/').ok_or("malformed cell key")?;
        let _ = write!(
            s,
            "{{\"experiment\":{exp:?},\"cell\":{cell:?},\"wall_ms\":{med:.3}}}"
        );
    }
    let _ = writeln!(s, "],\"runs\":{}}}", runs.len());
    Ok(s)
}

/// Render a comparison as a markdown report (the CI artifact).
pub fn render_report(diff: &Diff) -> String {
    let mut s = String::from("# nfv-perfdiff report\n\n");
    let _ = writeln!(
        s,
        "Gate: per-cell > {:.0}% (and > {:.0} ms absolute), suite > {:.0}%.\n",
        diff.gate.cell_tol * 100.0,
        diff.gate.abs_floor_ms,
        diff.gate.suite_tol * 100.0
    );
    let _ = writeln!(
        s,
        "**Suite (matched cells): {:.1} ms → {:.1} ms ({:+.1}%) — {}**\n",
        diff.suite_base_ms,
        diff.suite_cur_ms,
        diff.suite_delta() * 100.0,
        if diff.suite_regressed { "FAIL" } else { "ok" }
    );
    s.push_str("| cell | baseline (ms) | current (ms) | delta | verdict |\n");
    s.push_str("|---|---:|---:|---:|---|\n");
    for r in &diff.rows {
        let v = match r.verdict {
            Verdict::Ok => "ok",
            Verdict::Allowed => "allowed",
            Verdict::Regressed => "**FAIL**",
        };
        let _ = writeln!(
            s,
            "| {} | {:.1} | {:.1} | {:+.1}% | {} |",
            r.key,
            r.base_ms,
            r.cur_ms,
            r.delta() * 100.0,
            v
        );
    }
    let flagged: Vec<&Row> = diff
        .rows
        .iter()
        .filter(|r| r.verdict != Verdict::Ok)
        .collect();
    if !flagged.is_empty() {
        s.push_str(
            "\nEvent queue of each flagged cell (current run): a pop count \
             that moved with the wall clock points at the event-queue \
             layer.\n\n",
        );
        s.push_str("| cell | current (ms) | pops | coalesced share |\n");
        s.push_str("|---|---:|---:|---:|\n");
        for r in flagged {
            let _ = match r.queue {
                Some(q) => writeln!(
                    s,
                    "| {} | {:.1} | {} | {:.4} |",
                    r.key,
                    r.cur_ms,
                    q.pops,
                    q.coalesced_share()
                ),
                None => writeln!(s, "| {} | {:.1} | n/a | n/a |", r.key, r.cur_ms),
            };
        }
    }
    if !diff.added.is_empty() {
        let _ = writeln!(
            s,
            "\nNew cells (not in baseline): {}",
            diff.added.join(", ")
        );
    }
    if !diff.missing.is_empty() {
        let _ = writeln!(
            s,
            "\nBaseline cells missing from this run: {}",
            diff.missing.join(", ")
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cells(v: &[(&str, f64)]) -> Vec<CellTiming> {
        v.iter()
            .map(|(k, ms)| CellTiming {
                key: k.to_string(),
                wall_ms: *ms,
                queue: None,
            })
            .collect()
    }

    #[test]
    fn duplicate_cell_keys_fold_by_summing() {
        // tuning/high80/low60 runs in both sweeps of the tuning
        // experiment: the gate sees one entry with the summed wall clock.
        let doc = r#"{"cells":[
            {"experiment":"tuning","cell":"high80/low60","wall_ms":250.0},
            {"experiment":"tuning","cell":"high90/low70","wall_ms":100.0},
            {"experiment":"tuning","cell":"high80/low60","wall_ms":180.0}],
            "total_wall_ms":530.0}"#;
        let t = parse_timings(doc).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t[0].key, "tuning/high80/low60");
        assert_eq!(t[0].wall_ms, 430.0);
        assert_eq!(t[1].key, "tuning/high90/low70");
    }

    #[test]
    fn parses_real_timings_shape() {
        let doc = r#"{"cells":[
            {"experiment":"fig1","cell":"a","sim_secs":0.3,"wall_ms":100.5,
             "queue":{"pushes":1,"pops":1,"stale_pops":0,
                      "allocs":1,"max_len":1,
                      "pops_per_sim_sec":3.3,"allocs_per_sim_sec":3.3}},
            {"experiment":"fig1","cell":"b","sim_secs":0.3,"wall_ms":50.0,
             "queue":{}}],
            "total_wall_ms":150.5,"jobs":4,"suite_wall_ms":151.0}"#;
        let t = parse_timings(doc).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t[0].key, "fig1/a");
        assert_eq!(t[0].wall_ms, 100.5);
    }

    #[test]
    fn identical_runs_pass() {
        let base = cells(&[("fig1/a", 100.0), ("fig1/b", 200.0)]);
        let d = compare(&base, &base, &BTreeSet::new(), Gate::default());
        assert!(!d.failed());
        assert!(d.rows.iter().all(|r| r.verdict == Verdict::Ok));
    }

    #[test]
    fn synthetic_2x_slowdown_fails() {
        // The acceptance scenario: double every cell's wall clock and the
        // gate must fail on both the cells and the suite total.
        let base = cells(&[("fig1/a", 100.0), ("fig7/b", 300.0)]);
        let cur = cells(&[("fig1/a", 200.0), ("fig7/b", 600.0)]);
        let d = compare(&base, &cur, &BTreeSet::new(), Gate::default());
        assert!(d.failed());
        assert!(d.suite_regressed);
        assert_eq!(
            d.rows
                .iter()
                .filter(|r| r.verdict == Verdict::Regressed)
                .count(),
            2
        );
    }

    #[test]
    fn small_cells_never_fail_individually() {
        // 3x slower but only 10 ms absolute: under the floor, suite-only.
        let base = cells(&[("fig1/tiny", 5.0)]);
        let cur = cells(&[("fig1/tiny", 15.0)]);
        let d = compare(&base, &cur, &BTreeSet::new(), Gate::default());
        assert_eq!(d.rows[0].verdict, Verdict::Ok);
        // Suite threshold still sees it (10/5 = 200% over).
        assert!(d.suite_regressed);
    }

    #[test]
    fn allowlist_spares_cell_but_not_suite() {
        let base = cells(&[("fig1/a", 100.0), ("fig1/b", 1000.0)]);
        let cur = cells(&[("fig1/a", 200.0), ("fig1/b", 1000.0)]);
        let allow: BTreeSet<String> = ["fig1/a".to_string()].into();
        let d = compare(&base, &cur, &allow, Gate::default());
        assert_eq!(d.rows[0].verdict, Verdict::Allowed);
        // 1100/1100 base vs 1200 cur = +9.1% < 10%: suite passes here,
        // but the allowed cell's time stayed in the suite sums.
        assert!(!d.suite_regressed);
        assert!(!d.failed());
        assert_eq!(d.suite_cur_ms, 1200.0);
    }

    #[test]
    fn added_and_missing_cells_are_informational() {
        let base = cells(&[("fig1/a", 100.0), ("fig1/gone", 50.0)]);
        let cur = cells(&[("fig1/a", 100.0), ("fig1/new", 75.0)]);
        let d = compare(&base, &cur, &BTreeSet::new(), Gate::default());
        assert!(!d.failed());
        assert_eq!(d.missing, vec!["fig1/gone".to_string()]);
        assert_eq!(d.added, vec!["fig1/new".to_string()]);
        // Suite sums only cover the matched cell.
        assert_eq!(d.suite_base_ms, 100.0);
        assert_eq!(d.suite_cur_ms, 100.0);
    }

    #[test]
    fn baseline_is_per_cell_median() {
        let runs = vec![
            cells(&[("fig1/a", 100.0), ("fig1/b", 10.0)]),
            cells(&[("fig1/a", 500.0), ("fig1/b", 12.0)]), // spike run
            cells(&[("fig1/a", 110.0), ("fig1/b", 11.0)]),
        ];
        let doc = baseline_json(&runs).unwrap();
        let t = parse_timings(&doc).unwrap();
        assert_eq!(t[0].wall_ms, 110.0); // median, not mean: spike dropped
        assert_eq!(t[1].wall_ms, 11.0);
    }

    #[test]
    fn min_fold_drops_one_sided_spikes() {
        // A 3x spike in one run survives neither the fold nor the gate,
        // but a genuine regression present in both runs still fails.
        let base = cells(&[("fig1/a", 100.0), ("fig1/b", 100.0)]);
        let runs = vec![
            cells(&[("fig1/a", 310.0), ("fig1/b", 210.0)]), // a spiked
            cells(&[("fig1/a", 101.0), ("fig1/b", 205.0)]), // b slow again
        ];
        let cur = fold_min(&runs).unwrap();
        assert_eq!(cur[0].wall_ms, 101.0);
        assert_eq!(cur[1].wall_ms, 205.0);
        let d = compare(&base, &cur, &BTreeSet::new(), Gate::default());
        assert_eq!(d.rows[0].verdict, Verdict::Ok);
        assert_eq!(d.rows[1].verdict, Verdict::Regressed);
    }

    #[test]
    fn min_fold_rejects_mismatched_runs() {
        let runs = vec![cells(&[("fig1/a", 1.0)]), cells(&[("fig1/b", 1.0)])];
        assert!(fold_min(&runs).is_err());
    }

    #[test]
    fn baseline_rejects_mismatched_runs() {
        let runs = vec![cells(&[("fig1/a", 1.0)]), cells(&[("fig1/b", 1.0)])];
        assert!(baseline_json(&runs).is_err());
    }

    #[test]
    fn report_lists_queue_counters_of_flagged_cells() {
        let doc = |a_ms: f64, b_ms: f64| {
            format!(
                r#"{{"cells":[
                {{"experiment":"fig13","cell":"NFVnice","wall_ms":{a_ms},
                 "queue":{{"pushes":2000,"pops":2000,"coalesced_pops":500}}}},
                {{"experiment":"fig7","cell":"Default","wall_ms":{b_ms},
                 "queue":{{"pushes":10,"pops":10,"coalesced_pops":0}}}}]}}"#
            )
        };
        let base = parse_timings(&doc(100.0, 100.0)).unwrap();
        let cur = parse_timings(&doc(300.0, 101.0)).unwrap();
        assert_eq!(
            cur[0].queue,
            Some(QueueCounts {
                pops: 2000,
                coalesced_pops: 500
            })
        );
        let d = compare(&base, &cur, &BTreeSet::new(), Gate::default());
        assert!(d.failed());
        let md = render_report(&d);
        assert!(
            md.contains("| fig13/NFVnice | 300.0 | 2000 | 0.2500 |"),
            "{md}"
        );
        // Only flagged cells are listed.
        assert!(!md.contains("| fig7/Default | 101.0 | 10 |"), "{md}");
        // A document without counters still renders the flagged cell.
        let d = compare(
            &base,
            &cells(&[("fig13/NFVnice", 300.0)]),
            &BTreeSet::new(),
            Gate::default(),
        );
        assert!(render_report(&d).contains("| fig13/NFVnice | 300.0 | n/a | n/a |"));
    }

    #[test]
    fn report_mentions_failures() {
        let base = cells(&[("fig1/a", 100.0)]);
        let cur = cells(&[("fig1/a", 250.0)]);
        let d = compare(&base, &cur, &BTreeSet::new(), Gate::default());
        let md = render_report(&d);
        assert!(md.contains("fig1/a"));
        assert!(md.contains("**FAIL**"));
    }
}
