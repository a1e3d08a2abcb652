//! Shared experiment plumbing: simulation builders, the paper's canonical
//! NF cost sets, line-rate arithmetic and table rendering.

use nfv_pkt::line_rate_pps;
use nfvnice::{
    trace_to_jsonl_into, Duration, FlowTableStats, MetricsRecorder, NfvniceConfig, Policy,
    QueueStats, Report, SanitizerConfig, SimConfig, Simulation,
};
use std::cell::RefCell;
use std::fmt::Write as _;
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

/// Process-wide switch: when set (the `--sanitize` CLI flag), every
/// experiment config built by [`sim_config`] runs with the sim-sanitizer
/// in strict mode, so any invariant violation aborts the bench run.
static SANITIZE: AtomicBool = AtomicBool::new(false);

/// Enable the runtime sim-sanitizer for all subsequently built configs.
pub fn enable_sanitizer() {
    SANITIZE.store(true, Ordering::Relaxed);
}

/// Is the sim-sanitizer globally enabled?
pub fn sanitizer_enabled() -> bool {
    SANITIZE.load(Ordering::Relaxed)
}

/// `--trace`: record structured events and stream them as JSONL.
static OBS_TRACE: AtomicBool = AtomicBool::new(false);
/// `--metrics-out`: sample per-NF/per-chain time series every monitor tick.
static OBS_METRICS: AtomicBool = AtomicBool::new(false);
/// The open `--trace` output; in serial runs cells stream into it as they
/// finish so trace memory never accumulates across the suite.
static TRACE_OUT: Mutex<Option<std::io::BufWriter<std::fs::File>>> = Mutex::new(None);
/// Observability records of every cell, in suite order (committed by
/// [`run_suite`]; workers accumulate into [`THREAD_CELLS`] first).
static CELLS: Mutex<Vec<CellRecord>> = Mutex::new(Vec::new());
/// When set, [`run_logged`] buffers trace JSONL into the cell record
/// instead of streaming it: a parallel worker must not interleave its
/// bytes with other cells'. [`run_suite`] commits the buffers in order.
static BUFFER_TRACE: AtomicBool = AtomicBool::new(false);
/// Suite-level metadata for [`timings_json`]: worker count and whole-suite
/// wall clock, set by the driver after the suite finishes.
static SUITE_META: Mutex<Option<(usize, f64)>> = Mutex::new(None);

thread_local! {
    /// Cells finished by *this* thread since the last [`take_thread_cells`]
    /// drain. Keeps a parallel worker's records private until the suite
    /// runner commits them in suite order.
    static THREAD_CELLS: RefCell<Vec<CellRecord>> = const { RefCell::new(Vec::new()) };
}

/// One experiment cell's observability record.
struct CellRecord {
    experiment: String,
    cell: String,
    sim_secs: f64,
    /// Host wall-clock time of the cell (telemetry only — never fed back
    /// into the simulation).
    wall_ms: f64,
    trace_digest: u64,
    /// Event-queue self-profiling counters from the run's report. They are
    /// deterministic, but live in the timings file (not the metrics
    /// document) so the metrics describe the simulated system only.
    queue: QueueStats,
    /// Events popped and discarded as stale by the engine.
    stale_pops: u64,
    /// Flow-table self-profiling counters. They depend on the index layout
    /// (probe lengths, rehashes), so like `queue` they live in the timings
    /// file only.
    flow: FlowTableStats,
    /// Flows installed at the end of the run / evicted by aging over it.
    flows_active: u64,
    flows_evicted: u64,
    metrics: Option<MetricsRecorder>,
    /// Buffered trace JSONL (header line + events) when running under a
    /// parallel suite; `None` when streamed directly or tracing is off.
    trace_jsonl: Option<String>,
}

/// Enable structured tracing, streaming JSONL to `path`.
pub fn enable_trace(path: &str) -> std::io::Result<()> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let f = std::fs::File::create(path)?;
    *TRACE_OUT.lock().unwrap() = Some(std::io::BufWriter::new(f));
    OBS_TRACE.store(true, Ordering::Relaxed);
    Ok(())
}

/// Enable metrics recording for all subsequently built configs.
pub fn enable_metrics() {
    OBS_METRICS.store(true, Ordering::Relaxed);
}

/// Run one experiment cell with observability: wall-clock timing, trace
/// streaming and metrics capture, keyed by `experiment`/`cell` labels.
/// Drop-in replacement for `Simulation::run` in experiment code.
pub fn run_logged(experiment: &str, cell: &str, s: &mut Simulation, dur: Duration) -> Report {
    // Wall-clock is bench telemetry only; it never enters the simulation.
    let t0 = std::time::Instant::now(); // nfv-lint: allow(wall-clock) -- per-cell telemetry, never enters the sim
    let r = s.run(dur);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let mut trace_jsonl = None;
    if OBS_TRACE.load(Ordering::Relaxed) {
        let events = s.take_trace();
        // One header object per cell, then the cell's raw event lines.
        let mut body = format!(
            "{{\"cell\":{{\"experiment\":{experiment:?},\"cell\":{cell:?},\"events\":{}}}}}\n",
            events.len()
        );
        trace_to_jsonl_into(&events, &mut body);
        if BUFFER_TRACE.load(Ordering::Relaxed) {
            trace_jsonl = Some(body);
        } else if let Some(w) = TRACE_OUT.lock().unwrap().as_mut() {
            let _ = w.write_all(body.as_bytes());
        }
    }
    let metrics = OBS_METRICS
        .load(Ordering::Relaxed)
        .then(|| s.take_metrics());
    let record = CellRecord {
        experiment: experiment.to_string(),
        cell: cell.to_string(),
        sim_secs: dur.as_secs_f64(),
        wall_ms,
        trace_digest: r.trace_digest,
        queue: r.queue,
        stale_pops: r.stale_pops,
        flow: r.flow,
        flows_active: r.flows_active,
        flows_evicted: r.flows_evicted,
        metrics,
        trace_jsonl,
    };
    THREAD_CELLS.with(|c| c.borrow_mut().push(record));
    r
}

/// Drain the cell records finished by the calling thread, in completion
/// order.
fn take_thread_cells() -> Vec<CellRecord> {
    THREAD_CELLS.with(|c| std::mem::take(&mut *c.borrow_mut()))
}

/// Commit a batch of finished cell records: flush any buffered trace
/// bytes to the `--trace` sink and append the records to the global,
/// suite-ordered ledger behind `metrics_json`/`timings_json`.
fn commit_cells(records: Vec<CellRecord>) {
    let mut cells = CELLS.lock().unwrap();
    for mut rec in records {
        if let Some(body) = rec.trace_jsonl.take() {
            if let Some(w) = TRACE_OUT.lock().unwrap().as_mut() {
                let _ = w.write_all(body.as_bytes());
            }
        }
        cells.push(rec);
    }
}

/// One named suite entry: label + experiment entry point.
pub type Exp = (&'static str, fn(RunLength) -> String);

/// Run `suite` with `jobs` worker threads, printing each entry's output
/// and committing its observability records **in suite order** — stdout,
/// `--trace`, `--metrics-out` and the timings file are byte-identical to
/// a `jobs == 1` run.
///
/// Each entry still builds and runs its simulations single-threaded and
/// fully deterministically; parallelism is purely across entries, and
/// only finished [`CellRecord`] batches cross a thread boundary. With
/// `--trace`, parallel workers buffer each cell's JSONL in memory until
/// commit (serial runs keep streaming), so prefer `--quick` traces when
/// running wide.
pub fn run_suite(suite: &[Exp], len: RunLength, jobs: usize) {
    if jobs <= 1 || suite.len() <= 1 {
        for (_name, f) in suite {
            println!("{}", f(len));
            commit_cells(take_thread_cells());
        }
        return;
    }
    BUFFER_TRACE.store(true, Ordering::Relaxed);
    let next = AtomicUsize::new(0);
    type Slot = (String, Vec<CellRecord>);
    let slots: Mutex<Vec<Option<Slot>>> = Mutex::new(suite.iter().map(|_| None).collect());
    let ready = Condvar::new();
    // Harness-side threads only: every simulation inside stays
    // single-threaded and seeded, so cell results cannot depend on the
    // worker count or interleaving.
    // nfv-lint: allow(thread-spawn) -- harness worker pool; each sim inside stays single-threaded
    std::thread::scope(|scope| {
        for _ in 0..jobs.min(suite.len()) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= suite.len() {
                    break;
                }
                let out = (suite[i].1)(len);
                let cells = take_thread_cells();
                slots.lock().unwrap()[i] = Some((out, cells));
                ready.notify_all();
            });
        }
        // Commit strictly in suite order as results arrive.
        for i in 0..suite.len() {
            let mut guard = slots.lock().unwrap();
            while guard[i].is_none() {
                guard = ready.wait(guard).unwrap();
            }
            let (out, cells) = guard[i].take().unwrap();
            drop(guard);
            println!("{out}");
            commit_cells(cells);
        }
    });
    BUFFER_TRACE.store(false, Ordering::Relaxed);
}

/// Record suite-level telemetry for [`timings_json`]: the worker count and
/// the whole-suite wall clock (comparing a `--jobs N` run's value against
/// a serial run's gives the end-to-end speedup).
pub fn set_suite_meta(jobs: usize, suite_wall_ms: f64) {
    *SUITE_META.lock().unwrap() = Some((jobs, suite_wall_ms));
}

/// Render every recorded cell's metrics as one JSON document. Contains
/// only deterministic fields (simulated time, digests, time series) so two
/// same-seed runs are byte-identical.
pub fn metrics_json() -> String {
    let cells = CELLS.lock().unwrap();
    let mut s = String::from("{\"cells\":[");
    for (i, c) in cells.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{{\"experiment\":{:?},\"cell\":{:?},\"sim_secs\":{},\"trace_digest\":{}",
            c.experiment, c.cell, c.sim_secs, c.trace_digest
        );
        if let Some(m) = &c.metrics {
            let _ = write!(s, ",\"metrics\":{}", m.to_json());
        }
        s.push('}');
    }
    s.push_str("]}");
    s
}

/// Render every recorded cell's metrics as CSV (one commented section per
/// cell). Used when `--metrics-out` ends in `.csv`.
pub fn metrics_csv() -> String {
    let cells = CELLS.lock().unwrap();
    let mut s = String::new();
    for c in cells.iter() {
        let _ = writeln!(
            s,
            "# {}/{} sim_secs={} trace_digest={}",
            c.experiment, c.cell, c.sim_secs, c.trace_digest
        );
        if let Some(m) = &c.metrics {
            s.push_str(&m.to_csv());
        }
        s.push('\n');
    }
    s
}

/// Render per-cell wall-clock timings as JSON (nondeterministic by nature;
/// kept separate from [`metrics_json`] so that file stays reproducible).
pub fn timings_json() -> String {
    let cells = CELLS.lock().unwrap();
    let mut s = String::from("{\"cells\":[");
    let mut total = 0.0;
    for (i, c) in cells.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        total += c.wall_ms;
        let _ = write!(
            s,
            "{{\"experiment\":{:?},\"cell\":{:?},\"sim_secs\":{},\"wall_ms\":{:.3}",
            c.experiment, c.cell, c.sim_secs, c.wall_ms
        );
        // Queue self-profiling: raw counters plus per-simulated-second
        // rates, so regressions in event volume or allocation behaviour
        // show up next to the wall-clock they explain.
        let q = &c.queue;
        let per_sec = |x: u64| x as f64 / c.sim_secs.max(1e-9);
        let _ = write!(
            s,
            ",\"queue\":{{\"pushes\":{},\"pops\":{},\"stale_pops\":{},\
             \"allocs\":{},\"max_len\":{},\
             \"coalesced_pops\":{},\"skipped_ticks\":{},\
             \"pops_per_sim_sec\":{:.1},\"allocs_per_sim_sec\":{:.1}}}",
            q.pushes,
            q.pops,
            c.stale_pops,
            q.allocs,
            q.max_len,
            q.coalesced_pops,
            q.skipped_ticks,
            per_sec(q.pops),
            per_sec(q.allocs),
        );
        // Flow-table self-profiling: like `queue`, implementation
        // internals stay in this (timings) file only.
        let f = &c.flow;
        let avg_probe = f.probe_steps as f64 / (f.exact_hits + f.installs).max(1) as f64;
        let _ = write!(
            s,
            ",\"flow\":{{\"active\":{},\"evicted\":{},\"installs\":{},\"recycled\":{},\
             \"exact_hits\":{},\"memo_hits\":{},\"wildcard_hits\":{},\"probe_steps\":{},\
             \"max_probe\":{},\
             \"avg_probe\":{:.3},\"rehashes\":{},\"shards\":{},\"slots\":{},\"pinned\":{}}}}}",
            c.flows_active,
            c.flows_evicted,
            f.installs,
            f.recycled,
            f.exact_hits,
            f.memo_hits,
            f.wildcard_hits,
            f.probe_steps,
            f.max_probe,
            avg_probe,
            f.rehashes,
            f.shards,
            f.slots,
            f.pinned,
        );
    }
    let _ = write!(s, "],\"total_wall_ms\":{total:.3}");
    if let Some((jobs, suite_wall_ms)) = *SUITE_META.lock().unwrap() {
        let _ = write!(s, ",\"jobs\":{jobs},\"suite_wall_ms\":{suite_wall_ms:.3}");
    }
    s.push('}');
    s
}

/// Print per-cell wall-clock timings to stderr, grouped by experiment.
pub fn print_timings() {
    let cells = CELLS.lock().unwrap();
    if cells.is_empty() {
        return;
    }
    eprintln!("nfv-bench: per-cell wall-clock timings");
    for c in cells.iter() {
        eprintln!(
            "  {:>9.1} ms  {}/{} ({} s simulated)",
            c.wall_ms, c.experiment, c.cell, c.sim_secs
        );
    }
}

/// Flush the streaming trace output, if any.
pub fn flush_trace() {
    if let Some(w) = TRACE_OUT.lock().unwrap().as_mut() {
        let _ = w.flush();
    }
}

/// The paper's canonical Low/Medium/High per-packet costs for the
/// single-core chain experiments (§4.2.1).
pub const LOW: u64 = 120;
/// Medium cost.
pub const MED: u64 = 270;
/// High cost.
pub const HIGH: u64 = 550;

/// The four scheduler configurations evaluated throughout §4.
pub fn all_policies() -> Vec<Policy> {
    vec![
        Policy::CfsNormal,
        Policy::CfsBatch,
        Policy::rr_1ms(),
        Policy::rr_100ms(),
    ]
}

/// The four NFVnice variants of Figs 7/10/11.
pub fn all_variants() -> Vec<NfvniceConfig> {
    vec![
        NfvniceConfig::off(),
        NfvniceConfig::cgroups_only(),
        NfvniceConfig::backpressure_only(),
        NfvniceConfig::full(),
    ]
}

/// 10 G line rate in packets/s for a frame size (64 B → 14.88 Mpps).
pub fn line_rate(frame: u32) -> f64 {
    line_rate_pps(10.0, frame)
}

/// Base simulation config for an experiment.
pub fn sim_config(cores: usize, policy: Policy, nfvnice: NfvniceConfig) -> SimConfig {
    let mut cfg = SimConfig::default();
    cfg.platform.nf_cores = cores;
    cfg.platform.policy = policy;
    cfg.nfvnice = nfvnice;
    if sanitizer_enabled() {
        cfg.sanitizer = SanitizerConfig::strict();
    }
    cfg.obs.trace = OBS_TRACE.load(Ordering::Relaxed);
    cfg.obs.metrics = OBS_METRICS.load(Ordering::Relaxed);
    cfg
}

/// Convenience: build a simulation directly.
pub fn sim(cores: usize, policy: Policy, nfvnice: NfvniceConfig) -> Simulation {
    Simulation::new(sim_config(cores, policy, nfvnice))
}

/// Run length used by experiments: full fidelity or quick (CI) mode.
#[derive(Debug, Clone, Copy)]
pub struct RunLength {
    /// Steady-state measurement duration for throughput experiments.
    pub steady: Duration,
    /// Scale factor applied to long timeline experiments (Figs 13/15a).
    pub timeline_scale: u64,
}

impl RunLength {
    /// Full-fidelity durations (seconds of simulated time).
    pub fn full() -> Self {
        RunLength {
            steady: Duration::from_secs(2),
            timeline_scale: 1,
        }
    }
    /// Quick mode for CI: shorter steady state, timelines compressed
    /// 10×.
    pub fn quick() -> Self {
        RunLength {
            steady: Duration::from_millis(300),
            timeline_scale: 10,
        }
    }
}

/// Format a pps number as Mpps with 3 decimals.
pub fn mpps(pps: f64) -> String {
    format!("{:.3}", pps / 1e6)
}

/// Format a drop count as the paper does (e.g. "3.58M", "11.2K", "0").
pub fn human_count(x: f64) -> String {
    if x >= 1e6 {
        format!("{:.2}M", x / 1e6)
    } else if x >= 1e3 {
        format!("{:.1}K", x / 1e3)
    } else {
        format!("{:.0}", x)
    }
}

/// A plain-text table builder for experiment output.
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header length).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for r in &self.rows {
            out.push_str(&fmt_row(r, &widths));
            out.push('\n');
        }
        out
    }
}

/// Summary line helpers on reports used across experiments.
pub trait ReportExt {
    /// Delivered throughput of chain `c` in Mpps.
    fn chain_mpps(&self, c: usize) -> f64;
}

impl ReportExt for Report {
    fn chain_mpps(&self, c: usize) -> f64 {
        self.chains[c].pps / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["long-name".into(), "123456".into()]);
        let s = t.render();
        assert!(s.contains("name"));
        assert!(s.lines().count() == 4);
    }

    #[test]
    fn human_count_formats() {
        assert_eq!(human_count(3_580_000.0), "3.58M");
        assert_eq!(human_count(11_200.0), "11.2K");
        assert_eq!(human_count(0.0), "0");
    }

    #[test]
    fn line_rate_64() {
        assert!((line_rate(64) / 1e6 - 14.88).abs() < 0.01);
    }
}
