//! Wall-clock benchmark of the NFVnice simulator.
//!
//! ```text
//! cargo run --profile bench-dist --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1> [--sim-ms <ms>]
//! ```
//!
//! `--trace 0` repeats timed runs of the workload for `--seconds` and
//! prints the end-to-end metrics over the runs. `--trace 1`
//! prints the per-layer metrics: exact operation counts from the runs,
//! then one traced run whose layers are replayed one by one (see
//! `replay.rs`). The last line of standard output is one JSON object.
//! `--sim-ms` shortens the simulated run (smoke tests); the recorded
//! simulated results are then not checked. See README.md.

mod measure;
mod replay;
mod workloads;

use measure::{median, now, peak_rss_mb, run_once, Counts, Sample};
use nfv_des::Duration;
use nfvnice::SanitizerConfig;
use replay::{per, LayerReplay, Profile, Tracer};
use std::fmt::Write as _;
use std::process::ExitCode;
use workloads::{Inputs, Shape, Workload, DEFAULT_SEED};

/// At least this many timed runs, however short `--seconds` is.
const MIN_RUNS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    sim: Duration,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut sim_ms) =
        (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value}; one of {}", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--sim-ms" => sim_ms = Some(value.parse::<u64>().map_err(|_| bad())?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed: seed.unwrap_or(DEFAULT_SEED),
        seconds: seconds.unwrap_or(10.0).max(0.0),
        trace: trace.unwrap_or(false),
        sim: sim_ms.map_or(workload.sim_duration(), Duration::from_millis),
    })
}

/// Outcome of a batch of timed runs.
struct Timed {
    samples: Vec<Sample>,
    attempted: u64,
    failed: u64,
    counts: Option<Counts>,
}

/// Repeat timed runs for `seconds` (at least [`MIN_RUNS`]). Every run is
/// checked; a run whose counts differ from the first run's is failed too,
/// since the simulation must be deterministic.
///
/// Runs alternate over the CPUs the process may use: on a shared host
/// one CPU can be contended for many seconds while another is quiet, and
/// a process left on the CPU it started on would time that CPU alone.
fn timed_runs(args: &Args, shape: &Shape, seconds: f64) -> Timed {
    let expect = (args.seed == DEFAULT_SEED && args.sim == args.workload.sim_duration())
        .then(|| measure::expected(args.workload));
    let cpus = measure::allowed_cpus();
    let start = now();
    let mut t = Timed {
        samples: Vec::new(),
        attempted: 0,
        failed: 0,
        counts: None,
    };
    while t.samples.len() < MIN_RUNS || (now() - start).as_secs_f64() < seconds {
        let slot = t.samples.len() % cpus.len().max(1);
        if cpus.len() > 1 {
            measure::pin(&cpus[slot..=slot]);
        }
        let (sample, result) =
            run_once(shape, args.sim, SanitizerConfig::default(), expect.as_ref());
        t.attempted += 1;
        t.samples.push(sample);
        match result {
            Ok(c) => match &t.counts {
                Some(first) if *first != c => {
                    t.failed += 1;
                    println!("run {}: counts differ from the first run's", t.attempted);
                }
                Some(_) => {}
                None => t.counts = Some(c),
            },
            Err(e) => {
                t.failed += 1;
                println!("run {}: FAILED: {e}", t.attempted);
            }
        }
    }
    if cpus.len() > 1 {
        measure::pin(&cpus);
    }
    t
}

/// The run time the benchmark reports: the lower quartile of the runs.
/// Contention from other tenants of the host only ever adds time, and it
/// comes and goes in episodes of seconds, so run times are bimodal and a
/// median jumps between the modes from one process to the next; the
/// lower quartile stays on the uncontended mode.
fn run_time(samples: &[Sample]) -> f64 {
    quartiles(&samples.iter().map(|s| s.run_s).collect::<Vec<_>>()).0
}

/// Metric set under construction: `(name, value, unit)`.
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn add(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    fn json(&self) -> String {
        let mut s = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push('}');
        s
    }
}

fn quartiles(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |q: f64| v[((v.len() - 1) as f64 * q).round() as usize];
    (at(0.25), at(0.75))
}

fn end_to_end(t: &Timed, m: &mut Metrics) {
    let run: Vec<f64> = t.samples.iter().map(|s| s.run_s).collect();
    let setup_s = median(&t.samples.iter().map(|s| s.setup_s).collect::<Vec<_>>());
    let offered = t.counts.as_ref().map_or(0, |c| c.offered);
    let run_s = run_time(&t.samples);
    let q3 = quartiles(&run).1;
    println!(
        "timed runs: {}  run_s q1 {run_s:.6}, median {:.6}, q3 {q3:.6}  setup_s median {setup_s:.6}  offered frames {offered}",
        run.len(),
        median(&run),
    );
    let ms: Vec<String> = run.iter().map(|s| format!("{:.1}", s * 1e3)).collect();
    println!("run_s per run (ms, in order): {}", ms.join(" "));
    m.add("run_s", run_s, "s");
    m.add("sim_pkts_per_s", offered as f64 / run_s, "pkt/s");
    m.add("setup_s", setup_s, "s");
    m.add("peak_rss_mb", peak_rss_mb(), "MB");
}

/// `replay / run`, 1 when both are 0.
fn fidelity(l: &LayerReplay) -> f64 {
    if l.run_ops == 0 {
        if l.ops == 0 {
            1.0
        } else {
            0.0
        }
    } else {
        l.ops as f64 / l.run_ops as f64
    }
}

fn per_layer(
    c: &Counts,
    p: &Profile,
    run_s: f64,
    traced_run_s: f64,
    export_s: f64,
    sim: Duration,
    m: &mut Metrics,
) {
    let q = &c.queue;
    let f = &c.flow;
    let share = |secs: f64| secs / run_s;
    m.add(
        "des.pops_per_kpkt",
        per(q.pops as f64 * 1e3, c.offered),
        "count",
    );
    m.add(
        "des.coalesced_share",
        per(q.coalesced_pops as f64, q.pops),
        "ratio",
    );
    m.add(
        "des.skipped_share",
        per(q.skipped_ticks as f64, q.pops),
        "ratio",
    );
    m.add(
        "des.cascades_per_pop",
        per(q.cascades as f64, q.pops),
        "ratio",
    );
    m.add("des.max_len", q.max_len as f64, "count");
    m.add("des.ns_per_pop", per(run_s * 1e9, q.pops), "ns");
    m.add("des.replay_ns_per_op", p.des.ns_per_op(), "ns");
    m.add("des.replay_share", share(p.des.secs), "ratio");
    m.add("des.replay_fidelity", fidelity(&p.des), "ratio");

    m.add("traffic.replay_ns_per_pkt", p.traffic.ns_per_op(), "ns");
    m.add("traffic.replay_share", share(p.traffic.secs), "ratio");

    let lookups = f.exact_hits + f.wildcard_hits;
    m.add(
        "pkt.memo_hit_ratio",
        per(f.memo_hits as f64, lookups),
        "ratio",
    );
    m.add(
        "pkt.avg_probe",
        per(f.probe_steps as f64, f.exact_hits + f.installs),
        "count",
    );
    m.add("pkt.max_probe", f.max_probe as f64, "count");
    m.add("pkt.installs", f.installs as f64, "count");
    m.add("pkt.rehashes", f.rehashes as f64, "count");
    m.add("pkt.replay_ns_per_classify", p.classify.ns_per_op(), "ns");
    m.add("pkt.replay_ns_per_ring_op", p.ring.ns_per_op(), "ns");
    m.add("pkt.replay_ns_per_mempool_op", p.mempool.ns_per_op(), "ns");
    m.add("pkt.replay_share", share(p.pkt_secs()), "ratio");

    m.add(
        "platform.nf_pkts_per_pkt",
        per(c.nf_execs as f64, c.offered),
        "ratio",
    );
    m.add(
        "platform.useful_ratio",
        per(c.delivered as f64, c.nf_execs),
        "ratio",
    );
    m.add(
        "platform.entry_shed_ratio",
        per(c.entry_drops as f64, c.classified),
        "ratio",
    );
    m.add(
        "platform.replay_ns_per_nf_pkt",
        p.platform.ns_per_op(),
        "ns",
    );
    m.add("platform.replay_share", share(p.platform.secs), "ratio");
    m.add("platform.replay_fidelity", fidelity(&p.platform), "ratio");

    m.add(
        "sched.switches_per_sim_s",
        c.switches() as f64 / sim.as_secs_f64(),
        "1/s",
    );
    m.add("sched.cgroup_writes", c.cgroup_writes as f64, "count");
    m.add("sched.replay_ns_per_switch", p.sched.ns_per_op(), "ns");
    m.add("sched.replay_share", share(p.sched.secs), "ratio");

    m.add("core.throttle_events", c.throttle_events as f64, "count");
    m.add("core.ecn_marks", c.ecn_marks as f64, "count");
    m.add("core.replay_ns_per_tick", p.core.ns_per_op(), "ns");
    m.add("core.replay_share", share(p.core.secs), "ratio");

    m.add("obs.metrics_bytes", c.metrics_bytes as f64, "bytes");
    m.add("obs.replay_ns_per_sample", p.obs.ns_per_op(), "ns");
    m.add("obs.export_s", export_s, "s");
    m.add("obs.replay_share", share(p.obs.secs), "ratio");

    let attributed = p.des.secs
        + p.traffic.secs
        + p.pkt_secs()
        + p.platform.secs
        + p.sched.secs
        + p.core.secs
        + p.obs.secs;
    m.add(
        "engine.unattributed_share",
        1.0 - share(attributed),
        "ratio",
    );
    m.add("traced.run_s", traced_run_s, "s");
    m.add("traced.timed_run_s", run_s, "s");
}

/// Replay results that must match the run exactly; `Err` names the first
/// mismatch.
fn replay_exact(w: Workload, c: &Counts, p: &Profile) -> Result<(), String> {
    if p.traffic.ops != c.offered {
        return Err(format!(
            "traffic replay emitted {} frames, the run offered {}",
            p.traffic.ops, c.offered
        ));
    }
    if w == Workload::Flows1m {
        let (r, s) = (&c.flow, &p.classify_stats);
        if (r.installs, r.probe_steps) != (s.installs, s.probe_steps) {
            return Err(format!(
                "flow-table replay made {} installs / {} probe steps, the run {} / {}",
                s.installs, s.probe_steps, r.installs, r.probe_steps
            ));
        }
    }
    Ok(())
}

fn run(args: &Args) -> (bool, u64, u64, Metrics) {
    let inputs = Inputs::from_seed(args.seed);
    let shape = Shape::new(args.workload, inputs, args.sim);
    println!(
        "workload {} seed {} ({inputs:?}) simulated {} ms",
        args.workload.name(),
        args.seed,
        args.sim.as_nanos() / 1_000_000
    );
    let mut m = Metrics::default();
    if !args.trace {
        let t = timed_runs(args, &shape, args.seconds);
        end_to_end(&t, &mut m);
        return (t.failed == 0, t.attempted, t.failed, m);
    }
    // Half the time for timed runs (the `run_s` the shares divide by),
    // then the traced run, the strict-sanitizer run and the replays.
    let t = timed_runs(args, &shape, args.seconds / 2.0);
    let run_s = run_time(&t.samples);
    let export_s = median(&t.samples.iter().map(|s| s.export_s).collect::<Vec<_>>());
    let (mut attempted, mut failed) = (t.attempted, t.failed);
    let mut tracer = Tracer::new();
    let root = tracer.open("traced-run", None);
    let span = tracer.open("run", Some(root));
    let (sample, traced) = run_once(&shape, args.sim, SanitizerConfig::default(), None);
    tracer.close(span);
    attempted += 1;
    let span = tracer.open("sanitizer", Some(root));
    let (_, strict) = run_once(&shape, args.sim, SanitizerConfig::strict(), None);
    tracer.close(span);
    attempted += 1;
    if let Err(e) = &strict {
        failed += 1;
        println!("strict-sanitizer run: FAILED: {e}");
    }
    let counts = match (traced, &t.counts) {
        (Ok(c), Some(first)) if c == *first => c,
        (Ok(_), _) => {
            failed += 1;
            println!("traced run: counts differ from the timed runs'");
            return (false, attempted, failed, m);
        }
        (Err(e), _) => {
            failed += 1;
            println!("traced run: FAILED: {e}");
            return (false, attempted, failed, m);
        }
    };
    let profile = replay::profile(&shape, args.sim, &counts, &mut tracer, root);
    tracer.close(root);
    if let Err(e) = replay_exact(args.workload, &counts, &profile) {
        failed += 1;
        println!("replay fidelity: FAILED: {e}");
    }
    println!("layer replays (replayed ops vs the run's):");
    let layers = [
        ("traffic frames", &profile.traffic),
        ("pkt classify", &profile.classify),
        ("pkt ring ops", &profile.ring),
        ("pkt mempool ops", &profile.mempool),
        ("des pops", &profile.des),
        ("platform nf execs", &profile.platform),
        ("sched switches", &profile.sched),
        ("core ticks", &profile.core),
        ("obs ticks", &profile.obs),
    ];
    for (name, l) in layers {
        println!(
            "  {name:<18} {:>12} vs {:>12}  {:.6} s",
            l.ops, l.run_ops, l.secs
        );
    }
    println!(
        "  core throttles     {:>12} vs {:>12}\n  obs export bytes   {:>12} vs {:>12}",
        profile.core_throttles, counts.throttle_events, profile.obs_bytes, counts.metrics_bytes
    );
    println!("spans (s since the traced run began):");
    for s in &tracer.spans {
        let parent = s.parent.map_or("-", |i| tracer.spans[i].name);
        println!(
            "  span {:<14} parent {:<12} start {:.6} end {:.6}",
            s.name, parent, s.start, s.end
        );
    }
    println!("traced run_s {:.6} vs timed run_s {run_s:.6}", sample.run_s);
    per_layer(
        &counts,
        &profile,
        run_s,
        sample.run_s,
        export_s,
        args.sim,
        &mut m,
    );
    (failed == 0, attempted, failed, m)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (correct, attempted, failed, m) = run(&args);
    let correct = correct && m.0.iter().all(|(_, v, _)| v.is_finite());
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        m.json()
    );
    ExitCode::SUCCESS
}
