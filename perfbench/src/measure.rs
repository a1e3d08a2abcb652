//! Timed runs, the counters read off a finished run, and the output check.

use crate::workloads::{Shape, Source, Workload};
use nfv_des::{Duration, QueueStats};
use nfv_pkt::FlowTableStats;
use nfvnice::{conservation_ledger, packets_conserved, Report, SanitizerConfig, Simulation};
/// The benchmark's clock. Wall time is read only around calls into the
/// simulator — never inside it.
pub type Clock = std::time::Instant; // nfv-lint: allow(wall-clock) -- the benchmark times the simulator from outside

pub fn now() -> Clock {
    Clock::now()
}

/// Observable simulated results: checked, never scored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Observed {
    /// Per chain: `(delivered packets, p99 latency in ns)`.
    pub chains: Vec<(u64, u64)>,
    pub entry_drops: u64,
    pub nic_overflow: u64,
    pub wasted_drops: u64,
}

impl Observed {
    fn of(r: &Report) -> Observed {
        Observed {
            chains: r
                .chains
                .iter()
                .map(|c| (c.delivered, c.latency_p99.as_nanos()))
                .collect(),
            entry_drops: r.entry_drops,
            nic_overflow: r.nic_overflow,
            wasted_drops: r.total_wasted_drops,
        }
    }
}

/// The observable results of each workload at the default seed and
/// simulated length, recorded from the simulator the benchmark was
/// written against. A later change that moves any of them changed what
/// the simulator computes, not only how fast.
pub fn expected(w: Workload) -> Observed {
    let (chains, entry_drops, nic_overflow, wasted_drops): (&[(u64, u64)], u64, u64, u64) = match w
    {
        Workload::ChainNfvnice => (&[(824_889, 11_534_336)], 3_620_539, 0, 0),
        Workload::ChainDefault3Core => (&[(460_448, 24_117_248)], 0, 0, 3_960_180),
        Workload::Flows1m => (&[(1_349_910, 9_728)], 0, 0, 0),
        Workload::TcpIsolation => (
            &[
                (1_479_717, 147_456),
                (138_113, 26_214_400),
                (138_128, 26_214_400),
                (138_143, 26_214_400),
                (138_128, 26_214_400),
                (138_112, 26_214_400),
                (138_112, 26_214_400),
                (138_112, 26_214_400),
                (138_112, 26_214_400),
                (138_112, 26_214_400),
                (138_112, 26_214_400),
            ],
            18_618_400,
            0,
            416,
        ),
    };
    Observed {
        chains: chains.to_vec(),
        entry_drops,
        nic_overflow,
        wasted_drops,
    }
}

/// Exact operation counts of one run, read from the public `Report`,
/// `QueueStats`, `FlowTableStats` and platform state.
#[derive(Debug, Clone, PartialEq)]
pub struct Counts {
    pub queue: QueueStats,
    pub flow: FlowTableStats,
    /// Frames offered to the simulated NIC: classified plus NIC overflow.
    pub offered: u64,
    pub classified: u64,
    /// Classified frames of TCP flows.
    pub tcp_classified: u64,
    /// Classified frames that entered a chain (got a mempool buffer).
    pub admitted: u64,
    pub entry_drops: u64,
    pub delivered: u64,
    /// NF packet executions (every processed packet, wasted or not).
    pub nf_execs: u64,
    pub voluntary_switches: u64,
    pub involuntary_switches: u64,
    pub cgroup_writes: u64,
    pub throttle_events: u64,
    pub ecn_marks: u64,
    /// Bytes of the exported metrics document (0 with metrics off).
    pub metrics_bytes: u64,
    pub observed: Observed,
}

impl Counts {
    fn read(shape: &Shape, sim: &Simulation, r: &Report, metrics_bytes: u64) -> Counts {
        let p = &sim.platform;
        let ledger = conservation_ledger(p);
        // TCP senders are closed loops: the traffic replay sends what the
        // run classified for them.
        let tcp_classified = shape
            .sources
            .iter()
            .zip(shape.pinned_tuples())
            .filter(|(src, _)| matches!(src, Source::Tcp { .. }))
            .filter_map(|(_, tuple)| p.flow_table.get(&tuple?))
            .map(|e| e.packets)
            .sum();
        let tasks = p.nfs.iter().map(|nf| p.sched.task(nf.task));
        let (vol, invol) = tasks.fold((0, 0), |(v, i), t| {
            (v + t.voluntary_switches, i + t.involuntary_switches)
        });
        Counts {
            queue: r.queue,
            flow: r.flow,
            offered: ledger.classified + r.nic_overflow,
            classified: ledger.classified,
            tcp_classified,
            admitted: ledger.classified
                - p.stats.entry_throttle_drops
                - p.stats.mempool_fail
                - p.stats.nf_down_drops,
            entry_drops: r.entry_drops,
            delivered: ledger.delivered,
            nf_execs: r.nfs.iter().map(|n| n.processed).sum(),
            voluntary_switches: vol,
            involuntary_switches: invol,
            cgroup_writes: r.cgroup_writes,
            throttle_events: r.throttle_events,
            ecn_marks: r.ecn_marks,
            metrics_bytes,
            observed: Observed::of(r),
        }
    }

    /// Context switches over the run.
    pub fn switches(&self) -> u64 {
        self.voluntary_switches + self.involuntary_switches
    }
}

/// One run's wall times, in seconds.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// `Simulation::new` through the last builder call.
    pub setup_s: f64,
    /// `Simulation::run` until the `Report` is held (plus the metrics
    /// export where the workload records metrics).
    pub run_s: f64,
    /// The metrics export alone (0 with metrics off).
    pub export_s: f64,
}

/// Build, run and read one simulation; `Err` describes a failed check.
pub fn run_once(
    shape: &Shape,
    dur: Duration,
    sanitizer: SanitizerConfig,
    expect: Option<&Observed>,
) -> (Sample, Result<Counts, String>) {
    let t0 = now();
    let mut sim = shape.build(sanitizer);
    let t1 = now();
    let report = sim.run(dur);
    let t2 = now();
    let metrics_bytes = if shape.metrics {
        sim.take_metrics().to_json().len() as u64
    } else {
        0
    };
    let t3 = now();
    let sample = Sample {
        setup_s: (t1 - t0).as_secs_f64(),
        run_s: (t3 - t1).as_secs_f64(),
        export_s: (t3 - t2).as_secs_f64(),
    };
    let counts = check(shape, &sim, &report, metrics_bytes, expect);
    (sample, counts)
}

fn check(
    shape: &Shape,
    sim: &Simulation,
    report: &Report,
    metrics_bytes: u64,
    expect: Option<&Observed>,
) -> Result<Counts, String> {
    if !packets_conserved(&sim.platform) {
        return Err(format!(
            "packets not conserved: {:?}",
            conservation_ledger(&sim.platform)
        ));
    }
    if sim.platform.stats.unclassified != 0 {
        return Err(format!(
            "{} frames matched no flow rule",
            sim.platform.stats.unclassified
        ));
    }
    if let Some(v) = sim.sanitizer.violations().first() {
        return Err(format!(
            "{} sanitizer violation(s), first: {} at {}: {}",
            sim.sanitizer.violations().len(),
            v.rule,
            v.at,
            v.detail
        ));
    }
    let counts = Counts::read(shape, sim, report, metrics_bytes);
    if let Some(want) = expect {
        if &counts.observed != want {
            return Err(format!(
                "simulated results moved: expected {want:?}, got {:?}",
                counts.observed
            ));
        }
    }
    Ok(counts)
}

/// Median of `xs` (mean of the middle pair for even lengths).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `cpu_set_t`: a 1024-bit CPU mask.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// The CPUs this process may run on (empty if the mask cannot be read).
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask: CpuSet = [0; 16];
    // SAFETY: `mask` is a writable `cpu_set_t`-sized buffer and the size
    // passed is its size.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) };
    if rc != 0 {
        return Vec::new();
    }
    (0..1024)
        .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Restrict this thread to `cpus` (a no-op if the kernel refuses).
pub fn pin(cpus: &[usize]) {
    let mut mask: CpuSet = [0; 16];
    for &c in cpus {
        mask[c / 64] |= 1 << (c % 64);
    }
    // SAFETY: `mask` is a readable `cpu_set_t`-sized buffer and the size
    // passed is its size.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &mask) };
}

/// Peak resident set of this process so far, in MB.
pub fn peak_rss_mb() -> f64 {
    /// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 `long`s
    /// of which `ru_maxrss` (KiB) is the first.
    #[repr(C)]
    struct Rusage {
        utime: [i64; 2],
        stime: [i64; 2],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut u = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `u` is a live, writable `struct rusage` with the platform's
    // layout, and `getrusage` writes only within it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut u) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    u.maxrss as f64 / 1024.0
}
